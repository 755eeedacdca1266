"""Instance construction, the checks it runs, the per-player integer view, and
the goods-to-public embedding."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fairdec as fd
from fairdec.model import TooManyDigits
from reference_helpers import best_unowned_good, embedding_view, read_goods


def test_as_fraction_accepts_exact_forms():
    assert fd.as_fraction(3) == Fraction(3)
    assert fd.as_fraction("2/6") == Fraction(1, 3)
    assert fd.as_fraction(Fraction(5, 4)) == Fraction(5, 4)


@pytest.mark.parametrize("text", ["٣", "1/٣", "1e99999999999", "1e-5000", "x"])
def test_as_fraction_reads_strings_like_documents(text):
    """Non-ASCII digits and values io.to_json could not write are refused,
    without building 10**exponent."""
    with pytest.raises(ValueError):
        fd.as_fraction(text)
    assert fd.as_fraction("0.125") == Fraction(1, 8)


@pytest.mark.parametrize(
    "build",
    [
        fd.as_fraction,
        lambda text: fd.goods_instance([[text]]),
        lambda text: fd.decision_instance([[[text]]]),
    ],
    ids=["as_fraction", "goods_instance", "decision_instance"],
)
def test_zero_denominators_are_value_errors(build):
    """A "p/q" with q = 0 is refused as a ValueError, like any other string
    that is not a number, not with a bare ZeroDivisionError."""
    with pytest.raises(ValueError, match=r"^zero denominator in '1/0'$"):
        build("1/0")
    with pytest.raises(ValueError, match=r"^not a number: 'x'$"):
        build("x")


def test_over_long_decimals_are_too_many_digits():
    """A decimal whose mantissa or exponent has more digits than int()
    converts is refused as TooManyDigits, like one with a huge exponent; a
    zero mantissa reads as 0 at any exponent."""
    with pytest.raises(TooManyDigits):
        fd.as_fraction("1." + "1" * 5000)
    with pytest.raises(TooManyDigits):
        fd.as_fraction("1e99999999999")
    for exponent in ("1" * 5000, "0" * 5000):
        with pytest.raises(TooManyDigits):
            fd.as_fraction("1e" + exponent)
    assert fd.as_fraction("0e" + "1" * 5000) == 0


def test_as_fraction_rejects_bools_and_floats():
    with pytest.raises(TypeError):
        fd.as_fraction(True)
    with pytest.raises(TypeError):
        fd.as_fraction(0.5)


def test_a_missing_row_is_not_made_up_by_an_extra_one():
    """One issue a row short and another a row over hold as many rows, of the
    same widths, as a well-formed instance; each row count is still refused."""
    with pytest.raises(fd.InstanceFormatError) as info:
        fd.decision_instance([[[1, 2]], [[1, 2], [3, 4], [5, 6]]], players=["p", "q"])
    assert [(v.path, v.message) for v in info.value.violations] == [
        ("issues[0].utilities", "expected 2 rows (one per player), got 1"),
        ("issues[1].utilities", "expected 2 rows (one per player), got 3"),
    ]


def test_the_factories_type_test_every_matrix():
    """A bool is refused and a Fraction or string is read at its value, in
    any matrix; only a matrix that is not all plain ints is read by row, and
    every factory-built instance leaves its Fraction rows unbuilt."""
    for build in (
        lambda: fd.goods_instance([[True]]),
        lambda: fd.decision_instance([[[1, 2]], [[0, True]]]),
    ):
        with pytest.raises(TypeError, match="booleans are not utilities"):
            build()
    half = fd.goods_instance([[Fraction(1, 2), 1], ["1", 0]])
    assert "utilities" not in vars(half)
    assert (half.scales, half.maxima) == ((2, 1), ((1, 2), (1, 0)))
    assert half.utilities == ((Fraction(1, 2), 1), (1, 0))
    mixed = fd.decision_instance([[[1, 2], [3, 4]], [["1/3", 0], [5, 6]]])
    assert not any("utilities" in vars(issue) for issue in mixed.issues)
    assert mixed.scales == (3, 1)
    assert mixed.scaled == (((3, 6), (3, 4)), ((1, 0), (5, 6)))
    assert mixed.issues[1].utilities == ((Fraction(1, 3), 0), (5, 6))


def test_unbuilt_fraction_rows_answer_no_other_attribute():
    """Only ``utilities`` is built on first read; any other missing name is
    an AttributeError, so hasattr tells the truth."""
    inst = fd.decision_instance([[[1, "1/2"]], [[3, 4]]])
    goods = fd.goods_instance([[1, "1/3"]])
    for unscaled in (inst.issues[0], goods):
        assert hasattr(unscaled, "missing") is False
        assert hasattr(unscaled, "utilities") is True


@pytest.mark.parametrize(
    "copier",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_copies_of_factory_built_instances_are_equal(copier):
    """A pickled or copied instance, its Fraction rows still unbuilt, equals
    the original and has the same leximin outcome."""
    for inst in (
        fd.decision_instance([[[1, "1/2"], [0, 2]], [[3, 0, 1], ["2/3", 1, 0]]]),
        fd.goods_instance([[1, "1/3", 2], [0, 2, "3/2"]]),
        fd.random_goods(3, 6, 11),
    ):
        copied = copier(inst)
        assert copied == inst
        assert fd.leximin(copied).outcome == fd.leximin(inst).outcome


def test_factories_fill_default_labels():
    inst = fd.decision_instance([[[1, 0], [0, 1]]])
    assert inst.players == ("p1", "p2")
    assert inst.issues[0].name == "issue1"
    assert inst.issues[0].alternatives == ("a1", "a2")
    goods = fd.goods_instance([[1, 2, 3]])
    assert goods.players == ("p1",)
    assert goods.goods == ("g1", "g2", "g3")


@pytest.mark.parametrize(
    "labels", [{"issue_names": ["x"]}, {"alternative_names": [["a"]]}]
)
def test_a_short_label_list_drops_no_issue(labels):
    for utilities in ([[[1]], [[2]]], [[[1]], [["1/2"]]]):
        with pytest.raises(IndexError):
            fd.decision_instance(utilities, **labels)


def test_factories_keep_explicit_labels():
    goods = fd.goods_instance([[1], [2]], players=("ann", "bob"), goods=("car",))
    assert goods.players == ("ann", "bob")
    assert goods.goods == ("car",)


def test_dimensions_and_lookup():
    inst = fd.decision_instance([[[1, 0], [2, 3]], [[4], [5]]])
    assert (inst.n, inst.m) == (2, 2)
    assert inst.issues[0].k == 2
    assert inst.issues[1].k == 1
    assert inst.utility(1, 0, 1) == 3
    goods = fd.goods_instance([[1, 2], [3, 4]])
    assert (goods.n, goods.m) == (2, 2)
    assert goods.utility(1, 0) == 3


def _violations(build) -> list[fd.Violation]:
    with pytest.raises(fd.InstanceFormatError) as info:
        build()
    return info.value.violations


def test_validate_accepts_well_formed_instances():
    inst = fd.decision_instance([[[1, 0], [0, 1]], [[2], [3]]])
    assert fd.DecisionInstance(issues=inst.issues, players=inst.players) == inst
    goods = fd.goods_instance([[0, 5], [1, 2]])
    assert fd.GoodsInstance(goods.utilities, goods.players, goods.goods) == goods


def test_validate_rejects_empty_and_negative():
    no_issues = _violations(lambda: fd.DecisionInstance(issues=(), players=("p1",)))
    assert "issues" in [v.path for v in no_issues]

    no_players = _violations(
        lambda: fd.GoodsInstance(utilities=(), players=(), goods=("g1",))
    )
    assert "players" in [v.path for v in no_players]

    violations = _violations(lambda: fd.goods_instance([[1, "-2"]]))
    assert [v.path for v in violations] == ["utilities[0][1]"]
    assert "negative" in violations[0].message


def test_validate_reports_shape_mismatches_with_paths():
    lopsided = fd.Issue(
        utilities=((Fraction(1), Fraction(2)), (Fraction(3),)),
        name="x",
        alternatives=("a", "b"),
    )
    paths = [
        v.path
        for v in _violations(
            lambda: fd.DecisionInstance(issues=(lopsided,), players=("p1", "p2", "p3"))
        )
    ]
    assert "issues[0].utilities" in paths  # 2 rows for 3 players
    assert "issues[0].utilities[1]" in paths  # short row


def _issue(*rows, alternatives=("a", "b")):
    return fd.Issue(
        utilities=tuple(tuple(map(Fraction, row)) for row in rows),
        name="x",
        alternatives=alternatives,
    )


INVALID = {
    "public-negative": (
        lambda: fd.decision_instance([[[1, 0], [0, 2]], [[2, -1], [0, 1]]]),
        ["issues[1].utilities[0][1]"],
    ),
    "public-ragged": (
        lambda: fd.decision_instance([[[1, 0], [0, 2]], [[2, 1], [3]]]),
        ["issues[1].utilities[1]"],
    ),
    "public-no-players": (
        lambda: fd.decision_instance([[], []]),
        ["players", "issues[0]", "issues[1]"],
    ),
    "public-no-issues": (
        lambda: fd.decision_instance([], players=["p1"]),
        ["issues"],
    ),
    "public-no-alternatives": (
        lambda: fd.decision_instance([[[], []]]),
        ["issues[0]"],
    ),
    "bare-public-negative": (
        lambda: fd.DecisionInstance(
            issues=(_issue((1, "-1/2")),), players=("p1",)
        ),
        ["issues[0].utilities[0][1]"],
    ),
    "bare-public-ragged": (
        lambda: fd.DecisionInstance(
            issues=(_issue((1, 2), (3,)),), players=("p1", "p2", "p3")
        ),
        ["issues[0].utilities", "issues[0].utilities[1]"],
    ),
    "bare-public-no-players": (
        lambda: fd.DecisionInstance(
            issues=(_issue(alternatives=("a",)),), players=()
        ),
        ["players", "issues[0]", "issues[0].alternatives"],
    ),
    "bare-public-no-issues": (
        lambda: fd.DecisionInstance(issues=(), players=("p1",)),
        ["issues"],
    ),
    "bare-public-no-alternatives": (
        lambda: fd.DecisionInstance(
            issues=(_issue((), alternatives=()),), players=("p1",)
        ),
        ["issues[0]"],
    ),
    "goods-negative": (lambda: fd.goods_instance([[1, "-2"]]), ["utilities[0][1]"]),
    "goods-ragged": (lambda: fd.goods_instance([[1, 2], [3]]), ["utilities[1]"]),
    "goods-no-players": (lambda: fd.goods_instance([], goods=["g1"]), ["players"]),
    "goods-no-goods": (lambda: fd.goods_instance([[], []]), ["goods"]),
    "bare-goods-negative": (
        lambda: fd.GoodsInstance(((Fraction(-3, 7),),), ("a",), ("g",)),
        ["utilities[0][0]"],
    ),
    "bare-goods-ragged": (
        lambda: fd.GoodsInstance(((Fraction(1),),), ("a", "b"), ("g",)),
        ["utilities"],
    ),
    "bare-goods-no-players": (
        lambda: fd.GoodsInstance(utilities=(), players=(), goods=("g1",)),
        ["players"],
    ),
    "bare-goods-no-goods": (
        lambda: fd.GoodsInstance(utilities=((),), players=("a",), goods=()),
        ["goods"],
    ),
}


@pytest.mark.parametrize("build, paths", INVALID.values(), ids=INVALID.keys())
def test_invalid_instances_cannot_be_built(build, paths):
    """Factories and bare dataclasses alike raise with every defect's path, so
    no mechanism, share or audit ever receives such an instance."""
    with pytest.raises(fd.InstanceFormatError) as info:
        build()
    violations = info.value.violations
    assert [v.path for v in violations] == paths
    assert str(info.value) == "; ".join(f"{v.path}: {v.message}" for v in violations)


def test_goods_embedding_shares_one_zero():
    goods = fd.goods_instance([[3, 1, 2], [1, 2, 5], [4, 4, 1]])
    image = fd.goods_to_public(goods)
    zeros = [
        issue.utilities[i][j]
        for issue in image.issues
        for i in range(goods.n)
        for j in range(goods.n)
        if i != j
    ]
    assert len(zeros) == 18 and all(z == 0 for z in zeros)
    assert len({id(z) for z in zeros}) == 1


def test_goods_embedding_is_diagonal():
    goods = fd.goods_instance([[3, 0], [1, 2]])
    image = fd.goods_to_public(goods)
    assert (image.n, image.m) == (2, 2)
    assert image.issues[0].name == "g1"
    assert image.issues[0].alternatives == ("p1", "p2")
    # alternative j of issue g pays only player j, exactly her value for g
    assert image.utility(0, 0, 0) == 3
    assert image.utility(0, 0, 1) == 0
    assert image.utility(1, 0, 0) == 0
    assert image.utility(1, 1, 1) == 2
    # the image carries the same integer view as the goods instance
    assert image.scales == goods.scales and image.maxima == goods.maxima


def test_allocation_owner():
    goods = fd.goods_instance([[1, 1, 1], [1, 1, 1]])
    alloc = fd.allocation([(0, 2), (1,)])
    assert fd.allocation_to_outcome(goods, alloc).choices == (0, 1, 0)


def test_bundle_utility_is_additive():
    goods = fd.goods_instance([[1, 2, 4]])
    assert fd.bundle_utility(goods, 0, []) == 0
    assert fd.bundle_utility(goods, 0, [0, 2]) == 5


def test_issue_maxima_breaks_ties_low():
    inst = fd.decision_instance([[[2, 5, 5]], [[7, 1, 7]]])
    assert inst.maxima == ((Fraction(5), Fraction(7)),)
    assert inst.ranking == ((1, 0),)
    # round robin fixes the lowest alternative that reaches the maximum
    assert fd.round_robin(inst).outcome.choices == (1, 0)
    tied = fd.decision_instance([[[3, 1]], [[0, 3]], [[3]]])
    assert tied.ranking == ((0, 1, 2),)


def test_ranking_orders_maxima_non_ascending():
    inst = fd.decision_instance([[[1]], [[4]], [[2, 3]]])
    assert [inst.maxima[0][t] for t in inst.ranking[0]] == [
        Fraction(4),
        Fraction(3),
        Fraction(1),
    ]
    # the cached tables take no part in equality or hashing
    fresh = fd.decision_instance([[[1]], [[4]], [[2, 3]]])
    assert inst == fresh and hash(inst) == hash(fresh)
    goods = fd.goods_instance([[1, 4, 3, 4], [0, 0, 2, 0]])
    assert goods.maxima == goods.utilities
    assert goods.ranking == ((1, 3, 2, 0), (2, 0, 1, 3))
    # fractional utilities: maxima are the player's values times her scale
    mixed = fd.decision_instance(
        [[["1/2", 0], [1, 2]], [["2/3", "1/3"], ["3/7", 0]]]
    )
    assert mixed.scales == (6, 7)
    assert mixed.maxima == ((3, 4), (14, 3))
    assert mixed.ranking == ((1, 0), (0, 1))
    fractional = fd.goods_instance([["1/2", "3/4", "2/4"]])
    assert fractional.scales == (4,)
    assert fractional.maxima == ((2, 3, 2),)
    assert fractional.ranking == ((1, 0, 2),)


def test_model_values_are_frozen():
    outcome = fd.Outcome(choices=(0, 1))
    with pytest.raises(AttributeError):
        outcome.choices = (1, 1)


def test_a_bare_instance_shares_no_row_with_its_caller():
    """A bare instance built from list rows keeps its view in its own tuples:
    editing those lists afterwards changes no view, audit or search result."""
    issue_rows = [[[3, 1], [0, 2]], [[1, 1], [2, 0]]]
    goods_rows = [[3, 1, 4], [2, 0, 5]]

    def bare(issues, goods):
        labels = ("a", "b")
        public = fd.DecisionInstance(
            tuple(fd.Issue(rows, f"i{t}", labels) for t, rows in enumerate(issues)),
            ("p", "q"),
        )
        return public, fd.GoodsInstance(goods, ("p", "q"), ("g", "h", "k"))

    def seen(public, goods):
        outcome, alloc = fd.Outcome((0, 1)), fd.allocation([{0, 1}, {2}])
        return (
            public.scaled,
            public.maxima,
            goods.maxima,
            goods.scaled,
            fd.audit(public, outcome).utilities,
            fd.audit_goods(goods, alloc).utilities,
            fd.max_nash_welfare(public).outcome,
            fd.max_nash_welfare(goods).outcome,
        )

    expected = seen(*bare(
        [[list(row) for row in rows] for rows in issue_rows],
        [list(row) for row in goods_rows],
    ))
    built = bare(issue_rows, goods_rows)
    issue_rows[0][0][0] = goods_rows[0][0] = -100
    assert seen(*built) == expected
    assert expected[4][0] == 4 and expected[5][0] == 4


goods_matrices = st.integers(1, 3).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 5), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@given(goods_matrices, st.data())
def test_outcome_allocation_round_trip(matrix, data):
    """Outcomes of the embedding and allocations are the same thing."""
    goods = fd.goods_instance(matrix)
    owners = data.draw(
        st.lists(st.integers(0, goods.n - 1), min_size=goods.m, max_size=goods.m)
    )
    outcome = fd.Outcome(choices=tuple(owners))
    alloc = fd.outcome_to_allocation(goods, outcome)
    assert fd.allocation_to_outcome(goods, alloc) == outcome
    assert fd.allocation_utilities(goods, alloc) == fd.utility_vector(
        fd.goods_to_public(goods), outcome
    )


@given(goods_matrices)
def test_embedding_preserves_shape(matrix):
    goods = fd.goods_instance(matrix)
    image = fd.goods_to_public(goods)
    assert image.n == goods.n
    assert image.m == goods.m
    assert all(issue.k == goods.n for issue in image.issues)


@st.composite
def embedding_rows(draw):
    """Rows of n = 1 to 6 players over 1 to 7 goods: either mostly zeros, or
    fractions that a document writes as "p/q" strings."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    zero_heavy = st.sampled_from([0, 0, 0, 0, 1, 7])
    cells = draw(st.sampled_from([zero_heavy, st.fractions(0, 9, max_denominator=12)]))
    return [draw(st.lists(cells, min_size=m, max_size=m)) for _ in range(n)]


@settings(deadline=None, max_examples=80)
@given(embedding_rows())
def test_the_goods_embedding_view_is_its_definition(rows):
    """``scaled`` equals the embedding written cell by cell from its
    definition, and so does the view of ``goods_to_public``."""
    goods = read_goods(rows)
    assert goods.scaled == embedding_view(goods)
    assert fd.goods_to_public(goods).scaled == embedding_view(goods)


@st.composite
def integer_views(draw):
    """A public and a goods instance on the same players. Player i writes
    each value over 1 or over one of her one or two denominators from
    (2, 3, 7), so the players' scales differ, a scale can be the lcm of two
    denominators, and equal values arrive with different denominators
    (2/2 and 1/1, 0/7 and 0/1)."""
    n = draw(st.integers(1, 3))
    own = st.lists(st.sampled_from([2, 3, 7]), min_size=1, max_size=2, unique=True)
    denominators = [[1, *draw(own)] for _ in range(n)]

    def value(i: int) -> Fraction:
        d = draw(st.sampled_from(denominators[i]))
        return Fraction(draw(st.integers(0, 2 * d)), d)

    m = draw(st.integers(1, 6))
    ks = [draw(st.integers(1, 3)) for _ in range(m)]
    public = fd.decision_instance(
        [[[value(i) for _ in range(k)] for i in range(n)] for k in ks]
    )
    goods = fd.goods_instance([[value(i) for _ in range(m)] for i in range(n)])
    return public, goods


def _check_shares(instance, player, best):
    """Prop, RRS and PPS from their definitions on the Fraction maxima."""
    n, p = instance.n, len(best) // instance.n
    ranked = sorted(best, reverse=True)
    assert fd.proportional_share(instance, player) == sum(ranked) / n
    assert fd.round_robin_share(instance, player) == sum(
        ranked[j * n - 1] for j in range(1, p + 1)
    )
    assert fd.pessimistic_share(instance, player) == sum(sorted(best)[:p])


@settings(deadline=None)
@given(integer_views(), st.data())
def test_the_integer_view_matches_fraction_formulas(views, data):
    public, goods = views
    choices = tuple(data.draw(st.integers(0, issue.k - 1)) for issue in public.issues)
    outcome = fd.Outcome(choices=choices)
    for i in range(public.n):
        rows = [issue.utilities[i] for issue in public.issues]
        scale = public.scales[i]
        unscaled = [tuple(Fraction(v, scale) for v in s[i]) for s in public.scaled]
        assert unscaled == rows
        best = [max(row) for row in rows]
        assert [Fraction(v, scale) for v in public.maxima[i]] == best
        # a stable sort keeps ties in issue order
        order = sorted(range(len(best)), key=lambda t: -best[t])
        assert list(public.ranking[i]) == order
        held = [row[c] for row, c in zip(rows, choices)]
        assert fd.outcome_utility(public, outcome, i) == sum(held)
        assert fd.best_single_switch(public, outcome, i) == max(
            sum(held) - h + b for h, b in zip(held, best)
        )
        _check_shares(public, i, best)

    for i, row in enumerate(goods.utilities):
        scale = goods.scales[i]
        assert [Fraction(v, scale) for v in goods.maxima[i]] == list(row)
        assert list(goods.ranking[i]) == sorted(range(len(row)), key=lambda g: -row[g])
        bundle = data.draw(st.frozensets(st.integers(0, goods.m - 1)))
        assert fd.bundle_utility(goods, i, bundle) == sum(row[g] for g in bundle)
        unowned = [row[g] for g in range(goods.m) if g not in bundle]
        assert best_unowned_good(goods, i, bundle) == max(unowned, default=0)
        _check_shares(goods, i, list(row))

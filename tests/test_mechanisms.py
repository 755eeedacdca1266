"""Round robin, normalized leximin, and maximum Nash welfare."""

import operator
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import fairdec as fd
from fairdec import mechanisms, model
from fairdec.mechanisms import pareto_improvement


# integers, and fractions whose denominators are pairwise coprime, so the
# search kernel's per-player integer scales differ between players
UTILITIES = st.one_of(
    st.integers(0, 5),
    st.builds(Fraction, st.integers(0, 35), st.sampled_from([2, 3, 7])),
)


@st.composite
def public_instances_(draw, max_n=3, max_m=4, max_k=3):
    """Random instances, n = 1 and k = 1 included; some rows are mostly zeros."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    issues = []
    for _ in range(m):
        k = draw(st.integers(1, max_k))
        rows = []
        for _ in range(n):
            zero_heavy = draw(st.booleans())
            rows.append(
                [
                    0 if zero_heavy and draw(st.integers(0, 3)) else draw(UTILITIES)
                    for _ in range(k)
                ]
            )
        issues.append(rows)
    return fd.decision_instance(issues)


def contested():
    return fd.generate("example2").instance


def test_round_robin_alternates_and_records_picks():
    result = fd.round_robin(contested())
    assert result.outcome.choices == (0, 1, 0, 1, 0, 0, 0, 0)
    assert result.utilities == (Fraction(6), Fraction(2))
    assert [(p.player, p.issue, p.alternative) for p in result.picks] == [
        (0, 0, 0),
        (1, 1, 1),
        (0, 2, 0),
        (1, 3, 1),
        (0, 4, 0),
        (1, 5, 0),
        (0, 6, 0),
        (1, 7, 0),
    ]


def test_round_robin_honors_a_custom_order():
    result = fd.round_robin(contested(), order=(1, 0))
    assert result.outcome.choices == (1, 0, 1, 0, 0, 0, 0, 0)
    assert result.utilities == (Fraction(6), Fraction(2))


def test_round_robin_rejects_bad_orders():
    inst = contested()
    with pytest.raises(ValueError):
        fd.round_robin(inst, order=(0, 0))
    with pytest.raises(ValueError):
        fd.round_robin(inst, order=(0,))
    with pytest.raises(ValueError):
        fd.round_robin(inst, order=(0, 2))


@pytest.mark.parametrize("order", [(True, False), (1.0, 0), (None, 0)])
@pytest.mark.parametrize("kind", ["public", "goods"])
def test_round_robin_refuses_players_that_are_not_ints(order, kind):
    """A bool, a float or None is no player, even where it sorts or compares
    like one; the refusal is the permutation's ValueError."""
    inst = contested() if kind == "public" else fd.goods_instance([[1, 2], [2, 1]])
    with pytest.raises(ValueError, match=r"order must be a permutation of 0\.\.1"):
        fd.round_robin(inst, order=order)


def test_round_robin_prefers_valuable_issues_then_low_index():
    # first picker grabs the issue worth 5; second settles for an early tie
    inst = fd.decision_instance(
        [[[1, 0], [2, 0]], [[5, 0], [2, 0]], [[1, 0], [2, 0]]]
    )
    result = fd.round_robin(inst)
    assert [(p.player, p.issue) for p in result.picks] == [(0, 1), (1, 0), (0, 2)]


def test_leximin_beats_the_raw_egalitarian_outcome():
    # raising the worst normalized utility can lower the worst raw one
    result = fd.leximin(contested())
    assert result.outcome.choices == (0, 1, 1, 1, 0, 0, 0, 0)
    assert result.utilities == (Fraction(5), Fraction(3))
    assert result.normalization == (Fraction(4), Fraction(2))


def test_mnw_covers_the_largest_support():
    result = fd.max_nash_welfare(contested())
    assert result.outcome.choices == (1, 1, 1, 1, 0, 0, 0, 0)
    assert result.utilities == (Fraction(4), Fraction(4))
    assert result.support == (0, 1)


def test_leximin_ignores_players_with_no_stake():
    inst = fd.decision_instance([[[1, 0], [0, 0]]])
    result = fd.leximin(inst)
    assert result.outcome.choices == (0,)
    assert result.normalization == (Fraction(1, 2), None)


def test_search_mechanisms_respect_the_cap():
    inst = contested()
    with pytest.raises(fd.CapExceeded):
        fd.leximin(inst, cap=255)
    with pytest.raises(fd.CapExceeded):
        fd.max_nash_welfare(inst, cap=255)
    with pytest.raises(fd.CapExceeded):
        fd.check_pareto_optimal(inst, fd.Outcome(choices=(0,) * 8), cap=255)
    # cap equal to the space is fine
    assert fd.leximin(inst, cap=256).utilities == (Fraction(5), Fraction(3))


def _check_first_outcome(inst):
    return fd.check_pareto_optimal(inst, fd.Outcome(choices=(0,) * inst.m))


@pytest.mark.parametrize(
    "entry",
    [fd.leximin, fd.max_nash_welfare, _check_first_outcome],
    ids=["leximin", "mnw", "pareto"],
)
@pytest.mark.parametrize(
    "utilities, path",
    [
        ([[[1, 0], [0, 2]], [[2, -1], [0, 1]]], "issues[1].utilities[0][1]"),
        ([[[1, 0], [0, 2]], [[2, 1], [3]]], "issues[1].utilities[1]"),
    ],
    ids=["negative", "ragged"],
)
def test_searches_reject_instances_their_bounds_do_not_cover(entry, utilities, path):
    """Negative utilities and ragged rows raise when the instance is built, so
    no search ever receives one."""
    with pytest.raises(fd.InstanceFormatError) as info:
        entry(fd.decision_instance(utilities))
    assert path in [v.path for v in info.value.violations]


@settings(deadline=None)
@given(public_instances_())
def test_leximin_matches_the_enumeration_oracle(inst):
    """The pruned search returns the oracle's outcome exactly, ties included."""
    fast = fd.leximin(inst)
    slow = fd.exact_optimum(inst, "leximin")
    assert fast.outcome == slow.outcome
    assert fast.utilities == slow.utilities
    assert fast.normalization == slow.normalization


@settings(deadline=None)
@given(public_instances_())
def test_mnw_matches_the_enumeration_oracle(inst):
    fast = fd.max_nash_welfare(inst)
    slow = fd.exact_optimum(inst, "nash")
    assert fast.outcome == slow.outcome
    assert fast.utilities == slow.utilities
    assert fast.support == slow.support


@settings(deadline=None)
@given(public_instances_(max_m=8), st.data())
def test_round_robin_replay(inst, data):
    """Each pick maximizes the picker's best alternative among open issues,
    also once others have taken the top issues of her ranking."""
    order = data.draw(st.permutations(range(inst.n)))
    result = fd.round_robin(inst, order=order)
    open_issues = set(range(inst.m))
    for turn, pick in enumerate(result.picks):
        assert pick.player == order[turn % inst.n]
        assert pick.issue in open_issues
        row = inst.issues[pick.issue].utilities[pick.player]
        best = max(row)
        assert row[pick.alternative] == best
        assert pick.alternative == min(
            a for a, v in enumerate(row) if v == best
        )
        for other in open_issues:
            other_best = max(inst.issues[other].utilities[pick.player])
            assert best > other_best or (
                best == other_best and pick.issue <= other
            )
        open_issues.remove(pick.issue)
    assert result.utilities == fd.utility_vector(inst, result.outcome)


@settings(deadline=None)
@given(public_instances_())
def test_mechanisms_are_deterministic(inst):
    assert fd.round_robin(inst) == fd.round_robin(inst)
    assert fd.leximin(inst) == fd.leximin(inst)
    assert fd.max_nash_welfare(inst) == fd.max_nash_welfare(inst)


@st.composite
def goods_(draw, max_n=3, max_m=5):
    """Random goods: zero-heavy rows, and some goods nobody values."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    unvalued = draw(st.sets(st.integers(0, m - 1)))
    rows = []
    for _ in range(n):
        zero_heavy = draw(st.booleans())
        rows.append(
            [
                0
                if g in unvalued or (zero_heavy and draw(st.integers(0, 3)))
                else draw(UTILITIES)
                for g in range(m)
            ]
        )
    return fd.goods_instance(rows)


@settings(deadline=None)
@given(goods_(), st.data())
def test_goods_route_equals_the_embedding_route(goods, data):
    """Each mechanism and the Pareto check give on a goods instance exactly
    what they give on its public embedding: outcome, utilities, picks,
    support, normalization and witness."""
    image = fd.goods_to_public(goods)
    assert goods.scaled == image.scaled
    order = data.draw(st.permutations(range(goods.n)))
    assert fd.round_robin(goods, order=order) == fd.round_robin(image, order=order)
    assert fd.leximin(goods) == fd.leximin(image)
    assert fd.max_nash_welfare(goods) == fd.max_nash_welfare(image)
    owners = data.draw(st.tuples(*[st.integers(0, goods.n - 1)] * goods.m))
    outcome = fd.Outcome(choices=owners)
    check = fd.check_pareto_optimal(goods, outcome)
    assert check == fd.check_pareto_optimal(image, outcome)
    alloc = fd.outcome_to_allocation(goods, outcome)
    po = fd.audit_goods(goods, alloc, po_cap=10**4).po
    assert po.satisfied == check.satisfied
    assert po.witness == (
        check.witness and fd.outcome_to_allocation(goods, check.witness)
    )


@settings(deadline=None)
@given(goods_(max_n=4, max_m=7), st.data())
def test_goods_round_robin_reads_the_goods_matrix(goods, data):
    """Round robin and the utility vector read a goods instance off its own
    matrix, never building the embedding's view, and still give exactly what
    they give on the embedding: choices, picks and utilities, in any order."""
    order = data.draw(st.permutations(range(goods.n)))
    owners = data.draw(st.tuples(*[st.integers(0, goods.n - 1)] * goods.m))
    result = fd.round_robin(goods, order=order)
    utilities = fd.utility_vector(goods, fd.Outcome(choices=owners))
    assert "scaled" not in vars(goods)
    image = fd.goods_to_public(goods)
    assert result == fd.round_robin(image, order=order)
    assert utilities == fd.utility_vector(image, fd.Outcome(choices=owners))


def test_leximin_with_every_player_excluded_picks_the_first_outcome():
    """With both shares zero for everyone the objective is empty, so every
    outcome ties and the all-zeros one wins, on goods as on the embedding."""
    goods = fd.goods_instance([[0, 0, 0], [0, 0, 0]])
    result = fd.leximin(goods)
    assert result.outcome.choices == (0, 0, 0)
    assert result.normalization == (None, None)
    assert result == fd.leximin(fd.goods_to_public(goods))


def test_search_mechanisms_respect_the_cap_on_goods():
    goods = fd.goods_instance([[1, 2, 3, 4], [4, 3, 2, 1]])
    for search in (fd.leximin, fd.max_nash_welfare):
        with pytest.raises(fd.CapExceeded) as info:
            search(goods, cap=15)
        assert info.value.required == 16
    assert fd.leximin(goods, cap=16) == fd.leximin(fd.goods_to_public(goods))


# few distinct values, so utility vectors tie and dominate one another often
TIE_HEAVY = st.one_of(
    st.integers(0, 2),
    st.builds(Fraction, st.integers(0, 6), st.sampled_from([2, 3, 7])),
)


@st.composite
def dominance_heavy_(draw, max_n=4, max_m=4, max_k=4):
    """Public instances, or goods embeddings, whose alternatives often repeat
    or fall pointwise below an earlier one of the same issue: columns drawn
    from tie-heavy values, zero-heavy columns, duplicated columns and
    columns cut down from an earlier one."""
    if draw(st.booleans()):
        goods = draw(goods_(max_n=max_n, max_m=max_m))
        return draw(st.sampled_from([goods, fd.goods_to_public(goods)]))
    n = draw(st.integers(1, max_n))
    issues = []
    for _ in range(draw(st.integers(1, max_m))):
        columns = []
        for _ in range(draw(st.integers(1, max_k))):
            kind = draw(st.sampled_from(["fresh", "zeros", "copy", "below"]))
            if kind == "zeros" or (kind != "fresh" and not columns):
                column = [draw(st.sampled_from([0, 0, 1])) for _ in range(n)]
                columns.append([v and draw(TIE_HEAVY) for v in column])
            elif kind == "fresh":
                columns.append([draw(TIE_HEAVY) for _ in range(n)])
            elif kind == "copy":
                columns.append(draw(st.sampled_from(columns)))
            else:
                cuts = st.sampled_from([1, 1, Fraction(1, 2), 0])
                earlier = draw(st.sampled_from(columns))
                columns.append([v * draw(cuts) for v in earlier])
        issues.append([list(row) for row in zip(*columns)])
    return fd.decision_instance(issues)


def _dropped(inst):
    """For each issue, the alternatives the search view leaves out."""
    kept = inst.search_view[0]
    return [
        sorted(set(range(len(rows[0]))) - set(k)) for rows, k in zip(inst.scaled, kept)
    ]


def _first_improvement(inst, outcome):
    """The first outcome of the enumeration that Pareto dominates ``outcome``."""
    base = fd.utility_vector(inst, outcome)
    for candidate in fd.enumerate_outcomes(_public(inst)):
        utils = fd.utility_vector(inst, candidate)
        if utils != base and all(map(operator.ge, utils, base)):
            return candidate
    return None


def _public(inst):
    return fd.goods_to_public(inst) if isinstance(inst, fd.GoodsInstance) else inst


@settings(max_examples=300, deadline=None)
@given(dominance_heavy_(), st.data())
def test_searches_over_the_view_match_the_oracles(inst, data):
    """Leximin, MNW and the Pareto check equal full enumeration exactly, ties
    and the first witness included, on instances where many alternatives are
    dropped; the audited outcomes include ones that pick dropped alternatives."""
    public = _public(inst)
    for fast, objective in ((fd.leximin, "leximin"), (fd.max_nash_welfare, "nash")):
        result, slow = fast(inst), fd.exact_optimum(public, objective)
        assert result.outcome == slow.outcome
        assert result.utilities == slow.utilities
        assert result.normalization == slow.normalization
        assert result.support == slow.support
    picks_dropped = fd.Outcome(
        choices=tuple(
            data.draw(st.sampled_from(gone or range(len(rows[0]))))
            for gone, rows in zip(_dropped(inst), inst.scaled)
        )
    )
    for outcome in (picks_dropped, fd.leximin(inst).outcome):
        assert pareto_improvement(inst, outcome) == _first_improvement(inst, outcome)


@settings(max_examples=300, deadline=None)
@given(dominance_heavy_(), st.data())
def test_weighted_searches_on_part_of_the_players_match_enumeration(inst, data):
    """The kernel under any positive integer factors on any subset of the
    players (weighted leximin, MNW phase 2 on a partial support) returns the
    first outcome of the enumeration with the greatest key."""
    players = data.draw(st.lists(st.integers(0, inst.n - 1), unique=True).map(sorted))
    factors = {i: data.draw(st.integers(1, 4)) for i in players}
    key = data.draw(st.sampled_from([sorted, prod, mechanisms._support_key]))
    best = best_outcome = None
    for outcome in fd.enumerate_outcomes(_public(inst)):
        picked = list(zip(inst.scaled, outcome.choices))
        totals = [sum(rows[i][c] for rows, c in picked) for i in players]
        value = key([u * factors[i] for u, i in zip(totals, players)])
        if best is None or value > best:
            best, best_outcome = value, outcome
    assert mechanisms._maximize(inst, factors, key) == best_outcome


@settings(max_examples=200, deadline=None)
@given(dominance_heavy_())
def test_the_search_view_keeps_exactly_the_undominated_alternatives(inst):
    """An alternative is dropped iff an earlier one of its issue is at least as
    good for every player and the issue's k * k is at most the outcome space;
    the view is built once, and its suffix sums are the sums of the maxima
    over the issues left."""
    kept, vectors, suffix = inst.search_view
    assert inst.search_view is inst.search_view
    space = prod(len(rows[0]) for rows in inst.scaled)
    for rows, indices, kept_vectors in zip(inst.scaled, kept, vectors):
        columns = list(zip(*rows))
        assert list(kept_vectors) == [columns[a] for a in indices]
        for a, column in enumerate(columns):
            dominated = any(all(map(operator.ge, columns[b], column)) for b in range(a))
            assert (a not in indices) == (dominated and len(columns) ** 2 <= space)
    assert suffix == tuple(
        tuple(sum(row[t:]) for row in inst.maxima) for t in range(inst.m + 1)
    )


def test_search_node_counts_are_pinned(monkeypatch):
    """Nodes visited (calls of ``prune``) by MNW (both phases), leximin and the
    Pareto check of the leximin outcome on two goods instances. Without the
    dropped alternatives they were 263,658 / 106,065 / 18,165 and
    584,656 / 166,100 / 67,056."""
    visited = []
    search = mechanisms._search

    def counting(instance, factors, prune, leaf):
        def counted(vector, suffix):
            visited[-1] += 1
            return prune(vector, suffix)

        return search(instance, factors, counted, leaf)

    monkeypatch.setattr(mechanisms, "_search", counting)
    expected = {(3, 14): (27_683, 12_757, 2_288), (4, 12): (106_936, 35_776, 15_339)}
    for (n, m), counts in expected.items():
        goods = fd.random_goods(n, m, 7)
        visited[:] = [0]
        fd.max_nash_welfare(goods, cap=10**9)
        visited.append(0)
        outcome = fd.leximin(goods, cap=10**9).outcome
        visited.append(0)
        pareto_improvement(goods, outcome, cap=10**9)
        assert tuple(visited) == counts, (n, m)
    # players 2 and 3 value only good 0, so phase 2 runs on support (0, 1, 2),
    # on the view that every search shares
    rows = [*fd.random_goods(2, 12, 7).maxima, [3] + [0] * 11, [4] + [0] * 11]
    visited[:] = [0]
    result = fd.max_nash_welfare(fd.goods_instance(rows), cap=10**9)
    assert result.support == (0, 1, 2)
    assert visited == [171]


def test_a_wide_issue_is_searched_without_dominance_tests(monkeypatch):
    """One issue of 20,000 alternatives (a, 20,000 - a), none dominated: the
    view makes no dominance test where k * k exceeds the outcome space, and
    each search visits each alternative once, as the search with no view did.
    A second issue of two alternatives keeps the wide one untested."""
    tests = []

    def counted(a, b):
        tests.append(1)
        if len(tests) > 40_000:  # twice the outcome space: fail before it stalls
            raise AssertionError("dominance tests outnumber the outcomes")
        return a >= b

    monkeypatch.setattr(model, "ge", counted)
    k = 20_000
    wide = [list(range(k)), [k - a for a in range(k)]]
    for issues in ([wide], [wide, [[1, 0], [0, 1]]]):
        tests.clear()
        inst = fd.decision_instance(issues)
        assert inst.search_view[0][0] == tuple(range(k))
        assert len(tests) <= 2 * (len(issues) - 1)  # the narrow issue's one test
        for search in (fd.leximin, fd.max_nash_welfare):
            search(inst)
        assert pareto_improvement(inst, fd.Outcome((0,) * len(issues))) is None
    nodes = []
    search = mechanisms._search

    def counting(instance, factors, prune, leaf):
        def counted_prune(vector, suffix):
            nodes[-1] += 1
            return prune(vector, suffix)

        nodes.append(0)
        return search(instance, factors, counted_prune, leaf)

    monkeypatch.setattr(mechanisms, "_search", counting)
    inst = fd.decision_instance([wide])
    fd.max_nash_welfare(inst)
    fd.leximin(inst)
    pareto_improvement(inst, fd.Outcome((0,)))
    assert nodes == [k] * 4

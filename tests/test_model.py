"""Instance construction, validation, and the goods-to-public embedding."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import fairdec as fd


def test_as_fraction_accepts_exact_forms():
    assert fd.as_fraction(3) == Fraction(3)
    assert fd.as_fraction("2/6") == Fraction(1, 3)
    assert fd.as_fraction(Fraction(5, 4)) == Fraction(5, 4)


def test_as_fraction_rejects_bools_and_floats():
    with pytest.raises(TypeError):
        fd.as_fraction(True)
    with pytest.raises(TypeError):
        fd.as_fraction(0.5)


def test_factories_fill_default_labels():
    inst = fd.decision_instance([[[1, 0], [0, 1]]])
    assert inst.players == ("p1", "p2")
    assert inst.issues[0].name == "issue1"
    assert inst.issues[0].alternatives == ("a1", "a2")
    goods = fd.goods_instance([[1, 2, 3]])
    assert goods.players == ("p1",)
    assert goods.goods == ("g1", "g2", "g3")


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


def test_validate_accepts_well_formed_instances():
    assert fd.validate(fd.decision_instance([[[1, 0], [0, 1]], [[2], [3]]])) == []
    assert fd.validate(fd.goods_instance([[0, 5], [1, 2]])) == []


def test_validate_rejects_empty_and_negative():
    no_issues = fd.DecisionInstance(issues=(), players=("p1",))
    assert "issues" in [v.path for v in fd.validate(no_issues)]

    no_players = fd.GoodsInstance(utilities=(), players=(), goods=("g1",))
    assert "players" in [v.path for v in fd.validate(no_players)]

    negative = fd.goods_instance([[1, "-2"]])
    violations = fd.validate(negative)
    assert [v.path for v in violations] == ["utilities[0][1]"]
    assert "negative" in violations[0].message


def test_validate_reports_shape_mismatches_with_paths():
    lopsided = fd.DecisionInstance(
        issues=(
            fd.Issue(
                utilities=((Fraction(1), Fraction(2)), (Fraction(3),)),
                name="x",
                alternatives=("a", "b"),
            ),
        ),
        players=("p1", "p2", "p3"),
    )
    paths = [v.path for v in fd.validate(lopsided)]
    assert "issues[0].utilities" in paths  # 2 rows for 3 players
    assert "issues[0].utilities[1]" in paths  # short row


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
    assert fd.validate(image) == []


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
    assert fd.issue_maxima(inst, 0) == [(Fraction(5), 1), (Fraction(7), 0)]


def test_sorted_max_utilities_is_non_ascending():
    inst = fd.decision_instance([[[1]], [[4]], [[2, 3]]])
    assert fd.sorted_max_utilities(inst, 0) == [Fraction(4), Fraction(3), Fraction(1)]


def test_model_values_are_frozen():
    outcome = fd.Outcome(choices=(0, 1))
    with pytest.raises(AttributeError):
        outcome.choices = (1, 1)


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

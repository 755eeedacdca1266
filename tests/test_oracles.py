"""Brute-force enumeration oracles and the feasible-product bound."""

import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import fairdec as fd
from fairdec.oracles import leximin_normalization, outcome_space_size
from reference_helpers import (
    enumerate_allocations,
    feasible_product_lower_bound,
    pareto_frontier,
)


@st.composite
def public_instances_(draw, max_n=3, max_m=4, max_k=3, max_u=5):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    issues = []
    for _ in range(m):
        k = draw(st.integers(1, max_k))
        issues.append(
            [[draw(st.integers(0, max_u)) for _ in range(k)] for _ in range(n)]
        )
    return fd.decision_instance(issues)


def test_outcome_space_size_is_the_product_of_widths():
    inst = fd.decision_instance([[[1, 2, 3]], [[1, 2]]])
    assert outcome_space_size(inst) == 6
    assert outcome_space_size(fd.generate("example2").instance) == 256


def test_enumeration_is_lexicographic_and_complete():
    inst = fd.decision_instance([[[0, 0], [0, 0]], [[0, 0, 0], [0, 0, 0]]])
    outcomes = [o.choices for o in fd.enumerate_outcomes(inst)]
    assert outcomes == sorted(outcomes)
    assert len(outcomes) == 6
    assert outcomes[0] == (0, 0)
    assert outcomes[-1] == (1, 2)


def test_enumeration_respects_the_cap():
    inst = fd.generate("example2").instance
    with pytest.raises(fd.CapExceeded) as excinfo:
        list(fd.enumerate_outcomes(inst, cap=255))
    assert excinfo.value.required == 256


def test_allocation_enumeration_covers_every_split():
    goods = fd.goods_instance([[1, 1], [1, 1]])
    allocations = list(enumerate_allocations(goods))
    assert len(allocations) == 4
    assert all(
        sorted(g for b in alloc.bundles for g in b) == [0, 1] for alloc in allocations
    )


def test_leximin_normalization_falls_back_and_excludes():
    # p1 has RRS 0 but positive Prop; p2 has no value anywhere
    inst = fd.decision_instance([[[1, 0], [0, 0]]])
    assert leximin_normalization(inst) == (Fraction(1, 2), None)


def test_utilitarian_optimum_on_the_contested_instance():
    result = fd.exact_optimum(fd.generate("example2").instance, "utilitarian")
    assert result.outcome.choices == (0,) * 8
    assert result.utilities == (Fraction(8), Fraction(0))
    assert result.mechanism == "oracle:utilitarian"


def test_nash_optimum_picks_the_largest_support():
    result = fd.exact_optimum(fd.generate("example2").instance, "nash")
    assert result.outcome.choices == (1, 1, 1, 1, 0, 0, 0, 0)
    assert result.utilities == (Fraction(4), Fraction(4))
    assert result.support == (0, 1)


def test_leximin_optimum_uses_normalized_utilities():
    result = fd.exact_optimum(fd.generate("example2").instance, "leximin")
    assert result.outcome.choices == (0, 1, 1, 1, 0, 0, 0, 0)
    assert result.utilities == (Fraction(5), Fraction(3))
    assert result.normalization == (Fraction(4), Fraction(2))


def test_exact_optimum_rejects_unknown_objectives():
    with pytest.raises(ValueError):
        fd.exact_optimum(fd.generate("example1").instance, "median")


def test_nash_optimum_without_outcomes_raises():
    # an issue with no alternatives would leave nothing to enumerate; such an
    # instance cannot be built, so the oracle never meets one
    with pytest.raises(fd.InstanceFormatError, match="at least one alternative"):
        fd.exact_optimum(fd.decision_instance([[[], []]]), "nash")


def test_pareto_frontier_on_two_identical_issues():
    frontier = pareto_frontier(fd.generate("example1").instance)
    assert [(u, o.choices) for u, o in frontier] == [
        ((Fraction(2), Fraction(0)), (0, 0)),
        ((Fraction(1), Fraction(1)), (0, 1)),
        ((Fraction(0), Fraction(2)), (1, 1)),
    ]


@settings(deadline=None)
@given(public_instances_())
def test_frontier_members_are_mutually_undominated(inst):
    frontier = pareto_frontier(inst)
    assert frontier, "some outcome is always undominated"
    vectors = [u for u, _ in frontier]
    for u in vectors:
        for w in vectors:
            assert not (all(a >= b for a, b in zip(w, u)) and w != u)
    # representatives reproduce their vectors
    for u, outcome in frontier:
        assert fd.utility_vector(inst, outcome) == u


@settings(deadline=None)
@given(public_instances_())
def test_optima_lie_on_the_frontier(inst):
    frontier = {u for u, _ in pareto_frontier(inst)}
    for objective in ("utilitarian", "nash", "leximin"):
        assert fd.exact_optimum(inst, objective).utilities in frontier


@st.composite
def oracle_instances(draw):
    """Public instances or goods embeddings with fractions over 2, 3 and 7,
    zero-heavy rows, issues with one alternative, and all-zero instances."""
    value = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 2, 3, 7])),
    )
    if draw(st.integers(0, 7)) == 0:
        value = st.just(Fraction(0))
    n = draw(st.integers(1, 3))

    def matrix(rows, width):
        return draw(
            st.lists(
                st.lists(value, min_size=width, max_size=width),
                min_size=rows,
                max_size=rows,
            )
        )

    if draw(st.booleans()):
        goods = fd.goods_instance(matrix(n, draw(st.integers(1, 4))))
        return fd.goods_to_public(goods)
    widths = draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=1, max_size=4))
    return fd.decision_instance([matrix(n, k) for k in widths])


@settings(deadline=None, max_examples=150)
@given(oracle_instances())
def test_each_optimum_is_the_first_outcome_with_the_greatest_key(inst):
    """The oracle's definition: by its objective's key, the returned outcome is
    at least every outcome and strictly above every outcome before it in
    lexicographic order; Nash's support is the largest set of players some
    outcome gives positive utility, the lexicographically smallest on a tie."""
    everything = [
        (choices, fd.utility_vector(inst, fd.Outcome(choices)))
        for choices in itertools.product(*(range(issue.k) for issue in inst.issues))
    ]
    supports = {
        tuple(i for i, u in enumerate(utils) if u > 0) for _, utils in everything
    }
    for objective in ("utilitarian", "nash", "leximin"):
        result = fd.exact_optimum(inst, objective)
        assert result.utilities == fd.utility_vector(inst, result.outcome)
        if objective == "utilitarian":
            key = sum
        elif objective == "nash":
            assert result.support == min(supports, key=lambda s: (-len(s), s))
            assert all(result.utilities[i] > 0 for i in result.support)
            key = lambda utils: prod(utils[i] for i in result.support)  # noqa: E731
        else:
            shares = fd.share_profile(inst)
            assert result.normalization == tuple(
                rrs or prop or None for rrs, prop in zip(shares.rrs, shares.prop)
            )
            divisors = [(i, d) for i, d in enumerate(result.normalization) if d]
            key = lambda utils: sorted(utils[i] / d for i, d in divisors)  # noqa: E731
        best = key(result.utilities)
        for choices, utils in everything:
            assert best >= key(utils)
            if choices < result.outcome.choices:
                assert best > key(utils)


def test_product_bound_check_fields():
    check = feasible_product_lower_bound(
        [Fraction(9, 10), Fraction(1)], Fraction(1, 5)
    )
    assert check.feasible
    assert check.shortfall == Fraction(1, 10)
    assert check.product == Fraction(9, 10)
    assert check.floor == Fraction(4, 5)
    assert check.holds


def test_product_bound_reports_the_raw_comparison_when_infeasible():
    check = feasible_product_lower_bound([Fraction(1, 2)], Fraction(1, 10))
    assert not check.feasible
    assert not check.holds  # 1/2 < 9/10; nothing is promised without feasibility


@settings(deadline=None, max_examples=300)
@given(
    st.lists(
        st.fractions(min_value=0, max_value=2, max_denominator=20),
        min_size=1,
        max_size=8,
    ),
    st.fractions(min_value=0, max_value="1/2", max_denominator=20),
)
def test_product_bound_implication(values, delta):
    """Small total shortfall forces the product to stay near one."""
    check = feasible_product_lower_bound(values, delta)
    if check.feasible:
        assert check.holds

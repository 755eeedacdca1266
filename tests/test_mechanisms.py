"""Round robin, normalized leximin, and maximum Nash welfare."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fairdec as fd


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
    """Negative utilities and ragged rows raise before any search runs."""
    inst = fd.decision_instance(utilities)
    with pytest.raises(fd.InstanceFormatError) as info:
        entry(inst)
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

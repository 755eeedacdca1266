"""Fairness and efficiency audits with exact attainment levels."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fairdec as fd
from fairdec.audit import best_single_switch
from reference_helpers import best_unowned_good, read_goods


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


@st.composite
def goods_with_allocation_(draw, max_n=3, max_m=5, max_u=5):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    rows = [[draw(st.integers(0, max_u)) for _ in range(m)] for _ in range(n)]
    owners = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    bundles = [set() for _ in range(n)]
    for g, i in enumerate(owners):
        bundles[i].add(g)
    return fd.goods_instance(rows), fd.allocation(bundles)


def test_audit_levels_on_a_one_sided_outcome():
    inst = fd.generate("example2").instance
    report = fd.audit(inst, fd.Outcome(choices=(0,) * 8), with_mms=True, po_cap=300)
    p1, p2 = report.players
    assert report.utilities == (Fraction(8), Fraction(0))

    # the favored player doubles every share
    for check in (p1.prop, p1.prop1, p1.rrs, p1.pps, p1.mms):
        assert check.satisfied and check.alpha == 2

    assert not p2.prop.satisfied and p2.prop.alpha == 0
    assert not p2.prop1.satisfied and p2.prop1.alpha == Fraction(1, 2)
    assert not p2.rrs.satisfied and p2.rrs.alpha == 0
    assert not p2.mms.satisfied and p2.mms.alpha == 0
    # PPS 0 cannot be missed
    assert p2.pps.satisfied and p2.pps.alpha is None

    # giving everything to one side wastes nothing here
    assert report.po.satisfied and report.po.witness is None


def test_audit_skips_optional_checks_by_default():
    inst = fd.generate("example1").instance
    report = fd.audit(inst, fd.Outcome(choices=(0, 1)))
    assert report.po is None
    assert all(p.mms is None for p in report.players)
    assert all(p.ef is None for p in report.players)


def test_pareto_witness_dominates():
    inst = fd.generate("compromise").instance
    both_extremes = fd.round_robin(inst).outcome
    assert both_extremes.choices == (0, 0)
    report = fd.audit(inst, both_extremes, po_cap=100)
    assert not report.po.satisfied
    assert report.po.witness.choices == (1, 1)
    assert fd.utility_vector(inst, report.po.witness) == (
        Fraction(4, 3),
        Fraction(4, 3),
    )


def test_best_single_switch_reports_the_reachable_utility():
    inst = fd.generate("example2").instance
    # player 2 under all-a1 holds 0; flipping one contested issue reaches 1
    assert best_single_switch(inst, fd.Outcome(choices=(0,) * 8), 1) == 1
    # player 1 already holds her maximum, so the best switch keeps it
    assert best_single_switch(inst, fd.Outcome(choices=(0,) * 8), 0) == 8


def test_best_unowned_good_and_goods_prop1():
    goods = fd.goods_instance([[5, 2, 2, 2, 2, 1, 1], [0, 1, 1, 1, 1, 1, 1]])
    alloc = fd.allocation([{0}, {1, 2, 3, 4, 5, 6}])
    assert best_unowned_good(goods, 0, alloc.bundles[0]) == 2
    assert best_unowned_good(goods, 1, alloc.bundles[1]) == 0
    report = fd.audit_goods(goods, alloc)
    p1, p2 = report.players
    # bundle 5 plus best outside good 2 misses Prop 15/2 by a factor 14/15
    assert p1.rrs.satisfied and p1.rrs.alpha == 1
    assert not p1.prop1.satisfied and p1.prop1.alpha == Fraction(14, 15)
    assert p2.rrs.satisfied and p2.rrs.alpha == 2
    assert p2.prop1.satisfied and p2.prop1.alpha == 2


@settings(deadline=None)
@given(st.data())
def test_best_unowned_good_matches_a_plain_scan(data):
    """On rows with many ties, the first unheld good of the ranking is worth
    as much as the best of all the unheld goods."""
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 8))
    values = st.sampled_from([0, 1, Fraction(1, 2), 2])
    rows = [[data.draw(values) for _ in range(m)] for _ in range(n)]
    goods = fd.goods_instance(rows)
    for i in range(n):
        bundle = data.draw(st.frozensets(st.integers(0, m - 1)))
        unowned = [rows[i][g] for g in range(m) if g not in bundle]
        assert best_unowned_good(goods, i, bundle) == max(unowned, default=0)


def test_a_goods_audit_builds_no_ranking():
    """The goods audit reads each player's best unowned good off the rivals'
    tops it takes for EF1, so it builds no ranking; the Prop1 search and
    round robin, which walk the ranking, still build it."""
    goods = fd.random_goods(3, 9, 4)
    fd.audit_goods(goods, fd.pps_po_allocate(goods)[0], with_mms=True)
    assert "ranking" not in vars(goods)
    for walk in (fd.prop1_po_search, fd.round_robin):
        fresh = fd.goods_instance(goods.utilities)
        walk(fresh)
        assert "ranking" in vars(fresh)


def test_envy_checks_on_a_lopsided_split():
    goods = fd.goods_instance([[3, 1], [1, 3]])
    envious = fd.allocation([{}, {0, 1}])
    report = fd.audit_goods(goods, envious)
    p1, p2 = report.players
    assert not p1.ef.satisfied and p1.ef.alpha == 0
    # dropping the better good from the rival bundle leaves 0 vs 1
    assert not p1.ef1.satisfied and p1.ef1.alpha == 0
    assert p2.ef.satisfied and p2.ef.alpha is None  # nothing to envy
    swap = fd.allocation([{1}, {0}])
    swapped = fd.audit_goods(goods, swap)
    assert not swapped.players[0].ef.satisfied
    assert swapped.players[0].ef.alpha == Fraction(1, 3)
    assert swapped.players[0].ef1.satisfied  # removing the one good empties it


def _envy_reference(goods, alloc, i):
    """Player i's EF and EF1 levels in plain Fractions: the least value / r
    over the rivals' references r that are not zero, None when all are."""
    u = [goods.utility(i, g) for g in range(goods.m)]
    value = sum((u[g] for g in alloc.bundles[i]), Fraction(0))
    rivals = [[u[g] for g in b] for j, b in enumerate(alloc.bundles) if j != i]
    worth = [sum(b, Fraction(0)) for b in rivals]
    rest = [sum(b, Fraction(0)) - max(b, default=0) for b in rivals]
    return tuple(
        min((value / r for r in refs if r), default=None) for refs in (worth, rest)
    )


@st.composite
def fraction_goods_with_allocation_(draw, max_n=4, max_m=7):
    """Goods with "p/q"-style values (scales above 1) and zero-heavy rows, so
    zero values and all-zero rival bundles occur, with any allocation."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    rows = []
    for _ in range(n):
        zero_heavy = draw(st.booleans())
        rows.append(
            [
                0 if zero_heavy and draw(st.integers(0, 3)) else draw(UTILITIES)
                for _ in range(m)
            ]
        )
    owners = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    bundles = [{g for g, o in enumerate(owners) if o == i} for i in range(n)]
    return fd.goods_instance(rows), fd.allocation(bundles)


@settings(max_examples=300, deadline=None)
@given(fraction_goods_with_allocation_())
def test_envy_levels_are_the_least_fraction_ratio(pair):
    goods, alloc = pair
    report = fd.audit_goods(goods, alloc)
    for i, player in enumerate(report.players):
        ef, ef1 = _envy_reference(goods, alloc, i)
        assert (player.ef.alpha, player.ef1.alpha) == (ef, ef1)
        assert player.ef.satisfied == (ef is None or ef >= 1)
        assert player.ef1.satisfied == (ef1 is None or ef1 >= 1)


@st.composite
def edge_goods_with_allocation_(draw):
    """Zero-heavy goods read from "p/q" cells with one good, one player, or
    bundles of at most one good each (some of them empty)."""
    shape = draw(st.sampled_from(["one good", "one player", "singletons"]))
    n = 1 if shape == "one player" else draw(st.integers(1, 5))
    most = n if shape == "singletons" else 6
    m = 1 if shape == "one good" else draw(st.integers(1, most))
    rows = [
        [0 if draw(st.integers(0, 2)) else draw(UTILITIES) for _ in range(m)]
        for _ in range(n)
    ]
    if shape == "singletons":
        owners = draw(st.permutations(range(n)))[:m]
    else:
        owners = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    bundles = [{g for g, o in enumerate(owners) if o == i} for i in range(n)]
    return read_goods(rows), fd.allocation(bundles)


def _level(value, reference):
    return None if reference == 0 else value / reference


@settings(max_examples=300, deadline=None)
@given(edge_goods_with_allocation_())
def test_goods_audit_edges_match_plain_fraction_reads(pair):
    """Utilities, Prop, Prop1 and envy levels equal plain Fraction sums: the
    Prop1 credit is the bundle plus the best good outside it, found by a
    scan of every good; each axiom holds when its level is None or >= 1."""
    goods, alloc = pair
    report = fd.audit_goods(goods, alloc)
    for i, player in enumerate(report.players):
        u = [goods.utility(i, g) for g in range(goods.m)]
        own = alloc.bundles[i]
        value = sum((u[g] for g in own), Fraction(0))
        credit = value + max((u[g] for g in range(goods.m) if g not in own), default=0)
        total = sum(u, Fraction(0))
        assert report.utilities[i] == value
        assert player.prop.alpha == _level(goods.n * value, total)
        assert player.prop1.alpha == _level(goods.n * credit, total)
        assert (player.ef.alpha, player.ef1.alpha) == _envy_reference(goods, alloc, i)
        checks = (player.prop, player.prop1, player.rrs, player.pps, player.ef)
        for check in (*checks, player.ef1):
            assert check.satisfied == (check.alpha is None or check.alpha >= 1)


def test_envy_levels_with_zero_values_and_worthless_rivals():
    # player 0 values player 1's goods at 0: both levels unbounded
    # player 1 holds nothing she values: level 0 against a positive rival
    goods = fd.goods_instance([[Fraction(5, 2), 0, 0], [Fraction(1, 3), 0, 2]])
    alloc = fd.allocation([{0, 2}, {1}])
    p0, p1 = fd.audit_goods(goods, alloc).players
    assert (p0.ef.alpha, p0.ef.satisfied) == (None, True)
    assert (p0.ef1.alpha, p0.ef1.satisfied) == (None, True)
    assert (p1.ef.alpha, p1.ef.satisfied) == (0, False)
    # without its best good (2) the rival bundle is worth 1/3 to player 1
    assert (p1.ef1.alpha, p1.ef1.satisfied) == (0, False)
    for i, player in enumerate((p0, p1)):
        assert (player.ef.alpha, player.ef1.alpha) == _envy_reference(goods, alloc, i)


def test_goods_pareto_witness_is_an_allocation():
    goods = fd.goods_instance([[2, 0], [0, 2]])
    backwards = fd.allocation([{1}, {0}])
    report = fd.audit_goods(goods, backwards, po_cap=100)
    assert not report.po.satisfied
    assert isinstance(report.po.witness, fd.Allocation)
    # the first dominating outcome in enumeration order hands everything
    # to player 1, which already beats the all-zero utilities
    assert [sorted(b) for b in report.po.witness.bundles] == [[0, 1], []]
    witness_utils = fd.allocation_utilities(goods, report.po.witness)
    base_utils = fd.allocation_utilities(goods, backwards)
    assert all(w >= b for w, b in zip(witness_utils, base_utils))
    assert witness_utils != base_utils


def test_audit_rejects_malformed_outcomes():
    inst = fd.generate("example1").instance
    with pytest.raises(ValueError):
        fd.audit(inst, fd.Outcome(choices=(0,)))
    with pytest.raises(ValueError):
        fd.audit(inst, fd.Outcome(choices=(0, 9)))
    with pytest.raises(fd.InstanceFormatError, match="needs a choices result"):
        fd.audit(inst, None)
    goods = fd.goods_instance([[1, 2], [2, 1]])
    with pytest.raises(fd.InstanceFormatError, match=r"handed out \[0, 1, 1\]"):
        fd.audit_goods(goods, fd.allocation([{0, 1}, {1}]))


@settings(deadline=None)
@given(public_instances_(), st.data())
def test_alpha_levels_certify_the_axioms(inst, data):
    """alpha >= 1 (or unbounded) if and only if the axiom is satisfied, and a
    bounded alpha is the utility over the share in Fractions."""
    outcome = fd.Outcome(
        choices=tuple(
            data.draw(st.integers(0, issue.k - 1)) for issue in inst.issues
        )
    )
    report = fd.audit(inst, outcome, with_mms=True)
    profile = fd.share_profile(inst, with_mms=True)
    utils = fd.utility_vector(inst, outcome)
    for i, player in enumerate(report.players):
        for check, share in (
            (player.prop, profile.prop[i]),
            (player.rrs, profile.rrs[i]),
            (player.pps, profile.pps[i]),
            (player.mms, profile.mms[i]),
        ):
            if share == 0:
                assert check.satisfied and check.alpha is None
            else:
                assert check.alpha == utils[i] / share
                assert check.satisfied == (check.alpha >= 1)
        if profile.prop[i] > 0:
            # every single-issue switch, keeping the outcome included
            reach = utils[i]
            for t, issue in enumerate(inst.issues):
                for a in range(issue.k):
                    choices = outcome.choices[:t] + (a,) + outcome.choices[t + 1 :]
                    switched = fd.utility_vector(inst, fd.Outcome(choices=choices))
                    reach = max(reach, switched[i])
            assert reach >= utils[i]
            assert player.prop1.alpha == reach / profile.prop[i]


@settings(deadline=None)
@given(fraction_goods_with_allocation_())
def test_goods_alpha_levels_certify_the_axioms(pair):
    """The goods twin of the test above: a bounded alpha is the utility, or
    for Prop1 the utility plus the best unowned good, over the share in
    Fractions, and alpha >= 1 (or unbounded) iff the axiom is satisfied."""
    goods, alloc = pair
    report = fd.audit_goods(goods, alloc, with_mms=True)
    profile = fd.share_profile(goods, with_mms=True)
    utils = fd.allocation_utilities(goods, alloc)
    assert report.utilities == utils
    for i, player in enumerate(report.players):
        unowned = [
            goods.utility(i, g) for g in range(goods.m) if g not in alloc.bundles[i]
        ]
        reach = utils[i] + max(unowned, default=0)
        for check, value, share in (
            (player.prop, utils[i], profile.prop[i]),
            (player.prop1, reach, profile.prop[i]),
            (player.rrs, utils[i], profile.rrs[i]),
            (player.pps, utils[i], profile.pps[i]),
            (player.mms, utils[i], profile.mms[i]),
        ):
            if share == 0:
                assert check.satisfied and check.alpha is None
            else:
                assert check.alpha == value / share
                assert check.satisfied == (check.alpha >= 1)


def _first_improvement(inst, outcome):
    """Reference: the first dominating outcome in plain enumeration order."""
    base = fd.utility_vector(inst, outcome)
    for candidate in fd.enumerate_outcomes(inst):
        utils = fd.utility_vector(inst, candidate)
        if utils != base and all(u >= b for u, b in zip(utils, base)):
            return candidate
    return None


@settings(deadline=None)
@given(public_instances_(), st.data())
def test_pareto_check_reports_the_first_improvement(inst, data):
    """Verdict and witness match enumeration, for a random and an optimal outcome."""
    drawn = fd.Outcome(
        choices=tuple(
            data.draw(st.integers(0, issue.k - 1)) for issue in inst.issues
        )
    )
    for outcome in (drawn, fd.max_nash_welfare(inst).outcome):
        expected = _first_improvement(inst, outcome)
        check = fd.check_pareto_optimal(inst, outcome)
        assert check.satisfied == (expected is None)
        assert check.witness == expected


@settings(deadline=None)
@given(goods_with_allocation_())
def test_goods_audit_matches_the_embedding(pair):
    """Share and Prop1 levels agree with auditing the public image of the
    instance: the best single switch there is the best unowned good here."""
    goods, alloc = pair
    direct = fd.audit_goods(goods, alloc, with_mms=True)
    embedded = fd.audit(
        fd.goods_to_public(goods),
        fd.allocation_to_outcome(goods, alloc),
        with_mms=True,
    )
    assert direct.utilities == embedded.utilities
    for mine, theirs in zip(direct.players, embedded.players):
        assert (mine.prop.satisfied, mine.prop.alpha) == (
            theirs.prop.satisfied,
            theirs.prop.alpha,
        )
        assert (mine.prop1.satisfied, mine.prop1.alpha) == (
            theirs.prop1.satisfied,
            theirs.prop1.alpha,
        )
        assert (mine.rrs.satisfied, mine.rrs.alpha) == (
            theirs.rrs.satisfied,
            theirs.rrs.alpha,
        )
        assert (mine.pps.satisfied, mine.pps.alpha) == (
            theirs.pps.satisfied,
            theirs.pps.alpha,
        )
        assert (mine.mms.satisfied, mine.mms.alpha) == (
            theirs.mms.satisfied,
            theirs.mms.alpha,
        )


@settings(deadline=None)
@given(goods_with_allocation_(max_n=2, max_m=4))
def test_ef_implies_ef1_and_prop(pair):
    goods, alloc = pair
    report = fd.audit_goods(goods, alloc)
    for player in report.players:
        if player.ef.satisfied:
            assert player.ef1.satisfied
    # with two players, envy-freeness is exactly proportionality
    if goods.n == 2:
        for player in report.players:
            if player.ef.satisfied:
                assert player.prop.satisfied

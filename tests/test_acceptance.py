"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line with its elapsed time (visible under
``pytest -s``; under ``pytest -v`` the test id itself is the pass/fail line).
Randomized criteria use fixed seeds, so runs are reproducible bit for bit.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import fairdec as fd
from fairdec.audit import best_single_switch
from reference_helpers import feasible_product_lower_bound


def _report(label, start, detail=""):
    elapsed = time.perf_counter() - start
    suffix = f" — {detail}" if detail else ""
    print(f"{label}: PASS ({elapsed:.2f}s){suffix}")


def random_public_instance(rng, max_n=4, max_m=6, max_k=3, umin=0, umax=5):
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    return fd.decision_instance(
        [
            [
                [rng.randint(umin, umax) for _ in range(k)]
                for _ in range(n)
            ]
            for k in (rng.randint(1, max_k) for _ in range(m))
        ]
    )


def random_goods_instance(rng, max_n=3, max_m=8, umin=0, umax=5):
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    return fd.goods_instance(
        [[rng.randint(umin, umax) for _ in range(m)] for _ in range(n)]
    )


def satisfies(value, share):
    return share == 0 or value >= share


def test_criterion_01_worked_example_facts():
    """Budget: 1 second. The two fixed worked examples behave exactly as
    documented: shares, all three mechanisms, and the one-sided audit."""
    start = time.perf_counter()

    e1 = fd.generate("example1").instance
    p1 = fd.share_profile(e1, with_mms=True)
    assert p1.prop == p1.rrs == p1.pps == p1.mms == (Fraction(1), Fraction(1))
    assert fd.round_robin(e1).utilities == (Fraction(1), Fraction(1))
    assert fd.leximin(e1).utilities == (Fraction(1), Fraction(1))
    assert fd.max_nash_welfare(e1).utilities == (Fraction(1), Fraction(1))

    e2 = fd.generate("example2").instance
    p2 = fd.share_profile(e2, with_mms=True)
    assert p2.prop == (Fraction(4), Fraction(2))
    assert p2.rrs == (Fraction(4), Fraction(2))
    assert p2.pps == (Fraction(4), Fraction(0))
    assert p2.mms == (Fraction(4), Fraction(2))

    assert fd.round_robin(e2).utilities == (Fraction(6), Fraction(2))
    lex = fd.leximin(e2)
    assert lex.outcome.choices == (0, 1, 1, 1, 0, 0, 0, 0)
    assert lex.utilities == (Fraction(5), Fraction(3))
    mnw = fd.max_nash_welfare(e2)
    assert mnw.outcome.choices == (1, 1, 1, 1, 0, 0, 0, 0)
    assert mnw.utilities == (Fraction(4), Fraction(4))

    report = fd.audit(e2, fd.Outcome(choices=(0,) * 8), with_mms=True, po_cap=300)
    assert report.po.satisfied
    loser = report.players[1]
    assert loser.prop1.alpha == Fraction(1, 2)
    assert loser.pps.satisfied and loser.pps.alpha is None
    assert not loser.mms.satisfied

    _report("criterion 01 (worked examples)", start)


def test_criterion_02_round_robin_meets_rrs_and_prop1():
    """Budget: 1 minute. Over 1000 seeded instances (n <= 4, m <= 6,
    k <= 3, utilities 0..5) and every cyclic player order, round robin
    grants every player her round robin share and proportionality up to
    one issue."""
    start = time.perf_counter()
    rng = random.Random(20260819)
    checked = 0
    for _ in range(1000):
        inst = random_public_instance(rng)
        prop = [fd.proportional_share(inst, i) for i in range(inst.n)]
        rrs = [fd.round_robin_share(inst, i) for i in range(inst.n)]
        for shift in range(inst.n):
            order = tuple((shift + i) % inst.n for i in range(inst.n))
            result = fd.round_robin(inst, order=order)
            for i in range(inst.n):
                assert satisfies(result.utilities[i], rrs[i])
                reach = best_single_switch(inst, result.outcome, i)
                assert satisfies(reach, prop[i])
            checked += 1
    _report("criterion 02 (round robin guarantees)", start, f"{checked} runs")


@pytest.fixture(scope="module")
def mechanism_corpus():
    rng = random.Random(964213)
    return [
        random_public_instance(rng, max_n=3, max_m=5, max_k=3)
        for _ in range(500)
    ]


def test_criterion_03_leximin_meets_rrs_half_prop1_po(mechanism_corpus):
    """Budget: 5 minutes. On 500 seeded instances the normalized leximin
    outcome grants every player her round robin share, half of
    proportionality up to one issue, and is Pareto optimal; sampled
    outcomes confirm the implication from the share to the relaxation."""
    start = time.perf_counter()
    rng = random.Random(7)
    for inst in mechanism_corpus:
        prop = [fd.proportional_share(inst, i) for i in range(inst.n)]
        rrs = [fd.round_robin_share(inst, i) for i in range(inst.n)]
        result = fd.leximin(inst)
        for i in range(inst.n):
            assert satisfies(result.utilities[i], rrs[i])
            reach = best_single_switch(inst, result.outcome, i)
            assert satisfies(reach, Fraction(1, 2) * prop[i])
        assert fd.check_pareto_optimal(inst, result.outcome).satisfied

        # the share-to-relaxation implication holds player by player
        # on arbitrary outcomes, not just the mechanism's
        for _ in range(5):
            outcome = fd.Outcome(
                choices=tuple(
                    rng.randrange(issue.k) for issue in inst.issues
                )
            )
            utils = fd.utility_vector(inst, outcome)
            for i in range(inst.n):
                if utils[i] >= rrs[i]:
                    reach = best_single_switch(inst, outcome, i)
                    assert satisfies(reach, Fraction(1, 2) * prop[i])
    _report("criterion 03 (leximin guarantees)", start, "500 instances")


def test_criterion_04_nash_welfare_matches_oracle_and_guarantees(mechanism_corpus):
    """Budget: 5 minutes. On the same 500 instances the Nash welfare
    mechanism reproduces the enumeration oracle bit for bit and its outcome
    satisfies proportionality up to one issue, Pareto optimality, and a 1/n
    fraction of both the round robin and pessimistic shares."""
    start = time.perf_counter()
    for inst in mechanism_corpus:
        result = fd.max_nash_welfare(inst)
        oracle = fd.exact_optimum(inst, "nash")
        assert result.outcome == oracle.outcome
        assert result.utilities == oracle.utilities
        assert result.support == oracle.support

        n = inst.n
        for i in range(n):
            reach = best_single_switch(inst, result.outcome, i)
            assert satisfies(reach, fd.proportional_share(inst, i))
            assert satisfies(
                n * result.utilities[i], fd.round_robin_share(inst, i)
            )
            assert satisfies(
                n * result.utilities[i], fd.pessimistic_share(inst, i)
            )
        assert fd.check_pareto_optimal(inst, result.outcome).satisfied
    _report("criterion 04 (Nash welfare guarantees)", start, "500 instances")


def test_criterion_05_nash_welfare_on_goods():
    """Budget: 5 minutes. On 500 seeded goods instances (n <= 3, m <= 8)
    the Nash welfare allocation is envy-free up to one good, meets every
    pessimistic share, a n/(2n-1) fraction of every round robin share, and
    proportionality up to one good. The two named constructions realize
    their exact worst-case levels."""
    start = time.perf_counter()
    rng = random.Random(5150)
    for _ in range(500):
        goods = random_goods_instance(rng)
        image = fd.goods_to_public(goods)
        alloc = fd.outcome_to_allocation(goods, fd.max_nash_welfare(image).outcome)
        report = fd.audit_goods(goods, alloc)
        bound = Fraction(goods.n, 2 * goods.n - 1)
        for player in report.players:
            assert player.ef1.satisfied
            assert player.pps.satisfied
            assert player.prop1.satisfied
            assert player.rrs.alpha is None or player.rrs.alpha >= bound

    tight = fd.generate("theorem6_upper", delta=Fraction(1, 100)).instance
    alloc = fd.outcome_to_allocation(
        tight, fd.max_nash_welfare(fd.goods_to_public(tight)).outcome
    )
    assert [sorted(b) for b in alloc.bundles] == [[2, 3], [0, 1]]
    report = fd.audit_goods(tight, alloc)
    assert report.players[0].rrs.alpha == Fraction(100, 149)

    generated = fd.generate("lemma6_upper", n=4)
    report = fd.audit_goods(generated.instance, generated.witness)
    assert all(p.ef1.satisfied for p in report.players)
    assert report.players[0].rrs.alpha == Fraction(2, 3)

    _report("criterion 05 (Nash welfare on goods)", start, "500 instances")


def test_criterion_06_calibrated_family_is_tight_at_eight_players():
    """Budget: 1 minute. At n = 8 the calibrated family certifies, with
    exact arithmetic, that Nash welfare can drive one player's pessimistic
    share level to n*d < 1/2 while both defining inequalities hold
    strictly."""
    start = time.perf_counter()
    inst = fd.generate("theorem5", n=8).instance
    n = inst.n
    d = inst.utility(0, 0, 1)
    x = inst.utility(1, 0, 1)

    assert abs(x - Fraction((math.log(n) - math.log(math.log(n))) / n)) <= Fraction(
        1, 10**6
    )
    assert n * d > 1 / ((1 + x) ** (n - 1) - 1 + Fraction(1, n))  # product side
    assert n * d > n * x / (n + x)  # linear side
    assert n * d < Fraction(1, 2)

    result = fd.max_nash_welfare(inst)
    oracle = fd.exact_optimum(inst, "nash")
    assert result.outcome == oracle.outcome
    assert result.outcome.choices == (1,) * n  # second alternative everywhere
    assert result.utilities[0] == n * d

    report = fd.audit(inst, result.outcome)
    assert report.players[0].pps.alpha == n * d
    assert report.players[0].pps.alpha < Fraction(1, 2)
    _report("criterion 06 (calibrated tightness)", start, f"n*d = {float(n * d):.5f}")


def test_criterion_07_share_guaranteeing_allocator():
    """Budget: 5 minutes. Over 1000 seeded goods instances (n <= 6,
    m <= 30, utilities 1..10) the transfer allocator hands every
    quota-bound player at least floor(m/n) goods and her pessimistic
    share, its weights certify welfare maximality, and its trace replays
    to the final allocation; on small instances the result is exhaustively
    Pareto optimal."""
    start = time.perf_counter()
    rng = random.Random(112358)
    for trial in range(1000):
        goods = random_goods_instance(rng, max_n=6, max_m=30, umin=1, umax=10)
        alloc, weights, trace = fd.pps_po_allocate(goods)
        p = goods.m // goods.n

        assert sorted(g for b in alloc.bundles for g in b) == list(range(goods.m))
        for i in range(goods.n):
            pps = fd.pessimistic_share(goods, i)
            if pps > 0:
                assert len(alloc.bundles[i]) >= p
            assert satisfies(
                fd.bundle_utility(goods, i, alloc.bundles[i]), pps
            )
        owners = fd.allocation_to_outcome(goods, alloc).choices
        for g in range(goods.m):
            holder = owners[g]
            assert weights[holder] * goods.utilities[holder][g] == max(
                weights[i] * goods.utilities[i][g] for i in range(goods.n)
            )

        bundles = [set(b) for b in trace.initial.bundles]
        quota_bound = [fd.pessimistic_share(goods, i) > 0 for i in range(goods.n)]

        def shortfall():
            return sum(
                max(0, p - len(bundles[i]))
                for i in range(goods.n)
                if quota_bound[i]
            )

        for round_ in trace.rounds:
            before = shortfall()
            for transfer in round_.transfers:
                assert transfer.good in bundles[transfer.donor]
                bundles[transfer.donor].remove(transfer.good)
                bundles[transfer.recipient].add(transfer.good)
            assert shortfall() == before - 1
        assert [frozenset(b) for b in bundles] == list(alloc.bundles)

    rng = random.Random(271828)
    for _ in range(100):
        goods = random_goods_instance(rng, max_n=3, max_m=8, umin=1, umax=10)
        alloc, _, _ = fd.pps_po_allocate(goods)
        report = fd.audit_goods(goods, alloc, po_cap=10**5)
        assert report.po.satisfied
    _report("criterion 07 (share-guaranteeing allocator)", start, "1000 + 100 runs")


def test_criterion_08_no_weights_reach_both_round_robin_shares():
    """Budget: 1 second. On the four-good gap instance (both round robin
    shares equal 5) some allocation reaches both shares, yet no weighted
    welfare maximizer does, under any positive weights and any tie-breaking;
    the recorded ratio 3/4 is exactly where the maximizer flips."""
    start = time.perf_counter()
    generated = fd.generate("weighted_welfare_gap")
    goods = generated.instance
    assert fd.round_robin_share(goods, 0) == 5
    assert fd.round_robin_share(goods, 1) == 5

    # both shares are attainable together, just not by welfare maximization
    split = fd.allocation([{0, 2}, {1, 3}])
    assert fd.allocation_utilities(goods, split) == (Fraction(5), Fraction(5))

    # sweep weight ratios across the flip, enumerating every tie-breaking;
    # only the ratios at the two per-good flips (3/4 and 2) produce ties,
    # so the grid covers every maximizer any positive weights can produce
    ratios = [Fraction(a, b) for a in range(1, 8) for b in range(1, 8)]
    for ratio in sorted(set(ratios) | {generated.critical_ratio}):
        weights = (ratio, Fraction(1))
        argmax_sets = []
        for g in range(goods.m):
            values = [weights[i] * goods.utilities[i][g] for i in range(2)]
            best = max(values)
            argmax_sets.append([i for i in range(2) if values[i] == best])
        for owners in itertools.product(*argmax_sets):
            bundles = [set(), set()]
            for g, owner in enumerate(owners):
                bundles[owner].add(g)
            utils = fd.allocation_utilities(goods, fd.allocation(bundles))
            assert not (utils[0] >= 5 and utils[1] >= 5)

    # exactly at the critical ratio the top goods tie; above it they
    # stay with player 1, below they flip to player 2
    at = fd.weighted_welfare_allocation(goods, (Fraction(3), Fraction(4)))
    assert [sorted(b) for b in at.bundles] == [[0, 1], [2, 3]]
    below = fd.weighted_welfare_allocation(goods, (Fraction(2), Fraction(3)))
    assert [sorted(b) for b in below.bundles] == [[], [0, 1, 2, 3]]
    _report("criterion 08 (weighted welfare gap)", start)


def test_criterion_09_two_player_share_implies_relaxation_until_seven_goods():
    """Budget: 2 minutes. With two players and at most six goods, every
    allocation meeting both round robin shares also meets proportionality
    up to one good (exhaustive over 300 seeded instances); at seven goods
    the certified construction breaks the implication."""
    start = time.perf_counter()
    rng = random.Random(424242)
    implications = 0
    for _ in range(300):
        m = rng.randint(2, 6)
        goods = fd.goods_instance(
            [[rng.randint(0, 4) for _ in range(m)] for _ in range(2)]
        )
        prop = [fd.proportional_share(goods, i) for i in range(2)]
        rrs = [fd.round_robin_share(goods, i) for i in range(2)]
        for owners_mask in range(2**m):
            bundles = [set(), set()]
            for g in range(m):
                bundles[(owners_mask >> g) & 1].add(g)
            alloc = fd.allocation(bundles)
            utils = fd.allocation_utilities(goods, alloc)
            if all(satisfies(utils[i], rrs[i]) for i in range(2)):
                for i in range(2):
                    reach = utils[i] + max(
                        (goods.utilities[i][g] for g in bundles[1 - i]),
                        default=Fraction(0),
                    )
                    assert satisfies(reach, prop[i])
                implications += 1

    generated = fd.generate("appendixA", n=2, m=7)
    report = fd.audit_goods(generated.instance, generated.witness)
    assert all(p.rrs.satisfied for p in report.players)
    assert not report.players[0].prop1.satisfied
    _report(
        "criterion 09 (two-player implication)",
        start,
        f"{implications} premise hits",
    )


def test_criterion_10_product_stays_near_one_under_small_shortfall():
    """Budget: 10 seconds. Over 10000 seeded rational vectors (up to eight
    entries), whenever the total shortfall below one is within delta, the
    product of the entries is at least 1 - delta."""
    start = time.perf_counter()
    rng = random.Random(31415)
    feasible_hits = 0
    for trial in range(10000):
        size = rng.randint(1, 8)
        delta = Fraction(rng.randint(0, 50), 100)
        if trial % 2 == 0:
            # engineered to be feasible: shortfalls that sum within delta
            values = []
            budget = delta
            for _ in range(size):
                spend = Fraction(rng.randint(0, budget.numerator), budget.denominator)
                values.append(1 - spend + Fraction(rng.randint(0, 3), 2))
                budget -= spend
        else:
            values = [
                Fraction(rng.randint(0, 40), rng.randint(1, 20))
                for _ in range(size)
            ]
        check = feasible_product_lower_bound(values, delta)
        if check.feasible:
            feasible_hits += 1
            assert check.holds
            assert check.product >= 1 - delta
    assert feasible_hits >= 5000  # the engineered half always qualifies
    _report(
        "criterion 10 (product lower bound)", start, f"{feasible_hits} feasible"
    )

"""Weighted welfare maximization and the share-guaranteeing transfer scheme."""

import hashlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fairdec as fd
from fairdec import io, private_goods
from fairdec.shares import share_sums
from reference_helpers import read_goods


# integers, and fractions whose denominators are pairwise coprime, so the
# per-player integer scales differ between players
UTILITIES = st.one_of(
    st.integers(0, 6),
    st.builds(Fraction, st.integers(0, 42), st.sampled_from([2, 3, 7])),
)

# few distinct values, so ratios tie often
TIE_HEAVY = st.one_of(
    st.integers(0, 2),
    st.builds(Fraction, st.integers(0, 6), st.sampled_from([2, 3, 7])),
)


@st.composite
def goods_instances_(draw, max_n=4, max_m=8, values=UTILITIES):
    """Random goods instances, n = 1 included; some rows are mostly zeros."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    rows = []
    for _ in range(n):
        zero_heavy = draw(st.booleans())
        rows.append(
            [
                0 if zero_heavy and draw(st.integers(0, 3)) else draw(values)
                for _ in range(m)
            ]
        )
    return fd.goods_instance(rows)


def test_weighted_welfare_gives_each_good_to_a_weighted_maximizer():
    goods = fd.goods_instance([[4, 4, 1, 1], [3, 3, 2, 2]])
    even = fd.weighted_welfare_allocation(goods, (Fraction(1, 2), Fraction(1, 2)))
    assert [sorted(b) for b in even.bundles] == [[0, 1], [2, 3]]
    # at ratio 3/4 the first two goods tie and stay with the lower index
    tilted = fd.weighted_welfare_allocation(goods, (Fraction(3), Fraction(4)))
    assert [sorted(b) for b in tilted.bundles] == [[0, 1], [2, 3]]
    # past the tie everything flips
    past = fd.weighted_welfare_allocation(goods, (Fraction(2), Fraction(3)))
    assert [sorted(b) for b in past.bundles] == [[], [0, 1, 2, 3]]


def _fraction_argmax(goods, weights):
    """Each good's owner by a plain scan of w_i * u_i(g) in Fractions: a later
    player takes the good only with a strictly larger value."""
    owners = []
    for g in range(goods.m):
        values = [w * goods.utility(i, g) for i, w in enumerate(weights)]
        best = 0
        for i in range(1, goods.n):
            if values[i] > values[best]:
                best = i
        owners.append(best)
    return owners


# few distinct weights, so weighted values tie across players
WEIGHTS = st.one_of(
    st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(2, 3)]),
    st.fractions(min_value=Fraction(1, 15), max_value=20, max_denominator=15),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_weighted_welfare_is_the_fraction_argmax(data):
    values = data.draw(st.sampled_from([UTILITIES, TIE_HEAVY]))
    goods = data.draw(goods_instances_(max_n=5, max_m=8, values=values))
    weights = data.draw(st.lists(WEIGHTS, min_size=goods.n, max_size=goods.n))
    alloc = fd.weighted_welfare_allocation(goods, weights)
    owners = _fraction_argmax(goods, weights)
    assert alloc.bundles == fd.allocation(
        {g for g, owner in enumerate(owners) if owner == i} for i in range(goods.n)
    ).bundles


def test_weighted_welfare_argmax_on_p_q_rows():
    """Rows read from "p/q" strings have scales above 1; equal weighted values
    go to the lowest index, a larger one to its player."""
    text = (
        '{"kind": "goods", "players": ["a", "b", "c"], "goods": ["x", "y", "z"], '
        '"utilities": [["1/2", "1/3", 0], ["3/4", "1/2", "5/7"], [1, "2/3", "5/7"]]}'
    )
    goods = io.parse_instance(text)
    assert goods.scales == (6, 28, 21)
    # w * u per good: x 1/3, 1/2, 1/2; y 2/9, 1/3, 1/3; z 0, 10/21, 5/14
    weights = (Fraction(2, 3), Fraction(2, 3), Fraction(1, 2))
    alloc = fd.weighted_welfare_allocation(goods, weights)
    assert [sorted(b) for b in alloc.bundles] == [[], [0, 1, 2], []]
    assert _fraction_argmax(goods, weights) == [1, 1, 1]
    heavier = fd.weighted_welfare_allocation(goods, (Fraction(2, 3), Fraction(2, 3), 1))
    assert [sorted(b) for b in heavier.bundles] == [[], [], [0, 1, 2]]


@st.composite
def zero_heavy_p_q_goods_(draw, max_n=5):
    """Goods read from "p/q" cells with zero-heavy rows, shaped m < n or m a
    multiple of n, so that p = floor(m/n) is 0 or an exact share of goods."""
    n = draw(st.integers(1, max_n))
    below = st.integers(1, max(1, n - 1))
    m = draw(st.one_of(below, st.integers(1, 3).map(n.__mul__)))
    values = draw(st.sampled_from([UTILITIES, TIE_HEAVY]))
    rows = []
    for _ in range(n):
        zeros = draw(st.integers(0, 3))  # out of 4: how likely a cell is 0
        rows.append(
            [0 if draw(st.integers(1, 4)) <= zeros else draw(values) for _ in range(m)]
        )
    return read_goods(rows)


@settings(max_examples=300, deadline=None)
@given(zero_heavy_p_q_goods_())
def test_the_quota_set_is_read_from_zero_counts(goods):
    """A player is quota bound exactly when fewer than p of her values are 0,
    which is when her PPS is positive; every round the allocator routes a
    good toward those of them still below quota, and it stops when none is."""
    n, p = goods.n, goods.m // goods.n
    bound = [pps > 0 for _, _, pps, _ in share_sums(goods)]
    assert [row.count(0) < p for row in goods.maxima] == bound
    needy_sets = []
    transfer_round = private_goods._transfer_round

    def spy(run, seeds, needy):
        below = {i for i in range(n) if bound[i] and len(run.bundles[i]) < p}
        needy_sets.append((needy, below))
        return transfer_round(run, seeds, needy)

    with mock.patch.object(private_goods, "_transfer_round", spy):
        alloc, _, trace = fd.pps_po_allocate(goods)
    assert len(needy_sets) == len(trace.rounds)
    assert all(needy == below for needy, below in needy_sets)
    assert all(len(b) >= p for b, quota in zip(alloc.bundles, bound) if quota)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_weighted_welfare_on_p_q_rows_is_the_fraction_argmax(data):
    """Equal row factors (w_i / scales[i] alike, as at the allocator's equal
    start weights on equal scales) skip the rescaling; either way each good
    goes to the lowest index maximizing w_i * u_i(g)."""
    goods = data.draw(zero_heavy_p_q_goods_())
    if data.draw(st.booleans()):
        weights = [data.draw(WEIGHTS) * s for s in goods.scales]
    else:
        weights = data.draw(st.lists(WEIGHTS, min_size=goods.n, max_size=goods.n))
    owners = _fraction_argmax(goods, weights)
    assert fd.weighted_welfare_allocation(goods, weights).bundles == fd.allocation(
        {g for g, owner in enumerate(owners) if owner == i} for i in range(goods.n)
    ).bundles


def test_weighted_welfare_rejects_bad_weights():
    goods = fd.goods_instance([[1], [1]])
    with pytest.raises(ValueError):
        fd.weighted_welfare_allocation(goods, (Fraction(1),))
    with pytest.raises(ValueError):
        fd.weighted_welfare_allocation(goods, (Fraction(1), Fraction(0)))


@pytest.mark.parametrize(
    "weights",
    [(0.5, 0.5), (Fraction(1), 2.0), (True, True), (1, True)],
    ids=["floats", "a-float", "bools", "a-bool"],
)
def test_weighted_welfare_refuses_weights_that_are_not_rationals(weights):
    """Only ints and Fractions are weights: no float enters a fairness
    decision, and a bool is not the number 1. A weight of 0 is refused by
    ``test_weighted_welfare_rejects_bad_weights``."""
    goods = fd.goods_instance([[1, 2], [2, 1]])
    with pytest.raises(ValueError, match="weights must be positive, one per player"):
        fd.weighted_welfare_allocation(goods, weights)


def test_weighted_welfare_takes_int_and_fraction_weights():
    goods = fd.goods_instance([[1, 2], [2, 1]])
    for weights in [(1, 1), (Fraction(1), 1), (Fraction(1, 2), Fraction(1, 2))]:
        alloc = fd.weighted_welfare_allocation(goods, weights)
        assert [sorted(b) for b in alloc.bundles] == [[1], [0]]


def test_a_round_with_no_tie_is_an_invariant_error():
    """A group whose every good is worthless to every outsider has no tie to
    create: the round raises instead of returning nothing."""
    run = private_goods._Run(fd.goods_instance([[1, 1], [0, 0]]))
    with pytest.raises(fd.InvariantError, match="no tie can reach"):
        private_goods._transfer_round(run, seeds={0}, needy={1})


# near-equal values, so a dense row that loses its block violates Prop1
FLAT = st.sampled_from([1, 2, Fraction(3, 2), Fraction(4, 3), Fraction(5, 7)])


@st.composite
def block_goods_(draw):
    """Goods in up to three blocks, read from "p/q" cells: player i values
    only the goods of block i mod blocks, save the few who value every block,
    so most member-outsider ratios are infinite. A row times 3 or 9 outbids
    the others of its block."""
    n, m = draw(st.integers(2, 6)), draw(st.integers(1, 14))
    blocks = draw(st.integers(1, 3))
    values = draw(st.sampled_from([UTILITIES, TIE_HEAVY, FLAT]))
    good_block = draw(st.lists(st.integers(0, blocks - 1), min_size=m, max_size=m))
    rows = []
    for i in range(n):
        wide, scale = draw(st.integers(0, 5)) == 0, draw(st.sampled_from([1, 3, 9]))
        rows.append(
            [scale * draw(values) if wide or b == i % blocks else 0 for b in good_block]
        )
    return read_goods(rows)


@settings(max_examples=300, deadline=None)
@given(block_goods_())
def test_the_goods_rounds_never_get_stuck(goods):
    """Every round of both allocators finds a tie to create, and the Prop1
    search stops only certified or after ``SEARCH_ROUNDS`` rounds."""
    alloc, _, _ = fd.pps_po_allocate(goods)
    p = goods.m // goods.n
    bound = [row.count(0) < p for row in goods.maxima]
    assert all(len(b) >= p for b, quota in zip(alloc.bundles, bound) if quota)
    result = fd.prop1_po_search(goods)
    rounds = len(result.trace.rounds)
    assert result.certified_prop1 or rounds == private_goods.SEARCH_ROUNDS


def test_no_transfers_needed_when_quotas_start_satisfied():
    goods = fd.goods_instance([[4, 4, 1, 1], [3, 3, 2, 2]])
    alloc, weights, trace = fd.pps_po_allocate(goods)
    assert [sorted(b) for b in alloc.bundles] == [[0, 1], [2, 3]]
    assert weights == (Fraction(1, 2), Fraction(1, 2))
    assert trace.rounds == ()
    assert trace.initial == alloc


def test_single_tie_transfer_on_identical_values():
    goods = fd.goods_instance([[1, 1], [1, 1]])
    alloc, weights, trace = fd.pps_po_allocate(goods)
    assert [sorted(b) for b in alloc.bundles] == [[1], [0]]
    assert weights == (Fraction(1, 2), Fraction(1, 2))
    (round_,) = trace.rounds
    assert round_.dec_snapshots == ((0,), (0, 1))
    (reduction,) = round_.reductions
    assert (reduction.donor, reduction.recipient, reduction.good) == (0, 1, 0)
    assert reduction.factor == 1 and not reduction.degenerate
    assert [(t.donor, t.recipient, t.good) for t in round_.transfers] == [(0, 1, 0)]


def test_transfers_chain_through_intermediate_players():
    # everyone ranks the goods identically, so ties must be created twice
    goods = fd.goods_instance([[1, 1, 1], [2, 2, 2], [3, 3, 3]])
    alloc, weights, trace = fd.pps_po_allocate(goods)
    assert [sorted(b) for b in trace.initial.bundles] == [[], [], [0, 1, 2]]
    assert [sorted(b) for b in alloc.bundles] == [[0], [1], [2]]
    assert weights == (Fraction(1, 3), Fraction(1, 6), Fraction(1, 9))
    first, second = trace.rounds
    assert first.dec_snapshots == ((2,), (1, 2))
    assert [(r.donor, r.recipient, r.good, r.factor) for r in first.reductions] == [
        (2, 1, 0, Fraction(3, 2))
    ]
    assert [(t.donor, t.recipient, t.good) for t in first.transfers] == [(2, 1, 0)]
    # the second round walks through player 2 to reach player 1
    assert second.dec_snapshots == ((2,), (1, 2), (0, 1, 2))
    assert [(r.donor, r.recipient, r.good, r.factor) for r in second.reductions] == [
        (2, 1, 1, Fraction(1)),
        (1, 0, 0, Fraction(2)),
    ]
    assert [(t.donor, t.recipient, t.good) for t in second.transfers] == [
        (1, 0, 0),
        (2, 1, 1),
    ]


def test_worthless_goods_move_along_degenerate_ties():
    goods = fd.goods_instance([[2, 2, 2, 0, 0], [1, 1, 1, 0, 1]])
    alloc, weights, trace = fd.pps_po_allocate(goods)
    assert [sorted(b) for b in alloc.bundles] == [[0, 1, 2], [3, 4]]
    assert weights == (Fraction(1, 2), Fraction(1, 2))  # factor-1 step: no change
    (round_,) = trace.rounds
    (reduction,) = round_.reductions
    assert reduction.degenerate
    assert (reduction.donor, reduction.recipient, reduction.good) == (0, 1, 3)
    assert reduction.factor == 1


@pytest.mark.parametrize(
    "rows, reductions, bundles",
    [
        # round one moves good 0 along a tie, which leaves it the donor's
        # cheapest good toward the same recipient, at ratio 1: it must be
        # gone from her entry in the tie table
        (
            [[3, 4, 4, 4], [2, 1, 1, 1]],
            [(0, 1, 0, Fraction(3, 2), False), (0, 1, 1, Fraction(8, 3), False)],
            [[2, 3], [0, 1]],
        ),
        # the worthless goods 0 and 1 and the valued good 2 all tie at
        # ratio 1, and the lowest good goes first
        (
            [[0, 0, 1, 1, 1, 1], [0, 0, 1, 1, 1, 1]],
            [(0, 1, g, Fraction(1), g < 2) for g in range(3)],
            [[3, 4, 5], [0, 1, 2]],
        ),
    ],
    ids=["donor-gave-its-cheapest-good", "worthless-goods-tie-at-one"],
)
def test_tie_table_follows_the_bundles(rows, reductions, bundles):
    alloc, _, trace = fd.pps_po_allocate(fd.goods_instance(rows))
    assert [
        (r.donor, r.recipient, r.good, r.factor, r.degenerate)
        for round_ in trace.rounds
        for r in round_.reductions
    ] == reductions
    assert [sorted(b) for b in alloc.bundles] == bundles


def test_players_with_zero_pessimistic_share_are_exempt():
    # player 2 values a single good; her PPS is 0, so holding nothing is fine
    goods = fd.goods_instance([[3, 3, 3, 3], [0, 0, 0, 1]])
    alloc, weights, trace = fd.pps_po_allocate(goods)
    report = fd.audit_goods(goods, alloc)
    assert all(p.pps.satisfied for p in report.players)


def test_prop1_search_leaves_a_good_start_alone():
    goods = fd.goods_instance([[4, 4, 1, 1], [3, 3, 2, 2]])
    result = fd.prop1_po_search(goods)
    assert [sorted(b) for b in result.allocation.bundles] == [[0, 1], [2, 3]]
    assert result.certified_prop1
    assert result.prop1_losses == ()
    assert result.trace.rounds == ()


def test_prop1_search_routes_goods_to_violators():
    goods = fd.goods_instance([[5, 2, 2, 2, 2, 1, 1], [0, 1, 1, 1, 1, 1, 1]])
    result = fd.prop1_po_search(goods)
    assert result.certified_prop1
    assert [sorted(b) for b in result.allocation.bundles] == [[0, 1, 2, 3, 4], [5, 6]]
    assert len(result.trace.rounds) == 2
    report = fd.audit_goods(goods, result.allocation)
    assert all(p.prop1.satisfied for p in report.players)


@settings(deadline=None, max_examples=200)
@given(goods_instances_())
def test_allocator_meets_quotas_and_stays_weight_optimal(goods):
    """Every quota-bound player ends with floor(m/n) goods, hence her share,
    and the final weights certify welfare optimality of the allocation."""
    alloc, weights, trace = fd.pps_po_allocate(goods)
    p = goods.m // goods.n
    seen = sorted(g for b in alloc.bundles for g in b)
    assert seen == list(range(goods.m))
    report = fd.audit_goods(goods, alloc)
    for i in range(goods.n):
        if fd.pessimistic_share(goods, i) > 0:
            assert len(alloc.bundles[i]) >= p
        assert report.players[i].pps.satisfied
    assert all(w > 0 for w in weights)
    owners = fd.allocation_to_outcome(goods, alloc).choices
    for g in range(goods.m):
        holder = owners[g]
        best = max(weights[i] * goods.utilities[i][g] for i in range(goods.n))
        assert weights[holder] * goods.utilities[holder][g] == best


@settings(deadline=None, max_examples=200)
@given(goods_instances_())
def test_trace_replays_to_the_final_allocation(goods):
    """Applying the recorded transfers to the initial allocation, round by
    round, reproduces the result; the shortfall metric strictly decreases."""
    alloc, weights, trace = fd.pps_po_allocate(goods)
    p = goods.m // goods.n
    quota_bound = [fd.pessimistic_share(goods, i) > 0 for i in range(goods.n)]
    bundles = [set(b) for b in trace.initial.bundles]

    def shortfall():
        return sum(
            max(0, p - len(bundles[i]))
            for i in range(goods.n)
            if quota_bound[i]
        )

    for round_ in trace.rounds:
        before = shortfall()
        assert round_.dec_snapshots[0] == tuple(sorted(round_.dec_snapshots[0]))
        for first, then in zip(round_.dec_snapshots, round_.dec_snapshots[1:]):
            assert set(first) < set(then)
        for transfer in round_.transfers:
            assert transfer.good in bundles[transfer.donor]
            bundles[transfer.donor].remove(transfer.good)
            bundles[transfer.recipient].add(transfer.good)
        assert shortfall() == before - 1
    assert [frozenset(b) for b in bundles] == list(alloc.bundles)
    assert shortfall() == 0


@settings(deadline=None, max_examples=150)
@given(goods_instances_(max_n=3, max_m=6))
def test_allocator_output_is_pareto_optimal(goods):
    alloc, _, _ = fd.pps_po_allocate(goods)
    report = fd.audit_goods(goods, alloc, po_cap=10**6)
    assert report.po.satisfied


@settings(deadline=None, max_examples=200)
@given(goods_instances_(max_n=3, max_m=6))
def test_prop1_search_certificate_is_honest(goods):
    result = fd.prop1_po_search(goods)
    report = fd.audit_goods(goods, result.allocation)
    assert result.certified_prop1 == all(p.prop1.satisfied for p in report.players)
    seen = sorted(g for b in result.allocation.bundles for g in b)
    assert seen == list(range(goods.m))
    # the weights still certify Pareto optimality
    owners = fd.allocation_to_outcome(goods, result.allocation).choices
    for g in range(goods.m):
        holder = owners[g]
        best = max(
            result.weights[i] * goods.utilities[i][g] for i in range(goods.n)
        )
        assert result.weights[holder] * goods.utilities[holder][g] == best


def fraction_argmin(goods, weights, bundles, dec):
    """The cheapest tie by the module's conventions, in plain Fractions:
    (ratio, donor, recipient, good, degenerate), lowest indices on ties."""
    u = goods.utilities
    candidates = []
    for i in dec:
        for j in set(range(goods.n)) - set(dec):
            for g in bundles[i]:
                top, bottom = weights[i] * u[i][g], weights[j] * u[j][g]
                if bottom:
                    candidates.append((top / bottom, i, j, g, False))
                elif not top:
                    candidates.append((Fraction(1), i, j, g, True))
    return min(candidates, default=None)


@settings(deadline=None, max_examples=300)
@given(goods_instances_(max_n=5, max_m=10, values=TIE_HEAVY), st.booleans())
def test_every_recorded_tie_is_the_fraction_argmin(goods, prop1):
    """Replaying the trace in plain Fractions, from the argmax at weights 1/n,
    meets each recorded tie as the cheapest one and ends at the returned
    weights and bundles."""
    if prop1:
        result = fd.prop1_po_search(goods)
        alloc, weights, trace = result.allocation, result.weights, result.trace
    else:
        alloc, weights, trace = fd.pps_po_allocate(goods)
    n, u = goods.n, goods.utilities
    w = [Fraction(1, n)] * n
    bundles = [set() for _ in range(n)]
    for g in range(goods.m):
        bundles[max(range(n), key=lambda i: (w[i] * u[i][g], -i))].add(g)
    assert [frozenset(b) for b in bundles] == list(trace.initial.bundles)
    for round_ in trace.rounds:
        for dec, reduction in zip(round_.dec_snapshots, round_.reductions):
            assert fraction_argmin(goods, w, bundles, dec) == (
                reduction.factor,
                reduction.donor,
                reduction.recipient,
                reduction.good,
                reduction.degenerate,
            )
            for i in dec:
                w[i] /= reduction.factor
        for t in round_.transfers:
            bundles[t.donor].remove(t.good)
            bundles[t.recipient].add(t.good)
    assert tuple(w) == weights
    assert [frozenset(b) for b in bundles] == list(alloc.bundles)


def skewed_goods(n, m, seed):
    """Player i draws each value from 0..4(i+1), so ties chain over many rounds."""
    rng = random.Random(seed)
    return fd.goods_instance(
        [[rng.randint(0, 4 * (i + 1)) for _ in range(m)] for i in range(n)]
    )


@pytest.mark.parametrize("prop1", [False, True], ids=["pps-po", "prop1-po"])
@pytest.mark.parametrize("n, m", [(6, 60), (8, 80)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_multi_round_runs_replay_tie_by_tie(seed, n, m, prop1):
    """The Fraction replay above on runs of 11 to 31 rounds, in which tie
    table entries are built, read and dropped many times."""
    goods = skewed_goods(n, m, seed)
    trace = fd.prop1_po_search(goods).trace if prop1 else fd.pps_po_allocate(goods)[2]
    assert len(trace.rounds) > 10
    test_every_recorded_tie_is_the_fraction_argmin.hypothesis.inner_test(goods, prop1)


def test_skewed_16x400_runs_are_pinned():
    """PPS+PO on the skewed 16x400 instance at seed 7 keeps its round count
    and its trace document bytes; the Prop1 search gives up there after all
    its rounds, uncertified."""
    goods = skewed_goods(16, 400, 7)
    _, weights, trace = fd.pps_po_allocate(goods)
    doc = {
        "weights": [io.encode_rational(w) for w in weights],
        **io.transfer_trace_document(trace),
    }
    assert len(trace.rounds) == 148
    assert hashlib.sha256(io.to_json(doc).encode()).hexdigest() == (
        "72bad599a69458fc4fb838ca852d53ce2d8d6c12473bb5321862a2701dfdedca"
    )
    result = fd.prop1_po_search(goods)
    assert len(result.trace.rounds) == 100
    assert not result.certified_prop1


# goods instances read from documents whose fractional values are "p/q"
# strings, so most players have scales above 1
P_Q_GOODS = goods_instances_(max_n=5, max_m=10).map(
    lambda goods: io.parse_instance(io.to_json(io.instance_document(goods)))
)


def violator_heavy_goods(rng):
    """Skewed rows as in ``skewed_goods``: player i draws each value from
    0..16(i+1), over a denominator of 1, 2, 3 or 7 of her own, with n 2-4 and
    m 2n-4n. Most such instances start with a Prop1 violator, where the
    strategies above rarely do."""
    n = rng.randint(2, 4)
    m = rng.randint(2 * n, 4 * n)
    rows = []
    for i in range(n):
        d = rng.choice([1, 2, 3, 7])
        rows.append([Fraction(rng.randint(0, 16 * (i + 1)), d) for _ in range(m)])
    return fd.goods_instance(rows)


def test_violator_heavy_goods_mostly_run_a_round():
    """At least half of the draws run a Prop1 search round (67 of these 100
    seeds do), so the test below checks the bookkeeping of real rounds."""
    runs = [
        fd.prop1_po_search(violator_heavy_goods(random.Random(seed))).trace.rounds
        for seed in range(100)
    ]
    assert sum(map(bool, runs)) >= 50


@settings(deadline=None, max_examples=300)
@given(
    goods_instances_(max_n=5, max_m=10, values=TIE_HEAVY)
    | P_Q_GOODS
    | st.randoms(use_true_random=False).map(violator_heavy_goods)
)
def test_prop1_bookkeeping_matches_the_audit_round_by_round(goods):
    """Replaying a Prop1 search trace and auditing the bundles from scratch
    after every round gives its recorded losses and its certificate: each
    round starts from the players at Prop and ends at a Prop1 violator, and
    a loss is a player the round took from Prop1 to a violation."""
    result = fd.prop1_po_search(goods)
    bundles = [set(b) for b in result.trace.initial.bundles]

    def audited():
        players = fd.audit_goods(goods, fd.allocation(bundles)).players
        return [p.prop.satisfied for p in players], [p.prop1.satisfied for p in players]

    at_prop, prop1 = audited()
    losses = []
    for index, round_ in enumerate(result.trace.rounds):
        seeds = {i for i in range(goods.n) if at_prop[i]}
        assert set(round_.dec_snapshots[0]) == seeds
        assert not prop1[round_.reductions[-1].recipient]
        for t in round_.transfers:
            bundles[t.donor].remove(t.good)
            bundles[t.recipient].add(t.good)
        before = prop1
        at_prop, prop1 = audited()
        losses += [(index, i) for i in range(goods.n) if before[i] and not prop1[i]]
    assert [frozenset(b) for b in bundles] == list(result.allocation.bundles)
    assert result.prop1_losses == tuple(losses)
    assert result.certified_prop1 == all(prop1)


def test_prop1_search_records_a_loss():
    """On skewed 4x16 goods at seed 28 the second round's chain costs player 1
    Prop1 and the third gives it back; the round-by-round audit agrees."""
    goods = skewed_goods(4, 16, 28)
    result = fd.prop1_po_search(goods)
    assert result.prop1_losses == ((1, 1),)
    assert result.certified_prop1 and len(result.trace.rounds) == 3
    test_prop1_bookkeeping_matches_the_audit_round_by_round.hypothesis.inner_test(goods)


@pytest.mark.parametrize("n, m", [(6, 60), (8, 80)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_prop1_bookkeeping_on_multi_round_runs(seed, n, m):
    """The round-by-round audit above on the skewed runs of
    ``test_multi_round_runs_replay_tie_by_tie``."""
    goods = skewed_goods(n, m, seed)
    assert len(fd.prop1_po_search(goods).trace.rounds) > 10
    test_prop1_bookkeeping_matches_the_audit_round_by_round.hypothesis.inner_test(goods)

"""Pareto-optimal allocation of private goods with share guarantees.

Both procedures here keep the allocation welfare-maximizing for an evolving
positive weight vector, which makes every intermediate (and the final)
allocation Pareto optimal: a Pareto improvement would raise weighted welfare.

``pps_po_allocate`` guarantees every player her pessimistic proportional
share in polynomial time. Starting from the weighted-welfare allocation at
equal weights it drives every player with a positive share up to quota
p = floor(m/n): lowering the weights of an over-quota group DEC until some
outside player ties on one of the group's goods lets that good move without
losing welfare-maximality; the group absorbs players until someone below
quota joins, then the chain of recorded ties is replayed backwards, moving
one good per link, so exactly one over-quota player loses a good and the
under-quota player gains one. Each round strictly shrinks the total quota
deficit, the group absorbs at most n players per round, and a round moves at
most n goods, giving O(n^2 m^2) arithmetic operations overall.

``prop1_po_search`` runs the same round as a heuristic for proportionality
up to one good: it seeds the group with players at their proportional share
(someone is: under weighted-welfare maximality the owner-maxima sum beats the
weighted average), grows it until a Prop1 violator joins, and routes a good
to her. Violators can reappear, so it stops after ``SEARCH_ROUNDS`` rounds
and reports whether the result is certified by the audit's rule, on scaled
integers: n times the bundle plus ``GoodsInstance.best_unowned`` reaches the
player's row sum.

Both run rounds of ``_transfer_round``. A candidate tie there is a group
member i, an outside player j and a good g of i: a zero for j beside a
positive value for i is an infinite ratio, never chosen; a good worthless to
both is the degenerate ratio 1, flagged on the trace event; ties go to the
lowest i, then j, then g. Weights are kept over the scales as reduced integer
pairs, and ratios of ``maxima`` entries are compared by cross-multiplying.
The weights scale all of i's ratios toward j alike, so ``_cheapest`` keeps
only the two goods of i that can win for j, in a table that each transfer
patches.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import DegenerateInstance, InvariantError
from .model import Allocation, GoodsInstance, Outcome, allocation, outcome_to_allocation

SEARCH_ROUNDS = 100

WeightVector = tuple[Fraction, ...]


class WeightReduction(NamedTuple):
    """One tie creation: DEC weights were divided by ``factor`` so that
    ``recipient`` ties with ``donor`` on ``good``."""

    donor: int
    recipient: int
    good: int
    factor: Fraction
    degenerate: bool


class Transfer(NamedTuple):
    donor: int
    recipient: int
    good: int


class Round(NamedTuple):
    """One outer iteration: DEC growth snapshots, tie events, then the chain of moves."""

    dec_snapshots: tuple[tuple[int, ...], ...]
    reductions: tuple[WeightReduction, ...]
    transfers: tuple[Transfer, ...]


class TransferTrace(NamedTuple):
    initial: Allocation
    rounds: tuple[Round, ...]


def weighted_welfare_allocation(
    goods: GoodsInstance, weights: Sequence[Fraction]
) -> Allocation:
    """Give each good to a player maximizing w_i * u_i(g); ties to the lowest
    index. Row i of ``maxima`` is scaled by one integer, w_i / scales[i] over
    the least common denominator (not at all when every row's is the same),
    and each column's first maximum wins."""
    weights = tuple(weights)
    if len(weights) != goods.n or any(w <= 0 for w in weights):
        raise ValueError("weights must be positive, one per player")
    dens = [w.denominator * s for w, s in zip(weights, goods.scales)]
    common = lcm(*dens)
    factors = [w.numerator * (common // d) for w, d in zip(weights, dens)]
    rows = goods.maxima
    if factors.count(factors[0]) != goods.n:
        rows = [[*map(f.__mul__, row)] for f, row in zip(factors, rows)]
    columns = [*zip(*rows)]
    owners = tuple(map(tuple.index, columns, map(max, columns)))
    return outcome_to_allocation(goods, Outcome(choices=owners))


class _Run:
    """One allocator run: each w_i / scales[i] as a reduced pair [num, den],
    the welfare argmax ``initial``, the bundles and the tie table."""

    def __init__(self, goods: GoodsInstance):
        self.goods = goods
        self.e = [[1, goods.n * s] for s in goods.scales]
        self.initial = weighted_welfare_allocation(goods, self.weights())
        self.bundles = [set(b) for b in self.initial.bundles]
        self.ties: list[dict[int, list]] = [{} for _ in range(goods.n)]

    def weights(self) -> WeightVector:
        return tuple(Fraction(a * s, b) for (a, b), s in zip(self.e, self.goods.scales))

    def move(self, i: int, j: int, g: int) -> None:
        """Give g from i to j: drop i's ties that hold g, fold g into j's."""
        self.bundles[i].remove(g)
        self.bundles[j].add(g)
        lose, gain = self.ties[i], self.ties[j]
        self.ties[i] = {k: v for k, v in lose.items() if all(e[2] != g for e in v)}
        for k, v in gain.items():
            gain[k] = _cheapest(self.goods, j, k, [g, *map(itemgetter(2), v)])


def _cheapest(goods: GoodsInstance, i: int, j: int, bundle) -> list:
    """ties[i][j]: the goods g of ``bundle`` that can be i's cheapest tie
    toward j at any weights, as (maxima[i][g], maxima[j][g], g), lowest g
    first: the lowest good of least such ratio among those j values, and the
    lowest good worthless to both."""
    row_i, row_j = goods.maxima[i], goods.maxima[j]
    least = zero = None
    for g in sorted(bundle):
        a, b = row_i[g], row_j[g]
        if not a and b:
            # an owned good someone values is owned by someone who values it
            raise InvariantError("an owned good is worthless to its owner")
        if not a and zero is None:
            zero = (0, 0, g)
        elif a and b and (least is None or a * least[1] < least[0] * b):
            least = (a, b, g)
    return sorted(filter(None, (least, zero)), key=itemgetter(2))


def _min_ratio_candidate(run: _Run, dec: set[int]) -> WeightReduction | None:
    """Cheapest tie to create: argmin of (w_i u_i(g)) / (w_j u_j(g)) over
    group members i, outside players j and goods g in ``ties[i][j]``, built
    when missing, or None if all are infinite. With e_k = (num_k, den_k), it
    is (num_i den_j maxima[i][g], den_i num_j maxima[j][g])."""
    goods, e = run.goods, run.e
    outside = [j for j in range(goods.n) if j not in dec]
    best = None
    for i in sorted(dec):
        ties, (num, den) = run.ties[i], e[i]
        for j in outside:
            entries = ties.get(j)
            if entries is None:
                entries = ties[j] = _cheapest(goods, i, j, run.bundles[i])
            left, right = num * e[j][1], den * e[j][0]
            for a, b, g in entries:
                # a good worthless to both, (0, 0, g), is the degenerate ratio 1
                top, bottom = left * a or 1, right * b or 1
                if best is None or top * best[1] < best[0] * bottom:
                    best = (top, bottom, i, j, g)
    if best is None:
        return None
    top, bottom, i, j, g = best
    return WeightReduction(
        donor=i,
        recipient=j,
        good=g,
        factor=Fraction(top, bottom),
        degenerate=goods.maxima[j][g] == 0,
    )


def _transfer_round(run: _Run, seeds: set[int], needy: set[int]) -> Round | None:
    """One round: grow DEC from ``seeds`` by tie creation until a player in
    ``needy`` joins, then replay the recorded ties back to a seed, moving one
    good per link along a tie, which preserves welfare-maximality. None, with
    the weights already cut, when every remaining ratio is infinite."""
    dec = set(seeds)
    snapshots = [tuple(sorted(dec))]
    reductions: list[WeightReduction] = []
    while True:
        reduction = _min_ratio_candidate(run, dec)
        if reduction is None:
            return None
        up, down = reduction.factor.denominator, reduction.factor.numerator
        if up != down:
            for pair in map(run.e.__getitem__, dec):
                num, den = pair[0] * up, pair[1] * down
                d = gcd(num, den)
                pair[:] = num // d, den // d
        j = reduction.recipient
        dec.add(j)
        snapshots.append(tuple(sorted(dec)))
        reductions.append(reduction)
        if j in needy:
            break
    links = {r.recipient: r for r in reductions}
    transfers = []
    while j not in seeds:
        i, g = links[j].donor, links[j].good
        run.move(i, j, g)
        transfers.append(Transfer(donor=i, recipient=j, good=g))
        j = i
    return Round(tuple(snapshots), tuple(reductions), tuple(transfers))


def pps_po_allocate(
    goods: GoodsInstance,
) -> tuple[Allocation, WeightVector, TransferTrace]:
    """Allocate goods Pareto-optimally with every player at her pessimistic share.

    Returns the allocation, the final weight vector witnessing optimality
    (each good sits with a player maximizing w_i * u_i(g)), and the trace of
    every weight reduction and transfer. Players whose pessimistic share is
    zero are exempt from the quota; for the rest, any p = floor(m/n) goods are
    worth at least the sum of the p cheapest, so quota implies the share. That
    sum is positive exactly when fewer than p of her values are 0, so the
    quota set counts zeros and sorts no row.

    Never raises DegenerateInstance. A player below quota has fewer than p
    zeros, and every seed (a player above quota) holds at least p + 1 goods,
    so she values at least two goods of each seed, and each is a finite tie
    candidate: ``_cheapest`` raises InvariantError on a good its owner finds
    worthless. So ``_min_ratio_candidate`` never returns None here, and the
    raise below is only a guard.
    """
    n, p, run = goods.n, goods.m // goods.n, _Run(goods)
    quota_bound = [row.count(0) < p for row in goods.maxima]
    rounds: list[Round] = []

    while True:
        ls = {i for i in range(n) if quota_bound[i] and len(run.bundles[i]) < p}
        if not ls:
            break
        gt = {i for i in range(n) if len(run.bundles[i]) > p}
        if not gt:
            raise InvariantError("a player below quota forces another above it")
        round_ = _transfer_round(run, seeds=gt, needy=ls)
        if round_ is None:
            raise DegenerateInstance(
                "no chain of ties can route a good to a player below quota: "
                "every candidate transfer ratio is infinite"
            )
        rounds.append(round_)

    trace = TransferTrace(initial=run.initial, rounds=tuple(rounds))
    return allocation(run.bundles), run.weights(), trace


class Prop1SearchResult(NamedTuple):
    """Outcome of the proportionality-up-to-one-good search.

    The allocation is always weighted-welfare-maximizing for ``weights`` and
    hence Pareto optimal; ``certified_prop1`` reports whether it also passed
    the one-good proportionality audit. ``prop1_losses`` lists (round, player)
    events where a chain move cost a bystander the axiom.
    """

    allocation: Allocation
    weights: WeightVector
    certified_prop1: bool
    trace: TransferTrace
    prop1_losses: tuple[tuple[int, int], ...]


def prop1_po_search(goods: GoodsInstance) -> Prop1SearchResult:
    """Search for a Pareto-optimal allocation satisfying proportionality up to
    one good, by routing goods toward violating players along welfare ties."""
    n, rows, run = goods.n, goods.maxima, _Run(goods)
    bundles = run.bundles
    totals = [sum(row) for row in rows]
    held = [n * sum(map(row.__getitem__, b)) for row, b in zip(rows, bundles)]
    rounds: list[Round] = []
    losses: list[tuple[int, int]] = []

    def prop1_ok(i: int) -> bool:
        return held[i] + n * goods.best_unowned(i, bundles[i]) >= totals[i]

    ok = [prop1_ok(i) for i in range(n)]
    for round_index in range(SEARCH_ROUNDS):
        violators = {i for i in range(n) if not ok[i]}
        if not violators:
            break
        seeds = {i for i in range(n) if held[i] >= totals[i]}
        if not seeds:
            raise InvariantError("weighted-welfare maximality puts someone at her share")
        round_ = _transfer_round(run, seeds, needy=violators)
        if round_ is None:
            break  # stuck: no tie can reach any violating player
        rounds.append(round_)
        for t in round_.transfers:
            held[t.donor] -= n * rows[t.donor][t.good]
            held[t.recipient] += n * rows[t.recipient][t.good]
        for i in sorted({p for t in round_.transfers for p in (t.donor, t.recipient)}):
            ok[i] = prop1_ok(i)
            if not (ok[i] or i in violators):
                losses.append((round_index, i))

    return Prop1SearchResult(
        allocation=allocation(bundles),
        weights=run.weights(),
        certified_prop1=all(ok),
        trace=TransferTrace(initial=run.initial, rounds=tuple(rounds)),
        prop1_losses=tuple(losses),
    )

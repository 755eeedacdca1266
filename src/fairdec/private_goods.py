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

``prop1_po_search`` reuses the same tie-creation machinery as a heuristic for
proportionality up to one good: it seeds the group with players already at
their proportional share (never empty: under weighted-welfare maximality the
owner-maxima sum beats the weighted average, so someone is at quota), grows
it until a player violating the one-good relaxation joins, and routes a good
to her. Violators can reappear, so the search stops after ``SEARCH_ROUNDS``
rounds and reports whether the final allocation is certified. Its Prop1 test
is the audit's: the bundle's value plus ``audit.best_unowned_good``, the
first good of the player's ranking outside her bundle.

Both procedures read their thresholds from one ``shares.share_profile`` call.

Ratio conventions when creating ties (a candidate is a group member i, an
outside player j, and a good g of i): a zero for j with a positive value for
i is an infinite ratio and is never selected; a good worthless to everyone
gives the degenerate ratio 1 (flagged on the trace event). Candidate ties
take the lowest i, then j, then g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .audit import best_unowned_good
from .errors import DegenerateInstance, InvariantError
from .model import Allocation, GoodsInstance, bundle_utility
from .shares import share_profile

SEARCH_ROUNDS = 100

WeightVector = tuple[Fraction, ...]


@dataclass(frozen=True)
class WeightReduction:
    """One tie creation: DEC weights were divided by ``factor`` so that
    ``recipient`` ties with ``donor`` on ``good``."""

    donor: int
    recipient: int
    good: int
    factor: Fraction
    degenerate: bool


@dataclass(frozen=True)
class Transfer:
    donor: int
    recipient: int
    good: int


@dataclass(frozen=True)
class Round:
    """One outer iteration: DEC growth snapshots, tie events, then the chain of moves."""

    dec_snapshots: tuple[tuple[int, ...], ...]
    reductions: tuple[WeightReduction, ...]
    transfers: tuple[Transfer, ...]


@dataclass(frozen=True)
class TransferTrace:
    initial: Allocation
    rounds: tuple[Round, ...]


def weighted_welfare_allocation(
    goods: GoodsInstance, weights: Sequence[Fraction]
) -> Allocation:
    """Give each good to a player maximizing w_i * u_i(g); ties to the lowest index."""
    weights = tuple(weights)
    if len(weights) != goods.n or any(w <= 0 for w in weights):
        raise ValueError("weights must be positive, one per player")
    bundles = [set() for _ in range(goods.n)]
    for g in range(goods.m):
        best_i = 0
        best = weights[0] * goods.utilities[0][g]
        for i in range(1, goods.n):
            value = weights[i] * goods.utilities[i][g]
            if value > best:
                best, best_i = value, i
        bundles[best_i].add(g)
    return Allocation(bundles=tuple(frozenset(b) for b in bundles))


def _min_ratio_candidate(
    goods: GoodsInstance,
    weights: list[Fraction],
    bundles: list[set[int]],
    dec: set[int],
):
    """Cheapest tie to create: argmin over group goods and outside players of
    (w_i u_i(g)) / (w_j u_j(g)). Returns (ratio, i, j, g, degenerate) or None
    when every candidate ratio is infinite."""
    best = None
    for i in sorted(dec):
        for j in range(goods.n):
            if j in dec:
                continue
            for g in sorted(bundles[i]):
                numerator = weights[i] * goods.utilities[i][g]
                denominator = weights[j] * goods.utilities[j][g]
                if denominator == 0:
                    if numerator > 0:
                        continue  # infinite: j can never tie on this good
                    ratio, degenerate = Fraction(1), True
                else:
                    # an owned good someone values is owned by someone who
                    # values it, so the numerator is positive here
                    if numerator <= 0:
                        raise InvariantError("an owned good is worthless to its owner")
                    ratio, degenerate = numerator / denominator, False
                if best is None or ratio < best[0]:
                    best = (ratio, i, j, g, degenerate)
    return best


def _grow_until(
    goods: GoodsInstance,
    weights: list[Fraction],
    bundles: list[set[int]],
    dec: set[int],
    donors: dict[int, tuple[int, int]],
    stop: "callable",
):
    """Absorb outside players by tie creation until ``stop(j)`` on the newcomer.

    Returns (snapshots, reductions, last_added or None); None means every
    remaining candidate ratio was infinite (or nobody was left to absorb).
    """
    snapshots = [tuple(sorted(dec))]
    reductions: list[WeightReduction] = []
    while True:
        candidate = _min_ratio_candidate(goods, weights, bundles, dec)
        if candidate is None:
            return snapshots, reductions, None
        ratio, i, j, g, degenerate = candidate
        if ratio != 1:
            for member in dec:
                weights[member] /= ratio
        dec.add(j)
        donors[j] = (i, g)
        snapshots.append(tuple(sorted(dec)))
        reductions.append(
            WeightReduction(
                donor=i, recipient=j, good=g, factor=ratio, degenerate=degenerate
            )
        )
        if stop(j):
            return snapshots, reductions, j


def _chain_transfers(
    bundles: list[set[int]],
    donors: dict[int, tuple[int, int]],
    start: int,
    terminal: set[int],
) -> list[Transfer]:
    """Replay recorded ties backwards from ``start`` until a terminal player
    loses a good; every link moves one good along a tie, preserving welfare."""
    transfers = []
    j = start
    while j not in terminal:
        i, g = donors[j]
        bundles[i].remove(g)
        bundles[j].add(g)
        transfers.append(Transfer(donor=i, recipient=j, good=g))
        j = i
    return transfers


def pps_po_allocate(
    goods: GoodsInstance,
) -> tuple[Allocation, WeightVector, TransferTrace]:
    """Allocate goods Pareto-optimally with every player at her pessimistic share.

    Returns the allocation, the final weight vector witnessing optimality
    (each good sits with a player maximizing w_i * u_i(g)), and the trace of
    every weight reduction and transfer. Players whose pessimistic share is
    zero are exempt from the quota; for the rest, any p = floor(m/n) goods are
    worth at least the sum of the p cheapest, so quota implies the share.

    Raises DegenerateInstance if a player below quota can never be reached by
    tie creation (every candidate ratio infinite).
    """
    n = goods.n
    p = goods.m // n
    weights: list[Fraction] = [Fraction(1, n)] * n
    initial = weighted_welfare_allocation(goods, weights)
    bundles = [set(b) for b in initial.bundles]
    quota_bound = [share > 0 for share in share_profile(goods).pps]
    rounds: list[Round] = []

    while True:
        ls = {i for i in range(n) if quota_bound[i] and len(bundles[i]) < p}
        if not ls:
            break
        gt = {i for i in range(n) if len(bundles[i]) > p}
        if not gt:
            raise InvariantError("a player below quota forces another above it")
        dec = set(gt)
        donors: dict[int, tuple[int, int]] = {}
        snapshots, reductions, reached = _grow_until(
            goods, weights, bundles, dec, donors, stop=lambda j: j in ls
        )
        if reached is None:
            raise DegenerateInstance(
                "no chain of ties can route a good to a player below quota: "
                "every candidate transfer ratio is infinite"
            )
        transfers = _chain_transfers(bundles, donors, reached, terminal=gt)
        rounds.append(
            Round(
                dec_snapshots=tuple(snapshots),
                reductions=tuple(reductions),
                transfers=tuple(transfers),
            )
        )

    final = Allocation(bundles=tuple(frozenset(b) for b in bundles))
    return final, tuple(weights), TransferTrace(initial=initial, rounds=tuple(rounds))


@dataclass(frozen=True)
class Prop1SearchResult:
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
    n = goods.n
    weights: list[Fraction] = [Fraction(1, n)] * n
    initial = weighted_welfare_allocation(goods, weights)
    bundles = [set(b) for b in initial.bundles]
    prop = share_profile(goods).prop
    rounds: list[Round] = []
    losses: list[tuple[int, int]] = []

    def held(i: int) -> Fraction:
        return bundle_utility(goods, i, bundles[i])

    def prop1_ok(i: int) -> bool:
        return held(i) + best_unowned_good(goods, i, bundles[i]) >= prop[i]

    for round_index in range(SEARCH_ROUNDS):
        ok_before = [prop1_ok(i) for i in range(n)]
        if all(ok_before):
            break
        seeds = {i for i in range(n) if held(i) >= prop[i]}
        if not seeds:
            raise InvariantError(
                "weighted-welfare maximality puts someone at her share"
            )
        dec = set(seeds)
        donors: dict[int, tuple[int, int]] = {}
        snapshots, reductions, violator = _grow_until(
            goods, weights, bundles, dec, donors, stop=lambda j: not ok_before[j]
        )
        if violator is None:
            break  # stuck: no tie can reach any violating player
        transfers = _chain_transfers(bundles, donors, violator, terminal=seeds)
        rounds.append(
            Round(
                dec_snapshots=tuple(snapshots),
                reductions=tuple(reductions),
                transfers=tuple(transfers),
            )
        )
        for i in range(n):
            if ok_before[i] and not prop1_ok(i):
                losses.append((round_index, i))

    return Prop1SearchResult(
        allocation=Allocation(bundles=tuple(frozenset(b) for b in bundles)),
        weights=tuple(weights),
        certified_prop1=all(prop1_ok(i) for i in range(n)),
        trace=TransferTrace(initial=initial, rounds=tuple(rounds)),
        prop1_losses=tuple(losses),
    )

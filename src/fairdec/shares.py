"""Share-based fairness thresholds for a single player.

Every share is defined from the player's per-issue maxima u^t_max(i), the best
she could get on each issue if she decided it alone. With u^(1) >= u^(2) >= ...
the non-ascending rearrangement of those maxima, m issues, n players and
p = floor(m / n):

- proportional share: (1/n) * sum_t u^t_max(i)
- round robin share: sum_{k=1..p} u^(k*n), the utility a player picking last
  in every round is guaranteed when issues she does not decide give her zero
  (0 when m < n)
- pessimistic proportional share: sum of the p smallest maxima,
  u^(m-p+1) + ... + u^(m)
- maximin share: the best min-bundle value over all partitions of the issues
  into n bundles, where a bundle's value is the sum of its per-issue maxima
  (0 when m < n, since some bundle must stay empty)

The chain Prop >= MMS >= RRS >= PPS holds for every player. All functions
accept a GoodsInstance as well: for private goods, the per-issue maxima of the
public embedding are exactly the player's per-good values, so both views give
the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import CapExceeded
from .model import DecisionInstance, GoodsInstance, scale_to_int, sorted_max_utilities

DEFAULT_MMS_CAP = 10**6


def _maxima(instance: DecisionInstance | GoodsInstance, player: int) -> list[Fraction]:
    if isinstance(instance, GoodsInstance):
        return sorted(instance.utilities[player], reverse=True)
    return sorted_max_utilities(instance, player)


def proportional_share(
    instance: DecisionInstance | GoodsInstance, player: int
) -> Fraction:
    return Fraction(sum(_maxima(instance, player)), instance.n)


def round_robin_share(
    instance: DecisionInstance | GoodsInstance, player: int
) -> Fraction:
    ranked = _maxima(instance, player)
    n = instance.n
    p = len(ranked) // n
    return sum((ranked[k * n - 1] for k in range(1, p + 1)), Fraction(0))


def pessimistic_share(
    instance: DecisionInstance | GoodsInstance, player: int
) -> Fraction:
    ranked = _maxima(instance, player)
    p = len(ranked) // instance.n
    if p == 0:
        return Fraction(0)
    return sum(ranked[len(ranked) - p :], Fraction(0))


def _partitions_up_to(m: int, n: int) -> int:
    """Number of set partitions of m items into at most n non-empty blocks."""
    # Stirling numbers of the second kind, S[j] = S(row, j), built row by row.
    stirling = [0] * (n + 1)
    stirling[0] = 1
    for _ in range(m):
        new = [0] * (n + 1)
        for j in range(1, n + 1):
            new[j] = stirling[j - 1] + j * stirling[j]
        stirling = new
    return sum(stirling[1:])


def maximin_share(
    instance: DecisionInstance | GoodsInstance,
    player: int,
    cap: int = DEFAULT_MMS_CAP,
) -> Fraction:
    """Brute-force maximin share over all partitions into n bundles.

    Enumerates set partitions of the issues into at most n unlabeled blocks;
    only partitions using exactly n blocks can beat zero. Raises CapExceeded
    (with the exact partition count) when the space is larger than ``cap``.
    """
    ranked = _maxima(instance, player)
    n = instance.n
    m = len(ranked)
    if m < n:
        return Fraction(0)
    space = _partitions_up_to(m, n)
    if space > cap:
        raise CapExceeded(space, cap, what="maximin-share partition enumeration")

    # bundle value only depends on the multiset of maxima; summing them as
    # integers over one common denominator keeps the result exact
    scale = lcm(*(v.denominator for v in ranked))
    values = scale_to_int(ranked, scale)
    best = 0
    sums = [0] * n

    def assign(t: int, used: int) -> None:
        nonlocal best
        if t == m:
            if used == n:
                worst = min(sums[:n])
                if worst > best:
                    best = worst
            return
        # place item t into an existing block, or open one new block
        limit = min(used + 1, n)
        for b in range(limit):
            sums[b] += values[t]
            assign(t + 1, max(used, b + 1))
            sums[b] -= values[t]

    assign(0, 0)
    return Fraction(best, scale)


@dataclass(frozen=True)
class ShareProfile:
    """All share thresholds for every player of one instance."""

    prop: tuple[Fraction, ...]
    rrs: tuple[Fraction, ...]
    pps: tuple[Fraction, ...]
    mms: tuple[Fraction, ...] | None = None


def share_profile(
    instance: DecisionInstance | GoodsInstance,
    with_mms: bool = False,
    mms_cap: int = DEFAULT_MMS_CAP,
) -> ShareProfile:
    """Compute Prop/RRS/PPS (and optionally MMS) for every player."""
    players = range(instance.n)
    return ShareProfile(
        prop=tuple(proportional_share(instance, i) for i in players),
        rrs=tuple(round_robin_share(instance, i) for i in players),
        pps=tuple(pessimistic_share(instance, i) for i in players),
        mms=(
            tuple(maximin_share(instance, i, cap=mms_cap) for i in players)
            if with_mms
            else None
        ),
    )

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

The chain Prop >= MMS >= RRS >= PPS holds for every player. Every share
reads the player's maxima in the order of her ranking, both tables computed
once per instance by ``model``; ``share_profile`` returns all of them for
every player, and the per-player functions read the same helpers. All of
them accept a GoodsInstance as well: for private goods, the per-issue maxima
of the public embedding are exactly the player's per-good values, so both
views give the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import CapExceeded
from .model import DecisionInstance, GoodsInstance, scale_to_int

DEFAULT_MMS_CAP = 10**6

Instance = DecisionInstance | GoodsInstance


def _maxima(instance: Instance, player: int) -> list[Fraction]:
    row = instance.maxima[player]
    return [row[t] for t in instance.ranking[player]]


def _prop(ranked: list[Fraction], n: int) -> Fraction:
    return Fraction(sum(ranked), n)


def _rrs(ranked: list[Fraction], n: int) -> Fraction:
    # positions n, 2n, ..., p*n of the ranking (1-based)
    return sum(ranked[n - 1 :: n], Fraction(0))


def _pps(ranked: list[Fraction], n: int) -> Fraction:
    return sum(ranked[len(ranked) - len(ranked) // n :], Fraction(0))


def proportional_share(instance: Instance, player: int) -> Fraction:
    return _prop(_maxima(instance, player), instance.n)


def round_robin_share(instance: Instance, player: int) -> Fraction:
    return _rrs(_maxima(instance, player), instance.n)


def pessimistic_share(instance: Instance, player: int) -> Fraction:
    return _pps(_maxima(instance, player), instance.n)


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
    instance: Instance, player: int, cap: int = DEFAULT_MMS_CAP
) -> Fraction:
    """Brute-force maximin share over all partitions into n bundles.

    Enumerates set partitions of the issues into at most n unlabeled blocks;
    only partitions using exactly n blocks can beat zero. Raises CapExceeded
    (with the exact partition count) when the space is larger than ``cap``.
    """
    return _mms(_maxima(instance, player), instance.n, cap)


def _mms(ranked: list[Fraction], n: int, cap: int) -> Fraction:
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
    # Depth-first over restricted growth strings on an explicit stack: item t
    # sits in block[t] (-1 before its first placement) and may go into any of
    # the opened[t] blocks its predecessors opened, or open the next one.
    block = [-1] * m
    opened = [0] * (m + 1)
    t = 0
    while t >= 0:
        if t == m:
            if opened[m] == n:
                worst = min(sums)
                if worst > best:
                    best = worst
            t -= 1
            continue
        b = block[t]
        if b >= 0:
            sums[b] -= values[t]
        b += 1
        if b <= opened[t] and b < n:
            sums[b] += values[t]
            block[t] = b
            opened[t + 1] = opened[t] if b < opened[t] else b + 1
            t += 1
        else:
            block[t] = -1
            t -= 1
    return Fraction(best, scale)


@dataclass(frozen=True)
class ShareProfile:
    """All share thresholds for every player of one instance."""

    prop: tuple[Fraction, ...]
    rrs: tuple[Fraction, ...]
    pps: tuple[Fraction, ...]
    mms: tuple[Fraction, ...] | None = None


def share_profile(
    instance: Instance, with_mms: bool = False, mms_cap: int = DEFAULT_MMS_CAP
) -> ShareProfile:
    """Compute Prop/RRS/PPS (and optionally MMS) for every player from her
    ranked maxima."""
    n = instance.n
    ranked = [_maxima(instance, i) for i in range(n)]
    return ShareProfile(
        prop=tuple(_prop(r, n) for r in ranked),
        rrs=tuple(_rrs(r, n) for r in ranked),
        pps=tuple(_pps(r, n) for r in ranked),
        mms=tuple(_mms(r, n, mms_cap) for r in ranked) if with_mms else None,
    )

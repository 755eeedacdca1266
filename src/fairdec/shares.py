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
  (0 when m < n, since some bundle must stay empty); found by an exact
  branch and bound over the bundle sums, not by listing the partitions

The chain Prop >= MMS >= RRS >= PPS holds for every player. Every share
sums the player's scaled maxima (``model``'s integer view) sorted by value,
largest first, the order of her ``ranking``, which no share or audit builds;
``share_sums`` returns those integers, ``share_profile`` divides
them by her scale (and Prop's by n), and the per-player functions read the
same helpers. All take either kind of instance (``model.Instance``): a goods
instance's maxima are its per-good values, exactly the per-issue maxima of
its public embedding, so both give the same numbers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import CapExceeded
from .model import Instance

DEFAULT_MMS_CAP = 10**6


def _share(instance: Instance, player: int, rule: Callable, *args) -> Fraction:
    """``rule`` on the player's ranked scaled maxima, divided by her scale."""
    ranked = sorted(instance.maxima[player], reverse=True)
    return Fraction(rule(ranked, instance.n, *args), instance.scales[player])


def _rrs(ranked: list[int], n: int) -> int:
    # positions n, 2n, ..., p*n of the ranking (1-based)
    return sum(ranked[n - 1 :: n])


def _pps(ranked: list[int], n: int) -> int:
    return sum(ranked[len(ranked) - len(ranked) // n :])


def proportional_share(instance: Instance, player: int) -> Fraction:
    return Fraction(sum(instance.maxima[player]), instance.n * instance.scales[player])


def round_robin_share(instance: Instance, player: int) -> Fraction:
    return _share(instance, player, _rrs)


def pessimistic_share(instance: Instance, player: int) -> Fraction:
    return _share(instance, player, _pps)


def _partitions_up_to(m: int, n: int) -> int:
    """Number of set partitions of m items into at most n non-empty blocks."""
    # Stirling numbers of the second kind, S[j] = S(row, j), built row by row.
    stirling = [1] + [0] * n
    for _ in range(m):
        stirling = [0] + [stirling[j - 1] + j * stirling[j] for j in range(1, n + 1)]
    return sum(stirling[1:])


def maximin_share(
    instance: Instance, player: int, cap: int = DEFAULT_MMS_CAP
) -> Fraction:
    """Exact maximin share: the best smallest bundle over all partitions of
    the issues into n bundles.

    A depth-first branch and bound deals the ranked maxima, largest first, to
    n bundles. It starts from the greedy split, stops once a split reaches
    the mean, cuts a branch whose bundles cannot all beat the best split even
    if the rest were spread ideally, and tries one bundle per distinct sum.
    Raises CapExceeded (with the exact number of partitions into at most n
    blocks) when that number is larger than ``cap``, before any search.
    """
    return _share(instance, player, _mms, cap)


def _mms(values: list[int], n: int, cap: int) -> int:
    m = len(values)
    if m < n:
        return 0
    space = _partitions_up_to(m, n)
    if space > cap:
        raise CapExceeded(space, cap, what="maximin-share partition enumeration")

    # rest[t]: the value of items t, t+1, ... still to place
    rest = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        rest[t] = rest[t + 1] + values[t]
    goal = rest[0] // n  # the smallest block never exceeds the mean
    sums = [0] * n
    for value in values:  # greedy (LPT) split: each item to the lowest block
        sums[sums.index(min(sums))] += value
    best = min(sums)
    # Depth-first on an explicit stack: item t sits in block[t] (-1 while not
    # placed) and todo[t] holds the blocks it has yet to try, one per distinct
    # current sum (blocks of equal sum are interchangeable), lowest sum last.
    sums = [0] * n
    block = [-1] * m
    todo = [[0]] + [[] for _ in range(m - 1)]
    t = 0
    while t >= 0 and best < goal:
        if block[t] >= 0:
            sums[block[t]] -= values[t]
        if not todo[t]:
            block[t] = -1
            t -= 1
            continue
        b = block[t] = todo[t].pop()
        sums[b] += values[t]
        order = sorted(range(n), key=sums.__getitem__)
        # water-filling: the k lowest blocks end no higher than their sum
        # plus everything left, spread evenly over them
        level = rest[t + 1]
        for k, j in enumerate(order, 1):
            level += sums[j]
            if level // k <= best:
                break
        else:
            if t + 1 == m:
                best = sums[order[0]]
            else:
                t += 1
                todo[t] = list({sums[j]: j for j in reversed(order)}.values())
    return best


def share_sums(
    instance: Instance, with_mms: bool = False, mms_cap: int = DEFAULT_MMS_CAP
) -> list[tuple[int, int, int, int | None]]:
    """Each player's row sum, RRS, PPS and (optionally) MMS on her scaled
    maxima, sorted once for all rules: her Prop times n and her scale, and
    the other shares times her scale."""
    n, sums = instance.n, []
    for row in instance.maxima:
        ranked = sorted(row, reverse=True)
        mms = _mms(ranked, n, mms_cap) if with_mms else None
        sums.append((sum(row), _rrs(ranked, n), _pps(ranked, n), mms))
    return sums


class ShareProfile(NamedTuple):
    """All share thresholds for every player of one instance."""

    prop: tuple[Fraction, ...]
    rrs: tuple[Fraction, ...]
    pps: tuple[Fraction, ...]
    mms: tuple[Fraction, ...] | None = None


def share_profile(
    instance: Instance, with_mms: bool = False, mms_cap: int = DEFAULT_MMS_CAP
) -> ShareProfile:
    """Prop/RRS/PPS (and optionally MMS) for every player: her
    ``share_sums`` over her scale, and over n as well for Prop."""
    scales = instance.scales
    total, rrs, pps, mms = zip(*share_sums(instance, with_mms, mms_cap))
    return ShareProfile(
        prop=tuple(Fraction(t, instance.n * s) for t, s in zip(total, scales)),
        rrs=tuple(map(Fraction, rrs, scales)),
        pps=tuple(map(Fraction, pps, scales)),
        mms=tuple(map(Fraction, mms, scales)) if with_mms else None,
    )


def leximin_normalization(instance: Instance) -> tuple[Fraction | None, ...]:
    """Per-player leximin divisor: RRS when positive, else Prop, else excluded."""
    shares = share_profile(instance)
    return tuple(
        rrs if rrs > 0 else prop if prop > 0 else None
        for rrs, prop in zip(shares.rrs, shares.prop)
    )

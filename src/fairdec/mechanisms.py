"""Decision mechanisms: round robin, normalized leximin, and maximum Nash welfare.

Leximin, both phases of maximum Nash welfare and the Pareto check behind
``audit.check_pareto_optimal`` run on one kernel, ``_search``: a depth-first
search on an explicit stack that visits choice vectors in lexicographic
order, so ties go to the lexicographically smallest choice vector and the
Pareto witness is the first one full enumeration meets, exactly as in
``oracles``. It adds integers: each player's utilities are multiplied by the
lcm of her denominators, and for leximin her scale also folds in 1/divisor
over one common denominator. A positive per-player scale preserves supports,
Nash argmaxes over a fixed support and Pareto dominance, and a common one
preserves the leximin order. The scaling pass rejects negative utilities and
ragged or empty matrices, which the bounds below do not cover.

A player's utility in a subtree is at most her partial utility plus her
per-issue maxima over the undecided issues. Each objective's key (sorted
vector, product, support by size) cannot drop when the vector rises pointwise,
so a bound that loses to the incumbent, or ties it (later outcomes lose the
tie-break), rules out the subtree; once an outcome covers every player, the
support phase prunes everything left. The Pareto check prunes each subtree
where some player can no longer reach her audited utility.
"""

from __future__ import annotations

from math import lcm, prod
from operator import add, ge
from typing import Any, Callable, Iterable, Sequence

from .model import (
    DecisionInstance,
    MechanismResult,
    Outcome,
    Pick,
    require_valid,
    scale_to_int,
    utility_vector,
)
from .oracles import DEFAULT_ENUM_CAP, leximin_normalization, outcome_space_size
from .errors import CapExceeded


def _check_order(n: int, order: Sequence[int] | None) -> tuple[int, ...]:
    if order is None:
        return tuple(range(n))
    order = tuple(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}, got {order!r}")
    return order


def round_robin(
    instance: DecisionInstance, order: Sequence[int] | None = None
) -> MechanismResult:
    """Let players take turns deciding whole issues.

    Players move in the given order, cyclically, until every issue is decided.
    On her turn a player takes the first undecided issue of her ranking, read
    from a cursor that only moves forward, and fixes the lowest alternative
    that reaches her maximum there.
    """
    order = _check_order(instance.n, order)
    choices: list[int | None] = [None] * instance.m
    cursors = [0] * instance.n
    picks = []
    for turn in range(instance.m):
        player = order[turn % instance.n]
        ranking = instance.ranking[player]
        while choices[ranking[cursors[player]]] is not None:
            cursors[player] += 1
        issue = ranking[cursors[player]]
        row = instance.issues[issue].utilities[player]
        alternative = row.index(instance.maxima[player][issue])
        choices[issue] = alternative
        picks.append(Pick(player=player, issue=issue, alternative=alternative))
    outcome = Outcome(choices=tuple(choices))
    return MechanismResult(
        mechanism="round-robin",
        outcome=outcome,
        utilities=utility_vector(instance, outcome),
        picks=tuple(picks),
    )


Vector = tuple[int, ...]


def _player_scales(instance: DecisionInstance, cap: int) -> list[int]:
    """Per player, the lcm of her utilities' denominators. Raises
    InstanceFormatError for instances the search bounds do not cover, then
    CapExceeded when the outcome space is larger than ``cap``."""
    n = instance.n
    if not instance.issues:
        require_valid(instance)
    scales = [1] * n
    for issue in instance.issues:
        k = issue.k
        if k < 1 or len(issue.utilities) != n:
            require_valid(instance)
        for i, row in enumerate(issue.utilities):
            if len(row) != k or min(row) < 0:
                require_valid(instance)
            scales[i] = lcm(scales[i], *(v.denominator for v in row))
    size = outcome_space_size(instance)
    if size > cap:
        raise CapExceeded(size, cap, what="outcome enumeration")
    return scales


def _search(
    instance: DecisionInstance,
    scales: dict[int, int],
    prune: Callable[[Vector, Vector], bool],
    leaf: Callable[[Vector, list[int]], bool | None],
) -> tuple[int, ...] | None:
    """Search the outcome tree depth first in lexicographic choice order, on
    the utilities of the players in ``scales``, each times her scale.

    ``prune(vector, suffix)`` sees each node below the root with its partial
    utility vector and the most each player can still add; True skips the
    subtree. ``leaf(vector, choices)`` sees each complete outcome not pruned
    (copy ``choices`` to keep it); True ends the search and returns choices.
    """
    tree = []  # tree[t][a]: the scaled utilities of alternative a of issue t
    for issue in instance.issues:
        rows = [scale_to_int(issue.utilities[i], s) for i, s in scales.items()]
        tree.append([tuple(row[a] for row in rows) for a in range(issue.k)])
    m = len(tree)
    suffix = [(0,) * len(scales)] * (m + 1)
    for t in range(m - 1, -1, -1):
        suffix[t] = tuple(map(add, suffix[t + 1], map(max, zip(*tree[t]))))
    vectors = [suffix[m]] * m  # vectors[t]: the utilities of choices[:t]
    choices = [-1] * m
    t = 0
    while t >= 0:
        a = choices[t] + 1
        if a == len(tree[t]):
            choices[t] = -1
            t -= 1
            continue
        choices[t] = a
        vector = tuple(map(add, vectors[t], tree[t][a]))
        if prune(vector, suffix[t + 1]):
            continue
        if t + 1 == m:
            if leaf(vector, choices):
                return tuple(choices)
        else:
            t += 1
            vectors[t] = vector
    return None


def _maximize(
    instance: DecisionInstance,
    scales: dict[int, int],
    key: Callable[[Iterable[int]], Any],
) -> Outcome:
    """The lexicographically first outcome whose scaled utility vector has the
    greatest ``key``; raising a vector pointwise must never lower its key."""
    best = None
    best_choices: tuple[int, ...] = ()

    def prune(vector: Vector, suffix: Vector) -> bool:
        return best is not None and key(map(add, vector, suffix)) <= best

    def leaf(vector: Vector, choices: list[int]) -> None:
        nonlocal best, best_choices
        best, best_choices = key(vector), tuple(choices)

    _search(instance, scales, prune, leaf)
    return Outcome(choices=best_choices)


def _support_key(vector: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Ranks supports by size, then lexicographically smallest first."""
    negated = tuple(-i for i, u in enumerate(vector) if u)
    return len(negated), negated


def leximin(
    instance: DecisionInstance, cap: int = DEFAULT_ENUM_CAP
) -> MechanismResult:
    """Maximize the sorted vector of normalized utilities lexicographically.

    Utilities are divided by the player's round robin share (falling back to
    the proportional share when RRS is zero); players with both shares zero
    do not appear in the objective. The reported utilities are raw.
    """
    scales = _player_scales(instance, cap)
    divisors = leximin_normalization(instance)
    inverse = {i: 1 / (d * scales[i]) for i, d in enumerate(divisors) if d}
    common = lcm(*(w.denominator for w in inverse.values()))
    weights = {
        i: scales[i] * w.numerator * (common // w.denominator)
        for i, w in inverse.items()
    }
    outcome = _maximize(instance, weights, sorted)
    return MechanismResult(
        mechanism="leximin",
        outcome=outcome,
        utilities=utility_vector(instance, outcome),
        normalization=divisors,
    )


def max_nash_welfare(
    instance: DecisionInstance, cap: int = DEFAULT_ENUM_CAP
) -> MechanismResult:
    """Maximize the product of utilities over the best achievable support set.

    Phase one finds S, the largest set of players that can simultaneously hold
    positive utility (ties: lexicographically smallest sorted player tuple).
    Phase two maximizes the exact rational product of the utilities of S;
    every maximizer gives all of S positive utility, so the outcome covers S.
    """
    scales = _player_scales(instance, cap)
    covering = _maximize(instance, dict(enumerate(scales)), _support_key)
    utilities = utility_vector(instance, covering)
    support = tuple(i for i, u in enumerate(utilities) if u)
    outcome = _maximize(instance, {i: scales[i] for i in support}, prod)
    return MechanismResult(
        mechanism="mnw",
        outcome=outcome,
        utilities=utility_vector(instance, outcome),
        support=support,
    )


def pareto_improvement(
    instance: DecisionInstance, outcome: Outcome, cap: int = DEFAULT_ENUM_CAP
) -> Outcome | None:
    """The lexicographically first outcome that Pareto dominates ``outcome``,
    or None; raises CapExceeded when the outcome space exceeds ``cap``."""
    scales = _player_scales(instance, cap)
    base = tuple(
        u.numerator * (s // u.denominator)
        for u, s in zip(utility_vector(instance, outcome), scales)
    )
    stop = _search(
        instance,
        dict(enumerate(scales)),
        lambda vector, suffix: not all(map(ge, map(add, vector, suffix), base)),
        lambda vector, choices: vector != base,
    )
    return None if stop is None else Outcome(choices=stop)

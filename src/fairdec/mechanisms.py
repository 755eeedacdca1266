"""Decision mechanisms: round robin, normalized leximin, and maximum Nash welfare.

Leximin, both phases of maximum Nash welfare and the Pareto check behind
``audit.check_pareto_optimal`` run on one kernel, ``_search``: a depth-first
search on an explicit stack that visits choice vectors in lexicographic
order, so ties go to the lexicographically smallest choice vector and the
Pareto witness is the first one full enumeration meets, exactly as in
``oracles``. It adds integers: the instance's scaled utilities (each player's
times the lcm of her denominators), times a per-player integer factor, 1 but
for leximin, where it folds in 1/divisor over one common denominator. A
positive per-player scale preserves supports, Nash argmaxes over a fixed
support and Pareto dominance, and a common one preserves the leximin order.
The bounds below assume non-negative utilities, which every instance
guarantees when it is built.

Every mechanism here takes either kind of instance and reads only its
integer view. A GoodsInstance's view is that of its public embedding, so a
goods result is the one found on ``goods_to_public(goods)``, ties included:
a good worth 0 to the player picking it goes to alternative 0. Round robin
takes each pick from the instance's ``pick``, which a goods instance reads
off its own matrix, so it never builds the embedding.

A player's utility in a subtree is at most her partial utility plus her
per-issue maxima over the undecided issues. Each objective's key (sorted
vector, product, support by size) cannot drop when the vector rises pointwise,
so a bound that loses to the incumbent, or ties it (later outcomes lose the
tie-break), rules out the subtree; once an outcome covers every player, the
support phase prunes everything left. The Pareto check prunes each subtree
where some player can no longer reach her audited utility.

Every search reads the instance's ``search_view``, built once: each issue's
alternatives less those pointwise at most an earlier one. Swapping in the
earlier one raises no key, keeps a Pareto improvement one and comes first in
lexicographic order, and positive factors on any players keep dominance, so
ties and the first witness are those of the full tree in every search.
"""

from __future__ import annotations

from math import lcm, prod
from operator import add, ge, getitem
from typing import Any, Callable, Iterable, Sequence

from .errors import DEFAULT_ENUM_CAP, CapExceeded
from .model import Instance, MechanismResult, Outcome, Pick, utility_vector
from .shares import leximin_normalization


def round_robin(
    instance: Instance, order: Sequence[int] | None = None
) -> MechanismResult:
    """Let players take turns deciding whole issues.

    Players move in the given order, cyclically, until every issue is decided.
    On her turn a player takes the first undecided issue of her ranking, read
    from a cursor that only moves forward, and fixes the lowest alternative
    that reaches her maximum there.
    """
    n = instance.n
    order = tuple(range(n)) if order is None else tuple(order)
    if not {*map(type, order)} <= {int} or sorted(order) != list(range(n)):
        raise ValueError(f"order must be a permutation of 0..{n - 1}, got {order!r}")
    choices: list[int | None] = [None] * instance.m
    cursors = [0] * n
    picks = []
    for turn in range(instance.m):
        player = order[turn % n]
        ranking = instance.ranking[player]
        while choices[ranking[cursors[player]]] is not None:
            cursors[player] += 1
        issue = ranking[cursors[player]]
        alternative = instance.pick(player, issue)
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


def _check_cap(instance: Instance, cap: int) -> None:
    size = prod(len(rows[0]) for rows in instance.scaled)
    if size > cap:
        raise CapExceeded(size, cap, what="outcome enumeration")


def _search(
    instance: Instance,
    factors: dict[int, int],
    prune: Callable[[Vector, Vector], bool],
    leaf: Callable[[Vector, tuple[int, ...]], bool | None],
) -> tuple[int, ...] | None:
    """Search the outcome tree depth first in lexicographic choice order, on
    the scaled utilities of the players in ``factors``, each times her factor,
    over the alternatives of the instance's search view.

    ``prune(vector, suffix)`` sees each node below the root with its partial
    utility vector and the most each player can still add; True skips the
    subtree. ``leaf(vector, choices)`` sees each complete outcome not pruned,
    as its tuple of alternatives; True ends the search and returns choices.
    """
    kept, tree, suffix = instance.search_view
    if factors != dict.fromkeys(range(instance.n), 1):
        items = factors.items()
        tree = [[tuple(v[i] * f for i, f in items) for v in at] for at in tree]
        suffix = [tuple(s[i] * f for i, f in items) for s in suffix]
    m = len(tree)  # tree[t][a]: the utilities of alternative kept[t][a] of issue t
    vectors = [suffix[m]] * m  # vectors[t]: the utilities of choices[:t]
    choices = [-1] * m  # positions in tree, read as alternatives at a leaf
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
            picked = tuple(map(getitem, kept, choices))
            if leaf(vector, picked):
                return picked
        else:
            t += 1
            vectors[t] = vector
    return None


def _maximize(
    instance: Instance,
    factors: dict[int, int],
    key: Callable[[Iterable[int]], Any],
) -> Outcome:
    """The lexicographically first outcome whose weighted utility vector has
    the greatest ``key``; raising a vector pointwise must never lower its key."""
    best = None
    best_choices: tuple[int, ...] = ()

    def prune(vector: Vector, suffix: Vector) -> bool:
        return best is not None and key(map(add, vector, suffix)) <= best

    def leaf(vector: Vector, choices: tuple[int, ...]) -> None:
        nonlocal best, best_choices
        best, best_choices = key(vector), choices

    _search(instance, factors, prune, leaf)
    return Outcome(choices=best_choices)


def _support_key(vector: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Ranks supports by size, then lexicographically smallest first."""
    negated = tuple(-i for i, u in enumerate(vector) if u)
    return len(negated), negated


def leximin(
    instance: Instance, cap: int = DEFAULT_ENUM_CAP
) -> MechanismResult:
    """Maximize the sorted vector of normalized utilities lexicographically.

    Utilities are divided by the player's round robin share (falling back to
    the proportional share when RRS is zero); players with both shares zero
    do not appear in the objective. The reported utilities are raw.
    """
    _check_cap(instance, cap)
    divisors = leximin_normalization(instance)
    inverse = {
        i: 1 / (d * instance.scales[i]) for i, d in enumerate(divisors) if d
    }
    # common is a multiple of every denominator, so each factor is an int
    common = lcm(*(w.denominator for w in inverse.values()))
    factors = {i: int(w * common) for i, w in inverse.items()}
    outcome = _maximize(instance, factors, sorted)
    return MechanismResult(
        mechanism="leximin",
        outcome=outcome,
        utilities=utility_vector(instance, outcome),
        normalization=divisors,
    )


def max_nash_welfare(
    instance: Instance, cap: int = DEFAULT_ENUM_CAP
) -> MechanismResult:
    """Maximize the product of utilities over the best achievable support set.

    Phase one finds S, the largest set of players that can simultaneously hold
    positive utility (ties: lexicographically smallest sorted player tuple).
    Phase two maximizes the exact rational product of the utilities of S;
    every maximizer gives all of S positive utility, so the outcome covers S.
    """
    _check_cap(instance, cap)
    covering = _maximize(instance, dict.fromkeys(range(instance.n), 1), _support_key)
    utilities = utility_vector(instance, covering)
    support = tuple(i for i, u in enumerate(utilities) if u)
    outcome = _maximize(instance, dict.fromkeys(support, 1), prod)
    return MechanismResult(
        mechanism="mnw",
        outcome=outcome,
        utilities=utility_vector(instance, outcome),
        support=support,
    )


def pareto_improvement(
    instance: Instance, outcome: Outcome, cap: int = DEFAULT_ENUM_CAP
) -> Outcome | None:
    """The lexicographically first outcome that Pareto dominates ``outcome``,
    or None; raises CapExceeded when the outcome space exceeds ``cap``."""
    _check_cap(instance, cap)
    base = tuple(instance.scaled_utility(i, outcome.choices) for i in range(instance.n))
    stop = _search(
        instance,
        dict.fromkeys(range(instance.n), 1),
        lambda vector, suffix: not all(map(ge, map(add, vector, suffix), base)),
        lambda vector, choices: vector != base,
    )
    return None if stop is None else Outcome(choices=stop)

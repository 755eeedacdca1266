"""Brute-force reference optimizers.

Everything here is plain lexicographic enumeration in Fraction arithmetic,
with no pruning and no shortcuts. The mechanisms module reproduces these
results with search-tree pruning; tests require both paths to agree bit for
bit, so this module stays obviously correct and imports nothing of the
package but the model, the shares and the errors.

The tie rule, shared with the mechanisms: each objective ranks outcomes by a
key on their utility vectors, and the first outcome in lexicographic
choice-vector order wins; a later one replaces it only with a strictly
greater key. The Nash key is the size of the support (the players with
positive utility), then the lexicographically smallest support, then the
product over it. An outcome that misses a player of the best support has
product 0 over it, so this is the largest product over that support.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod
from typing import Any, Callable, Iterator, Sequence

from .errors import DEFAULT_ENUM_CAP, CapExceeded
from .model import DecisionInstance, MechanismResult, Outcome, utility_vector
from .shares import leximin_normalization

Objective = str  # "nash" | "leximin" | "utilitarian"


def outcome_space_size(instance: DecisionInstance) -> int:
    return prod(issue.k for issue in instance.issues)


def enumerate_outcomes(
    instance: DecisionInstance, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[Outcome]:
    """Yield every outcome in lexicographic choice-vector order.

    Raises CapExceeded (carrying the exact product of the k_t) when the
    outcome space is larger than ``cap``.
    """
    size = outcome_space_size(instance)
    if size > cap:
        raise CapExceeded(size, cap, what="outcome enumeration")
    ranges = [range(issue.k) for issue in instance.issues]
    for choices in itertools.product(*ranges):
        yield Outcome(choices=choices)


def _support(utilities: Sequence[Fraction]) -> tuple[int, ...]:
    return tuple(i for i, u in enumerate(utilities) if u > 0)


def _first_best(
    instance: DecisionInstance, cap: int, key: Callable[[tuple[Fraction, ...]], Any]
) -> tuple[Outcome, tuple[Fraction, ...]]:
    """The first outcome in lexicographic order whose key no later outcome
    strictly exceeds, with its utility vector."""
    best = None
    for outcome in enumerate_outcomes(instance, cap):
        utils = utility_vector(instance, outcome)
        value = key(utils)
        if best is None or value > best[0]:
            best = value, outcome, utils
    return best[1], best[2]


def _nash_key(utils: tuple[Fraction, ...]) -> tuple:
    """Support size, then the lexicographically smallest support (negated, so
    it ranks highest), then the product over it."""
    support = _support(utils)
    return len(support), [-i for i in support], prod(utils[i] for i in support)


def exact_optimum(
    instance: DecisionInstance,
    objective: Objective,
    cap: int = DEFAULT_ENUM_CAP,
) -> MechanismResult:
    """Optimize an objective by full enumeration.

    Objectives:
        "utilitarian": maximize the utility sum.
        "nash": maximize the product of utilities over the largest set of
            players who can all get positive utility (``support``).
        "leximin": maximize the ascending sorted vector of normalized utilities
            lexicographically; players whose RRS and Prop are both zero are
            left out of the objective.
    """
    divisors = None
    if objective == "utilitarian":
        key = sum
    elif objective == "nash":
        key = _nash_key
    elif objective == "leximin":
        divisors = leximin_normalization(instance)
        included = [i for i, d in enumerate(divisors) if d is not None]

        def key(utils):
            return sorted(utils[i] / divisors[i] for i in included)

    else:
        raise ValueError(f"unknown objective {objective!r}")
    outcome, utils = _first_best(instance, cap, key)
    return MechanismResult(
        mechanism=f"oracle:{objective}",
        outcome=outcome,
        utilities=utils,
        support=_support(utils) if objective == "nash" else None,
        normalization=divisors,
    )

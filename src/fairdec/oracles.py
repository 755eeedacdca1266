"""Brute-force reference optimizers.

Everything here is plain lexicographic enumeration with no pruning and no
shortcuts. The mechanisms module reproduces these results with search-tree
pruning; tests require both paths to agree bit for bit, so this module must
stay independent of that code and obviously correct.

Tie-breaking, shared with the mechanisms:
- among outcomes with equal objective value, the lexicographically smallest
  choice vector wins (the first one found, since enumeration is lexicographic)
- for the Nash objective, the product ranges over a support set S chosen
  first: the largest set of players that can simultaneously get positive
  utility, ties broken by the lexicographically smallest sorted player tuple
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .errors import CapExceeded, InvariantError
from .model import (
    Allocation,
    DecisionInstance,
    GoodsInstance,
    Instance,
    MechanismResult,
    Outcome,
    utility_vector,
)
from .shares import share_profile

DEFAULT_ENUM_CAP = 10**7

Objective = str  # "nash" | "leximin" | "utilitarian"


def outcome_space_size(instance: DecisionInstance) -> int:
    size = 1
    for issue in instance.issues:
        size *= issue.k
    return size


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


def enumerate_allocations(
    goods: GoodsInstance, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[Allocation]:
    """Yield every allocation of the goods (n^m of them), lexicographic by owner vector."""
    size = goods.n**goods.m
    if size > cap:
        raise CapExceeded(size, cap, what="allocation enumeration")
    for owners in itertools.product(range(goods.n), repeat=goods.m):
        bundles = [set() for _ in range(goods.n)]
        for g, owner in enumerate(owners):
            bundles[owner].add(g)
        yield Allocation(bundles=tuple(frozenset(b) for b in bundles))


def leximin_normalization(instance: Instance) -> tuple[Fraction | None, ...]:
    """Per-player leximin divisor: RRS when positive, else Prop, else excluded."""
    shares = share_profile(instance)
    return tuple(
        rrs if rrs > 0 else prop if prop > 0 else None
        for rrs, prop in zip(shares.rrs, shares.prop)
    )


def _support(utilities: Sequence[Fraction]) -> tuple[int, ...]:
    return tuple(i for i, u in enumerate(utilities) if u > 0)


def _nash_support(instance: DecisionInstance, cap: int) -> tuple[int, ...]:
    best: tuple[int, ...] | None = None
    for outcome in enumerate_outcomes(instance, cap):
        support = _support(utility_vector(instance, outcome))
        if best is None or len(support) > len(best):
            best = support
        elif len(support) == len(best) and support < best:
            best = support
    if best is None:
        raise InvariantError("instances have at least one outcome")
    return best


def exact_optimum(
    instance: DecisionInstance,
    objective: Objective,
    cap: int = DEFAULT_ENUM_CAP,
) -> MechanismResult:
    """Optimize an objective by full enumeration.

    Objectives:
        "utilitarian": maximize the utility sum.
        "nash": maximize the product of utilities over the support set S
            (largest achievable set of positive-utility players, lex tie-break),
            which every maximizer then automatically covers.
        "leximin": maximize the ascending sorted vector of normalized utilities
            lexicographically; players whose RRS and Prop are both zero are
            left out of the objective.
    """
    if objective == "utilitarian":
        best_outcome = best_utils = None
        best_value: Fraction | None = None
        for outcome in enumerate_outcomes(instance, cap):
            utils = utility_vector(instance, outcome)
            value = sum(utils, Fraction(0))
            if best_value is None or value > best_value:
                best_outcome, best_utils, best_value = outcome, utils, value
        return MechanismResult(
            mechanism="oracle:utilitarian",
            outcome=best_outcome,
            utilities=best_utils,
        )

    if objective == "nash":
        support = _nash_support(instance, cap)
        best_outcome = best_utils = None
        best_value = None
        for outcome in enumerate_outcomes(instance, cap):
            utils = utility_vector(instance, outcome)
            value = Fraction(1)
            for i in support:
                value *= utils[i]
            if best_value is None or value > best_value:
                best_outcome, best_utils, best_value = outcome, utils, value
        return MechanismResult(
            mechanism="oracle:nash",
            outcome=best_outcome,
            utilities=best_utils,
            support=support,
        )

    if objective == "leximin":
        divisors = leximin_normalization(instance)
        included = [i for i, d in enumerate(divisors) if d is not None]
        best_outcome = best_utils = None
        best_key: tuple[Fraction, ...] | None = None
        for outcome in enumerate_outcomes(instance, cap):
            utils = utility_vector(instance, outcome)
            key = tuple(sorted(utils[i] / divisors[i] for i in included))
            if best_key is None or key > best_key:
                best_outcome, best_utils, best_key = outcome, utils, key
        return MechanismResult(
            mechanism="oracle:leximin",
            outcome=best_outcome,
            utilities=best_utils,
            normalization=divisors,
        )

    raise ValueError(f"unknown objective {objective!r}")


def pareto_frontier(
    instance: DecisionInstance, cap: int = DEFAULT_ENUM_CAP
) -> list[tuple[tuple[Fraction, ...], Outcome]]:
    """All non-dominated utility vectors, each with its lexicographically least outcome.

    Sorted by representative choice vector. A vector is dominated when some
    outcome is at least as good for everyone and strictly better for someone.
    """
    representatives: dict[tuple[Fraction, ...], Outcome] = {}
    for outcome in enumerate_outcomes(instance, cap):
        utils = utility_vector(instance, outcome)
        representatives.setdefault(utils, outcome)  # first hit is lex-least

    def dominated(u: tuple[Fraction, ...]) -> bool:
        return any(
            all(w >= v for w, v in zip(other, u)) and other != u
            for other in representatives
        )

    frontier = [
        (utils, outcome)
        for utils, outcome in representatives.items()
        if not dominated(utils)
    ]
    frontier.sort(key=lambda pair: pair[1].choices)
    return frontier


@dataclass(frozen=True)
class ProductBoundCheck:
    """Result of the multiplicative lower-bound test on a set of rationals.

    ``feasible`` records whether the total shortfall below 1 stays within
    delta; whenever it does, the product of the values is at least 1 - delta
    (``holds`` confirms the exact comparison).
    """

    feasible: bool
    shortfall: Fraction
    product: Fraction
    floor: Fraction

    @property
    def holds(self) -> bool:
        return self.product >= self.floor


def feasible_product_lower_bound(
    values: Sequence[Fraction], delta: Fraction
) -> ProductBoundCheck:
    """Check sum_k max(0, 1 - x_k) <= delta and compare prod x_k against 1 - delta."""
    shortfall = sum((max(Fraction(0), 1 - x) for x in values), Fraction(0))
    product = Fraction(1)
    for x in values:
        product *= x
    return ProductBoundCheck(
        feasible=shortfall <= delta,
        shortfall=shortfall,
        product=product,
        floor=1 - delta,
    )

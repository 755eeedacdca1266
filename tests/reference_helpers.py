"""Brute-force helpers that only the tests use.

No package path, command or benchmark calls these, so they live beside the
tests rather than in ``fairdec``. Like ``fairdec.oracles`` they enumerate
plainly in Fraction arithmetic, with no pruning: the Pareto frontier of a
public instance, every allocation of a goods instance, the feasible-product
bound, and a goods player's best unowned good as a Fraction. ``read_goods``
reads rows through a document, so non-whole cells arrive as "p/q" strings.
``embedding_view`` writes the goods embedding's integer view cell by cell from
its definition. ``transfer_trace_document``, ``audit_document`` and
``mechanism_trace`` build the documents of ``fairdec.io`` with every round,
reduction, transfer, player audit and pick as a plain dict, for ``to_json``'s
general walk: the reference its bulk record writers are tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterator, Sequence

from fairdec import io
from fairdec import (
    DEFAULT_ENUM_CAP,
    Allocation,
    CapExceeded,
    DecisionInstance,
    GoodsInstance,
    Outcome,
    enumerate_outcomes,
    outcome_to_allocation,
    utility_vector,
)


def enumerate_allocations(
    goods: GoodsInstance, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[Allocation]:
    """Yield every allocation of the goods (n^m of them), lexicographic by owner vector."""
    size = goods.n**goods.m
    if size > cap:
        raise CapExceeded(size, cap, what="allocation enumeration")
    for owners in itertools.product(range(goods.n), repeat=goods.m):
        yield outcome_to_allocation(goods, Outcome(choices=owners))


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
    return ProductBoundCheck(
        feasible=shortfall <= delta,
        shortfall=shortfall,
        product=prod(values, start=Fraction(1)),
        floor=1 - delta,
    )


def best_unowned_good(
    goods: GoodsInstance, player: int, bundle: frozenset[int] | set[int]
) -> Fraction:
    """The most valuable good outside the player's bundle (0 when she holds
    all): ``GoodsInstance.best_unowned`` over her scale."""
    return Fraction(goods.best_unowned(player, bundle), goods.scales[player])


def embedding_view(goods: GoodsInstance) -> tuple:
    """scaled[g][i] of the goods embedding by its definition: player i's row
    for good g holds ``maxima[i][g]`` at alternative i and 0 at every other."""
    return tuple(
        tuple(
            tuple(goods.maxima[i][g] if a == i else 0 for a in range(goods.n))
            for i in range(goods.n)
        )
        for g in range(goods.m)
    )


def read_goods(rows: list[list[Fraction | int]]) -> GoodsInstance:
    """The goods instance of ``rows`` as a document reads it: whole cells as
    JSON integers and the rest as canonical "p/q" strings."""
    cells = [[io.encode_rational(Fraction(v)) for v in row] for row in rows]
    doc = {
        "kind": "goods",
        "players": [f"p{i}" for i in range(len(rows))],
        "goods": [f"g{g}" for g in range(len(rows[0]))],
        "utilities": cells,
    }
    return io.parse_instance(io.to_json(doc))


def transfer_trace_document(trace) -> dict:
    """``io.transfer_trace_document`` with each round, reduction and transfer
    a dict and each factor encoded."""
    rounds = [
        {
            "dec": [list(snapshot) for snapshot in r.dec_snapshots],
            "reductions": [
                {**red._asdict(), "factor": io.encode_rational(red.factor)}
                for red in r.reductions
            ],
            "transfers": [t._asdict() for t in r.transfers],
        }
        for r in trace.rounds
    ]
    return {"initial_bundles": io.bundles_document(trace.initial), "rounds": rounds}


def _axiom_document(check) -> dict:
    return {
        "satisfied": check.satisfied,
        "alpha": "unbounded" if check.alpha is None else io.encode_rational(check.alpha),
    }


def audit_document(report) -> dict:
    """``io.audit_document`` with each player a dict of her axioms that are not
    None, each a dict."""
    players = [
        {
            field: _axiom_document(check)
            for field, check in zip(player._fields, player)
            if check is not None
        }
        for player in report.players
    ]
    return {**io.audit_document(report), "players": players}


def mechanism_trace(result) -> dict | None:
    """``io.mechanism_trace`` with each pick a dict."""
    trace = io.mechanism_trace(result)
    if result.picks is not None:
        trace["picks"] = [p._asdict() for p in result.picks]
    return trace

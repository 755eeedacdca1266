"""Fairness and efficiency audits with exact alpha levels.

For a share-based axiom with reference share s_i > 0, the alpha level is the
ratio value/s_i where value is what the axiom credits the player with (her
utility, or her utility after the best single improvement for the
one-switch/one-good relaxations); the axiom is satisfied at level alpha >= 1.
When s_i = 0 the axiom is vacuous: ``alpha`` is None and counts as satisfied
(an unbounded level, at least as large as every rational).

Envy-freeness levels follow the same pattern with the opponent's bundle value
as the reference, minimized over opponents.

Both audits take every share from one ``share_sums`` call and build their
per-player results in one place. A route supplies each player's utility and
Prop1 reach as sums of her scaled integers (her best single switch on public
instances, which gains at most the issue's ``maxima`` entry; on goods, her
bundle plus the best of the per-rival tops that EF1 reads, each bundle's worth
and top a slice of one read of her row in bundle order) and, for goods, the
envy levels. Each level is one ``Fraction`` of two integers, such as n U / T
for Prop on a utility sum U and row sum T, met when n U >= T.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter, sub
from typing import Iterable, NamedTuple, Sequence

from .model import (
    Allocation,
    DecisionInstance,
    GoodsInstance,
    Instance,
    Outcome,
    allocation_to_outcome,
    outcome_to_allocation,
)
from .errors import DEFAULT_ENUM_CAP, InstanceFormatError
from .mechanisms import pareto_improvement
from .shares import DEFAULT_MMS_CAP, share_sums


class AxiomCheck(NamedTuple):
    """One axiom for one player: satisfied flag and exact level.

    ``alpha`` is None when the reference is zero, meaning the level is
    unbounded and the axiom holds vacuously; otherwise satisfied iff
    alpha >= 1.
    """

    satisfied: bool
    alpha: Fraction | None


class ParetoCheck(NamedTuple):
    """Exact Pareto test; ``witness`` is the lexicographically first improvement."""

    satisfied: bool
    witness: Outcome | Allocation | None


class PlayerAudit(NamedTuple):
    prop: AxiomCheck
    prop1: AxiomCheck
    rrs: AxiomCheck
    pps: AxiomCheck
    mms: AxiomCheck | None = None
    ef: AxiomCheck | None = None
    ef1: AxiomCheck | None = None


@dataclass(frozen=True)
class AuditReport:
    """The package's one dataclass: ``perfbench`` sets ``po`` by ``dataclasses.replace``."""

    utilities: tuple[Fraction, ...]
    players: tuple[PlayerAudit, ...]
    po: ParetoCheck | None = None


def _level(value: int, reference: int) -> AxiomCheck:
    """The ratio value/reference, None (unbounded) for a zero reference; the
    axiom holds when value >= reference, on integers, since none is negative."""
    alpha = Fraction(value, reference) if reference else None
    return AxiomCheck(satisfied=value >= reference, alpha=alpha)


def _player_audits(
    instance: Instance,
    values: Sequence[int],
    reach: Iterable[int],
    with_mms: bool,
    mms_cap: int,
    envy: Iterable[tuple[AxiomCheck | None, AxiomCheck | None]] | None = None,
) -> tuple[tuple[Fraction, ...], tuple[PlayerAudit, ...]]:
    """Utilities and share levels from each player's scaled utility and Prop1
    reach; ``envy`` holds her (EF, EF1) levels on the goods route."""
    n, sums = instance.n, share_sums(instance, with_mms, mms_cap)
    envy = envy if envy is not None else [(None, None)] * n
    players = tuple(
        PlayerAudit(
            prop=_level(n * value, total),
            prop1=_level(n * credit, total),
            rrs=_level(value, rrs),
            pps=_level(value, pps),
            mms=None if mms is None else _level(value, mms),
            ef=ef,
            ef1=ef1,
        )
        for value, credit, (total, rrs, pps, mms), (ef, ef1) in zip(
            values, reach, sums, envy
        )
    )
    return tuple(map(Fraction, values, instance.scales)), players


def _switch(instance: DecisionInstance, outcome: Outcome, player: int) -> tuple:
    """The player's scaled utility for the outcome and her best one from
    changing one issue of it, both from one read of her chosen values."""
    values = [rows[player][c] for rows, c in zip(instance.scaled, outcome.choices)]
    total = sum(values)
    return total, total + max(map(sub, instance.maxima[player], values))


def best_single_switch(
    instance: DecisionInstance, outcome: Outcome, player: int
) -> Fraction:
    """The player's best utility from changing one issue of the outcome.

    This is u_i(c) - u_i^t(c_t) + u^t_max(i) maximized over issues t, with
    u^t_max(i) read from ``instance.maxima``; keeping the outcome as is is
    included (switching to the chosen alternative).
    """
    return Fraction(_switch(instance, outcome, player)[1], instance.scales[player])


def check_pareto_optimal(
    instance: Instance, outcome: Outcome, cap: int = DEFAULT_ENUM_CAP
) -> ParetoCheck:
    """Search the outcomes for a Pareto improvement; report the lexicographically
    first one, the one enumerating every outcome would find first."""
    witness = pareto_improvement(instance, outcome, cap)
    return ParetoCheck(satisfied=witness is None, witness=witness)


def audit(
    instance: DecisionInstance,
    outcome: Outcome | None,
    with_mms: bool = False,
    mms_cap: int = DEFAULT_MMS_CAP,
    po_cap: int | None = None,
) -> AuditReport:
    """Audit an outcome of a public decision instance.

    Always reports Prop, Prop1, RRS and PPS levels per player; MMS is opt-in
    (it enumerates partitions), and the exact Pareto check runs when ``po_cap``
    is given. Raises InstanceFormatError when the outcome does not fit.
    """
    if outcome is None:
        raise InstanceFormatError("a public instance needs a choices result")
    if len(outcome.choices) != instance.m:
        raise InstanceFormatError(
            f"expected {instance.m} choices, got {len(outcome.choices)}"
        )
    for t, choice in enumerate(outcome.choices):
        k = instance.issues[t].k
        if not 0 <= choice < k:
            raise InstanceFormatError(
                f"choices[{t}]: alternative {choice} out of range 0..{k - 1}"
            )
    values, reach = zip(*(_switch(instance, outcome, i) for i in range(instance.n)))
    utilities, players = _player_audits(instance, values, reach, with_mms, mms_cap)
    po = None if po_cap is None else check_pareto_optimal(instance, outcome, po_cap)
    return AuditReport(utilities=utilities, players=players, po=po)


def audit_goods(
    goods: GoodsInstance,
    alloc: Allocation | None,
    with_mms: bool = False,
    mms_cap: int = DEFAULT_MMS_CAP,
    po_cap: int | None = None,
) -> AuditReport:
    """Audit an allocation of private goods.

    Share axioms read the per-good values directly (they coincide with the
    per-issue maxima of the public embedding). Prop1 credits the player with
    her bundle plus the best good she lacks: her rivals hold it, so it is the
    best of their tops, which EF1 reads too. Her row is read once, in bundle
    order; each bundle's worth and top are slices of that read. EF and EF1 are
    reported per player as the worst case over opponents. The Pareto check
    searches the goods' own view of the embedding and reads any witness back as
    an allocation. Raises InstanceFormatError when the allocation does not fit.
    """
    if alloc is None:
        raise InstanceFormatError("a goods instance needs a bundles result")
    if len(alloc.bundles) != goods.n:
        raise InstanceFormatError(
            f"expected {goods.n} bundles, got {len(alloc.bundles)}"
        )
    order, spans = [], []  # the goods in bundle order, and each bundle's span
    for bundle in alloc.bundles:
        spans.append(slice(len(order), len(order) + len(bundle)))
        order += bundle
    handed = sorted(order)
    if handed != list(range(goods.m)):
        missing = sorted(set(range(goods.m)).difference(handed))
        raise InstanceFormatError(
            f"bundles must hand out every good exactly once; "
            f"missing {missing}, handed out {handed}"
        )
    take = itemgetter(*order, 0)  # the spare cell keeps m = 1 a tuple
    values, reach, envy = [], [], []
    for i, row in enumerate(goods.maxima):
        cells = [*map(take(row).__getitem__, spans)]
        worth, top = [*map(sum, cells)], [max(c, default=0) for c in cells]
        value = worth.pop(i)
        del top[i]
        values.append(value)
        reach.append(value + max(top, default=0))
        # no value is negative, so the worst ratio is over the largest reference
        ef, ef1 = max(worth, default=0), max(map(sub, worth, top), default=0)
        envy.append((_level(value, ef), _level(value, ef1)))
    utilities, players = _player_audits(goods, values, reach, with_mms, mms_cap, envy)
    po = None
    if po_cap is not None:
        check = check_pareto_optimal(goods, allocation_to_outcome(goods, alloc), po_cap)
        witness = check.witness and outcome_to_allocation(goods, check.witness)
        po = ParetoCheck(satisfied=check.satisfied, witness=witness)
    return AuditReport(utilities=utilities, players=players, po=po)

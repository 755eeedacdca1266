"""Fairness and efficiency audits with exact alpha levels.

For a share-based axiom with reference share s_i > 0, the alpha level is the
ratio value/s_i where value is what the axiom credits the player with (her
utility, or her utility after the best single improvement for the
one-switch/one-good relaxations); the axiom is satisfied at level alpha >= 1.
When s_i = 0 the axiom is vacuous: ``alpha`` is None and counts as satisfied
(an unbounded level, at least as large as every rational).

Envy-freeness levels follow the same pattern with the opponent's bundle value
as the reference, minimized over opponents.

Both audits read every player's shares from one ``share_profile`` call and
build their per-player results in one place; a route supplies only the
utilities, each player's Prop1 reach (``best_single_switch`` on public
instances, bundle plus ``best_unowned_good`` on goods) and, for goods, the
envy levels. Both reaches read the instance's ``maxima`` and ``ranking``
tables: a switch gains at most the issue's maximum, and the best unowned
good is the first one of the player's ranking outside her bundle.
"""

from __future__ import annotations

from fractions import Fraction
from operator import sub
from typing import Iterable

from dataclasses import dataclass

from .model import (
    Allocation,
    DecisionInstance,
    GoodsInstance,
    Outcome,
    allocation_to_outcome,
    allocation_utilities,
    bundle_utility,
    goods_to_public,
    outcome_to_allocation,
    outcome_utility,
    utility_vector,
)
from .errors import InstanceFormatError
from .mechanisms import pareto_improvement
from .oracles import DEFAULT_ENUM_CAP
from .shares import DEFAULT_MMS_CAP, share_profile


@dataclass(frozen=True)
class AxiomCheck:
    """One axiom for one player: satisfied flag and exact level.

    ``alpha`` is None when the reference is zero, meaning the level is
    unbounded and the axiom holds vacuously; otherwise satisfied iff
    alpha >= 1.
    """

    satisfied: bool
    alpha: Fraction | None


@dataclass(frozen=True)
class ParetoCheck:
    """Exact Pareto test; ``witness`` is the lexicographically first improvement."""

    satisfied: bool
    witness: Outcome | Allocation | None


@dataclass(frozen=True)
class PlayerAudit:
    prop: AxiomCheck
    prop1: AxiomCheck
    rrs: AxiomCheck
    pps: AxiomCheck
    mms: AxiomCheck | None = None
    ef: AxiomCheck | None = None
    ef1: AxiomCheck | None = None


@dataclass(frozen=True)
class AuditReport:
    utilities: tuple[Fraction, ...]
    players: tuple[PlayerAudit, ...]
    po: ParetoCheck | None = None


def _level(value: Fraction, *references: Fraction) -> AxiomCheck:
    """The worst ratio value/reference over the non-zero references; with
    none left the level is unbounded (None) and the axiom holds vacuously."""
    alpha = min((value / r for r in references if r != 0), default=None)
    return AxiomCheck(satisfied=alpha is None or alpha >= 1, alpha=alpha)


def _player_audits(
    instance: DecisionInstance | GoodsInstance,
    utilities: tuple[Fraction, ...],
    reach: Iterable[Fraction],
    with_mms: bool,
    mms_cap: int,
    envy: Iterable[tuple[AxiomCheck | None, AxiomCheck | None]] | None = None,
) -> tuple[PlayerAudit, ...]:
    """Per-player share levels; ``reach`` is what Prop1 credits each player
    with, ``envy`` her (EF, EF1) levels on the goods route."""
    shares = share_profile(instance, with_mms=with_mms, mms_cap=mms_cap)
    envy = envy if envy is not None else [(None, None)] * instance.n
    return tuple(
        PlayerAudit(
            prop=_level(value, shares.prop[i]),
            prop1=_level(credit, shares.prop[i]),
            rrs=_level(value, shares.rrs[i]),
            pps=_level(value, shares.pps[i]),
            mms=None if shares.mms is None else _level(value, shares.mms[i]),
            ef=ef,
            ef1=ef1,
        )
        for i, (value, credit, (ef, ef1)) in enumerate(zip(utilities, reach, envy))
    )


def best_single_switch(
    instance: DecisionInstance, outcome: Outcome, player: int
) -> Fraction:
    """The player's best utility from changing one issue of the outcome.

    This is u_i(c) - u_i^t(c_t) + u^t_max(i) maximized over issues t, with
    u^t_max(i) read from ``instance.maxima``; keeping the outcome as is is
    included (switching to the chosen alternative).
    """
    gains = (
        best - issue.utilities[player][choice]
        for issue, choice, best in zip(
            instance.issues, outcome.choices, instance.maxima[player]
        )
    )
    return outcome_utility(instance, outcome, player) + max(gains, default=Fraction(0))


def check_pareto_optimal(
    instance: DecisionInstance, outcome: Outcome, cap: int = DEFAULT_ENUM_CAP
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
    utilities = utility_vector(instance, outcome)
    reach = [best_single_switch(instance, outcome, i) for i in range(instance.n)]
    players = _player_audits(instance, utilities, reach, with_mms, mms_cap)
    po = (
        check_pareto_optimal(instance, outcome, cap=po_cap)
        if po_cap is not None
        else None
    )
    return AuditReport(utilities=utilities, players=players, po=po)


def best_unowned_good(
    goods: GoodsInstance, player: int, bundle: frozenset[int] | set[int]
) -> Fraction:
    """The most valuable good outside the player's bundle (0 when she holds
    all): the first good of her ranking that she does not hold."""
    row = goods.utilities[player]
    return next((row[g] for g in goods.ranking[player] if g not in bundle), Fraction(0))


def audit_goods(
    goods: GoodsInstance,
    alloc: Allocation | None,
    with_mms: bool = False,
    mms_cap: int = DEFAULT_MMS_CAP,
    po_cap: int | None = None,
) -> AuditReport:
    """Audit an allocation of private goods.

    Share axioms read the per-good values directly (they coincide with the
    per-issue maxima of the public embedding); the one-good relaxation of
    proportionality credits the player with her bundle plus the best good she
    does not hold. Envy-freeness and its one-good relaxation are reported per
    player as the worst case over opponents. The Pareto check runs on the
    public embedding and converts any witness back to an allocation. Raises
    InstanceFormatError when the allocation does not fit.
    """
    if alloc is None:
        raise InstanceFormatError("a goods instance needs a bundles result")
    if len(alloc.bundles) != goods.n:
        raise InstanceFormatError(
            f"expected {goods.n} bundles, got {len(alloc.bundles)}"
        )
    handed = sorted(g for bundle in alloc.bundles for g in bundle)
    if handed != list(range(goods.m)):
        missing = sorted(set(range(goods.m)).difference(handed))
        raise InstanceFormatError(
            f"bundles must hand out every good exactly once; "
            f"missing {missing}, handed out {handed}"
        )
    utilities = allocation_utilities(goods, alloc)
    reach = [
        utilities[i] + best_unowned_good(goods, i, alloc.bundles[i])
        for i in range(goods.n)
    ]
    envy = []
    for i, value in enumerate(utilities):
        row = goods.utilities[i]
        rivals = [bundle for j, bundle in enumerate(alloc.bundles) if j != i]
        worth = [bundle_utility(goods, i, bundle) for bundle in rivals]
        best = [max((row[g] for g in bundle), default=Fraction(0)) for bundle in rivals]
        envy.append((_level(value, *worth), _level(value, *map(sub, worth, best))))
    players = _player_audits(goods, utilities, reach, with_mms, mms_cap, envy)
    po = None
    if po_cap is not None:
        image = goods_to_public(goods)
        result = check_pareto_optimal(
            image, allocation_to_outcome(goods, alloc), cap=po_cap
        )
        witness = (
            outcome_to_allocation(goods, result.witness)
            if result.witness is not None
            else None
        )
        po = ParetoCheck(satisfied=result.satisfied, witness=witness)
    return AuditReport(utilities=utilities, players=players, po=po)

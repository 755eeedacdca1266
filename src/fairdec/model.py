"""Core data model for fair public decision making.

A decision instance has n players and m issues; issue t carries k_t mutually
exclusive alternatives and an n-by-k_t matrix of non-negative rational
utilities. An outcome fixes one alternative per issue, and a player's utility
for an outcome is the sum of her per-issue utilities (preferences are additive
across issues).

Every instance computes two tables once: ``maxima[i][t]``, player i's best
utility on issue t (on goods, her value for good t), and ``ranking[i]``, the
issues by those maxima, largest first, ties to the lower index. The shares,
round robin and both Prop1 reaches read them.

Allocating private goods is the special case with one issue per good and one
alternative per player: the alternative that hands good g to player i gives
u_i(g) to i and zero to everyone else. ``goods_to_public`` performs that
embedding; ``outcome_to_allocation`` and ``allocation_to_outcome`` move
between the two views (the chosen alternative index of a reduced issue is the
recipient of the good).

All quantities are ``fractions.Fraction``. Nothing in this package rounds.
Instances, outcomes and allocations are immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import InstanceFormatError

RationalLike = Union[Fraction, int, str]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, "p/q" string, decimal string, or Fraction to Fraction."""
    if isinstance(value, bool):
        raise TypeError("booleans are not utilities")
    if isinstance(value, (Fraction, int, str)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def scale_to_int(values: Iterable[Fraction], scale: int) -> list[int]:
    """Each value times ``scale``, a multiple of every denominator, as an int."""
    return [v.numerator * (scale // v.denominator) for v in values]


def _ranking(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[int, ...], ...]:
    """Per row, its column indices by value, largest first; the stable sort
    keeps ties in index order."""
    return tuple(
        tuple(sorted(range(len(row)), key=row.__getitem__, reverse=True))
        for row in rows
    )


@dataclass(frozen=True)
class Violation:
    """One structural defect found by ``validate``.

    Attributes:
        path: index path into the offending field, e.g. "issues[2].utilities[0][1]".
        message: human-readable description of the defect.
    """

    path: str
    message: str


@dataclass(frozen=True)
class Issue:
    """One issue: a label, alternative labels, and an n-by-k utility matrix."""

    utilities: tuple[tuple[Fraction, ...], ...]  # rows = players, cols = alternatives
    name: str
    alternatives: tuple[str, ...]

    @property
    def k(self) -> int:
        return len(self.utilities[0]) if self.utilities else 0


@dataclass(frozen=True)
class DecisionInstance:
    """A public decision instance: players and a tuple of issues."""

    issues: tuple[Issue, ...]
    players: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def m(self) -> int:
        return len(self.issues)

    def utility(self, player: int, issue: int, alternative: int) -> Fraction:
        return self.issues[issue].utilities[player][alternative]

    @cached_property
    def maxima(self) -> tuple[tuple[Fraction, ...], ...]:
        """maxima[i][t]: player i's best utility on issue t."""
        return tuple(
            tuple(max(issue.utilities[i]) for issue in self.issues)
            for i in range(self.n)
        )

    @cached_property
    def ranking(self) -> tuple[tuple[int, ...], ...]:
        """ranking[i]: the issues by maxima[i], largest first, ties low."""
        return _ranking(self.maxima)


@dataclass(frozen=True)
class GoodsInstance:
    """Indivisible private goods: an n-by-m matrix of per-good utilities."""

    utilities: tuple[tuple[Fraction, ...], ...]  # rows = players, cols = goods
    players: tuple[str, ...]
    goods: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.players)

    @property
    def m(self) -> int:
        return len(self.goods)

    def utility(self, player: int, good: int) -> Fraction:
        return self.utilities[player][good]

    @property
    def maxima(self) -> tuple[tuple[Fraction, ...], ...]:
        """The embedding's per-issue maxima: each player's per-good values."""
        return self.utilities

    @cached_property
    def ranking(self) -> tuple[tuple[int, ...], ...]:
        """ranking[i]: the goods by player i's value, largest first, ties low."""
        return _ranking(self.utilities)


@dataclass(frozen=True)
class Outcome:
    """One chosen alternative index per issue."""

    choices: tuple[int, ...]


@dataclass(frozen=True)
class Allocation:
    """A partition of the goods: bundles[i] is the set of goods player i holds."""

    bundles: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class Pick:
    """One round robin turn: who decided which issue, choosing which alternative."""

    player: int
    issue: int
    alternative: int


@dataclass(frozen=True)
class MechanismResult:
    """Output of a mechanism or optimization oracle, with enough data to audit it.

    Attributes:
        mechanism: name of the procedure that produced this result.
        outcome: the chosen alternative per issue.
        utilities: raw (unnormalized) utility per player.
        picks: round robin turn log, when applicable.
        support: players with positive utility that the Nash product ranges
            over, when applicable.
        normalization: leximin divisor per player (round robin share, falling
            back to the proportional share); None marks a player excluded from
            the objective because both shares are zero.
    """

    mechanism: str
    outcome: Outcome
    utilities: tuple[Fraction, ...]
    picks: tuple[Pick, ...] | None = None
    support: tuple[int, ...] | None = None
    normalization: tuple[Fraction | None, ...] | None = None


def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(count))


def decision_instance(
    utilities: Sequence[Sequence[Sequence[RationalLike]]],
    players: Sequence[str] | None = None,
    issue_names: Sequence[str] | None = None,
    alternative_names: Sequence[Sequence[str]] | None = None,
) -> DecisionInstance:
    """Build a DecisionInstance from per-issue utility matrices.

    ``utilities[t][i][a]`` is player i's utility for alternative a of issue t.
    Labels default to p1.., issue1.., a1.. when omitted.
    """
    n = len(utilities[0]) if utilities else 0
    player_labels = tuple(players) if players is not None else _default_labels("p", n)
    issues = []
    for t, matrix in enumerate(utilities):
        rows = tuple(tuple(as_fraction(v) for v in row) for row in matrix)
        k = len(rows[0]) if rows else 0
        name = issue_names[t] if issue_names is not None else f"issue{t + 1}"
        alts = (
            tuple(alternative_names[t])
            if alternative_names is not None
            else _default_labels("a", k)
        )
        issues.append(Issue(utilities=rows, name=name, alternatives=alts))
    return DecisionInstance(issues=tuple(issues), players=player_labels)


def goods_instance(
    utilities: Sequence[Sequence[RationalLike]],
    players: Sequence[str] | None = None,
    goods: Sequence[str] | None = None,
) -> GoodsInstance:
    """Build a GoodsInstance from an n-by-m utility matrix (rows = players)."""
    rows = tuple(tuple(as_fraction(v) for v in row) for row in utilities)
    n = len(rows)
    m = len(rows[0]) if rows else 0
    player_labels = tuple(players) if players is not None else _default_labels("p", n)
    good_labels = tuple(goods) if goods is not None else _default_labels("g", m)
    return GoodsInstance(utilities=rows, players=player_labels, goods=good_labels)


def allocation(bundles: Iterable[Iterable[int]]) -> Allocation:
    return Allocation(bundles=tuple(frozenset(b) for b in bundles))


def _row_violations(
    path: str, rows: Sequence[Sequence[Fraction]], width: int
) -> list[Violation]:
    """Width and sign defects of the rows of one utility matrix at ``path``."""
    violations = []
    for i, row in enumerate(rows):
        if len(row) != width:
            violations.append(
                Violation(f"{path}[{i}]", f"expected {width} entries, got {len(row)}")
            )
        violations.extend(
            Violation(f"{path}[{i}][{a}]", f"negative utility {value}")
            for a, value in enumerate(row)
            if value < 0
        )
    return violations


def validate(instance: DecisionInstance | GoodsInstance) -> list[Violation]:
    """Check structural invariants; an empty list means the instance is well formed.

    Checks: n >= 1, m >= 1, every issue has k_t >= 1, every utility matrix has
    exactly n rows of consistent width, and every utility is non-negative.
    """
    violations: list[Violation] = []
    n = instance.n
    if n < 1:
        violations.append(Violation("players", "at least one player is required"))
    if isinstance(instance, GoodsInstance):
        if instance.m < 1:
            violations.append(Violation("goods", "at least one good is required"))
        if len(instance.utilities) != n:
            violations.append(
                Violation(
                    "utilities",
                    f"expected {n} utility rows (one per player), got {len(instance.utilities)}",
                )
            )
        return violations + _row_violations("utilities", instance.utilities, instance.m)

    if instance.m < 1:
        violations.append(Violation("issues", "at least one issue is required"))
    for t, issue in enumerate(instance.issues):
        k = issue.k
        if k < 1:
            violations.append(
                Violation(f"issues[{t}]", "an issue needs at least one alternative")
            )
        if len(issue.utilities) != n:
            violations.append(
                Violation(
                    f"issues[{t}].utilities",
                    f"expected {n} rows (one per player), got {len(issue.utilities)}",
                )
            )
        if len(issue.alternatives) != k:
            violations.append(
                Violation(
                    f"issues[{t}].alternatives",
                    f"expected {k} alternative labels, got {len(issue.alternatives)}",
                )
            )
        violations += _row_violations(f"issues[{t}].utilities", issue.utilities, k)
    return violations


def require_valid(instance: DecisionInstance | GoodsInstance) -> None:
    """Raise InstanceFormatError listing every ``validate`` violation, if any."""
    violations = validate(instance)
    if violations:
        raise InstanceFormatError(
            "; ".join(f"{v.path}: {v.message}" for v in violations), violations
        )


def goods_to_public(goods: GoodsInstance) -> DecisionInstance:
    """Embed a goods instance as a decision instance, one issue per good.

    Issue t has n alternatives; alternative i hands good t to player i, giving
    utility u_i(g_t) to player i and zero to everyone else. Outcomes of the
    image correspond bijectively to allocations with identical utilities.
    """
    issues = []
    for g in range(goods.m):
        rows = tuple(
            tuple(
                goods.utilities[i][g] if i == j else Fraction(0)
                for j in range(goods.n)
            )
            for i in range(goods.n)
        )
        issues.append(
            Issue(utilities=rows, name=goods.goods[g], alternatives=goods.players)
        )
    return DecisionInstance(issues=tuple(issues), players=goods.players)


def outcome_to_allocation(goods: GoodsInstance, outcome: Outcome) -> Allocation:
    """Read an outcome of the goods embedding back as an allocation."""
    bundles = [set() for _ in range(goods.n)]
    for g, recipient in enumerate(outcome.choices):
        bundles[recipient].add(g)
    return Allocation(bundles=tuple(frozenset(b) for b in bundles))


def allocation_to_outcome(goods: GoodsInstance, alloc: Allocation) -> Outcome:
    """Write an allocation as an outcome of the goods embedding."""
    choices = [0] * goods.m
    for i, bundle in enumerate(alloc.bundles):
        for g in bundle:
            choices[g] = i
    return Outcome(choices=tuple(choices))


def outcome_utility(
    instance: DecisionInstance, outcome: Outcome, player: int
) -> Fraction:
    """Player's total utility for an outcome: the sum of her per-issue utilities."""
    total = Fraction(0)
    for issue, choice in zip(instance.issues, outcome.choices):
        total += issue.utilities[player][choice]
    return total


def utility_vector(instance: DecisionInstance, outcome: Outcome) -> tuple[Fraction, ...]:
    return tuple(outcome_utility(instance, outcome, i) for i in range(instance.n))


def bundle_utility(goods: GoodsInstance, player: int, bundle: Iterable[int]) -> Fraction:
    total = Fraction(0)
    for g in bundle:
        total += goods.utilities[player][g]
    return total


def allocation_utilities(goods: GoodsInstance, alloc: Allocation) -> tuple[Fraction, ...]:
    return tuple(
        bundle_utility(goods, i, alloc.bundles[i]) for i in range(goods.n)
    )

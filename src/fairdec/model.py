"""Core data model for fair public decision making.

A decision instance has n players and m issues; issue t carries k_t mutually
exclusive alternatives and an n-by-k_t matrix of non-negative rational
utilities. An outcome fixes one alternative per issue, and a player's utility
for an outcome is the sum of her per-issue utilities (preferences are additive
across issues).

An instance checks itself when built and raises InstanceFormatError with
every structural defect, so no negative, ragged or empty instance exists.

Every per-player quantity is unchanged when one player's utilities are scaled
by a positive constant, so each instance carries one integer view:
``scales[i]``, the lcm of player i's denominators; ``scaled[t][i]``, her
utilities on issue t times it; ``maxima[i][t]``, her best scaled utility on
issue t; and ``ranking[i]``, her issues by those maxima, largest first, ties
low. Readers add and compare these integers and divide by ``scales[i]`` once
per result. The factories read the view as they convert the values: a row of
plain ints is its own scaled row when its player's scale is 1, and only the
other rows are read back from their Fractions. An instance built bare derives
the view from its Fractions. Either way the check when built reads the signs
off the integer rows.

Allocating private goods is the special case with one issue per good and one
alternative per player: the alternative that hands good g to player i gives
u_i(g) to i and zero to everyone else. A GoodsInstance derives the view of
that embedding from its own matrix, with no Fraction: ``maxima[i][g]`` is
player i's scaled value for good g, and ``scaled[g][i]`` holds it at
alternative i and 0 at every other. So everything that reads the view
(mechanisms, shares, the Pareto check) takes either kind, ``Instance``.
``goods_to_public`` builds the embedding itself as a DecisionInstance;
``outcome_to_allocation`` and ``allocation_to_outcome`` move between outcomes
and allocations (the chosen alternative index of a reduced issue is the
recipient of the good).

Inputs and results are ``fractions.Fraction``. Nothing in this package rounds.
Instances, outcomes and allocations are immutable once built.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import lcm
from typing import Iterable, Iterator, Sequence, Union

from .errors import InstanceFormatError

RationalLike = Union[Fraction, int, str]

# an integer, "p/q", or a decimal with an optional exponent, in ASCII digits:
# what Fraction reads, less surrounding whitespace and underscores
_NUMBER_RE = re.compile(
    r"[+-]?(?:[0-9]+/[0-9]+|(?=\.?[0-9])[0-9]*(?:\.[0-9]*)?(?:[eE]([+-]?[0-9]+))?)"
)


class TooManyDigits(ValueError):
    """A value whose exact form has more digits than ``io.to_json`` writes."""


def exact_value(text: str) -> Fraction:
    """The exact value of an integer, "p/q" or decimal string. Raises
    TooManyDigits when its numerator or denominator has more digits than
    int-to-string conversion allows (sys.get_int_max_str_digits(), 0 for no
    limit), and ValueError when ``text`` is none of those forms or a "p/q"
    with q = 0."""
    number = _NUMBER_RE.fullmatch(text)
    if number is None:
        raise ValueError(f"not a number: {text!r}")
    limit = sys.get_int_max_str_digits()
    if limit and number[1] and abs(int(number[1])) > 3 * limit:
        # Fraction reads at most 2 * limit mantissa digits, so a non-zero value
        # needs more than ``limit`` digits here; do not build 10**exponent
        mantissa = Fraction(text[: number.start(1)] + "0")
        if mantissa:
            raise TooManyDigits(text)
        return mantissa
    try:
        result = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    try:
        str(result)  # the conversion io.to_json makes
    except ValueError:
        raise TooManyDigits(text)
    return result


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, "p/q" string, decimal string, or Fraction to Fraction;
    a string is read by ``exact_value``."""
    if isinstance(value, bool):
        raise TypeError("booleans are not utilities")
    if isinstance(value, str):
        return exact_value(value)
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class _WholeValues(dict):
    """Each int met in one build, mapped to one shared Fraction."""

    def __missing__(self, value: int) -> Fraction:
        self[value] = result = Fraction(value)
        return result


def _read_rows(matrix: Iterable[Iterable[RationalLike]], whole: _WholeValues):
    """The rows of one utility matrix as Fractions, and each row's ints when it
    holds only ints (bool is not int here), else None."""
    matrix = [*map(tuple, matrix)]
    ints = [row if {*map(type, row)} <= {int} else None for row in matrix]
    return tuple(
        tuple(map(as_fraction if whole_row is None else whole.__getitem__, row))
        for row, whole_row in zip(matrix, ints)
    ), ints


def _scaled_rows(rows_by_player, ints_by_player=None) -> tuple[tuple[int, ...], list]:
    """Each player's scale, the lcm of her denominators, and her rows times it.
    A row read from ints (held in her ints, else None, as for every row by
    default) has no denominator and is its own scaled row at scale 1: none of
    its Fractions is read back."""
    scales, scaled = [], []
    for rows, ints in zip(rows_by_player, ints_by_player or repeat(repeat(None))):
        read = [row for row, whole in zip(rows, ints) if whole is None]
        scale = lcm(*(v.denominator for row in read for v in row))
        scales.append(scale)
        scaled.append(
            tuple(
                tuple(v.numerator * (scale // v.denominator) for v in row)
                if whole is None
                else whole if scale == 1 else tuple(map(scale.__mul__, whole))
                for row, whole in zip(rows, ints)
            )
        )
    return tuple(scales), scaled


def _public_view(issues: Sequence[Issue], n: int, ints=None) -> dict:
    """``scales`` and ``scaled`` of ``issues`` for ``n`` players, or none when
    an issue lacks a row for some player; ``ints[t][i]`` holds the ints that
    row i of issue t was read from, or None, as for every row by default."""
    if not n or any(len(issue.utilities) != n for issue in issues):
        return {}
    by_player = zip(*(issue.utilities for issue in issues))
    scales, rows = _scaled_rows(by_player, ints and zip(*ints))
    return {"scales": scales, "scaled": tuple(zip(*rows))}


def _goods_view(rows: Sequence[Sequence[Fraction]], ints=None) -> dict:
    """``scales`` and ``maxima`` of a goods matrix, ``ints`` as in _public_view."""
    scales, maxima = _scaled_rows(zip(rows), ints and zip(ints))
    return {"scales": scales, "maxima": tuple(row for row, in maxima)}


def _diagonal(rows, zero) -> tuple:
    """The goods embedding of ``rows``, one per player: for each good g, row i
    holds rows[i][g] at alternative i (g goes to i) and ``zero`` elsewhere."""
    zeros = (zero,) * len(rows)
    return tuple(
        tuple(zeros[:i] + (value,) + zeros[i + 1 :] for i, value in enumerate(column))
        for column in zip(*rows)
    )


def _built(cls, view: dict, **fields):
    """``cls(**fields)`` holding ``view``, the integer view read off its values."""
    instance = cls.__new__(cls)
    vars(instance).update(view)
    instance.__init__(**fields)
    return instance


@dataclass(frozen=True)
class Violation:
    """One structural defect of an instance, reported by InstanceFormatError.

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


class _Instance:
    """What both instance kinds share: the integer view and the check when
    built, ``n`` and ``ranking``. A public instance holds ``scales`` and
    ``scaled`` from then on, a goods one ``scales`` and ``maxima``."""

    def __post_init__(self) -> None:
        if "scales" not in vars(self):  # built bare: read every row's Fractions
            vars(self).update(
                _goods_view(self.utilities)
                if isinstance(self, GoodsInstance)
                else _public_view(self.issues, self.n)
            )
        violations = list(_violations(self))
        if violations:
            raise InstanceFormatError(
                "; ".join(f"{v.path}: {v.message}" for v in violations), violations
            )

    @property
    def n(self) -> int:
        return len(self.players)

    @cached_property
    def ranking(self) -> tuple[tuple[int, ...], ...]:
        """ranking[i]: the issues by maxima[i], largest first; the stable sort
        keeps ties in index order."""
        return tuple(
            tuple(sorted(range(len(row)), key=row.__getitem__, reverse=True))
            for row in self.maxima
        )


@dataclass(frozen=True)
class DecisionInstance(_Instance):
    """A public decision instance: players and issues, checked when built."""

    issues: tuple[Issue, ...]
    players: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.issues)

    def utility(self, player: int, issue: int, alternative: int) -> Fraction:
        return self.issues[issue].utilities[player][alternative]

    @cached_property
    def maxima(self) -> tuple[tuple[int, ...], ...]:
        """maxima[i][t]: player i's best scaled utility on issue t."""
        return tuple(
            tuple(max(rows[i]) for rows in self.scaled) for i in range(self.n)
        )


@dataclass(frozen=True)
class GoodsInstance(_Instance):
    """Indivisible private goods: an n-by-m utility matrix, checked when built."""

    utilities: tuple[tuple[Fraction, ...], ...]  # rows = players, cols = goods
    players: tuple[str, ...]
    goods: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.goods)

    def utility(self, player: int, good: int) -> Fraction:
        return self.utilities[player][good]

    @cached_property
    def scaled(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """scaled[g][i]: the embedding's view of good g for player i, maxima[i][g]
        at alternative i (the good goes to her) and 0 at every other one."""
        return _diagonal(self.maxima, 0)


Instance = DecisionInstance | GoodsInstance


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


def _labels(given: Sequence[str] | None, prefix: str, count: int) -> tuple[str, ...]:
    if given is not None:
        return tuple(given)
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
    players = _labels(players, "p", len(utilities[0]) if utilities else 0)
    names = _labels(issue_names, "issue", len(utilities))
    whole = _WholeValues()
    issues, ints = [], []
    for t, matrix in enumerate(utilities):
        rows, whole_rows = _read_rows(matrix, whole)
        alternatives = None if alternative_names is None else alternative_names[t]
        alternatives = _labels(alternatives, "a", len(rows[0]) if rows else 0)
        issues.append(Issue(utilities=rows, name=names[t], alternatives=alternatives))
        ints.append(whole_rows)
    view = _public_view(issues, len(players), ints)
    return _built(DecisionInstance, view, issues=tuple(issues), players=players)


def goods_instance(
    utilities: Sequence[Sequence[RationalLike]],
    players: Sequence[str] | None = None,
    goods: Sequence[str] | None = None,
) -> GoodsInstance:
    """Build a GoodsInstance from an n-by-m utility matrix (rows = players)."""
    rows, ints = _read_rows(utilities, _WholeValues())
    players = _labels(players, "p", len(rows))
    goods = _labels(goods, "g", len(rows[0]) if rows else 0)
    view = _goods_view(rows, ints)
    return _built(GoodsInstance, view, utilities=rows, players=players, goods=goods)


def allocation(bundles: Iterable[Iterable[int]]) -> Allocation:
    return Allocation(bundles=tuple(frozenset(b) for b in bundles))


def _row_violations(path: str, rows, signs, width: int) -> Iterator[Violation]:
    """Width and sign defects of the rows of one utility matrix at ``path``;
    ``signs[i]`` holds integers with the signs of ``rows[i]``."""
    for i, (row, ints) in enumerate(zip(rows, signs)):
        if len(row) != width:
            yield Violation(f"{path}[{i}]", f"expected {width} entries, got {len(row)}")
        if min(ints, default=0) < 0:
            for a, v in enumerate(ints):
                if v < 0:
                    yield Violation(f"{path}[{i}][{a}]", f"negative utility {row[a]}")


def _violations(instance: Instance) -> Iterator[Violation]:
    """Structural defects; none means the instance is well formed.

    Checks: n >= 1, m >= 1, every issue has k_t >= 1, every utility matrix has
    exactly n rows of consistent width, and every utility is non-negative.
    """
    n = instance.n
    if n < 1:
        yield Violation("players", "at least one player is required")
    if isinstance(instance, GoodsInstance):
        rows = instance.utilities
        if instance.m < 1:
            yield Violation("goods", "at least one good is required")
        if len(rows) != n:
            message = f"expected {n} utility rows (one per player), got {len(rows)}"
            yield Violation("utilities", message)
        yield from _row_violations("utilities", rows, instance.maxima, instance.m)
        return
    if instance.m < 1:
        yield Violation("issues", "at least one issue is required")
    signs = getattr(instance, "scaled", None) or [  # no view: the numerators
        [[v.numerator for v in row] for row in issue.utilities]
        for issue in instance.issues
    ]
    for t, issue in enumerate(instance.issues):
        k, rows, labels = issue.k, issue.utilities, issue.alternatives
        if k < 1:
            yield Violation(f"issues[{t}]", "an issue needs at least one alternative")
        if len(rows) != n:
            message = f"expected {n} rows (one per player), got {len(rows)}"
            yield Violation(f"issues[{t}].utilities", message)
        if len(labels) != k:
            message = f"expected {k} alternative labels, got {len(labels)}"
            yield Violation(f"issues[{t}].alternatives", message)
        yield from _row_violations(f"issues[{t}].utilities", rows, signs[t], k)


def goods_to_public(goods: GoodsInstance) -> DecisionInstance:
    """Embed a goods instance as a decision instance, one issue per good.

    Issue t has n alternatives; alternative i hands good t to player i, giving
    utility u_i(g_t) to player i and zero to everyone else. Outcomes of the
    image correspond bijectively to allocations with identical utilities.
    """
    diagonal = _diagonal(goods.utilities, Fraction(0))  # one zero for n(n-1)m cells
    issues = tuple(map(Issue, diagonal, goods.goods, repeat(goods.players)))
    view = {"scales": goods.scales, "scaled": goods.scaled}  # the goods' own view
    return _built(DecisionInstance, view, issues=issues, players=goods.players)


def outcome_to_allocation(goods: GoodsInstance, outcome: Outcome) -> Allocation:
    """Read an outcome of the goods embedding back as an allocation."""
    bundles = [set() for _ in range(goods.n)]
    for g, recipient in enumerate(outcome.choices):
        bundles[recipient].add(g)
    return allocation(bundles)


def allocation_to_outcome(goods: GoodsInstance, alloc: Allocation) -> Outcome:
    """Write an allocation as an outcome of the goods embedding."""
    choices = [0] * goods.m
    for i, bundle in enumerate(alloc.bundles):
        for g in bundle:
            choices[g] = i
    return Outcome(choices=tuple(choices))


def outcome_utility(instance: Instance, outcome: Outcome, player: int) -> Fraction:
    """Player's total utility for an outcome: the sum of her per-issue utilities."""
    total = sum(rows[player][c] for rows, c in zip(instance.scaled, outcome.choices))
    return Fraction(total, instance.scales[player])


def utility_vector(instance: Instance, outcome: Outcome) -> tuple[Fraction, ...]:
    return tuple(outcome_utility(instance, outcome, i) for i in range(instance.n))


def bundle_utility(goods: GoodsInstance, player: int, bundle: Iterable[int]) -> Fraction:
    row = goods.maxima[player]
    return Fraction(sum(row[g] for g in bundle), goods.scales[player])


def allocation_utilities(goods: GoodsInstance, alloc: Allocation) -> tuple[Fraction, ...]:
    return tuple(
        bundle_utility(goods, i, alloc.bundles[i]) for i in range(goods.n)
    )

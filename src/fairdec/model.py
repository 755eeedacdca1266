"""Core data model for fair public decision making.

A decision instance has n players and m issues; issue t carries k_t mutually
exclusive alternatives and an n-by-k_t matrix of non-negative rational
utilities. An outcome fixes one alternative per issue, and a player's utility
for an outcome is the sum of her per-issue utilities (preferences are additive
across issues).

An instance checks itself when built and raises InstanceFormatError with
every structural defect, so no negative, ragged or empty instance exists.

Every per-player quantity is unchanged when one player's utilities are scaled
by a positive constant, so an instance is stored as one integer view:
``scales[i]``, the lcm of player i's denominators; ``scaled[t][i]``, her
utilities on issue t times it; ``maxima[i][t]``, her best scaled utility on
issue t; and ``ranking[i]``, her issues by those maxima, largest first, ties
low, built on first read by round robin or ``GoodsInstance.best_unowned``,
its only readers (the shares sort the maxima by value). Readers add and
compare these integers and divide by ``scales[i]`` once per result.
``pick`` and ``scaled_utility`` are each kind's round robin pick and a
player's scaled utility for a choice vector. ``search_view``, built once,
is what the searches read (see ``mechanisms``): each issue's alternatives
less dominated ones, and suffix sums. The Fraction rows (``.utilities``)
are built on first read, one Fraction per distinct value. The factories check all matrices of an
instance at once, with no Python loop per row or issue: row counts, one type
set over every cell, row widths against the label counts, one least value.
An instance that passes keeps its matrices as its own view at scale 1. Else the
factory's reader (``as_fraction``, or ``io``'s document reader) reads each
row that is not all ints, and the instance is checked and viewed as a bare one
is, row by row: its view rows are new tuples of ints, never its caller's rows.

Allocating private goods is the special case with one issue per good and one
alternative per player: the alternative that hands good g to player i gives
u_i(g) to i and zero to everyone else. A GoodsInstance derives the view of
that embedding from its own matrix: ``maxima[i][g]`` is player i's scaled
value for good g, and ``scaled[g][i]`` holds it at alternative i and 0 at
every other. So everything that reads the view (mechanisms, shares, the
Pareto check) takes either kind, ``Instance``. Round robin, the shares and the
audit levels read only a goods instance's matrix; ``scaled``, n times its
size, is built on first read (each good's n-by-n block by one strided slice
assignment) by the searches, the Pareto check or ``goods_to_public``, which
builds the embedding as a DecisionInstance on it; ``outcome_to_allocation``
and ``allocation_to_outcome`` move between outcomes and allocations (the
chosen alternative of a reduced issue is the recipient of the good).

Inputs and results are ``fractions.Fraction``. Nothing in this package rounds.
Instances, outcomes and allocations are immutable once built.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from math import lcm, prod
from operator import ge
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import FairdecError, InstanceFormatError

RationalLike = Union[Fraction, int, str]

# an integer, "p/q", or a decimal with an optional exponent, in ASCII digits:
# what Fraction reads, less surrounding whitespace and underscores
_NUMBER_RE = re.compile(
    r"[+-]?(?:[0-9]+/[0-9]+|(?=\.?[0-9])[0-9]*(?:\.[0-9]*)?(?:[eE]([+-]?[0-9]+))?)"
)


class TooManyDigits(FairdecError, ValueError):
    """A value whose exact form has more digits than ``io.to_json`` writes."""


def exact_value(text: str) -> Fraction:
    """The exact value of an integer, "p/q" or decimal string. Raises
    TooManyDigits when its numerator, denominator or exponent has more digits
    than int-to-string conversion allows (sys.get_int_max_str_digits(), 0 for
    no limit), and ValueError when ``text`` is none of those forms or a "p/q"
    with q = 0."""
    number = _NUMBER_RE.fullmatch(text)
    if number is None:
        raise ValueError(f"not a number: {text!r}")
    limit, exponent = sys.get_int_max_str_digits(), number[1] or "0"
    if limit and (len(exponent.lstrip("+-")) > limit or abs(int(exponent)) > 3 * limit):
        # an exponent int() refuses, or one past 3 * limit, where a non-zero
        # value needs over ``limit`` digits: do not build 10**exponent
        mantissa = Fraction(text[: number.start(1)] + "0")
        if mantissa:
            raise TooManyDigits(text)
        return mantissa
    try:
        result = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:  # the form matched, so its digits exceed the limit
        raise TooManyDigits(text) from None
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


def _fraction(value, path: str, *index: int) -> Fraction:
    """The factories' default cell reader: ``as_fraction``, naming no place."""
    return as_fraction(value)


def _fits(matrices, n: int, widths: list[int]) -> bool:
    """Whether ``matrices`` are one or more matrices of ``n`` >= 1 rows, those
    of matrix t ``widths[t]`` >= 1 plain ints (bool is not int here), none
    negative; found by row counts, one type set over all cells, row widths and
    one least value, each a pass over every matrix at once."""
    rows = [*chain.from_iterable(matrices)]
    return (
        0 < min(n, len(matrices), *widths) and {*map(len, matrices)} == {n}
        and {*map(type, chain.from_iterable(rows))} <= {int}
        and [*map(len, rows)] == [*chain.from_iterable(map(repeat, widths, repeat(n)))]
        and min(chain.from_iterable(rows)) >= 0
    )


def _read(rows, read, path: str) -> tuple:
    """The matrix at ``path`` with each row that is not all plain ints read
    cell by cell, the cell at [i][a] as ``read(value, path, i, a)``."""
    return tuple(
        row if {*map(type, row)} <= {int}
        else tuple(read(v, path, i, a) for a, v in enumerate(row))
        for i, row in enumerate(rows)
    )


def _scaled(matrices, n: int) -> tuple:
    """Each of the ``n`` players' scales, the lcm of her denominators in
    ``matrices``, and the matrices with each of her rows times her scale, each
    row a new tuple of ints."""
    scales = tuple(lcm(*(v.denominator for m in matrices for v in m[i])) for i in range(n))
    return scales, tuple(
        tuple(
            tuple(v.numerator * (s // v.denominator) for v in row)
            for row, s in zip(rows, scales)
        )
        for rows in matrices
    )


def _made(cls, **fields):
    """A ``cls`` holding ``fields``, past its __init__ and check when built."""
    made = cls.__new__(cls)
    vars(made).update(fields)
    return made


def _unscaled(self) -> tuple:
    """Fraction ``utilities`` that a factory leaves unbuilt, built on first read
    from ``_source``: integer rows, scales and a table of shared values."""
    rows, scales, values = self._source
    built = []
    for row, scale in zip(rows, scales):
        fractions = [*map(Fraction, row, repeat(scale))]
        built.append(tuple(map(values.setdefault, fractions, fractions)))
    return tuple(built)


class _Frozen:
    """Fields named by the class's annotations, given in order or by name and
    never reassigned, compared and hashed as a tuple within one class, shown
    as ``Name(field=value, ...)``. Unlike a NamedTuple it keeps a ``__dict__``
    for what is built on first read; pickle and copy fill that directly."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__) or cls._fields

    def __init__(self, *args, **kwargs) -> None:
        fields, given = self._fields, len(args) + len(kwargs)
        if given != len(fields) or not kwargs.keys() <= {*fields[len(args):]}:
            raise TypeError(f"{type(self).__name__} takes {', '.join(fields)}")
        vars(self).update(zip(fields, args), **kwargs)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__name__}({', '.join(shown)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Violation(NamedTuple):
    """One structural defect of an instance, reported by InstanceFormatError.

    Attributes:
        path: index path into the offending field, e.g. "issues[2].utilities[0][1]".
        message: human-readable description of the defect.
    """

    path: str
    message: str


class Issue(_Frozen):
    """One issue: a label, alternative labels, and an n-by-k utility matrix."""

    # rows = players, cols = alternatives; a bare issue's own rows shadow these
    utilities: tuple[tuple[Fraction, ...], ...] = cached_property(_unscaled)
    name: str
    alternatives: tuple[str, ...]

    @property
    def k(self) -> int:
        return len(self.alternatives)


class _Instance(_Frozen):
    """What both instance kinds share: the check when built bare, ``n`` and
    ``ranking``. A public instance holds ``scales`` and ``scaled``, a goods
    one ``scales`` and ``maxima``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)  # built bare: the view is read off checked rows
        violations = list(_violations(self))
        if violations:
            raise InstanceFormatError(
                "; ".join(f"{v.path}: {v.message}" for v in violations), violations
            )
        if isinstance(self, GoodsInstance):
            scales, (maxima,) = _scaled([self.utilities], self.n)
            vars(self).update(scales=scales, maxima=maxima)
        else:
            scales, scaled = _scaled([issue.utilities for issue in self.issues], self.n)
            vars(self).update(scales=scales, scaled=scaled)

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

    @cached_property
    def search_view(self) -> tuple:
        """Per issue, the alternatives the searches descend and their vectors
        over all players, then suffix[t][i], the sum of maxima[i][t:], t <= m.
        An issue of k alternatives drops those pointwise at most an earlier one,
        unless k * k exceeds the outcome space, which bounds a search's nodes."""
        space, kept = prod(len(rows[0]) for rows in self.scaled), []
        for rows in self.scaled:
            view: dict = {}  # alternative: vector
            for a, vector in enumerate(zip(*rows)):
                if len(rows[0]) ** 2 > space or not any(
                    all(map(ge, other, vector)) for other in view.values()
                ):
                    view[a] = vector
            kept.append(view)
        sums = [*zip(*(accumulate(reversed(row), initial=0) for row in self.maxima))]
        vectors = tuple(tuple(view.values()) for view in kept)
        return tuple(map(tuple, kept)), vectors, tuple(reversed(sums))


class DecisionInstance(_Instance):
    """A public decision instance: players and issues, checked when built."""

    issues: tuple[Issue, ...]
    players: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.issues)

    def utility(self, player: int, issue: int, alternative: int) -> Fraction:
        return Fraction(self.scaled[issue][player][alternative], self.scales[player])

    def pick(self, player: int, issue: int) -> int:
        """The lowest alternative of the issue that reaches her maximum there."""
        return self.scaled[issue][player].index(self.maxima[player][issue])

    def scaled_utility(self, player: int, choices: Sequence[int]) -> int:
        """Her scaled utility for one chosen alternative per issue."""
        return sum(rows[player][c] for rows, c in zip(self.scaled, choices))

    @cached_property
    def maxima(self) -> tuple[tuple[int, ...], ...]:
        """maxima[i][t]: player i's best scaled utility on issue t."""
        return tuple(zip(*(map(max, rows) for rows in self.scaled)))


class GoodsInstance(_Instance):
    """Indivisible private goods: an n-by-m utility matrix, checked when built."""

    # rows = players, cols = goods; a bare instance's own rows shadow these
    utilities: tuple[tuple[Fraction, ...], ...] = cached_property(_unscaled)
    players: tuple[str, ...]
    goods: tuple[str, ...]

    @property
    def m(self) -> int:
        return len(self.goods)

    def utility(self, player: int, good: int) -> Fraction:
        return Fraction(self.maxima[player][good], self.scales[player])

    def pick(self, player: int, good: int) -> int:
        """The embedding's pick, read off the matrix: the good goes to her when
        she values it, else to alternative 0, the lowest reaching her 0."""
        return player if self.maxima[player][good] else 0

    def scaled_utility(self, player: int, choices: Sequence[int]) -> int:
        """Her scaled value for the goods whose chosen alternative is hers."""
        return sum(compress(self.maxima[player], map(player.__eq__, choices)))

    def best_unowned(self, player: int, bundle) -> int:
        """The first good of her ranking outside ``bundle``, scaled; 0 if none."""
        row = self.maxima[player]
        return next((row[g] for g in self.ranking[player] if g not in bundle), 0)

    @cached_property
    def scaled(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """scaled[g][i]: the embedding's view of good g for player i, maxima[i][g]
        at alternative i (the good goes to her) and 0 at every other one."""
        n, view = self.n, []
        cells = [0] * n * n  # a good's n-by-n block; each good refills its diagonal
        for column in zip(*self.maxima):
            cells[:: n + 1] = column
            view.append(tuple(zip(*[iter(cells)] * n)))
        return tuple(view)


Instance = DecisionInstance | GoodsInstance


class Outcome(NamedTuple):
    """One chosen alternative index per issue."""

    choices: tuple[int, ...]


class Allocation(NamedTuple):
    """A partition of the goods: bundles[i] is the set of goods player i holds."""

    bundles: tuple[frozenset[int], ...]


class Pick(NamedTuple):
    """One round robin turn: who decided which issue, choosing which alternative."""

    player: int
    issue: int
    alternative: int


class MechanismResult(NamedTuple):
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


def _public(scales, scaled, players, labels) -> DecisionInstance:
    """The public instance of a checked view, ``labels`` holding each issue's
    name and alternative labels; its Fraction rows unbuilt."""
    values: dict = {}  # the table its issues share once their rows are read
    issues = tuple(
        _made(Issue, name=name, alternatives=alts, _source=(rows, scales, values))
        for rows, (name, alts) in zip(scaled, labels)
    )
    view = dict(scales=scales, scaled=scaled)
    return _made(DecisionInstance, issues=issues, players=players, **view)


def decision_instance(
    utilities: Sequence[Sequence[Sequence[RationalLike]]],
    players: Sequence[str] | None = None,
    issue_names: Sequence[str] | None = None,
    alternative_names: Sequence[Sequence[str]] | None = None,
    read: Callable[..., RationalLike] = _fraction,
) -> DecisionInstance:
    """Build a DecisionInstance from per-issue utility matrices.

    ``utilities[t][i][a]`` is player i's utility for alternative a of issue t.
    Labels default to p1.., issue1.., a1.. when omitted. A value in a row
    that is not all plain ints is read by ``read(value, path, i, a)``, with
    ``path`` "issues[t].utilities"; the default reads it by ``as_fraction``.
    """
    matrices = tuple(tuple(map(tuple, matrix)) for matrix in utilities)
    players = _labels(players, "p", len(matrices[0]) if matrices else 0)
    names = _labels(issue_names, "issue", len(matrices))
    given = [None] * len(matrices) if alternative_names is None else alternative_names
    labels = [  # indexed, so that a short list of names is an IndexError
        (names[t], _labels(given[t], "a", len(rows[0]) if rows else 0))
        for t, rows in enumerate(matrices)
    ]
    if _fits(matrices, len(players), [len(alts) for _, alts in labels]):
        return _public((1,) * len(players), matrices, players, labels)
    issues = tuple(
        Issue(_read(rows, read, f"issues[{t}].utilities"), name, alts)
        for t, (rows, (name, alts)) in enumerate(zip(matrices, labels))
    )
    bare = DecisionInstance(issues, players)  # checked and viewed bare
    return _public(bare.scales, bare.scaled, players, labels)


def goods_instance(
    utilities: Sequence[Sequence[RationalLike]],
    players: Sequence[str] | None = None,
    goods: Sequence[str] | None = None,
    read: Callable[..., RationalLike] = _fraction,
) -> GoodsInstance:
    """Build a GoodsInstance from an n-by-m utility matrix (rows = players); a
    value in a row that is not all plain ints is read as ``decision_instance``
    reads it, with ``path`` "utilities"."""
    rows = tuple(map(tuple, utilities))
    players = _labels(players, "p", len(rows))
    goods = _labels(goods, "g", len(rows[0]) if rows else 0)
    view = dict(scales=(1,) * len(players), maxima=rows)
    if not _fits([rows], len(players), [len(goods)]):
        bare = GoodsInstance(_read(rows, read, "utilities"), players, goods)
        view = dict(scales=bare.scales, maxima=bare.maxima)
    view["_source"] = (view["maxima"], view["scales"], {})
    return _made(GoodsInstance, players=players, goods=goods, **view)


def allocation(bundles: Iterable[Iterable[int]]) -> Allocation:
    return Allocation(bundles=tuple(frozenset(b) for b in bundles))


def _row_violations(path: str, rows, width: int) -> Iterator[Violation]:
    """Width and sign defects of the rows of one utility matrix at ``path``."""
    for i, row in enumerate(rows):
        if len(row) != width:
            yield Violation(f"{path}[{i}]", f"expected {width} entries, got {len(row)}")
        if min(row, default=0) < 0:
            for a, v in enumerate(row):
                if v < 0:
                    yield Violation(f"{path}[{i}][{a}]", f"negative utility {v}")


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
        yield from _row_violations("utilities", rows, instance.m)
        return
    if instance.m < 1:
        yield Violation("issues", "at least one issue is required")
    for t, issue in enumerate(instance.issues):
        rows, labels = issue.utilities, issue.alternatives
        k = len(rows[0]) if rows else 0
        if k < 1:
            yield Violation(f"issues[{t}]", "an issue needs at least one alternative")
        if len(rows) != n:
            message = f"expected {n} rows (one per player), got {len(rows)}"
            yield Violation(f"issues[{t}].utilities", message)
        if len(labels) != k:
            message = f"expected {k} alternative labels, got {len(labels)}"
            yield Violation(f"issues[{t}].alternatives", message)
        yield from _row_violations(f"issues[{t}].utilities", rows, k)


def goods_to_public(goods: GoodsInstance) -> DecisionInstance:
    """Embed a goods instance as a decision instance, one issue per good.

    Issue t has n alternatives; alternative i hands good t to player i, giving
    utility u_i(g_t) to player i and zero to everyone else. Outcomes of the
    image correspond bijectively to allocations with identical utilities. The
    image is built on the goods' own view.
    """
    labels = zip(goods.goods, repeat(goods.players))
    return _public(goods.scales, goods.scaled, goods.players, labels)


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
    total = instance.scaled_utility(player, outcome.choices)
    return Fraction(total, instance.scales[player])


def utility_vector(instance: Instance, outcome: Outcome) -> tuple[Fraction, ...]:
    return tuple(outcome_utility(instance, outcome, i) for i in range(instance.n))


def bundle_utility(goods: GoodsInstance, player: int, bundle: Iterable[int]) -> Fraction:
    row = goods.maxima[player]
    return Fraction(sum(row[g] for g in bundle), goods.scales[player])


def allocation_utilities(goods: GoodsInstance, alloc: Allocation) -> tuple[Fraction, ...]:
    return tuple(bundle_utility(goods, i, alloc.bundles[i]) for i in range(goods.n))

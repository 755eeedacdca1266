"""JSON documents and text rendering for instances, results, and audits.

Rational values are encoded as JSON integers when whole and as canonical
"p/q" strings otherwise. On input, non-canonical forms ("2/6", "4/1", "03")
are accepted, canonicalized, and flagged with a NonCanonicalRationalWarning;
float literals and decimal strings are rejected unless ``allow_decimal`` is
set, in which case the literal digits convert exactly (0.1 becomes 1/10, not
the binary float). A number with more digits than ``int`` converts is an
InstanceFormatError with a message of its own, and so is a decimal whose
exact value ``to_json`` could not write ("1e5000"). Digits are ASCII only.

Decoding is this module's only job on input, and it type-tests no utility.
It checks a document's shape in whole-document passes, one type set each
over the issues, their label lists and matrices, their names and labels, and
the rows; only a document that fails one is read issue by issue, to name its
first defect. ``model.decision_instance`` or ``model.goods_instance`` then
builds and checks the instance, reading each value of a row that is not all
plain ints by this module's reader: a JSON integer stays an integer and a
string or decimal becomes a Fraction. No error text or path naming a value
is built unless the value is refused or warned about.

``to_json`` writes canonical output in one walk over the document: keys
sorted, two-space indents, strings escaped by ``json.encoder``'s
``encode_basestring``. Each dict shape's sorted, escaped key heads are laid
out once, in a bounded cache keyed by its keys in insertion order and its
depth, and a scalar value follows its head in the same string. A list of plain
ints or strs is joined at once; a list of non-empty plain-int rows (lists or
tuples) takes one ``%d`` format per row width, built once per matrix. Its text
equals json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) plus a
newline; any value but a str, int, bool, None, dict, list or tuple is a
TypeError. So emit-parse-emit is byte stable and parse(emit(x)) == x for every
model value. A value with more digits than int-to-string conversion allows is
a ``TooManyDigits`` from ``encode_rational`` or ``to_json`` that says so.
"""

from __future__ import annotations

import json
import re
import warnings
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, repeat
from json.encoder import encode_basestring as _string
from typing import NamedTuple

from .audit import AuditReport
from .errors import InstanceFormatError
from .model import (
    Allocation,
    GoodsInstance,
    Instance,
    MechanismResult,
    Outcome,
    TooManyDigits,
    decision_instance,
    exact_value,
    goods_instance,
)
from .private_goods import TransferTrace

_INT_RE = re.compile(r"[+-]?[0-9]+")
_RATIO_RE = re.compile(r"[+-]?[0-9]+/[0-9]+")
_TOO_LONG = "a result value has more digits than a document can hold"


class NonCanonicalRationalWarning(UserWarning):
    """A rational value was readable but not in canonical form."""


def encode_rational(value: Fraction) -> int | str:
    """An int when whole, else "p/q"; TooManyDigits, whole or not, when a part
    has more digits than int-to-string conversion allows."""
    try:
        text = f"{value.numerator}/{value.denominator}"
    except ValueError:  # a part past sys.get_int_max_str_digits()
        raise TooManyDigits(_TOO_LONG) from None
    return int(value) if value.denominator == 1 else text


def _at(path: str, index: tuple[int, ...]) -> str:
    return path + "".join(f"[{k}]" for k in index)


def _decode_rational(value, path: str, *index: int, allow_decimal: bool):
    """Read one rational: an int stays an int, any other value becomes a
    Fraction. Errors and warnings name it as ``path`` followed by ``[k]`` for
    each ``k`` in ``index``, a string built only for them."""
    if isinstance(value, bool):
        raise InstanceFormatError(f"{_at(path, index)}: booleans are not numbers")
    if isinstance(value, (int, Fraction)):  # a Fraction comes from the float hook
        return value
    if not isinstance(value, str):
        message = f"cannot read {value!r} as a number"
        raise InstanceFormatError(f"{_at(path, index)}: {message}")
    plain = _INT_RE.fullmatch(value) or _RATIO_RE.fullmatch(value)
    if not (plain or allow_decimal):
        raise InstanceFormatError(
            f"{_at(path, index)}: {value!r} is not an integer or \"p/q\" string "
            f"(decimals need the lossless-decimal option)"
        )
    try:
        result = exact_value(value)
    except TooManyDigits:
        exact = "" if plain else "the exact value of "
        raise InstanceFormatError(
            f"{_at(path, index)}: too many digits in {exact}a "
            f"{len(value)}-character number"
        )
    except ValueError as exc:  # a zero denominator, or no number at all
        message = exc if plain else f"cannot read {value!r} as a number"
        raise InstanceFormatError(f"{_at(path, index)}: {message}")
    if plain and ("/" not in value or encode_rational(result) != value):
        message = (
            f"whole number written as string {value!r}; "
            f"canonical form is the JSON integer {result}"
            if "/" not in value
            else f"non-canonical rational {value!r} read as {encode_rational(result)}"
        )
        where = _at(path, index)
        warnings.warn(f"{where}: {message}", NonCanonicalRationalWarning, stacklevel=2)
    return result


def read_value(text: str, path: str) -> Fraction:
    """Read one value given outside a document, such as an option, by the
    rules of a document read with ``allow_decimal``; errors and warnings name
    it as ``path``."""
    return _decode_rational(text, path, allow_decimal=True)


def _loads(text: str | bytes, allow_decimal: bool):
    def float_hook(literal: str):
        if allow_decimal:
            return exact_value(literal)
        raise InstanceFormatError(
            f"float literal {literal} in document; use integers or \"p/q\" "
            f"strings, or pass the lossless-decimal option"
        )

    try:
        return json.loads(text, parse_float=float_hook)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"malformed JSON: {exc}") from exc
    except InstanceFormatError:
        raise
    except ValueError as exc:  # a number literal with more digits than int() converts
        raise InstanceFormatError(
            "malformed JSON: a number literal has too many digits"
        ) from exc
    except RecursionError as exc:
        raise InstanceFormatError("malformed JSON: nested too deeply") from exc


def _string_list(value, path: str) -> tuple[str, ...]:
    if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
        raise InstanceFormatError(f"{path}: expected a list of strings")
    return tuple(value)


def _rows(rows, path: str, expected: str) -> None:
    """Refuse the utility matrix at ``path`` unless it is a list of lists;
    ``expected`` says what it should be."""
    if not isinstance(rows, list):
        raise InstanceFormatError(f"{path}: expected {expected}")
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise InstanceFormatError(f"{path}[{i}]: expected a list")


def _issue_fields(issues: list) -> list[list]:
    """The names, label lists and utility matrices of a list of issues, found
    well formed by one type set each over the issues, the label lists and
    matrices, the names and labels, and the rows. Only when a set holds a
    wrong type are the issues read one by one, to name the first defect."""
    if {*map(type, issues)} <= {dict}:
        keys = ("name", "alternatives", "utilities")
        fields = [[*map(dict.get, issues, repeat(key))] for key in keys]
        names, labels, matrices = fields
        if (
            {*map(type, chain(labels, matrices))} <= {list}
            and {*map(type, chain(names, *labels))} <= {str}
            and {*map(type, chain(*matrices))} <= {list}
        ):
            return fields
    for t, issue in enumerate(issues):
        if not isinstance(issue, dict):
            raise InstanceFormatError(f"issues[{t}]: expected an object")
        if not isinstance(issue.get("name"), str):
            raise InstanceFormatError(f"issues[{t}].name: expected a string")
        _string_list(issue.get("alternatives"), f"issues[{t}].alternatives")
        _rows(issue.get("utilities"), f"issues[{t}].utilities", "a list")


def parse_instance(text: str | bytes, allow_decimal: bool = False) -> Instance:
    """Read an instance document; raises InstanceFormatError on any defect,
    including the structural ones an instance reports when it is built."""
    data = _loads(text, allow_decimal)
    if not isinstance(data, dict):
        raise InstanceFormatError("top level must be an object")
    kind = data.get("kind")
    if kind not in ("public", "goods"):
        raise InstanceFormatError('kind must be "public" or "goods"')
    players = _string_list(data.get("players"), "players")
    read = partial(_decode_rational, allow_decimal=allow_decimal)
    if kind == "goods":
        goods = _string_list(data.get("goods"), "goods")
        rows = data.get("utilities")
        _rows(rows, "utilities", "a list of rows")
        return goods_instance(rows, players, goods, read=read)
    issues = data.get("issues")
    if not isinstance(issues, list):
        raise InstanceFormatError("issues: expected a list")
    names, labels, matrices = _issue_fields(issues)
    return decision_instance(matrices, players, names, labels, read=read)


class ParsedResult(NamedTuple):
    """A result document reduced to what an audit needs."""

    outcome: Outcome | None
    allocation: Allocation | None


def _integers(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    )


def parse_result(text: str | bytes) -> ParsedResult:
    data = _loads(text, allow_decimal=True)
    if not isinstance(data, dict):
        raise InstanceFormatError("top level must be an object")
    mechanism = data.get("mechanism")
    if not (mechanism is None or isinstance(mechanism, str)):
        raise InstanceFormatError("mechanism: expected a string")
    if "choices" in data:
        choices = data["choices"]
        if not _integers(choices):
            raise InstanceFormatError("choices: expected a list of integers")
        return ParsedResult(outcome=Outcome(choices=tuple(choices)), allocation=None)
    if "bundles" in data:
        bundles = data["bundles"]
        if not isinstance(bundles, list):
            raise InstanceFormatError("bundles: expected a list of lists")
        seen: set[int] = set()
        parsed = []
        for i, bundle in enumerate(bundles):
            if not _integers(bundle):
                raise InstanceFormatError(f"bundles[{i}]: expected a list of integers")
            duplicates = seen & set(bundle)
            if duplicates or len(set(bundle)) != len(bundle):
                message = f"goods allocated twice: {sorted(duplicates) or bundle}"
                raise InstanceFormatError(f"bundles[{i}]: {message}")
            seen |= set(bundle)
            parsed.append(frozenset(bundle))
        return ParsedResult(outcome=None, allocation=Allocation(bundles=tuple(parsed)))
    raise InstanceFormatError('result needs "choices" or "bundles"')


def _rows_document(rows, scales) -> list:
    """Integer rows, each over its player's scale, as a document writes them;
    a row at scale 1 is the view's own tuple, not a copy."""
    return [
        row if scale == 1 else [encode_rational(Fraction(v, scale)) for v in row]
        for row, scale in zip(rows, scales)
    ]


def instance_document(instance: Instance) -> dict:
    """The document of an instance, written from its integer view."""
    if isinstance(instance, GoodsInstance):
        return {
            "kind": "goods",
            "players": list(instance.players),
            "goods": list(instance.goods),
            "utilities": _rows_document(instance.maxima, instance.scales),
        }
    return {
        "kind": "public",
        "players": list(instance.players),
        "issues": [
            {
                "name": issue.name,
                "alternatives": list(issue.alternatives),
                "utilities": _rows_document(rows, instance.scales),
            }
            for issue, rows in zip(instance.issues, instance.scaled)
        ],
    }


def mechanism_trace(result: MechanismResult) -> dict | None:
    trace: dict = {}
    if result.picks is not None:
        trace["picks"] = [p._asdict() for p in result.picks]
    if result.support is not None:
        trace["support"] = list(result.support)
    if result.normalization is not None:
        trace["normalization"] = [
            None if d is None else encode_rational(d) for d in result.normalization
        ]
    return trace or None


def result_document(result: MechanismResult, audit_doc: dict | None = None) -> dict:
    doc = {
        "kind": "public-result",
        "mechanism": result.mechanism,
        "choices": list(result.outcome.choices),
        "utilities": [encode_rational(u) for u in result.utilities],
        "trace": mechanism_trace(result),
    }
    if audit_doc is not None:
        doc["audit"] = audit_doc
    return doc


def bundles_document(alloc: Allocation) -> list[list[int]]:
    return [sorted(b) for b in alloc.bundles]


def transfer_trace_document(trace: TransferTrace) -> dict:
    rounds = [
        {
            "dec": [list(snapshot) for snapshot in r.dec_snapshots],
            "reductions": [
                {**red._asdict(), "factor": encode_rational(red.factor)}
                for red in r.reductions
            ],
            "transfers": [t._asdict() for t in r.transfers],
        }
        for r in trace.rounds
    ]
    return {"initial_bundles": bundles_document(trace.initial), "rounds": rounds}


def goods_result_document(
    mechanism: str,
    alloc: Allocation,
    utilities: tuple[Fraction, ...],
    trace: dict | None = None,
    audit_doc: dict | None = None,
) -> dict:
    doc = {
        "kind": "goods-result",
        "mechanism": mechanism,
        "bundles": bundles_document(alloc),
        "utilities": [encode_rational(u) for u in utilities],
        "trace": trace,
    }
    if audit_doc is not None:
        doc["audit"] = audit_doc
    return doc


def _axiom_document(check) -> dict:
    return {
        "satisfied": check.satisfied,
        "alpha": "unbounded" if check.alpha is None else encode_rational(check.alpha),
    }


# the text labels of PlayerAudit's axiom fields, in field order; None fields
# are left out of both renderings
_AXIOM_LABELS = ("Prop", "Prop1", "RRS", "PPS", "MMS", "EF", "EF1")


def _witness(witness: Outcome | Allocation) -> tuple[str, list]:
    """A Pareto witness as its kind, "bundles" or "choices", and its list."""
    if isinstance(witness, Allocation):
        return "bundles", bundles_document(witness)
    return "choices", list(witness.choices)


def audit_document(report: AuditReport) -> dict:
    players = [
        {
            field: _axiom_document(check)
            for field, check in zip(player._fields, player)
            if check is not None
        }
        for player in report.players
    ]
    po = None if report.po is None else {"satisfied": report.po.satisfied}
    if po is not None and report.po.witness is not None:
        kind, shown = _witness(report.po.witness)
        po["witness_" + kind] = shown
    return {
        "kind": "audit",
        "utilities": [encode_rational(u) for u in report.utilities],
        "players": players,
        "po": po,
    }


# The writer of each scalar type; a str or int subclass is written as its
# base type is, by the isinstance branches of ``_emit``.
_LITERALS = {None: "null", True: "true", False: "false"}
_SCALARS = {str: _string, int: int.__repr__, bool: _LITERALS.get, type(None): _LITERALS.get}


@lru_cache(maxsize=256)
def _heads(keys: tuple, newline: str) -> tuple[tuple[object, str], ...]:
    """Each of a dict's ``keys`` in sorted order, with the text that opens or
    follows a comma before its value at the depth ``newline`` breaks to."""
    heads, sep = [], "{" + newline + "  "
    for key in sorted(keys):
        heads.append((key, sep + _string(key) + ": "))
        sep = "," + newline + "  "
    return tuple(heads)


def _emit(value, parts: list[str], newline: str) -> None:
    """Append the JSON text of ``value`` to ``parts``; ``newline`` breaks the
    line and indents it to the depth ``value`` sits at."""
    write = _SCALARS.get(type(value))
    if write is not None:
        parts.append(write(value))
    elif isinstance(value, dict):
        inner = newline + "  "
        for key, head in _heads(tuple(value), newline):
            item = value[key]
            write = _SCALARS.get(type(item))
            if write is None:
                parts.append(head)
                _emit(item, parts, inner)
            else:
                parts.append(head + write(item))
        parts.append(newline + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner, sep = newline + "  ", "[" + newline + "  "
        types = {*map(type, value)}
        if types == {int} or types == {str}:
            parts.append(sep + ("," + inner).join(map(_SCALARS[types.pop()], value)))
        elif types <= {list, tuple} and all(value) and (
            {*map(type, chain(*value))} == {int}
        ):
            cell, width, rows = "," + inner + "  ", 0, []
            for row in value:  # one %d format, rebuilt only for another width
                if len(row) != width:
                    width = len(row)
                    form = f"[{inner}  {cell.join(repeat('%d', width))}{inner}]"
                rows.append(form % tuple(row))
            parts.append(sep + ("," + inner).join(rows))
        else:
            for item in value:
                parts.append(sep)
                _emit(item, parts, inner)
                sep = "," + inner
        parts.append(newline + "]" if value else "[]")
    elif isinstance(value, str):
        parts.append(_string(value))
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    else:
        raise TypeError(f"{type(value).__name__} is not a JSON value")


def to_json(doc) -> str:
    parts: list[str] = []
    try:
        _emit(doc, parts, "\n")
    except ValueError:  # an int past sys.get_int_max_str_digits()
        raise TooManyDigits(_TOO_LONG) from None
    parts.append("\n")
    return "".join(parts)


def render_audit_text(
    report: AuditReport, players: tuple[str, ...] | None = None
) -> str:
    """Plain-text audit rendering, one axiom per line."""
    lines = []
    for i, player in enumerate(report.players):
        name = players[i] if players else f"p{i + 1}"
        lines.append(f"{name}: utility {encode_rational(report.utilities[i])}")
        for label, check in zip(_AXIOM_LABELS, player):
            if check is None:
                continue
            alpha = check.alpha
            level = "α unbounded" if alpha is None else f"α = {encode_rational(alpha)}"
            verdict = "satisfied" if check.satisfied else "VIOLATED"
            lines.append(f"  {label}: {verdict} ({level})")
    if report.po is not None:
        if report.po.satisfied:
            lines.append("PO: satisfied (no dominating alternative)")
        else:
            kind, shown = _witness(report.po.witness)
            lines.append(f"PO: VIOLATED (dominated by {kind} {shown})")
    return "\n".join(lines) + "\n"

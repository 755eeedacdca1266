"""JSON documents and text rendering for instances, results, and audits.

Rational values are encoded as JSON integers when whole and as canonical
"p/q" strings otherwise. On input, non-canonical forms ("2/6", "4/1", "03")
are accepted, canonicalized, and flagged with a NonCanonicalRationalWarning;
float literals and decimal strings are rejected unless ``allow_decimal`` is
set, in which case the literal digits convert exactly (0.1 becomes 1/10, not
the binary float).

``to_json`` output is canonical (sorted keys, fixed indentation), so
emit-parse-emit is byte stable and parse(emit(x)) == x for every model value.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .audit import AuditReport
from .errors import InstanceFormatError
from .model import (
    Allocation,
    DecisionInstance,
    GoodsInstance,
    Issue,
    MechanismResult,
    Outcome,
    require_valid,
)
from .private_goods import TransferTrace

_INT_RE = re.compile(r"[+-]?\d+")
_RATIO_RE = re.compile(r"[+-]?\d+/\d+")


class NonCanonicalRationalWarning(UserWarning):
    """A rational value was readable but not in canonical form."""


def encode_rational(value: Fraction) -> int | str:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _decode_rational(value, path: str, allow_decimal: bool) -> Fraction:
    if isinstance(value, bool):
        raise InstanceFormatError(f"{path}: booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        # produced by the float hook, which only fires under allow_decimal
        return value
    if isinstance(value, str):
        if _INT_RE.fullmatch(value):
            result = Fraction(value)
            warnings.warn(
                f"{path}: whole number written as string {value!r}; "
                f"canonical form is the JSON integer {int(result)}",
                NonCanonicalRationalWarning,
                stacklevel=2,
            )
            return result
        if _RATIO_RE.fullmatch(value):
            try:
                result = Fraction(value)
            except ZeroDivisionError:
                raise InstanceFormatError(f"{path}: zero denominator in {value!r}")
            if encode_rational(result) != value:
                warnings.warn(
                    f"{path}: non-canonical rational {value!r} read as "
                    f"{encode_rational(result)}",
                    NonCanonicalRationalWarning,
                    stacklevel=2,
                )
            return result
        if allow_decimal:
            try:
                return Fraction(value)
            except ValueError:
                raise InstanceFormatError(f"{path}: cannot read {value!r} as a number")
        raise InstanceFormatError(
            f"{path}: {value!r} is not an integer or \"p/q\" string "
            f"(decimals need the lossless-decimal option)"
        )
    raise InstanceFormatError(f"{path}: cannot read {value!r} as a number")


def _loads(text: str | bytes, allow_decimal: bool):
    def float_hook(literal: str):
        if allow_decimal:
            return Fraction(literal)
        raise InstanceFormatError(
            f"float literal {literal} in document; use integers or \"p/q\" "
            f"strings, or pass the lossless-decimal option"
        )

    try:
        return json.loads(text, parse_float=float_hook)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"malformed JSON: {exc}") from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InstanceFormatError(message)


def _string_list(value, path: str) -> tuple[str, ...]:
    _require(
        isinstance(value, list) and all(isinstance(s, str) for s in value),
        f"{path}: expected a list of strings",
    )
    return tuple(value)


def parse_instance(
    text: str | bytes, allow_decimal: bool = False
) -> DecisionInstance | GoodsInstance:
    """Read an instance document; raises InstanceFormatError on any defect."""
    data = _loads(text, allow_decimal)
    _require(isinstance(data, dict), "top level must be an object")
    kind = data.get("kind")
    if kind == "goods":
        players = _string_list(data.get("players"), "players")
        goods = _string_list(data.get("goods"), "goods")
        rows = data.get("utilities")
        _require(isinstance(rows, list), "utilities: expected a list of rows")
        matrix = []
        for i, row in enumerate(rows):
            _require(isinstance(row, list), f"utilities[{i}]: expected a list")
            matrix.append(
                tuple(
                    _decode_rational(v, f"utilities[{i}][{g}]", allow_decimal)
                    for g, v in enumerate(row)
                )
            )
        instance = GoodsInstance(
            utilities=tuple(matrix), players=players, goods=goods
        )
    elif kind == "public":
        players = _string_list(data.get("players"), "players")
        raw_issues = data.get("issues")
        _require(isinstance(raw_issues, list), "issues: expected a list")
        issues = []
        for t, raw in enumerate(raw_issues):
            _require(isinstance(raw, dict), f"issues[{t}]: expected an object")
            name = raw.get("name")
            _require(isinstance(name, str), f"issues[{t}].name: expected a string")
            alternatives = _string_list(
                raw.get("alternatives"), f"issues[{t}].alternatives"
            )
            rows = raw.get("utilities")
            _require(
                isinstance(rows, list), f"issues[{t}].utilities: expected a list"
            )
            matrix = []
            for i, row in enumerate(rows):
                _require(
                    isinstance(row, list), f"issues[{t}].utilities[{i}]: expected a list"
                )
                matrix.append(
                    tuple(
                        _decode_rational(
                            v, f"issues[{t}].utilities[{i}][{a}]", allow_decimal
                        )
                        for a, v in enumerate(row)
                    )
                )
            issues.append(
                Issue(utilities=tuple(matrix), name=name, alternatives=alternatives)
            )
        instance = DecisionInstance(issues=tuple(issues), players=players)
    else:
        raise InstanceFormatError('kind must be "public" or "goods"')

    require_valid(instance)
    return instance


@dataclass(frozen=True)
class ParsedResult:
    """A result document reduced to what an audit needs."""

    outcome: Outcome | None
    allocation: Allocation | None


def parse_result(text: str | bytes) -> ParsedResult:
    data = _loads(text, allow_decimal=True)
    _require(isinstance(data, dict), "top level must be an object")
    mechanism = data.get("mechanism")
    _require(
        mechanism is None or isinstance(mechanism, str),
        "mechanism: expected a string",
    )
    if "choices" in data:
        choices = data["choices"]
        _require(
            isinstance(choices, list)
            and all(isinstance(c, int) and not isinstance(c, bool) for c in choices),
            "choices: expected a list of integers",
        )
        return ParsedResult(outcome=Outcome(choices=tuple(choices)), allocation=None)
    if "bundles" in data:
        bundles = data["bundles"]
        _require(isinstance(bundles, list), "bundles: expected a list of lists")
        seen: set[int] = set()
        parsed = []
        for i, bundle in enumerate(bundles):
            _require(
                isinstance(bundle, list)
                and all(isinstance(g, int) and not isinstance(g, bool) for g in bundle),
                f"bundles[{i}]: expected a list of integers",
            )
            duplicates = seen & set(bundle)
            _require(
                not duplicates and len(set(bundle)) == len(bundle),
                f"bundles[{i}]: goods allocated twice: {sorted(duplicates) or bundle}",
            )
            seen |= set(bundle)
            parsed.append(frozenset(bundle))
        return ParsedResult(outcome=None, allocation=Allocation(bundles=tuple(parsed)))
    raise InstanceFormatError('result needs "choices" or "bundles"')


def instance_document(instance: DecisionInstance | GoodsInstance) -> dict:
    if isinstance(instance, GoodsInstance):
        return {
            "kind": "goods",
            "players": list(instance.players),
            "goods": list(instance.goods),
            "utilities": [
                [encode_rational(v) for v in row] for row in instance.utilities
            ],
        }
    return {
        "kind": "public",
        "players": list(instance.players),
        "issues": [
            {
                "name": issue.name,
                "alternatives": list(issue.alternatives),
                "utilities": [
                    [encode_rational(v) for v in row] for row in issue.utilities
                ],
            }
            for issue in instance.issues
        ],
    }


def mechanism_trace(result: MechanismResult) -> dict | None:
    trace: dict = {}
    if result.picks is not None:
        trace["picks"] = [
            {"player": p.player, "issue": p.issue, "alternative": p.alternative}
            for p in result.picks
        ]
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
    return {
        "initial_bundles": bundles_document(trace.initial),
        "rounds": [
            {
                "dec": [list(snapshot) for snapshot in r.dec_snapshots],
                "reductions": [
                    {
                        "donor": red.donor,
                        "recipient": red.recipient,
                        "good": red.good,
                        "factor": encode_rational(red.factor),
                        "degenerate": red.degenerate,
                    }
                    for red in r.reductions
                ],
                "transfers": [
                    {"donor": t.donor, "recipient": t.recipient, "good": t.good}
                    for t in r.transfers
                ],
            }
            for r in trace.rounds
        ],
    }


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


# PlayerAudit's axiom fields and their text labels; None fields are left out.
_AXIOM_LABELS = (
    ("prop", "Prop"),
    ("prop1", "Prop1"),
    ("rrs", "RRS"),
    ("pps", "PPS"),
    ("mms", "MMS"),
    ("ef", "EF"),
    ("ef1", "EF1"),
)


def audit_document(report: AuditReport) -> dict:
    players = [
        {
            field: _axiom_document(getattr(player, field))
            for field, _ in _AXIOM_LABELS
            if getattr(player, field) is not None
        }
        for player in report.players
    ]
    doc: dict = {
        "kind": "audit",
        "utilities": [encode_rational(u) for u in report.utilities],
        "players": players,
    }
    if report.po is None:
        doc["po"] = None
    else:
        po: dict = {"satisfied": report.po.satisfied}
        if isinstance(report.po.witness, Outcome):
            po["witness_choices"] = list(report.po.witness.choices)
        elif isinstance(report.po.witness, Allocation):
            po["witness_bundles"] = bundles_document(report.po.witness)
        doc["po"] = po
    return doc


def to_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def render_audit_text(
    report: AuditReport, players: tuple[str, ...] | None = None
) -> str:
    """Plain-text audit rendering, one axiom per line."""
    lines = []
    for i, player in enumerate(report.players):
        name = players[i] if players else f"p{i + 1}"
        lines.append(f"{name}: utility {encode_rational(report.utilities[i])}")
        for field, label in _AXIOM_LABELS:
            check = getattr(player, field)
            if check is None:
                continue
            level = (
                "α unbounded"
                if check.alpha is None
                else f"α = {encode_rational(check.alpha)}"
            )
            verdict = "satisfied" if check.satisfied else "VIOLATED"
            lines.append(f"  {label}: {verdict} ({level})")
    if report.po is not None:
        if report.po.satisfied:
            lines.append("PO: satisfied (no dominating alternative)")
        elif isinstance(report.po.witness, Allocation):
            lines.append(
                f"PO: VIOLATED (dominated by bundles "
                f"{bundles_document(report.po.witness)})"
            )
        else:
            lines.append(
                f"PO: VIOLATED (dominated by choices "
                f"{list(report.po.witness.choices)})"
            )
    return "\n".join(lines) + "\n"

"""The CLI's solve and audit pipelines rebuilt from each module's public
functions, with a span around every call into a layer.

``run_op`` must write the same bytes as ``fairdec.cli.main`` for the same
arguments; ``run.py`` checks that on every traced operation. It parses the
arguments with the CLI's own parser, so argparse and the file reads and
writes are the part of the traced wall time that no layer span covers
(``cli.self_s``). Two differences from the CLI are deliberate: the audit is
split into ``audit.report`` (called with ``po_cap=None``) and ``audit.po``
(``check_pareto_optimal`` with the CLI's cap), and the result-shape check of
``fairdec audit`` is left to the audit functions, which repeat it.

Layer names are the module names. ``oracles`` is never timed, and
``generators`` runs only in set-up.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from pathlib import Path

from fairdec import cli, io
from fairdec.audit import ParetoCheck, audit, audit_goods, check_pareto_optimal
from fairdec.mechanisms import leximin, max_nash_welfare, round_robin
from fairdec.model import (
    GoodsInstance,
    allocation_to_outcome,
    allocation_utilities,
    goods_to_public,
    outcome_to_allocation,
)
from fairdec.oracles import outcome_space_size
from fairdec.private_goods import pps_po_allocate, prop1_po_search

MECHANISMS = {
    "round-robin": ("mechanisms.round_robin", round_robin),
    "leximin": ("mechanisms.leximin", leximin),
    "mnw": ("mechanisms.mnw", max_nash_welfare),
}


class Tracer:
    """Spans and counts, kept in memory.

    A span is (op id, layer, start, end); every span of an operation has that
    operation as its parent. Counts are integers or summed ratios' parts,
    keyed by metric name.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.op_id = -1

    def begin_op(self) -> None:
        self.op_id += 1

    def call(self, layer: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append((self.op_id, layer, start, time.perf_counter()))
        return result


def enumerated_before_witness(instance, check: ParetoCheck) -> int:
    """Outcomes ``check_pareto_optimal`` enumerated: the lexicographic rank of
    its first witness plus one, or the whole space when there is none."""
    if check.witness is None:
        return outcome_space_size(instance)
    rank = 0
    for issue, choice in zip(instance.issues, check.witness.choices):
        rank = rank * issue.k + choice
    return rank + 1


def _report(tr: Tracer, args, instance, outcome=None, alloc=None):
    options = dict(with_mms=args.with_mms, mms_cap=args.mms_cap, po_cap=None)
    if isinstance(instance, GoodsInstance):
        report = tr.call("audit.report", audit_goods, instance, alloc, **options)
    else:
        report = tr.call("audit.report", audit, instance, outcome, **options)
    if args.po_cap is None:
        return report
    if isinstance(instance, GoodsInstance):
        image = tr.call("model.embed", goods_to_public, instance)
        base = tr.call("model.embed", allocation_to_outcome, instance, alloc)
    else:
        image, base = instance, outcome
    check = tr.call("audit.po", check_pareto_optimal, image, base, cap=args.po_cap)
    tr.counts["audit.po.space"] += enumerated_before_witness(image, check)
    tr.counts["audit.po.checks"] += 1
    tr.counts["audit.po.refuted"] += not check.satisfied
    if isinstance(instance, GoodsInstance) and check.witness is not None:
        witness = tr.call("model.embed", outcome_to_allocation, instance, check.witness)
        check = ParetoCheck(satisfied=False, witness=witness)
    return dataclasses.replace(report, po=check)


def _audit_doc(tr: Tracer, args, instance, outcome=None, alloc=None) -> dict | None:
    if not args.with_audit:
        return None
    report = _report(tr, args, instance, outcome=outcome, alloc=alloc)
    return tr.call("io.emit", io.audit_document, report)


def _parse(tr: Tracer, text: str, fn, **kwargs):
    tr.counts["io.parse.bytes"] += len(text.encode())
    return tr.call("io.parse", fn, text, **kwargs)


def _emit(tr: Tracer, fn, *args, **kwargs) -> str:
    text = tr.call("io.emit", fn, *args, **kwargs)
    tr.counts["io.emit.bytes"] += len(text.encode())
    return text


def _goods_trace_doc(weights, trace, **extra) -> dict:
    return {
        "weights": [io.encode_rational(w) for w in weights],
        **extra,
        **io.transfer_trace_document(trace),
    }


def _count_transfer_trace(tr: Tracer, trace) -> None:
    rounds = trace.rounds
    tr.counts["private_goods.rounds"] += len(rounds)
    tr.counts["private_goods.reductions"] += sum(len(r.reductions) for r in rounds)
    tr.counts["private_goods.transfers"] += sum(len(r.transfers) for r in rounds)


def _solve(tr: Tracer, args):
    text = Path(args.input).read_text()
    instance = _parse(tr, text, io.parse_instance, allow_decimal=args.allow_decimal)
    goods = isinstance(instance, GoodsInstance)
    if args.mechanism == "pps-po":
        layer = "private_goods.pps_po"
        alloc, weights, trace = tr.call(layer, pps_po_allocate, instance)
        _count_transfer_trace(tr, trace)
        trace_doc = tr.call("io.emit", _goods_trace_doc, weights, trace)
        name, utilities = args.mechanism, allocation_utilities(instance, alloc)
    elif args.mechanism == "prop1-po":
        found = tr.call("private_goods.prop1_po", prop1_po_search, instance)
        alloc = found.allocation
        _count_transfer_trace(tr, found.trace)
        tr.counts["private_goods.prop1_certified"] += found.certified_prop1
        tr.counts["private_goods.prop1_losses"] += len(found.prop1_losses)
        trace_doc = tr.call(
            "io.emit",
            _goods_trace_doc,
            found.weights,
            found.trace,
            certified_prop1=found.certified_prop1,
            prop1_losses=[list(event) for event in found.prop1_losses],
        )
        name, utilities = args.mechanism, allocation_utilities(instance, alloc)
    else:
        public = instance
        if goods:
            public = tr.call("model.embed", goods_to_public, instance)
        layer, mechanism = MECHANISMS[args.mechanism]
        if args.mechanism == "round-robin":
            result = tr.call(layer, mechanism, public, order=args.order)
        else:
            result = tr.call(layer, mechanism, public, cap=args.cap)
            tr.counts["mechanisms.space"] += outcome_space_size(public)
        if not goods:
            audit_doc = _audit_doc(tr, args, instance, outcome=result.outcome)
            doc = tr.call("io.emit", io.result_document, result, audit_doc=audit_doc)
            return instance, _emit(tr, io.to_json, doc)
        alloc = tr.call("model.embed", outcome_to_allocation, instance, result.outcome)
        trace_doc = tr.call("io.emit", io.result_document, result)["trace"]
        name, utilities = result.mechanism, result.utilities
    audit_doc = _audit_doc(tr, args, instance, alloc=alloc)
    doc = tr.call(
        "io.emit",
        io.goods_result_document,
        name,
        alloc,
        utilities,
        trace=trace_doc,
        audit_doc=audit_doc,
    )
    return instance, _emit(tr, io.to_json, doc)


def _audit(tr: Tracer, args):
    text = Path(args.input).read_text()
    instance = _parse(tr, text, io.parse_instance, allow_decimal=args.allow_decimal)
    parsed = _parse(tr, Path(args.result).read_text(), io.parse_result)
    outcome, alloc = parsed.outcome, parsed.allocation
    report = _report(tr, args, instance, outcome=outcome, alloc=alloc)
    if args.format == "text":
        text = _emit(tr, io.render_audit_text, report, players=instance.players)
        return instance, text
    doc = tr.call("io.emit", io.audit_document, report)
    return instance, _emit(tr, io.to_json, doc)


def run_op(tr: Tracer, argv) -> tuple[object, str]:
    """Run one solve or audit operation; returns (instance, output text) and
    writes the output file like the CLI does."""
    args = cli.build_parser().parse_args(list(argv))
    instance, text = (_solve if args.command == "solve" else _audit)(tr, args)
    Path(args.out).write_text(text)
    return instance, text

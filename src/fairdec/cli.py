"""Command line interface.

Subcommands: solve (run a mechanism on an instance file), audit (check a
result file against an instance file), gen (write a named instance family),
oracle (brute-force optimum of an objective), reduce (embed goods as a public
instance), bench (mechanism quality rates over seeded random instances).

Exit codes: 0 success, 2 validation or format error, 3 enumeration cap
exceeded, 4 degenerate instance. All output is deterministic for a fixed
command line, input files, and seed; FAIRDEC_THREADS only changes how many
workers the bench pool uses, never the bytes produced.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import io
from .audit import audit, audit_goods
from .errors import (
    CapExceeded,
    DegenerateInstance,
    FairdecError,
    InstanceFormatError,
    InvariantError,
)
from .generators import FAMILIES, generate, random_public
from .mechanisms import leximin, max_nash_welfare, round_robin
from .model import (
    Allocation,
    DecisionInstance,
    GoodsInstance,
    MechanismResult,
    allocation_utilities,
    goods_to_public,
    outcome_to_allocation,
    require_valid,
)
from .oracles import DEFAULT_ENUM_CAP, exact_optimum
from .private_goods import pps_po_allocate, prop1_po_search
from .shares import DEFAULT_MMS_CAP

PUBLIC_MECHANISMS = ("round-robin", "leximin", "mnw")
GOODS_MECHANISMS = ("pps-po", "prop1-po")


def _order_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"order must be comma-separated integers, got {text!r}"
        )


def _rational_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot read {text!r} as a rational")


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}")


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_instance(args) -> DecisionInstance | GoodsInstance:
    return io.parse_instance(_read(args.input), allow_decimal=args.allow_decimal)


def _audit_doc(args, instance, outcome=None, alloc=None) -> dict | None:
    if not getattr(args, "with_audit", False):
        return None
    report = _run_audit(args, instance, outcome=outcome, alloc=alloc)
    return io.audit_document(report)


def _run_audit(args, instance, outcome=None, alloc=None):
    kwargs = dict(
        with_mms=args.with_mms,
        mms_cap=args.mms_cap,
        po_cap=args.po_cap,
    )
    if isinstance(instance, GoodsInstance):
        return audit_goods(instance, alloc, **kwargs)
    return audit(instance, outcome, **kwargs)


def _public_result_doc(args, instance, result: MechanismResult) -> dict:
    """The document of a result found on the public view of ``instance``, with
    the audit ``args`` asks for; goods read the outcome back as an allocation."""
    if not isinstance(instance, GoodsInstance):
        audit_doc = _audit_doc(args, instance, outcome=result.outcome)
        return io.result_document(result, audit_doc=audit_doc)
    alloc = outcome_to_allocation(instance, result.outcome)
    return io.goods_result_document(
        result.mechanism,
        alloc,
        result.utilities,
        trace=io.mechanism_trace(result),
        audit_doc=_audit_doc(args, instance, alloc=alloc),
    )


def _cmd_solve(args) -> int:
    instance = _load_instance(args)
    mechanism = args.mechanism

    if mechanism in GOODS_MECHANISMS:
        if not isinstance(instance, GoodsInstance):
            raise InstanceFormatError(f"{mechanism} needs a goods instance")
        if mechanism == "pps-po":
            alloc, weights, trace = pps_po_allocate(instance)
            trace_doc = {
                "weights": [io.encode_rational(w) for w in weights],
                **io.transfer_trace_document(trace),
            }
        else:
            result = prop1_po_search(instance)
            alloc = result.allocation
            trace_doc = {
                "weights": [io.encode_rational(w) for w in result.weights],
                "certified_prop1": result.certified_prop1,
                "prop1_losses": [list(event) for event in result.prop1_losses],
                **io.transfer_trace_document(result.trace),
            }
        utilities = allocation_utilities(instance, alloc)
        doc = io.goods_result_document(
            mechanism,
            alloc,
            utilities,
            trace=trace_doc,
            audit_doc=_audit_doc(args, instance, alloc=alloc),
        )
        _write(io.to_json(doc), args.out)
        return 0

    public = (
        goods_to_public(instance) if isinstance(instance, GoodsInstance) else instance
    )
    if mechanism == "round-robin":
        result = round_robin(public, order=args.order)
    elif mechanism == "leximin":
        result = leximin(public, cap=args.cap)
    else:
        result = max_nash_welfare(public, cap=args.cap)
    _write(io.to_json(_public_result_doc(args, instance, result)), args.out)
    return 0


def _cmd_audit(args) -> int:
    instance = _load_instance(args)
    parsed = io.parse_result(_read(args.result))
    report = _run_audit(
        args, instance, outcome=parsed.outcome, alloc=parsed.allocation
    )
    if args.format == "text":
        _write(io.render_audit_text(report, players=instance.players), args.out)
    else:
        _write(io.to_json(io.audit_document(report)), args.out)
    return 0


def _cmd_gen(args) -> int:
    generated = generate(
        args.family,
        n=args.n,
        m=args.m,
        k=args.k,
        delta=args.delta,
        seed=args.seed,
        umin=args.umin,
        umax=args.umax,
    )
    require_valid(generated.instance)
    _write(io.to_json(io.instance_document(generated.instance)), args.out)
    if args.witness_out is not None:
        if generated.witness is None:
            raise InstanceFormatError(
                f"family {args.family!r} has no witness allocation"
            )
        if not isinstance(generated.instance, GoodsInstance):
            raise InvariantError("a witness allocation needs a goods instance")
        doc = io.goods_result_document(
            "witness",
            generated.witness,
            allocation_utilities(generated.instance, generated.witness),
        )
        _write(io.to_json(doc), args.witness_out)
    if args.out is not None:
        extras = {"family": generated.family}
        if generated.critical_ratio is not None:
            extras["critical_ratio"] = io.encode_rational(generated.critical_ratio)
        if generated.witness is not None:
            extras["witness_bundles"] = io.bundles_document(generated.witness)
        sys.stdout.write(io.to_json(extras))
    return 0


def _cmd_oracle(args) -> int:
    instance = _load_instance(args)
    public = (
        goods_to_public(instance) if isinstance(instance, GoodsInstance) else instance
    )
    result = exact_optimum(public, args.objective, cap=args.cap)
    _write(io.to_json(_public_result_doc(args, instance, result)), args.out)
    return 0


def _cmd_reduce(args) -> int:
    instance = _load_instance(args)
    if not isinstance(instance, GoodsInstance):
        raise InstanceFormatError("reduce needs a goods instance")
    _write(io.to_json(io.instance_document(goods_to_public(instance))), args.out)
    return 0


def _bench_trial(params: tuple) -> dict[str, tuple[bool, bool, bool, bool]]:
    n, m, k, umin, umax, trial_seed = params
    instance = random_public(n, m, k, trial_seed, umin=umin, umax=umax)
    flags = {}
    for name, run in (
        ("round-robin", lambda: round_robin(instance)),
        ("leximin", lambda: leximin(instance)),
        ("mnw", lambda: max_nash_welfare(instance)),
    ):
        result = run()
        report = audit(instance, result.outcome, po_cap=DEFAULT_ENUM_CAP)
        flags[name] = (
            report.po.satisfied,
            all(p.pps.satisfied for p in report.players),
            all(p.rrs.satisfied for p in report.players),
            all(p.prop1.satisfied for p in report.players),
        )
    return flags


def _worker_count() -> int:
    raw = os.environ.get("FAIRDEC_THREADS")
    if raw is not None:
        try:
            workers = int(raw)
        except ValueError:
            raise InstanceFormatError(
                f"FAIRDEC_THREADS must be an integer, got {raw!r}"
            )
        if workers < 1:
            raise InstanceFormatError("FAIRDEC_THREADS must be at least 1")
        return workers
    return os.cpu_count() or 1


def _cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    jobs = [
        (args.n, args.m, args.k, args.umin, args.umax, args.seed * 1_000_003 + trial)
        for trial in range(args.trials)
    ]
    workers = _worker_count()
    results = None
    if workers > 1 and len(jobs) > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(
                    pool.map(_bench_trial, jobs, chunksize=max(1, len(jobs) // (workers * 4)))
                )
        except OSError:
            results = None  # pools can be unavailable in restricted sandboxes
    if results is None:
        results = [_bench_trial(job) for job in jobs]

    lines = ["mechanism,po,pps,rrs,prop1"]
    for name in ("round-robin", "leximin", "mnw"):
        rates = [
            sum(1 for r in results if r[name][axis]) / len(results)
            for axis in range(4)
        ]
        lines.append(name + "," + ",".join(str(rate) for rate in rates))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdec",
        description="Fair public decision making: mechanisms, shares, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, result_formats=("json", "text")):
        p.add_argument("--out", help="write output here instead of stdout")
        p.add_argument(
            "--format", choices=result_formats, default="json", help="output format"
        )

    def add_parse_opts(p):
        p.add_argument(
            "--allow-decimal",
            action="store_true",
            help="accept float literals and decimal strings, read exactly",
        )

    def add_audit_opts(p):
        p.add_argument(
            "--po-cap",
            type=int,
            default=None,
            help="run the exhaustive Pareto check with this enumeration cap",
        )
        p.add_argument("--with-mms", action="store_true", help="include MMS levels")
        p.add_argument(
            "--mms-cap",
            type=int,
            default=DEFAULT_MMS_CAP,
            help="partition enumeration cap for MMS",
        )

    solve = sub.add_parser("solve", help="run a mechanism on an instance file")
    solve.add_argument(
        "--mechanism",
        required=True,
        choices=PUBLIC_MECHANISMS + GOODS_MECHANISMS,
    )
    solve.add_argument("--input", required=True)
    solve.add_argument(
        "--order",
        type=_order_arg,
        default=None,
        help="round robin player order, e.g. 0,2,1 (default: index order)",
    )
    solve.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
    solve.add_argument(
        "--with-audit", action="store_true", help="embed an audit of the result"
    )
    add_audit_opts(solve)
    add_parse_opts(solve)
    add_io(solve, result_formats=("json",))
    solve.set_defaults(handler=_cmd_solve)

    aud = sub.add_parser("audit", help="audit a result file against an instance")
    aud.add_argument("--input", required=True)
    aud.add_argument("--result", required=True)
    add_audit_opts(aud)
    add_parse_opts(aud)
    add_io(aud)
    aud.set_defaults(handler=_cmd_audit)

    gen = sub.add_parser("gen", help="generate a named instance family")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--delta", type=_rational_arg)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--umin", type=int, default=0)
    gen.add_argument("--umax", type=int, default=5)
    gen.add_argument(
        "--witness-out", help="write the family's witness allocation here"
    )
    gen.add_argument("--out", help="write the instance here instead of stdout")
    gen.set_defaults(handler=_cmd_gen)

    orc = sub.add_parser("oracle", help="brute-force optimum of an objective")
    orc.add_argument(
        "--objective", required=True, choices=("nash", "leximin", "utilitarian")
    )
    orc.add_argument("--input", required=True)
    orc.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
    add_parse_opts(orc)
    add_io(orc, result_formats=("json",))
    orc.set_defaults(handler=_cmd_oracle)

    red = sub.add_parser("reduce", help="embed a goods instance as a public one")
    red.add_argument("--input", required=True)
    add_parse_opts(red)
    red.add_argument("--out", help="write the public instance here")
    red.set_defaults(handler=_cmd_reduce)

    bench = sub.add_parser(
        "bench", help="mechanism quality rates over seeded random instances"
    )
    bench.add_argument("--trials", type=int, required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--n", type=int, default=3)
    bench.add_argument("--m", type=int, default=5)
    bench.add_argument("--k", type=int, default=2)
    bench.add_argument("--umin", type=int, default=0)
    bench.add_argument("--umax", type=int, default=5)
    bench.add_argument("--format", choices=("csv",), default="csv")
    bench.add_argument("--out")
    bench.set_defaults(handler=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InstanceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegenerateInstance as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except FairdecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

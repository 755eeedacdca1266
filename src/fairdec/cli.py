"""Command line interface.

Subcommands: solve (run a mechanism on an instance file), audit (check a
result file against an instance file), gen (write a named instance family),
oracle (brute-force optimum of an objective), reduce (embed goods as a public
instance), bench (mechanism quality rates over seeded random instances).

Exit codes: 0 success, 2 validation or format error or an output that cannot
be written, 3 enumeration cap exceeded, 4 degenerate instance, 130 interrupted
(Ctrl-C), with one ``error: interrupted`` line and no traceback. All output is
deterministic for a fixed command line, input files, and seed; bench runs its
trials one after another in this process. ``main`` builds its argument parser
once per process and reuses it for every call. It pauses the cyclic garbage
collector while a command runs: what a command builds (instances, views,
results, documents) holds no reference cycles and is freed by reference
counting, so the collector's scans would find nothing. ``main`` resumes the
collector on return only if it was enabled on entry.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import sys
import warnings
from pathlib import Path

from . import io
from .audit import audit, audit_goods
from .errors import (
    CapExceeded,
    DegenerateInstance,
    FairdecError,
    InstanceFormatError,
)
from .generators import FAMILIES, generate, random_public
from .mechanisms import leximin, max_nash_welfare, round_robin
from .model import (
    GoodsInstance,
    Instance,
    MechanismResult,
    allocation_utilities,
    goods_to_public,
    outcome_to_allocation,
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


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}")


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to ``out``, or to stdout without it, as UTF-8 bytes
    whatever the locale; a failure, a None stdout included, is a FairdecError."""
    try:
        if out is not None:
            Path(out).write_text(text, encoding="utf-8")
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()
            sys.stdout.buffer.write(text.encode("utf-8"))
            sys.stdout.buffer.flush()
        elif sys.stdout is None:  # started with file descriptor 1 closed
            raise FairdecError("cannot write standard output: it is closed")
        else:  # a text-only stream, such as a StringIO
            sys.stdout.write(text)
    except OSError as exc:
        if out is None:  # exit would flush it again
            with contextlib.suppress(OSError):
                sys.stdout.close()
        name = "standard output" if out is None else out
        raise FairdecError(f"cannot write {name}: {exc}")


def _load_instance(args) -> Instance:
    return io.parse_instance(_read(args.input), allow_decimal=args.allow_decimal)


def _run_audit(args, instance, result):
    run = audit_goods if isinstance(instance, GoodsInstance) else audit
    options = dict(with_mms=args.with_mms, mms_cap=args.mms_cap, po_cap=args.po_cap)
    return run(instance, result, **options)


def _audit_doc(args, instance, result) -> dict | None:
    """The audit document ``--with-audit`` asks for, or None without it."""
    if getattr(args, "with_audit", False):
        return io.audit_document(_run_audit(args, instance, result))
    return None


def _public_result_doc(args, instance, result: MechanismResult) -> dict:
    """The document of a mechanism or oracle result on ``instance``, with the
    audit ``args`` asks for; goods read the outcome back as an allocation."""
    if not isinstance(instance, GoodsInstance):
        audit_doc = _audit_doc(args, instance, result.outcome)
        return io.result_document(result, audit_doc=audit_doc)
    alloc = outcome_to_allocation(instance, result.outcome)
    return io.goods_result_document(
        result.mechanism,
        alloc,
        result.utilities,
        trace=io.mechanism_trace(result),
        audit_doc=_audit_doc(args, instance, alloc),
    )


def _cmd_solve(args) -> int:
    instance, mechanism = _load_instance(args), args.mechanism
    if mechanism == "round-robin":
        result = round_robin(instance, order=args.order)
    elif mechanism == "leximin":
        result = leximin(instance, cap=args.cap)
    elif mechanism == "mnw":
        result = max_nash_welfare(instance, cap=args.cap)
    elif not isinstance(instance, GoodsInstance):
        raise InstanceFormatError(f"{mechanism} needs a goods instance")
    elif mechanism == "pps-po":
        alloc, weights, trace = pps_po_allocate(instance)
        trace_doc = {}
    else:
        found = prop1_po_search(instance)
        alloc, weights, trace = found.allocation, found.weights, found.trace
        trace_doc = {
            "certified_prop1": found.certified_prop1,
            "prop1_losses": [list(event) for event in found.prop1_losses],
        }
    if mechanism in PUBLIC_MECHANISMS:
        doc = _public_result_doc(args, instance, result)
    else:
        trace_doc["weights"] = [io.encode_rational(w) for w in weights]
        doc = io.goods_result_document(
            mechanism,
            alloc,
            allocation_utilities(instance, alloc),
            trace={**trace_doc, **io.transfer_trace_document(trace)},
            audit_doc=_audit_doc(args, instance, alloc),
        )
    _write(io.to_json(doc), args.out)
    return 0


def _cmd_audit(args) -> int:
    instance = _load_instance(args)
    parsed = io.parse_result(_read(args.result))
    goods = isinstance(instance, GoodsInstance)
    report = _run_audit(args, instance, parsed.allocation if goods else parsed.outcome)
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
        delta=None if args.delta is None else io.read_value(args.delta, "--delta"),
        seed=args.seed,
        umin=args.umin,
        umax=args.umax,
    )
    if args.witness_out is not None and generated.witness is None:
        raise InstanceFormatError(f"family {args.family!r} has no witness allocation")
    _write(io.to_json(io.instance_document(generated.instance)), args.out)
    if args.witness_out is not None:
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
        _write(io.to_json(extras), None)
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


def _bench_trial(args, trial_seed: int) -> dict[str, tuple[bool, bool, bool, bool]]:
    instance = random_public(
        args.n, args.m, args.k, trial_seed, umin=args.umin, umax=args.umax
    )
    flags = {}
    for name, run in zip(PUBLIC_MECHANISMS, (round_robin, leximin, max_nash_welfare)):
        result = run(instance)
        report = audit(instance, result.outcome, po_cap=DEFAULT_ENUM_CAP)
        flags[name] = (
            report.po.satisfied,
            all(p.pps.satisfied for p in report.players),
            all(p.rrs.satisfied for p in report.players),
            all(p.prop1.satisfied for p in report.players),
        )
    return flags


def _cmd_bench(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    results = [
        _bench_trial(args, args.seed * 1_000_003 + trial)
        for trial in range(args.trials)
    ]
    lines = ["mechanism,po,pps,rrs,prop1"]
    for name in PUBLIC_MECHANISMS:
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

    def add_input_opts(p):
        p.add_argument("--input", required=True)
        decimal = "accept float literals and decimal strings, read exactly"
        p.add_argument("--allow-decimal", action="store_true", help=decimal)
        p.add_argument("--out", help="write output here instead of stdout")

    def add_ints(p, **defaults):
        for name, default in defaults.items():
            p.add_argument(f"--{name}", type=int, default=default)

    def add_audit_opts(p):
        po = "run the exhaustive Pareto check with this enumeration cap"
        p.add_argument("--po-cap", type=int, default=None, help=po)
        p.add_argument("--with-mms", action="store_true", help="include MMS levels")
        mms = "refuse MMS when the issues have more partitions than this"
        p.add_argument("--mms-cap", type=int, default=DEFAULT_MMS_CAP, help=mms)

    solve = sub.add_parser("solve", help="run a mechanism on an instance file")
    mechanisms = PUBLIC_MECHANISMS + GOODS_MECHANISMS
    solve.add_argument("--mechanism", required=True, choices=mechanisms)
    add_input_opts(solve)
    order = "round robin player order, e.g. 0,2,1 (default: index order)"
    solve.add_argument("--order", type=_order_arg, help=order)
    solve.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
    embed = "embed an audit of the result"
    solve.add_argument("--with-audit", action="store_true", help=embed)
    add_audit_opts(solve)
    solve.set_defaults(handler=_cmd_solve)

    aud = sub.add_parser("audit", help="audit a result file against an instance")
    add_input_opts(aud)
    aud.add_argument("--result", required=True)
    add_audit_opts(aud)
    aud.add_argument("--format", choices=("json", "text"), default="json")
    aud.set_defaults(handler=_cmd_audit)

    gen = sub.add_parser("gen", help="generate a named instance family")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    add_ints(gen, n=None, m=None, k=None)
    gen.add_argument("--delta")
    add_ints(gen, seed=None, umin=0, umax=5)
    witness = "write the family's witness allocation here"
    gen.add_argument("--witness-out", help=witness)
    gen.add_argument("--out", help="write the instance here instead of stdout")
    gen.set_defaults(handler=_cmd_gen)

    orc = sub.add_parser("oracle", help="brute-force optimum of an objective")
    orc.add_argument(
        "--objective", required=True, choices=("nash", "leximin", "utilitarian")
    )
    add_input_opts(orc)
    orc.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
    orc.set_defaults(handler=_cmd_oracle)

    red = sub.add_parser("reduce", help="embed a goods instance as a public one")
    add_input_opts(red)
    red.set_defaults(handler=_cmd_reduce)

    bench = sub.add_parser(
        "bench", help="mechanism quality rates over seeded random instances"
    )
    bench.add_argument("--trials", type=int, required=True)
    bench.add_argument("--seed", type=int, required=True)
    add_ints(bench, n=3, m=5, k=2, umin=0, umax=5)
    bench.add_argument("--out")
    bench.set_defaults(handler=_cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args leaves it unchanged."""
    return build_parser()


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # what a command builds dies by reference count (see the module docstring)
    enabled = gc.isenabled()
    gc.disable()
    try:
        with warnings.catch_warnings():
            # one stderr line per non-canonical value, naming its place in the input
            warnings.simplefilter("always", io.NonCanonicalRationalWarning)
            warnings.showwarning = _print_warning
            return args.handler(args)
    except (FairdecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {CapExceeded: 3, DegenerateInstance: 4}.get(type(exc), 2)
    except KeyboardInterrupt:  # the shell's code for SIGINT, without a traceback
        print("error: interrupted", file=sys.stderr)
        return 130
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())

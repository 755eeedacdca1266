"""fairdec benchmark: one seeded workload in one process, closed loop.

    python3 perfbench/run.py --workload public-search --seed 1 --seconds 30 --trace 0

A single client calls ``fairdec.cli.main`` in-process and sends the next
operation only when the previous one has returned; operations cycle through
the workload's corpus (``workloads.py``) in a fixed order. Every output is
checked after the timed phase (``checks.py``).

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference CPU speed by a calibration workload run between operations.
``--trace 1`` runs whole passes
over the corpus instead; for every operation it runs the CLI untraced, then
the rebuilt pipeline of ``pipeline.py`` with a span around each layer call,
requires both to write the same bytes, and reports per-layer metrics per
pass. The last line of standard output is the result as one JSON object;
the line before it records the run's environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"

SETUP_REPS = 5

# The tail percentile of each workload, with at least ten operations above
# it in every run; goods-alloc takes p75, not p90 (see README.md).
TAIL_PERCENTILE = {"public-search": 85, "goods-alloc": 75, "large-inputs": 75}

SPAN_LAYERS = (
    "io.parse",
    "io.emit",
    "model.embed",
    "mechanisms.round_robin",
    "mechanisms.leximin",
    "mechanisms.mnw",
    "private_goods.pps_po",
    "private_goods.prop1_po",
    "audit.report",
    "audit.po",
)
PROBE_LAYERS = ("shares.profile", "shares.mms")
COUNTS = (
    "io.parse.bytes",
    "io.emit.bytes",
    "mechanisms.space",
    "private_goods.rounds",
    "private_goods.reductions",
    "private_goods.transfers",
    "private_goods.prop1_losses",
    "audit.po.space",
)
COUNT_UNITS = {"io.parse.bytes": "bytes", "io.emit.bytes": "bytes"}
RATIO_PARTS = ("private_goods.prop1_certified", "audit.po.checks", "audit.po.refuted")


# The speed of this machine's CPU can change by up to 2x within seconds and
# stay changed for minutes, in wall time and process time alike, so a run
# cannot average it out. Every timed interval is therefore bracketed by a
# fixed pure-Python calibration workload, and times are reported at the
# reference speed: a time is scaled by CALIBRATION_REF_S over the mean of the
# calibration times measured just before and just after it. The raw wall
# times are printed on the environment line.
CALIBRATION_REF_S = 0.003
CALIBRATION_REPS = 3


def _calibration_work() -> None:
    """Exact rational sums, a depth-first search over choice vectors and a
    JSON round trip: the kinds of work fairdec's operations are made of."""
    values = [
        [Fraction(i * 7 % 5 + 1, i % 3 + 1) for i in range(j, j + 9)] for j in range(4)
    ]
    best = [Fraction(0)]
    current = [Fraction(0)] * 4

    def search(t: int) -> None:
        if t == 5:
            low = min(current)
            if low > best[0]:
                best[0] = low
            return
        for c in range(3):
            player = (t + c) % 4
            current[player] += values[player][t + c]
            search(t + 1)
            current[player] -= values[player][t + c]

    search(0)
    doc = {"values": [[str(v) for v in row] for row in values], "best": str(best[0])}
    json.loads(json.dumps(doc, indent=2, sort_keys=True))


def calibrate() -> float:
    """Seconds the calibration workload takes now (the fastest of a few)."""
    times = []
    for _ in range(CALIBRATION_REPS):
        t0 = time.perf_counter()
        _calibration_work()
        times.append(time.perf_counter() - t0)
    return min(times)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * CALIBRATION_REF_S * 2 / (before + after)


def weighted_percentile(values: list[float], weights: list[float], q: float) -> float:
    """The smallest value at or below which a share q/100 of the weight lies."""
    pairs = sorted(zip(values, weights))
    target = sum(weights) * q / 100
    covered = 0.0
    for value, weight in pairs:
        covered += weight
        if covered >= target:
            return value
    return pairs[-1][0]


def summarize(latencies: list[float], executed: list[int], tail: float) -> dict:
    """Throughput and latency percentiles of the operation mix a run covered.

    A run ends wherever its time is up, so it may run some operations of the
    pass once more than others; one costly operation run once or twice
    would then move the figures. Each run of an operation is therefore
    weighted by one over the number of times that operation ran, so that
    every operation covered counts once."""
    runs = Counter(executed)
    weights = [1 / runs[index] for index in executed]
    busy = sum(w * latency for w, latency in zip(weights, latencies))
    return {
        "ops_per_s": len(runs) / busy,
        "latency_ms_p50": weighted_percentile(latencies, weights, 50) * 1e3,
        "latency_ms_tail": weighted_percentile(latencies, weights, tail) * 1e3,
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def setup(workload: str, seed: int, workdir: Path):
    """Import fairdec and build the corpus SETUP_REPS times, each from a fresh
    import; returns the last corpus and the median set-up time, at reference
    speed and raw."""
    gc.unfreeze()
    times = []
    raw_times = []
    corpus = None
    for _ in range(SETUP_REPS):
        # the benchmark modules that bind fairdec names go too, so that a
        # second set-up in one process (the self-test) stays consistent
        for name in list(sys.modules):
            if name in ("pipeline", "checks") or name.split(".")[0] == "fairdec":
                del sys.modules[name]
        corpus = None
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()
        before = calibrate()
        start = time.perf_counter()
        importlib.import_module("fairdec.cli")
        from workloads import WORKLOADS

        workdir.mkdir(parents=True)
        corpus = WORKLOADS[workload](seed, workdir)
        raw_times.append(time.perf_counter() - start)
        times.append(at_reference_speed(raw_times[-1], before, calibrate()))
    # A CLI process holds none of the benchmark's corpus, so keep the corpus
    # out of the collector's scans during the timed phase.
    gc.collect()
    gc.freeze()
    return corpus, statistics.median(times), statistics.median(raw_times)


def call_cli(argv) -> int | str:
    """Run one CLI command; a non-zero code or an exception is a failure."""
    from fairdec import cli

    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return f"exit {exc.code}"
    except Exception:
        traceback.print_exc()
        return "exception"


def check_outputs(corpus, outputs: dict[int, bytes]) -> set[int]:
    """Indices of operations whose output fails its check."""
    from checks import Checker

    checker = Checker(corpus)
    bad = set()
    for index, data in outputs.items():
        op = corpus.ops[index]
        try:
            checker.check(op, data)
        except Exception as exc:
            print(f"check failed: {' '.join(op.argv)}: {exc!r}", file=sys.stderr)
            bad.add(index)
    pairs = checker.check_pairs(corpus.ops, outputs)
    for index in pairs:
        print(f"route mismatch: {' '.join(corpus.ops[index].argv)}", file=sys.stderr)
    return bad | pairs


def run_untraced(workload: str, corpus, seconds: float, setup_s: float) -> tuple:
    """The end-to-end result, and the same metrics from raw wall times."""
    ops = corpus.ops
    latencies: list[float] = []
    raw_latencies: list[float] = []
    executed: list[int] = []
    failed_runs: list[bool] = []
    digests: dict[int, bytes] = {}
    before = calibrate()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        index = len(latencies) % len(ops)
        op = ops[index]
        op.out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code = call_cli(op.argv)
        raw_latencies.append(time.perf_counter() - t0)
        after = calibrate()
        latencies.append(at_reference_speed(raw_latencies[-1], before, after))
        before = after
        executed.append(index)
        failed = code != 0
        if not failed:
            digest = hashlib.sha256(op.out.read_bytes()).digest()
            failed = digests.setdefault(index, digest) != digest
        if code != 0:
            print(f"failed ({code}): {' '.join(op.argv)}", file=sys.stderr)
        failed_runs.append(failed)
    # the peak of the timed phase, before the checks and their oracles
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # every operation writes its own file; a repeat that wrote other bytes
    # has failed already
    outputs = {index: ops[index].out.read_bytes() for index in digests}
    bad = check_outputs(corpus, outputs)
    failed = sum(f or i in bad for f, i in zip(failed_runs, executed))
    tail = TAIL_PERCENTILE[workload]
    units = {"ops_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_tail": "ms"}
    metrics = {"setup_s": metric(setup_s, "s")}
    for name, value in summarize(latencies, executed, tail).items():
        metrics[name] = metric(value, units[name])
    metrics["peak_rss_mb"] = metric(peak_kb / 1024, "MB")
    result = {
        "correct": failed == 0,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": metrics,
    }
    raw = summarize(raw_latencies, executed, tail)
    return result, raw


def _spans_consistent(spans, op_walls) -> bool:
    """Every layer span lies inside its operation and none overlap, so the
    spans plus cli.self_s add up to the traced wall time."""
    by_op: dict[int, list] = {}
    for op_id, layer, start, end in spans:
        by_op.setdefault(op_id, []).append((start, end))
    for op_id, (op_start, op_end) in enumerate(op_walls):
        previous = op_start
        for start, end in sorted(by_op.get(op_id, [])):
            if start < previous or end > op_end:
                return False
            previous = end
    return True


def trace_pass(corpus, tracer, probe: Counter, op_walls: list, checked: dict):
    """One traced pass over the corpus; returns (cli seconds, failures)."""
    import pipeline
    from fairdec.shares import maximin_share, share_profile

    untraced = 0.0
    failures = 0
    probed: set[str] = set()
    for index, op in enumerate(corpus.ops):
        op.out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        code = call_cli(op.argv)
        untraced += time.perf_counter() - t0
        cli_bytes = op.out.read_bytes() if code == 0 else None

        tracer.begin_op()
        t1 = time.perf_counter()
        try:
            instance, text = pipeline.run_op(tracer, op.argv)
        except Exception:
            traceback.print_exc()
            instance, text = None, None
        op_walls.append((t1, time.perf_counter()))
        same = text is not None and text.encode() == cli_bytes
        if not same:
            print(f"traced output differs: {' '.join(op.argv)}", file=sys.stderr)
        failures += not same or checked.setdefault(index, cli_bytes) != cli_bytes
        if instance is None or op.key in probed:
            continue
        probed.add(op.key)
        t0 = time.perf_counter()
        share_profile(instance)
        probe["shares.profile.busy_s"] += time.perf_counter() - t0
        probe["shares.profile.calls"] += 1
        if "--with-mms" in op.argv:
            for i in range(instance.n):
                t0 = time.perf_counter()
                maximin_share(instance, i)
                probe["shares.mms.busy_s"] += time.perf_counter() - t0
                probe["shares.mms.calls"] += 1
    return untraced, failures


def deterministic_counts(tracer, spans) -> dict:
    """The counts of one pass that must repeat exactly for a fixed seed."""
    counts = {name: tracer.counts[name] for name in COUNTS}
    calls = Counter(layer for _, layer, _, _ in spans)
    for layer in SPAN_LAYERS:
        counts[f"{layer}.calls"] = calls[layer]
    for name in RATIO_PARTS:
        counts[name] = tracer.counts[name]
    return counts


def run_traced(corpus, seconds: float, limit: int | None = None) -> dict:
    """Whole traced passes until ``seconds`` have passed (at least one).
    ``limit`` cuts each pass to its first operations, for the self-test."""
    from pipeline import Tracer

    if limit is not None:
        corpus.ops = corpus.ops[:limit]
    tracer = Tracer()
    probe: Counter = Counter()
    op_walls: list = []
    checked: dict[int, bytes] = {}
    pass_counts = []
    untraced = 0.0
    failures = 0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        tracer.counts = Counter()
        first_span = len(tracer.spans)
        cli_s, pass_failures = trace_pass(corpus, tracer, probe, op_walls, checked)
        untraced += cli_s
        failures += pass_failures
        pass_counts.append(deterministic_counts(tracer, tracer.spans[first_span:]))
        passes += 1

    bad = check_outputs(corpus, {i: b for i, b in checked.items() if b is not None})
    failures += len(bad) * passes
    spans_ok = _spans_consistent(tracer.spans, op_walls)
    repeat_ok = all(counts == pass_counts[0] for counts in pass_counts)
    if not spans_ok:
        print("layer spans overlap or leave their operation", file=sys.stderr)
    if not repeat_ok:
        print("deterministic counts differ between passes", file=sys.stderr)

    traced_wall = sum(end - start for start, end in op_walls)
    busy = Counter()
    for _, layer, start_s, end_s in tracer.spans:
        busy[layer] += end_s - start_s
    counts = pass_counts[0]
    metrics = {}
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.busy_s"] = metric(busy[layer] / passes, "s")
        metrics[f"{layer}.calls"] = metric(counts[f"{layer}.calls"], "count")
    for layer in PROBE_LAYERS:
        metrics[f"{layer}.busy_s"] = metric(probe[f"{layer}.busy_s"] / passes, "s")
        metrics[f"{layer}.calls"] = metric(probe[f"{layer}.calls"] // passes, "count")
    for name in COUNTS:
        metrics[name] = metric(counts[name], COUNT_UNITS.get(name, "count"))
    prop1_calls = counts["private_goods.prop1_po.calls"]
    metrics["private_goods.prop1_certified_ratio"] = metric(
        counts["private_goods.prop1_certified"] / prop1_calls if prop1_calls else 0.0,
        "ratio",
    )
    po_checks = counts["audit.po.checks"]
    metrics["audit.po_refuted_ratio"] = metric(
        counts["audit.po.refuted"] / po_checks if po_checks else 0.0, "ratio"
    )
    metrics["cli.self_s"] = metric((traced_wall - sum(busy.values())) / passes, "s")
    metrics["trace.overhead_ratio"] = metric(traced_wall / untraced, "ratio")

    attempted = len(corpus.ops) * passes
    return {
        "correct": failures == 0 and spans_ok and repeat_ok,
        "attempted": attempted,
        "failed": min(failures, attempted),
        "metrics": metrics,
        "counts": counts,
        "spans": tracer.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fairdec" / "__init__.py").is_file():
        print(f"error: no fairdec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }
    workdir = BUILD / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        corpus, setup_s, environment["raw_setup_s"] = setup(
            args.workload, args.seed, workdir
        )
        environment["ops_per_pass"] = len(corpus.ops)
        environment["tail_percentile"] = TAIL_PERCENTILE[args.workload]
        if args.trace:
            result = run_traced(corpus, args.seconds)
            spans = result.pop("spans")
            result.pop("counts")
            spans_file = BUILD / f"spans-{args.workload}-{args.seed}.jsonl"
            with spans_file.open("w") as handle:
                for op_id, layer, start, end in spans:
                    handle.write(json.dumps([op_id, layer, start, end]) + "\n")
        else:
            result, environment["raw"] = run_untraced(
                args.workload, corpus, args.seconds, setup_s
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"environment": environment}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the traced run's deterministic counts.

    python3 perfbench/selftest.py

For every workload it makes three traced passes over the first ``OPS``
operations: two with seed ``SEED``, one with ``SEED + 1``. The counts
(search spaces, allocator rounds, tie events and transfers, Prop1 losses, PO
outcomes enumerated, bytes parsed and emitted, layer calls) must repeat
exactly for the same seed and must change with the seed. Exits 1 on any
failure.
"""

from __future__ import annotations

import os
import shutil
import sys

import run

OPS = 9
SEED = 1


def traced_counts(workload: str, seed: int, ops: int) -> dict:
    workdir = run.BUILD / f"selftest-{workload}-{seed}-{os.getpid()}"
    try:
        corpus = run.setup(workload, seed, workdir)[0]
        result = run.run_traced(corpus, 0, limit=ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: traced pass failed its checks")
    return result["counts"]


def main() -> int:
    if not (run.SRC / "fairdec" / "__init__.py").is_file():
        print(f"error: no fairdec sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))

    ok = True
    for workload in sorted(run.TAIL_PERCENTILE):
        first = traced_counts(workload, SEED, OPS)
        again = traced_counts(workload, SEED, OPS)
        other = traced_counts(workload, SEED + 1, OPS)
        repeats = first == again
        changed = sorted(name for name in first if first[name] != other[name])
        ok &= repeats and bool(changed)
        print(
            f"{workload}: repeat {'ok' if repeats else 'FAILED'}; "
            f"changed with seed: {', '.join(changed) or 'NOTHING'}"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

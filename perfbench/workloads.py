"""Seeded corpora for the benchmark workloads.

Every workload is a fixed list of instance shapes; the seed draws only the
values (and, on large-inputs, the proposed results and round robin orders).
Keeping the shapes fixed keeps the cost mix of a run the same for every
seed.

Each builder writes its instance and result files under ``workdir`` and
returns a ``Corpus``: the instances by key and the operations of one pass,
each an argument list for ``fairdec.cli.main``. ``fairdec`` is imported
inside the builders so that the set-up timing in ``run.py`` can re-import
the package before every repetition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# solve --po-cap on public-search; equal to fairdec.oracles.DEFAULT_ENUM_CAP.
PO_CAP = 10**7

# public-search: outcome spaces between 1024 and 19683. Search and PO-check
# cost varies widely between random instances of one shape, so a pass is
# SEARCH_CYCLES cycles over the random shapes, each with fresh values. The
# fixed families (theorem5, lemma6_upper) run once per pass, spread evenly
# between the random instances, so that a run cut at any point holds a like
# share of them.
SEARCH_CYCLES = 2
DENSE = ((3, 10, 2), (4, 10, 2), (5, 10, 2), (3, 7, 3), (4, 11, 2))
SPARSE = ((3, 11, 2), (4, 10, 2), (5, 10, 2))
SPARSE_ZERO_SHARE = 0.8
THEOREM5_SIZES = (6, 8, 10)
SMALL_GOODS = ((3, 7), (2, 11))

# goods-alloc: uniform values 0..5, and skewed values where player i draws
# from 0..4(i+1); only the skewed half makes pps_po_allocate create ties.
# Allocator cost varies widely between instances of one shape, so a pass is
# GOODS_CYCLES cycles over all shapes, each with fresh values: a run cut at
# any point then holds nearly the same number of instances of every shape.
GOODS_CYCLES = 10
UNIFORM_GOODS = ((10, 200), (11, 220), (12, 240))
SKEWED_GOODS = ((6, 60), (6, 90), (8, 120))

# large-inputs: (n, m, k) public instances and (n, m) goods instances.
LARGE_PUBLIC = ((10, 200, 2), (12, 300, 3), (15, 300, 3), (16, 400, 3), (20, 400, 4))
LARGE_GOODS = ((20, 400),)


@dataclass(frozen=True)
class Op:
    """One operation: its CLI arguments and the rule its output is checked by.

    ``key`` names the corpus instance the op reads, ``check`` the rule in
    ``checks.py``. ``pair`` links the goods-route and public-route audits of
    one allocation on large-inputs.
    """

    argv: tuple[str, ...]
    out: Path
    key: str
    check: str
    pair: str | None = None


@dataclass
class Corpus:
    instances: dict = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)


def _with_mms(instance) -> bool:
    # MMS enumerates partitions: 0.37 s at 3x10, 36 s at 4x12.
    return instance.n == 3 and instance.m <= 10


def _write(path: Path, doc) -> None:
    from fairdec import io

    path.write_text(io.to_json(doc))


def _add_instance(corpus: Corpus, workdir: Path, key: str, instance) -> Path:
    from fairdec import io

    path = workdir / f"{key}.json"
    _write(path, io.instance_document(instance))
    corpus.instances[key] = instance
    return path


def _sparse_public(n: int, m: int, k: int, rng: random.Random):
    from fairdec import decision_instance

    return decision_instance(
        [
            [
                [
                    0 if rng.random() < SPARSE_ZERO_SHARE else rng.randint(1, 5)
                    for _ in range(k)
                ]
                for _ in range(n)
            ]
            for _ in range(m)
        ]
    )


def _skewed_goods(n: int, m: int, rng: random.Random):
    from fairdec import goods_instance

    return goods_instance(
        [[rng.randint(0, 4 * (i + 1)) for _ in range(m)] for i in range(n)]
    )


def _solve(workdir: Path, key: str, path: Path, mechanism: str, extra=(), tag=""):
    out = workdir / f"out-{key}-{mechanism}{tag}.json"
    argv = ("solve", "--mechanism", mechanism, "--input", str(path), "--with-audit")
    return out, argv + tuple(extra) + ("--out", str(out))


def public_search(seed: int, workdir: Path) -> Corpus:
    """Small public instances and goods embeddings, solved by all three
    public mechanisms with the exhaustive PO audit."""
    from fairdec import random_goods, random_public
    from fairdec.generators import lemma6_upper, theorem5

    rng = random.Random(seed)
    corpus = Corpus()
    built = []
    for cycle in range(SEARCH_CYCLES):
        for n, m, k in DENSE:
            instance = random_public(n, m, k, rng.randrange(2**32))
            built.append((f"dense-{n}x{m}k{k}-{cycle}", instance))
        for n, m, k in SPARSE:
            built.append((f"sparse-{n}x{m}k{k}-{cycle}", _sparse_public(n, m, k, rng)))
        for n, m in SMALL_GOODS:
            instance = random_goods(n, m, rng.randrange(2**32))
            built.append((f"goods-{n}x{m}-{cycle}", instance))
    fixed = [(f"theorem5-{n}", theorem5(n)) for n in THEOREM5_SIZES]
    fixed.append(("lemma6-3", lemma6_upper(3)[0]))
    step = len(built) // len(fixed)
    for j, item in enumerate(fixed):
        built.insert(j * (step + 1) + step // 2, item)

    for key, instance in built:
        path = _add_instance(corpus, workdir, key, instance)
        extra = ["--po-cap", str(PO_CAP)]
        if _with_mms(instance):
            extra.append("--with-mms")
        for mechanism in ("round-robin", "leximin", "mnw"):
            out, argv = _solve(workdir, key, path, mechanism, extra)
            corpus.ops.append(Op(argv, out, key, mechanism))
    return corpus


def goods_alloc(seed: int, workdir: Path) -> Corpus:
    """Uniform and skewed goods instances solved by the PPS+PO allocator and
    the Prop1+PO search, each with the embedded audit and no PO check."""
    from fairdec import random_goods

    rng = random.Random(seed)
    corpus = Corpus()
    for cycle in range(GOODS_CYCLES):
        for (nu, mu), (ns, ms) in zip(UNIFORM_GOODS, SKEWED_GOODS):
            uniform = random_goods(nu, mu, rng.randrange(2**32))
            for key, instance in (
                (f"uniform-{nu}x{mu}-{cycle}", uniform),
                (f"skewed-{ns}x{ms}-{cycle}", _skewed_goods(ns, ms, rng)),
            ):
                path = _add_instance(corpus, workdir, key, instance)
                for mechanism in ("pps-po", "prop1-po"):
                    out, argv = _solve(workdir, key, path, mechanism)
                    corpus.ops.append(Op(argv, out, key, mechanism))
    return corpus


def _audits_and_solves(workdir, key, path, result, orders, pair=None) -> list[Op]:
    ops = []
    for fmt in ("json", "text"):
        out = workdir / f"out-{key}-audit.{fmt}"
        argv = ("audit", "--input", str(path), "--result", str(result))
        argv += ("--format", fmt, "--out", str(out))
        ops.append(Op(argv, out, key, f"audit-{fmt}", pair))
    for tag, order in enumerate(orders):
        extra = ("--order", ",".join(map(str, order)))
        out, argv = _solve(workdir, key, path, "round-robin", extra, tag=f"-{tag}")
        ops.append(Op(argv, out, key, "round-robin"))
    return ops


def large_inputs(seed: int, workdir: Path) -> Corpus:
    """Large public and goods instances, each goods instance also written as
    its public embedding; every file is audited against a seeded proposed
    result (json and text) and solved by round robin under two orders.

    The pass takes one operation from each file in turn, so that a run cut
    at any point holds a like share of cheap and costly files, and of audits
    and solves.
    """
    from fairdec import (
        allocation_to_outcome,
        goods_to_public,
        random_goods,
        random_public,
    )
    from fairdec.io import bundles_document
    from fairdec.model import Allocation

    rng = random.Random(seed)
    corpus = Corpus()
    per_file = []

    def orders(n):
        return [rng.sample(range(n), n) for _ in range(2)]

    for n, m, k in LARGE_PUBLIC:
        key = f"public-{n}x{m}k{k}"
        instance = random_public(n, m, k, rng.randrange(2**32))
        path = _add_instance(corpus, workdir, key, instance)
        result = workdir / f"{key}-proposed.json"
        choices = [rng.randrange(k) for _ in range(m)]
        _write(result, {"kind": "public-result", "choices": choices})
        per_file.append(_audits_and_solves(workdir, key, path, result, orders(n)))

    for n, m in LARGE_GOODS:
        key = f"goods-{n}x{m}"
        goods = random_goods(n, m, rng.randrange(2**32))
        owners = [rng.randrange(n) for _ in range(m)]
        alloc = Allocation(
            bundles=tuple(
                frozenset(g for g in range(m) if owners[g] == i) for i in range(n)
            )
        )
        path = _add_instance(corpus, workdir, key, goods)
        result = workdir / f"{key}-proposed.json"
        _write(result, {"kind": "goods-result", "bundles": bundles_document(alloc)})
        per_file.append(_audits_and_solves(workdir, key, path, result, orders(n), key))
        embed_key = f"{key}-embedded"
        embed_path = _add_instance(corpus, workdir, embed_key, goods_to_public(goods))
        embed_result = workdir / f"{embed_key}-proposed.json"
        choices = list(allocation_to_outcome(goods, alloc).choices)
        _write(embed_result, {"kind": "public-result", "choices": choices})
        per_file.append(
            _audits_and_solves(
                workdir, embed_key, embed_path, embed_result, orders(n), key
            )
        )
    # rotate each file's operations so that every turn mixes audits and solves
    per_file = [ops[i % 4 :] + ops[: i % 4] for i, ops in enumerate(per_file)]
    for turn in zip(*per_file):
        corpus.ops.extend(turn)
    return corpus


WORKLOADS = {
    "public-search": public_search,
    "goods-alloc": goods_alloc,
    "large-inputs": large_inputs,
}

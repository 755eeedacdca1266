"""Output checks, run outside the timed region.

Each rule recomputes what it can without the code under test: utilities,
pessimistic shares and the weighted-welfare certificate are summed here from
the instance, and leximin and Nash welfare outcomes are compared with the
brute-force ``fairdec.oracles.exact_optimum``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from fairdec.model import GoodsInstance, goods_to_public, outcome_to_allocation
from fairdec.oracles import exact_optimum

ORACLE_OBJECTIVE = {"leximin": "leximin", "mnw": "nash"}
SHARE_AXIOMS = ("prop", "prop1", "rrs", "pps")
SHARE_LABELS = ("Prop:", "Prop1:", "RRS:", "PPS:")


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rational(value) -> Fraction:
    return Fraction(str(value))


def _utilities(instance, result: dict) -> list[Fraction]:
    if isinstance(instance, GoodsInstance):
        return [
            sum((instance.utilities[i][g] for g in bundle), Fraction(0))
            for i, bundle in enumerate(result["bundles"])
        ]
    picks = list(zip(instance.issues, result["choices"]))
    return [
        sum((issue.utilities[i][c] for issue, c in picks), Fraction(0))
        for i in range(instance.n)
    ]


def _check_allocation(goods: GoodsInstance, bundles: list) -> None:
    _require(len(bundles) == goods.n, "one bundle per player")
    _require(
        sorted(g for bundle in bundles for g in bundle) == list(range(goods.m)),
        "bundles hand out every good exactly once",
    )


def _check_welfare_certificate(goods: GoodsInstance, doc: dict) -> None:
    weights = [_rational(w) for w in doc["trace"]["weights"]]
    _require(all(w > 0 for w in weights), "weights are positive")
    for i, bundle in enumerate(doc["bundles"]):
        for g in bundle:
            best = max(w * row[g] for w, row in zip(weights, goods.utilities))
            _require(
                weights[i] * goods.utilities[i][g] == best,
                f"good {g} is not with a weighted-welfare maximizer",
            )


def _check_pps(goods: GoodsInstance, doc: dict) -> None:
    p = goods.m // goods.n
    for i, (row, utility) in enumerate(zip(goods.utilities, _utilities(goods, doc))):
        pps = sum(sorted(row)[:p], Fraction(0))
        _require(pps == 0 or utility >= pps, f"player {i} is below her PPS")


def _audit_players(doc: dict) -> list[dict]:
    return doc["audit"]["players"]


class Checker:
    """Checks operation outputs of one corpus; caches oracle optima."""

    def __init__(self, corpus) -> None:
        self.corpus = corpus
        self._optima: dict = {}

    def _optimum_choices(self, key: str, objective: str):
        if (key, objective) not in self._optima:
            instance = self.corpus.instances[key]
            goods = isinstance(instance, GoodsInstance)
            public = goods_to_public(instance) if goods else instance
            outcome = exact_optimum(public, objective).outcome
            if goods:
                alloc = outcome_to_allocation(instance, outcome)
                expected = [sorted(b) for b in alloc.bundles]
            else:
                expected = list(outcome.choices)
            self._optima[key, objective] = expected
        return self._optima[key, objective]

    def check(self, op, output: bytes) -> None:
        """Raise CheckFailed unless ``output`` is right for ``op``."""
        instance = self.corpus.instances[op.key]
        if op.check == "audit-text":
            self._check_audit_text(op, instance, output.decode())
            return
        doc = json.loads(output)
        if op.check == "audit-json":
            result = json.loads(_argument(op, "--result").read_text())
            utilities = [_rational(u) for u in doc["utilities"]]
            _require(utilities == _utilities(instance, result), "audit utilities")
            return
        utilities = [_rational(u) for u in doc["utilities"]]
        _require(utilities == _utilities(instance, doc), "result utilities")
        if isinstance(instance, GoodsInstance):
            _check_allocation(instance, doc["bundles"])
        if op.check == "round-robin":
            for i, player in enumerate(_audit_players(doc)):
                _require(player["rrs"]["satisfied"], f"player {i} misses RRS")
                _require(player["prop1"]["satisfied"], f"player {i} misses Prop1")
        elif op.check in ORACLE_OBJECTIVE:
            field = "bundles" if isinstance(instance, GoodsInstance) else "choices"
            expected = self._optimum_choices(op.key, ORACLE_OBJECTIVE[op.check])
            _require(doc[field] == expected, f"{op.check} differs from the oracle")
            _require(doc["audit"]["po"]["satisfied"], f"{op.check} is not PO")
        elif op.check == "pps-po":
            _check_pps(instance, doc)
            _check_welfare_certificate(instance, doc)
        elif op.check == "prop1-po":
            prop1 = all(p["prop1"]["satisfied"] for p in _audit_players(doc))
            _require(
                doc["trace"]["certified_prop1"] == prop1,
                "certified_prop1 disagrees with the embedded audit",
            )
            _check_welfare_certificate(instance, doc)
        else:
            raise CheckFailed(f"no rule {op.check!r}")

    def _check_audit_text(self, op, instance, text: str) -> None:
        result = json.loads(_argument(op, "--result").read_text())
        utilities = [
            _rational(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if ": utility " in line
        ]
        _require(utilities == _utilities(instance, result), "audit text utilities")

    def check_pairs(self, ops, outputs: dict) -> set[int]:
        """Indices of audits whose goods-route and public-route twins ran and
        disagree on a Prop/Prop1/RRS/PPS level or on a utility."""
        groups: dict = {}
        for index, op in enumerate(ops):
            if op.pair is not None and index in outputs:
                groups.setdefault((op.pair, op.check), []).append(index)
        failed = set()
        for (_, check), indices in groups.items():
            if len(indices) != 2:
                continue
            views = [_share_view(check, outputs[i]) for i in indices]
            if views[0] != views[1]:
                failed.update(indices)
        return failed


def _share_view(check: str, output: bytes):
    if check == "audit-text":
        return [
            line
            for line in output.decode().splitlines()
            if ": utility " in line or line.strip().startswith(SHARE_LABELS)
        ]
    doc = json.loads(output)
    return doc["utilities"], [
        {axiom: player[axiom] for axiom in SHARE_AXIOMS} for player in doc["players"]
    ]


def _argument(op, flag: str) -> Path:
    return Path(op.argv[op.argv.index(flag) + 1])

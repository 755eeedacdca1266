"""One-line source mutants that the tier-1 tests must kill, and their runner.

Run it from anywhere: ``python tests/mutants.py`` runs every mutant, and
``python tests/mutants.py NAME ...`` runs the named ones. For each mutant the
runner copies ``src/`` and ``tests/`` to a temporary directory, with the
``README.md`` and ``pyproject.toml`` the tests read, replaces the mutant's
old text, which must occur exactly once in its file, with its new text, and
runs ``python -m pytest -x -q`` on its test files one after another. A
failing run kills the mutant. Each mutant gets one line: KILLED with the
first failing test, or SURVIVED. The exit status is 1 when a mutant outside
``EXPECTED_SURVIVORS`` survives or one inside it is killed, and 2 when an old
text is not found exactly once.

The file has no ``test_`` prefix, so the tier-1 run does not collect it.
A change that adds a prune, a tie rule or an emitter path adds its mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# a fixed Hypothesis seed makes each verdict repeatable
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/fairdec
    old: str
    new: str
    tests: tuple[str, ...]  # under tests


MUTANTS = [
    # the search kernel, the view and the Pareto check
    Mutant(
        "prune-tie-rule",
        "mechanisms.py",
        "key(map(add, vector, suffix)) <= best",
        "key(map(add, vector, suffix)) < best",
        ("test_mechanisms.py",),
    ),
    Mutant(
        "view-dominance-reversed",
        "model.py",
        "all(map(ge, other, vector))",
        "all(map(ge, vector, other))",
        ("test_mechanisms.py",),
    ),
    Mutant(
        "pareto-prune",
        "mechanisms.py",
        "not all(map(ge, map(add, vector, suffix), base))",
        "not any(map(ge, map(add, vector, suffix), base))",
        ("test_mechanisms.py",),
    ),
    # the goods allocators
    Mutant(
        "quota-count",
        "private_goods.py",
        "row.count(0) < p",
        "row.count(0) <= p",
        ("test_private_goods.py",),
    ),
    Mutant(
        "tie-argmin-last",
        "private_goods.py",
        "top * best[1] < best[0] * bottom",
        "top * best[1] <= best[0] * bottom",
        ("test_private_goods.py",),
    ),
    Mutant(
        "degenerate-ratio",
        "private_goods.py",
        "top, bottom = left * a or 1, right * b or 1",
        "top, bottom = left * a or 2, right * b or 1",
        ("test_private_goods.py",),
    ),
    Mutant(
        "no-tie-returns-none",
        "private_goods.py",
        'raise InvariantError("no tie can reach a player outside the group")',
        "return None",
        ("test_private_goods.py",),
    ),
    Mutant(
        "prop1-stale-after-a-round",
        "private_goods.py",
        "ok[i] = prop1_ok(i)",
        "ok[i] = ok[i]",
        ("test_private_goods.py",),
    ),
    Mutant(
        "float-weights",
        "private_goods.py",
        "len(weights) != goods.n or not exact or",
        "len(weights) != goods.n or",
        ("test_private_goods.py",),
    ),
    # the audits
    Mutant(
        "audit-level-strict",
        "audit.py",
        "satisfied=value >= reference",
        "satisfied=value > reference",
        ("test_audit.py",),
    ),
    Mutant(
        "goods-ef1-read",
        "audit.py",
        "max(map(sub, worth, top), default=0)",
        "min(map(sub, worth, top), default=0)",
        ("test_audit.py",),
    ),
    Mutant(
        "goods-prop1-read",
        "audit.py",
        "reach.append(value + max(top, default=0))",
        "reach.append(value + min(top, default=0))",
        ("test_audit.py",),
    ),
    # round robin
    Mutant(
        "round-robin-any-player",
        "mechanisms.py",
        "if not {*map(type, order)} <= {int} or sorted(order)",
        "if sorted(order)",
        ("test_mechanisms.py",),
    ),
    # maximin share: each mutant keeps the values and only loses pruning
    Mutant(
        "mms-bound-strict",
        "shares.py",
        "if level // k <= best:",
        "if level // k < best:",
        ("test_shares.py",),
    ),
    Mutant(
        "mms-no-greedy-start",
        "shares.py",
        "best = min(sums)",
        "best = 0",
        ("test_shares.py",),
    ),
    Mutant(
        "mms-no-equal-sum-merge",
        "shares.py",
        "todo[t] = list({sums[j]: j for j in reversed(order)}.values())",
        "todo[t] = list(reversed(order))",
        ("test_shares.py",),
    ),
    # the Fraction rows a factory leaves unbuilt share one value table
    Mutant(
        "unscaled-value-table",
        "model.py",
        "built.append(tuple(map(values.setdefault, fractions, fractions)))",
        "built.append(tuple(fractions))",
        ("test_model.py",),
    ),
    # the frozen base of the instance classes
    Mutant(
        "frozen-equal-across-classes",
        "model.py",
        "if other.__class__ is self.__class__:",
        "if isinstance(other, _Frozen):",
        ("test_records.py",),
    ),
    Mutant(
        "frozen-repr",
        "model.py",
        "return f\"{type(self).__name__}({', '.join(shown)})\"",
        "return f\"{type(self).__name__}({','.join(shown)})\"",
        ("test_records.py",),
    ),
    Mutant(
        "frozen-assignment",
        "model.py",
        'raise AttributeError(f"cannot assign to field {name!r}")',
        "object.__setattr__(self, name, value)",
        ("test_records.py",),
    ),
    Mutant(
        "frozen-deletion",
        "model.py",
        'raise AttributeError(f"cannot delete field {name!r}")',
        "object.__delattr__(self, name)",
        ("test_records.py",),
    ),
    Mutant(
        "frozen-hash",
        "model.py",
        "return hash(self._values())",
        "return id(self)",
        ("test_records.py",),
    ),
    Mutant(
        "frozen-argument-count",
        "model.py",
        "if given != len(fields) or",
        "if given > len(fields) or",
        ("test_records.py",),
    ),
    # the family table: each listed parameter is checked
    Mutant(
        "family-checks-one-parameter",
        "generators.py",
        "for name in required if given[name] is None",
        "for name in required[:1] if given[name] is None",
        ("test_generators.py",),
    ),
    # the command line
    Mutant(
        "no-interrupt-exit",
        "cli.py",
        "except KeyboardInterrupt:",
        "except ArithmeticError:",
        ("test_cli.py",),
    ),
    # what each command loads: io would load the goods allocators
    Mutant(
        "io-loads-the-allocators",
        "io.py",
        "if TYPE_CHECKING:",
        "if True:",
        ("test_imports.py",),
    ),
    # the package's __all__, read off the names it binds
    Mutant(
        "all-lists-modules",
        "__init__.py",
        " and not isinstance(value, _Module)",
        "",
        ("test_imports.py",),
    ),
    Mutant(
        "all-drops-lazy-names",
        "__init__.py",
        "*_chain(*_LAZY.values()),",
        "",
        ("test_imports.py",),
    ),
    # the bulk record writers of io: each must write the reference's bytes
    Mutant(
        "reduction-donor-recipient-swapped",
        "io.py",
        "_LITERALS[c.degenerate], c.donor, _rational(c.factor), c.good, c.recipient",
        "_LITERALS[c.degenerate], c.recipient, _rational(c.factor), c.good, c.donor",
        ("test_io.py",),
    ),
    Mutant(
        "transfer-fields-unsorted",
        "io.py",
        "itemgetter(0, 2, 1)",
        "itemgetter(0, 1, 2)",
        ("test_io.py",),
    ),
    Mutant(
        "empty-list-by-its-iterable",
        "io.py",
        'return "[" + inner + body + newline + "]" if body else "[]"',
        'return "[" + inner + body + newline + "]" if texts else "[]"',
        ("test_io.py",),
    ),
    Mutant(
        "whole-rational-quoted",
        "io.py",
        'return "%d" % value.numerator',
        """return '"%d"' % value.numerator""",
        ("test_io.py",),
    ),
    Mutant(
        "zero-alpha-unbounded",
        "io.py",
        """'"unbounded"' if c.alpha is None else _rational(c.alpha)""",
        """'"unbounded"' if not c.alpha else _rational(c.alpha)""",
        ("test_io.py",),
    ),
    Mutant(
        "none-axiom-kept",
        "io.py",
        "zip(player._fields, player) if c is not None)",
        "zip(player._fields, player))",
        ("test_io.py",),
    ),
    Mutant(
        "pick-fields-unsorted",
        "io.py",
        "itemgetter(2, 1, 0)",
        "itemgetter(0, 1, 2)",
        ("test_io.py",),
    ),
    # the one-dataclass rule
    Mutant(
        "dataclass-by-import",
        "errors.py",
        "class GenerationError(FairdecError):",
        '@__import__("dataclasses").dataclass\nclass GenerationError(FairdecError):',
        ("test_source_rules.py",),
    ),
    Mutant(
        "dataclass-imported-unused",
        "errors.py",
        "from typing import TYPE_CHECKING",
        # on the same line, so the line ceiling cannot kill it
        "from typing import TYPE_CHECKING; from dataclasses import dataclass as frozen",
        ("test_source_rules.py",),
    ),
]

# an import with no use generates no code, so the rule does not flag it
EXPECTED_SURVIVORS = {"dataclass-imported-unused"}


def _copy(tree: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tree / name, ignore=skip)
    for name in ("README.md", "pyproject.toml"):
        shutil.copy2(ROOT / name, tree / name)


def _source(mutant: Mutant, tree: Path = ROOT) -> Path:
    return tree / "src" / "fairdec" / mutant.file


def _first_failure(output: str, tree: Path) -> str:
    """The first FAILED or ERROR line, else the place a run was interrupted
    (pytest stops on a KeyboardInterrupt that escapes a test), else the last."""
    lines = output.replace(f"{tree}{os.sep}", "").splitlines() or ["no output"]
    for mark in (("FAILED ", "ERROR "), ("tests",)):
        found = [line for line in lines if line.startswith(mark)]
        if found:
            return found[0]
    return lines[-1]


def run(mutant: Mutant) -> tuple[bool, str]:
    """Whether the mutant's tests kill it, and the first failing test."""
    with tempfile.TemporaryDirectory(prefix="fairdec-mutant-") as scratch:
        tree = Path(scratch)
        _copy(tree)
        path = _source(mutant, tree)
        path.write_text(
            path.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
            encoding="utf-8",
        )
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        for test in mutant.tests:
            done = subprocess.run(
                [sys.executable, *PYTEST, f"tests/{test}"],
                cwd=tree,
                env=env,
                capture_output=True,
                text=True,
            )
            if done.returncode:
                return True, _first_failure(done.stdout + done.stderr, tree)
    return False, ""


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    texts = {m.file: _source(m).read_text(encoding="utf-8") for m in chosen}
    stale = [m.name for m in chosen if texts[m.file].count(m.old) != 1]
    if unknown or stale:
        print(f"unknown mutants: {sorted(unknown)}; old text not found once: {stale}")
        return 2
    wrong = []
    for mutant in chosen:
        start = time.perf_counter()
        killed, failure = run(mutant)
        seconds = time.perf_counter() - start
        expected = mutant.name in EXPECTED_SURVIVORS
        verdict = "KILLED" if killed else "SURVIVED"
        note = " (expected to survive)" if expected else ""
        print(f"{verdict:8} {mutant.name}{note} {seconds:.1f}s {failure}")
        if killed == expected:
            wrong.append(mutant.name)
    if wrong:
        print(f"unexpected: {', '.join(wrong)}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

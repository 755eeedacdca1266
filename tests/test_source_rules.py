"""Source rules for the package: checks on its syntax trees, and a size ceiling.

No module may use an ``assert`` statement (``python -O`` strips them, so an
invariant must raise a FairdecError instead), no module may reach into
another module's private, ``_``-prefixed names, the brute-force reference
``oracles.py`` imports no package module but ``model``, ``shares`` and
``errors``, only ``cli`` and the package import ``oracles`` and only they and
``io`` import ``audit``, no module uses ``json.dumps`` (``io.to_json`` is the
one emitter), every ``open``, ``read_text`` and ``write_text`` call names its
``encoding`` (files are UTF-8 whatever the locale), ``AuditReport`` is the
one dataclass (importing the package generates no per-class code), and the
package may not grow past the line ceiling ROADMAP.md sets for it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fairdec"
MODULES = sorted(PACKAGE.glob("*.py"))
LINE_CEILING = 3005  # src/fairdec/*.py, all lines counted


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_imports(tree: ast.Module) -> list[str]:
    """Private names taken from other modules: ``from m import _x`` and
    ``m._x`` on a module bound by an import."""
    found = []
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"from {node.module or '.'} import {alias.name}")
                else:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and _private(node.attr)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


def _package_imports(tree: ast.Module) -> set[str]:
    """Package modules imported, relatively or by name; ``__init__`` stands
    for the package itself."""
    dotted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["fairdec" * bool(node.level), node.module]))
            if module == "fairdec":  # from . import m, from fairdec import m
                dotted += [f"fairdec.{alias.name}" for alias in node.names]
            else:
                dotted.append(module)
    parts = [name.split(".") for name in dotted]
    return {p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "fairdec"}


def test_the_package_has_modules():
    assert any(path.name == "shares.py" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_imports_across_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _private_imports(tree) == []


def test_the_reference_stands_alone():
    tree = ast.parse((PACKAGE / "oracles.py").read_text())
    assert _package_imports(tree) <= {"model", "shares", "errors"}


def _importers(module: str) -> set[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    return {name for name, tree in trees.items() if module in _package_imports(tree)}


def test_the_reference_and_the_audit_are_leaves():
    assert _importers("oracles") == {"cli"}
    assert _importers("audit") == {"cli", "io", "__init__"}


def _json_dumps_uses(tree: ast.Module) -> list[int]:
    """Lines that name ``json.dumps``, through any name ``json`` is bound to,
    or import ``dumps`` from ``json``."""
    json_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "json"
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "dumps"
        and isinstance(node.value, ast.Name)
        and node.value.id in json_names
        or isinstance(node, ast.ImportFrom)
        and node.module == "json"
        and any(alias.name == "dumps" for alias in node.names)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_json_is_written_by_one_emitter(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _json_dumps_uses(tree) == [], f"{path.name}: json.dumps"


def test_the_json_rule_sees_every_form():
    source = "import json\nimport json as j\nfrom json import dumps\n"
    source += "json.dumps(1)\nj.dumps\n"
    assert sorted(_json_dumps_uses(ast.parse(source))) == [3, 4, 5]
    assert _json_dumps_uses(ast.parse("import json\njson.loads('1')\n")) == []


FILE_CALLS = {"open", "read_text", "write_text"}


def _calls_without_encoding(tree: ast.Module) -> list[int]:
    """Lines that call ``open`` (by name or as a method), ``read_text`` or
    ``write_text`` without an ``encoding=`` keyword."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            isinstance(node.func, ast.Name)
            and node.func.id == "open"
            or isinstance(node.func, ast.Attribute)
            and node.func.attr in FILE_CALLS
        )
        and not any(keyword.arg == "encoding" for keyword in node.keywords)
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_files_are_opened_with_an_encoding(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _calls_without_encoding(tree) == [], f"{path.name}: no encoding="


def test_the_encoding_rule_sees_every_form():
    source = "open('f')\nPath('f').read_text()\np.write_text('x')\np.open('r')\n"
    source += "open('f', encoding='utf-8')\np.read_text(encoding='utf-8')\n"
    source += "p.write_text('x', encoding='utf-8')\nio.open('f', encoding='ascii')\n"
    source += "p.read_bytes()\nopened('f')\n"
    assert sorted(_calls_without_encoding(ast.parse(source))) == [1, 2, 3, 4]


def _dataclass_uses(tree: ast.Module) -> list[str]:
    """Each use of ``dataclass`` or ``make_dataclass``, as an attribute of
    anything or through any name imported for them: the class it decorates,
    or "line N" for any other use."""
    makers = {"dataclass", "make_dataclass"}
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        for alias in node.names
        if alias.name in makers
    }
    decorated = {
        id(getattr(decorator, "func", decorator)): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for decorator in node.decorator_list
    }
    return [
        decorated.get(id(node), f"line {node.lineno}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Name)
        and node.id in names
        or isinstance(node, ast.Attribute)
        and node.attr in makers
    ]


def test_audit_report_is_the_one_dataclass():
    """A dataclass generates and compiles its methods when its module is
    imported, which made up most of the package's import time; the records
    are NamedTuples and the instance classes share ``model``'s frozen base.
    ``AuditReport`` stays a dataclass because the benchmark's pipeline
    (``perfbench/pipeline.py``) sets a report's ``po`` by
    ``dataclasses.replace``."""
    uses = {path.name: _dataclass_uses(ast.parse(path.read_text())) for path in MODULES}
    assert {name: found for name, found in uses.items() if found} == {
        "audit.py": ["AuditReport"]
    }


def test_the_dataclass_rule_sees_every_form():
    source = "from dataclasses import dataclass, make_dataclass as md, field\n"
    source += "import dataclasses as dc\n@dataclass\nclass A: pass\n"
    source += "@dc.dataclass(frozen=True)\nclass B: pass\n@other\nclass C: pass\n"
    source += "D = md('D', [])\nE = dc.make_dataclass('E', [])\nfield()\n"
    source += "@__import__('dataclasses').dataclass\nclass G: pass\n"
    expected = ["A", "B", "line 9", "line 10", "G"]
    assert sorted(_dataclass_uses(ast.parse(source))) == sorted(expected)
    assert _dataclass_uses(ast.parse("class F(NamedTuple): pass\ndataclass = 1\n")) == []


def test_the_package_stays_under_its_line_ceiling():
    lines = sum(len(path.read_text().splitlines()) for path in MODULES)
    assert lines <= LINE_CEILING, f"src/fairdec has {lines} lines"

"""What each command loads.

Every command is a fresh process that compiles and imports each module it
loads, so a command loads only what it runs; README lists what each loads.
Each case below runs in a fresh interpreter and lists the package's modules
loaded at its end.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import fairdec as fd
from fairdec import io
from fairdec.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"
CORE = {"fairdec", "audit", "errors", "generators", "mechanisms", "model", "shares"}
CLI = CORE | {"cli", "io"}

PROBE = """
import json, sys
{code}
package = [name for name in sys.modules if name.split(".")[0] == "fairdec"]
print(json.dumps([name.partition(".")[2] or name for name in package]))
"""


def loaded(code: str) -> set[str]:
    """The package's modules loaded by ``code`` in a fresh interpreter, by
    module name, ``fairdec`` for the package itself."""
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join(filter(None, [str(SRC), inherited]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(code=code)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def command(*argv: str) -> str:
    return f"from fairdec.cli import main\nif main({list(argv)!r}):\n    sys.exit(1)"


@pytest.fixture
def files(tmp_path):
    """A small public instance, a result of it and a goods instance."""
    public, goods = tmp_path / "public.json", tmp_path / "goods.json"
    public.write_text(io.to_json(io.instance_document(fd.random_public(3, 4, 2, 7))))
    goods.write_text(io.to_json(io.instance_document(fd.random_goods(3, 6, 7))))
    result, out = tmp_path / "result.json", tmp_path / "out.json"
    solve = ["solve", "--mechanism", "round-robin", "--input", str(public)]
    assert main(solve + ["--out", str(result)]) == 0
    return {"public": public, "goods": goods, "result": result, "out": out}


CASES = {
    "import-fairdec": ("import fairdec", CORE),
    "import-cli": ("import fairdec.cli", CLI),
    "solve-leximin": (
        ("solve", "--mechanism", "leximin", "--input", "{public}", "--with-audit")
        + ("--po-cap", "100000", "--out", "{out}"),
        CLI,
    ),
    "audit": (
        ("audit", "--input", "{public}", "--result", "{result}", "--out", "{out}"),
        CLI,
    ),
    "solve-pps-po": (
        ("solve", "--mechanism", "pps-po", "--input", "{goods}", "--out", "{out}"),
        CLI | {"private_goods"},
    ),
    "oracle": (
        ("oracle", "--objective", "nash", "--input", "{public}", "--out", "{out}"),
        CLI | {"oracles"},
    ),
    "allocator-constant": (
        "import fairdec\nfairdec.private_goods.SEARCH_ROUNDS",
        CORE | {"private_goods"},
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_each_command_loads_only_what_it_runs(files, case):
    code, expected = CASES[case]
    if not isinstance(code, str):
        code = command(*(part.format(**files) for part in code))
    assert loaded(code) == expected


def test_every_public_name_resolves_and_none_is_a_module():
    """``__all__`` lists the 54 public names, the lazily loaded ones
    included, and ``from fairdec import *`` binds each of them to no module."""
    namespace = {}
    exec("from fairdec import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fd.__all__) and len(fd.__all__) == 54
    modules = [name for name, value in namespace.items() if isinstance(value, ModuleType)]
    assert modules == []
    assert set(fd.__all__) <= set(dir(fd))


def test_audit_is_the_function_and_missing_names_raise():
    """The package's ``audit`` is the audit function, not its module."""
    assert fd.audit is sys.modules["fairdec.audit"].audit
    assert isinstance(fd.private_goods, ModuleType) and fd.private_goods.SEARCH_ROUNDS
    with pytest.raises(AttributeError, match="has no attribute 'missing'"):
        fd.missing


def test_a_reload_keeps_each_public_name_once_and_no_module():
    """A reload reads ``__all__`` off a namespace in which ``__getattr__``
    has cached lazy names and bound their modules; each name stays listed
    once and no module is listed."""
    code = (
        "import importlib, types\nimport fairdec as fd\n"
        "fd.pps_po_allocate, fd.exact_optimum\nimportlib.reload(fd)\n"
        "names = fd.__all__\n"
        "modules = [n for n in names if isinstance(getattr(fd, n), types.ModuleType)]\n"
        "if len(names) != 54 or len(set(names)) != 54 or modules:\n"
        "    sys.exit(f'{len(names)} names, {len(set(names))} unique, modules {modules}')"
    )
    assert loaded(code) == CORE | {"oracles", "private_goods"}

"""Command line behavior: exit codes, documents, determinism."""

import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import BytesIO, RawIOBase, StringIO, TextIOWrapper
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fairdec as fd
from fairdec import cli, io
from fairdec.cli import main


README = Path(__file__).resolve().parents[1] / "README.md"


def documented_exit_codes() -> set[int]:
    """The codes in README's exit-code table."""
    section = README.read_text(encoding="utf-8").split("\n### Exit codes\n")[1]
    table = section.split("\n### ")[0]
    return {int(code) for code in re.findall(r"^\| (\d+) \|", table, re.MULTILINE)}


def write_instance(path, instance):
    path.write_text(io.to_json(io.instance_document(instance)))
    return str(path)


@pytest.fixture
def contested_file(tmp_path):
    return write_instance(tmp_path / "inst.json", fd.generate("example2").instance)


@pytest.fixture
def goods_file(tmp_path):
    goods = fd.goods_instance([[4, 4, 1, 1], [3, 3, 2, 2]])
    return write_instance(tmp_path / "goods.json", goods)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_env(**environ) -> dict:
    """This process's environment with the package source on PYTHONPATH and
    ``environ`` added."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join(filter(None, [src, inherited]))
    return dict(os.environ, PYTHONPATH=path, **environ)


def run_fresh(argv, *python_flags, **environ):
    """The same command in a new ``python -m fairdec.cli`` process, with
    ``environ`` added to the environment."""
    done = subprocess.run(
        [sys.executable, *python_flags, "-m", "fairdec.cli", *argv],
        capture_output=True,
        text=True,
        env=fresh_env(**environ),
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def test_solve_round_robin(capsys, contested_file):
    code, out, err = run(
        capsys, ["solve", "--mechanism", "round-robin", "--input", contested_file]
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["kind"] == "public-result"
    assert doc["choices"] == [0, 1, 0, 1, 0, 0, 0, 0]
    assert doc["utilities"] == [6, 2]
    assert doc["trace"]["picks"][0] == {"player": 0, "issue": 0, "alternative": 0}


def test_solve_with_order_and_audit(capsys, contested_file):
    code, out, _ = run(
        capsys,
        [
            "solve",
            "--mechanism",
            "round-robin",
            "--input",
            contested_file,
            "--order",
            "1,0",
            "--with-audit",
            "--po-cap",
            "300",
        ],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["choices"] == [1, 0, 1, 0, 0, 0, 0, 0]
    assert doc["audit"]["utilities"] == [6, 2]
    assert doc["audit"]["po"]["satisfied"] is True


def test_solve_public_mechanism_on_goods_reduces(capsys, goods_file):
    code, out, _ = run(
        capsys, ["solve", "--mechanism", "mnw", "--input", goods_file]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "goods-result"
    assert doc["mechanism"] == "mnw"
    assert sorted(g for b in doc["bundles"] for g in b) == [0, 1, 2, 3]


def test_solve_goods_mechanism_with_trace(capsys, goods_file):
    code, out, _ = run(
        capsys, ["solve", "--mechanism", "pps-po", "--input", goods_file]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["bundles"] == [[0, 1], [2, 3]]
    assert doc["trace"]["weights"] == ["1/2", "1/2"]
    assert doc["trace"]["rounds"] == []


def test_solve_prop1_search_reports_certificate(capsys, goods_file):
    code, out, _ = run(
        capsys, ["solve", "--mechanism", "prop1-po", "--input", goods_file]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["trace"]["certified_prop1"] is True
    assert doc["trace"]["prop1_losses"] == []


def test_solve_goods_mechanism_needs_goods(capsys, contested_file):
    code, _, err = run(
        capsys, ["solve", "--mechanism", "pps-po", "--input", contested_file]
    )
    assert code == 2
    assert "needs a goods instance" in err


def test_solve_missing_file(capsys, tmp_path):
    code, _, err = run(
        capsys,
        ["solve", "--mechanism", "mnw", "--input", str(tmp_path / "absent.json")],
    )
    assert code == 2
    assert "error" in err


def test_unwritable_out_is_exit_two_with_one_line(capsys, tmp_path, goods_file):
    out = tmp_path / "no-such-dir" / "result.json"
    argv = ["solve", "--mechanism", "pps-po", "--input", goods_file, "--out", str(out)]
    code, stdout, err = run(capsys, argv)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert not out.parent.exists()


def test_undecodable_input_names_its_file(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"kind": "goods", "players": ["\xff"]}')
    argv = ["solve", "--mechanism", "pps-po", "--input", str(path)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_non_canonical_values_warn_one_line_each(capsys, tmp_path):
    document = {
        "kind": "goods",
        "players": ["a", "b"],
        "goods": ["x", "y"],
        "utilities": [["2/6", "4/1"], ["03", 1]],
    }
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(document))
    canonical = write_instance(
        tmp_path / "canonical.json",
        fd.goods_instance([[Fraction(1, 3), 4], [3, 1]], ["a", "b"], ["x", "y"]),
    )
    argv = ["solve", "--mechanism", "pps-po", "--input"]
    code, out, err = run(capsys, argv + [str(path)])
    assert (code, out) == run(capsys, argv + [canonical])[:2]
    assert code == 0
    assert err.splitlines() == [
        "warning: utilities[0][0]: non-canonical rational '2/6' read as 1/3",
        "warning: utilities[0][1]: non-canonical rational '4/1' read as 4",
        "warning: utilities[1][0]: whole number written as string '03'; "
        "canonical form is the JSON integer 3",
    ]


@pytest.mark.parametrize(
    "value, message",
    [
        (f'"1/{"9" * 5000}"', "utilities[0][1]: too many digits in a 5002-character number"),
        (f'"{"1" * 5000}"', "utilities[0][1]: too many digits in a 5000-character number"),
        ("1" * 5001, "malformed JSON: a number literal has too many digits"),
    ],
    ids=["ratio-string", "int-string", "int-literal"],
)
def test_over_long_numbers_exit_two_with_one_line(capsys, tmp_path, value, message):
    path = tmp_path / "long.json"
    path.write_text(
        '{"kind": "goods", "players": ["a"], "goods": ["g", "h"], '
        f'"utilities": [[1, {value}]]}}'
    )
    code, out, err = run(
        capsys, ["solve", "--mechanism", "round-robin", "--input", str(path)]
    )
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "value, message",
    [
        ('"1e5000"', "utilities[0][1]: too many digits in the exact value of a "
         "6-character number"),
        ("1e5000", "malformed JSON: a number literal has too many digits"),
        ('"1e-5000"', "utilities[0][1]: too many digits in the exact value of a "
         "7-character number"),
        (f'"1.{"1" * 5000}"', "utilities[0][1]: too many digits in the exact "
         "value of a 5002-character number"),
        (f'"1e{"1" * 5000}"', "utilities[0][1]: too many digits in the exact "
         "value of a 5002-character number"),
        (f'"1e{"0" * 5000}"', "utilities[0][1]: too many digits in the exact "
         "value of a 5002-character number"),
        (f'"0e{"1" * 5000}"', None),
    ],
    ids=[
        "exponent-string",
        "exponent-literal",
        "negative-exponent-string",
        "long-mantissa-string",
        "long-exponent-string",
        "long-zero-exponent-string",
        "zero-mantissa-long-exponent-string",
    ],
)
def test_over_long_decimals_are_refused_when_parsed(capsys, tmp_path, value, message):
    path = tmp_path / "long.json"

    def document(cell):
        return (
            '{"kind": "goods", "players": ["a"], "goods": ["g", "h"], '
            f'"utilities": [[1, {cell}]]}}'
        )

    path.write_text(document(value))
    argv = ["solve", "--mechanism", "round-robin", "--input", str(path)]
    result = run(capsys, argv + ["--allow-decimal"])
    if message is None:  # a zero mantissa reads as 0 at any exponent
        path.write_text(document("0"))
        assert result == run(capsys, argv) and result[0] == 0
    else:
        assert result == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        ([], "'٣' is not an integer or \"p/q\" string "
         "(decimals need the lossless-decimal option)"),
        (["--allow-decimal"], "cannot read '٣' as a number"),
    ],
    ids=["strict", "allow-decimal"],
)
def test_non_ascii_digits_are_not_numbers(capsys, tmp_path, flags, message):
    path = tmp_path / "arabic.json"
    path.write_text(
        '{"kind": "goods", "players": ["a"], "goods": ["g", "h"], '
        '"utilities": [[1, "٣"]]}'
    )
    argv = ["solve", "--mechanism", "round-robin", "--input", str(path)] + flags
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: utilities[0][1]: {message}\n")


def test_deeply_nested_documents_exit_two_with_one_line(
    capsys, tmp_path, goods_file
):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    expected = (2, "", "error: malformed JSON: nested too deeply\n")
    solve = ["solve", "--mechanism", "round-robin", "--input", str(deep)]
    assert run(capsys, solve) == expected
    audit = ["audit", "--input", goods_file, "--result", str(deep)]
    assert run(capsys, audit) == expected


def test_one_parser_serves_every_call_without_carrying_options(
    capsys, monkeypatch, contested_file
):
    built = []
    original = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    solve = ["solve", "--mechanism", "round-robin", "--input", contested_file]
    sequence = [
        solve + ["--order", "1,0"],
        solve,
        solve + ["--with-audit", "--with-mms"],
        solve + ["--with-audit"],
    ]
    outputs = [run(capsys, argv) for argv in sequence]
    assert len(built) == 1
    assert outputs[0] != outputs[1] and outputs[2] != outputs[3]
    for argv, output in zip(sequence, outputs):
        assert output[0] == 0
        assert output == run_fresh(argv)


def test_cap_exhaustion_is_exit_three(capsys, contested_file):
    code, _, err = run(
        capsys,
        ["solve", "--mechanism", "leximin", "--input", contested_file, "--cap", "10"],
    )
    assert code == 3
    assert "cap" in err


def test_mms_cap_counts_partitions_and_is_exit_three(capsys, contested_file):
    """--mms-cap bounds the number of partitions (128 for 8 issues and two
    players), not the work the search does."""
    solve = ["solve", "--mechanism", "round-robin", "--input", contested_file]
    solve += ["--with-audit", "--with-mms", "--mms-cap"]
    code, out, err = run(capsys, solve + ["100"])
    assert (code, out) == (3, "")
    assert err == (
        "error: maximin-share partition enumeration needs 128 points but the "
        "cap is 100; raise the cap to run this deliberately\n"
    )
    code, out, err = run(capsys, solve + ["128"])
    assert (code, err) == (0, "")
    assert all("mms" in player for player in json.loads(out)["audit"]["players"])


def test_degenerate_instances_are_exit_four(capsys, goods_file, monkeypatch):
    import fairdec.cli as cli

    def explode(instance):
        raise fd.DegenerateInstance("stuck")

    monkeypatch.setattr(cli, "pps_po_allocate", explode)
    code, _, err = run(
        capsys, ["solve", "--mechanism", "pps-po", "--input", goods_file]
    )
    assert code == 4
    assert "stuck" in err


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_leaves_the_collector_as_it_found_it(
    capsys, tmp_path, contested_file, goods_file, monkeypatch, enabled
):
    """main pauses the cyclic collector for a command and restores the state
    it found, whatever the exit code."""

    def explode(instance):
        raise fd.DegenerateInstance("stuck")

    monkeypatch.setattr(cli, "pps_po_allocate", explode)
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    solve = ["solve", "--mechanism"]
    commands = {
        0: solve + ["round-robin", "--input", contested_file, "--with-audit"],
        2: solve + ["round-robin", "--input", str(broken)],
        3: solve + ["leximin", "--input", contested_file, "--cap", "10"],
        4: solve + ["pps-po", "--input", goods_file],
    }
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for code, argv in commands.items():
            assert (main(argv), gc.isenabled()) == (code, enabled)
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


def test_the_documented_exit_codes():
    assert documented_exit_codes() == {0, 2, 3, 4, 130}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("mechanism", ["leximin", "pps-po"])
def test_an_interrupt_is_exit_130_with_one_line(
    capsys, contested_file, goods_file, monkeypatch, enabled, mechanism
):
    """Ctrl-C during a command ends it with the shell's code for SIGINT and
    one stderr line, no traceback and no output, and main still restores the
    collector."""

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "leximin", interrupted)
    monkeypatch.setattr(cli, "pps_po_allocate", interrupted)
    file = goods_file if mechanism == "pps-po" else contested_file
    argv = ["solve", "--mechanism", mechanism, "--input", file, "--with-audit"]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert (main(argv), gc.isenabled()) == (130, enabled)
    finally:
        (gc.enable if was else gc.disable)()
    assert capsys.readouterr() == ("", "error: interrupted\n")


def _audited_commands(tmp_path, instance_file, name):
    """A solve with an embedded audit and Pareto check, then an audit of its
    result."""
    result = str(tmp_path / f"{name}-result.json")
    solve = ["solve", "--mechanism", "round-robin", "--input", instance_file]
    solve += ["--with-audit", "--po-cap", "1000", "--out", result]
    audit = ["audit", "--input", instance_file, "--result", result]
    return [solve, audit + ["--out", str(tmp_path / f"{name}-audit.json")]]


def test_commands_leave_no_cyclic_garbage(tmp_path, contested_file, goods_file):
    """What a command builds dies by reference count, which is why main may
    pause the collector: once warmed up, a solve with its audit and an audit,
    on a public and on a goods file, leave gc.collect() nothing to free."""
    commands = _audited_commands(tmp_path, contested_file, "public")
    commands += _audited_commands(tmp_path, goods_file, "goods")
    for argv in commands:  # warm-up: first calls fill module-level caches
        assert main(argv) == 0
    for argv in commands:
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0, argv


def test_goods_round_robin_and_its_audit_build_no_embedding(
    tmp_path, goods_file, monkeypatch
):
    """Round robin, its audit and a later audit read a goods instance off its
    matrix: none of them builds the embedding's view."""
    parsed = []
    parse_instance = io.parse_instance

    def keep(*args, **kwargs):
        parsed.append(parse_instance(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(io, "parse_instance", keep)
    result = str(tmp_path / "result.json")
    solve = ["solve", "--mechanism", "round-robin", "--input", goods_file]
    assert main(solve + ["--with-audit", "--out", result]) == 0
    audit = ["audit", "--input", goods_file, "--result", result]
    assert main(audit + ["--out", str(tmp_path / "audit.json")]) == 0
    assert [isinstance(goods, fd.GoodsInstance) for goods in parsed] == [True] * 2
    assert ["scaled" in vars(goods) for goods in parsed] == [False] * 2


def test_audit_text_output(capsys, tmp_path, contested_file):
    result = tmp_path / "result.json"
    result.write_text('{"choices": [0, 0, 0, 0, 0, 0, 0, 0]}\n')
    code, out, _ = run(
        capsys,
        [
            "audit",
            "--input",
            contested_file,
            "--result",
            str(result),
            "--format",
            "text",
            "--po-cap",
            "300",
        ],
    )
    assert code == 0
    assert "p2: utility 0" in out
    assert "Prop1: VIOLATED (α = 1/2)" in out
    assert "PO: satisfied" in out


# an ASCII locale, with neither UTF-8 mode nor locale coercion to override it
ASCII_LOCALE = dict(LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")


def _zoe_files(tmp_path) -> tuple[Path, Path]:
    """A goods file naming player "Zoë", and a result file for it."""
    goods = tmp_path / "goods.json"
    goods.write_text(
        '{"kind": "goods", "players": ["Zoë", "Ana"], "goods": ["x", "y", "z"], '
        '"utilities": [[3, 1, 1], [1, 2, 2]]}\n',
        encoding="utf-8",
    )
    result = tmp_path / "result.json"
    result.write_text('{"bundles": [[0], [1, 2]]}\n')
    return goods, result


def test_files_are_utf8_whatever_the_locale(tmp_path):
    """Input files are read, and --out files written, as UTF-8 under an ASCII
    locale too: a player named "Zoë" and the text audit's "α" come out as the
    same bytes as under the default locale."""
    goods, result = _zoe_files(tmp_path)
    commands = {
        "reduced.json": ["reduce", "--input", str(goods)],
        "solved.json": ["solve", "--mechanism", "pps-po", "--input", str(goods)],
        "audit.txt": [
            *("audit", "--input", str(goods), "--result", str(result)),
            *("--format", "text"),
        ],
    }
    written = {}
    for name, argv in commands.items():
        for locale, environ in enumerate(({}, ASCII_LOCALE)):
            out = tmp_path / f"{locale}-{name}"
            code, stdout, stderr = run_fresh([*argv, "--out", str(out)], **environ)
            assert (code, stdout, stderr) == (0, "", "")
            written.setdefault(name, out.read_bytes())
            assert out.read_bytes() == written[name]
    assert "Zoë".encode() in written["reduced.json"]
    assert "Zoë".encode() in written["audit.txt"]
    assert "α".encode() in written["audit.txt"]


def test_stdout_carries_the_bytes_out_writes_whatever_its_encoding(
    monkeypatch, tmp_path
):
    goods, result = _zoe_files(tmp_path)
    audit_text = ["audit", "--input", str(goods), "--result", str(result)]
    for argv in (["reduce", "--input", str(goods)], audit_text + ["--format", "text"]):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        stdout = TextIOWrapper(BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        assert stdout.buffer.getvalue() == out.read_bytes()
        assert "Zoë".encode() in out.read_bytes()


# a few dozen bytes, which a buffered stdout holds until it is flushed, and
# a document larger than its buffer
SHORT_OUTPUT = "bench --trials 1 --seed 1".split()
LONG_OUTPUT = "gen --family random-goods --n 4 --m 400 --seed 1".split()
OUTPUTS = pytest.mark.parametrize(
    "argv", [SHORT_OUTPUT, LONG_OUTPUT], ids=["short", "long"]
)
BUFFERING = pytest.mark.parametrize(
    "unbuffered", [False, True], ids=["buffered", "unbuffered"]
)
posix_only = pytest.mark.skipif(os.name != "posix", reason="POSIX descriptors")


def run_to(argv, stdout, unbuffered, **popen) -> tuple[int, str]:
    """Exit code and stderr of ``argv`` in a new process writing its standard
    output to ``stdout``, buffered unless ``unbuffered``."""
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    done = subprocess.run(
        [sys.executable, "-m", "fairdec.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
        **popen,
    )
    return done.returncode, done.stderr


@posix_only
@OUTPUTS
@BUFFERING
def test_a_closed_pipe_on_stdout_is_exit_two_with_one_line(argv, unbuffered):
    """Python ignores SIGPIPE, so the write fails with EPIPE; the command says
    so in one line, and nothing is left for the interpreter to flush at exit
    (which would print "Exception ignored" and exit 120)."""
    read, write = os.pipe()
    os.close(read)
    try:
        code, err = run_to(argv, write, unbuffered)
    finally:
        os.close(write)
    assert (code, err) == (
        2,
        "error: cannot write standard output: [Errno 32] Broken pipe\n",
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@OUTPUTS
@BUFFERING
def test_a_full_device_on_stdout_is_exit_two_with_one_line(argv, unbuffered):
    with open("/dev/full", "wb") as full:
        code, err = run_to(argv, full, unbuffered)
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: cannot write standard output: [Errno 28] ")


@posix_only
@BUFFERING
def test_no_stdout_at_all_is_exit_two_with_one_line(unbuffered):
    """Started with descriptor 1 closed, Python sets sys.stdout to None."""
    code, err = run_to(
        SHORT_OUTPUT,
        subprocess.DEVNULL,
        unbuffered,
        preexec_fn=lambda: os.close(1),
    )
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: cannot write standard output: ")
    assert err == "error: cannot write standard output: it is closed\n"


class _BrokenPipe(RawIOBase):
    def writable(self):
        return True

    def write(self, data):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_a_broken_stdout_in_process_is_exit_two(
    capsys, monkeypatch, contested_file, enabled
):
    """main turns the failed write into exit 2 and one stderr line, and
    leaves the collector as it found it."""
    monkeypatch.setattr(sys, "stdout", TextIOWrapper(_BrokenPipe(), encoding="utf-8"))
    argv = ["solve", "--mechanism", "round-robin", "--input", contested_file]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert (main(argv), gc.isenabled()) == (2, enabled)
    finally:
        (gc.enable if was else gc.disable)()
    assert capsys.readouterr().err == (
        "error: cannot write standard output: [Errno 32] Broken pipe\n"
    )


def test_audit_json_output_with_mms(capsys, tmp_path, contested_file):
    result = tmp_path / "result.json"
    result.write_text('{"choices": [0, 1, 1, 1, 0, 0, 0, 0]}\n')
    code, out, _ = run(
        capsys,
        ["audit", "--input", contested_file, "--result", str(result), "--with-mms"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["utilities"] == [5, 3]
    assert doc["players"][0]["mms"]["alpha"] == "5/4"


def test_audit_rejects_mismatched_results(capsys, tmp_path, contested_file, goods_file):
    result = tmp_path / "result.json"
    result.write_text('{"choices": [0, 0]}\n')
    code, _, err = run(
        capsys, ["audit", "--input", contested_file, "--result", str(result)]
    )
    assert code == 2 and "expected 8 choices" in err

    result.write_text('{"bundles": [[0, 1, 2, 3]]}\n')
    code, _, err = run(
        capsys, ["audit", "--input", str(goods_file), "--result", str(result)]
    )
    assert code == 2 and "expected 2 bundles" in err

    result.write_text('{"bundles": [[0, 1], [2]]}\n')
    code, _, err = run(
        capsys, ["audit", "--input", str(goods_file), "--result", str(result)]
    )
    assert code == 2 and "missing [3]" in err

    result.write_text('{"choices": [9, 0, 0, 0, 0, 0, 0, 0]}\n')
    code, _, err = run(
        capsys, ["audit", "--input", contested_file, "--result", str(result)]
    )
    assert code == 2 and "out of range" in err


@pytest.mark.parametrize(
    "source, result, extra, message",
    [
        ("public", None, ["--order", "a,b"], "order must be comma-separated integers"),
        ("goods", '{"choices": [0, 0, 0, 0]}', [], "a goods instance needs a bundles result"),
        ("public", "[0, 0]", [], "top level must be an object"),
        ("goods", '{"bundles": {"0": [0]}}', [], "bundles: expected a list of lists"),
        ("goods", '{"bundles": [["1"], [0, 1, 2, 3]]}', [], "bundles[0]: expected a list of integers"),
        ("issues-object", None, [], "issues: expected a list"),
    ],
    ids=["order", "choices-for-goods", "result-list", "bundles-object", "string-good", "issues-object"],
)
def test_malformed_options_and_documents_exit_two(
    capsys, tmp_path, contested_file, goods_file, source, result, extra, message
):
    path = goods_file if source == "goods" else contested_file
    if source == "issues-object":
        doc = json.loads(Path(path).read_text())
        doc["issues"] = {}
        path = tmp_path / "issues.json"
        path.write_text(json.dumps(doc))
    argv = ["solve", "--mechanism", "round-robin", "--input", str(path), *extra]
    if result is not None:
        (tmp_path / "result.json").write_text(result)
        argv = ["audit", "--input", str(path), "--result", str(tmp_path / "result.json")]
    try:
        code = main(argv)
    except SystemExit as stop:  # argparse rejects the option itself
        code = stop.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert message in captured.err


def test_gen_writes_instances_and_extras(capsys, tmp_path):
    out = tmp_path / "inst.json"
    witness = tmp_path / "witness.json"
    code, extras_text, _ = run(
        capsys,
        [
            "gen",
            "--family",
            "lemma6_upper",
            "--n",
            "3",
            "--out",
            str(out),
            "--witness-out",
            str(witness),
        ],
    )
    assert code == 0
    extras = json.loads(extras_text)
    assert extras["family"] == "lemma6_upper"
    assert extras["witness_bundles"] == [[3, 4, 5], [0, 1], [2, 6, 7, 8]]
    goods = io.parse_instance(out.read_text())
    assert (goods.n, goods.m) == (3, 9)
    witness_doc = json.loads(witness.read_text())
    assert witness_doc["mechanism"] == "witness"
    assert witness_doc["bundles"] == extras["witness_bundles"]


def test_gen_streams_the_instance_without_out(capsys):
    code, out, _ = run(capsys, ["gen", "--family", "example1"])
    assert code == 0
    inst = io.parse_instance(out)
    assert (inst.n, inst.m) == (2, 2)


def test_gen_missing_parameters_fail_validation(capsys):
    code, _, err = run(capsys, ["gen", "--family", "theorem5"])
    assert code == 2
    assert "needs parameters: n" in err


def test_gen_uncertifiable_family_fails_closed(capsys):
    code, _, err = run(capsys, ["gen", "--family", "appendixA", "--n", "2", "--m", "5"])
    assert code == 2
    assert "4n - 2" in err


def test_gen_rejects_witness_out_without_witness(capsys, tmp_path):
    witness = tmp_path / "w.json"
    argv = ["gen", "--family", "example1", "--witness-out", str(witness)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert "witness" in err
    assert out == "" and not witness.exists()
    # nothing is written before the refusal, with --out either
    instance = tmp_path / "f.json"
    code, out, err = run(capsys, argv + ["--out", str(instance)])
    assert code == 2 and "has no witness allocation" in err
    assert out == "" and not instance.exists() and not witness.exists()


@pytest.mark.parametrize(
    "params, defect",
    [
        ("random --n 0 --m 2 --k 2", "players:"),
        ("random --n 2 --m 2 --k 0", "issues[0]:"),
        ("random --n 2 --m 2 --k 2 --umin -3", "negative utility"),
        ("random-goods --n 2 --m 0", "goods:"),
    ],
)
def test_gen_refuses_instances_solve_would_reject(capsys, tmp_path, params, defect):
    out = tmp_path / "f.json"
    argv = ["gen", "--family", *params.split(), "--seed", "1", "--out", str(out)]
    code, stdout, err = run(capsys, argv)
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and defect in err
    assert not out.exists()


@pytest.mark.parametrize(
    "params, digest",
    [
        (
            "random --n 5 --m 40 --k 3 --seed 11",
            "1d2f6830c7d0747cfe690a88bde4bdbeaf94f77f181cfb63eb784234b2e12de7",
        ),
        (
            "random-goods --n 6 --m 50 --seed 11",
            "f7877d8e0505c4e56b853945015c7227a71164f124ff0032356a0f25ff29cd33",
        ),
        (
            "random-goods --n 4 --m 30 --seed 3 --umin 2 --umax 9",
            "d45c6e14236230bb7dd8af1495ae8aa46ceeed0f0bedba06ceaccad80d74d4e6",
        ),
    ],
)
def test_gen_random_families_write_pinned_bytes(capsys, tmp_path, params, digest):
    out = tmp_path / "f.json"
    code, _, err = run(capsys, ["gen", "--family", *params.split(), "--out", str(out)])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "random", *"--n 2 --m 2 --k 2 --seed 1".split()],
        ["bench", "--trials", "1", "--seed", "1"],
    ],
)
def test_an_empty_utility_range_is_exit_two_naming_both_bounds(capsys, argv):
    expected = "error: empty utility range: umin 5 exceeds umax 4\n"
    assert run(capsys, argv + ["--umin", "5", "--umax", "4"]) == (2, "", expected)


@pytest.mark.parametrize(
    "argv, message",
    [
        ("gen --family random --n 2 --m 2 --k -1 --seed 1",
         "m and k must not be negative, got m=2, k=-1"),
        ("gen --family random --n 2 --m -1 --k 2 --seed 1",
         "m and k must not be negative, got m=-1, k=2"),
        ("gen --family random-goods --n 2 --m -1 --seed 3",
         "m must not be negative, got -1"),
        ("bench --trials 1 --seed 1 --k -1",
         "m and k must not be negative, got m=5, k=-1"),
        ("gen --family random-goods --n -1 --m 2 --seed 3",
         "players: at least one player is required, got n=-1"),
        ("gen --family random --n 0 --m 2 --k 2 --seed 3",
         "players: at least one player is required, got n=0"),
    ],
    ids=[
        "random-k", "random-m", "random-goods-m", "bench-k", "random-goods-n", "random-n"
    ],
)
def test_negative_sizes_are_exit_two_naming_them(capsys, argv, message):
    assert run(capsys, argv.split()) == (2, "", f"error: {message}\n")


def test_theorem5_refuses_a_d_no_document_can_hold(capsys, tmp_path):
    """Under a 640-digit conversion limit the calibrated d of n = 93 has too
    many digits to write (n = 632 at the default 4,300), while n = 92 writes."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        out = tmp_path / "f.json"
        argv = ["gen", "--family", "theorem5", "--out", str(out), "--n"]
        expected = "error: at n=93, d has too many digits to write\n"
        assert run(capsys, argv + ["93"]) == (2, "", expected)
        assert not out.exists()
        code, _, err = run(capsys, argv + ["92"])
        assert (code, err) == (0, "") and io.parse_instance(out.read_text()).n == 92
    finally:
        sys.set_int_max_str_digits(limit)


def _primes(count: int) -> list[int]:
    primes, candidate = [], 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


TOO_LONG = "error: a result value has more digits than a document can hold\n"


@pytest.mark.parametrize("mechanism", ["round-robin", "pps-po", "prop1-po"])
@pytest.mark.parametrize("audit", [[], ["--with-audit"]], ids=["bare", "audited"])
def test_an_over_long_result_value_is_exit_two_naming_it(
    capsys, tmp_path, mechanism, audit
):
    """Under a 640-digit conversion limit, two players' "1/p" rows over the
    first 700 primes give exact utilities whose denominators have more digits
    than the limit: one line says so, with no advice to raise the limit."""
    cells = [f"1/{p}" for p in _primes(700)]
    doc = {
        "kind": "goods",
        "players": ["a", "b"],
        "goods": [f"g{g}" for g in range(700)],
        "utilities": [cells, cells[::-1]],
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        argv = ["solve", "--mechanism", mechanism, "--input", str(path), *audit]
        assert run(capsys, argv) == (2, "", TOO_LONG)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_an_over_long_whole_utility_is_exit_two_naming_it(capsys, tmp_path, fmt):
    """Two goods worth 10**640 - 1 each, both held by the one player: her
    utility has 641 digits, one past a 640-digit limit, and no form of the
    audit writes it."""
    nines = int("9" * 640)
    goods = tmp_path / "goods.json"
    result = tmp_path / "result.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        write_instance(goods, fd.goods_instance([[nines] * 2]))
        result.write_text(json.dumps({"bundles": [[0, 1]]}))
        argv = ["audit", "--input", str(goods), "--result", str(result)]
        assert run(capsys, argv + ["--format", fmt]) == (2, "", TOO_LONG)
        solve = ["solve", "--mechanism", "round-robin", "--input", str(goods)]
        assert run(capsys, solve) == (2, "", TOO_LONG)
    finally:
        sys.set_int_max_str_digits(limit)


def test_gen_prints_the_critical_ratio_with_out(capsys, tmp_path):
    out = tmp_path / "f.json"
    argv = ["gen", "--family", "weighted_welfare_gap", "--out", str(out)]
    code, extras, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(extras) == {
        "critical_ratio": "3/4",
        "family": "weighted_welfare_gap",
    }
    goods = io.parse_instance(out.read_text())
    assert goods.maxima == ((4, 4, 1, 1), (3, 3, 2, 2))


@pytest.mark.parametrize("delta", ["٣/١٠٠", "1e99999999999", "1/0", " 1/0", "x"])
def test_gen_reads_delta_like_a_document_value(capsys, tmp_path, delta):
    out = tmp_path / "f.json"
    argv = ["gen", "--family", "theorem6_upper", "--delta", delta, "--out", str(out)]
    code, stdout, err = run(capsys, argv)
    assert code == 2 and stdout == "" and not out.exists()
    assert err.startswith("error: --delta: ") and err.count("\n") == 1


@pytest.mark.parametrize("value", [" 7 ", "1_0", "1_0/3", "\t5\n"])
def test_whitespace_and_underscores_exit_two_with_one_line(capsys, tmp_path, value):
    path = tmp_path / "spaced.json"
    path.write_text(
        '{"kind": "goods", "players": ["a"], "goods": ["g", "h"], '
        f'"utilities": [[1, {json.dumps(value)}]]}}'
    )
    argv = ["solve", "--mechanism", "round-robin", "--input", str(path)]
    expected = f"error: utilities[0][1]: cannot read {value!r} as a number\n"
    assert run(capsys, argv + ["--allow-decimal"]) == (2, "", expected)
    out = tmp_path / "f.json"
    argv = ["gen", "--family", "theorem6_upper", "--delta", value, "--out", str(out)]
    expected = f"error: --delta: cannot read {value!r} as a number\n"
    assert run(capsys, argv) == (2, "", expected) and not out.exists()


def test_gen_delta_forms_of_one_value_write_the_same_bytes(capsys):
    outputs = {
        run(capsys, ["gen", "--family", "theorem6_upper", *flags])
        for flags in ([], ["--delta", "1/100"], ["--delta", "0.01"])
    }
    assert len(outputs) == 1 and next(iter(outputs))[0] == 0


@pytest.mark.parametrize("command", ["solve", "oracle", "bench"])
def test_only_audit_takes_a_format(capsys, contested_file, command):
    argv = {
        "solve": ["solve", "--mechanism", "mnw", "--input", contested_file],
        "oracle": ["oracle", "--objective", "nash", "--input", contested_file],
        "bench": ["bench", "--trials", "1", "--seed", "1"],
    }[command]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--format", "json"])
    assert info.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_oracle_matches_the_mechanism(capsys, contested_file):
    code, out, _ = run(
        capsys, ["oracle", "--objective", "nash", "--input", contested_file]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["mechanism"] == "oracle:nash"
    assert doc["utilities"] == [4, 4]
    assert doc["trace"]["support"] == [0, 1]


def test_oracle_reduces_goods_inputs(capsys, goods_file):
    code, out, _ = run(
        capsys, ["oracle", "--objective", "utilitarian", "--input", goods_file]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "goods-result"
    assert doc["bundles"] == [[0, 1], [2, 3]]


def test_reduce_emits_the_public_image(capsys, goods_file, tmp_path):
    out_path = tmp_path / "public.json"
    code, _, _ = run(
        capsys, ["reduce", "--input", goods_file, "--out", str(out_path)]
    )
    assert code == 0
    image = io.parse_instance(out_path.read_text())
    assert isinstance(image, fd.DecisionInstance)
    assert image.m == 4 and all(issue.k == 2 for issue in image.issues)


def test_reduce_rejects_public_instances(capsys, contested_file):
    code, _, err = run(capsys, ["reduce", "--input", contested_file])
    assert code == 2
    assert "goods instance" in err


def test_solve_output_file_matches_stdout(capsys, tmp_path, contested_file):
    code, streamed, _ = run(
        capsys, ["solve", "--mechanism", "leximin", "--input", contested_file]
    )
    assert code == 0
    out_path = tmp_path / "result.json"
    code, empty, _ = run(
        capsys,
        [
            "solve",
            "--mechanism",
            "leximin",
            "--input",
            contested_file,
            "--out",
            str(out_path),
        ],
    )
    assert code == 0 and empty == ""
    assert out_path.read_text() == streamed


def test_allow_decimal_flows_through(capsys, tmp_path):
    path = tmp_path / "dec.json"
    path.write_text(
        '{"kind": "goods", "players": ["a", "b"], "goods": ["g", "h"],'
        ' "utilities": [[0.5, 1], [1, 0.25]]}'
    )
    code, _, err = run(
        capsys, ["solve", "--mechanism", "mnw", "--input", str(path)]
    )
    assert code == 2 and "float literal" in err
    code, out, _ = run(
        capsys,
        ["solve", "--mechanism", "mnw", "--input", str(path), "--allow-decimal"],
    )
    assert code == 0
    # each side takes the good the other values less: exact product 1
    assert json.loads(out)["utilities"] == [1, 1]


def test_bench_reports_rates(capsys):
    code, out, _ = run(
        capsys,
        ["bench", "--trials", "3", "--seed", "5", "--n", "2", "--m", "3", "--k", "2"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mechanism,po,pps,rrs,prop1"
    assert [line.split(",")[0] for line in lines[1:]] == [
        "round-robin",
        "leximin",
        "mnw",
    ]
    for line in lines[1:]:
        for rate in line.split(",")[1:]:
            assert 0.0 <= float(rate) <= 1.0


def test_bench_is_seed_deterministic(capsys):
    argv = ["bench", "--trials", "2", "--seed", "9", "--n", "2", "--m", "2"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_bench_rejects_fewer_than_one_trial(capsys, trials):
    code, out, err = run(capsys, ["bench", "--trials", trials, "--seed", "1"])
    assert code == 2 and out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"


@pytest.mark.parametrize("mechanism", ["leximin", "mnw"])
def test_deep_instances_solve_without_recursion(capsys, tmp_path, mechanism):
    # 1,500 issues with one alternative each: a single outcome, 1,500 levels deep
    inst = fd.decision_instance([[[t % 3], [1]] for t in range(1500)])
    path = write_instance(tmp_path / "deep.json", inst)
    code, out, err = run(
        capsys,
        ["solve", "--mechanism", mechanism, "--input", path]
        + ["--with-audit", "--po-cap", "10"],
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["choices"] == [0] * 1500
    assert doc["audit"]["po"]["satisfied"] is True


def test_maximin_share_of_a_long_single_player_file(capsys, tmp_path):
    # one player, 1,200 goods: a single partition, 1,200 items deep
    goods = fd.goods_instance([[g % 5 for g in range(1200)]])
    path = write_instance(tmp_path / "long.json", goods)
    code, out, err = run(
        capsys,
        ["solve", "--mechanism", "round-robin", "--input", path]
        + ["--with-audit", "--with-mms"],
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["audit"]["players"][0]["mms"] == {"alpha": 1, "satisfied": True}


def test_solve_under_python_O_matches_the_in_process_run(
    capsys, contested_file, tmp_path
):
    """No invariant depends on assert statements, which python -O strips."""
    # skewed values (player i draws from 0..4(i+1)): both goods allocators
    # run over ten rounds of ties on this file
    rng = random.Random(1)
    skewed = [[rng.randint(0, 4 * (i + 1)) for _ in range(60)] for i in range(6)]
    goods_file = write_instance(tmp_path / "skewed.json", fd.goods_instance(skewed))
    public = ["--input", contested_file, "--with-audit", "--po-cap", "300"]
    goods = ["--input", goods_file, "--with-audit"]
    for mechanism, args in [
        ("mnw", public),
        ("leximin", public),
        ("pps-po", goods),
        ("prop1-po", goods),
    ]:
        argv = ["solve", "--mechanism", mechanism, *args]
        code, expected, _ = run(capsys, argv)
        stripped_code, stripped_out, stripped_err = run_fresh(argv, "-O")
        assert code == 0
        assert stripped_code == 0, stripped_err
        assert stripped_out == expected
        if args is goods:
            assert len(json.loads(expected)["trace"]["rounds"]) > 10


# JSON text of one utility cell: valid values, then non-numbers, non-canonical
# and bad strings, and the over-long and non-ASCII inputs the parser refuses
GOOD_CELLS = st.one_of(
    st.integers(0, 6).map(str), st.sampled_from(['"1/2"', '"7/3"', '"2/6"', '"03"'])
)
BAD_CELLS = st.one_of(
    GOOD_CELLS,
    st.sampled_from(["-1", "true", "null", "0.5", "2.0", '"1/0"', '"x"', '"1.5"']),
    st.sampled_from(['"1e5000"', "1e5000", '"1e-5000"', '"٣"', "[]", "{}"]),
)


def _list(items) -> str:
    return "[" + ", ".join(items) + "]"


def _labels(prefix, count) -> str:
    return _list(f'"{prefix}{i}"' for i in range(count))


@st.composite
def cli_runs(draw):
    """A command line with its instance and result documents as JSON text.
    Half the documents are well formed; the rest hold bad values or shapes."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    bad = draw(st.booleans())
    skew = draw(st.sampled_from([0, 1, -1])) if bad else 0
    cells = BAD_CELLS if bad else GOOD_CELLS

    def rows(width):
        widths = [width] * (n - 1) + [max(0, width + skew)]
        return _list(
            _list(draw(st.lists(cells, min_size=k, max_size=k))) for k in widths
        )

    players = _labels("p", n)
    if draw(st.booleans()):
        instance = (
            f'{{"kind": "goods", "players": {players}, '
            f'"goods": {_labels("g", m)}, "utilities": {rows(m)}}}'
        )
        fitting = f'{{"bundles": [{_list(map(str, range(m)))}{", []" * (n - 1)}]}}'
    else:
        issues = []
        for t in range(m):
            k = draw(st.integers(1, 3))
            issues.append(
                f'{{"name": "t{t}", "alternatives": {_labels("a", k)}, '
                f'"utilities": {rows(k)}}}'
            )
        instance = (
            f'{{"kind": "public", "players": {players}, "issues": {_list(issues)}}}'
        )
        fitting = f'{{"choices": {_list(["0"] * m)}}}'
    if bad and draw(st.integers(0, 4)) == 0:
        instance = draw(st.sampled_from(["[" * 5000 + "]" * 5000, "{", '"x"', "[]"]))
    entries = st.lists(st.integers(-1, 3).map(str), min_size=m - 1, max_size=m + 1)
    result = draw(
        st.one_of(
            st.just(fitting),
            entries.map(lambda c: f'{{"choices": {_list(c)}}}'),
            st.lists(entries.map(_list), min_size=n, max_size=n).map(
                lambda b: f'{{"bundles": {_list(b)}}}'
            ),
            st.sampled_from(['{"choices": [0.5]}', '{"bundles": [[0, 0]]}', "{}"]),
        )
        if bad
        else st.just(fitting)
    )

    commands = cli.PUBLIC_MECHANISMS + cli.GOODS_MECHANISMS + ("audit",)
    command = draw(st.sampled_from(commands))
    flags = ["audit"] if command == "audit" else ["solve", "--mechanism", command]
    if command != "audit":
        if draw(st.booleans()):
            flags.append("--with-audit")
        if draw(st.booleans()):
            flags += ["--cap", str(draw(st.integers(0, 200)))]
        if draw(st.booleans()):
            flags += ["--order", ",".join(map(str, draw(st.permutations(range(n)))))]
    elif draw(st.booleans()):
        flags += ["--format", "text"]
    if draw(st.booleans()):
        flags.append("--allow-decimal")
    if draw(st.booleans()):
        flags += ["--po-cap", str(draw(st.integers(0, 200)))]
    if draw(st.booleans()):
        flags += ["--with-mms", "--mms-cap", str(draw(st.integers(0, 50)))]
    return flags, instance, result


@settings(max_examples=150, deadline=None)
@given(cli_runs())
def test_fuzzed_runs_end_in_a_documented_exit_code(tmp_path_factory, run_):
    """Whatever the documents and flags, a run ends in a code README
    documents and prints no traceback; a failed run prints one error line and
    no output."""
    flags, instance_text, result_text = run_
    folder = tmp_path_factory.mktemp("fuzz")
    instance, result = folder / "instance.json", folder / "result.json"
    instance.write_text(instance_text)
    result.write_text(result_text)
    argv = flags + ["--input", str(instance)]
    if flags[0] == "audit":
        argv += ["--result", str(result)]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in documented_exit_codes(), (argv, instance_text, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 + err.getvalue().count("warning: ")

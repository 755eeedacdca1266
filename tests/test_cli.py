"""Command line behavior: exit codes, documents, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairdec as fd
from fairdec import io
from fairdec.cli import main


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


def test_cap_exhaustion_is_exit_three(capsys, contested_file):
    code, _, err = run(
        capsys,
        ["solve", "--mechanism", "leximin", "--input", contested_file, "--cap", "10"],
    )
    assert code == 3
    assert "cap" in err


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
    code, _, err = run(
        capsys,
        [
            "gen",
            "--family",
            "example1",
            "--witness-out",
            str(tmp_path / "w.json"),
        ],
    )
    assert code == 2
    assert "witness" in err


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


def test_bench_reports_rates(capsys, monkeypatch):
    monkeypatch.setenv("FAIRDEC_THREADS", "1")
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


def test_bench_is_seed_deterministic(capsys, monkeypatch):
    monkeypatch.setenv("FAIRDEC_THREADS", "1")
    argv = ["bench", "--trials", "2", "--seed", "9", "--n", "2", "--m", "2"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


def test_bench_validates_the_worker_override(capsys, monkeypatch):
    monkeypatch.setenv("FAIRDEC_THREADS", "zero")
    code, _, err = run(capsys, ["bench", "--trials", "1", "--seed", "1"])
    assert code == 2 and "FAIRDEC_THREADS" in err
    monkeypatch.setenv("FAIRDEC_THREADS", "0")
    code, _, err = run(capsys, ["bench", "--trials", "1", "--seed", "1"])
    assert code == 2 and "at least 1" in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_bench_rejects_fewer_than_one_trial(capsys, monkeypatch, trials):
    monkeypatch.setenv("FAIRDEC_THREADS", "1")
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


def test_solve_under_python_O_matches_the_in_process_run(capsys, contested_file):
    """No invariant depends on assert statements, which python -O strips."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
    for mechanism in ("mnw", "leximin"):
        argv = ["solve", "--mechanism", mechanism, "--input", contested_file]
        argv += ["--with-audit", "--po-cap", "300"]
        code, expected, _ = run(capsys, argv)
        stripped = subprocess.run(
            [sys.executable, "-O", "-m", "fairdec.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert code == 0
        assert stripped.returncode == 0, stripped.stderr
        assert stripped.stdout == expected

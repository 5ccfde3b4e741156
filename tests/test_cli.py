import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pga
from pga import expr_order, parse_expr
from pga.cli import run


def test_analyze_text(capsys):
    assert run(["analyze", "--group", "Z(6)"]) == 0
    out = capsys.readouterr().out
    assert "order: 4" in out
    assert "expression: S2^2" in out
    assert "method: cyclic-divisors" in out


def test_analyze_json_schema(capsys):
    assert run(["analyze", "--group", "Z(6)", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {
        "spec", "group_order", "vertex_count", "classes", "quotient",
        "expression", "order_decimal", "method", "verification",
    }
    assert data["spec"] == "Z(6)"
    assert data["order_decimal"] == "4"
    assert data["quotient"] == {"nodes": 3, "edges": 2}
    assert data["classes"][0] == {
        "members": ["1", "5"], "weight": 2, "element_order": 6,
        "men_type": "generator-class",
    }
    assert data["verification"]["status"] == "skipped"


def test_json_expression_round_trip(capsys):
    for spec in ("Z(6)", "Z(4)^2", "Ab[2,2]", "P(Q8,Z(3))"):
        assert run(["analyze", "--group", spec, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert expr_order(parse_expr(data["expression"])) == int(data["order_decimal"])


def test_verify_full(capsys):
    assert run(["verify", "--group", "Z(12)"]) == 0
    out = capsys.readouterr().out
    assert "FULL-VERIFIED" in out and "192 = 192" in out


def test_verify_quotient_mode(capsys):
    assert run(["verify", "--group", "Z(30)"]) == 0
    out = capsys.readouterr().out
    assert "QUOTIENT-VERIFIED" in out


def test_verify_cap_exit_code(capsys):
    assert run(["verify", "--group", "Z(12)", "--max-nodes", "2"]) == 3
    assert "unknown" in capsys.readouterr().err


def test_spec_error_exit_code(capsys):
    assert run(["analyze", "--group", "Z(6)^2"]) == 1
    assert "error" in capsys.readouterr().err
    assert run(["analyze", "--group", "Sym(6)"]) == 1
    capsys.readouterr()
    assert run(["analyze", "--group", "Z(1)"]) == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["analyze"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_caps_below_one_are_usage_errors(capsys):
    for argv in (
        ["analyze", "--group", "Z(6)", "--max-nodes", "0"],
        ["verify", "--group", "Z(6)", "--max-nodes", "0"],
        ["verify", "--group", "Z(6)", "--max-count", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1, argv
        assert "must be at least 1" in capsys.readouterr().err, argv


def test_unwritable_output_path(tmp_path, capsys):
    target = tmp_path / "missing" / "deep" / "report.txt"
    assert run(["analyze", "--group", "Z(6)", "--out", str(target)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_corpus_file(capsys):
    assert run(["analyze", "--corpus", "/nonexistent/groups.txt"]) == 1
    assert "error" in capsys.readouterr().err


def test_export_files(tmp_path, capsys):
    assert run(["export", "--group", "Z(6)", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "Z_6.json").read_text())
    assert data["order_decimal"] == "4"
    quotient_dot = (tmp_path / "Z_6.quotient.dot").read_text()
    assert quotient_dot.count("label=\"weight=") == 3
    assert quotient_dot.count(" -- ") == 2
    power_dot = (tmp_path / "Z_6.power.dot").read_text()
    assert power_dot.count(" -- ") == 8  # degrees 4,3,2,3,4 over the five vertices


def test_export_triangle_for_z4(tmp_path, capsys):
    assert run(["export", "--group", "Z(4)", "--out", str(tmp_path), "--dot", "power-graph"]) == 0
    capsys.readouterr()
    power_dot = (tmp_path / "Z_4.power.dot").read_text()
    assert power_dot.count(" -- ") == 3
    assert not (tmp_path / "Z_4.quotient.dot").exists()


def test_export_ab22_json(tmp_path, capsys):
    assert run(["export", "--group", "Ab[2,2]", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = json.loads((tmp_path / "Ab_2_2.json").read_text())
    assert data["order_decimal"] == "6"
    assert data["expression"] == "S3"


def test_corpus_batch(tmp_path, capsys):
    corpus = tmp_path / "groups.txt"
    corpus.write_text("# corpus\nZ(6)\nZ(4)\n\n")
    assert run(["verify", "--corpus", str(corpus)]) == 0
    out = capsys.readouterr().out
    assert "Z(6): FULL-VERIFIED" in out
    assert "Z(4): FULL-VERIFIED" in out


def test_outputs_are_deterministic(tmp_path, capsys):
    args = ["analyze", "--group", "P(Q8,Z(3))", "--format", "json"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
    for directory in ("a", "b"):
        assert run(["export", "--group", "Q8", "--out", str(tmp_path / directory)]) == 0
        capsys.readouterr()
    for name in ("Q8.json", "Q8.power.dot", "Q8.quotient.dot"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_out_file_for_analyze(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run(["analyze", "--group", "Z(6)", "--format", "json", "--out", str(target)]) == 0
    capsys.readouterr()
    assert json.loads(target.read_text())["order_decimal"] == "4"


def test_module_entry_point():
    # run the same pga the tests import, installed or not
    src = str(Path(pga.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pga", "analyze", "--group", "Z(6)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "order: 4" in proc.stdout

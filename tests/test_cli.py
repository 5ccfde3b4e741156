import argparse
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pga
from pga import InternalCheckError, expr_order, parse_expr
from pga.cli import run
from pga.groups import _leaf


def test_analyze_text(capsys):
    assert run(["analyze", "--group", "Z(6)"]) == 0
    out = capsys.readouterr().out
    assert "order: 4" in out
    assert "expression: S2^2" in out
    assert "method: quotient-recursion" in out


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


def _unlimited_str(n):
    # the reference conversion lifts the digit limit for this call only
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_big_order_json(capsys):
    # Z(1999)'s power graph is complete on 1998 vertices: 1998!, 5729 digits
    assert run(["analyze", "--group", "Z(1999)", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["expression"] == "S1998"
    assert data["order_decimal"] == _unlimited_str(math.factorial(1998))


def test_big_order_text_and_verify(capsys):
    assert run(["analyze", "--group", "Dih(1000)"]) == 0
    out = capsys.readouterr().out
    expression = next(ln for ln in out.splitlines() if ln.startswith("expression: "))
    order = _unlimited_str(expr_order(parse_expr(expression[len("expression: "):])))
    assert len(order) > 4300 and f"\norder: {order}\n" in out
    # its 1015-node quotient is above the cap, and the message names the order
    assert run(["verify", "--group", "Dih(1000)"]) == 3
    assert f"structural order {order});" in capsys.readouterr().err
    assert run(["verify", "--group", "Z(1999)"]) == 0
    big = _unlimited_str(math.factorial(1998))
    out = capsys.readouterr().out
    assert out.startswith("Z(1999): QUOTIENT-VERIFIED  1 = 1  (full graph infeasible")
    assert f"(1998 vertices, structural order {big}); quotient" in out


def test_verify_full(capsys):
    assert run(["verify", "--group", "Z(12)"]) == 0
    out = capsys.readouterr().out
    assert "FULL-VERIFIED" in out and "192 = 192" in out


def test_verify_quotient_mode(capsys):
    # Z(30)'s 29 vertices are above a cap of 10, and its quotient has 7 nodes
    assert run(["verify", "--group", "Z(30)", "--max-nodes", "10"]) == 0
    out = capsys.readouterr().out
    assert "QUOTIENT-VERIFIED" in out and "quotient on 7 nodes" in out
    assert run(["verify", "--group", "Z(30)"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Z(30): FULL-VERIFIED  3745618329600 = 3745618329600")


def test_verify_cap_exit_code(capsys):
    assert run(["verify", "--group", "Z(12)", "--max-nodes", "2"]) == 3
    assert "unknown" in capsys.readouterr().err


def test_spec_error_exit_code(capsys):
    assert run(["analyze", "--group", "Z(6)^2"]) == 1
    assert "error" in capsys.readouterr().err
    assert run(["analyze", "--group", "Sym(6)"]) == 1
    capsys.readouterr()
    assert run(["analyze", "--group", "Z(1)"]) == 1


def test_long_integer_spec_error_has_position(capsys):
    assert run(["analyze", "--group", "Z(" + "1" * 5000 + ")"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: integer of 5000 digits is too long (at position 2)\n"


def test_usage_error_exit_code(tmp_path, capsys):
    empty = tmp_path / "groups.txt"
    empty.write_text("# only comments\n\n   \n# and blank lines\n")
    for argv, message in (
        (["analyze", "--corpus", str(empty)], "contains no specs"),
        (["analyze"], "one of the arguments --group --corpus is required"),
        (["analyze", "--group", "Z(6)", "--corpus", "groups.txt"], "not allowed with"),
        (["analyze", "--group", "Z(6)", "--dot", "quotient"], "--dot: only allowed with export"),
        (["verify", "--group", "Z(6)", "--dot", "power-graph"], "--dot: only allowed with export"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1, argv
        assert message in capsys.readouterr().err, argv


def test_caps_below_one_are_usage_errors(capsys):
    for argv, message in (
        (["analyze", "--group", "Z(6)", "--max-nodes", "0"], "must be at least 1"),
        (["verify", "--group", "Z(6)", "--max-nodes", "0"], "must be at least 1"),
        # no command enumerates automorphisms, so there is no count cap to set
        (["verify", "--group", "Z(6)", "--max-count", "-1"], "unrecognized arguments"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 1, argv
        assert message in capsys.readouterr().err, argv


def test_options_in_any_order(capsys):
    assert run(["--group", "Z(6)", "--format", "json", "analyze"]) == 0
    assert json.loads(capsys.readouterr().out)["order_decimal"] == "4"


def test_run_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(["analyze", "--group", "Z(6)"]) == 0
    assert run(["verify", "--group", "Z(4)", "--format", "json"]) == 0
    capsys.readouterr()
    assert built == []


def test_unwritable_output_path(tmp_path, capsys):
    target = tmp_path / "missing" / "deep" / "report.txt"
    assert run(["analyze", "--group", "Z(6)", "--out", str(target)]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_corpus_file(capsys):
    assert run(["analyze", "--corpus", "/nonexistent/groups.txt"]) == 1
    assert "error" in capsys.readouterr().err


def test_corpus_file_not_utf8(tmp_path, capsys):
    corpus = tmp_path / "groups.txt"
    corpus.write_bytes(b"\xff\xfeZ(6)\n")
    assert run(["analyze", "--corpus", str(corpus)]) == 1
    assert capsys.readouterr().err.startswith(f"error: corpus file {corpus} is not UTF-8 text")


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


def test_corpus_saved_with_a_byte_order_mark_answers_every_spec(tmp_path, capsys):
    # editors on some platforms save UTF-8 with a leading U+FEFF; it is not
    # part of the first spec
    corpus = tmp_path / "groups.txt"
    corpus.write_text("Z(6)\nSym(3)\n", encoding="utf-8-sig")
    assert corpus.read_bytes().startswith(b"\xef\xbb\xbf")
    assert run(["analyze", "--corpus", str(corpus), "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert [d["spec"] for d in json.loads(captured.out)] == ["Z(6)", "Sym(3)"]
    assert captured.err == ""


def test_corpus_json_is_a_list_however_many_specs_finish(tmp_path, capsys):
    corpus = tmp_path / "groups.txt"
    for text, specs in (
        ("Z(6)\n", ["Z(6)"]), ("Z(6)\nZ(0)\n", ["Z(6)"]), ("Z(6)\nZ(4)\n", ["Z(6)", "Z(4)"]),
    ):
        corpus.write_text(text)
        run(["analyze", "--corpus", str(corpus), "--format", "json"])
        assert [d["spec"] for d in json.loads(capsys.readouterr().out)] == specs, text
    # --group prints the report itself
    assert run(["analyze", "--group", "Z(6)", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["spec"] == "Z(6)"


def test_corpus_errors_name_line_and_spec(tmp_path, capsys):
    corpus = tmp_path / "groups.txt"
    corpus.write_text("Z(6)\nZ(0)\nZ(10)\n")
    assert run(["analyze", "--corpus", str(corpus)]) == 1
    captured = capsys.readouterr()
    # the specs on either side of the bad one still run and print
    assert [ln for ln in captured.out.splitlines() if ln.startswith("group: ")] == [
        "group: Z(6)  (order 6, 5 vertices)",
        "group: Z(10)  (order 10, 9 vertices)",
    ]
    assert captured.err == "error: line 2, Z(0): parameters must be positive (at position 2)\n"
    # line numbers count comment and blank lines; caps name the spec too
    corpus.write_text("# corpus\n\n  Z(12)  \n")
    assert run(["verify", "--corpus", str(corpus), "--max-nodes", "2"]) == 3
    assert capsys.readouterr().err.startswith("unknown: line 3, Z(12): ")
    # --group messages carry no prefix
    assert run(["analyze", "--group", "Z(0)"]) == 1
    assert capsys.readouterr().err == "error: parameters must be positive (at position 2)\n"


def test_corpus_runs_every_spec_and_exits_with_the_most_severe_code(tmp_path, capsys, monkeypatch):
    # Z(6)'s 5 vertices and 3-node quotient are above a node cap of 2
    corpus = tmp_path / "groups.txt"
    good, bad, capped = "Z(3)\nZ(2)\n", "Z(0)\n", "Z(6)\n"
    for text, code in (
        (good, 0), (bad + good, 1), (good + capped, 3), (capped + bad + good, 3),
    ):
        corpus.write_text(text)
        assert run(["verify", "--corpus", str(corpus), "--max-nodes", "2"]) == code, text
        out = capsys.readouterr().out
        assert out == (
            "Z(3): FULL-VERIFIED  2 = 2  (full power graph on 2 vertices)\n\n"
            "Z(2): FULL-VERIFIED  1 = 1  (full power graph on 1 vertices)\n"
        ), text
    # an internal failure outranks an unknown result and a spec error
    original = pga.cli.verify

    def failing(spec, caps):
        if spec == "Z(2)":
            raise InternalCheckError("planted failure")
        return original(spec, caps)

    monkeypatch.setattr(pga.cli, "verify", failing)
    corpus.write_text(bad + capped + good)
    assert run(["verify", "--corpus", str(corpus), "--max-nodes", "2", "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert [d["spec"] for d in json.loads(captured.out)] == ["Z(3)"]
    assert captured.err.splitlines()[0].startswith("error: line 1, Z(0): ")
    assert captured.err.splitlines()[1].startswith("unknown: line 2, Z(6): ")
    assert captured.err.splitlines()[2] == "internal check failed: line 4, Z(2): planted failure"
    # a run where no spec finishes writes nothing, to stdout or --out
    corpus.write_text(bad + capped)
    target = tmp_path / "out.txt"
    assert run(["verify", "--corpus", str(corpus), "--max-nodes", "2", "--out", str(target)]) == 3
    assert capsys.readouterr().out == "" and not target.exists()


SHARED_LEAF_SPECS = ["Z(12)", "Ab[12]", "P(Z(12),Sym(3))", "Sym(3)", "P(Sym(3),Sym(3))", "Z(2)^3", "Ab[2,2,2]"]


@pytest.mark.parametrize("specs", [SHARED_LEAF_SPECS, SHARED_LEAF_SPECS[::-1]])
def test_shared_leaf_groups_never_change_an_answer(specs, tmp_path, capsys):
    # a corpus reuses the leaf groups of earlier specs; each separate run
    # starts with none cached
    corpus = tmp_path / "groups.txt"
    corpus.write_text("\n".join(specs) + "\n")
    _leaf.cache_clear()
    assert run(["analyze", "--corpus", str(corpus), "--format", "json"]) == 0
    together = json.loads(capsys.readouterr().out)
    apart = []
    for spec in specs:
        _leaf.cache_clear()
        assert run(["analyze", "--group", spec, "--format", "json"]) == 0
        apart.append(json.loads(capsys.readouterr().out))
    assert together == apart
    assert [d["spec"] for d in together] == specs


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


_Q8_EXPORT = ("Q8.json", "Q8.power.dot", "Q8.quotient.dot")


@pytest.mark.parametrize("stale", ["longer", "shorter"])
def test_export_over_stale_files_equals_a_fresh_export(tmp_path, capsys, stale):
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    assert run(["export", "--group", "Q8", "--out", str(fresh)]) == 0
    old.mkdir()
    for name in _Q8_EXPORT:
        size = (fresh / name).stat().st_size
        junk = b"junk\n" * size if stale == "longer" else b"{}\n"
        assert (len(junk) > size) == (stale == "longer")
        (old / name).write_bytes(junk)
    assert run(["export", "--group", "Q8", "--out", str(old)]) == 0
    capsys.readouterr()
    for name in _Q8_EXPORT:
        assert (old / name).read_bytes() == (fresh / name).read_bytes()


def test_out_file_over_a_longer_report_is_cut(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert run(["analyze", "--group", "Sym(4)", "--out", str(target)]) == 0
    old_size = target.stat().st_size
    assert run(["analyze", "--group", "Z(6)", "--out", str(target)]) == 0
    assert run(["analyze", "--group", "Z(6)"]) == 0
    expected = capsys.readouterr().out
    assert len(expected.encode()) < old_size
    assert target.read_text(encoding="utf-8") == expected


def test_out_to_a_device_is_written_uncut(capsys):
    assert run(["analyze", "--group", "Z(6)", "--out", os.devnull]) == 0
    assert capsys.readouterr().err == ""


def test_export_onto_a_directory_is_a_spec_error(tmp_path, capsys):
    (tmp_path / "Z_6.json").mkdir()
    assert run(["export", "--group", "Z(6)", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


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


def test_console_script_target(monkeypatch, capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["pga"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["pga", "analyze", "--group", "Z(6)"])
    assert entry() == 0
    assert "order: 4" in capsys.readouterr().out

"""Byte-identical output: every report and every demo must match committed goldens.

`golden_reports.json` holds one sha256 per spec of the report's JSON (as the
CLI writes it) followed by its text rendering, notes included.

`golden_sweep.json` freezes the product sweep (`PRODUCT_SPECS`, every P(A,B)
of order <= 2000 over 21 small groups) in three modes: `analyze` at default
caps, `analyze` with max_nodes=5000 and `verify` at default caps. Each digest
covers the report as above, or a failure's exit code and message as the CLI
would exit with them.

Regenerate both only for a change that is meant to alter output, and say so
in its log; the script prints every spec whose digest changed and the
sweep's coverage ledger (how many specs of each mode are clean, opaque,
verified or capped):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from pga import CapExceeded, Opaque, OracleCaps, Product, Wreath, analyze, verify
from pga.cli import EXIT_INTERNAL, EXIT_SPEC_ERROR, EXIT_UNKNOWN, render_text, report_to_json_dict

from _support import GOLDEN_SPECS, PRODUCT_SPECS

GOLDEN = Path(__file__).with_name("golden_reports.json")
SWEEP = Path(__file__).with_name("golden_sweep.json")

SWEEP_MODES = {
    "analyze": (analyze, OracleCaps()),
    "analyze max_nodes=5000": (analyze, OracleCaps(max_nodes=5000)),
    "verify": (verify, OracleCaps()),
}


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _report_payload(r) -> str:
    return json.dumps(report_to_json_dict(r), indent=2, sort_keys=True) + "\n" + render_text(r)


def report_digest(spec: str) -> str:
    return _digest(_report_payload(analyze(spec)))


def _has_opaque(e) -> bool:
    if isinstance(e, Product):
        return any(map(_has_opaque, e.factors))
    if isinstance(e, Wreath):
        return _has_opaque(e.base)
    return isinstance(e, Opaque)


def sweep_outcome(mode: str, spec: str) -> tuple[str, str]:
    """(kind, digest) of one spec in one sweep mode. The kind is what the
    ledger counts: clean or opaque for an analyze, the verification status
    for a verify, and capped, internal or spec-error for a failure, which
    the CLI exits 3, 2 or 1 with."""
    run, caps = SWEEP_MODES[mode]
    try:
        r = run(spec, caps)
    except CapExceeded as exc:  # a RuntimeError, so it must come first
        kind, code, message = "capped", EXIT_UNKNOWN, str(exc)
    except RuntimeError as exc:
        kind, code, message = "internal", EXIT_INTERNAL, str(exc)
    except ValueError as exc:
        kind, code, message = "spec-error", EXIT_SPEC_ERROR, str(exc)
    else:
        if r.verification.status != "skipped":
            kind = r.verification.status
        else:
            kind = "opaque" if _has_opaque(r.expression) else "clean"
        return kind, _digest(_report_payload(r))
    return kind, _digest(f"exit {code}\n{message}")


def test_reports_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(GOLDEN_SPECS)
    changed = [spec for spec in GOLDEN_SPECS if report_digest(spec) != golden[spec]]
    assert not changed, f"report output changed for {changed}"


@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_sweep_matches_golden_digests(mode):
    golden = json.loads(SWEEP.read_text(encoding="utf-8"))[mode]
    assert list(golden) == list(PRODUCT_SPECS)
    changed = [spec for spec in PRODUCT_SPECS if sweep_outcome(mode, spec)[1] != golden[spec]]
    assert not changed, f"{mode}: output changed for {changed}"


def _write(path: Path, digests: dict) -> None:
    path.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    digests = {spec: report_digest(spec) for spec in sorted(GOLDEN_SPECS)}
    for spec in (s for s in digests if old.get(s) != digests[s]):
        print(f"changed: {spec}")
    _write(GOLDEN, digests)
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    old = json.loads(SWEEP.read_text(encoding="utf-8")) if SWEEP.exists() else {}
    sweep = {}
    for mode in SWEEP_MODES:
        outcomes = {spec: sweep_outcome(mode, spec) for spec in PRODUCT_SPECS}
        sweep[mode] = {spec: digest for spec, (_, digest) in outcomes.items()}
        for spec in (s for s in PRODUCT_SPECS if old.get(mode, {}).get(s) != sweep[mode][s]):
            print(f"changed: {mode}: {spec}")
        ledger = Counter(kind for kind, _ in outcomes.values())
        print(f"ledger: {mode}: " + ", ".join(f"{n} {kind}" for kind, n in sorted(ledger.items())))
    _write(SWEEP, sweep)
    print(f"wrote {len(PRODUCT_SPECS)} specs x {len(sweep)} modes to {SWEEP}")

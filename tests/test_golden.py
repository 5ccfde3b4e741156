"""Byte-identical output: every report and every demo must match committed goldens.

`golden_reports.json` holds one sha256 per spec of the report's JSON (as the
CLI writes it) followed by its text rendering, notes included. Regenerate it
only for a change that is meant to alter output, and say so in its log:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from pga import analyze
from pga.cli import render_text, report_to_json_dict

from _support import GOLDEN_SPECS

GOLDEN = Path(__file__).with_name("golden_reports.json")


def report_digest(spec: str) -> str:
    r = analyze(spec)
    payload = json.dumps(report_to_json_dict(r), indent=2, sort_keys=True) + "\n" + render_text(r)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_reports_match_golden_digests():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(GOLDEN_SPECS)
    changed = [spec for spec in GOLDEN_SPECS if report_digest(spec) != golden[spec]]
    assert not changed, f"report output changed for {changed}"


if __name__ == "__main__":
    digests = {spec: report_digest(spec) for spec in GOLDEN_SPECS}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")

"""Smoke test of the benchmark itself, on tiny spec lists (about half a minute).

    python3 perfbench/smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the per-layer ``*.calls`` counts repeat exactly across two traced runs, that a
deliberately wrong reference order is caught as a failure, and that the
benchmark refuses to run without the pga sources. Exits non-zero on the first
check that does not hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
TINY = "Z(6);Q8"
WORKLOADS = ("analyze-large", "verify-oracle", "cli-batch")


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "0.2", "--trace", str(trace), "--specs", TINY, *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def check_metrics(result: dict, declared: list[dict], what: str, prefixes=("",)) -> None:
    units = {p + m["name"]: m["unit"] for p in prefixes for m in declared}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(emitted == units, f"{what}: every declared metric is emitted with its unit")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: the result has exactly the four keys")


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    code, result = bench("all", 0)
    expect(code == 0 and result is not None and result["correct"],
           "an untraced run of all workloads passes its checks")
    check_metrics(result, declared["end_to_end"], "all workloads",
                  tuple(f"{w}." for w in WORKLOADS))

    traced = []
    for _ in range(2):
        code, result = bench("cli-batch", 1)
        expect(code == 0 and result is not None, "cli-batch: a traced run passes its checks")
        check_metrics(result, declared["per_layer"], "traced cli-batch")
        traced.append({k: m["value"] for k, m in result["metrics"].items()
                       if k.endswith(".calls")})
    expect(traced[0] == traced[1], "*.calls counts repeat exactly across two traced runs")
    expect(traced[0]["cli.run.calls"] == 6, "cli.run is called once per operation")

    SCRATCH.mkdir(exist_ok=True)
    wrong = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    wrong["orders"]["Q8"]["order"] = str(int(wrong["orders"]["Q8"]["order"]) + 1)
    wrong_path = SCRATCH / "wrong-reference.json"
    wrong_path.write_text(json.dumps(wrong), encoding="utf-8")
    code, result = bench("analyze-large", 0, "--reference", str(wrong_path))
    expect(code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
           "a wrong reference order is caught as a failure and exits non-zero")
    check_metrics(result, declared["end_to_end"], "analyze-large")
    wrong_path.unlink()

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result = bench("cli-batch", 0, cwd=bare)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, "without the pga sources it exits non-zero, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

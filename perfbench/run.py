"""Benchmark of pga: one workload per invocation, checked against frozen orders.

    python3 perfbench/run.py --workload analyze-large|verify-oracle|cli-batch|all
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pga is imported from ``src``. The
workload runs in a fresh single-threaded process (worker.py). Set-up time is
measured as the median of several fresh processes that stop after set-up.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. ``--workload all`` runs the three workloads in turn and prints
each one's result. The exit code is 0 only if every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analyze-large", "verify-oracle", "cli-batch")
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170


def worker_command(args: argparse.Namespace, workload: str, *extra: str) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    if args.specs:
        cmd += ["--specs", args.specs]
    if args.reference:
        cmd += ["--reference", args.reference]
    return cmd


def run_worker(cmd: list[str], env: dict[str, str], deadline: float) -> tuple[int, str]:
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--started", repr(started)], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, stdout


def run_workload(args: argparse.Namespace, workload: str, env: dict[str, str]) -> dict | None:
    """Set-up probes, then the workload process; its result, or None if it broke."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    setups: list[float] = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            cmd = worker_command(args, workload, "--setup-only")
            code, out = run_worker(cmd, env, deadline)
            if code != 0:
                print(out, end="")
                print(f"error: set-up probe exited {code}", file=sys.stderr)
                return None
            setups.append(json.loads(out.splitlines()[-1])["setup_s"])
    code, out = run_worker(worker_command(args, workload), env, deadline)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(out, end="")
        print(f"error: the workload process exited {code} without a result", file=sys.stderr)
        return None
    print("\n".join(lines[:-1]))
    setups.append(result.pop("setup_s"))
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"setup_s: median of {len(setups)} fresh processes")
    result["correct"] = result["correct"] and code == 0
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--specs", help=argparse.SUPPRESS)  # smoke test only
    parser.add_argument("--reference", help=argparse.SUPPRESS)  # smoke test only
    args = parser.parse_args()

    if not (ROOT / "src" / "pga" / "__init__.py").is_file():
        print(f"error: no pga sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a fixed string-hash seed: with a random one, the speed of the same
    # interpreter code varies by up to a third between fresh processes
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

    if args.workload != "all":
        result = run_workload(args, args.workload, env)
        if result is None:
            return 2
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # every workload in turn; the last line merges them as <workload>.<metric>
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(args, workload, env)
        if result is None:
            return 2
        print(f"{workload}: {json.dumps(result)}")
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

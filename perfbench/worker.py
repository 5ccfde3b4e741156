"""One benchmark workload, run in a fresh single-threaded process by run.py.

The process is a closed loop with one caller: it runs every operation of the
workload once per pass (a short one several times, in an untraced run), in an
order drawn from the seed, after one untimed warm-up pass. Each answer is
checked against the frozen reference orders in ``reference.json``. The last
line of stdout is a JSON result for run.py.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --started MONOTONIC [--setup-only] [--specs A;B] [--reference FILE]
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy
import pga
import pga.cli
from pga.cli import report_to_json_dict
from pga.expr import expr_order, parse_expr

from spans import SPAN_NAMES, Tracer, per_layer_metric_units

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SCRATCH = ROOT / ".perfbench"

# Large groups: realize, the power graph and the quotient do most of the work
# (build_quotient alone is most of Z(2)^10). P(Sym(5),Z(7)) ends in
# CapExceeded at the oracle's default node cap; it stays, as an unanswered
# operation whose time counts in the pass.
ANALYZE_LARGE = (
    "Z(1000)", "Dih(500)", "Z(2)^10", "Z(3)^5", "Sym(5)",
    "P(Sym(4),Sym(3))", "P(Sym(5),Z(7))",
)

# Full power graphs of 25-119 nodes: count_automorphisms is nearly the whole
# pass, and the group and quotient layers do almost nothing.
VERIFY_ORACLE = (
    "Dih(13)", "Z(2)^5", "Z(3)^3", "Z(4)^3", "Dih(25)", "Z(2)^6", "Sym(5)", "Dih(50)",
)
VERIFY_CAPS = {"max_nodes": 128, "max_count": 10**200}

# Many small groups, where fixed per-call costs dominate: the tests' corpus
# and every spec of the small-group sweep against the oracle, each through
# the CLI's analyze, verify and export commands with default caps.
CLI_BATCH = (
    "Z(6)", "Z(10)", "Z(12)", "Z(15)", "Z(18)", "Z(20)", "Z(4)", "Z(8)", "Z(9)",
    "Z(2)^2", "Z(3)^2", "Z(2)^3", "Z(4)^2", "Sym(3)", "Dih(4)", "Q8", "Ab[2,4]",
    "Ab[2,2,3]", "P(Q8,Z(3))", "Z(2)", "Z(3)", "Z(5)", "Z(7)", "Z(11)", "Z(13)",
    "Z(14)", "Z(16)", "Z(17)", "Z(19)", "Z(21)", "Z(22)", "Z(23)", "Z(24)",
    "Z(25)", "Z(26)", "Z(27)", "Z(28)", "Dih(1)", "Dih(2)", "Dih(3)", "Dih(5)",
    "Dih(6)", "Dih(7)", "Dih(8)", "Dih(9)", "Dih(10)", "Dih(11)", "Dih(12)",
    "Dih(13)", "Dih(14)", "Sym(2)", "Sym(4)", "Z(5)^2", "P(Dih(4),Z(3))",
    "P(Q8,Z(2))", "P(Dih(3),Z(4))", "P(Sym(3),Z(4))", "Ab[2,2]", "Ab[2,3]",
    "Ab[2,2,2]", "Ab[3,3]", "Ab[2,5]", "Ab[2,6]", "Ab[3,4]", "Ab[2,7]",
    "Ab[3,5]", "Ab[2,8]", "Ab[4,4]", "Ab[2,2,4]", "Ab[2,9]", "Ab[3,6]",
    "Ab[2,3,3]", "Ab[2,10]", "Ab[4,5]", "Ab[2,2,5]", "Ab[3,7]", "Ab[2,11]",
    "Ab[2,12]", "Ab[3,8]", "Ab[4,6]", "Ab[2,2,6]", "Ab[2,3,4]", "Ab[5,5]",
    "Ab[2,13]", "Ab[3,9]", "Ab[3,3,3]", "Ab[2,14]", "Ab[4,7]", "Ab[2,2,7]",
)
CLI_MODES = ("analyze", "verify", "export")

WORKLOADS = {
    "analyze-large": ANALYZE_LARGE,
    "verify-oracle": VERIFY_ORACLE,
    "cli-batch": CLI_BATCH,
}

MIN_PASSES = 2
REPEAT_MIN_S = 1.0   # untraced passes repeat an operation up to this long ...
MAX_REPEATS = 9      # ... and at most this many times
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

# Machine-speed calibration. On a shared host the speed of one core drifts by
# up to 40% over tens of seconds, with the other tenants' load, so two runs of
# the same code can differ by more than a regression bound. A fixed reference
# kernel (below; no pga code) is therefore timed between operations, at least
# every CAL_EVERY_S and around every longer operation, and each operation's
# wall time is multiplied by (CAL_NOMINAL_S / k) ** CAL_EXPONENT, where k is
# the median kernel time of the marks near it (the two that bracket it and
# CAL_NEIGHBOURS more on each side, so that one odd mark does not skew it).
# The exponent is below 1 because pga's time moves less than the kernel's:
# over four sets of 5-10 runs on a shared 2-core Xeon VM, the least-squares
# slope of log pass time on log kernel time was 0.26-0.69, and an exponent of
# 0.5 left the smallest spread of pass_s in every set. Raw wall times are
# printed beside the scaled ones.
CAL_NOMINAL_S = 0.008
CAL_EXPONENT = 0.5
CAL_EVERY_S = 0.5
CAL_REPEATS = 5
CAL_NEIGHBOURS = 2


# a 9-vertex circulant graph, for the kernel's small backtracking search
KERNEL_N = 9
KERNEL_ADJ = tuple(
    frozenset({(v + 1) % KERNEL_N, (v - 1) % KERNEL_N, (v + 3) % KERNEL_N, (v - 3) % KERNEL_N})
    for v in range(KERNEL_N)
)


def calibration_kernel() -> int:
    """A fixed mix of dict, tuple, sort, set and small numpy work, and a
    backtracking count of the 18 automorphisms of a small graph; about 8 ms."""
    table: dict[tuple[int, int], int] = {}
    for i in range(6000):
        table[(i * 7919) % 4093, i & 15] = i
    ordered = sorted(table.values(), key=lambda v: -v)
    kept = set(ordered[::3])
    a = numpy.arange(4096, dtype=numpy.int64).reshape(64, 64)
    for _ in range(8):
        a = (a @ a.T) % 97

    def extend(image: list[int], used: set[int]) -> int:
        v = len(image)
        if v == KERNEL_N:
            return 1
        found = 0
        for w in range(KERNEL_N):
            if w not in used and all(
                (u in KERNEL_ADJ[v]) == (image[u] in KERNEL_ADJ[w]) for u in range(v)
            ):
                image.append(w)
                used.add(w)
                found += extend(image, used)
                image.pop()
                used.discard(w)
        return found

    return len(kept) + int(a[0, 0]) + extend([], set())


class SpeedClock:
    """Marks of the reference kernel's time, to scale operation latencies."""

    def __init__(self) -> None:
        self.at: list[float] = []      # perf_counter() when each mark ended
        self.kernel_s: list[float] = []

    def mark(self) -> None:
        gc.collect()  # also leaves the next operation a collected heap
        times = []
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            calibration_kernel()
            times.append(time.perf_counter() - start)
        self.kernel_s.append(statistics.median(times))
        self.at.append(time.perf_counter())

    def maybe_mark(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= CAL_EVERY_S:
            self.mark()

    def scale(self, start: float, end: float) -> float:
        """The factor for a wall time over [start, end], from the marks around it."""
        before = bisect.bisect_right(self.at, start) - 1
        after = bisect.bisect_left(self.at, end)
        near = self.kernel_s[max(0, before - CAL_NEIGHBOURS):after + 1 + CAL_NEIGHBOURS]
        return (CAL_NOMINAL_S / statistics.median(near)) ** CAL_EXPONENT


def operations(workload: str, specs) -> list[tuple[str, str]]:
    """(kind, spec) pairs of one pass, in canonical order."""
    if workload == "analyze-large":
        return [("analyze", s) for s in specs]
    if workload == "verify-oracle":
        return [("verify", s) for s in specs]
    return [(mode, s) for s in specs for mode in CLI_MODES]


# ---------------------------------------------------------------------------
# one operation: the timed call, then the checks


class Outcome(NamedTuple):
    """What one operation produced: its output, and a verdict on it."""

    output: str
    answered: bool
    problem: str | None
    bytes_out: int = 0


def check_report(d: dict, spec: str, orders: dict[str, str]) -> str | None:
    """None if the JSON report's answer is right, else what is wrong with it."""
    want = orders[spec]
    got = d["order_decimal"]
    if got != want:
        return f"order {got} differs from the reference {want}"
    try:
        parsed = str(expr_order(parse_expr(d["expression"])))
    except ValueError as exc:
        return f"expression {d['expression']!r} does not parse: {exc}"
    if parsed != got:
        return f"expression {d['expression']!r} parses to order {parsed}, not {got}"
    if d["verification"]["status"] == "mismatch":
        return f"verification mismatch: {d['verification']['detail']}"
    return None


def run_library_op(kind: str, spec: str, orders, checking) -> tuple[float, float, Outcome]:
    caps = pga.OracleCaps(**VERIFY_CAPS)
    start = time.perf_counter()
    try:
        report = pga.analyze(spec) if kind == "analyze" else pga.verify(spec, caps)
    except pga.CapExceeded as exc:
        end = time.perf_counter()
        return start, end, Outcome(f"unknown: {exc}\n", False, None)
    except Exception as exc:  # any other escape is a failed operation
        end = time.perf_counter()
        return start, end, Outcome(f"error: {exc!r}\n", False, f"raised {exc!r}")
    end = time.perf_counter()
    with checking():
        d = report_to_json_dict(report)
        problem = check_report(d, spec, orders)
    if problem is None and kind == "verify" and d["verification"]["status"] not in (
        "full-verified", "quotient-verified"
    ):
        problem = f"verify returned status {d['verification']['status']!r}"
    return start, end, Outcome(json.dumps(d, indent=2, sort_keys=True) + "\n", True, problem)


def run_cli_op(mode: str, spec: str, orders, out_dir: Path,
               checking) -> tuple[float, float, Outcome]:
    argv = [mode, "--group", spec, "--format", "json"]
    if mode == "export":
        argv += ["--out", str(out_dir)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = pga.cli.run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # any other escape is a failed operation
            code = f"raised {exc!r}"
        end = time.perf_counter()
    stdout, stderr = out.getvalue(), err.getvalue()
    bytes_out = len(stdout.encode()) + len(stderr.encode())
    files: dict[str, str] = {}  # export writes <slug>.json first, then the DOT files
    if mode == "export" and code == 0:
        for line in stdout.splitlines():
            path = Path(line.removeprefix("wrote "))
            files[path.name] = path.read_text(encoding="utf-8")
            bytes_out += path.stat().st_size
    output = f"exit {code}\n{stdout}--- stderr\n{stderr}" + "".join(
        f"--- {name}\n{text}" for name, text in files.items()
    )
    output = output.replace(str(out_dir), "<out>")
    if code == 3:
        return start, end, Outcome(output, False, None, bytes_out)
    if code != 0:
        return start, end, Outcome(output, False, f"exit {code}: {stderr.strip()}", bytes_out)
    d = json.loads(next(iter(files.values())) if files else stdout)
    with checking():
        problem = check_report(d, spec, orders)
    return start, end, Outcome(output, True, problem, bytes_out)


# ---------------------------------------------------------------------------
# passes


def percentile(ordered: list[float], p: float) -> tuple[float, int]:
    """Linearly interpolated percentile of sorted samples, and how many lie above it."""
    h = (len(ordered) - 1) * p / 100
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo]), len(ordered) - lo - 1


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples above it, else the median."""
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        value, above = percentile(ordered, p)
        if above >= 10:
            return p, value
    return 50.0, percentile(ordered, 50.0)[0]


class Run:
    def __init__(self, workload: str, specs, orders: dict[str, str], trace: bool) -> None:
        self.workload = workload
        self.ops = operations(workload, specs)
        self.orders = orders
        self.tracer = Tracer() if trace else None
        self.out_dir = SCRATCH / f"out-{os.getpid()}"
        self.repeats = [1] * len(self.ops)
        self.outputs: dict[tuple[str, str], str] = {}
        self.problems: list[str] = []
        self.unanswered: dict[tuple[str, str], str] = {}

    def one_pass(self, order: list[int]) -> dict:
        """Every operation once, or its ``repeats`` times; one latency per operation."""
        spans, answered, failed, bytes_out = [], 0, 0, 0
        checking = self.tracer.paused if self.tracer is not None else nullcontext
        clock = SpeedClock()
        for i in order:
            kind, spec = self.ops[i]
            if self.tracer is not None:
                self.tracer.begin_op(f"{kind} {spec}")
            spans.append([])
            all_answered = True
            for _ in range(self.repeats[i]):
                clock.maybe_mark()
                if self.workload == "cli-batch":
                    start, end, outcome = run_cli_op(
                        kind, spec, self.orders, self.out_dir, checking)
                else:
                    start, end, outcome = run_library_op(kind, spec, self.orders, checking)
                spans[-1].append((start, end))
                bytes_out += outcome.bytes_out
                key = (kind, spec)
                first = self.outputs.setdefault(key, outcome.output)
                problem = outcome.problem
                if problem is None and first != outcome.output:
                    problem = "output differs from an earlier run of the same operation"
                if problem is not None:
                    failed += 1
                    self.problems.append(f"{kind} {spec}: {problem}")
                all_answered = all_answered and outcome.answered
                if not outcome.answered and problem is None:
                    self.unanswered[key] = outcome.output.strip().splitlines()[-1]
            answered += all_answered
        clock.mark()
        wall = [statistics.median(end - start for start, end in op) for op in spans]
        latencies = [statistics.median((end - start) * clock.scale(start, end)
                                       for start, end in op) for op in spans]
        return {"ops": [" ".join(self.ops[i]) for i in order],
                "latencies": latencies, "pass_s": sum(latencies), "wall_s": sum(wall),
                "wall": wall, "kernel_ms": statistics.median(clock.kernel_s) * 1000,
                "runs": sum(len(op) for op in spans), "answered": answered,
                "failed": failed, "bytes_out": bytes_out}

    def run(self, seed: int, seconds: float) -> tuple[list[dict], list[dict]]:
        """Warm-up pass, then timed passes; returns (passes, per-pass trace metrics)."""
        rng = random.Random(seed)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        passes: list[dict] = []
        traced: list[dict] = []
        try:
            if self.tracer is not None:
                self.tracer.install()
            warm_order = rng.sample(range(len(self.ops)), len(self.ops))
            warm = self.one_pass(warm_order)
            if self.tracer is None:
                # short operations repeat, so that each one's latency in a
                # pass is a median over about REPEAT_MIN_S of runs
                for i, latency in zip(warm_order, warm["wall"]):
                    self.repeats[i] = max(1, min(MAX_REPEATS, math.ceil(REPEAT_MIN_S / latency)))
            begin = time.perf_counter()
            while True:
                order = rng.sample(range(len(self.ops)), len(self.ops))
                if self.tracer is not None:
                    self.tracer.reset()
                result = self.one_pass(order)
                passes.append(result)
                if self.tracer is not None:
                    traced.append(self.tracer.pass_metrics(
                        len(self.ops), result["bytes_out"], result["wall_s"]))
                elapsed = time.perf_counter() - begin
                typical = elapsed / len(passes)
                if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
                    break
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        return passes, traced

    def digest(self) -> str:
        h = hashlib.sha256()
        for key in self.ops:
            h.update(f"{key[0]} {key[1]}\n".encode())
            h.update(self.outputs[key].encode())
        return h.hexdigest()


def end_to_end_metrics(passes: list[dict]) -> tuple[dict, list[str]]:
    latencies = [x for p in passes for x in p["latencies"]]
    attempted = sum(p["runs"] for p in passes)
    pct, tail = tail_percentile(latencies)
    answered = sum(p["answered"] for p in passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "pass_s": (statistics.median(p["pass_s"] for p in passes), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail * 1000, "ms"),
        "answered_frac": (answered / len(latencies), "ratio"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    wall = [x for p in passes for x in p["wall"]]
    wall_pct, wall_tail = tail_percentile(wall)
    by_op: dict[str, list[float]] = {}
    for p in passes:
        for op, latency in zip(p["ops"], p["latencies"]):
            by_op.setdefault(op, []).append(latency)
    notes = [
        f"pass_s: median of {len(passes)} timed passes: "
        + ", ".join(f"{p['pass_s']:.3f}" for p in passes),
        f"op_p50_ms: median of {len(latencies)} operation latencies, each the median "
        f"of the operation's repeats in a pass ({attempted} runs in all)",
        f"op_tail_ms: p{pct:g} of {len(latencies)} operation latencies",
        f"times above are scaled by ({CAL_NOMINAL_S * 1000:g} ms / kernel time) ** "
        f"{CAL_EXPONENT:g}; "
        "it read " + ", ".join(f"{p['kernel_ms']:.2f}" for p in passes)
        + " ms (median per pass)",
        "raw wall times: pass_s " + ", ".join(f"{p['wall_s']:.3f}" for p in passes)
        + f"; op_p50_ms {statistics.median(wall) * 1000:.3f}"
        + f"; op_tail_ms (p{wall_pct:g}) {wall_tail * 1000:.3f}",
        f"answered_frac: {answered} of {len(latencies)} operations answered in every run",
        "median scaled latency per operation, ms: " + ", ".join(
            f"{op} {statistics.median(v) * 1000:.1f}" for op, v in sorted(by_op.items())),
        "peak_rss_mb: peak resident memory of the workload process",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def per_layer_metrics(traced: list[dict], tracer: Tracer) -> tuple[dict, list[str]]:
    units = per_layer_metric_units()
    metrics = {}
    for name, unit in units.items():
        values = [t[name] for t in traced]
        value = statistics.median(values)
        if unit != "s" and value == int(value):
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    notes = [f"per-layer values: median over {len(traced)} traced passes"]
    if tracer.missing:
        notes.append(f"not present in pga, reported as 0: {', '.join(tracer.missing)}")
    for name in SPAN_NAMES:
        counts = {t[f"{name}.calls"] for t in traced}
        if len(counts) > 1:
            notes.append(f"{name}.calls varies between passes: {sorted(counts)}")
    edges = sorted(tracer.edges.items(), key=lambda kv: (-kv[1], kv[0]))[:25]
    notes.append("top span edges of the last pass (parent -> child: calls): " + ", ".join(
        f"{a} -> {b}: {n}" for (a, b), n in edges))
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its duration")
    parser.add_argument("--specs", help="';'-separated specs instead of the workload's")
    parser.add_argument("--reference", default=str(REFERENCE))
    args = parser.parse_args(argv)

    reference = json.loads(Path(args.reference).read_text(encoding="utf-8"))
    orders = {spec: entry["order"] for spec, entry in reference["orders"].items()}
    specs = args.specs.split(";") if args.specs else WORKLOADS[args.workload]
    missing = [s for s in specs if s not in orders]
    if missing:
        print(f"no reference order for {missing}", file=sys.stderr)
        return 2
    run = Run(args.workload, specs, orders, bool(args.trace))
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    load_start = os.getloadavg()
    passes, traced = run.run(args.seed, args.seconds)
    load_end = os.getloadavg()
    env = {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "loadavg_start": load_start, "loadavg_end": load_end,
    }
    attempted = sum(p["runs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    lines = [
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{len(run.ops)} operations per pass, 1 warm-up pass, {len(passes)} timed passes, "
        f"{sum(run.repeats)} runs per timed pass",
        "env: " + json.dumps(env),
    ]
    for (kind, spec), why in sorted(run.unanswered.items()):
        lines.append(f"unanswered: {kind} {spec}: {why}")
    for problem in dict.fromkeys(run.problems):
        lines.append(f"FAILED: {problem}")
    digest = run.digest()
    seed_digest = None if args.specs else reference.get("digests", {}).get(args.workload)
    if seed_digest is None:
        lines.append(f"digest: {digest}")
    elif seed_digest == digest:
        lines.append(f"digest: {digest} (same as the frozen reference)")
    else:
        lines.append(f"digest: {digest} (changed: frozen reference is {seed_digest})")

    if args.trace:
        metrics, notes = per_layer_metrics(traced, run.tracer)
        SCRATCH.mkdir(exist_ok=True)
        spans_path = SCRATCH / f"spans-{args.workload}.json"
        spans_path.write_text(json.dumps(run.tracer.span_records()), encoding="utf-8")
        notes.append(f"spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end_metrics(passes)
    print("\n".join(lines + notes))
    result = {"correct": not run.problems, "attempted": attempted, "failed": failed,
              "metrics": metrics, "setup_s": setup_s}
    print(json.dumps(result))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: analyze, verify and export power-graph reports.

    pga analyze|verify|export (--group SPEC | --corpus FILE) [options]

One flat parser, built at import and reused by every `run` call, takes the
mode and the options in any order; `--dot` is accepted only with `export`.

Exit codes: 0 success, 1 bad spec or usage, 2 internal assertion failure or a
verification mismatch, 3 oracle caps exceeded (result unknown). A corpus runs
every spec, writes the finished results in input order (with --format json,
as one list however many finish) and exits with the most severe code: 2,
then 3, then 1.

Every file the CLI writes (export's JSON and DOT files, the --out file of
analyze and verify) is written as UTF-8 text. An existing file is overwritten
in place and cut to the new length; a new file is created as before. A write
that fails exits 1 and may leave the new bytes followed by old ones.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .engine import AutReport, analyze, verify
from .expr import decimal, expr_order, render_expr
from .oracle import CapExceeded, OracleCaps
from .powergraph import PowerGraph
from .quotient import QuotientGraph

EXIT_OK = 0
EXIT_SPEC_ERROR = 1
EXIT_INTERNAL = 2
EXIT_UNKNOWN = 3
_SEVERITY = (EXIT_OK, EXIT_SPEC_ERROR, EXIT_UNKNOWN, EXIT_INTERNAL)  # least severe first


# ---------------------------------------------------------------------------
# rendering


def report_to_json_dict(report: AutReport) -> dict:
    verification = report.verification
    return {
        "spec": report.spec,
        "group_order": report.group_order,
        "vertex_count": report.vertex_count,
        "classes": [
            {
                "members": list(c.members),
                "weight": c.weight,
                "element_order": c.element_order,
                "men_type": c.kind,
            }
            for c in report.classes
        ],
        "quotient": {"nodes": report.quotient_nodes, "edges": report.quotient_edges},
        "expression": report.expression_str,
        "order_decimal": decimal(report.order),
        "method": report.method,
        "verification": {
            "status": verification.status,
            "structural_order": decimal(verification.structural_order),
            "oracle_order": (
                None if verification.oracle_order is None else decimal(verification.oracle_order)
            ),
            "detail": verification.detail,
        },
    }


def _optional_decimal(n: int | None) -> str:
    return "None" if n is None else decimal(n)


def render_text(report: AutReport) -> str:
    lines = [
        f"group: {report.spec}  (order {report.group_order}, {report.vertex_count} vertices)",
        f"method: {report.method}",
        "classes (id, weight, max order, kind, members):",
    ]
    for i, c in enumerate(report.classes):
        members = ", ".join(c.members)
        lines.append(
            f"  #{i}  w={c.weight}  order={c.element_order}  {c.kind}  {{{members}}}"
        )
    lines.append(f"quotient: {report.quotient_nodes} nodes, {report.quotient_edges} edges")
    lines.append(
        f"quotient automorphisms: {render_expr(report.quotient_expr)}"
        f"  (order {decimal(expr_order(report.quotient_expr))})"
    )
    lines.append(f"expression: {report.expression_str}")
    lines.append(f"order: {decimal(report.order)}")
    for note in report.notes:
        lines.append(f"note: {note}")
    v = report.verification
    if v.status == "skipped":
        lines.append("verification: skipped")
    else:
        lines.append(
            f"verification: {v.status.upper()}  structural={decimal(v.structural_order)}"
            f"  oracle={_optional_decimal(v.oracle_order)}  ({v.detail})"
        )
    return "\n".join(lines) + "\n"


def verdict_line(report: AutReport) -> str:
    v = report.verification
    return (
        f"{report.spec}: {v.status.upper()}  {decimal(v.structural_order)}"
        f" = {_optional_decimal(v.oracle_order)}"
        f"  ({v.detail})"
    )


def power_graph_dot(pg: PowerGraph) -> str:
    g = pg.group
    lines = ["graph powergraph {", f'  label="{pg.group.description}";']
    for v in range(pg.n_vertices):
        e = pg.element_of(v)
        lines.append(f'  {v} [label="{g.labels[e]} (order {g.element_order(e)})"];')
    for u, v in pg.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def quotient_dot(q: QuotientGraph, report: AutReport) -> str:
    lines = ["graph quotient {", f'  label="{report.spec} quotient";']
    for i in range(q.n_nodes):
        order = report.classes[i].element_order
        lines.append(f'  {i} [label="weight={q.weights[i]}, order={order}"];')
    for u, v in q.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _slug(spec: str) -> str:
    out = "".join(ch if ch.isalnum() else "_" for ch in spec)
    while "__" in out:
        out = out.replace("__", "_")
    return out.strip("_")


def _write_text(path: Path | str, text: str) -> None:
    """Path.write_text without O_TRUNC: cutting a file that holds data to zero
    before writing costs a discard on a volume mounted with `discard`, so the
    file is overwritten in place and cut at the end of the new bytes when it
    was longer. A new file, a device or a pipe has size 0 and is never cut (a
    device or a pipe could not be)."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as f:
        old_size = os.fstat(fd).st_size
        f.write(text)
        if old_size and old_size > (end := f.tell()):
            os.ftruncate(fd, end)


# ---------------------------------------------------------------------------
# commands


# each command returns its exit code and its output, rendered only in the
# format asked for: a JSON dict for --format json, else text


def cmd_analyze(spec: str, args: argparse.Namespace, caps: OracleCaps) -> tuple[int, str | dict]:
    report = analyze(spec, caps)
    return EXIT_OK, report_to_json_dict(report) if args.format == "json" else render_text(report)


def cmd_verify(spec: str, args: argparse.Namespace, caps: OracleCaps) -> tuple[int, str | dict]:
    report = verify(spec, caps)
    code = EXIT_OK if report.verification.status != "mismatch" else EXIT_INTERNAL
    if args.format == "json":
        return code, report_to_json_dict(report)
    return code, verdict_line(report) + "\n"


def cmd_export(spec: str, args: argparse.Namespace, caps: OracleCaps) -> tuple[int, str]:
    """Writes the JSON and DOT files; the text output names them."""
    report = analyze(spec, caps)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    slug = _slug(report.spec)
    targets = args.dot if args.dot else ["power-graph", "quotient"]
    written = []
    json_path = out_dir / f"{slug}.json"
    payload = json.dumps(report_to_json_dict(report), indent=2, sort_keys=True)
    _write_text(json_path, payload + "\n")
    written.append(json_path)
    if "power-graph" in targets:
        p = out_dir / f"{slug}.power.dot"
        _write_text(p, power_graph_dot(report.pipeline.pg))
        written.append(p)
    if "quotient" in targets:
        p = out_dir / f"{slug}.quotient.dot"
        _write_text(p, quotient_dot(report.pipeline.q, report))
        written.append(p)
    return EXIT_OK, "".join(f"wrote {p}\n" for p in written)


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # keep exit code 2 reserved for checks
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_SPEC_ERROR)


_PARSER = _Parser(prog="pga", description="Automorphism groups of power graphs of finite groups.")
_PARSER.add_argument(
    "mode",
    choices=["analyze", "verify", "export"],
    help="analyze: structural report; verify: with oracle comparison; export: JSON and DOT",
)
_SOURCE = _PARSER.add_mutually_exclusive_group(required=True)
_SOURCE.add_argument("--group", help='group spec, e.g. "Z(12)" or "P(Q8,Z(3))"')
_SOURCE.add_argument("--corpus", help="file with one group spec per line")
_PARSER.add_argument("--format", choices=["text", "json"], default="text")
_PARSER.add_argument("--out", help="output file (analyze/verify) or directory (export)")
_PARSER.add_argument("--max-nodes", type=int, default=OracleCaps.max_nodes, help="oracle node cap")
_PARSER.add_argument(
    "--dot",
    action="append",
    choices=["power-graph", "quotient"],
    help="DOT targets of export (default: both)",
)


def _specs_from_args(args: argparse.Namespace) -> list[tuple[str, str]]:
    """(spec, prefix of its error messages) pairs: with --corpus the prefix
    names the spec's line number and the spec."""
    if args.corpus is None:
        return [(args.group, "")]
    lines = Path(args.corpus).read_text(encoding="utf-8-sig").splitlines()
    stripped = [(i, ln.strip()) for i, ln in enumerate(lines, 1)]
    specs = [(s, f"line {i}, {s}: ") for i, s in stripped if s and not s.startswith("#")]
    if not specs:
        _PARSER.error(f"corpus file {args.corpus} contains no specs")
    return specs


def run(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if args.dot and args.mode != "export":
        _PARSER.error("argument --dot: only allowed with export")
    try:
        caps = OracleCaps(max_nodes=args.max_nodes)
    except ValueError as exc:
        _PARSER.error(str(exc))
    handler = {"analyze": cmd_analyze, "verify": cmd_verify, "export": cmd_export}[args.mode]
    try:
        specs = _specs_from_args(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except UnicodeDecodeError as exc:
        print(f"error: corpus file {args.corpus} is not UTF-8 text ({exc})", file=sys.stderr)
        return EXIT_SPEC_ERROR
    worst = EXIT_OK
    outputs: list[str | dict] = []
    for spec, where in specs:
        try:
            code, out = handler(spec, args, caps)
        except (ValueError, OSError) as exc:  # SpecError is a ValueError
            print(f"error: {where}{exc}", file=sys.stderr)
            code = EXIT_SPEC_ERROR
        except CapExceeded as exc:  # a RuntimeError, so it must come first
            print(f"unknown: {where}{exc}", file=sys.stderr)
            code = EXIT_UNKNOWN
        except RuntimeError as exc:  # InternalCheckError and oracle self-checks
            print(f"internal check failed: {where}{exc}", file=sys.stderr)
            code = EXIT_INTERNAL
        else:
            outputs.append(out)
        worst = max(worst, code, key=_SEVERITY.index)
    if not outputs:
        return worst
    if args.mode == "export":
        # export writes its own files; stdout only names them
        sys.stdout.write("".join(outputs))
        return worst
    if args.format == "json":
        # a corpus prints a list however many of its specs finish
        payload = outputs if args.corpus is not None else outputs[0]
        output = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        output = "\n".join(outputs)
    if args.out:
        try:
            _write_text(args.out, output)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return max(worst, EXIT_SPEC_ERROR, key=_SEVERITY.index)
    else:
        sys.stdout.write(output)
    return worst

"""Command-line front end: analyze, verify and export power-graph reports.

Exit codes: 0 success, 1 bad spec or usage, 2 internal assertion failure or a
verification mismatch, 3 oracle caps exceeded (result unknown).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import AutReport, analyze, verify
from .expr import expr_order, render_expr
from .oracle import CapExceeded, OracleCaps
from .powergraph import PowerGraph
from .quotient import QuotientGraph

EXIT_OK = 0
EXIT_SPEC_ERROR = 1
EXIT_INTERNAL = 2
EXIT_UNKNOWN = 3


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
        "order_decimal": str(report.order),
        "method": report.method,
        "verification": {
            "status": verification.status,
            "structural_order": str(verification.structural_order),
            "oracle_order": (
                None if verification.oracle_order is None else str(verification.oracle_order)
            ),
            "detail": verification.detail,
        },
    }


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
        f"  (order {expr_order(report.quotient_expr)})"
    )
    lines.append(f"expression: {report.expression_str}")
    lines.append(f"order: {report.order}")
    for note in report.notes:
        lines.append(f"note: {note}")
    v = report.verification
    if v.status == "skipped":
        lines.append("verification: skipped")
    else:
        lines.append(
            f"verification: {v.status.upper()}  structural={v.structural_order}"
            f"  oracle={v.oracle_order}  ({v.detail})"
        )
    return "\n".join(lines) + "\n"


def verdict_line(report: AutReport) -> str:
    v = report.verification
    return (
        f"{report.spec}: {v.status.upper()}  {v.structural_order} = {v.oracle_order}"
        f"  ({v.detail})"
    )


def power_graph_dot(pg: PowerGraph) -> str:
    g = pg.group
    lines = ["graph powergraph {", f'  label="{pg.group_description}";']
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


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(spec: str, args: argparse.Namespace, caps: OracleCaps) -> tuple[int, str, dict]:
    report = analyze(spec, caps)
    return EXIT_OK, render_text(report), report_to_json_dict(report)


def cmd_verify(spec: str, args: argparse.Namespace, caps: OracleCaps) -> tuple[int, str, dict]:
    report = verify(spec, caps)
    code = EXIT_OK if report.verification.status != "mismatch" else EXIT_INTERNAL
    return code, verdict_line(report) + "\n", report_to_json_dict(report)


def cmd_export(spec: str, args: argparse.Namespace, caps: OracleCaps) -> tuple[int, str, dict]:
    report = analyze(spec, caps)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    slug = _slug(report.spec)
    targets = args.dot if args.dot else ["power-graph", "quotient"]
    written = []
    json_path = out_dir / f"{slug}.json"
    json_path.write_text(
        json.dumps(report_to_json_dict(report), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    written.append(json_path)
    if "power-graph" in targets:
        p = out_dir / f"{slug}.power.dot"
        p.write_text(power_graph_dot(report.pipeline.pg), encoding="utf-8")
        written.append(p)
    if "quotient" in targets:
        p = out_dir / f"{slug}.quotient.dot"
        p.write_text(quotient_dot(report.pipeline.q, report), encoding="utf-8")
        written.append(p)
    text = "".join(f"wrote {p}\n" for p in written)
    return EXIT_OK, text, report_to_json_dict(report)


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # keep exit code 2 reserved for checks
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_SPEC_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pga",
        description="Automorphism groups of power graphs of finite groups.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", help='group spec, e.g. "Z(12)" or "P(Q8,Z(3))"')
    common.add_argument("--corpus", help="file with one group spec per line")
    common.add_argument("--format", choices=["text", "json"], default="text")
    common.add_argument("--out", help="output file (analyze/verify) or directory (export)")
    common.add_argument("--max-nodes", type=int, default=40, help="oracle node cap")
    common.add_argument(
        "--max-count", type=int, default=10_000_000, help="oracle enumeration cap"
    )
    sub.add_parser("analyze", parents=[common], help="structural analysis")
    sub.add_parser("verify", parents=[common], help="analysis plus oracle comparison")
    export = sub.add_parser("export", parents=[common], help="write JSON and DOT files")
    export.add_argument(
        "--dot",
        action="append",
        choices=["power-graph", "quotient"],
        help="DOT targets (default: both)",
    )
    return parser


def _specs_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> list[str]:
    if bool(args.group) == bool(args.corpus):
        parser.error("exactly one of --group or --corpus is required")
    if args.group:
        return [args.group]
    lines = Path(args.corpus).read_text(encoding="utf-8").splitlines()
    specs = [ln.strip() for ln in lines if ln.strip() and not ln.strip().startswith("#")]
    if not specs:
        parser.error(f"corpus file {args.corpus} contains no specs")
    return specs


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, value in (("--max-nodes", args.max_nodes), ("--max-count", args.max_count)):
        if value < 1:
            parser.error(f"argument {flag}: must be at least 1, got {value}")
    caps = OracleCaps(max_nodes=args.max_nodes, max_count=args.max_count)
    handler = {"analyze": cmd_analyze, "verify": cmd_verify, "export": cmd_export}[args.mode]
    try:
        specs = _specs_from_args(parser, args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    worst = EXIT_OK
    texts: list[str] = []
    dicts: list[dict] = []
    for spec in specs:
        try:
            code, text, as_dict = handler(spec, args, caps)
        except (ValueError, OSError) as exc:  # SpecError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SPEC_ERROR
        except CapExceeded as exc:  # a RuntimeError, so it must come first
            print(f"unknown: {exc}", file=sys.stderr)
            return EXIT_UNKNOWN
        except RuntimeError as exc:  # InternalCheckError and oracle self-checks
            print(f"internal check failed: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        worst = max(worst, code)
        texts.append(text)
        dicts.append(as_dict)
    if args.mode == "export":
        # export writes its own files; stdout only names them
        sys.stdout.write("".join(texts))
        return worst
    if args.format == "json":
        payload = dicts[0] if len(dicts) == 1 else dicts
        output = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        output = "\n".join(texts) if len(texts) > 1 else texts[0]
    if args.out:
        try:
            Path(args.out).write_text(output, encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SPEC_ERROR
    else:
        sys.stdout.write(output)
    return worst


def main(argv: list[str] | None = None) -> int:
    return run(argv)

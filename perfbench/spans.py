"""Layer spans for the traced benchmark run, recorded from outside the package.

Each traced public function of ``pga`` is replaced, in the benchmark's own
process, by a wrapper that records a span (name, parent, operation, start,
end). The replacement happens wherever the function is bound: in its defining
module, in every ``pga`` module that imported it by name, and on the class for
the two ``to_weighted_graph`` methods. Calls that one layer makes into another,
and the recursion inside ``quotient_aut``, therefore nest as child spans.

A span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (layer module, function or Class.method) in the order they are reported
TRACED = (
    ("groups", "realize"),
    ("powergraph", "build_power_graph"),
    ("powergraph", "PowerGraph.to_weighted_graph"),
    ("quotient", "men_partition"),
    ("quotient", "build_quotient"),
    ("quotient", "classify_men_class"),
    ("quotient", "merge_equal_closed_neighborhoods"),
    ("quotient", "QuotientGraph.to_weighted_graph"),
    ("engine", "analyze"),
    ("engine", "verify"),
    ("engine", "aut_abelian"),
    ("engine", "aut_nilpotent"),
    ("engine", "aut_full"),
    ("engine", "quotient_aut"),
    ("oracle", "count_automorphisms"),
    ("oracle", "find_isomorphism"),
    ("oracle", "connected_components"),
    ("expr", "expr_normalize"),
    ("expr", "expr_order"),
    ("expr", "render_expr"),
    ("cli", "run"),
    ("cli", "report_to_json_dict"),
    ("cli", "power_graph_dot"),
    ("cli", "quotient_dot"),
)


def span_name(layer: str, target: str) -> str:
    return f"{layer}.{target.rsplit('.', 1)[-1]}"


SPAN_NAMES = tuple(span_name(layer, target) for layer, target in TRACED)

# per-layer metrics beyond <span>.calls and <span>.self_s: (name, unit)
EXTRA_METRICS = (
    ("powergraph.builds_per_op", "ratio"),
    ("oracle.find_isomorphism.hit_ratio", "ratio"),
    ("oracle.count_automorphisms.nodes", "count"),
    ("engine.failed", "count"),
    ("cli.bytes_out", "bytes"),
    ("trace.pass_s", "s"),
)


def per_layer_metric_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


class Tracer:
    """Span recorder for one pass at a time; ``reset`` starts the next pass."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self._paused = False
        self._counted_errors: tuple[type, ...] = ()
        self.reset()

    def reset(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.edges: Counter[tuple[str, str]] = Counter()
        self.spans: list[tuple[int, int | None, str, str, float, float]] = []
        self.iso_attempts = 0
        self.iso_found = 0
        self.counted_nodes = 0
        self.engine_failed = 0
        self._failed_seen: list[BaseException] = []
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0
        self._op = ""

    def begin_op(self, label: str) -> None:
        self._op = label

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own answer checks) record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def install(self) -> None:
        """Wrap every traced function that the installed ``pga`` still has."""
        from pga.errors import InternalCheckError
        from pga.oracle import CapExceeded

        self._counted_errors = (CapExceeded, InternalCheckError)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "pga" or name.startswith("pga."))]
        for layer, target in TRACED:
            name = span_name(layer, target)
            try:
                module = importlib.import_module(f"pga.{layer}")
            except ModuleNotFoundError:
                self.missing.append(name)
                continue
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(module, cls_name, None)
                original = getattr(cls, meth, None) if cls is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, target, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self
        engine_span = name.startswith("engine.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer._counted_errors as exc:
                if engine_span and not any(exc is e for e in tracer._failed_seen):
                    tracer._failed_seen.append(exc)
                    tracer.engine_failed += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                tracer.calls[name] += 1
                tracer.self_s[name] += elapsed - frame[2]
                if parent is not None:
                    parent[2] += elapsed
                tracer.edges[(parent[1] if parent else "op", name)] += 1
                tracer.spans.append(
                    (span_id, parent[0] if parent else None, tracer._op, name, start, end)
                )
            if name == "oracle.find_isomorphism":
                tracer.iso_attempts += 1
                tracer.iso_found += result is not None
            elif name == "oracle.count_automorphisms":
                tracer.counted_nodes += args[0].n
            return result

        return traced

    def pass_metrics(self, n_ops: int, bytes_out: int, pass_s: float) -> dict[str, float]:
        """Per-layer values of the pass just run (call ``reset`` before the next)."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["powergraph.builds_per_op"] = self.calls["powergraph.build_power_graph"] / n_ops
        out["oracle.find_isomorphism.hit_ratio"] = (
            self.iso_found / self.iso_attempts if self.iso_attempts else 0.0
        )
        out["oracle.count_automorphisms.nodes"] = self.counted_nodes
        out["engine.failed"] = self.engine_failed
        out["cli.bytes_out"] = bytes_out
        out["trace.pass_s"] = pass_s
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "parent": p, "op": op, "name": name, "start": s, "end": e}
            for i, p, op, name, s, e in sorted(self.spans)
        ]

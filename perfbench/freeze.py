"""Regenerate reference.json: the exact order of every spec the workloads use.

    PYTHONPATH=src python3 perfbench/freeze.py

Each order comes from the structural engine and, where the oracle reaches, is
confirmed by it with raised caps: on the full power graph ("oracle-full"), or
on the weighted quotient times the class factorials ("oracle-quotient").
Orders the oracle cannot reach in reasonable time are "closed-form-only".
Where the engine gives no answer (CapExceeded), the oracle's order is used.
The file also records each workload's output digest at the time of freezing,
so that a later commit can see whether its outputs changed.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

from pga import (
    CapExceeded, OracleCaps, analyze, build_power_graph, build_quotient,
    count_automorphisms, men_partition, realize,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import worker  # noqa: E402

FULL_NODES = 128       # count the whole power graph up to this many vertices
QUOTIENT_NODES = 200   # else count the quotient up to this many nodes
CAPS = OracleCaps(max_nodes=QUOTIENT_NODES, max_count=10**400)


def confirm(spec: str) -> dict:
    start = time.perf_counter()
    try:
        engine_order = analyze(spec).order
    except CapExceeded:
        engine_order = None
    pg = build_power_graph(realize(spec))
    if pg.n_vertices <= FULL_NODES:
        oracle_order, how = count_automorphisms(pg.to_weighted_graph(), CAPS), "oracle-full"
    else:
        mp = men_partition(pg)
        q = build_quotient(pg, mp)
        if q.n_nodes <= QUOTIENT_NODES:
            factorials = math.prod(math.factorial(w) for w in mp.weights)
            oracle_order = count_automorphisms(q.to_weighted_graph(), CAPS) * factorials
            how = "oracle-quotient"
        else:
            oracle_order, how = None, "closed-form-only"
    if engine_order is not None and oracle_order is not None and engine_order != oracle_order:
        raise SystemExit(f"{spec}: engine order {engine_order} != oracle order {oracle_order}")
    order = oracle_order if oracle_order is not None else engine_order
    if order is None:
        raise SystemExit(f"{spec}: neither the engine nor the oracle gives an order")
    print(f"{spec}: {how}, {time.perf_counter() - start:.2f} s", file=sys.stderr)
    return {"order": str(order), "confirmed": how}


def main() -> None:
    specs = list(dict.fromkeys(s for specs in worker.WORKLOADS.values() for s in specs))
    reference = {"orders": {spec: confirm(spec) for spec in specs}, "digests": {}}
    orders = {spec: entry["order"] for spec, entry in reference["orders"].items()}
    for name, specs in worker.WORKLOADS.items():
        run = worker.Run(name, specs, orders, trace=False)
        run.run(seed=0, seconds=0)
        if run.problems:
            raise SystemExit(f"{name}: {run.problems}")
        reference["digests"][name] = run.digest()
    path = Path(worker.REFERENCE)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()

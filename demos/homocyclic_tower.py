"""Homocyclic groups: nested wreath towers.

Z(p^m)^n has r_t = (p^(tn) - p^((t-1)n)) / (p^t - p^(t-1)) classes of elements
of order p^t. The power graph splits into r_1 isomorphic components, each of
which loses its dominating node and splits again into k_2 = r_2/r_1 smaller
isomorphic pieces, and so on: the quotient automorphism group is a tower of
wreath products (...(S_k_m wr ...) wr S_k_2) wr S_k_1.

The generic engine rediscovers the tower with no formula in hand: it splits
components, certifies them pairwise isomorphic with the oracle, wreathes by
the multiplicity, strips the nodes every automorphism fixes, and recurses.
"""

from pga import (
    analyze,
    build_power_graph,
    build_quotient,
    count_automorphisms,
    expr_order,
    men_partition,
    realize,
    render_expr,
)

for spec in ("Z(2)^2", "Z(3)^2", "Z(2)^3", "Z(4)^2", "Z(8)^2", "Z(9)^2", "Z(4)^3"):
    report = analyze(spec)
    print(f"{spec}:")
    print(f"  quotient part: {render_expr(report.quotient_expr)}")
    print(f"  full expression: {report.expression_str}")
    print(f"  order: {report.order}")

# the oracle can still count the 21-node quotient of Z(8)^2 directly
g = realize("Z(8)^2")
pg = build_power_graph(g)
q = build_quotient(pg, men_partition(pg))
report = analyze("Z(8)^2")
oracle = count_automorphisms(q)
print(
    f"\nZ(8)^2 quotient on {q.n_nodes} nodes: tower order "
    f"{expr_order(report.quotient_expr)}, oracle recount {oracle}"
)

"""Walk through the full pipeline on the quaternion group Q8.

Build the power graph, collapse it to its weighted quotient, and watch the
automorphism group fall out of the structure: the unique central involution
is an apex node that every automorphism fixes, the three cyclic subgroups of
order 4 are interchangeable, and each generator pair can be swapped freely.
"""

from pga import (
    analyze,
    build_power_graph,
    build_quotient,
    men_partition,
    realize,
    render_expr,
)

g = realize("Q8")
print(f"group {g.description}: order {g.size}, elements {', '.join(g.labels)}")

pg = build_power_graph(g)
print(f"\npower graph: {pg.n_vertices} vertices, {pg.edge_count} edges")
for v in range(pg.n_vertices):
    nbrs = ", ".join(g.labels[u + 1] for u in pg.neighbors(v))
    print(f"  {g.labels[v + 1]:>2} -- {nbrs}")

# the report names how each class arises in the group
report = analyze("Q8")
print("\nclasses with one shared closed neighborhood each:")
for c in report.classes:
    print(f"  {{{', '.join(c.members)}}}  ({c.kind})")

q = build_quotient(pg, men_partition(pg))
print(f"\nquotient: {q.n_nodes} nodes, {q.edge_count} edges")
print("the weight-1 node {-1} is adjacent to all three weight-2 nodes,")
print("which are pairwise nonadjacent: a star whose leaves can be permuted.")

print(f"\nquotient automorphisms: {render_expr(report.quotient_expr)}")
print(f"full expression:        {report.expression_str}")
print(f"exact order:            {report.order}")
print("\n(the three S2 factors swap i/-i, j/-j, k/-k; the S3 permutes the axes)")

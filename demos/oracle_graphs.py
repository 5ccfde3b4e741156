"""Tour of the weighted-graph oracle on small hand-built graphs.

The oracle is the package's ground truth: counting, enumeration, isomorphism
testing with witnesses, and vertex orbits, all by explicit search with
partition-refinement pruning. Weights matter: an automorphism must preserve
them, so a weighted K2 with distinct weights is rigid.
"""

from pga import (
    WeightedGraph,
    count_automorphisms,
    enumerate_automorphisms,
    find_isomorphism,
    vertex_orbits,
)

triangle = WeightedGraph(3, [(0, 1), (1, 2), (0, 2)])
print(f"triangle: {count_automorphisms(triangle)} automorphisms")
for perm in enumerate_automorphisms(triangle):
    print(f"  {perm}")

isolated = WeightedGraph(7)
print(f"\n7 isolated nodes: {count_automorphisms(isolated)} automorphisms (= 7!)")

rigid = WeightedGraph(2, [(0, 1)], weights=(1, 2))
print(f"\nK2 with weights (1,2): {enumerate_automorphisms(rigid)} (weights block the swap)")

path_a = WeightedGraph(4, [(0, 1), (1, 2), (2, 3)], weights=(1, 2, 2, 1))
path_b = WeightedGraph(4, [(3, 2), (2, 1), (1, 0)], weights=(1, 2, 2, 1))
witness = find_isomorphism(path_a, path_b)
print(f"\nweighted paths isomorphic: {witness is not None}, witness {witness}")

star = WeightedGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
print(f"\nstar K(1,4) orbits: {vertex_orbits(star)}  (center fixed, leaves one orbit)")
print(f"star automorphisms: {count_automorphisms(star)} (= 4!)")

"""Shared fixtures: the test corpus, cached pipelines, and naive reference oracles."""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from pga import (
    AutReport,
    FiniteGroup,
    Pipeline,
    WeightedGraph,
    analyze,
    pipeline,
    realize,
)

CORPUS = (
    "Z(6)", "Z(10)", "Z(12)", "Z(15)", "Z(18)", "Z(20)",
    "Z(4)", "Z(8)", "Z(9)",
    "Z(2)^2", "Z(3)^2", "Z(2)^3", "Z(4)^2",
    "Sym(3)", "Dih(4)", "Q8", "Ab[2,4]", "Ab[2,2,3]", "P(Q8,Z(3))",
)

# structural orders, frozen from the closed forms and confirmed by the oracle
EXPECTED_ORDER = {
    "Z(6)": 4,
    "Z(10)": 576,
    "Z(12)": 192,
    "Z(15)": 1_935_360,
    "Z(18)": 2_073_600,
    "Z(20)": 46_448_640,
    "Z(4)": 6,
    "Z(8)": 5040,
    "Z(9)": 40320,
    "Z(2)^2": 6,
    "Z(3)^2": 384,
    "Z(2)^3": 5040,
    "Z(4)^2": 3072,
    "Sym(3)": 12,
    "Dih(4)": 144,
    "Q8": 48,
    "Ab[2,4]": 16,
    "Ab[2,2,3]": 96,
    "P(Q8,Z(3))": 2_654_208,
}

P_GROUP_SPECS = ("Z(4)", "Z(8)", "Z(9)", "Z(2)^2", "Z(3)^2", "Z(2)^3", "Z(4)^2", "Q8", "Dih(4)")


@lru_cache(maxsize=None)
def bundle(spec: str) -> Pipeline:
    return pipeline(realize(spec))


@lru_cache(maxsize=None)
def report(spec: str) -> AutReport:
    return analyze(spec)


def naive_count(wg: WeightedGraph) -> int:
    """Reference count by filtering all node permutations; only for tiny graphs."""
    total = 0
    for perm in permutations(range(wg.n)):
        if any(wg.weights[perm[v]] != wg.weights[v] for v in range(wg.n)):
            continue
        if all(
            wg.has_edge(u, v) == wg.has_edge(perm[u], perm[v])
            for u in range(wg.n)
            for v in range(u + 1, wg.n)
        ):
            total += 1
    return total


def maximal_cyclic_subgroups(g: FiniteGroup) -> list[frozenset[int]]:
    subs = {g.cyclic_subgroup(x) for x in range(g.size)}
    return [s for s in subs if not any(s < t for t in subs)]

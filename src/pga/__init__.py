"""Automorphism groups of power graphs of finite groups.

The power graph of a finite group has the nontrivial elements as vertices,
two of them adjacent when one is a power of the other. This package computes
the full automorphism group of that graph as a structural expression
(symmetric groups, direct products, wreath products) with exact integer
order, and double-checks every structural claim against a self-contained
brute-force search oracle for vertex-weighted graphs.
"""

from .engine import (
    CYCLIC_INTERVAL,
    GENERATOR_CLASS,
    AutReport,
    ClassSummary,
    Pipeline,
    Verification,
    analyze,
    pipeline,
    quotient_aut,
    verify,
)
from .errors import InternalCheckError, SpecError
from .expr import (
    GroupExpr,
    Opaque,
    Product,
    Sym,
    Trivial,
    Wreath,
    decimal,
    expr_normalize,
    expr_order,
    parse_expr,
    render_expr,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    GroupSpec,
    direct_product,
    divisors,
    factorize,
    is_prime_power,
    parse_group_spec,
    realize,
    render_group_spec,
    spec_order,
    totient,
)
from .oracle import (
    CapExceeded,
    OracleCaps,
    WeightedGraph,
    connected_components,
    count_automorphisms,
    enumerate_automorphisms,
    find_isomorphism,
    stable_colors,
    vertex_orbits,
)
from .powergraph import PowerGraph, build_power_graph
from .quotient import MenPartition, QuotientGraph, build_quotient, men_partition

__all__ = [
    "AutReport",
    "CYCLIC_INTERVAL",
    "CapExceeded",
    "ClassSummary",
    "DEFAULT_MAX_ORDER",
    "FiniteGroup",
    "GENERATOR_CLASS",
    "GroupExpr",
    "GroupSpec",
    "InternalCheckError",
    "MenPartition",
    "Opaque",
    "OracleCaps",
    "Pipeline",
    "PowerGraph",
    "Product",
    "QuotientGraph",
    "SpecError",
    "Sym",
    "Trivial",
    "Verification",
    "WeightedGraph",
    "Wreath",
    "analyze",
    "build_power_graph",
    "build_quotient",
    "connected_components",
    "count_automorphisms",
    "decimal",
    "direct_product",
    "divisors",
    "enumerate_automorphisms",
    "expr_normalize",
    "expr_order",
    "factorize",
    "find_isomorphism",
    "is_prime_power",
    "men_partition",
    "parse_expr",
    "parse_group_spec",
    "pipeline",
    "quotient_aut",
    "realize",
    "render_expr",
    "render_group_spec",
    "spec_order",
    "stable_colors",
    "totient",
    "verify",
    "vertex_orbits",
]

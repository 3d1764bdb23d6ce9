"""Executable nonstandard enlargements of infinite graphs.

Distances that diverge along a sequence of nodes become infinite hypernatural
values; walks that must cross infinitely many branches get transfinite
lengths below w**2.  The package keeps every verdict certified: an answer is
an exact value, a bracketing bound, or an explicit refusal, never a guess.
"""

from .ordinal import (OMEGA, ZERO, Ordinal, compare, natural_sum,
                      parse_ordinal, render_ordinal)
from .kernel import (EvidenceError, IndeterminateError, Trivalent, TruthSet,
                     cofinite_set, finite_set, in_filter, intersect,
                     parity_split, verdict)
from .sequences import (Affine, Constant, Explicit, Floor, IndexSequence,
                        Parity, Patched, validate_declaration)
from .graphs import (Exhausted, GraphInstance, NodeTerm, NotAMemberError,
                     make_family)
from .transfinite import (OneGraph, boundary_one_nodes, is_boundary,
                          make_one_graph, promote, wdistance,
                          wdistance_witness)
from .ultrapower import (Hyperbranch, Hypernode, Hyperordinal, HyperOrder,
                         NotAHyperbranchError, compare_hyperordinals,
                         hyperdistance, hypernode_eq, hyperordinal_from_syms,
                         is_standard, make_hyperbranch, make_hypernode,
                         node_at)
from .galaxy import (ChainConstructionError, GalaxyChain, GalaxyRelation,
                     GalaxyVerdict, InapplicableFamilyError, OrderReport,
                     anchor_hypernode, boundary_ray_witness,
                     build_galaxy_chain, closer_than, in_principal_galaxy,
                     konig_ray_witness, limitedly_distant,
                     verify_partial_order)
from .literals import (LiteralError, graph_label, parse_graph,
                       parse_hypernode, parse_node, parse_term)
from .checks import SUITES, CheckResult, SuiteReport, run_check_suite

__all__ = [
    # ordinals
    "OMEGA", "ZERO", "Ordinal", "compare", "natural_sum",
    "parse_ordinal", "render_ordinal",
    # three-valued kernel
    "EvidenceError", "IndeterminateError", "Trivalent", "TruthSet",
    "cofinite_set", "finite_set", "in_filter", "intersect", "parity_split",
    "verdict",
    # index sequences
    "Affine", "Constant", "Explicit", "Floor", "IndexSequence", "Parity", "Patched",
    "validate_declaration",
    # graphs of both ranks
    "Exhausted", "GraphInstance", "NodeTerm", "NotAMemberError",
    "make_family", "OneGraph", "boundary_one_nodes", "is_boundary",
    "make_one_graph", "promote", "wdistance", "wdistance_witness",
    # term-presented limit points
    "Hyperbranch", "Hypernode", "Hyperordinal", "HyperOrder",
    "NotAHyperbranchError", "compare_hyperordinals", "hyperdistance",
    "hypernode_eq", "hyperordinal_from_syms", "is_standard",
    "make_hyperbranch", "make_hypernode", "node_at",
    # galaxies
    "ChainConstructionError", "GalaxyChain", "GalaxyRelation",
    "GalaxyVerdict", "InapplicableFamilyError", "OrderReport",
    "anchor_hypernode", "boundary_ray_witness", "build_galaxy_chain",
    "closer_than", "in_principal_galaxy", "konig_ray_witness",
    "limitedly_distant", "verify_partial_order",
    # literals and suites
    "LiteralError", "graph_label", "parse_graph", "parse_hypernode",
    "parse_node", "parse_term", "SUITES", "CheckResult", "SuiteReport",
    "run_check_suite",
]

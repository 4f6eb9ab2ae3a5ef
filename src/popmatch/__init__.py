"""Fully popular matchings: solver, certificates, and cross-validation oracle."""

from .instance import (
    Instance,
    InstanceError,
    Matching,
    Posts,
    compute_posts,
    format_matching,
    parse_instance,
    parse_matching,
    run_election,
    serialize_instance,
    vote,
)
from .engine import (
    blocking_edges,
    stable_matching,
    stable_vertices,
)
from .popularity import (
    PopularityVerdict,
    check_a_popular,
    check_witness,
    edge_weight,
    verify_popular,
)
from .legality import (
    EdgeClassification,
    legal_edge_set,
    popular_edges,
    valid_edges,
)
from .mirror import (
    build_mirror,
    classify_partition,
    embed_stable,
    mirror_blocking_edges,
    project,
    realize_witnessed,
)
from .solver import SolveReport, SolverDefect, solve
from .oracle import (
    OracleCapError,
    OracleReport,
    enumerate_matchings,
    ground_truth,
    witness_search,
)
from .generator import generate

__all__ = [
    "EdgeClassification",
    "Instance",
    "InstanceError",
    "Matching",
    "OracleCapError",
    "OracleReport",
    "PopularityVerdict",
    "Posts",
    "SolveReport",
    "SolverDefect",
    "blocking_edges",
    "build_mirror",
    "check_a_popular",
    "check_witness",
    "classify_partition",
    "compute_posts",
    "edge_weight",
    "embed_stable",
    "enumerate_matchings",
    "format_matching",
    "generate",
    "ground_truth",
    "legal_edge_set",
    "mirror_blocking_edges",
    "parse_instance",
    "parse_matching",
    "popular_edges",
    "project",
    "realize_witnessed",
    "run_election",
    "serialize_instance",
    "solve",
    "stable_matching",
    "stable_vertices",
    "valid_edges",
    "verify_popular",
    "vote",
    "witness_search",
]

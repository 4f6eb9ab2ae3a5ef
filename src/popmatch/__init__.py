"""Fully popular matchings: solver, certificates, and cross-validation oracle."""

from .instance import (
    Instance,
    InstanceError,
    Matching,
    compute_posts,
    format_matching,
    parse_instance,
    parse_matching,
    run_election,
)
from .popularity import (
    PopularityVerdict,
    check_a_popular,
    check_witness,
    verify_popular,
)
from .legality import EdgeClassification, legal_edge_set
from .solver import SolveReport, SolverDefect, solve
from .oracle import OracleCapError, OracleReport, ground_truth
from .generator import generate

__all__ = [
    "EdgeClassification",
    "Instance",
    "InstanceError",
    "Matching",
    "OracleCapError",
    "OracleReport",
    "PopularityVerdict",
    "SolveReport",
    "SolverDefect",
    "check_a_popular",
    "check_witness",
    "compute_posts",
    "format_matching",
    "generate",
    "ground_truth",
    "legal_edge_set",
    "parse_instance",
    "parse_matching",
    "run_election",
    "solve",
    "verify_popular",
]

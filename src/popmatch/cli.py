"""Command-line surface: solve, verify, classify edges, oracle checks, generation.

Exit codes: 0 success, 1 input, I/O or usage error, 2 no fully popular
matching exists (``solve``), 3 verification failed (``verify``) or the
oracle cross-check found a difference (``oracle --cross-check``).  The
parser is built once per process and reused by every ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .generator import generate
from .instance import (
    Instance,
    InstanceError,
    Matching,
    compute_posts,
    parse_instance,
    parse_matching,
)
from .legality import component_members, legal_edge_set
from .mirror import MirrorGraph, format_mirror
from .oracle import ground_truth
from .popularity import check_a_popular, verify_popular
from .solver import _solve, solve

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONE = 2
EXIT_FAILED = 3


def _load_instance(path: str) -> Instance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def _edge_keys(inst: Instance, flags: np.ndarray) -> list[tuple[int, int]]:
    """The sorted ``(agent, job)`` keys of a classification's flagged edge
    ids, ``(u, u)`` for the self-loop m + u."""
    lay, m = inst.layout, inst.m
    edges = np.flatnonzero(flags[:m])
    loops = np.flatnonzero(flags[m:]).tolist()
    jobs = (inst.num_agents + lay.job_of[edges]).tolist()
    return sorted([*zip(lay.agent_of[edges].tolist(), jobs), *zip(loops, loops)])


def _matching_json(inst: Instance, mat: Matching) -> list[list[str]]:
    return [[inst.names[a], inst.names[b]] for a, b in mat.pairs(inst)]


def _witness_json(inst: Instance, witness) -> dict[str, int]:
    return {inst.names[u]: witness[u] for u in range(inst.n)}


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    report, mh = _solve(inst, args.validate)
    if args.as_json:
        payload: dict = {"outcome": report.outcome}
        if report.outcome == "found":
            payload["matching"] = _matching_json(inst, report.matching)
            payload["witness"] = _witness_json(inst, report.witness)
            payload["size"] = report.size
        else:
            payload["vertex"] = inst.names[report.infeasible_vertex]
        if args.trace:
            payload["trace"] = [
                {
                    "trigger": inst.names[row.trigger],
                    "component": [inst.names[u] for u in row.component],
                    "edges_forbidden": row.edges_forbidden,
                }
                for row in report.trace
            ]
        print(json.dumps(payload))
    elif report.outcome == "found":
        print(f"found: size {report.size}")
        for a, b in report.matching.pairs(inst):
            print(f"  {inst.names[a]} {inst.names[b]}")
        print(
            "witness: "
            + " ".join(
                f"{inst.names[u]}={report.witness[u]:+d}"
                for u in range(inst.n)
            )
        )
        if args.trace:
            for i, row in enumerate(report.trace, 1):
                print(
                    f"iteration {i}: trigger "
                    f"{inst.names[row.trigger]}, marked "
                    f"{len(row.component)} vertices, forbade "
                    f"{row.edges_forbidden} edges"
                )
    else:
        vertex = inst.names[report.infeasible_vertex]
        # No mirror run means the post-graph test decided.
        reason = (
            f"no agent-popular matching: agent {vertex}'s post component overflows"
            if mh is None
            else f"vertex {vertex} ran out of options"
        )
        print(f"no fully popular matching ({reason})")
    return EXIT_OK if report.outcome == "found" else EXIT_NONE


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    mat = parse_matching(Path(args.matching).read_text(encoding="utf-8"), inst)
    results: dict[str, bool] = {}
    if args.mode in ("popular", "fully"):
        results["popular"] = verify_popular(inst, mat).popular
    if args.mode in ("a-popular", "fully"):
        results["a-popular"] = check_a_popular(
            inst, compute_posts(inst), mat
        )
    ok = all(results.values())
    if args.as_json:
        print(json.dumps({"ok": ok, "checks": results}))
    else:
        for name, value in results.items():
            print(f"{name}: {'yes' if value else 'no'}")
    return EXIT_OK if ok else EXIT_FAILED


def _cmd_edges(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    classification = legal_edge_set(inst)
    if args.dump_mirror:
        mirror = MirrorGraph(inst, classification.legal_flags)
        print(format_mirror(mirror), end="")
        return EXIT_OK
    keys = _edge_keys(inst, getattr(classification, f"{args.kind}_flags"))
    if args.as_json:
        print(
            json.dumps(
                {
                    args.kind: [[inst.names[u], inst.names[v]] for u, v in keys],
                    "components": [
                        [inst.names[u] for u in comp]
                        for comp in component_members(classification.component_id)
                    ],
                }
            )
        )
    else:
        for u, v in keys:
            if u == v:
                print(f"{inst.names[u]} (self)")
            else:
                print(f"{inst.names[u]} {inst.names[v]}")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    report = ground_truth(inst)
    payload = {
        "matchings": report.num_matchings,
        "popular": len(report.popular),
        "a_popular": len(report.a_popular),
        "fully_popular": len(report.fully_popular),
        "max_fully_popular_size": report.max_fully_popular_size,
        "min_popular_size": report.min_popular_size,
        "max_popular_size": report.max_popular_size,
    }
    diffs: list[str] = []
    if args.cross_check:
        solved = solve(inst, validate=True)
        oracle_size = report.max_fully_popular_size
        if (solved.outcome == "found") != (oracle_size is not None):
            diffs.append("existence verdict differs")
        elif solved.outcome == "found" and solved.size != oracle_size:
            diffs.append(
                f"solver size {solved.size} != oracle size {oracle_size}"
            )
        fast = _edge_keys(inst, legal_edge_set(inst).popular_flags)
        exact = report.popular_edges | frozenset(
            (u, u) for u in report.popular_loops
        )
        if set(fast) != exact:
            diffs.append("popular edge sets differ")
        payload["diffs"] = diffs
    if args.as_json:
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_OK if not diffs else EXIT_FAILED


def _cmd_generate(args: argparse.Namespace) -> int:
    text = generate(args.agents, args.jobs, args.density, args.seed)
    if args.output:
        Path(args.output).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process and shared by every call;
    callers read it and must not change it."""
    parser = argparse.ArgumentParser(
        prog="popmatch",
        description="Fully popular matchings: solve, verify, classify, cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("instance", help="instance file")
        p.add_argument("--json", action="store_true", dest="as_json")
        return p

    p = add_command("solve", _cmd_solve, "find a max-size fully popular matching")
    p.add_argument("--validate", action="store_true")
    p.add_argument("--trace", action="store_true")

    p = add_command("verify", _cmd_verify, "check a matching file")
    p.add_argument("--matching", required=True)
    p.add_argument(
        "--mode", choices=("popular", "a-popular", "fully"), default="fully"
    )

    p = add_command("edges", _cmd_edges, "classify edges and self-loops")
    p.add_argument(
        "--kind", choices=("valid", "popular", "legal"), default="legal"
    )
    p.add_argument("--dump-mirror", action="store_true")

    p = add_command(
        "oracle", _cmd_oracle, "exhaustive ground truth (small instances)"
    )
    p.add_argument("--cross-check", action="store_true")

    p = sub.add_parser("generate", help="emit a seeded random instance")
    p.set_defaults(handler=_cmd_generate)
    p.add_argument("--agents", type=int, default=4)
    p.add_argument("--jobs", type=int, default=4)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")

    return parser


def main(argv=None) -> int:
    """Parse ``argv`` and run its subcommand; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed help (code 0) or a usage error (code 2).
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.handler(args)
    except (InstanceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

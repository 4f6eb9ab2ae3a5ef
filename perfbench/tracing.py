"""Span tracing around the public functions of each popmatch layer.

The tracer replaces each wrapped function by name in every ``popmatch``
module namespace that holds it, and three ``ProposalSystem`` methods at class
level, so calls between modules are seen without touching ``src/``.  Each
call becomes a span (name, start, end, parent span, operation id, counter
info) kept in memory; ``layer_metrics`` turns the spans of the traced
operations into per-operation means.  A wrapped function that a later
version no longer has is listed in ``absent`` and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _len(x):
    return len(x) if hasattr(x, "__len__") else None


def _stable_pairs_pool(args, kwargs, result):
    candidates = args[1] if len(args) > 1 else kwargs.get("candidates")
    return args[0].m if candidates is None else _len(candidates)


def _classification(args, kwargs, result):
    return (
        len(result.legal),
        len(result.components),
        max((len(c) for c in result.components), default=0),
    )


def _system_run(args, kwargs, result):
    return (
        result.proposals,
        result.rejections,
        getattr(args[0], "total_list_length", None),
    )


# (module, attribute path, span name, counter hook or None)
TARGETS = (
    ("instance", "parse_instance", "instance.parse", None),
    ("instance", "parse_matching", "instance.parse_matching", None),
    ("instance", "compute_posts", "instance.posts", None),
    ("engine", "build_system", "engine.build_system", None),
    ("engine", "stable_matching", "engine.stable_matching", None),
    ("engine", "stable_vertices", "legality.stable_vertices", None),
    ("engine", "is_stable_pair", "legality.exact_test", lambda a, k, r: bool(r)),
    ("engine", "resume_after_forbid", "solver.resume",
     lambda a, k, r: _len(a[2] if len(a) > 2 else k.get("newly_forbidden"))),
    ("engine", "ProposalSystem.run", "engine.run", _system_run),
    ("engine", "ProposalSystem.probe_truncation", "engine.probe", None),
    ("engine", "ProposalSystem.forbid", "engine.forbid",
     lambda a, k, r: _len(a[1] if len(a) > 1 else k.get("edges"))),
    ("legality", "legal_edge_set", "legality.classify", _classification),
    ("legality", "popular_edges", "legality.popular_edges", None),
    ("legality", "valid_edges", "legality.valid_edges", None),
    ("legality", "stable_pairs", "legality.stable_pairs", _stable_pairs_pool),
    ("legality", "dominant_pairs", "legality.dominant_pairs", None),
    ("legality", "two_level_instance", "legality.two_level", None),
    ("mirror", "build_mirror", "mirror.build",
     lambda a, k, r: (r.num_edges, len(r.forbidden))),
    ("mirror", "mirror_system", "mirror.system", None),
    ("mirror", "project", "mirror.project", None),
    ("mirror", "classify_partition", "mirror.partition", None),
    ("mirror", "realize_witnessed", "mirror.realize", None),
    ("mirror", "mirror_blocking_edges", "mirror.blocking_edges", None),
    ("solver", "solve", "solver.solve", lambda a, k, r: r.iterations),
    ("solver", "extract_witness", "solver.extract_witness", None),
    ("popularity", "verify_popular", "popularity.verify",
     lambda a, k, r: bool(r.popular)),
    ("popularity", "check_witness", "popularity.check_witness", None),
    ("popularity", "check_a_popular", "popularity.check_a_popular", None),
    ("cli", "main", "cli.main", None),
    ("generator", "generate", "generator.generate", None),
    ("oracle", "ground_truth", "oracle.ground_truth", None),
)

# Callees that ``solve(validate=True)`` adds outside witness extraction.
VALIDATION = (
    "popularity.check_a_popular",
    "popularity.check_witness",
    "mirror.realize",
    "mirror.blocking_edges",
)

# Every per-layer metric: (name, unit, better).  BENCHMARK.json lists the same.
LAYER_METRICS = (
    ("instance.parse_s", "s", "lower"),
    ("instance.parse_matching_s", "s", "lower"),
    ("instance.posts_calls", "count", "lower"),
    ("engine.build_system_calls", "count", "lower"),
    ("engine.build_system_s", "s", "lower"),
    ("engine.stable_matching_s", "s", "lower"),
    ("engine.runs", "count", "lower"),
    ("engine.run_s", "s", "lower"),
    ("engine.probes", "count", "lower"),
    ("engine.probe_s", "s", "lower"),
    ("engine.probe_mean_us", "us", "lower"),
    ("engine.proposals", "count", "lower"),
    ("engine.rejections", "count", "lower"),
    ("engine.proposal_ratio", "ratio", "lower"),
    ("engine.forbid_calls", "count", "lower"),
    ("engine.edges_forbidden", "count", "lower"),
    ("legality.classify_s", "s", "lower"),
    ("legality.self_s", "s", "lower"),
    ("legality.stable_pairs_s", "s", "lower"),
    ("legality.dominant_pairs_s", "s", "lower"),
    ("legality.two_level_s", "s", "lower"),
    ("legality.stable_vertices_s", "s", "lower"),
    ("legality.exact_tests", "count", "lower"),
    ("legality.exact_hit_ratio", "ratio", "higher"),
    ("legality.window_pass_ratio", "ratio", "lower"),
    ("legality.legal_edges", "count", "lower"),
    ("legality.components", "count", "higher"),
    ("legality.largest_component", "count", "lower"),
    ("mirror.build_s", "s", "lower"),
    ("mirror.edges", "count", "lower"),
    ("mirror.forbidden_edges", "count", "lower"),
    ("mirror.project_s", "s", "lower"),
    ("mirror.partition_s", "s", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.self_s", "s", "lower"),
    ("solver.first_run_s", "s", "lower"),
    ("solver.loop_s", "s", "lower"),
    ("solver.extract_witness_s", "s", "lower"),
    ("solver.validate_s", "s", "lower"),
    ("solver.rounds", "count", "lower"),
    ("solver.edges_forbidden", "count", "lower"),
    ("popularity.verify_s", "s", "lower"),
    ("popularity.check_witness_s", "s", "lower"),
    ("popularity.check_a_popular_s", "s", "lower"),
    ("popularity.defeated", "count", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("generator.generate_s", "s", "lower"),
    ("oracle.ground_truth_s", "s", "lower"),
    ("trace.op_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Metric: (span name, "self" | "total" | "count").
_FROM_SPANS = {
    "instance.parse_s": ("instance.parse", "self"),
    "instance.parse_matching_s": ("instance.parse_matching", "self"),
    "instance.posts_calls": ("instance.posts", "count"),
    "engine.build_system_calls": ("engine.build_system", "count"),
    "engine.build_system_s": ("engine.build_system", "self"),
    "engine.stable_matching_s": ("engine.stable_matching", "self"),
    "engine.runs": ("engine.run", "count"),
    "engine.run_s": ("engine.run", "self"),
    "engine.probes": ("engine.probe", "count"),
    "engine.probe_s": ("engine.probe", "self"),
    "engine.forbid_calls": ("engine.forbid", "count"),
    "legality.classify_s": ("legality.classify", "total"),
    "legality.stable_pairs_s": ("legality.stable_pairs", "self"),
    "legality.dominant_pairs_s": ("legality.dominant_pairs", "self"),
    "legality.two_level_s": ("legality.two_level", "self"),
    "legality.stable_vertices_s": ("legality.stable_vertices", "self"),
    "legality.exact_tests": ("legality.exact_test", "count"),
    "mirror.build_s": ("mirror.build", "self"),
    "mirror.project_s": ("mirror.project", "self"),
    "mirror.partition_s": ("mirror.partition", "self"),
    "solver.solve_s": ("solver.solve", "total"),
    "solver.self_s": ("solver.solve", "self"),
    "solver.loop_s": ("solver.resume", "total"),
    "solver.extract_witness_s": ("solver.extract_witness", "total"),
    "popularity.verify_s": ("popularity.verify", "self"),
    "popularity.check_witness_s": ("popularity.check_witness", "self"),
    "popularity.check_a_popular_s": ("popularity.check_a_popular", "self"),
    "cli.main_s": ("cli.main", "total"),
    "cli.self_s": ("cli.main", "self"),
}

# Set-up metric: span, averaged per set-up rather than per operation.
_SETUP = {
    "generator.generate_s": "generator.generate",
    "oracle.ground_truth_s": "oracle.ground_truth",
}


class Tracer:
    """Installs span wrappers; records spans only while ``op`` is not None."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, op, None]
            if hook is not None:
                try:
                    spans[idx][5] = hook(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    pass
            return result

        return wrapper

    def install(self) -> None:
        for module_name, path, name, hook in TARGETS:
            try:
                module = importlib.import_module(f"popmatch.{module_name}")
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, name, hook)
            if owner_name:
                self._set(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "popmatch" and not mod_name.startswith("popmatch."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, op, info in self.spans:
                out.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "op": op, "info": info}
                ) + "\n")


def layer_metrics(spans, ops, setup_ops) -> dict[str, float]:
    """Per-operation means over the spans of ``ops``; set-up spans per set-up.

    Self time is a span's duration minus the durations of its direct child
    spans.  Ratios whose denominator is 0 read 0.
    """
    ops = set(ops)
    setup_ops = set(setup_ops)
    child = defaultdict(float)
    for name, start, end, parent, op, info in spans:
        if parent >= 0:
            child[parent] += end - start
    self_t = defaultdict(float)
    total_t = defaultdict(float)
    count = defaultdict(int)
    info_of = defaultdict(list)
    setup_t = defaultdict(float)
    first_run = validate = 0.0
    mirror_runs: dict = {}
    for idx, (name, start, end, parent, op, info) in enumerate(spans):
        dur = end - start
        if op in setup_ops:
            setup_t[name] += dur
            continue
        if op not in ops:
            continue
        self_t[name] += dur - child[idx]
        total_t[name] += dur
        count[name] += 1
        if info is not None:
            info_of[name].append(info)
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "engine.run" and parent_name in ("solver.solve", "solver.resume"):
            if parent_name == "solver.solve":
                first_run += dur
            if info is not None:
                mirror_runs[op] = info  # the last run of the mirror system
        if name in VALIDATION and parent_name == "solver.solve":
            validate += dur

    n = max(len(ops), 1)
    kinds = {"self": self_t, "total": total_t, "count": count}
    out = {}
    for metric, (span, kind) in _FROM_SPANS.items():
        out[metric] = kinds[kind][span] / n
    for metric, span in _SETUP.items():
        out[metric] = setup_t[span] / max(len(setup_ops), 1)

    def ratio(num, den):
        return num / den if den else 0.0

    out["engine.probe_mean_us"] = 1e6 * ratio(
        self_t["engine.probe"], count["engine.probe"]
    )
    proposals = sum(i[0] for i in mirror_runs.values())
    rejections = sum(i[1] for i in mirror_runs.values())
    lengths = sum(i[2] or 0 for i in mirror_runs.values())
    out["engine.proposals"] = proposals / n
    out["engine.rejections"] = rejections / n
    out["engine.proposal_ratio"] = ratio(proposals, lengths)
    out["engine.edges_forbidden"] = sum(
        x or 0 for x in info_of["engine.forbid"]
    ) / n
    hits = sum(1 for x in info_of["legality.exact_test"] if x)
    out["legality.exact_hit_ratio"] = ratio(hits, count["legality.exact_test"])
    out["legality.window_pass_ratio"] = ratio(
        count["legality.exact_test"],
        sum(x or 0 for x in info_of["legality.stable_pairs"]),
    )
    out["legality.self_s"] = sum(
        self_t[s] for s in
        ("legality.classify", "legality.popular_edges", "legality.valid_edges")
    ) / n
    classified = info_of["legality.classify"]
    for k, metric in enumerate(
        ("legality.legal_edges", "legality.components", "legality.largest_component")
    ):
        out[metric] = sum(c[k] for c in classified) / n
    built = info_of["mirror.build"]
    out["mirror.edges"] = sum(b[0] for b in built) / n
    out["mirror.forbidden_edges"] = sum(b[1] for b in built) / n
    out["solver.first_run_s"] = first_run / n
    out["solver.validate_s"] = validate / n
    out["solver.rounds"] = sum(x or 0 for x in info_of["solver.solve"]) / n
    out["solver.edges_forbidden"] = sum(
        x or 0 for x in info_of["solver.resume"]
    ) / n
    out["popularity.defeated"] = sum(
        1 for x in info_of["popularity.verify"] if x is False
    ) / n
    return out

"""Acceptance gate: every shipped guarantee, at its stated tolerance.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to see one
PASS/FAIL line per criterion.
"""

from __future__ import annotations

import gc
import random
import time
from functools import partial

import pytest

from popmatch import (
    check_a_popular,
    check_witness,
    compute_posts,
    legal_edge_set,
    parse_instance,
    solve,
    verify_popular,
)
from popmatch.mirror import MirrorGraph, mirror_blocking_edges, mirror_system
from popmatch.mirror import realize_witnessed
from popmatch.oracle import enumerate_matchings, ground_truth, witness_search
from popmatch.solver import SolverDefect, _solve

from conftest import (
    blocking_edges,
    composed_text,
    random_instance,
    ring_text,
    showcase_full,
    size_gap_max,
    stable_matching,
)

SWEEP_SIZE = 1000


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_size_gap(size_gap):
    start = time.perf_counter()
    stable = stable_matching(size_gap)
    assert stable.size(size_gap) == 1
    assert blocking_edges(size_gap, stable) == frozenset()
    verdict = verify_popular(size_gap, size_gap_max(size_gap))
    assert verdict.popular
    solved = solve(size_gap, validate=True)
    assert solved.outcome == "found" and solved.size == 2
    assert sorted(solved.matching.pairs(size_gap)) == sorted(
        size_gap_max(size_gap).pairs(size_gap)
    )
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 1.0,
        f"stable size 1, unstable maximum verified popular, solver returns "
        f"size 2 ({elapsed:.3f}s)",
    )


def test_criterion_2_identical_prefs(identical_prefs):
    start = time.perf_counter()
    posts = compute_posts(identical_prefs)
    mats = list(enumerate_matchings(identical_prefs))
    assert len(mats) == 34
    assert not any(check_a_popular(identical_prefs, posts, m) for m in mats)
    truth = ground_truth(identical_prefs)
    assert truth.a_popular == ()
    solved = solve(identical_prefs, validate=True)
    assert solved.outcome == "none"
    elapsed = time.perf_counter() - start
    report(
        2,
        elapsed < 1.0,
        f"all 34 matchings rejected agent-side, solver reports nonexistence "
        f"({elapsed:.3f}s)",
    )


def test_criterion_3_showcase(showcase):
    start = time.perf_counter()
    truth = ground_truth(showcase)
    assert truth.min_popular_size == 4
    assert truth.max_popular_size == 6
    a_pop = set(truth.a_popular)
    assert all(
        m not in a_pop
        for m in truth.popular
        if m.size(showcase) in (4, 6)
    )
    assert truth.max_fully_popular_size == 5
    assert showcase_full(showcase) in set(truth.fully_popular)
    solved = solve(showcase, validate=True)
    assert solved.outcome == "found" and solved.size == 5
    assert check_witness(showcase, solved.matching, solved.witness)
    elapsed = time.perf_counter() - start
    report(
        3,
        elapsed < 5.0,
        f"popular sizes span 4..6, only a size-5 matching is fully popular, "
        f"solver finds it with a valid certificate ({elapsed:.3f}s)",
    )


@pytest.fixture(scope="module")
def sweep():
    """One pass over the seeded instances, shared by criteria 4, 5, and 6."""
    stats = {
        "instances": 0,
        "verdict_mismatches": 0,
        "edge_mismatches": 0,
        "witness_checked": 0,
        "witness_mismatches": 0,
        "solves_validated": 0,
        "structural_failures": 0,
        "embed_scans": 0,
        "embed_failures": 0,
    }
    start = time.perf_counter()
    for seed in range(SWEEP_SIZE):
        inst = random_instance(seed)
        truth = ground_truth(inst)
        stats["instances"] += 1

        classification = legal_edge_set(inst)
        fast = classification.popular
        exact = truth.popular_edges | frozenset(
            (u, u) for u in truth.popular_loops
        )
        if fast != exact:
            stats["edge_mismatches"] += 1

        # Structural scan: the mirrored stable matching never has a blocker.
        stats["embed_scans"] += 1
        mirror = MirrorGraph(inst, classification.legal_flags)
        stable = stable_matching(inst)
        zero = (0,) * inst.n
        embedded = realize_witnessed(mirror, stable, stable.partner_ranks(inst), zero)
        if mirror_blocking_edges(embedded):
            stats["embed_failures"] += 1

        try:
            solved = solve(inst, validate=True)
        except SolverDefect:
            stats["structural_failures"] += 1
            continue
        if solved.outcome == "found":
            stats["solves_validated"] += 1
        want = truth.max_fully_popular_size
        found = solved.outcome == "found"
        if found != (want is not None) or (found and solved.size != want):
            stats["verdict_mismatches"] += 1

        # Certificate existence agrees with the election definition on a
        # sample of at least five matchings per instance.
        popular = set(truth.popular)
        sample = list(truth.popular[:3])
        for mat in enumerate_matchings(inst):
            if len(sample) >= 5 + len(truth.popular[:3]):
                break
            sample.append(mat)
        for mat in sample:
            stats["witness_checked"] += 1
            alpha = witness_search(inst, mat)
            if (alpha is not None) != (mat in popular):
                stats["witness_mismatches"] += 1
            elif alpha is not None and not check_witness(inst, mat, alpha):
                stats["witness_mismatches"] += 1
    stats["elapsed"] = time.perf_counter() - start
    return stats


def test_criterion_4_cross_validation(sweep):
    ok = (
        sweep["instances"] >= 1000
        and sweep["verdict_mismatches"] == 0
        and sweep["edge_mismatches"] == 0
        and sweep["elapsed"] < 300
    )
    report(
        4,
        ok,
        f"{sweep['instances']} seeded instances: solver verdicts and sizes "
        f"match the oracle, fast popular-edge backend matches the union "
        f"({sweep['elapsed']:.1f}s)",
    )


def test_criterion_5_witness_equivalence(sweep):
    ok = (
        sweep["witness_checked"] >= 5 * sweep["instances"]
        and sweep["witness_mismatches"] == 0
    )
    report(
        5,
        ok,
        f"certificate search agreed with election popularity on "
        f"{sweep['witness_checked']} sampled matchings",
    )


def test_criterion_6_structural_invariants(sweep):
    ok = (
        sweep["structural_failures"] == 0
        and sweep["embed_failures"] == 0
        and sweep["solves_validated"] > 0
    )
    report(
        6,
        ok,
        f"{sweep['solves_validated']} successful solves passed every "
        f"structural assertion; {sweep['embed_scans']} embedding scans clean",
    )


def complete_text(side: int, seed: int) -> str:
    """Complete bipartite lists, each a seeded random permutation."""
    rng = random.Random(seed)
    agents = [f"a{i}" for i in range(side)]
    jobs = [f"b{j}" for j in range(side)]
    lines = []
    for name, others in [(a, jobs) for a in agents] + [(b, agents) for b in jobs]:
        lines.append(f"{name} > " + " ".join(rng.sample(others, side)))
    return (
        "agents: " + " ".join(agents) + "\njobs: " + " ".join(jobs) + "\n"
        + "\n".join(lines) + "\n"
    )


def fastest_of_three(calls, yardstick=None) -> list[float]:
    """CPU time of each call, fastest of three runs.

    Each run follows a collection and has GC off, as in ``timeit``.  The
    clock is the process's CPU time, which time the host spends on other
    work does not inflate.  The calls take turns, so a slow spell of the
    host slows every size alike rather than one size alone.  With a
    ``yardstick``, each time is divided by the mean CPU time of
    ``yardstick()`` run just before and just after the call, which cancels
    most of the host's speed swings within a run.
    """
    best = [float("inf")] * len(calls)
    for _ in range(3):
        for i, call in enumerate(calls):
            gc.collect()
            gc.disable()
            try:
                unit = cpu_time(yardstick) if yardstick else 1.0
                elapsed = cpu_time(call)
                if yardstick:
                    unit = (unit + cpu_time(yardstick)) / 2
            finally:
                gc.enable()
            best[i] = min(best[i], elapsed / unit)
    return best


def cpu_time(call) -> float:
    start = time.process_time()
    call()
    return time.process_time() - start


def reference_work() -> None:
    """Fixed dict, tuple and sort work that no change to popmatch moves."""
    table = {i: (i * 7919 % 20011, i) for i in range(20_000)}
    sorted(table.values())


def repeated(call, arg, count: int) -> None:
    for _ in range(count):
        call(arg)


def checked_solve(inst) -> None:
    """Solve and check the engine's work bound; keeps no solve state."""
    solved, state = _solve(inst)
    if state is None:
        assert solved.outcome == "none" and solved.trace == ()
    else:
        system = mirror_system(state.mirror)
        system.run()
        assert system.proposals <= system.total_list_length


def scaling_text(family: str, m_target: int) -> str:
    from popmatch.generator import generate

    if family == "random":
        side = m_target // 5
        return generate(side, side, m_target / (side * side), seed=m_target)
    if family == "composed":
        return composed_text(m_target // 6)
    if family == "ring":
        return ring_text(m_target // 2)
    return complete_text(round(m_target**0.5), seed=m_target)


def test_criterion_7_scaling():
    sizes = (10_000, 20_000, 40_000, 80_000)
    worst = 0.0
    lines = []
    for family in ("random", "composed", "ring", "complete"):
        texts = [scaling_text(family, m_target) for m_target in sizes]
        # Parsing is timed for every family: it is nearly all of a solve
        # that ends at the precheck.  One call takes 5 ms to 1.6 s, so
        # each timed call, here and below, repeats a smaller size as often
        # as it takes to match the largest; the fastest of a few short
        # calls would otherwise catch a fast spell of the host that a long
        # call averages out.  Parse times are in units of
        # ``reference_work``.
        repeats = [sizes[-1] // m_target for m_target in sizes]
        parsed = fastest_of_three(
            [
                partial(repeated, parse_instance, t, r)
                for t, r in zip(texts, repeats)
            ],
            yardstick=reference_work,
        )
        parsed = [cost / r for cost, r in zip(parsed, repeats)]
        insts = [parse_instance(text) for text in texts]
        for inst, cost in zip(insts, parsed):
            lines.append(f"{family} m={inst.m} parse {cost:.2f} units")
        for smaller, larger in zip(parsed, parsed[1:]):
            worst = max(worst, larger / smaller)
        # Random and complete lists end at the agent-popularity precheck
        # in milliseconds, too fast to gate a ratio, so their
        # classification is timed instead.
        if family in ("random", "complete"):
            for inst in insts:
                checked_solve(inst)
            timed, layer = legal_edge_set, "classify"
        else:
            timed, layer = checked_solve, "solve"
        elapsed = fastest_of_three(
            [partial(repeated, timed, i, r) for i, r in zip(insts, repeats)]
        )
        elapsed = [cost / r for cost, r in zip(elapsed, repeats)]
        for inst, cost in zip(insts, elapsed):
            lines.append(f"{family} m={inst.m} {layer} {cost:.3f}s")
        for smaller, larger in zip(elapsed, elapsed[1:]):
            worst = max(worst, larger / smaller)
    report(
        7,
        worst <= 3.0,
        f"CPU time grew at most x{worst:.2f} per doubling of the edge count "
        f"({'; '.join(lines)}); proposals never exceeded the summed list lengths",
    )

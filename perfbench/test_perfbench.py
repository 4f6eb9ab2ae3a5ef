"""The benchmark's own tests, at oracle size (n <= 16).

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import popmatch  # noqa: E402
from popmatch.oracle import enumerate_matchings  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def named_pairs(inst, mat):
    return sorted((inst.names[a], inst.names[b]) for a, b in mat.pairs(inst))


@pytest.mark.parametrize("n", range(2, 9))
def test_ring_expected_answer_matches_oracle(n):
    inst = popmatch.parse_instance(workloads.ring_text(n, random.Random(n)))
    assert inst.m == 2 * n
    assert popmatch.ground_truth(inst).max_fully_popular_size == n
    report = popmatch.solve(inst)
    assert (report.outcome, report.size) == ("found", n)


@pytest.mark.parametrize("k", (1, 2))
def test_blocks_expected_answer_matches_oracle(k):
    truth = workloads.block_truth()
    inst = popmatch.parse_instance(workloads.blocks_text(k, random.Random(k)))
    assert inst.m == workloads.BLOCK_EDGES * k
    assert popmatch.ground_truth(inst).max_fully_popular_size == truth.size * k
    report = popmatch.solve(inst, validate=True)
    assert report.size == truth.size * k
    # The verify workload's accepted files are exactly the solver's answer.
    expected = sorted(
        (f"{a}_{i}", f"{b}_{i}") for i in range(k) for a, b in truth.answer
    )
    assert named_pairs(inst, report.matching) == expected


def test_block_losers_each_lose_an_election():
    inst = popmatch.parse_instance(workloads.blocks_text(1, random.Random(0)))
    rename = {name: name[:-2] for name in inst.names}
    every = list(enumerate_matchings(inst))
    truth = workloads.block_truth()
    assert truth.losers
    for loser in truth.losers:
        mat = next(
            m for m in every
            if tuple(sorted((rename[a], rename[b]) for a, b in named_pairs(inst, m)))
            == loser
        )
        assert any(
            popmatch.run_election(inst, other, mat)[0]
            > popmatch.run_election(inst, other, mat)[1]
            for other in every
        )
    assert len(truth.losers) + len(popmatch.ground_truth(inst).popular) == len(every)


def small_random_texts(count):
    for seed in range(count):
        density = (0.3, 0.5, 0.8)[seed % 3]
        yield popmatch.generate(1 + seed % 6, 1 + (seed // 6) % 4, density, seed)


def test_none_certificate_agrees_with_oracle():
    certified = 0
    for text in small_random_texts(600):
        inst = popmatch.parse_instance(text)
        none = checks.no_agent_complete_matching(text)
        assert none == (not popmatch.ground_truth(inst).a_popular)
        certified += none
    assert certified > 10


@pytest.mark.parametrize("side", (4, 6, 8))
def test_random_family_against_oracle(side):
    # Degree 2 keeps the oracle's matching count small at side 8.
    for seed in range(6):
        text = popmatch.generate(side, side, 2 / side, seed)
        inst = popmatch.parse_instance(text)
        agents, prefs = workloads.read_prefs(text)
        assert sum(len(prefs[a]) for a in agents) == inst.m
        truth = popmatch.ground_truth(inst)
        report = popmatch.solve(inst)
        if checks.no_agent_complete_matching(text):
            assert truth.max_fully_popular_size is None
            assert report.outcome == "none"
        item = workloads.Item(inst.m, "none", text)
        verdict = checks.check("random", item, (inst, report))
        assert verdict in ("ok", "unchecked")


def test_checks_reject_wrong_answers():
    text = workloads.blocks_text(2, random.Random(1))
    inst = popmatch.parse_instance(text)
    report = popmatch.solve(inst)
    right = workloads.Item(inst.m, "found", text, size=4)
    assert checks.check("blocks", right, (inst, report)) == "ok"
    wrong = workloads.Item(inst.m, "found", text, size=5)
    assert checks.check("blocks", wrong, (inst, report)) != "ok"
    expects_none = workloads.Item(inst.m, "none", text)
    assert checks.check("random", expects_none, (inst, report)) == "unchecked"
    ident = "agents: a1 a2 a3\njobs: b1 b2 b3\n" + "".join(
        f"a{i} > b1 b2 b3\nb{i} > a1 a2 a3\n" for i in (1, 2, 3)
    )
    assert checks.no_agent_complete_matching(ident)


def test_verify_items_exit_codes(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "VERIFY_BLOCKS", 3)
    monkeypatch.setattr(workloads, "VERIFY_DEFEAT_SHARE", 0.5)
    items = workloads.verify_items(7, tmp_path)
    assert {item.expect for item in items} == {0, 3}
    for item in items:
        result = workloads.run_op("verify", item)
        assert checks.check("verify", item, result) == "ok"
        bad = workloads.Item(item.edges, 3 - item.expect, argv=item.argv)
        assert checks.check("verify", bad, result) != "ok"


def test_tracer_counts_rounds_and_keeps_answers():
    item = workloads.Item(12, "found", workloads.blocks_text(2, random.Random(3)), 4)
    plain = checks.digest("blocks", workloads.run_op("blocks", item))
    original = popmatch.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert popmatch.solve is not original
        tracer.op = 0
        result = workloads.run_op("blocks", item)
        tracer.op = None
    finally:
        tracer.uninstall()
    assert popmatch.solve is original
    assert checks.digest("blocks", result) == plain
    layer = tracing.layer_metrics(tracer.spans, [0], [])
    assert layer["solver.rounds"] == result[1].iterations
    assert layer["solver.solve_s"] > 0
    assert layer["engine.proposal_ratio"] <= 1
    names = {name for name, _, _ in tracing.LAYER_METRICS}
    assert names - {"trace.op_s", "trace.overhead_frac"} <= set(layer)


def test_tracer_records_missing_functions_as_absent(monkeypatch):
    targets = tracing.TARGETS + (("engine", "no_such_function", "engine.none", None),)
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["engine.no_such_function"]
    assert tracing.layer_metrics([], [0], [])["engine.probes"] == 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.LAYER_METRICS
    ]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([float(i) for i in range(11)]) == (5.0, 50.0)

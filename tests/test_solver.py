"""The full solve pipeline: verdicts, certificates, traces, and invariants."""

import copy
import dataclasses
import gc
import itertools
import time
import tracemalloc

import numpy as np
import pytest

from popmatch import (
    Matching,
    check_a_popular,
    check_witness,
    compute_posts,
    format_matching,
    generate,
    parse_instance,
    parse_matching,
    run_election,
    solve,
    verify_popular,
)
from popmatch.oracle import edge_weight, ground_truth
from popmatch.mirror import classify_partition, mirror_system
from popmatch.solver import SolverDefect, TraceRow, _solve, _validate

from conftest import (
    SHOWCASE_TEXT,
    composed_text,
    edge_id,
    edge_pairs,
    id_of,
    iterated_forbid_reference,
    pairs_by_name,
    planted_text,
    random_instance,
    random_text,
    ring_text,
    validate_reference,
    vertex_lists,
)

# Solve needs one forbidding round here; frozen from the seeded sweep.
ONE_ROUND_TEXT = """\
agents: a0 a1 a2
jobs: b0 b1 b2
a0 > b0 b1
a1 > b1 b2
a2 > b0 b1
b0 > a2 a0
b1 > a2 a1 a0
b2 > a1
"""


class TestVerdicts:
    def test_size_gap_found_max(self, size_gap):
        report = solve(size_gap, validate=True)
        assert report.outcome == "found"
        assert report.size == 2
        assert pairs_by_name(size_gap, report.matching) == [
            ("a0", "b1"),
            ("a1", "b0"),
        ]
        assert report.witness == (-1, 1, -1, 1)
        assert report.iterations == 0

    def test_identical_prefs_none(self, identical_prefs):
        report = solve(identical_prefs, validate=True)
        assert report.outcome == "none"
        assert report.trace == ()
        assert report.infeasible_vertex is not None
        # Deterministic on rerun.
        again = solve(identical_prefs)
        assert again.infeasible_vertex == report.infeasible_vertex

    def test_showcase_found_middle_size(self, showcase):
        report = solve(showcase, validate=True)
        assert report.outcome == "found"
        assert report.size == 5
        assert verify_popular(showcase, report.matching).popular
        assert check_a_popular(
            showcase, compute_posts(showcase), report.matching
        )

    def test_no_agents_found_empty(self):
        # With no genuine edge the engine's matched-edge lists can be empty;
        # they are still read as int arrays.
        for text in ("agents:\njobs:\n", "agents:\njobs: b\n"):
            report = solve(parse_instance(text), validate=True)
            assert report.outcome == "found"
            assert report.size == 0

    def test_oracle_backend_agrees(self, size_gap, showcase):
        for inst in (size_gap, showcase):
            report = solve(inst)
            truth = ground_truth(inst)
            assert report.outcome == (
                "none" if truth.max_fully_popular_size is None else "found"
            )
            assert report.size == truth.max_fully_popular_size


class TestTraceAndMarks:
    def test_one_round_instance(self):
        inst = parse_instance(ONE_ROUND_TEXT)
        report = solve(inst, validate=True)
        assert report.outcome == "found"
        assert report.iterations == 1
        (row,) = report.trace
        assert inst.names[row.trigger] == "a1"
        assert len(row.component) == inst.n
        assert row.edges_forbidden == 8
        assert report.witness == (0,) * inst.n

    def test_two_components_triggered_in_id_order(self):
        # Two independent copies of the one-round block: triggers come out
        # lowest id first, one per component, and both get processed.
        blocks = []
        rows = ONE_ROUND_TEXT.strip().splitlines()[2:]
        agents, jobs, lines = [], [], []
        for i in range(2):
            for row in rows:
                name, _, rest = row.partition(" > ")
                tag = f"{name}_{i}"
                (agents if name.startswith("a") else jobs).append(tag)
                lines.append(
                    f"{tag} > "
                    + " ".join(f"{v}_{i}" for v in rest.split())
                )
        inst = parse_instance(
            "agents: " + " ".join(agents) + "\njobs: " + " ".join(jobs)
            + "\n" + "\n".join(lines) + "\n"
        )
        report = solve(inst, validate=True)
        assert report.outcome == "found"
        assert report.iterations == 2
        first, second = report.trace
        assert first.trigger < second.trigger
        assert set(first.component).isdisjoint(second.component)

    def test_trace_is_built_only_when_read(self, monkeypatch):
        # Block i of composed_text(300) is agents 3i..3i+2 and jobs
        # 900+3i..902+3i, one component each, triggered by a1_i with 8
        # edges forbidden; these are the rows the solver built eagerly
        # before it kept the marking pass's arrays.
        inst = parse_instance(composed_text(300))
        rows = tuple(
            TraceRow(a + 1, (a, a + 1, a + 2, 900 + a, 901 + a, 902 + a), 8)
            for a in range(0, 900, 3)
        )

        def no_rows(*args):
            raise AssertionError("a trace row was built")

        monkeypatch.setattr("popmatch.solver.TraceRow", no_rows)
        report = solve(inst, validate=True)
        assert report.iterations == 300
        with pytest.raises(AssertionError, match="a trace row was built"):
            report.trace
        monkeypatch.undo()
        assert report.trace == rows

    def test_stable_trivial_case(self):
        inst = parse_instance("agents:\njobs: b0 b1\n")
        report = solve(inst, validate=True)
        assert report.outcome == "found"
        assert report.size == 0
        assert report.witness == (0, 0)

    def test_components_marked_once(self):
        for seed in range(80):
            inst = random_instance(seed)
            report = solve(inst)
            assert report.iterations <= inst.n
            seen: set[int] = set()
            for row in report.trace:
                assert row.trigger not in seen
                assert not (seen & set(row.component))
                seen.update(row.component)

    def test_no_candidate_after_success(self):
        # Every vertex whose upper sign is its side's minus tag and whose
        # lower sign is the opposite lies in a traced component.
        for seed in range(40):
            inst = random_instance(seed)
            report, state = _solve(inst)
            if report.outcome != "found":
                continue
            upper, lower = state.signs
            marked = {u for row in report.trace for u in row.component}
            for u in range(inst.n):
                side = -1 if u < inst.num_agents else 1
                if upper[u] == side and lower[u] == -side:
                    assert u in marked, seed


class TestAgainstIteratedLoop:
    def test_marking_pass_equals_iterated_forbid_reference(self):
        # The paper's loop, rerun from scratch after every forbid, gives
        # every report field that the single marking pass gives.
        texts = [random_text(seed) for seed in range(500)]
        texts += [
            generate(n, n + 1, density, seed=seed)
            for seed in range(40)
            for n, density in ((6, 0.5), (10, 0.3), (15, 0.2))
        ]
        texts += [composed_text(k, seed=k) for k in range(1, 16)]
        texts += [ring_text(n) for n in range(2, 30)]
        texts += [
            planted_text(blocks, cross, seed)
            for blocks in (3, 6, 10)
            for cross in (2, 6, 12)
            for seed in range(8)
        ]
        rounds = engine_none = spanning = 0
        for text in texts:
            inst = parse_instance(text)
            report, state = _solve(inst, validate=True)
            # The reference gives the report's fields and its trace, which
            # the report builds from its marking arrays.
            want = iterated_forbid_reference(inst)
            assert {name: getattr(report, name) for name in want} == want, text
            rounds += report.iterations
            engine_none += report.outcome == "none" and state is not None
            spanning += any(len(row.component) > 6 for row in report.trace)
        assert rounds > 400 and engine_none > 100 and spanning > 20


class TestWitnesses:
    def test_certificates_always_validate(self):
        for seed in range(120):
            inst = random_instance(seed)
            report = solve(inst, validate=True)
            if report.outcome == "found":
                assert check_witness(inst, report.matching, report.witness)

    def test_marked_components_force_zero_entries(self):
        # Wherever the solver marked a component, every certificate of every
        # fully popular matching is zero (exhausted over all certificates).
        # Seeds whose solves exercise the forbidding loop.
        cases = [parse_instance(ONE_ROUND_TEXT)]
        for seed in (1231, 1582, 1695):
            inst = random_instance(seed)
            assert solve(inst).iterations > 0
            cases.append(inst)
        for inst in cases:
            report = solve(inst, validate=True)
            marked = {u for row in report.trace for u in row.component}
            assert marked
            truth = ground_truth(inst)
            for mat in truth.fully_popular:
                for alpha in itertools.product((-1, 0, 1), repeat=inst.n):
                    if not check_witness(inst, mat, alpha):
                        continue
                    assert all(alpha[u] == 0 for u in marked)


class TestValidation:
    def test_pair_leaving_a_half_scope_is_a_defect(self):
        # Vertex 0 is an agent matched in the lower projection; a zero lower
        # sign drops it from the lower half's scope while its partner stays.
        inst = random_instance(0)
        report, state = _solve(inst)
        assert report.outcome == "found" and not state.lower.is_self(0)
        upper, lower = state.signs
        lower = lower.copy()
        lower[0] = 0
        state.signs = (upper, lower)
        own = report.matching.partner_ranks(inst)
        with pytest.raises(SolverDefect, match="lower projection"):
            _validate(state, report.witness, compute_posts(inst), own)

    def test_marked_plus_edge_is_a_defect(self, monkeypatch):
        # a1 straddles and marks the whole one-round instance; a0's left
        # copy moved onto its first plus-tagged copy trips the guard.
        inst = parse_instance(ONE_ROUND_TEXT)
        a0, a1 = id_of(inst, "a0"), id_of(inst, "a1")

        def a0_on_plus(mirror):
            system = mirror_system(mirror)
            run = system.run

            def run_then_move():
                feasible = run()
                system.left_match[a0] = 4 * inst.layout.starts[a0]
                return feasible

            system.run = run_then_move
            return system

        assert solve(inst).trace[0].trigger == a1
        monkeypatch.setattr("popmatch.solver.mirror_system", a0_on_plus)
        with pytest.raises(SolverDefect, match="marked component holds a plus"):
            solve(inst)

    def test_invalid_final_signs_are_a_defect(self, size_gap, monkeypatch):
        # a0's upper sign flipped from minus to plus no longer cancels its
        # partner's, so the certificate read off the signs is invalid.
        def a0_flipped(mh):
            upper, lower = classify_partition(mh)
            upper[0] = -upper[0]
            return upper, lower

        assert solve(size_gap).witness[0] == -1
        monkeypatch.setattr("popmatch.solver.classify_partition", a0_flipped)
        with pytest.raises(SolverDefect, match="invalid certificate"):
            solve(size_gap)

    # Every message ``_validate`` can raise.  "upper projection matches a
    # twin-matched job" is not among them: the sign-partition check before
    # it gives every job that the upper projection matches a nonzero sign.
    MESSAGES = (
        "result is not one-sided popular",
        "marked matched agents escaped the minus/plus intersection",
        "marked matched jobs escaped the plus/minus intersection",
        "unmarked straddling vertex at termination",
        "upper and lower projections diverge on a marked vertex",
        "blocking edge inside the marked region",
        "agent prefers the lower projection",
        "matched pair escapes the sign partition",
        "upper-half certificate failed off the twin-matched jobs",
        "lower projection matches a twin-matched agent",
        "lower-half certificate failed off the twin-matched agents",
        "non-cancelling certificate entries",
        "has a nonzero certificate entry",
        "realization of the result is unstable in the mirror graph",
        "realization of the result uses a forbidden edge",
    )

    @staticmethod
    def defects(inst, report, state):
        """Single injected defects of a found solve, as ``_validate`` inputs.

        Each flips one sign or the upper signs of an edge's two ends to
        zero, flips one mark, drops one pair from a projection, swaps two
        lower partners, changes one certificate entry or one matched pair's
        two entries, or clears the legal flag of one matched edge.
        """
        witness = report.witness
        own = report.matching.partner_ranks(inst)

        def injected(**fields):
            bad = copy.copy(state)
            bad.marks = state.marks.copy()
            for name, value in fields.items():
                setattr(bad, name, value)
            return bad

        def without(mat, u):
            partner = list(mat.partner)
            partner[u], partner[mat.partner[u]] = u, mat.partner[u]
            return Matching(tuple(partner))

        def changed(values, *entries):
            out = np.array(values)
            for u, value in entries:
                out[u] = value
            return out

        upper, lower = state.signs
        for u in range(inst.n):
            for sign in (-1, 0, 1):
                if upper[u] != sign:
                    signs = (changed(upper, (u, sign)), lower)
                    yield injected(signs=signs), witness, own
                if lower[u] != sign:
                    signs = (upper, changed(lower, (u, sign)))
                    yield injected(signs=signs), witness, own
                if witness[u] != sign:
                    yield state, changed(witness, (u, sign)), own
            marks = injected()
            marks.marks[u] = not marks.marks[u]
            yield marks, witness, own
            if not state.lower.is_self(u):
                yield injected(lower=without(state.lower, u)), witness, own
        edges = edge_pairs(inst)
        for a, b in edges:
            signs = (changed(upper, (a, 0), (b, 0)), lower)
            yield injected(signs=signs), witness, own
        for a, b in report.matching.pairs(inst):
            mat = without(report.matching, a)
            yield injected(matching=mat), witness, mat.partner_ranks(inst)
            for sign in (-1, 0, 1):
                if witness[a] != sign:
                    pair = changed(witness, (a, sign), (b, -sign))
                    yield state, pair, own
            k = edge_id(inst, a, b)
            flags = changed(state.mirror.legal_flags, (k, False))
            mirror = dataclasses.replace(state.mirror, legal_flags=flags)
            yield injected(mirror=mirror), witness, own
        pairs = state.lower.pairs(inst)
        for (a1, b1), (a2, b2) in itertools.combinations(pairs, 2):
            if (a1, b2) in edges and (a2, b1) in edges:
                swapped = [p for p in pairs if p[0] not in (a1, a2)]
                swapped += [(a1, b2), (a2, b1)]
                lower_mat = Matching.from_pairs(inst, swapped)
                yield injected(lower=lower_mat), witness, own

    def test_every_defect_message_is_pinned(self):
        # Reference and array validation raise the same first message on
        # every injected defect; across the sweep each message is raised.
        texts = [ONE_ROUND_TEXT, SHOWCASE_TEXT, composed_text(3, seed=1)]
        insts = [parse_instance(text) for text in texts]
        insts += [random_instance(seed) for seed in (1231, 1582, 1695)]
        insts += [random_instance(seed) for seed in range(60)]
        seen: dict[str, int] = {}
        for inst in insts:
            report, found = _solve(inst, validate=True)
            if report.outcome != "found":
                continue
            posts = compute_posts(inst)
            for state, witness, own in self.defects(inst, report, found):
                results = []
                for check in (validate_reference, _validate):
                    try:
                        check(state, witness, posts, own)
                        results.append(None)
                    except SolverDefect as exc:
                        results.append(str(exc))
                want, got = results
                assert got == want
                if want is not None:
                    (message,) = [m for m in self.MESSAGES if m in want]
                    seen[message] = seen.get(message, 0) + 1
        assert set(seen) == set(self.MESSAGES), seen


class TestAgainstOracle:
    def test_verdict_size_and_membership(self):
        for seed in range(200):
            inst = random_instance(seed)
            truth = ground_truth(inst)
            report = solve(inst, validate=True)
            want = truth.max_fully_popular_size
            assert (report.outcome == "found") == (want is not None), seed
            if report.outcome == "found":
                assert report.size == want, seed
                fully = set(truth.fully_popular)
                assert report.matching in fully, seed

    def test_unmatched_agents_unmatched_everywhere(self):
        # Agents the solver leaves out are left out by every fully popular
        # matching, which is exactly why the result is max-size.
        for seed in range(120):
            inst = random_instance(seed)
            report = solve(inst)
            if report.outcome != "found":
                continue
            truth = ground_truth(inst)
            if not truth.fully_popular:
                continue
            out = {
                a
                for a in range(inst.num_agents)
                if report.matching.is_self(a)
            }
            for mat in truth.fully_popular:
                assert all(mat.is_self(a) for a in out), seed


def relabel(inst, rotation: int):
    agents = list(inst.names[: inst.num_agents])
    jobs = list(inst.names[inst.num_agents:])
    agents = agents[rotation % len(agents):] + agents[: rotation % len(agents)] if agents else agents
    jobs = jobs[rotation % len(jobs):] + jobs[: rotation % len(jobs)] if jobs else jobs
    lines = ["agents: " + " ".join(agents), "jobs: " + " ".join(jobs)]
    lists = vertex_lists(inst)
    for name in agents + jobs:
        row = lists[id_of(inst, name)]
        lines.append(f"{name} > " + " ".join(inst.names[v] for v in row))
    return parse_instance("\n".join(lines) + "\n")


class TestOrderInvariance:
    def test_declaration_order_does_not_change_result(self):
        # 1231/1582/1695 exercise the forbidding loop.
        for seed in (5, 41, 77, 58, 1231, 1582, 1695):
            inst = random_instance(seed)
            base = solve(inst)
            for rotation in (1, 2):
                other = relabel(inst, rotation)
                again = solve(other)
                assert again.outcome == base.outcome, seed
                if base.outcome == "found":
                    assert again.size == base.size, seed
                    by_name = {
                        frozenset(
                            (other.names[a], other.names[b])
                            for a, b in again.matching.pairs(other)
                        )
                    }
                    assert (
                        frozenset(
                            (inst.names[a], inst.names[b])
                            for a, b in base.matching.pairs(inst)
                        )
                        in by_name
                    ), seed


def block_union_text(copies: int) -> str:
    """Disjoint copies of ``a0 > b0; a1 > b0; b0 > a0 a1``."""
    agents = " ".join(f"a0_{i} a1_{i}" for i in range(copies))
    jobs = " ".join(f"b0_{i}" for i in range(copies))
    lines = [
        f"a0_{i} > b0_{i}\na1_{i} > b0_{i}\nb0_{i} > a0_{i} a1_{i}"
        for i in range(copies)
    ]
    return f"agents: {agents}\njobs: {jobs}\n" + "\n".join(lines) + "\n"


def test_validation_adds_no_memory_peak():
    """Validation adds at most 10 % to a solve's traced memory peak.

    On 1,000 blocks the peak is set before the last step, by classification
    and the mirror build; the epilogue's and validation's temporaries must
    stay below it.
    """
    inst = parse_instance(composed_text(1000))
    solve(inst, validate=True)  # builds the layout arrays both runs share
    peak = {}
    for validate in (False, True):
        gc.collect()
        tracemalloc.start()
        try:
            report = solve(inst, validate=validate)
            _, peak[validate] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.outcome == "found"
    assert peak[True] <= 1.1 * peak[False], peak


def test_validation_costs_less_than_a_solve():
    """Validation is linear: it at most doubles the solve on 16k edges.

    Each time is the fastest of three CPU-time runs with GC off, the two
    calls taking turns.
    """
    inst = parse_instance(block_union_text(8000))
    best = {False: float("inf"), True: float("inf")}
    for _ in range(3):
        for validate in best:
            gc.collect()
            gc.disable()
            try:
                start = time.process_time()
                report = solve(inst, validate=validate)
                elapsed = time.process_time() - start
            finally:
                gc.enable()
            assert report.outcome == "found"
            best[validate] = min(best[validate], elapsed)
    assert best[True] < 2.5 * best[False], best


class TestHotPath:
    """An instance keeps one form of its lists, the edge layout, and
    solving builds no key sets."""

    FIELDS = {"names", "num_agents", "layout", "ids"}
    KEY_SETS = ("valid", "popular", "legal")

    def assert_lean(self, inst, classification=None):
        assert set(vars(inst)) == self.FIELDS
        if classification is not None:
            assert not set(self.KEY_SETS) & set(vars(classification))

    def test_every_entry_point_keeps_one_form(self):
        # Every public entry point, the oracle's included, on one instance.
        inst = parse_instance(SHOWCASE_TEXT)
        answer = solve(inst, validate=True).matching
        assert verify_popular(inst, answer).popular
        truth = ground_truth(inst)
        assert answer in truth.fully_popular
        phi_answer, phi_other, _, _ = run_election(inst, answer, truth.popular[-1])
        assert phi_answer >= phi_other
        for a, b in edge_pairs(inst):
            edge_weight(inst, answer, (a, b))
        parse_matching(format_matching(inst, answer), inst)
        self.assert_lean(inst)

    def test_solve_builds_no_rank_dicts(self):
        texts = [
            composed_text(40, seed=3),
            ring_text(50),
            generate(12, 12, 0.25, seed=6),
        ]
        for text in texts:
            inst = parse_instance(text)
            report, state = _solve(inst, validate=True)
            assert report.outcome == "found"
            self.assert_lean(inst, state.classification)

    def test_engine_verdict_builds_no_views(self):
        inst = parse_instance(generate(40, 60, 5 / 60, seed=0))
        report, state = _solve(inst)
        assert report.outcome == "none" and state is not None
        self.assert_lean(inst, state.classification)

    def test_precheck_verdict_builds_no_views(self):
        inst = parse_instance(generate(400, 400, 5 / 400, seed=0))
        report, state = _solve(inst)
        assert report.outcome == "none" and report.trace == ()
        assert state is None  # decided by the precheck
        self.assert_lean(inst)

    def test_verify_builds_no_rank_dicts(self):
        text = composed_text(40, seed=5)
        answer = solve(parse_instance(text)).matching
        inst = parse_instance(text)
        # Block 7 keeps only a0-b0, which a2-b1 and a1-b2 defeat.
        lines = [
            line for line in format_matching(inst, answer).splitlines()
            if not line.endswith("_7")
        ]
        mat = parse_matching("\n".join(lines + ["a0_7 b0_7"]), inst)
        verdict = verify_popular(inst, mat)
        assert not verdict.popular and verdict.margin > 0
        self.assert_lean(inst)
        # The answer is popular, so its check ends in the witness path.
        found = parse_matching(format_matching(inst, answer), inst)
        assert verify_popular(inst, found).popular
        self.assert_lean(inst)

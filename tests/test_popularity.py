"""Vote weights, popularity verification, certificates, one-sided checks."""

import itertools
import json
import random

import numpy as np
import pytest

from popmatch import (
    InstanceError,
    Matching,
    check_a_popular,
    check_witness,
    compute_posts,
    generate,
    parse_instance,
    run_election,
    solve,
    verify_popular,
)
import popmatch.popularity as popularity
from popmatch.cli import main
from popmatch.oracle import edge_weight, enumerate_matchings, ground_truth
from popmatch.popularity import a_popular_obstruction

from conftest import (
    assignment_reference,
    composed_text,
    edge_pairs,
    id_of,
    ids,
    match_of,
    matching_of,
    random_instance,
    random_matching,
    ring_instance,
    showcase_full,
    size_gap_max,
    size_gap_stable,
    stable_matching,
    verify_reference,
    wt_total,
)


class TestEdgeWeight:
    def test_split_vote_edge(self, size_gap):
        a1, b0 = ids(size_gap, "a1", "b0")
        stable = size_gap_stable(size_gap)
        assert edge_weight(size_gap, stable, (a1, b0)) == 0

    def test_matched_edge_is_zero(self, size_gap):
        mat = size_gap_max(size_gap)
        for a, b in mat.pairs(size_gap):
            assert edge_weight(size_gap, mat, (a, b)) == 0

    def test_blocking_edge_is_two(self, size_gap):
        a1, b1 = ids(size_gap, "a1", "b1")
        assert edge_weight(size_gap, size_gap_max(size_gap), (a1, b1)) == 2

    def test_self_loops(self, size_gap):
        a0 = id_of(size_gap, "a0")
        stable = size_gap_stable(size_gap)
        assert edge_weight(size_gap, stable, (a0, a0)) == 0
        assert edge_weight(size_gap, size_gap_max(size_gap), (a0, a0)) == -1

    def test_non_edge_rejected(self, size_gap):
        a0, b0 = ids(size_gap, "a0", "b0")
        with pytest.raises(InstanceError):
            edge_weight(size_gap, size_gap_stable(size_gap), (a0, b0))

    def test_ids_out_of_range_rejected(self):
        # Negative ids and ids past n - 1, at either end and as a loop.
        inst = parse_instance(
            "agents: a0 a1\njobs: b0 b1\n"
            "a0 > b0 b1\na1 > b0\nb0 > a1 a0\nb1 > a0\n"
        )
        mat = match_of(inst, ("a0", "b1"), ("a1", "b0"))
        for pair in ((-1, 0), (0, -1), (0, 9), (9, 0), (-5, -5)):
            with pytest.raises(InstanceError, match=r"outside 0\.\.3$"):
                edge_weight(inst, mat, pair)


class TestWtTotal:
    def test_against_self_is_zero(self, size_gap):
        mat = size_gap_max(size_gap)
        assert wt_total(size_gap, mat, mat) == 0

    def test_size_gap_cross(self, size_gap):
        stable, mx = size_gap_stable(size_gap), size_gap_max(size_gap)
        assert wt_total(size_gap, stable, mx) == 0

    def test_equals_election_difference(self):
        # Every pairing on instances up to eight vertices, exactly.
        for seed in range(24):
            inst = random_instance(seed, max_side=4)
            mats = list(enumerate_matchings(inst))
            for first, second in itertools.product(mats[:16], mats[:16]):
                phi_f, phi_s, _, _ = run_election(inst, first, second)
                assert wt_total(inst, first, second) == phi_s - phi_f


class TestVerifyPopular:
    def test_size_gap_max_is_popular(self, size_gap):
        verdict = verify_popular(size_gap, size_gap_max(size_gap))
        assert verdict.popular
        assert check_witness(size_gap, size_gap_max(size_gap), verdict.witness)

    def test_failed_certificate_is_a_defect(self, size_gap, monkeypatch):
        # Duals that fail their own check mean the assignment is broken.
        monkeypatch.setattr(popularity, "_check_witness", lambda *args: False)
        with pytest.raises(AssertionError, match="dual potentials fail"):
            verify_popular(size_gap, size_gap_max(size_gap))

    def test_exhausted_search_is_a_defect(self, size_gap, monkeypatch):
        # Every search can reach its row's own sink, so a heap that runs
        # dry means the search itself is broken.
        monkeypatch.setattr(popularity, "heappush", lambda heap, item: None)
        with pytest.raises(AssertionError, match="ran out of columns"):
            verify_popular(size_gap, size_gap_max(size_gap))

    def test_stable_matchings_accept_zero_witness(self, size_gap):
        stable = size_gap_stable(size_gap)
        assert verify_popular(size_gap, stable).popular
        assert check_witness(size_gap, stable, (0,) * size_gap.n)

    def test_unpopular_matching_counterexample(self, size_gap):
        bad = match_of(size_gap, ("a0", "b1"))
        verdict = verify_popular(size_gap, bad)
        assert not verdict.popular
        assert verdict.margin > 0
        assert wt_total(size_gap, bad, verdict.counterexample) == verdict.margin
        # The oracle confirms some matching wins the election against it.
        phi = run_election(size_gap, verdict.counterexample, bad)
        assert phi[0] > phi[1]

    def test_counterexample_is_maximum_weight(self, size_gap):
        bad = match_of(size_gap, ("a0", "b1"))
        verdict = verify_popular(size_gap, bad)
        best = max(
            wt_total(size_gap, bad, m) for m in enumerate_matchings(size_gap)
        )
        assert verdict.margin == best

    def test_agrees_with_oracle_elections(self):
        for seed in range(60):
            inst = random_instance(seed)
            report = ground_truth(inst)
            popular = set(report.popular)
            for mat in enumerate_matchings(inst):
                verdict = verify_popular(inst, mat)
                assert verdict.popular == (mat in popular), (seed, mat)

    def test_witness_complementary_slackness(self):
        # On matched edges certificate entries cancel; matched self-loops get zero.
        for seed in range(60):
            inst = random_instance(seed)
            for mat in enumerate_matchings(inst):
                verdict = verify_popular(inst, mat)
                if not verdict.popular:
                    continue
                alpha = verdict.witness
                for a, b in mat.pairs(inst):
                    assert alpha[a] + alpha[b] == 0
                for u in range(inst.n):
                    if mat.partner[u] == u:
                        assert alpha[u] == 0


class TestListReference:
    """The flat-array verification against the list-based one it replaced."""

    def test_verdicts_equal_reference(self):
        # Random matchings, stable ones, solve's answers and both with one
        # pair dropped, on random instances, rings and shuffled blocks.
        rng = random.Random(7)
        insts = [
            parse_instance(
                generate(2 + s % 9, 2 + s // 9 % 9, 0.25 + s % 4 / 6, s)
            )
            for s in range(300)
        ]
        insts += [parse_instance(generate(30, 30, 4 / 30, s)) for s in range(40)]
        insts += [ring_instance(n) for n in range(2, 60)]
        insts += [parse_instance(composed_text(k, seed=k)) for k in range(1, 30)]
        pairs = popular = cascading = 0
        for seed, inst in enumerate(insts):
            stable = stable_matching(inst)
            mats = [
                random_matching(rng, inst),
                random_matching(rng, inst),
                stable,
                _drop_pair(rng, inst, stable),
            ]
            report = solve(inst)
            if report.outcome == "found":
                mats += [report.matching, _drop_pair(rng, inst, report.matching)]
            for mat in mats:
                got = verify_popular(inst, mat)
                want, cascade = verify_reference(inst, mat)
                assert (got.popular, got.margin, got.witness) == (
                    want.popular,
                    want.margin,
                    want.witness,
                ), (seed, mat.partner)
                if want.popular:
                    assert got.counterexample is None, seed
                else:
                    assert (
                        got.counterexample == want.counterexample
                    ), (seed, mat.partner)
                pairs += 1
                popular += want.popular
                cascading += cascade > 0
        assert pairs >= 2000 and 500 <= popular <= pairs - 500, (pairs, popular)
        # Rows that were tight at the warm start but dropped after a column
        # price reset: the worklist's cascade path runs.
        assert cascading >= 100, cascading


class TestAssignmentMax:
    def test_arbitrary_hints_equal_reference(self):
        # verify_popular hints each row with its partner's rank, and no two
        # rows share a partner; here hints collide and point at sinks, so
        # the first-come rule of the array warm start decides who keeps a
        # column.
        rng = random.Random(29)
        collisions = sink_hints = 0
        for seed in range(400):
            inst = random_instance(seed, max_side=6)
            lay, p, q = inst.layout, inst.num_agents, inst.num_jobs
            weight = [rng.randrange(5) for _ in range(inst.m)]
            starts = lay.starts.tolist()
            hints = [rng.randrange(e - s + 1) for s, e in zip(starts, starts[1:])]
            adj = [
                [*zip(lay.job_of[s:e].tolist(), weight[s:e]), (q + a, 0)]
                for a, (s, e) in enumerate(zip(starts, starts[1:]))
            ]
            want = assignment_reference(p, q, adj, hints)[:4]
            value, match_row, y_row, y_col = popularity._assignment_max(
                lay, -np.array(weight), np.array(hints)
            )
            got = value, match_row.tolist(), y_row.tolist(), y_col.tolist()
            assert got == want, seed
            hinted = [adj[a][i][0] for a, i in enumerate(hints)]
            collisions += len(set(hinted)) < p
            sink_hints += any(c >= q for c in hinted)
        assert collisions >= 100 and sink_hints >= 100, (collisions, sink_hints)


class TestIntTypes:
    """Verdicts and witnesses hold Python ints, as their reprs and JSON need."""

    def test_entries_are_python_ints(self, tmp_path, capsys):
        texts = [composed_text(8, seed=2), generate(12, 12, 0.3, seed=4)]
        texts += [generate(6, 6, 0.5, seed=s) for s in range(20)]
        kinds = set()
        for text in texts:
            inst = parse_instance(text)
            report = solve(inst, validate=True)
            mats = [stable_matching(inst), random_matching(random.Random(1), inst)]
            if report.outcome == "found":
                assert all(type(x) is int for x in report.witness), text
                mats.append(report.matching)
            for mat in mats:
                verdict = verify_popular(inst, mat)
                assert type(verdict.margin) is int
                if verdict.popular:
                    assert all(type(x) is int for x in verdict.witness)
                    json.dumps(verdict.witness)
                kinds.add(verdict.popular)
            path = tmp_path / "inst.txt"
            path.write_text(text)
            code = main(["solve", str(path), "--json", "--validate"])
            payload = json.loads(capsys.readouterr().out)
            assert code in (0, 2) and "outcome" in payload
        assert kinds == {True, False}


class TestAgainstNetworkx:
    """Margins beyond the oracle's size cap, against an independent solver."""

    def test_margin_is_max_weight_matching(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(2024)
        for seed in range(30):
            side = 40 + seed
            text = generate(side, side + seed % 3, (2 + seed % 4) / side, seed)
            inst = parse_instance(text)
            edges = edge_pairs(inst)
            rng.shuffle(edges)
            taken: set[int] = set()
            pairs = []
            for a, b in edges:
                if a not in taken and b not in taken and rng.random() < 0.7:
                    taken.update((a, b))
                    pairs.append((a, b))
            for mat in (stable_matching(inst), matching_of(inst, pairs)):
                loop = [edge_weight(inst, mat, (u, u)) for u in range(inst.n)]
                graph = nx.Graph()
                for a, b in edge_pairs(inst):
                    w = edge_weight(inst, mat, (a, b)) - loop[a] - loop[b]
                    if w > 0:
                        graph.add_edge(a, b, weight=w)
                best = nx.max_weight_matching(graph)
                value = sum(graph[a][b]["weight"] for a, b in best)
                verdict = verify_popular(inst, mat)
                assert verdict.margin == value + sum(loop), (seed, verdict)
                assert verdict.popular == (verdict.margin == 0)


class TestCheckWitness:
    def test_zero_vector_on_stable(self, size_gap):
        assert check_witness(
            size_gap, size_gap_stable(size_gap), (0,) * size_gap.n
        )

    def test_zero_vector_fails_on_blocking_edge(self, size_gap):
        assert not check_witness(
            size_gap, size_gap_max(size_gap), (0,) * size_gap.n
        )

    def test_round_trip(self, size_gap):
        mat = size_gap_max(size_gap)
        verdict = verify_popular(size_gap, mat)
        assert check_witness(size_gap, mat, verdict.witness)

    def test_nonzero_sum_rejected(self, size_gap):
        mat = size_gap_stable(size_gap)
        assert not check_witness(size_gap, mat, (1, 0, 0, 0))

    def test_out_of_range_entry_rejected(self, size_gap):
        mat = size_gap_stable(size_gap)
        assert not check_witness(size_gap, mat, (2, -1, -1, 0))

    def test_certificate_of_the_wrong_length_rejected(self, size_gap):
        # A valid certificate with an entry too many or too few.
        mat = size_gap_max(size_gap)
        alpha = verify_popular(size_gap, mat).witness
        assert check_witness(size_gap, mat, alpha)
        everyone = list(range(size_gap.n))
        for wrong in (alpha + (0,), alpha + (0, 0, 1, -1), alpha[:-1], ()):
            assert not check_witness(size_gap, mat, wrong)
            assert not check_witness(size_gap, mat, wrong, vertices=everyone)

    def test_matching_must_stay_inside_scope(self, size_gap):
        mat = size_gap_max(size_gap)
        b1 = id_of(size_gap, "b1")
        scope = [u for u in range(size_gap.n) if u != b1]
        message = "^matching leaves the induced subgraph$"
        with pytest.raises(ValueError, match=message):
            check_witness(size_gap, mat, (0,) * size_gap.n, vertices=scope)
        # Either end of a matched pair may be the one in scope, and the
        # check raises before it reads the certificate.
        for name in ("a0", "b1"):
            with pytest.raises(ValueError, match=message):
                check_witness(size_gap, mat, (), vertices=[id_of(size_gap, name)])

    def test_scope_ids_out_of_range_rejected(self):
        # A negative id must not alias a vertex from the end, and an id past
        # n - 1 must not leak IndexError.
        inst = parse_instance(
            "agents: a0 a1\njobs: b0 b1\na0 > b0 b1\na1 > b0\n"
            "b0 > a1 a0\nb1 > a0\n"
        )
        mat = match_of(inst, ("a0", "b1"), ("a1", "b0"))
        alpha = (1, 1, -1, -1)
        assert check_witness(inst, mat, alpha)
        for scope in ([-2, 1], [-1, -2, -3, -4], [4], [-5]):
            with pytest.raises(InstanceError) as err:
                check_witness(inst, mat, alpha, vertices=scope)
            message = f"scope entry {scope[0]} names a vertex id outside 0..3"
            assert str(err.value) == message

    def test_every_rejection_returns_false(self, size_gap):
        # One certificate per rejection, in the order check_witness tests
        # them: length, entries, sum, a self-loop, then an edge.
        stable, big = size_gap_stable(size_gap), size_gap_max(size_gap)
        a0, b0 = ids(size_gap, "a0", "b0")
        alone = [0] * size_gap.n
        alone[a0], alone[b0] = -1, 1  # both alone in the stable matching
        for mat, alpha in (
            (stable, (0, 0, 0)),
            (stable, (2, -2, 0, 0)),
            (stable, (1, 0, 0, 0)),
            (stable, tuple(alone)),
            (big, (0,) * size_gap.n),
        ):
            assert not check_witness(size_gap, mat, alpha), alpha

    def test_matches_edge_weight_reference(self):
        # Random (instance, matching, alpha) triples: verify_popular's
        # witnesses, their perturbations and random zero-sum vectors, on whole vertex sets and
        # on partner-closed scopes.  Rings and shuffled blocks give jobs
        # whose list order differs from the agents' edge order.
        rng = random.Random(11)
        verdicts = {True: 0, False: 0}
        edge_decided = 0
        insts = [
            parse_instance(
                generate(2 + seed % 7, 2 + seed // 7 % 7, 0.3 + seed % 5 / 8, seed)
            )
            for seed in range(300)
        ]
        insts += [ring_instance(n) for n in range(2, 30)]
        insts += [parse_instance(composed_text(k, seed=k)) for k in range(1, 12)]
        for seed, inst in enumerate(insts):
            mat = random_matching(rng, inst)
            popular = verify_popular(inst, mat)
            for trial in range(8):
                if trial < 4:
                    scope = list(range(inst.n))
                else:
                    picked = {u for u in range(inst.n) if rng.random() < 0.6}
                    scope = sorted(picked | {mat.partner[u] for u in picked})
                if popular.popular and trial % 4 == 0:
                    alpha = list(popular.witness)
                else:
                    alpha = [rng.choice((-1, 0, 1)) for _ in range(inst.n)]
                _zero_sum(rng, alpha, scope)
                if trial % 4 == 3 and scope:
                    u, v = rng.choice(scope), rng.choice(scope)
                    alpha[u], alpha[v] = alpha[v], alpha[u]
                want = _reference_check(inst, mat, alpha, scope)
                assert check_witness(inst, mat, alpha, vertices=scope) == want, (
                    seed,
                    trial,
                )
                if trial < 4:
                    assert check_witness(inst, mat, alpha) == want, (seed, trial)
                verdicts[want] += 1
                loops_ok = all(alpha[u] >= 0 for u in scope if mat.partner[u] == u)
                edge_decided += loops_ok and not want
        assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts
        assert edge_decided >= 100, edge_decided


class TestAPopular:
    def test_size_gap_max(self, size_gap):
        posts = compute_posts(size_gap)
        assert check_a_popular(size_gap, posts, size_gap_max(size_gap))

    def test_identical_prefs_rejects_everything(self, identical_prefs):
        posts = compute_posts(identical_prefs)
        assert not any(
            check_a_popular(identical_prefs, posts, m)
            for m in enumerate_matchings(identical_prefs)
        )

    def test_showcase_middle_matching(self, showcase):
        posts = compute_posts(showcase)
        assert check_a_popular(showcase, posts, showcase_full(showcase))

    def test_obstruction_matches_oracle(self):
        # The post graph rules out 53 of the side-4 instances and 37 of the
        # side-6 ones checked here; the solver's engine decides 148 and 127
        # more as none.  The oracle needs seconds for each 6x5 and 6x6
        # complete instance, so those 54 (more than 24 edges) are skipped.
        fired = 0
        for max_side, seeds in ((4, 2000), (6, 1000)):
            for seed in range(seeds):
                inst = random_instance(seed, max_side)
                if inst.m > 24:
                    continue
                blocker = a_popular_obstruction(inst, compute_posts(inst))
                exists = bool(ground_truth(inst).a_popular)
                assert (blocker is None) == exists, (max_side, seed)
                if blocker is not None:
                    assert blocker < inst.num_agents, (max_side, seed)
                    fired += 1
        assert fired == 90

    def test_obstruction_is_smallest_agent_of_an_overflowing_component(self):
        # The seeds of the oracle test above, without its size cut, and five
        # instances of the benchmark's random shape.
        nx = pytest.importorskip("networkx")
        insts = [
            random_instance(seed, max_side)
            for max_side, seeds in ((4, 2000), (6, 1000))
            for seed in range(seeds)
        ]
        insts += [
            parse_instance(generate(2000, 2000, 5 / 2000, seed))
            for seed in range(1, 6)
        ]
        fired = 0
        for inst in insts:
            posts = compute_posts(inst)
            want = obstruction_reference(nx, inst, posts)
            assert a_popular_obstruction(inst, posts) == want
            fired += want is not None
        assert fired == 118 + 5

    def test_matches_election_definition_both_ways(self):
        for seed in range(80):
            inst = random_instance(seed)
            posts = compute_posts(inst)
            report = ground_truth(inst)
            truth = set(report.a_popular)
            for mat in enumerate_matchings(inst):
                assert check_a_popular(inst, posts, mat) == (
                    mat in truth
                ), (seed, mat.partner)


def obstruction_reference(nx, inst, posts):
    """The smallest agent whose job-graph edge f(a)-s(a) lies in a
    component with more such edges than jobs, or ``None``."""
    graph = nx.MultiGraph()
    graph.add_nodes_from(range(inst.num_agents, inst.n))
    for a in range(inst.num_agents):
        if posts.s[a] != a:
            graph.add_edge(int(posts.f[a]), int(posts.s[a]), key=a)
    blockers = []
    for part in nx.connected_components(graph):
        edges = graph.subgraph(part).edges(keys=True)
        if len(edges) > len(part):
            blockers += [a for _, _, a in edges]
    return min(blockers, default=None)


def _drop_pair(rng, inst, mat) -> Matching:
    """``mat`` without one of its pairs, chosen at random."""
    pairs = list(mat.pairs(inst))
    if pairs:
        pairs.pop(rng.randrange(len(pairs)))
    return matching_of(inst, pairs)


def _zero_sum(rng, alpha, scope) -> None:
    """Step random in-scope entries toward zero until the scope sums to 0."""
    while (total := sum(alpha[u] for u in scope)) != 0:
        u = rng.choice(scope)
        step = -1 if total > 0 else 1
        if -1 <= alpha[u] + step <= 1:
            alpha[u] += step


def _reference_check(inst, mat, alpha, scope) -> bool:
    """check_witness spelled out with one edge_weight call per edge and loop."""
    inside = set(scope)
    if any(alpha[u] not in (-1, 0, 1) for u in scope):
        return False
    if sum(alpha[u] for u in scope) != 0:
        return False
    if any(alpha[u] < edge_weight(inst, mat, (u, u)) for u in scope):
        return False
    return all(
        alpha[a] + alpha[b] >= edge_weight(inst, mat, (a, b))
        for a, b in edge_pairs(inst)
        if a in inside and b in inside
    )

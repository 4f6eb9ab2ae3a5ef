"""Vote weights, popularity verification, certificates, one-sided checks."""

import itertools
import random

import pytest

from popmatch import (
    InstanceError,
    Matching,
    check_a_popular,
    check_witness,
    compute_posts,
    edge_weight,
    generate,
    parse_instance,
    run_election,
    stable_matching,
    verify_popular,
    wt_total,
)
from popmatch.oracle import enumerate_matchings, ground_truth

from conftest import (
    ids,
    match_of,
    random_instance,
    showcase_full,
    size_gap_max,
    size_gap_stable,
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
        a0 = size_gap.id_of("a0")
        stable = size_gap_stable(size_gap)
        assert edge_weight(size_gap, stable, (a0, a0)) == 0
        assert edge_weight(size_gap, size_gap_max(size_gap), (a0, a0)) == -1

    def test_non_edge_rejected(self, size_gap):
        a0, b0 = ids(size_gap, "a0", "b0")
        with pytest.raises(InstanceError):
            edge_weight(size_gap, size_gap_stable(size_gap), (a0, b0))


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
            popular = {m.partner for m in report.popular}
            for mat in enumerate_matchings(inst):
                verdict = verify_popular(inst, mat)
                assert verdict.popular == (mat.partner in popular), (seed, mat)

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
                    if mat.is_self(u):
                        assert alpha[u] == 0


class TestAgainstNetworkx:
    """Margins beyond the oracle's size cap, against an independent solver."""

    def test_margin_is_max_weight_matching(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(2024)
        for seed in range(30):
            side = 40 + seed
            text = generate(side, side + seed % 3, (2 + seed % 4) / side, seed)
            inst = parse_instance(text)
            edges = list(inst.edges)
            rng.shuffle(edges)
            taken: set[int] = set()
            pairs = []
            for a, b in edges:
                if a not in taken and b not in taken and rng.random() < 0.7:
                    taken.update((a, b))
                    pairs.append((a, b))
            for mat in (stable_matching(inst), Matching.from_pairs(inst, pairs)):
                loop = [edge_weight(inst, mat, (u, u)) for u in range(inst.n)]
                graph = nx.Graph()
                for a, b in inst.edges:
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

    def test_matching_must_stay_inside_scope(self, size_gap):
        mat = size_gap_max(size_gap)
        b1 = size_gap.id_of("b1")
        scope = [u for u in range(size_gap.n) if u != b1]
        with pytest.raises(ValueError, match="subgraph"):
            check_witness(size_gap, mat, (0,) * size_gap.n, vertices=scope)


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

    def test_matches_election_definition_both_ways(self):
        for seed in range(80):
            inst = random_instance(seed)
            posts = compute_posts(inst)
            report = ground_truth(inst)
            truth = {m.partner for m in report.a_popular}
            for mat in enumerate_matchings(inst):
                assert check_a_popular(inst, posts, mat) == (
                    mat.partner in truth
                ), (seed, mat.partner)

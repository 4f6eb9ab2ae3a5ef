"""Ground-truth enumeration, elections, and certificate search."""

import pytest

from popmatch import Matching, check_witness, generate, parse_instance
from popmatch import oracle
from popmatch.mirror import mirror_system
from popmatch.oracle import (
    MATCHING_CAP,
    OracleCapError,
    enumerate_matchings,
    ground_truth,
    witness_search,
)

from conftest import (
    blocking_edges,
    id_of,
    make_mirror,
    random_instance,
    showcase_full,
    showcase_max,
    showcase_stable,
    size_gap_max,
    size_gap_stable,
    stable_matching,
    stable_vertices,
)


class TestEnumeration:
    def test_count_equals_enumeration(self):
        for seed in range(150):
            inst = random_instance(seed, max_side=5)
            count = sum(1 for _ in enumerate_matchings(inst))
            assert oracle._matching_count(inst, count) == count, seed

    def test_matching_cap_refuses_before_enumerating(self):
        # 8x8 complete: inside the vertex cap, with 1,441,729 matchings.
        inst = parse_instance(generate(8, 8, 1.0, seed=0))
        assert oracle._matching_count(inst, MATCHING_CAP) > MATCHING_CAP
        with pytest.raises(OracleCapError, match="more than 10000 matchings"):
            ground_truth(inst)

    def test_matching_cap_admits_complete_5x6(self):
        inst = parse_instance(generate(5, 6, 1.0, seed=0))
        assert sum(1 for _ in enumerate_matchings(inst)) == 4051

    def test_size_gap_has_five(self, size_gap):
        assert sum(1 for _ in enumerate_matchings(size_gap)) == 5

    def test_no_edges_single_matching(self):
        inst = parse_instance("agents:\njobs: b0\n")
        assert sum(1 for _ in enumerate_matchings(inst)) == 1

    def test_single_pair_has_two(self):
        inst = parse_instance("agents: a\njobs: b\na > b\nb > a\n")
        assert sum(1 for _ in enumerate_matchings(inst)) == 2

    def test_each_matching_once(self):
        for seed in range(30):
            inst = random_instance(seed, max_side=3)
            seen = list(enumerate_matchings(inst))
            assert len(seen) == len(set(seen))

    def test_cap_enforced(self):
        # 17 vertices, one over the cap, and few edges: the vertex count
        # alone refuses it.
        inst = parse_instance(generate(9, 8, 0.2, seed=0))
        assert oracle._matching_count(inst, MATCHING_CAP) <= MATCHING_CAP
        with pytest.raises(OracleCapError, match="17 vertices, enumeration cap is 16"):
            list(enumerate_matchings(inst))


class TestGroundTruth:
    def test_size_gap_fully_popular_pair(self, size_gap):
        report = ground_truth(size_gap)
        fully = set(report.fully_popular)
        assert fully == {size_gap_stable(size_gap), size_gap_max(size_gap)}
        assert report.max_fully_popular_size == 2

    def test_identical_prefs_nothing_agent_popular(self, identical_prefs):
        report = ground_truth(identical_prefs)
        assert report.num_matchings == 34
        assert report.a_popular == ()
        assert report.fully_popular == ()
        assert report.max_fully_popular_size is None

    def test_showcase_size_profile(self, showcase):
        report = ground_truth(showcase)
        assert report.min_popular_size == 4
        assert report.max_popular_size == 6
        assert report.max_fully_popular_size == 5
        popular = set(report.popular)
        assert showcase_max(showcase) in popular
        assert showcase_stable(showcase) in popular
        a_pop = set(report.a_popular)
        for mat in report.popular:
            if mat.size(showcase) in (4, 6):
                assert mat not in a_pop
        assert showcase_full(showcase) in set(report.fully_popular)

    def test_fully_is_intersection(self):
        for seed in range(60):
            inst = random_instance(seed)
            report = ground_truth(inst)
            pop = set(report.popular)
            apop = set(report.a_popular)
            fully = set(report.fully_popular)
            assert fully == pop & apop

    def test_every_stable_matching_is_popular(self):
        for seed in range(80):
            inst = random_instance(seed)
            report = ground_truth(inst)
            popular = set(report.popular)
            assert stable_matching(inst) in popular
            # and stable matchings are exactly the blocking-free ones
            for mat in enumerate_matchings(inst):
                if not blocking_edges(inst, mat):
                    assert mat in popular

    def test_popular_loops_are_engine_unstable_vertices(self):
        # The oracle derives stable vertices from its own enumeration, so
        # this checks the engine against it.
        for seed in range(200):
            inst = random_instance(seed)
            report = ground_truth(inst)
            unstable = frozenset(range(inst.n)) - stable_vertices(inst)
            assert report.popular_loops == unstable, seed


class TestWitnessSearch:
    def test_stable_finds_zero_vector(self, size_gap):
        assert witness_search(size_gap, size_gap_stable(size_gap)) == (
            0,
        ) * size_gap.n

    def test_size_gap_max_has_witness(self, size_gap):
        mat = size_gap_max(size_gap)
        alpha = witness_search(size_gap, mat)
        assert alpha is not None
        assert check_witness(size_gap, mat, alpha)

    def test_unpopular_has_none(self, size_gap):
        bad = Matching.from_pairs(
            size_gap, [(id_of(size_gap, "a0"), id_of(size_gap, "b1"))]
        )
        assert witness_search(size_gap, bad) is None

    def test_cap_enforced(self):
        inst = parse_instance(generate(7, 6, 0.3, seed=0))
        mat = Matching(tuple(range(inst.n)))
        with pytest.raises(OracleCapError, match="13 vertices, witness search"):
            witness_search(inst, mat)

    def test_existence_matches_elections(self):
        # A certificate exists exactly for the matchings that win or tie
        # every election, in both directions.
        for seed in range(60):
            inst = random_instance(seed, max_side=3)
            popular = set(ground_truth(inst).popular)
            for mat in enumerate_matchings(inst):
                flag = witness_search(inst, mat) is not None
                assert flag == (mat in popular), seed


class TestMirrorStableSizeLaw:
    def test_engine_matching_size_is_order_independent(self, monkeypatch):
        # Shuffling which left copy proposes first never changes the
        # resulting matching, hence never its size nor its alone copies.
        import random
        from collections import deque

        from popmatch import engine

        rng = random.Random(7)

        def shuffled(items):
            items = list(items)
            return deque(rng.sample(items, len(items)))

        for seed in range(30):
            inst = random_instance(seed, max_side=3)
            mirror = make_mirror(inst)
            base = mirror_system(mirror)
            base.run()
            for _ in range(3):
                system = mirror_system(mirror)
                with monkeypatch.context() as patch:
                    # The run's first queue, in a random order.
                    patch.setattr(engine, "deque", shuffled)
                    system.run()
                assert system.left_match.tolist() == base.left_match.tolist()
                assert system.right_match.tolist() == base.right_match.tolist()

"""Mirror graph construction, realizations, projections, partitions."""

import gc
import random
import tracemalloc

import numpy as np
import pytest

from popmatch import (
    Matching,
    check_a_popular,
    compute_posts,
    legal_edge_set,
    parse_instance,
    verify_popular,
)
from popmatch.mirror import (
    MirrorGraph,
    MirrorMatching,
    classify_partition,
    format_mirror,
    mirror_blocking_edges,
    mirror_system,
    project,
    realize_witnessed,
)
from popmatch.oracle import ground_truth, witness_search
from popmatch.solver import _solve

from conftest import (
    SHOWCASE_TEXT,
    SIZE_GAP_TEXT,
    a_popular_reference,
    composed_text,
    edge_id,
    edge_pairs,
    forbidden_reference,
    id_of,
    ids,
    is_forbidden,
    left_list,
    make_mirror,
    mirror_edges,
    partition_reference,
    partner_ranks_reference,
    prefix_blocking_reference,
    project_reference,
    random_instance,
    random_matching,
    realize_reference,
    ring_text,
    showcase_full,
    size_gap_max,
    stable_matching,
    twin,
    uses_forbidden_reference,
)

# Frozen because its left-optimal legal mirror matching differs between the
# two halves (found by sweeping seeded instances).
ASYMMETRIC_TEXT = """\
agents: a0 a1 a2
jobs: b0 b1
a0 > b1 b0
a1 > b1 b0
a2 > b1
b0 > a0 a1
b1 > a0 a1 a2
"""

# What ``popmatch edges --dump-mirror`` prints for SIZE_GAP_TEXT: each copy's
# edges in rank order, "!" marking forbidden ones.
SIZE_GAP_DUMP = """\
mirror graph: 8 vertices, 16 edges
a0_l > (a0_l^+, b1_r^-) (a0_l^-, b1_r^+) (a0_l^-, a0_r^+)
a1_l > (a1_l^+, b1_r^-) (a1_l^+, b0_r^-) (a1_l^-, b1_r^+) (a1_l^-, b0_r^+) (a1_l^-, a1_r^+)!
b0_l > (b0_l^+, a1_r^-) (b0_l^-, a1_r^+) (b0_l^-, b0_r^+)
b1_l > (b1_l^+, a1_r^-) (b1_l^+, a0_r^-) (b1_l^-, a1_r^+) (b1_l^-, a0_r^+) (b1_l^-, b1_r^+)!
a0_r > (b1_l^-, a0_r^+) (a0_l^-, a0_r^+) (b1_l^+, a0_r^-)
a1_r > (b1_l^-, a1_r^+) (b0_l^-, a1_r^+) (a1_l^-, a1_r^+)! (b1_l^+, a1_r^-) (b0_l^+, a1_r^-)
b0_r > (a1_l^-, b0_r^+) (b0_l^-, b0_r^+) (a1_l^+, b0_r^-)
b1_r > (a1_l^-, b1_r^+) (a0_l^-, b1_r^+) (b1_l^-, b1_r^+)! (a1_l^+, b1_r^-) (a0_l^+, b1_r^-)
"""


def realize(mirror, mat, alpha=None):
    """``realize_witnessed`` with ``mat``'s partner ranks, by default with
    the all-zero certificate: the embedding of a stable matching."""
    inst = mirror.inst
    if alpha is None:
        alpha = (0,) * inst.n
    return realize_witnessed(mirror, mat, mat.partner_ranks(inst), alpha)


def per_edge_reference(inst):
    """Each mirror edge's ``(left tag, right tag, is twin, is forbidden)``.

    Built as explicit per-edge sequences, one entry per id, with the
    forbidden ids taken from the legal key set.
    """
    m, n = inst.m, inst.n
    left_tag = [1, -1, 1, -1] * m + [-1] * n
    right_tag = [-1, 1, -1, 1] * m + [1] * n
    g_edge = [k for k in range(m) for _ in range(4)] + [-1] * n
    forbidden = forbidden_reference(inst, legal_edge_set(inst).legal)
    return [
        (left_tag[e], right_tag[e], g_edge[e] < 0, e in forbidden)
        for e in range(4 * m + n)
    ]


class TestBuild:
    def test_size_gap_edge_count(self, size_gap):
        mirror = make_mirror(size_gap)
        assert mirror.num_edges == 4 * size_gap.m + size_gap.n

    def test_stable_vertex_twins_forbidden(self, size_gap):
        mirror = make_mirror(size_gap)
        a0, a1, b0, b1 = ids(size_gap, "a0", "a1", "b0", "b1")
        assert is_forbidden(mirror, twin(mirror, a1))
        assert is_forbidden(mirror, twin(mirror, b1))
        assert not is_forbidden(mirror, twin(mirror, a0))
        assert not is_forbidden(mirror, twin(mirror, b0))

    def test_invalid_edge_copies_all_forbidden(self, identical_prefs):
        # b3 is neither a top choice nor any agent's fallback, so every
        # signed copy of every edge into it is forbidden.
        mirror = make_mirror(identical_prefs)
        b3 = id_of(identical_prefs, "b3")
        for k, (a, b) in enumerate(edge_pairs(identical_prefs)):
            if b == b3:
                for off in range(4):
                    assert is_forbidden(mirror, 4 * k + off)

    def test_rank_orders(self, size_gap):
        # Left copies: partner-minus block, partner-plus block, twin last.
        # Right copies: partner-minus block, twin, partner-plus block.
        mirror = make_mirror(size_gap)
        system = mirror_system(mirror)
        a1 = id_of(size_gap, "a1")
        row = left_list(system, a1)
        assert [mirror.right_tag(e) for e in row] == [-1, -1, 1, 1, 1]
        assert mirror.is_twin(row[-1])
        incident = sorted(
            (
                e
                for e in range(mirror.num_edges)
                if system.edge_right[e] == a1
                and (mirror.is_twin(e) or system.edge_left[e] != a1)
            ),
            key=lambda e: system.right_rank[e],
        )
        assert [mirror.left_tag(e) for e in incident] == [-1, -1, -1, 1, 1]
        assert mirror.is_twin(incident[2])

    def test_left_ranks_are_list_positions(self, showcase):
        # Tags, twins and forbidden copies are arithmetic on the edge id;
        # they must agree with explicit per-edge sequences.
        for inst in [showcase] + [random_instance(seed) for seed in range(60)]:
            mirror = make_mirror(inst)
            forbidden = mirror.forbidden_flags().tolist()
            assert [
                (
                    mirror.left_tag(e),
                    mirror.right_tag(e),
                    mirror.is_twin(e),
                    forbidden[e],
                )
                for e in range(mirror.num_edges)
            ] == per_edge_reference(inst)
            system = mirror_system(mirror)
            for u in range(inst.n):
                row = left_list(system, u)
                assert all(system.edge_left[e] == u for e in row)
            # Every edge sits in exactly one copy's list.
            assert sorted(system.list_edges) == list(range(mirror.num_edges))

    def test_dump_lists_every_copy(self, size_gap):
        text = format_mirror(make_mirror(size_gap))
        for name in size_gap.names:
            assert f"{name}_l >" in text
            assert f"{name}_r >" in text
        assert text == SIZE_GAP_DUMP

    def test_retained_memory_per_edge(self):
        # The system keeps the flat lists it builds and the endpoints and
        # right ranks it is given, all int64 arrays, and one forbidden byte
        # per edge, about 35 B per edge in all; the graph keeps only the
        # shared legal flags.  A forbidden flag list (8 B per edge) or
        # per-edge tuples of ints would not fit.
        inst = parse_instance(composed_text(1000, seed=3))
        classification = legal_edge_set(inst)
        gc.collect()
        tracemalloc.start()
        try:
            mirror = MirrorGraph(inst, classification.legal_flags)
            system = mirror_system(mirror)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.num_left == inst.n
        assert retained < 60 * mirror.num_edges, retained / mirror.num_edges


def blocking_reference(mh):
    """Every mirror edge whose two ends prefer it to their matches, by full scan.

    A copy's left rank is its index in its left copy's list.
    """
    mirror = mh.mirror
    system = mirror_system(mirror)
    lrank = [0] * mirror.num_edges
    for u in range(mirror.inst.n):
        for i, e in enumerate(left_list(system, u)):
            lrank[e] = i
    rrank = system.right_rank
    blockers = []
    for e in range(mirror.num_edges):
        le = mh.left_edge[system.edge_left[e]]
        re = mh.right_edge[system.edge_right[e]]
        if e in (le, re):
            continue
        if (le == -1 or lrank[e] < lrank[le]) and (
            re == -1 or rrank[e] < rrank[re]
        ):
            blockers.append(e)
    return tuple(blockers)


def random_mirror_matchings(rng, mirror, count: int):
    """Seeded random partial mirror matchings, ``count`` of them.

    Each edge, in random order, joins when both its copies are still free
    and a coin says so.
    """
    inst, system = mirror.inst, mirror_system(mirror)
    for _ in range(count):
        left, right = [-1] * inst.n, [-1] * inst.n
        edges = list(range(mirror.num_edges))
        rng.shuffle(edges)
        keep = rng.random()
        for e in edges:
            u, v = system.edge_left[e], system.edge_right[e]
            if left[u] == right[v] == -1 and rng.random() < keep:
                left[u] = right[v] = e
        yield MirrorMatching(mirror, np.array(left), np.array(right))


class TestBlockingEdges:
    def test_prefix_scan_equals_full_scan(self):
        rng = random.Random(5)
        insts = [random_instance(seed) for seed in range(150)]
        insts += [random_instance(seed, max_side=7) for seed in range(30)]
        found = 0
        for inst in insts:
            for mh in random_mirror_matchings(rng, make_mirror(inst), 8):
                want = blocking_reference(mh)
                assert mirror_blocking_edges(mh) == want, inst
                found += bool(want)
        assert found > 500


class TestEmbed:
    def test_size_gap_embed(self, size_gap):
        mirror = make_mirror(size_gap)
        mh = realize(mirror, stable_matching(size_gap))
        genuine = sum(
            1 for e in mh.left_edge if not mirror.is_twin(e)
        )
        twins = sum(1 for e in mh.left_edge if mirror.is_twin(e))
        assert (genuine, twins) == (2, 2)
        assert mirror_blocking_edges(mh) == ()

    def test_no_edges_means_all_twins(self):
        inst = parse_instance("agents:\njobs: b0 b1\n")
        mirror = make_mirror(inst)
        mh = realize(mirror, Matching((0, 1)))
        assert all(mirror.is_twin(e) for e in mh.left_edge)

    def test_showcase_embed_stable(self, showcase):
        from conftest import showcase_stable

        mirror = make_mirror(showcase)
        mh = realize(mirror, showcase_stable(showcase))
        assert mirror_blocking_edges(mh) == ()

    def test_random_stable_embeddings_never_blocked(self):
        for seed in range(80):
            inst = random_instance(seed)
            mirror = make_mirror(inst)
            mh = realize(mirror, stable_matching(inst))
            assert mirror_blocking_edges(mh) == (), seed


class TestRealize:
    def test_zero_witness_reproduces_embedding(self, size_gap):
        # The embedding puts each pair on its minus-to-plus copies in both
        # halves and each single vertex on its twin.
        mirror = make_mirror(size_gap)
        stable = stable_matching(size_gap)
        left, right = [-1] * size_gap.n, [-1] * size_gap.n
        for a, b in stable.pairs(size_gap):
            k = edge_id(size_gap, a, b)
            left[a] = right[b] = 4 * k + 1
            left[b] = right[a] = 4 * k + 3
        for u in range(size_gap.n):
            if stable.is_self(u):
                left[u] = right[u] = twin(mirror, u)
        assert mirror_edges(realize(mirror, stable)) == (left, right)

    def test_size_gap_max_realization_stable(self, size_gap):
        mirror = make_mirror(size_gap)
        mat = size_gap_max(size_gap)
        alpha = verify_popular(size_gap, mat).witness
        mh = realize(mirror, mat, alpha)
        assert mirror_blocking_edges(mh) == ()

    def test_showcase_full_realization_legal_and_stable(self, showcase):
        mirror = make_mirror(showcase)
        mat = showcase_full(showcase)
        alpha = witness_search(showcase, mat)
        assert alpha is not None
        mh = realize(mirror, mat, alpha)
        assert mirror_blocking_edges(mh) == ()
        assert not mh.uses_forbidden()

    def test_tag_sums_are_twice_the_certificate(self, size_gap):
        mirror = make_mirror(size_gap)
        mat = size_gap_max(size_gap)
        alpha = verify_popular(size_gap, mat).witness
        mh = realize(mirror, mat, alpha)
        system = mirror_system(mirror)
        for u in range(size_gap.n):
            le, re = mh.left_edge[u], mh.right_edge[u]
            ltag = mirror.left_tag(le) if system.edge_left[le] == u else mirror.right_tag(le)
            rtag = mirror.right_tag(re) if system.edge_right[re] == u else mirror.left_tag(re)
            assert ltag + rtag == 2 * alpha[u]

    def test_non_cancelling_pair_rejected(self, size_gap):
        mirror = make_mirror(size_gap)
        mat = size_gap_max(size_gap)
        # (a1, b0) is matched but the entries sum to 2 instead of zero.
        with pytest.raises(ValueError, match="non-cancelling"):
            realize(mirror, mat, (1, 1, 1, -1))

    def test_all_popular_realizations_stable(self):
        # Every popular matching with any certificate realizes to a stable
        # mirror matching; fully popular ones realize to legal ones.
        for seed in range(60):
            inst = random_instance(seed, max_side=3)
            mirror = make_mirror(inst)
            report = ground_truth(inst)
            fully = set(report.fully_popular)
            for mat in report.popular:
                alpha = witness_search(inst, mat)
                assert alpha is not None
                mh = realize(mirror, mat, alpha)
                assert mirror_blocking_edges(mh) == (), seed
                if mat in fully:
                    assert not mh.uses_forbidden(), seed


class TestProject:
    def test_round_trip_both_halves(self, size_gap):
        mirror = make_mirror(size_gap)
        stable = stable_matching(size_gap)
        mh = realize(mirror, stable)
        upper, lower = project(mh)
        assert upper == lower == stable

    def test_realizations_are_symmetric(self, showcase):
        mirror = make_mirror(showcase)
        mat = showcase_full(showcase)
        alpha = witness_search(showcase, mat)
        mh = realize(mirror, mat, alpha)
        upper, lower = project(mh)
        assert upper == lower == mat

    def test_engine_matching_can_differ_between_halves(self):
        inst = parse_instance(ASYMMETRIC_TEXT)
        system = mirror_system(make_mirror(inst))
        system.run()
        assert -1 not in system.left_match
        mh = MirrorMatching(
            make_mirror(inst), np.array(system.left_match), np.array(system.right_match)
        )
        upper, lower = project(mh)
        assert upper != lower


class TestPartition:
    def test_size_gap_embedding_partition(self, size_gap):
        mirror = make_mirror(size_gap)
        mh = realize(mirror, stable_matching(size_gap))
        upper, lower = classify_partition(mh)
        a0, a1, b0, b1 = ids(size_gap, "a0", "a1", "b0", "b1")
        # a0 and b0 are twin-matched; a1 sits on its minus tag in the upper
        # half and its plus tag in the lower one, b1 the other way round.
        assert upper[a0] == lower[a0] == 0
        assert upper[b0] == lower[b0] == 0
        assert (upper[a1], lower[a1]) == (-1, 1)
        assert (upper[b1], lower[b1]) == (1, -1)

    def test_all_twin_partition(self):
        inst = parse_instance("agents:\njobs: b0 b1\n")
        mirror = make_mirror(inst)
        mh = realize(mirror, Matching((0, 1)))
        assert signs_of(mh) == ((0, 0), (0, 0))

    def test_partition_covers_each_side(self):
        for seed in range(40):
            inst = random_instance(seed)
            system = mirror_system(make_mirror(inst))
            system.run()
            if -1 in system.left_match:
                continue
            mh = MirrorMatching(
                make_mirror(inst), np.array(system.left_match), np.array(system.right_match)
            )
            upper, lower = classify_partition(mh)
            assert len(upper) == len(lower) == inst.n
            for u in range(inst.n):
                assert upper[u] in (-1, 0, 1) and lower[u] in (-1, 0, 1)
                on_twin = mh.mirror.is_twin(mh.left_edge[u])
                assert (upper[u] == 0) == (lower[u] == 0) == on_twin

    def test_final_solver_partition_containments(self, showcase):
        for inst in (showcase, parse_instance(ASYMMETRIC_TEXT)):
            _, state = _solve(inst, validate=True)
            upper, lower = state.signs
            for u in range(inst.n):
                if state.marks[u]:
                    continue
                if u < inst.num_agents:
                    assert upper[u] != -1 or lower[u] == -1
                    assert lower[u] != 1 or upper[u] == 1
                else:
                    assert upper[u] != 1 or lower[u] == 1
                    assert lower[u] != -1 or upper[u] == -1

    def test_not_perfect_rejected(self, size_gap):
        mirror = make_mirror(size_gap)
        mh = realize(mirror, stable_matching(size_gap))
        left = mh.left_edge.copy()
        left[0] = -1
        broken = MirrorMatching(mirror, left, mh.right_edge)
        with pytest.raises(ValueError, match="not perfect"):
            classify_partition(broken)


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def signs_of(mh):
    """``classify_partition(mh)`` as two tuples."""
    return tuple(tuple(signs.tolist()) for signs in classify_partition(mh))


def realized_edges(realize, *args):
    """The two edge lists of ``realize(*args)``."""
    return mirror_edges(realize(*args))


class TestListReference:
    """The whole-array passes equal the list-based definitions they replaced."""

    @staticmethod
    def instances():
        for seed in range(500):
            yield random_instance(seed)
        for k in range(1, 25):
            yield parse_instance(composed_text(k, seed=k))
        for n in range(2, 40):
            yield parse_instance(ring_text(n))
        yield parse_instance(SIZE_GAP_TEXT)
        yield parse_instance(SHOWCASE_TEXT)

    @staticmethod
    def assert_same(mh):
        """Every epilogue function on ``mh`` equals its reference."""
        assert project(mh) == project_reference(mh)
        assert outcome(signs_of, mh) == outcome(partition_reference, mh)
        want = prefix_blocking_reference(mh)
        assert mirror_blocking_edges(mh) == want
        assert mh.uses_forbidden() == uses_forbidden_reference(mh)
        return bool(want)

    def test_final_mirror_matchings_equal_reference(self):
        # The engine's final matching of every solve that reaches the mirror:
        # perfect when it is found, not perfect when the run left a left
        # copy alone.
        counts = {"found": 0, "none": 0, "rounds": 0}
        for inst in self.instances():
            report, state = _solve(inst)
            if state is None:
                continue
            counts[report.outcome] += 1
            counts["rounds"] += report.iterations > 0
            # A rebuilt system's run ends in the solve's state, as the end
            # state does not depend on the order of proposals.
            system = mirror_system(state.mirror)
            system.run()
            mh = MirrorMatching(
                state.mirror,
                np.array(system.left_match),
                np.array(system.right_match),
            )
            self.assert_same(mh)
            if report.outcome != "found":
                continue
            upper, lower = partition_reference(mh)
            assert tuple(tuple(s.tolist()) for s in state.signs) == (upper, lower)
            assert (state.matching, state.lower) == project_reference(mh)
            assert report.witness == tuple(
                0 if marked else s for marked, s in zip(state.marks, upper)
            )
            for mat in (state.matching, state.lower):
                own = mat.partner_ranks(inst)
                assert own.tolist() == partner_ranks_reference(inst, mat)
            own = state.matching.partner_ranks(inst)
            realized = realize_witnessed(
                state.mirror, state.matching, own, report.witness
            )
            assert mirror_edges(realized) == mirror_edges(realize_reference(
                state.mirror, state.matching, own, report.witness
            ))
            assert not self.assert_same(realized)
            posts = compute_posts(inst)
            assert check_a_popular(inst, posts, state.matching)
            assert a_popular_reference(inst, posts, state.matching)
        assert counts["found"] >= 300 and counts["none"] >= 30, counts
        assert counts["rounds"] >= 20, counts

    def test_random_mirror_matchings_equal_reference(self):
        # Partial ones, and perfect but unstable ones: the random partial
        # matchings with every copy pair that is still free put on its twin.
        rng = random.Random(7)
        perfect = blocked = 0
        for seed in range(200):
            inst = random_instance(seed, max_side=5)
            mirror = make_mirror(inst)
            for mh in random_mirror_matchings(rng, mirror, 6):
                blocked += self.assert_same(mh)
                left, right = list(mh.left_edge), list(mh.right_edge)
                for u in range(inst.n):
                    if left[u] == right[u] == -1:
                        left[u] = right[u] = twin(mirror, u)
                filled = MirrorMatching(mirror, np.array(left), np.array(right))
                perfect += -1 not in left and -1 not in right
                blocked += self.assert_same(filled)
        assert perfect >= 200 and blocked >= 1000, (perfect, blocked)

    def test_realizations_and_one_sided_checks_equal_reference(self):
        # Random matchings with random certificates: cancelling or not,
        # zero on single vertices or not.
        rng = random.Random(9)
        raised = 0
        for seed in range(300):
            inst = random_instance(seed, max_side=5)
            mirror = make_mirror(inst)
            posts = compute_posts(inst)
            for _ in range(4):
                mat = random_matching(rng, inst)
                own = mat.partner_ranks(inst)
                alpha = [0] * inst.n
                for a, b in mat.pairs(inst):
                    alpha[a] = rng.choice((-1, 0, 1))
                    alpha[b] = -alpha[a]
                if rng.random() < 0.5:
                    alpha[rng.randrange(inst.n)] = rng.choice((-1, 1))
                args = (mirror, mat, own, alpha)
                want = outcome(realized_edges, realize_reference, *args)
                got = outcome(realized_edges, realize_witnessed, *args)
                assert got == want
                raised += isinstance(want, tuple)
                assert check_a_popular(inst, posts, mat) == a_popular_reference(
                    inst, posts, mat
                )
        assert raised >= 200, raised

"""Valid/popular/legal classification and the popular subgraph."""

import gc
import tracemalloc
from itertools import compress

import numpy as np

from popmatch import Instance, compute_posts, legal_edge_set, parse_instance
from popmatch.engine import ProposalSystem
from popmatch.generator import generate
from popmatch.instance import Posts
from popmatch.legality import two_level_edges
from popmatch.mirror import MirrorGraph
from popmatch.oracle import enumerate_matchings, ground_truth

from conftest import (
    blocking_mask,
    classification_reference,
    composed_text,
    edge_pairs,
    forbidden_reference,
    id_of,
    ids,
    left_list,
    pair_families,
    plain_edges,
    project_two_level,
    random_instance,
    ring_instance,
    swap_sides,
    two_level_reference,
    vertex_lists,
)


def keyset(inst, classification_set):
    return sorted(
        (inst.names[u], inst.names[v]) for u, v in classification_set
    )


class TestValidEdges:
    def test_size_gap(self, size_gap):
        got = keyset(size_gap, legal_edge_set(size_gap).valid)
        assert got == [
            ("a0", "a0"),
            ("a0", "b1"),
            ("a1", "b0"),
            ("a1", "b1"),
            ("b0", "b0"),
        ]

    def test_top_choice_job_loop_excluded(self, size_gap):
        b1 = id_of(size_gap, "b1")
        assert (b1, b1) not in legal_edge_set(size_gap).valid

    def test_single_pair(self):
        inst = parse_instance("agents: a\njobs: b\na > b\nb > a\n")
        got = legal_edge_set(inst).valid
        assert got == frozenset({(0, 1), (0, 0)})

    def test_every_agent_has_exactly_two_valid_slots(self):
        for seed in range(60):
            inst = random_instance(seed)
            valid = legal_edge_set(inst).valid
            for a in range(inst.num_agents):
                incident = [k for k in valid if k[0] == a]
                assert len(incident) == 2


class TestPopularEdges:
    def test_size_gap(self, size_gap):
        got = keyset(size_gap, legal_edge_set(size_gap).popular)
        assert got == [
            ("a0", "a0"),
            ("a0", "b1"),
            ("a1", "b0"),
            ("a1", "b1"),
            ("b0", "b0"),
        ]

    def test_single_pair_no_loops(self):
        inst = parse_instance("agents: a\njobs: b\na > b\nb > a\n")
        assert legal_edge_set(inst).popular == frozenset({(0, 1)})

    def test_showcase_contains_stable_and_max(self, showcase):
        from conftest import showcase_max, showcase_stable

        popular = legal_edge_set(showcase).popular
        for mat in (showcase_stable(showcase), showcase_max(showcase)):
            assert set(mat.pairs(showcase)) <= popular

    def test_fast_equals_oracle_union(self):
        for seed in range(150):
            inst = random_instance(seed)
            fast = legal_edge_set(inst).popular
            report = ground_truth(inst)
            exact = report.popular_edges | frozenset(
                (u, u) for u in report.popular_loops
            )
            assert fast == exact, seed


class TestPairFamilies:
    def test_stable_pairs_subset_of_popular(self):
        for seed in range(40):
            inst = random_instance(seed)
            assert pair_families(inst)[0] <= legal_edge_set(inst).popular

    def test_two_level_instance_shape(self, size_gap):
        aux, na = two_level_reference(size_gap)
        assert na == size_gap.num_agents
        assert aux.num_agents == 2 * na
        assert aux.m == 2 * size_gap.m + 2 * na
        # High copies rank the last resort first; low copies rank it last.
        hi0 = vertex_lists(aux)[0]
        lo0 = vertex_lists(aux)[na]
        assert hi0[0] == lo0[-1]

    def test_two_level_instance_equals_named_build(self, showcase):
        # Reference: the two-level instance spelled out by name and passed
        # through the validating constructor.
        for inst in [showcase] + [random_instance(seed) for seed in range(60)]:
            name, lists, na = inst.names, vertex_lists(inst), inst.num_agents
            agents, job_ids = range(na), range(na, inst.n)
            pref = {}
            for a in agents:
                jobs = [name[b] for b in lists[a]]
                rest = f"{name[a]}^rest"
                pref[f"{name[a]}^hi"] = [rest] + jobs
                pref[f"{name[a]}^lo"] = jobs + [rest]
                pref[rest] = [f"{name[a]}^lo", f"{name[a]}^hi"]
            for b in job_ids:
                order = [name[a] for a in lists[b]]
                pref[name[b]] = [f"{x}^hi" for x in order] + [
                    f"{x}^lo" for x in order
                ]
            want = Instance.build(
                [f"{name[a]}^hi" for a in agents]
                + [f"{name[a]}^lo" for a in agents],
                [name[b] for b in job_ids]
                + [f"{name[a]}^rest" for a in agents],
                pref,
            )
            aux, na = two_level_reference(inst)
            assert na == inst.num_agents
            assert aux.names == want.names
            assert aux.num_agents == want.num_agents
            assert aux.layout == want.layout

    def test_dominant_pairs_are_two_level_stable_pairs(self):
        # Reference: the union of the two-level instance's stable matchings,
        # found by enumeration, projected back onto genuine edges.
        for seed in range(300):
            inst = random_instance(seed, max_side=3)
            aux, na = two_level_reference(inst)
            assert aux.n <= 16
            truth = set()
            mats = list(enumerate_matchings(aux))
            blocked = blocking_mask(aux, np.array([m.partner for m in mats]))
            for mat in compress(mats, ~blocked.any(axis=1)):
                truth |= project_two_level(inst, mat.pairs(aux), na)
            _, dominant = pair_families(inst)
            for edge in edge_pairs(inst):
                assert (edge in dominant) == (edge in truth), (seed, edge)

    def test_two_level_systems_equal_reference_systems(self, showcase):
        # The virtual systems run on G's edge layout; the reference systems
        # run on the materialized instance.  Edge ids differ, but every left
        # vertex must see the same right vertices at the same ranks.  A job
        # that no agent lists has an empty list in the job-proposing system.
        with_empty = 0
        for inst in [showcase] + [random_instance(seed) for seed in range(60)]:
            aux, _ = two_level_reference(inst)
            virtual_args, ref_args = two_level_edges(inst), plain_edges(aux)
            for proposers, virtual, ref in (
                (
                    "agents",
                    ProposalSystem(*virtual_args),
                    ProposalSystem(*ref_args),
                ),
                (
                    "jobs",
                    ProposalSystem(*swap_sides(*virtual_args)),
                    ProposalSystem(*swap_sides(*ref_args)),
                ),
            ):
                assert virtual.num_left == ref.num_left
                assert virtual.num_right == ref.num_right
                lists = [left_list(virtual, u) for u in range(ref.num_left)]
                for u, row in enumerate(lists):
                    assert [
                        (virtual.edge_right[e], virtual.right_rank[e])
                        for e in row
                    ] == [
                        (ref.edge_right[e], ref.right_rank[e])
                        for e in left_list(ref, u)
                    ]
                with_empty += proposers == "jobs" and [] in lists
        assert with_empty >= 1

    def test_dominant_pairs_beyond_enumeration(self):
        # The virtual walk against the stable pairs of the materialized
        # two-level instance, on instances far past the oracle's reach.
        insts = [random_instance(seed, max_side=8) for seed in range(300)]
        insts.append(ring_instance(50))
        # 50 to 399 vertices, two to four neighbors per agent on average.
        for seed, side in enumerate(range(25, 201, 25)):
            for degree in (2.0, 4.0):
                insts.append(parse_instance(generate(
                    side, side - seed % 3, degree / side, seed=seed
                )))
        for inst in insts:
            aux, na = two_level_reference(inst)
            want = project_two_level(inst, pair_families(aux)[0], na)
            assert pair_families(inst)[1] == want, inst.names

    def test_dominant_pairs_cover_max_size_popular(self, size_gap):
        a0, a1, b0, b1 = ids(size_gap, "a0", "a1", "b0", "b1")
        _, dom = pair_families(size_gap)
        assert (a0, b1) in dom and (a1, b0) in dom


class TestLegalEdgeSet:
    def test_size_gap_legal(self, size_gap):
        classification = legal_edge_set(size_gap)
        assert keyset(size_gap, classification.legal) == [
            ("a0", "a0"),
            ("a0", "b1"),
            ("a1", "b0"),
            ("a1", "b1"),
            ("b0", "b0"),
        ]

    def test_legal_is_exact_intersection(self):
        for seed in range(40):
            inst = random_instance(seed)
            classification = legal_edge_set(inst)
            assert classification.legal == (
                classification.valid & classification.popular
            )

    def test_size_gap_single_component(self, size_gap):
        classification = legal_edge_set(size_gap)
        assert len(classification.components) == 1
        assert set(classification.components[0]) == set(range(size_gap.n))

    def test_disjoint_pairs_give_two_components(self):
        inst = parse_instance(
            "agents: a0 a1\njobs: b0 b1\na0 > b0\na1 > b1\nb0 > a0\nb1 > a1\n"
        )
        classification = legal_edge_set(inst)
        assert len(classification.components) == 2

    def test_components_partition_all_vertices(self):
        for seed in range(60):
            inst = random_instance(seed)
            classification = legal_edge_set(inst)
            seen = [u for comp in classification.components for u in comp]
            assert sorted(seen) == list(range(inst.n))
            for u in range(inst.n):
                cid = classification.component_id[u]
                assert u in classification.components[cid]

    def test_fully_popular_matchings_use_only_legal_edges(self):
        for seed in range(100):
            inst = random_instance(seed)
            report = ground_truth(inst)
            legal = legal_edge_set(inst).legal
            for mat in report.fully_popular:
                for a, b in mat.pairs(inst):
                    assert (a, b) in legal, seed
                for u in range(inst.n):
                    if mat.is_self(u):
                        assert (u, u) in legal, seed

    def test_equals_key_set_reference(self):
        # The classification on edge ids against the same rules on
        # (agent, job) keys and rank dicts, with the mirror's forbidden ids.
        insts = [random_instance(seed, max_side=6) for seed in range(400)]
        for seed in range(50):
            side = 10 + 5 * seed
            insts.append(parse_instance(
                generate(side, side + seed % 7 - 3, 3.0 / side, seed=seed)
            ))
        insts += [ring_instance(n) for n in range(2, 40)]
        insts += [parse_instance(composed_text(k, seed=k)) for k in range(1, 30)]
        for inst in insts:
            got = legal_edge_set(inst)
            valid, popular, legal, component_id, components = (
                classification_reference(inst)
            )
            assert got.valid == valid, inst.names
            assert got.popular == popular, inst.names
            assert got.legal == legal, inst.names
            assert got.component_id.tolist() == list(component_id), inst.names
            assert got.components == components, inst.names
            mirror = MirrorGraph(inst, got.legal_flags)
            forbidden = set(np.flatnonzero(mirror.forbidden_flags()).tolist())
            assert forbidden == forbidden_reference(inst, legal), inst.names

    def test_transient_memory_per_edge(self):
        # Each rotation walk drops its job-proposing system before it
        # builds the agent-proposing one, and no system copies the arrays
        # it is given.  The first call builds the layout arrays that the
        # measured one reads.
        inst = parse_instance(composed_text(1000))
        legal_edge_set(inst)
        gc.collect()
        tracemalloc.start()
        try:
            legal_edge_set(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 450 * inst.m, peak / inst.m

    def test_given_posts_are_read(self, size_gap):
        posts = compute_posts(size_gap)
        given, own = legal_edge_set(size_gap, posts=posts), legal_edge_set(size_gap)
        for name in ("valid_flags", "popular_flags", "legal_flags", "component_id"):
            assert np.array_equal(getattr(given, name), getattr(own, name)), name
        assert given.components == own.components
        alone = Posts(posts.f, np.arange(size_gap.num_agents))
        valid = legal_edge_set(size_gap, posts=alone).valid
        assert {(a, a) for a in range(size_gap.num_agents)} <= valid

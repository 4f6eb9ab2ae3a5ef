"""Engine behavior: stability, forbidden edges, pair queries."""

import random
from itertools import compress

import numpy as np
import pytest

from popmatch import compute_posts, generate
from popmatch import engine, legal_edge_set, parse_instance, solve
from popmatch.engine import ProposalSystem
from popmatch.generator import chain_text
from popmatch.legality import two_level_edges
from popmatch.mirror import mirror_system
from popmatch.oracle import enumerate_matchings
from popmatch.popularity import a_popular_obstruction

from conftest import (
    blocking_edges,
    blocking_mask,
    composed_text,
    edge_id,
    edge_pairs,
    forbid,
    id_of,
    ids,
    is_forbidden,
    latin_text,
    left_list,
    make_mirror,
    matching_of,
    pair_families,
    pairs_by_name,
    plain_edges,
    planted_text,
    random_instance,
    random_text,
    ring_instance,
    ring_text,
    showcase_stable,
    stable_matching,
    stable_vertices,
    swap_sides,
    vertex_lists,
)
from golden import inputs as golden_inputs


def reference_lists(inst, kind):
    """Each left vertex's ranked edge ids as a list of its own, from the
    per-vertex lists.

    ``kind`` names the system: the plain ``agents`` or ``jobs`` one, the
    two-level ``two_level_agents`` or ``two_level_jobs`` one, or the
    ``mirror`` one.  Ids follow each system's numbering.
    """
    na, m, lists = inst.num_agents, inst.m, vertex_lists(inst)
    agent_rows = [[edge_id(inst, a, b) for b in lists[a]] for a in range(na)]
    job_rows = [
        [edge_id(inst, a, b) for a in lists[b]] for b in range(na, inst.n)
    ]
    if kind == "agents":
        return agent_rows
    if kind == "jobs":
        return job_rows
    if kind == "two_level_agents":
        return [[2 * m + a, *row] for a, row in enumerate(agent_rows)] + [
            [*(m + k for k in row), 2 * m + na + a]
            for a, row in enumerate(agent_rows)
        ]
    if kind == "two_level_jobs":
        return [[*row, *(m + k for k in row)] for row in job_rows] + [
            [2 * m + na + a, 2 * m + a] for a in range(na)
        ]
    return [
        [*(4 * k for k in row), *(4 * k + 1 for k in row), 4 * m + a]
        for a, row in enumerate(agent_rows)
    ] + [
        [*(4 * k + 2 for k in row), *(4 * k + 3 for k in row), 4 * m + na + j]
        for j, row in enumerate(job_rows)
    ]


def gale_shapley_reference(lists, system, forbidden):
    """Deferred acceptance from scratch on per-vertex lists, last in first
    out, run to the end.

    Ranks and endpoints are read off ``system``.  A left vertex that runs
    out of its list stays alone.  A proposal along a forbidden edge that its
    right vertex would take is rejected, and that vertex then refuses every
    edge it ranks at or below it, dropping its holder; it is starved while
    it holds nothing after that.  Returns ``(left_match, right_match,
    positions, starved)``, positions relative to each list's start.
    """
    edge_right, right_rank = system.edge_right, system.right_rank
    pos = [0] * len(lists)
    left = [-1] * len(lists)
    holder = [-1] * system.num_right
    right = [-1] * system.num_right
    cut = [float("inf")] * system.num_right
    starved = set()
    free = list(range(len(lists)))[::-1]
    while free:
        u = free.pop()
        while pos[u] < len(lists[u]):
            e = lists[u][pos[u]]
            r = edge_right[e]
            if right_rank[e] >= cut[r]:
                pos[u] += 1
                continue
            cut[r] = right_rank[e]
            if right[r] != -1:
                v = holder[r]
                left[v] = right[r] = -1
                pos[v] += 1
                free.append(v)
            if e in forbidden:
                starved.add(r)
                pos[u] += 1
                continue
            right[r], holder[r], left[u] = e, u, e
            starved.discard(r)
            break
    return left, right, pos, starved


def system_kinds(inst):
    """Each system kind's builder; every call gives a fresh system."""
    mirror = make_mirror(inst)
    plain, two_level = plain_edges(inst), two_level_edges(inst)
    return [
        ("agents", lambda: ProposalSystem(*plain)),
        ("jobs", lambda: ProposalSystem(*swap_sides(*plain))),
        ("two_level_agents", lambda: ProposalSystem(*two_level)),
        ("two_level_jobs", lambda: ProposalSystem(*swap_sides(*two_level))),
        ("mirror", lambda: mirror_system(mirror)),
    ]


def sweep_instances():
    """Small random instances of every shape, two sparse ones and a ring."""
    insts = [random_instance(seed) for seed in range(150)]
    insts += [random_instance(seed, max_side=7) for seed in range(40)]
    insts += [
        parse_instance(generate(n, n + 2, 3 / n, seed=n)) for n in (9, 16)
    ]
    insts.append(ring_instance(12))
    return insts


class TestReferenceEngine:
    """The engine on flat lists against Gale-Shapley on per-vertex lists."""

    def test_forbid_resume_sequences_match_reference(self):
        # Growing forbidden sets, each forbidden in one batch on a fresh
        # system, through infeasible runs too.
        rng = random.Random(7)
        compared = infeasible = mirror_feasible = with_empty = 0
        for inst in sweep_instances():
            for kind, fresh in system_kinds(inst):
                system = fresh()
                lists = reference_lists(inst, kind)
                assert [
                    left_list(system, u) for u in range(system.num_left)
                ] == lists, kind
                # A job that no agent lists has an empty two-level list.
                with_empty += kind == "two_level_jobs" and [] in lists
                assert system.total_list_length == sum(map(len, lists))
                built = {e for e, f in enumerate(system.forbidden) if f}
                edges = range(len(system.edge_left))
                batches = [[]] + [
                    rng.sample(edges, min(len(edges), rng.randint(1, 3)))
                    for _ in range(3)
                ]
                forbidden = set(built)
                for batch in batches:
                    forbidden.update(batch)
                    system = fresh()
                    forbid(system, forbidden - built)
                    system.run()
                    want = gale_shapley_reference(lists, system, forbidden)
                    starts = system.list_starts
                    assert (
                        system.left_match.tolist(),
                        system.right_match.tolist(),
                        [i - s for i, s in zip(system.next_i, starts)],
                    ) == want[:3], kind
                    compared += 1
                    if kind != "mirror":
                        continue
                    if -1 in system.left_match:
                        infeasible += 1
                    else:
                        # No right copy starves unless a left copy ends alone.
                        assert not want[3]
                        mirror_feasible += 1
        assert compared > 2000 and infeasible > 50 and mirror_feasible > 300
        assert with_empty >= 1


RUN_FIELDS = (
    "left_match", "right_match", "right_cut", "next_i", "proposals", "rejections"
)


class TestBatchedRounds:
    """Whole-array rounds, then the loop, end where the loop alone ends."""

    def test_rounds_end_in_the_loop_state(self, monkeypatch):
        # With rounds down to one free vertex, on every system kind of the
        # reference sweep, of blocks, planted blocks and a ring, and of
        # random instances whose mirror run leaves left copies alone after
        # its rounds; each with and without a few more edges forbidden.
        rng = random.Random(5)
        insts = sweep_instances() + [
            parse_instance(text)
            for text in (
                composed_text(40, seed=1),
                planted_text(40, 60, 2),
                ring_text(50),
                *(generate(2000, 3000, 5 / 3000, seed) for seed in range(1, 6)),
            )
        ]
        compared = failed = rounds = 0
        for inst in insts:
            for kind, fresh in system_kinds(inst):
                edges = range(fresh().total_list_length)
                for extra in ([], rng.sample(edges, min(len(edges), 3))):
                    runs = []
                    for batch_min in (1 << 60, 1):
                        monkeypatch.setattr(engine, "BATCH_MIN", batch_min)
                        system = fresh()
                        forbid(system, extra)
                        system.run()
                        runs.append(system)
                    loop, batched = runs
                    for field in RUN_FIELDS:
                        assert np.array_equal(
                            getattr(batched, field), getattr(loop, field)
                        ), (kind, field)
                    compared += 1
                    failed += kind == "mirror" and -1 in loop.left_match
                    rounds += batched.rounds
        assert compared > 1900 and failed > 100 and rounds > 5000

    def test_rounds_leave_no_sequential_stage(self, monkeypatch):
        # On benchmark-sized blocks and a ring, every system's rounds and
        # every walk's rounds finish the run, so a validated solve never
        # enters the proposal loop or the rotation loop.  Each system's
        # (rounds, proposals, rejections) is pinned, in the order plain
        # job- and agent-proposing, two-level job- and agent-proposing,
        # mirror: only the mirror system is forbidden anything.
        def entered(*args):
            raise AssertionError("the sequential stage was entered")

        runs = []
        run = ProposalSystem.run

        def counted(system):
            run(system)
            runs.append((system.rounds, system.proposals, system.rejections))

        monkeypatch.setattr(ProposalSystem, "run", counted)
        monkeypatch.setattr(ProposalSystem, "_drain", entered)
        monkeypatch.setattr(engine, "_rotation_loop", entered)
        pinned = {
            composed_text(1000, seed=3): [
                (2, 4000, 2000), (2, 4000, 2000), (5, 10000, 4000),
                (6, 11000, 5000), (8, 22000, 16000),
            ],
            ring_text(300): [
                (1, 300, 0), (1, 300, 0), (1, 600, 0), (1, 600, 0),
                (2, 900, 300),
            ],
        }
        for text, want in pinned.items():
            runs.clear()
            report = solve(parse_instance(text), validate=True)
            assert report.outcome == "found"
            assert runs == want


class TestOrderFreeVerdict:
    """An engine ``none`` names a vertex that no proposal order changes."""

    def test_none_vertex_is_the_smallest_alone_copy(self, monkeypatch):
        # The golden corpus's inputs whose mirror run leaves a left copy
        # alone, and five large random ones whose mirror systems run rounds:
        # the reported vertex is the smallest left copy that the reference
        # leaves alone, whatever BATCH_MIN.
        texts = [
            *golden_inputs().values(),
            *(generate(2000, 3000, 5 / 3000, seed) for seed in range(1, 6)),
        ]
        want = {}
        for text in texts:
            inst = parse_instance(text)
            if a_popular_obstruction(inst, compute_posts(inst)) is not None:
                continue
            system = mirror_system(make_mirror(inst))
            forbidden = {e for e, f in enumerate(system.forbidden) if f}
            lists = reference_lists(inst, "mirror")
            left = gale_shapley_reference(lists, system, forbidden)[0]
            if -1 in left:
                want[text] = left.index(-1)
        assert len(want) == 32 + 5
        for batch_min in (1, 256, 1 << 60):
            monkeypatch.setattr(engine, "BATCH_MIN", batch_min)
            for text, vertex in want.items():
                report = solve(parse_instance(text))
                assert report.outcome == "none", batch_min
                assert report.infeasible_vertex == vertex, batch_min


class TestRotationRounds:
    """Whole-array rotation rounds, then the walk's loop, flag what the loop
    alone flags."""

    @staticmethod
    def walks(inst):
        return plain_edges(inst), two_level_edges(inst)

    @staticmethod
    def count_rounds(monkeypatch) -> list[tuple[int, int]]:
        """Each round's examined agents and moves, as the walk runs."""
        rounds = []
        step = engine._rotation_round

        def counted(lists, hold, job_hold, scan, active, slot):
            created = step(lists, hold, job_hold, scan, active, slot)
            rounds.append((len(active), len(created)))
            return created

        monkeypatch.setattr(engine, "_rotation_round", counted)
        return rounds

    def test_rounds_equal_the_loop(self, monkeypatch):
        # Rounds down to one agent short of its job-optimal edge, and down
        # to two, against the loop alone, on both walks of every family.
        rng = random.Random(11)
        texts = [random_text(seed, max_side=6) for seed in range(400)]
        texts += [ring_text(n) for n in (2, 3, 5, 50, 300, 1000)]
        texts += [composed_text(b, seed=1) for b in (1, 10, 200, 1000)]
        texts += [planted_text(1000, 100, seed) for seed in range(1, 6)]
        for seed in range(40):
            na, nb = rng.randint(1, 400), rng.randint(1, 400)
            density = min(1.0, rng.choice((2, 4, 8, 30)) / nb)
            texts.append(generate(na, nb, density, seed))
        texts += [latin_text(n) for n in (10, 100, 200)]
        rounds = self.count_rounds(monkeypatch)
        for text in texts:
            for walk in self.walks(parse_instance(text)):
                flags = []
                for batch_min in (1 << 60, 1, 2):
                    monkeypatch.setattr(engine, "BATCH_MIN", batch_min)
                    flags.append(engine.rotation_walk(*walk))
                loop, *batched = flags
                for got in batched:
                    assert np.array_equal(got, loop), text[:60]
        assert len(rounds) > 2000

    def test_latin_work_is_pinned(self, monkeypatch):
        # Every agent of the 200-latin instance walks its whole list, 200
        # agents moving in each round; the two-level walk examines up to
        # 400 copies a round.  Counts do not depend on the host.
        monkeypatch.setattr(engine, "BATCH_MIN", 64)
        rounds = self.count_rounds(monkeypatch)
        inst = parse_instance(latin_text(200))
        counts = []
        for walk in self.walks(inst):
            rounds.clear()
            engine.rotation_walk(*walk)
            counts.append(len(rounds))
            examined = sum(size for size, _ in rounds)
            moves = sum(moved for _, moved in rounds)
            assert examined <= 4 * moves + walk[0]
        assert counts == [199, 399]

    def test_inactive_successor_is_a_defect(self, monkeypatch):
        # The job-proposing run is made to end with a0 on its agent-optimal
        # edge, so a0 looks done while the ring's one rotation runs through
        # it; the round must not read a0's missing slot as another agent.
        inst = ring_instance(5)
        runs = []

        class Tampered(ProposalSystem):
            def run(self):
                super().run()
                if not runs:
                    self.right_match[0] = edge_id(inst, *ids(inst, "a0", "b0"))
                runs.append(self)

        monkeypatch.setattr(engine, "ProposalSystem", Tampered)
        monkeypatch.setattr(engine, "BATCH_MIN", 1)
        with pytest.raises(AssertionError, match="rotation successor"):
            engine.rotation_walk(*plain_edges(inst))


def components_reference(nx, n, u, v) -> list[int]:
    """networkx's connected components, numbered by their smallest vertex."""
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(zip(u.tolist(), v.tolist()))
    cid = [0] * n
    for i, part in enumerate(sorted(nx.connected_components(graph), key=min)):
        for x in part:
            cid[x] = i
    return cid


class TestComponents:
    """``engine.components`` against networkx."""

    def check(self, nx, n, u, v) -> None:
        u, v = np.asarray(u, np.intp), np.asarray(v, np.intp)
        got = engine.components(n, u, v)
        assert got.dtype == np.intp and not got.flags.writeable
        assert got.tolist() == components_reference(nx, n, u, v), n

    def test_popular_and_post_graphs_of_the_golden_inputs(self):
        # The popular graph's edges in layout order; the post graph joins
        # each agent to f(a) and s(a), a self-loop when s(a) is a.
        nx = pytest.importorskip("networkx")
        for text in golden_inputs().values():
            inst = parse_instance(text)
            lay, na = inst.layout, inst.num_agents
            popular = legal_edge_set(inst).popular_flags[:inst.m]
            self.check(
                nx, inst.n, lay.agent_of[popular], na + lay.job_of[popular]
            )
            posts = compute_posts(inst)
            agents = np.arange(na)
            self.check(
                nx, inst.n, np.concatenate((agents, agents)),
                np.concatenate((posts.f, posts.s)),
            )

    @staticmethod
    def count_rounds(monkeypatch) -> list[int]:
        """Each hooking round's edge count, as ``components`` runs."""
        rounds = []
        step = engine._hook_round

        def counted(root, u, v):
            rounds.append(len(u))
            return step(root, u, v)

        monkeypatch.setattr(engine, "_hook_round", counted)
        return rounds

    @staticmethod
    def bound(n: int) -> int:
        """The proven round bound, 2 floor(log2 n) + 1."""
        return 2 * (n.bit_length() - 1) + 1

    def test_random_path_within_the_round_bound(self, monkeypatch):
        # Random labels make hooking take many more rounds than on any
        # family input: 10 on this path, against a bound of 29.
        nx = pytest.importorskip("networkx")
        rounds = self.count_rounds(monkeypatch)
        n = 20_001
        path = np.random.default_rng(5).permutation(n)
        self.check(nx, n, path[:-1], path[1:])
        assert 8 <= len(rounds) <= self.bound(n)

    def test_rounds_grow_by_at_most_two_per_doubling(self, monkeypatch):
        # Counted work, so the gate does not depend on the host: the
        # hooking rounds on each family's popular subgraph, from 10k to
        # 80k edges, grow by at most two per doubling, as the bound does.
        def text(family, m):
            if family == "ring":
                return ring_text(m // 2)
            if family == "composed":
                return composed_text(m // 6, seed=m)
            if family == "planted":
                return planted_text(m // 7, m // 7, seed=m)
            if family == "latin":
                return latin_text(round(m**0.5))
            side = m // 5
            return generate(side, side, m / (side * side), seed=m)

        rounds = self.count_rounds(monkeypatch)
        for family in ("ring", "composed", "planted", "latin", "generate"):
            counts = []
            for m in (10_000, 20_000, 40_000, 80_000):
                inst = parse_instance(text(family, m))
                rounds.clear()
                legal_edge_set(inst)
                counts.append(len(rounds))
                assert len(rounds) <= self.bound(inst.n), family
            steps = [b - a for a, b in zip(counts, counts[1:])]
            assert max(steps) <= 2, (family, counts)

    def test_hostile_shapes(self):
        nx = pytest.importorskip("networkx")
        n = 2001
        # A path that jumps between the two ends: 0, n-1, 1, n-2, ...
        order = [x for pair in zip(range(n), range(n - 1, -1, -1)) for x in pair]
        path = list(dict.fromkeys(order))
        self.check(nx, n, path[:-1], path[1:])
        self.check(nx, n, path[1:], path[:-1])
        # A star centred on the largest id, and isolated vertices beside it.
        self.check(nx, n, [n - 1] * (n - 1), range(n - 1))
        self.check(nx, n + 5, range(n - 1), [n - 1] * (n - 1))
        # No vertex, no edge, and self-loops, which join nothing.
        self.check(nx, 0, [], [])
        self.check(nx, 7, [], [])
        self.check(nx, 3, [1, 2, 2], [1, 2, 0])


class TestProposeDispose:
    def test_size_gap_stable(self, size_gap):
        assert pairs_by_name(size_gap, stable_matching(size_gap)) == [
            ("a1", "b1")
        ]

    def test_empty_left_side(self):
        system = ProposalSystem(0, 0, *np.empty((4, 0), np.intp))
        system.run()
        assert system.left_match.tolist() == system.right_match.tolist() == []
        assert system.proposals == 0

    def test_state_is_int64_arrays(self):
        # A plain system and a mirror system large enough to run rounds:
        # after the run every state array is int64, and the system keeps
        # the arrays it is given, unwritten.
        inst = parse_instance(composed_text(300, seed=1))
        args = plain_edges(inst)
        given = [np.array(x) for x in args[2:]]
        plain = ProposalSystem(*args)
        for system in plain, mirror_system(make_mirror(inst)):
            system.run()
            for name in ("next_i", "left_match", "right_match", "right_cut"):
                state = getattr(system, name)
                assert isinstance(state, np.ndarray), name
                assert state.dtype == np.int64, name
        assert plain.edge_left is args[2] and plain.edge_right is args[3]
        assert plain.right_rank is args[5]
        for x, y in zip(args[2:], given):
            assert np.array_equal(x, y)

    def test_output_has_no_blocking_edge(self):
        for seed in range(60):
            inst = random_instance(seed)
            mat = stable_matching(inst)
            assert blocking_edges(inst, mat) == frozenset()

    def test_determinism(self, showcase):
        runs = []
        for _ in range(3):
            system = ProposalSystem(*plain_edges(showcase))
            system.run()
            runs.append(
                (system.left_match.tolist(), system.proposals, system.rejections)
            )
        assert runs[0] == runs[1] == runs[2]

    def test_proposals_bounded_by_total_list_length(self):
        # Each list position is proposed along at most once, and each
        # whole-array round makes at least BATCH_MIN proposals: on small
        # instances, and on every system of blocks, planted blocks and a
        # ring at benchmark size, which run rounds.
        for seed in range(40):
            inst = random_instance(seed)
            system = ProposalSystem(*plain_edges(inst))
            system.run()
            assert system.proposals <= system.total_list_length
        for text in (
            composed_text(1000, seed=3),
            planted_text(1000, 300, 0),
            ring_text(5000),
        ):
            inst = parse_instance(text)
            rounds = 0
            for kind, fresh in system_kinds(inst):
                system = fresh()
                system.run()
                # These instances have found solves: no left copy ends alone.
                assert kind != "mirror" or -1 not in system.left_match
                assert (
                    system.rounds * engine.BATCH_MIN
                    <= system.proposals
                    <= system.total_list_length
                ), kind
                rounds += system.rounds
            assert rounds > 0

    @pytest.mark.parametrize("n", [2001, 4001, 8001])
    def test_chain_cascade_runs_in_the_sequential_loop(self, n):
        # One round of n first choices leaves only a1 free, below
        # BATCH_MIN; its displacement cascade through every other agent
        # then runs in _drain, one proposal per list position.
        inst = parse_instance(chain_text(n))
        system = ProposalSystem(*plain_edges(inst))
        system.run()
        assert system.rounds == 1
        assert system.proposals == system.total_list_length == 2 * n - 1
        assert system.rejections == n - 1
        assert inst.layout.job_of[system.left_match].tolist() == list(range(n))


class TestResume:
    def test_exhausting_a_left_vertex_without_sink(self, size_gap):
        # Forbidding one left copy's whole list leaves it nowhere to go: it
        # ends alone, past the end of its list.
        system = mirror_system(make_mirror(size_gap))
        forbid(system, left_list(system, 0))
        system.run()
        assert system.left_match[0] == -1
        assert system.next_i[0] == system.list_starts[1]

    def test_feasible_forbidden_runs_are_fully_stable(self):
        # A feasible outcome avoids every forbidden edge and has no blocking
        # edge at all, forbidden ones included.
        import random

        from popmatch.mirror import MirrorMatching, mirror_blocking_edges

        rng = random.Random(3)
        hits = 0
        for seed in range(200):
            inst = random_instance(seed)
            mirror = make_mirror(inst)
            extra = [
                e
                for e in range(mirror.num_edges)
                if not is_forbidden(mirror, e) and rng.random() < 0.15
            ]
            system = mirror_system(mirror)
            forbid(system, extra)
            system.run()
            if -1 in system.left_match:
                continue
            hits += 1
            mh = MirrorMatching(
                mirror, np.array(system.left_match), np.array(system.right_match)
            )
            assert mirror_blocking_edges(mh) == (), seed
            assert not any(
                is_forbidden(mirror, e) or e in extra for e in mh.left_edge
            ), seed
        assert hits > 20


class TestStableQueries:
    def test_size_gap_stable_vertices(self, size_gap):
        want = {id_of(size_gap, "a1"), id_of(size_gap, "b1")}
        assert stable_vertices(size_gap) == frozenset(want)

    def test_single_pair_both_stable(self):
        inst = parse_instance("agents: a\njobs: b\na > b\nb > a\n")
        assert stable_vertices(inst) == frozenset({0, 1})

    def test_showcase_stable_vertices(self, showcase):
        stable = showcase_stable(showcase)
        want = frozenset(
            u for u in range(showcase.n) if stable.partner[u] != u
        )
        assert stable_vertices(showcase) == want

    def test_size_gap_stable_pairs(self, size_gap):
        a0, a1, b0, b1 = ids(size_gap, "a0", "a1", "b0", "b1")
        pairs, _ = pair_families(size_gap)
        assert (a1, b1) in pairs
        assert (a0, b1) not in pairs
        assert (a1, b0) not in pairs

    def test_single_pair_edge_stable(self):
        inst = parse_instance("agents: a\njobs: b\na > b\nb > a\n")
        assert pair_families(inst)[0] == frozenset({(0, 1)})

    def test_stable_pairs_match_enumeration(self):
        # Exhaustive cross-check of the rotation walk on small instances.
        for seed in range(1000):
            inst = random_instance(seed)
            mats = list(enumerate_matchings(inst))
            blocked = blocking_mask(inst, np.array([m.partner for m in mats]))
            stable_sets = [
                frozenset(m.pairs(inst))
                for m in compress(mats, ~blocked.any(axis=1))
            ]
            truth = frozenset().union(*stable_sets) if stable_sets else frozenset()
            pairs, _ = pair_families(inst)
            for edge in edge_pairs(inst):
                assert (edge in pairs) == (edge in truth), (seed, edge)

    def test_ring_has_two_stable_pairs_per_agent(self):
        # Agent i lists jobs i, i+1 and job j lists agents j-1, j: both
        # perfect matchings of the ring are stable and nothing else is.
        for n in range(2, 9):
            inst = ring_instance(n)
            pairs, _ = pair_families(inst)
            assert len(pairs) == 2 * n, n
            assert pairs == frozenset(edge_pairs(inst)), n


class TestBlockingEdges:
    def test_size_gap_max_matching(self, size_gap):
        from conftest import size_gap_max

        a1, b1 = ids(size_gap, "a1", "b1")
        assert blocking_edges(size_gap, size_gap_max(size_gap)) == frozenset(
            {(a1, b1)}
        )

    def test_stable_matching_has_none(self, size_gap):
        from conftest import size_gap_stable

        assert blocking_edges(size_gap, size_gap_stable(size_gap)) == frozenset()

    def test_mutual_top_pairs(self):
        inst = parse_instance(
            "agents: a0 a1\njobs: b0 b1\n"
            "a0 > b0 b1\na1 > b1 b0\nb0 > a0 a1\nb1 > a1 a0\n"
        )
        mat = matching_of(inst, [(0, 2), (1, 3)])
        assert blocking_edges(inst, mat) == frozenset()

"""Generic proposer/disposer engine with forbidden edges and resumable state.

The engine runs one-sided proposals over ranked edge lists.  Left vertices
consume their lists monotonically; right vertices keep a threshold rank and
never accept a proposal along an edge worse than one they have already seen.
A proposal along a forbidden edge is rejected, and that rejection also
deletes every worse edge at the receiving vertex, including a currently held
one.  The same machinery therefore serves plain stable matching and stable
matching that must avoid a forbidden edge set.  Every stable pair comes from
one rotation walk between the two extreme stable matchings.

Re-forbidding edges after a run and resuming is equivalent to a fresh run
with the enlarged forbidden set, and total work over any forbid/resume
sequence stays linear in the summed list lengths.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from .instance import Instance, Matching

INFINITE_RANK = 1 << 60


class ProposalSystem:
    """Ranked proposal lists on the left, threshold acceptance on the right.

    Edges are dense ids.  ``left_lists[u]`` orders u's edges from best to
    worst; ``edge_right[e]`` is the receiving right vertex, or -1 for a
    private always-accepting sink (the "stay alone" option).  ``right_rank``
    orders each right vertex's incident edges (lower is better).  A right
    vertex's cutoff is the best rank it has seen; it never accepts an edge
    ranked at or beyond it.

    The state is live: ``left_match[u]`` / ``right_match[r]`` hold the
    matched edge id or -1, and ``matched`` collects every vertex, left or
    right, that took a new edge, for callers to drain.  Sinks only appear in
    systems that are never forbidden anything.
    """

    def __init__(
        self,
        num_left: int,
        num_right: int,
        left_lists: Sequence[Sequence[int]],
        edge_left: list[int],
        edge_right: list[int],
        right_rank: list[int],
        forbidden=(),
    ):
        self.num_left = num_left
        self.num_right = num_right
        self.left_lists = left_lists
        self.edge_left = edge_left
        self.edge_right = edge_right
        self.right_rank = right_rank
        num_edges = len(edge_left)
        self.forbidden = [False] * num_edges
        for e in forbidden:
            self.forbidden[e] = True
        self.total_list_length = sum(len(row) for row in left_lists)
        self.next_i = [0] * num_left
        self.left_match = [-1] * num_left
        self.right_match = [-1] * num_right
        self.right_cut = [INFINITE_RANK] * num_right
        self.starved: set[int] = set()
        self.queue: deque[int] = deque(range(self.num_left))
        self.matched: list[int] = []
        self.proposals = 0
        self.rejections = 0
        self.exhausted_left: int | None = None

    def _divorce(self, edge: int) -> None:
        u = self.edge_left[edge]
        self.left_match[u] = -1
        self.next_i[u] += 1
        self.queue.append(u)
        self.rejections += 1

    def run(self) -> bool:
        """Drain the proposal queue; True when the result is feasible.

        Infeasible means some left vertex exhausted its list or some right
        vertex ended unmatched after rejecting a forbidden proposal it would
        otherwise have taken; either way no stable matching avoiding the
        forbidden edges exists.
        """
        if self.exhausted_left is not None:
            return False
        while self.queue:
            u = self.queue.popleft()
            if self.left_match[u] != -1:
                continue
            while True:
                i = self.next_i[u]
                if i >= len(self.left_lists[u]):
                    self.exhausted_left = u
                    return False
                e = self.left_lists[u][i]
                self.proposals += 1
                r = self.edge_right[e]
                if r == -1:
                    self.left_match[u] = e
                    self.matched.append(u)
                    break
                rank = self.right_rank[e]
                if rank >= self.right_cut[r]:
                    self.next_i[u] += 1
                    self.rejections += 1
                    continue
                if self.forbidden[e]:
                    # An in-range forbidden proposal deletes every worse
                    # edge here, including the currently held one.
                    self.right_cut[r] = rank
                    cur = self.right_match[r]
                    if cur != -1:
                        self.right_match[r] = -1
                        self._divorce(cur)
                    self.starved.add(r)
                    self.next_i[u] += 1
                    self.rejections += 1
                    continue
                cur = self.right_match[r]
                if cur != -1:
                    self._divorce(cur)
                self.right_match[r] = e
                self.right_cut[r] = rank
                self.starved.discard(r)
                self.left_match[u] = e
                self.matched.append(u)
                self.matched.append(r)
                break
        return not self.starved

    def forbid(self, edges) -> None:
        """Mark edges forbidden, divorcing any that are currently matched.

        Running again afterwards is equivalent to a fresh run with the
        enlarged forbidden set.
        """
        for e in edges:
            if self.forbidden[e]:
                continue
            self.forbidden[e] = True
            u = self.edge_left[e]
            if self.left_match[u] != e:
                continue
            # From scratch this proposal would have been an in-range
            # forbidden rejection, so replicate that state exactly.
            r = self.edge_right[e]
            self.right_match[r] = -1
            self.starved.add(r)
            self._divorce(e)

    def offender(self) -> int:
        """Vertex to blame after an infeasible run.

        That is the left vertex that exhausted its list, or else the least
        starved right vertex.
        """
        if self.exhausted_left is not None:
            return self.exhausted_left
        return min(self.starved)


def _sides(inst: Instance, proposers: str) -> tuple[range, range]:
    if proposers == "agents":
        return inst.agent_ids(), inst.job_ids()
    if proposers == "jobs":
        return inst.job_ids(), inst.agent_ids()
    raise ValueError(f"unknown proposer side {proposers!r}")


def build_system(inst: Instance, proposers: str = "agents") -> ProposalSystem:
    """Plain one-sided proposal system over an instance.

    Left vertex i is the i-th proposer; its list is one contiguous range of
    edge ids, its preference list followed by a private sink (the stay-alone
    option).  Right vertex j is the j-th vertex of the other side, and right
    ranks come from its own list.
    """
    left_ids, right_ids = _sides(inst, proposers)
    pref, rank_tbl = inst.pref, inst.rank_tbl
    shift = right_ids.start
    left_lists: list[range] = []
    edge_left: list[int] = []
    edge_right: list[int] = []
    right_rank: list[int] = []
    for li, u in enumerate(left_ids):
        row = pref[u]
        start = len(edge_left)
        left_lists.append(range(start, start + len(row) + 1))
        edge_left.extend([li] * (len(row) + 1))
        edge_right.extend([v - shift for v in row])
        edge_right.append(-1)
        right_rank.extend([rank_tbl[v][u] for v in row])
        right_rank.append(0)
    return ProposalSystem(
        len(left_ids), len(right_ids), left_lists, edge_left, edge_right, right_rank
    )


def stable_matching(inst: Instance, proposers: str = "agents") -> Matching:
    """Proposer-optimal stable matching of the instance."""
    left_ids, right_ids = _sides(inst, proposers)
    system = build_system(inst, proposers)
    system.run()
    partner = list(range(inst.n))
    for i, e in enumerate(system.left_match):
        j = system.edge_right[e]
        if j != -1:
            partner[left_ids[i]] = right_ids[j]
            partner[right_ids[j]] = left_ids[i]
    return Matching(tuple(partner))


def rotation_walk(inst: Instance) -> tuple[Matching, frozenset[tuple[int, int]]]:
    """Agent-optimal stable matching and every stable pair, in O(m) time.

    Walks from the agent-optimal matching to the job-optimal one by
    eliminating exposed rotations (Gusfield, "Three fast algorithms for four
    problems in stable marriage", 1987).  In the current matching, agent a's
    successor is the partner of the first job after a's own that prefers a to
    its partner; following successors from an agent that has not reached its
    job-optimal partner closes a cycle, the rotation, and eliminating it
    hands each agent on it that job.  A pair is stable exactly when it lies
    in the agent-optimal matching or some rotation creates it.

    Agents whose two extreme partners agree, the unmatched included, take no
    part in any rotation.  Every other agent's scan pointer only moves
    forward and never passes its job-optimal partner, because a job it skips
    already holds someone it prefers and its holders only improve.
    """
    best = stable_matching(inst, "agents")
    last = stable_matching(inst, "jobs").partner
    pref, rank_tbl = inst.pref, inst.rank_tbl
    holder = list(best.partner)
    scan = [inst.rank_of(a, holder[a]) + 1 for a in inst.agent_ids()]
    depth = [-1] * inst.num_agents
    pairs = set(best.pairs(inst))
    for start in inst.agent_ids():
        while holder[start] != last[start]:
            stack = [start]
            depth[start] = 0
            while stack:
                a = stack[-1]
                row, i = pref[a], scan[a]
                b = row[i]
                while rank_tbl[b][a] > rank_tbl[b][holder[b]]:
                    i += 1
                    b = row[i]
                scan[a] = i
                succ = holder[b]
                if depth[succ] < 0:
                    depth[succ] = len(stack)
                    stack.append(succ)
                    continue
                rotation = stack[depth[succ]:]
                del stack[depth[succ]:]
                for x in rotation:
                    b = pref[x][scan[x]]
                    holder[x] = b
                    holder[b] = x
                    scan[x] += 1
                    depth[x] = -1
                    pairs.add((x, b))
    return best, frozenset(pairs)


def stable_vertices(inst: Instance) -> frozenset[int]:
    """Vertices matched to genuine partners in every stable matching.

    All stable matchings cover the same vertex set, so one agent-proposing
    run settles membership.
    """
    mat = stable_matching(inst)
    return frozenset(u for u in range(inst.n) if not mat.is_self(u))


def blocking_edges(inst: Instance, mat: Matching) -> frozenset[tuple[int, int]]:
    """All edges whose endpoints both strictly prefer each other to their partners."""
    blockers = []
    for a, b in inst.edges:
        if mat.partner[a] == b:
            continue
        if inst.rank_of(a, b) < inst.rank_of(a, mat.partner[a]) and inst.rank_of(
            b, a
        ) < inst.rank_of(b, mat.partner[b]):
            blockers.append((a, b))
    return frozenset(blockers)

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
from dataclasses import dataclass

from .instance import Instance, Matching

INFINITE_RANK = 1 << 60


@dataclass(frozen=True)
class EngineOutcome:
    """Snapshot of an engine run.

    ``feasible`` is False when some left vertex exhausted its list or some
    right vertex ended unmatched after rejecting a forbidden proposal it
    would otherwise have taken; either way no stable matching avoiding the
    forbidden edges exists.  ``left_edge[u]`` / ``right_edge[r]`` hold the
    matched edge id or -1.
    """

    feasible: bool
    offender_left: int | None
    offender_right: int | None
    left_edge: tuple[int, ...]
    right_edge: tuple[int, ...]
    proposals: int
    rejections: int
    touched_left: tuple[int, ...]
    touched_right: tuple[int, ...]


class ProposalSystem:
    """Ranked proposal lists on the left, threshold acceptance on the right.

    Edges are dense ids.  ``left_lists[u]`` orders u's edges from best to
    worst; ``edge_right[e]`` is the receiving right vertex, or -1 for a
    private always-accepting sink (the "stay alone" option).  ``right_rank``
    orders each right vertex's incident edges (lower is better).  A right
    vertex's cutoff is the best rank it has seen; it never accepts an edge
    ranked at or beyond it.
    """

    def __init__(
        self,
        num_left: int,
        num_right: int,
        left_lists: list[tuple[int, ...]],
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
        self.proposals = 0
        self.rejections = 0
        self.exhausted_left: int | None = None

    def _divorce(self, edge: int, touched_left: dict) -> None:
        u = self.edge_left[edge]
        self.left_match[u] = -1
        self.next_i[u] += 1
        self.queue.append(u)
        self.rejections += 1
        touched_left[u] = None

    def run(self, snapshot: bool = True) -> EngineOutcome:
        """Drain the proposal queue and report the resulting state.

        ``snapshot=False`` skips materializing the full per-vertex match
        arrays in the outcome (they come back empty); repeated resumes over
        large systems stay linear that way, and callers read the live state
        or take one snapshot at the end.
        """
        touched_left: dict[int, None] = {}
        touched_right: dict[int, None] = {}
        if self.exhausted_left is not None:
            return self._outcome(touched_left, touched_right, snapshot)

        while self.queue:
            u = self.queue.popleft()
            if self.left_match[u] != -1:
                continue
            while True:
                i = self.next_i[u]
                if i >= len(self.left_lists[u]):
                    self.exhausted_left = u
                    touched_left[u] = None
                    return self._outcome(touched_left, touched_right, snapshot)
                e = self.left_lists[u][i]
                self.proposals += 1
                r = self.edge_right[e]
                if r == -1:
                    if self.forbidden[e]:
                        self.next_i[u] += 1
                        self.rejections += 1
                        continue
                    self.left_match[u] = e
                    touched_left[u] = None
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
                        self._divorce(cur, touched_left)
                        touched_right[r] = None
                    self.starved.add(r)
                    self.next_i[u] += 1
                    self.rejections += 1
                    continue
                cur = self.right_match[r]
                if cur != -1:
                    self._divorce(cur, touched_left)
                self.right_match[r] = e
                self.right_cut[r] = rank
                self.starved.discard(r)
                self.left_match[u] = e
                touched_left[u] = None
                touched_right[r] = None
                break
        return self._outcome(touched_left, touched_right, snapshot)

    def forbid(self, edges) -> None:
        """Mark edges forbidden, divorcing any that are currently matched."""
        touched: dict[int, None] = {}
        for e in edges:
            if self.forbidden[e]:
                continue
            self.forbidden[e] = True
            u = self.edge_left[e]
            if self.left_match[u] != e:
                continue
            r = self.edge_right[e]
            if r != -1:
                # From scratch this proposal would have been an in-range
                # forbidden rejection, so replicate that state exactly.
                self.right_match[r] = -1
                self.starved.add(r)
            self._divorce(e, touched)

    def _outcome(
        self, touched_left, touched_right, snapshot: bool = True
    ) -> EngineOutcome:
        feasible = self.exhausted_left is None and not self.starved
        offender_right = (
            min(self.starved)
            if self.exhausted_left is None and self.starved
            else None
        )
        return EngineOutcome(
            feasible=feasible,
            offender_left=self.exhausted_left,
            offender_right=offender_right,
            left_edge=tuple(self.left_match) if snapshot else (),
            right_edge=tuple(self.right_match) if snapshot else (),
            proposals=self.proposals,
            rejections=self.rejections,
            touched_left=tuple(touched_left),
            touched_right=tuple(touched_right),
        )


def propose_dispose(system: ProposalSystem) -> EngineOutcome:
    """Run the engine to quiescence from its current state."""
    return system.run()


def resume_after_forbid(
    system: ProposalSystem,
    outcome: EngineOutcome,
    newly_forbidden,
    snapshot: bool = True,
) -> EngineOutcome:
    """Forbid more edges and continue; equivalent to a fresh run with them all.

    ``outcome`` must be the system's most recent result.
    """
    if outcome.proposals != system.proposals:
        raise ValueError("outcome does not match the system's current state")
    system.forbid(newly_forbidden)
    return system.run(snapshot)


@dataclass(frozen=True)
class SystemHandle:
    """A proposal system over an instance plus the id bookkeeping around it."""

    inst: Instance
    system: ProposalSystem
    left_ids: tuple[int, ...]
    right_ids: tuple[int, ...]
    edge_of: dict[tuple[int, int], int]

    def to_matching(self, outcome: EngineOutcome) -> Matching:
        pairs = []
        for ri, e in enumerate(outcome.right_edge):
            if e != -1:
                li = self.system.edge_left[e]
                u, v = self.left_ids[li], self.right_ids[ri]
                pairs.append((u, v) if self.inst.is_agent(u) else (v, u))
        return Matching.from_pairs(self.inst, pairs)


def build_system(
    inst: Instance,
    proposers: str = "agents",
    forbidden_pairs=(),
) -> SystemHandle:
    """Plain one-sided proposal system over an instance.

    Left vertices carry their preference lists plus a trailing private sink
    (the stay-alone option); right ranks come from the other side's lists.
    ``forbidden_pairs`` are (left vertex, right vertex) instance-id pairs.
    """
    if proposers == "agents":
        left_ids = tuple(inst.agent_ids())
        right_ids = tuple(inst.job_ids())
    elif proposers == "jobs":
        left_ids = tuple(inst.job_ids())
        right_ids = tuple(inst.agent_ids())
    else:
        raise ValueError(f"unknown proposer side {proposers!r}")
    right_index = {v: i for i, v in enumerate(right_ids)}

    left_lists: list[tuple[int, ...]] = []
    edge_left: list[int] = []
    edge_right: list[int] = []
    right_rank: list[int] = []
    edge_of: dict[tuple[int, int], int] = {}
    for li, u in enumerate(left_ids):
        row = []
        for v in inst.pref[u]:
            e = len(edge_left)
            edge_of[(u, v)] = e
            edge_left.append(li)
            edge_right.append(right_index[v])
            right_rank.append(inst.rank_of(v, u))
            row.append(e)
        sink = len(edge_left)
        edge_of[(u, u)] = sink
        edge_left.append(li)
        edge_right.append(-1)
        right_rank.append(0)
        row.append(sink)
        left_lists.append(tuple(row))

    system = ProposalSystem(
        num_left=len(left_ids),
        num_right=len(right_ids),
        left_lists=left_lists,
        edge_left=edge_left,
        edge_right=edge_right,
        right_rank=right_rank,
        forbidden=[edge_of[pair] for pair in forbidden_pairs],
    )
    return SystemHandle(inst, system, left_ids, right_ids, edge_of)


def stable_matching(inst: Instance, proposers: str = "agents") -> Matching:
    """Proposer-optimal stable matching of the instance."""
    handle = build_system(inst, proposers)
    return handle.to_matching(handle.system.run())


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

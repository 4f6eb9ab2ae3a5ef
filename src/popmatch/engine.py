"""Routines over per-edge int arrays: proposals, rotation walk, components.

The engine runs one-sided proposals over ranked edge lists.  The lists are
stored as compressed sparse rows: one flat edge sequence ``list_edges``,
cut at per-vertex bounds ``list_starts``, so a system holds no list object
per vertex and a left vertex's position is an index into the flat
sequence.  Left vertices consume their lists monotonically; right vertices
keep a threshold rank and never accept a proposal along an edge worse than
one they have already seen.  A system is given its forbidden edges as flags
when it is built.  A proposal along a forbidden edge is rejected, and that
rejection also deletes every worse edge at the receiving vertex, including
a currently held one.  Every system, of the instance, of its two-level form
or of the mirror graph, is given as the same four int arrays over its edge
ids: each edge's two ends and its rank in the lists of both.  Only
:class:`ProposalSystem` lays those lists out; it keeps its caller's arrays
by reference and never writes them.  Plain systems are forbidden nothing,
so their whole-array rounds skip every forbidden-edge pass, and every
stable edge comes from one rotation walk between the two extreme stable
matchings.  A mirror system is forbidden the copies of its non-legal edges,
and no stable matching avoiding them exists exactly when its run leaves
some left copy alone.  A run's work is linear in the summed list lengths.

Int64 numpy arrays are the one stored form of a system, its run state
included.  A large system runs in two stages: whole-array numpy rounds while
at least ``BATCH_MIN`` left vertices are free, then, only if a vertex is
still free, the sequential loop, one proposal at a time, which reads and
writes the same arrays through zero-copy memoryviews (see
:meth:`ProposalSystem.run`).  The rotation walk has the same two stages on
the agent-proposing system's arrays, its loop also entered only if an agent
is still short of its job-optimal edge (see :func:`rotation_walk`).  On
large inputs the rounds often finish the run, and then neither loop is set
up.  :func:`components` numbers the connected components of a graph given
by its edges' two ends, by whole-array hooking.
"""

from __future__ import annotations

from collections import deque

import numpy as np

INFINITE_RANK = 1 << 60

# Fewest left vertices proposing in a whole-array round, and fewest agents
# short of their job-optimal edge in a rotation round; only speed depends on
# it.  Solve CPU ms, best of 5 process runs of the best of 25, 2 cores shared
# with other load (the best run reads the work; a median reads the load):
#   BATCH_MIN                         768    512    384    256    128
#   ring, n = 300                    2.37   1.42   1.48   0.93   0.92
#   1,000 blocks, validated          6.82   6.46   6.39   6.58   6.51
#   latin, n = 200                   77.1   74.6   64.7   65.4   34.5
#   planted, 1,000 + 300 cross       5.37   5.05   5.01   5.26   5.22
#   generate(2000, 3000, 5/3000)    12.98  10.70   9.93   9.38   9.04
# 128 is level with 256 on ring and blocks, whose rounds finish every run
# at both, and runs latin's 200-agent stable walk in rounds.
BATCH_MIN = 128


class ProposalSystem:
    """Ranked proposal lists on the left, threshold acceptance on the right.

    Edges are dense ids, given as four int arrays over them: edge e joins
    left vertex ``left[e]``, at position ``left_rank[e]`` of that vertex's
    list (0 is best), to right vertex ``right[e]``, which ranks it
    ``right_rank[e]`` (lower is better).  Each left vertex's positions run
    over ``0 .. d - 1`` for its d edges.  The constructor lays the lists out
    as one flat sequence: u's list is
    ``list_edges[list_starts[u]:list_starts[u + 1]]``, best first, the
    starts being the cumulated list lengths, so one scatter places every
    edge and a vertex with no edges gets an empty list.  Those two int64
    arrays are the only ones it builds: it keeps the caller's ``left``,
    ``right`` and ``right_rank`` as ``edge_left``, ``edge_right`` and
    ``right_rank``, by reference, and never writes them.

    A right vertex's cutoff is the best rank it has seen; it never accepts
    an edge ranked at or beyond it.  A left vertex that runs out of its list
    stays alone.  ``forbidden`` flags the edges forbidden in the run, as a
    bool array over edge ids, none when not given; the system keeps it as
    its ``forbidden``, so flags set before the run count, and its rounds
    read it only when some flag is set.  Only mirror systems are forbidden
    anything in a solve.

    A system runs once.  Its run state is three int64 arrays:
    ``right_match[r]`` holds r's matched edge id or -1, ``right_cut[r]`` is
    r's cutoff, and ``next_i[u]`` is the position in ``list_edges`` of u's
    matched edge (``list_starts[u + 1]`` when u is alone).  The run ends by
    deriving a fourth, ``left_match[u]``, u's matched edge id or -1, from
    ``right_match``.  ``proposals`` and ``rejections`` count the run's work
    and ``rounds`` its whole-array rounds, each of at least ``BATCH_MIN``
    proposals, so ``rounds * BATCH_MIN <= proposals <= total_list_length``.
    """

    def __init__(
        self,
        num_left: int,
        num_right: int,
        left: np.ndarray,
        right: np.ndarray,
        left_rank: np.ndarray,
        right_rank: np.ndarray,
        forbidden: np.ndarray | None = None,
    ):
        starts = np.zeros(num_left + 1, np.int64)
        np.cumsum(np.bincount(left, minlength=num_left), out=starts[1:])
        edges = np.empty(len(left), np.int64)
        edges[starts[left] + left_rank] = np.arange(len(left))
        self.num_left = num_left
        self.num_right = num_right
        self.list_edges = edges
        self.list_starts = starts
        self.edge_left = left
        self.edge_right = right
        self.right_rank = right_rank
        if forbidden is None:
            forbidden = np.zeros(len(left), bool)
        self.forbidden = forbidden
        self.total_list_length = len(left)
        self.proposals = 0
        self.rejections = 0
        self.rounds = 0

    def run(self) -> None:
        """Run the proposals to the end.

        Whole-array rounds (:meth:`_rounds`) run while at least
        ``BATCH_MIN`` left vertices are free, so a smaller system makes
        none; if any vertex is still free, the sequential loop
        (:meth:`_drain`) then ends the run from those vertices.  Only then
        is ``left_match`` filled in, from ``right_match``.  The end state of
        deferred acceptance does not depend on the order of the proposals
        (McVitie and Wilson, "The stable marriage problem", 1971), and a
        rejection by a forbidden edge only lowers a cutoff as any better
        proposal would, so the run ends in the loop's own state, cutoffs,
        counters and alone vertices included.  In a mirror system, with as
        many right copies as left ones and no sinks, a run that leaves no
        left copy alone matches every right copy, so no stable matching
        avoiding the forbidden edges exists exactly when a left copy ends
        alone.
        """
        self.next_i = self.list_starts[:-1].copy()
        self.right_match = np.full(self.num_right, -1, np.int64)
        self.right_cut = np.full(self.num_right, INFINITE_RANK, np.int64)
        free = self._rounds()
        if len(free):
            self._drain(deque(free.tolist()))
        held = self.right_match[self.right_match != -1]
        self.left_match = np.full(self.num_left, -1, np.int64)
        self.left_match[self.edge_left[held]] = held

    def _rounds(self) -> np.ndarray:
        """Whole-array proposal rounds on the initial state, updated in
        place; returns the free left vertices that are left over.

        Every left vertex is free at first.  In a round every free left
        vertex proposes along its next list position at once, and each
        right vertex lowers its cutoff to the best rank proposed to it.  A
        proposal wins exactly when its rank is the new cutoff: a right
        vertex ranks its edges uniquely and no edge is proposed twice, so
        no proposal ties the old cutoff or another proposal.  A won right
        vertex holds the winner, or nothing if the winner is forbidden; a
        run with no flag set stores its winners without reading a flag.
        Losers, forbidden winners and displaced holders move one position
        on and are the next round's free vertices.  Rounds go on while at
        least ``BATCH_MIN`` vertices propose, so there are at most
        ``total_list_length / BATCH_MIN`` of them.  A vertex past the end
        of its list stays alone.  Rounds write no ``left_match``.
        """
        list_edges, edge_left = self.list_edges, self.edge_left
        edge_right, right_rank = self.edge_right, self.right_rank
        next_i = self.next_i
        right_match, right_cut = self.right_match, self.right_cut
        end = self.list_starts[1:]
        forbidden = self.forbidden if self.forbidden.any() else None
        free = np.arange(self.num_left)
        while True:
            i = next_i[free]
            live = i < end[free]
            free, i = free[live], i[live]
            if len(free) < BATCH_MIN:
                return free
            e = list_edges[i]
            r, rank = edge_right[e], right_rank[e]
            np.minimum.at(right_cut, r, rank)
            won = rank == right_cut[r]
            wins = np.flatnonzero(won)
            taken, e_won = r[wins], e[wins]
            held = right_match[taken]
            displaced = edge_left[held[held != -1]]
            if forbidden is None:
                right_match[taken] = e_won
            else:
                banned = forbidden[e_won]
                right_match[taken] = np.where(banned, -1, e_won)
                won[wins[banned]] = False  # a forbidden winner proposes again
            self.rounds += 1
            self.proposals += len(free)
            free = np.concatenate((free[~won], displaced))
            self.rejections += len(free)
            next_i[free] += 1

    def _drain(self, queue: deque) -> None:
        """The sequential loop: drain the queue one proposal at a time.

        The queue only ever holds unmatched left vertices, each once.  The
        loop writes ``right_match``, ``right_cut`` and ``next_i``.
        """
        # The loop reads and writes every array through a zero-copy
        # memoryview, whose items are plain ints; the counters are written
        # back at the end.
        (
            list_edges, list_starts, edge_left, edge_right, right_rank,
            forbidden, next_i, right_match, right_cut,
        ) = map(memoryview, (
            self.list_edges, self.list_starts, self.edge_left,
            self.edge_right, self.right_rank, self.forbidden, self.next_i,
            self.right_match, self.right_cut,
        ))
        proposals = rejections = 0
        while queue:
            u = queue.popleft()
            i, end = next_i[u], list_starts[u + 1]
            while i < end:
                e = list_edges[i]
                proposals += 1
                r = edge_right[e]
                rank = right_rank[e]
                if rank >= right_cut[r]:
                    i += 1
                    rejections += 1
                    continue
                # In range: the holder, if any, moves to its next edge.
                right_cut[r] = rank
                cur = right_match[r]
                if cur != -1:
                    v = edge_left[cur]
                    next_i[v] += 1
                    queue.append(v)
                    rejections += 1
                if forbidden[e]:
                    # A forbidden proposal deletes every worse edge here,
                    # the held one included, and r stays unmatched.
                    right_match[r] = -1
                    i += 1
                    rejections += 1
                    continue
                right_match[r] = e
                next_i[u] = i
                break
            else:
                # u ran out of its list and stays alone.
                next_i[u] = i
        self.proposals += proposals
        self.rejections += rejections


def rotation_walk(
    num_left: int, num_right: int, left, right, left_rank, right_rank
) -> np.ndarray:
    """Every stable edge of a plain instance, as read-only bool flags over
    edge ids, in O(m log n) time at most and O(m) in the loop alone.

    The arguments give the instance as :class:`ProposalSystem` takes it,
    agents on the left.  The walk first builds and runs the job-proposing
    system, the same arrays with the sides' roles swapped, and keeps only
    each agent's edge in it; then the agent-proposing one, whose arrays the
    walk reads and updates.  Only one system is alive at a time.

    The walk goes from the agent-optimal to the job-optimal stable matching
    by eliminating exposed rotations (Gusfield, "Three fast algorithms for
    four problems in stable marriage", 1987).  In the current matching,
    agent a's successor is the holder of the first job after a's own that
    ranks a's edge above its held one; following successors from an agent
    that has not reached its job-optimal edge closes a cycle, the rotation,
    and eliminating it moves each agent on it to that edge.  An edge is
    stable exactly when it lies in the agent-optimal matching or some
    rotation creates it.

    Agents whose two extreme edges agree, the unmatched included, take no
    part in any rotation.  Every other agent's scan pointer only moves
    forward and never passes its job-optimal edge, because a job it skips
    already holds an edge it ranks higher and its holders only improve.

    While at least ``BATCH_MIN`` agents are short of their job-optimal
    edge, rounds (:func:`_rotation_round`) eliminate every exposed
    rotation at once: these are vertex-disjoint, and the edges rotations
    create do not depend on their order (Gusfield and Irving, 1989).  A
    round costs its size times log n; rounds stop after one that moves under
    a quarter of its agents, so their summed sizes are at most 4 * moves + n.
    The loop (:func:`_rotation_loop`) then finishes from the agents still
    short, and is not entered, nor its lists built, when there are none.
    """
    jobs = ProposalSystem(
        num_right, num_left, right, left, right_rank, left_rank
    )
    jobs.run()
    done = jobs.right_match
    del jobs
    agents = ProposalSystem(
        num_left, num_right, left, right, left_rank, right_rank
    )
    agents.run()
    lists = (
        agents.list_edges, agents.edge_left, agents.edge_right,
        agents.right_rank,
    )
    hold, job_hold = agents.left_match, agents.right_match
    scan = agents.next_i + 1
    flags = np.zeros(len(left), bool)
    flags[hold[hold != -1]] = True
    slot = np.full(num_left, -1)
    active = np.flatnonzero(hold != done)
    while len(active) >= BATCH_MIN:
        made = _rotation_round(lists, hold, job_hold, scan, active, slot)
        flags[made] = True
        stop = 4 * len(made) < len(active)
        active = active[hold[active] != done[active]]
        if stop:
            break
    if len(active):
        flags[_rotation_loop(lists, hold, job_hold, scan, done, active)] = True
    flags.flags.writeable = False
    return flags


def _rotation_loop(lists, hold, job_hold, scan, done, active) -> list:
    """The walk's loop: from each agent of ``active`` still short of its
    job-optimal edge, follow successors and eliminate the rotations they
    close, one at a time; returns the edges those rotations create.  It
    reads the lists through memoryviews and the walk's state as lists.
    """
    flat, agent_of, job_of, rank = map(memoryview, lists)
    hold, job_hold, scan, done = (
        x.tolist() for x in (hold, job_hold, scan, done)
    )
    depth = [-1] * len(hold)
    created = []
    for start in active.tolist():
        while hold[start] != done[start]:
            stack = [start]
            depth[start] = 0
            while stack:
                a = stack[-1]
                i = scan[a]
                e = flat[i]
                held = job_hold[job_of[e]]
                while rank[e] > rank[held]:
                    i += 1
                    e = flat[i]
                    held = job_hold[job_of[e]]
                scan[a] = i
                succ = agent_of[held]
                if depth[succ] < 0:
                    depth[succ] = len(stack)
                    stack.append(succ)
                    continue
                rotation = stack[depth[succ]:]
                del stack[depth[succ]:]
                for x in rotation:
                    e = flat[scan[x]]
                    hold[x] = e
                    job_hold[job_of[e]] = e
                    scan[x] += 1
                    depth[x] = -1
                    created.append(e)
    return created


def _rotation_round(lists, hold, job_hold, scan, active, slot):
    """One rotation round on the walk's state, updated in place; returns the
    edges its rotations create.  ``slot`` holds -1 for every agent, before
    and after.  Every successor must be active: k pointer-doubling steps,
    2^k > len(active), map the agents onto those on the successor map's
    cycles, the exposed rotations.
    """
    flat, agent_of, job_of, rank = lists
    scanning = active
    while len(scanning):
        e = flat[scan[scanning]]
        scanning = scanning[rank[e] > rank[job_hold[job_of[e]]]]
        scan[scanning] += 1
    e = flat[scan[active]]
    holder = agent_of[job_hold[job_of[e]]]
    slot[active] = np.arange(len(active))
    succ = slot[holder]
    slot[active] = -1
    if succ.min() < 0:
        raise AssertionError("a rotation successor holds its job-optimal edge")
    for _ in range(len(active).bit_length()):
        succ = succ[succ]
    on_cycle = np.zeros(len(active), bool)
    on_cycle[succ] = True
    moved, e = active[on_cycle], e[on_cycle]
    hold[moved] = job_hold[job_of[e]] = e
    scan[moved] += 1
    return e


def components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each vertex's connected component in the graph on ``0 .. n - 1``
    with edges ``u[k]``-``v[k]``, as a read-only int array; components are
    numbered in the order of their smallest vertex.

    Min-label hooking in whole-array rounds (Shiloach and Vishkin, "An
    O(log n) parallel connectivity algorithm", J. Algorithms 1982); no
    parent exceeds its child, so a root is its tree's smallest vertex.  At
    most 2 floor(log2 n) + 1 rounds run, the last finding no edge between
    two roots.  Proof: a root r that is not hooked and takes in no root in
    a round is below its neighbour roots, which all hook under roots below
    r, so r hooks next round if an edge still leaves its tree.  So each
    root with such an edge after two rounds took in another in the first:
    these roots at least halve every two rounds, and hooking needs two.
    """
    root = np.arange(n)
    while len(u):
        root, u, v = _hook_round(root, u, v)
    component_id = (np.cumsum(root == np.arange(n)) - 1)[root]
    component_id.flags.writeable = False
    return component_id


def _hook_round(root, u, v):
    """One round of :func:`components`: drop the edges whose ends share a
    root, hook each larger root under the smallest root an edge joins it
    to, and jump pointers until a jump moves none, one whole-array
    comparison per jump; returns them and the edges kept."""
    a, b = root[u], root[v]
    live = a != b
    a, b = a[live], b[live]
    np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
    while not ((up := root[root]) == root).all():
        root = up
    return root, u[live], v[live]

"""The two-copy mirror graph: signed parallel edges, realizations, projections.

Every vertex u appears twice, as a left copy and a right copy.  A genuine
edge (a, b) spawns four signed edges: two parallel ones in the upper half
(between a's left copy and b's right copy) and two in the lower half
(between b's left copy and a's right copy).  Each vertex also has a single
*twin* edge joining its two copies.  Signs order preferences: every copy
prefers partners reached through their minus tag over partners reached
through their plus tag, keeping the original order within each block; a
left copy ranks its twin dead last, while a right copy ranks its twin
between the two blocks.

Stable matchings here encode "half-integral" popular structure; symmetric
ones project to matchings of the original instance, and the per-vertex sign
sums recover popularity certificates.  The graph stores its instance and
the legal flags, and builds one per-edge table the first time it is read:
each edge's two ends, its position in its left copy's list and its rank at
its right copy.  The engine runs on that table, and the blocking test and
the debug dump read it.  Tags, projections and signs stay arithmetic on
the id, copy ``e & 3`` of genuine edge ``e >> 2``.  Mirror matchings are
read in whole-array passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .engine import ProposalSystem
from .instance import Instance, Matching


@dataclass(frozen=True)
class MirrorGraph:
    """Signed two-copy graph of an instance, with legal flags.

    For the k-th genuine edge (a, b) the four signed edges take ids
    ``4k .. 4k+3``: upper with a tagged plus, upper with a tagged minus,
    lower with b tagged plus, lower with b tagged minus.  Twin edges follow
    at ``4m + u``.  So an edge's tags, whether it is a twin and whether it
    is forbidden follow from its id: a genuine copy's left tag is plus when
    its id is even and its right tag is the opposite, a twin's left tag is
    minus and its right tag plus, and a copy is forbidden when the
    classification's ``legal_flags`` (shared, not copied) do not mark its
    genuine edge, or for a twin its vertex's self-loop, as legal.  An upper
    copy joins a's left copy to b's right copy and a lower copy the other
    way round.  Each edge's two ends and where each ranks it are kept in
    one per-edge table, the private ``_table``, built once, when first
    read.  The flags are left out of equality and hashing (they follow
    from ``inst``).
    """

    inst: Instance
    legal_flags: np.ndarray = field(compare=False)

    @property
    def num_edges(self) -> int:
        return 4 * self.inst.m + self.inst.n

    def is_twin(self, e: int) -> bool:
        return e >= 4 * self.inst.m

    def left_tag(self, e: int) -> int:
        return -1 if self.is_twin(e) or e & 1 else 1

    def forbidden_flags(self) -> np.ndarray:
        """Whether each edge is forbidden, as one bool array over edge ids."""
        legal, m = self.legal_flags, self.inst.m
        return ~np.concatenate((legal[:m].repeat(4), legal[m:]))

    @cached_property
    def _table(self) -> tuple[np.ndarray, ...]:
        """Four int arrays over edge ids: each edge's left copy, right copy,
        position in its left copy's list and rank at its right copy.

        A copy with d neighbors ranks its edges in three blocks.  Its left
        list holds the minus-tagged partners (reached along its own plus
        tag), the plus-tagged partners, then the twin; its right order
        holds the minus-tagged partners, the twin, then the plus-tagged
        partners.  So an edge at rank r of u's list sits at r (even id) or
        d + r (odd id) on the left and at d + 1 + r (even) or r (odd) on
        the right, the twin at 2d and d.  The degree is gathered once at
        the agents and once at the jobs, and each entry is then one of
        four arrays: a rank, or a rank pushed past d or d + 1.
        """
        inst = self.inst
        m, n, lay = inst.m, inst.n, inst.layout
        degree = lay.degrees()
        left, right, at, rank = (np.empty(4 * m + n, np.intp) for _ in range(4))
        left[4 * m:] = right[4 * m:] = np.arange(n)
        at[4 * m:], rank[4 * m:] = 2 * degree, degree
        agents, jobs = lay.agent_of, inst.num_agents + lay.job_of
        ar, jr = lay.agent_rank, lay.job_rank
        ad, jd = ar + degree[agents], jr + degree[jobs]
        copies = (
            (agents, jobs, ar, jd + 1), (agents, jobs, ad, jr),
            (jobs, agents, jr, ad + 1), (jobs, agents, jd, ar),
        )
        for t, (u, v, pos, r) in enumerate(copies):
            left[t:4 * m:4], right[t:4 * m:4] = u, v
            at[t:4 * m:4], rank[t:4 * m:4] = pos, r
        return left, right, at, rank


@dataclass(frozen=True, eq=False)
class MirrorMatching:
    """A perfect matching of the mirror graph, stored per copy.

    ``left_edge[u]`` / ``right_edge[u]`` are int arrays holding the edge
    id matched at u's left / right copy, -1 for none.  Arrays have no
    single truth value, so matchings compare by identity.
    """

    mirror: MirrorGraph
    left_edge: np.ndarray
    right_edge: np.ndarray

    def uses_forbidden(self) -> bool:
        return bool(self.mirror.forbidden_flags()[self.left_edge].any())


def mirror_system(mirror: MirrorGraph) -> ProposalSystem:
    """Proposal system over the mirror graph: left copies propose, right dispose.

    The system is given the graph's per-edge table, shared, not copied.
    Every signed copy of a non-legal edge, and the twin of every vertex
    whose self-loop is not legal, is forbidden before the run.
    """
    n = mirror.inst.n
    return ProposalSystem(n, n, *mirror._table, mirror.forbidden_flags())


def realize_witnessed(
    mirror: MirrorGraph, mat: Matching, own, alpha
) -> MirrorMatching:
    """Symmetric mirror realization of a popular matching from its certificate.

    ``own`` is the array ``mat.partner_ranks(inst)``, so agent a's matched
    edge is ``starts[a] + own[a]``.  Matched pairs are signed by their
    certificate values; a pair whose entries do not cancel violates the
    tight-edge property of certificates and is rejected, and then a single
    vertex with a nonzero entry.  At every vertex the two incident sign tags
    sum to twice its certificate entry, and the all-zero certificate of a
    stable matching puts every pair on its minus-to-plus copies and every
    single vertex on its twin.  The realization's two edge arrays are new.
    """
    inst = mirror.inst
    partner, alpha = mat.partner, np.asarray(alpha)
    left = np.arange(inst.n)
    agents = np.flatnonzero(partner[:inst.num_agents] != left[:inst.num_agents])
    jobs, sign = partner[agents], alpha[agents]
    if (bad := np.flatnonzero(sign + alpha[jobs] != 0)).size:
        a, b = inst.names[agents[bad[0]]], inst.names[jobs[bad[0]]]
        raise ValueError(
            f"matched pair ({a}, {b}) has non-cancelling certificate entries"
        )
    if (bad := np.flatnonzero((partner == left) & (alpha != 0))).size:
        raise ValueError(
            f"self-matched vertex {inst.names[bad[0]]} has a nonzero "
            "certificate entry"
        )
    # The agent's entry picks the copies: minus takes the upper minus and
    # lower plus, plus the upper plus and lower minus, zero both minus ones.
    k = 4 * (inst.layout.starts[agents] + own[agents])
    left += 4 * inst.m
    right = left.copy()
    left[agents] = right[jobs] = k + (sign <= 0)
    left[jobs] = right[agents] = k + 2 + (sign >= 0)
    return MirrorMatching(mirror, left, right)


def project(mh: MirrorMatching) -> tuple[Matching, Matching]:
    """Matchings induced in the two halves, ``(upper, lower)``: the agents'
    left copies for the upper, the jobs' for the lower; twin-matched
    vertices become self-matched."""
    inst = mh.mirror.inst
    na, lay = inst.num_agents, inst.layout
    halves = []
    for left in (mh.left_edge[:na], mh.left_edge[na:]):
        k = left[(left >= 0) & (left < 4 * inst.m)] >> 2
        agents, jobs = lay.agent_of[k], na + lay.job_of[k]
        partner = np.arange(inst.n)
        partner[agents] = jobs
        partner[jobs] = agents
        halves.append(Matching(partner))
    return halves[0], halves[1]


def classify_partition(mh: MirrorMatching) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex signs of a perfect mirror matching: two int arrays
    ``(upper, lower)``.

    ``upper[u]`` is the tag of u's matched edge at u's copy in the upper
    half (an agent's left copy, a job's right copy) and ``lower[u]`` the
    tag at u's other copy; both are 0 when u is twin-matched.
    """
    inst = mh.mirror.inst
    left, right = mh.left_edge, mh.right_edge
    if (left == -1).any() or (right == -1).any():
        raise ValueError("mirror matching is not perfect")
    na, twins = inst.num_agents, 4 * inst.m
    # A genuine copy's left tag is plus on even ids; its right tag opposes.
    at_left = np.where(left >= twins, 0, 1 - 2 * (left & 1))
    at_right = np.where(right >= twins, 0, 2 * (right & 1) - 1)
    upper = np.concatenate((at_left[:na], at_right[na:]))
    lower = np.concatenate((at_right[:na], at_left[na:]))
    return upper, lower


def mirror_blocking_edges(mh: MirrorMatching) -> tuple[int, ...]:
    """Every mirror edge both of whose endpoints prefer it to their matches.

    Each edge's entries in the graph's table are compared with the
    positions of its two copies' matched edges, a copy with no edge (-1)
    preferring every edge.  Sorted by id.
    """
    left, right, at, rank = mh.mirror._table
    held_at = np.where(mh.left_edge == -1, len(at), at[mh.left_edge])
    held_rank = np.where(mh.right_edge == -1, len(rank), rank[mh.right_edge])
    hit = (at < held_at[left]) & (rank < held_rank[right])
    return tuple(np.flatnonzero(hit).tolist())


def format_mirror(mirror: MirrorGraph) -> str:
    """Line-oriented debug dump: each copy's ranked edges with forbidden
    flags, read off the graph's table."""
    inst, (left, right, at, rank) = mirror.inst, mirror._table
    names, n = inst.names, inst.n
    flags = mirror.forbidden_flags().tolist()
    labels = []
    for e, (u, v) in enumerate(zip(left.tolist(), right.tolist())):
        lt, rt = "+-" if mirror.left_tag(e) > 0 else "-+"
        mark = "!" if flags[e] else ""
        labels.append(f"({names[u]}_l^{lt}, {names[v]}_r^{rt}){mark}")
    lines = [f"mirror graph: {n * 2} vertices, {mirror.num_edges} edges"]
    for side, owner, key in (("l", left, at), ("r", right, rank)):
        order = np.lexsort((key, owner)).tolist()
        ends = np.cumsum(np.bincount(owner, minlength=n)).tolist()
        for u, (start, end) in enumerate(zip([0] + ends, ends)):
            row = " ".join(labels[e] for e in order[start:end])
            lines.append(f"{names[u]}_{side} > {row}")
    return "\n".join(lines) + "\n"

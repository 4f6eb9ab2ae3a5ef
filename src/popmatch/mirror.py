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
sums recover popularity certificates.  The graph stores only its instance
and the legal flags: copy ``e & 3`` of genuine edge ``e >> 2`` makes every
end, tag, projection, sign and position arithmetic on the layout, and
:func:`mirror_system` lays out the ranked lists for the engine.  Mirror
matchings are read in whole-array passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import ProposalSystem
from .instance import Instance, Matching


@dataclass(frozen=True)
class MirrorGraph:
    """Signed two-copy graph of an instance, with legal flags.

    For the k-th genuine edge (a, b) the four signed edges take ids
    ``4k .. 4k+3``: upper with a tagged plus, upper with a tagged minus,
    lower with b tagged plus, lower with b tagged minus.  Twin edges follow
    at ``4m + u``.  So an edge's ends, its tags, whether it is a twin and
    whether it is forbidden all follow from its id: an upper copy joins
    a's left copy to b's right copy and a lower copy the other way round, a
    genuine copy's left tag is plus when its id is even and its right tag
    is the opposite, a twin's left tag is minus and its right tag plus, and
    a copy is forbidden when the classification's ``legal_flags`` (shared,
    not copied) do not mark its genuine edge, or for a twin its vertex's
    self-loop, as legal.  The graph stores nothing else: its ranked lists
    are laid out by :func:`mirror_system`.  The flags are left out of
    equality and hashing (they follow from ``inst``).
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

    def right_tag(self, e: int) -> int:
        return -self.left_tag(e)

    def forbidden_flags(self) -> np.ndarray:
        """Whether each edge is forbidden, as one bool array over edge ids."""
        legal, m = self.legal_flags, self.inst.m
        return ~np.concatenate((legal[:m].repeat(4), legal[m:]))

    def describe(self, e: int) -> str:
        inst = self.inst
        if self.is_twin(e):
            u = v = e - 4 * inst.m
        else:
            k, lay = e >> 2, inst.layout
            u, v = lay.agent_of[k], inst.num_agents + lay.job_of[k]
            if e & 2:
                u, v = v, u
        lt = "+" if self.left_tag(e) > 0 else "-"
        rt = "+" if self.right_tag(e) > 0 else "-"
        return f"({inst.names[u]}_l^{lt}, {inst.names[v]}_r^{rt})"


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

    The graph is given per edge, as four int arrays filled one copy class
    ``4k + t`` at a time and then the twins: each edge's left and right
    copy, its position in its left copy's list and its rank at its right
    copy.  Every signed copy of a non-legal edge, and the twin of every
    vertex whose self-loop is not legal, is forbidden before the run.
    """
    # A copy with d neighbors ranks its edges in three blocks.  Its left
    # list holds the minus-tagged partners (reached along its own plus
    # tag), the plus-tagged partners, then the twin; its right order holds
    # the minus-tagged partners, the twin, then the plus-tagged partners.
    # So an edge at rank r of u's list sits at r or d + r on the left and
    # at r or d + 1 + r on the right (see _offset), the twin at 2d and d.
    inst = mirror.inst
    m, n = inst.m, inst.n
    degree = inst.layout.degrees()
    left, right, at, rrank = np.empty((4, 4 * m + n), np.intp)
    left[4 * m:] = right[4 * m:] = np.arange(n)
    at[4 * m:], rrank[4 * m:] = 2 * degree, degree
    for t, (u, v, ru, rv) in enumerate(_copy_classes(inst)):
        left[t:4 * m:4], right[t:4 * m:4] = u, v
        at[t:4 * m:4] = ru + _offset(t & 1, degree[u], True)
        rrank[t:4 * m:4] = rv + _offset(t & 1, degree[v], False)
    return ProposalSystem(
        n, n, left, right, at, rrank, bytearray(mirror.forbidden_flags())
    )


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
    partner, alpha = mat.partner_array, np.asarray(alpha)
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
        halves.append(Matching(tuple(partner.tolist())))
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

    Positions are layout arithmetic (see :func:`_positions`).  The twins
    are tested in one n-sized pass and each copy class t in one m-sized
    pass, so no temporary spans all 4m + n edges.  Sorted by id.
    """
    inst = mh.mirror.inst
    deg = inst.layout.degrees()
    left_at = _positions(inst, mh.left_edge, deg, True)
    right_at = _positions(inst, mh.right_edge, deg, False)
    found = [4 * inst.m + np.flatnonzero((2 * deg < left_at) & (deg < right_at))]
    for t, (u, v, ru, rv) in enumerate(_copy_classes(inst)):
        hit = (ru + _offset(t & 1, deg[u], True) < left_at[u]) & (
            rv + _offset(t & 1, deg[v], False) < right_at[v]
        )
        found.append(4 * np.flatnonzero(hit) + t)
    return tuple(np.sort(np.concatenate(found)).tolist())


def _copy_classes(inst: Instance) -> tuple[tuple[np.ndarray, ...], ...]:
    """``(left end, right end, their ranks)`` of the copies ``4k + t`` for
    t = 0 .. 3, each four arrays over k: upper, upper, lower, lower."""
    lay = inst.layout
    agents, jobs = lay.agent_of, inst.num_agents + lay.job_of
    upper = (agents, jobs, lay.agent_rank, lay.job_rank)
    lower = (jobs, agents, lay.job_rank, lay.agent_rank)
    return upper, upper, lower, lower


def _offset(odd, d, left: bool):
    """Where a copy of degree d starts its block of parity ``odd``."""
    return odd * d if left else (1 - odd) * (d + 1)


def _positions(inst: Instance, edges, deg, left: bool) -> np.ndarray:
    """Where each copy's matched edge ``edges[u]`` sits in u's left (or
    right) order.  Edge ``4k + t`` at rank r of u (of degree d) sits at r
    on the left and d + 1 + r on the right when t is even, at d + r and r
    when t is odd; a twin at 2d and d; no edge (-1) counts as 2d + 1."""
    at = np.where(edges == -1, 2 * deg + 1, 2 * deg if left else deg)
    u = np.flatnonzero((edges >= 0) & (edges < 4 * inst.m))
    e = edges[u]
    lay, k = inst.layout, e >> 2
    rank = np.where(u < inst.num_agents, lay.agent_rank[k], lay.job_rank[k])
    at[u] = rank + _offset(e & 1, deg[u], left)
    return at


def format_mirror(mirror: MirrorGraph) -> str:
    """Line-oriented debug dump: each copy's ranked edges with forbidden
    flags, read off a fresh :func:`mirror_system`."""
    inst, system = mirror.inst, mirror_system(mirror)
    lines = [f"mirror graph: {inst.n * 2} vertices, {mirror.num_edges} edges"]
    starts, forbidden = system.list_starts, system.forbidden
    for u in range(inst.n):
        row = " ".join(
            mirror.describe(e) + ("!" if forbidden[e] else "")
            for e in system.list_edges[starts[u]:starts[u + 1]]
        )
        lines.append(f"{inst.names[u]}_l > {row}")
    incoming: list[list[int]] = [[] for _ in range(inst.n)]
    for e in range(mirror.num_edges):
        incoming[system.edge_right[e]].append(e)
    for u in range(inst.n):
        order = sorted(incoming[u], key=system.right_rank.__getitem__)
        row = " ".join(
            mirror.describe(e) + ("!" if forbidden[e] else "") for e in order
        )
        lines.append(f"{inst.names[u]}_r > {row}")
    return "\n".join(lines) + "\n"

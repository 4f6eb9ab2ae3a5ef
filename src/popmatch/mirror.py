"""The two-copy mirror graph: signed parallel edges, embeddings, realizations.

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
sums recover popularity certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import ProposalSystem, blocking_edges
from .instance import Instance, Matching
from .legality import EdgeClassification


@dataclass(frozen=True)
class MirrorGraph:
    """Signed two-copy graph with ranked edge lists and a forbidden set.

    For the k-th genuine edge (a, b) the four signed edges take ids
    ``4k .. 4k+3``: upper with a tagged plus, upper with a tagged minus,
    lower with b tagged plus, lower with b tagged minus.  Twin edges follow
    at ``4m + u``.  ``lrank``/``rrank`` give each edge's position in its
    left/right endpoint's preference order; ``forbidden`` marks every signed
    copy of a non-legal edge and the twin of every vertex whose self-loop is
    not legal.
    """

    inst: Instance
    edge_left: tuple[int, ...]
    edge_right: tuple[int, ...]
    left_tag: tuple[int, ...]
    right_tag: tuple[int, ...]
    g_edge: tuple[int, ...]
    left_lists: tuple[tuple[int, ...], ...]
    lrank: tuple[int, ...]
    rrank: tuple[int, ...]
    forbidden: frozenset[int]

    @property
    def num_edges(self) -> int:
        return len(self.edge_left)

    def twin(self, u: int) -> int:
        return 4 * self.inst.m + u

    def is_twin(self, e: int) -> bool:
        return self.g_edge[e] < 0

    def describe(self, e: int) -> str:
        names = self.inst.names
        lt = "+" if self.left_tag[e] > 0 else "-"
        rt = "+" if self.right_tag[e] > 0 else "-"
        return (
            f"({names[self.edge_left[e]]}_l^{lt}, "
            f"{names[self.edge_right[e]]}_r^{rt})"
        )


@dataclass(frozen=True)
class MirrorMatching:
    """A perfect matching of the mirror graph, stored per copy.

    ``left_edge[u]`` / ``right_edge[u]`` hold the edge id matched at u's
    left / right copy.
    """

    mirror: MirrorGraph
    left_edge: tuple[int, ...]
    right_edge: tuple[int, ...]

    def uses_forbidden(self) -> bool:
        return any(e in self.mirror.forbidden for e in self.left_edge)


def build_mirror(inst: Instance, classification: EdgeClassification) -> MirrorGraph:
    """Construct the mirror graph with its forbidden set from a classification."""
    m, n, na = inst.m, inst.n, inst.num_agents
    lay = inst.layout
    starts, incoming = lay.starts, lay.incoming
    agent_of, job_of = lay.agent_of, [na + j for j in lay.job_of]
    # Upper copies (4k, 4k + 1) join a's left copy to b's right copy, lower
    # copies (4k + 2, 4k + 3) b's left copy to a's right copy; the first of
    # each pair carries the plus tag at its left end.
    edge_left = [0] * (4 * m) + list(range(n))
    edge_right = [0] * (4 * m) + list(range(n))
    for t in (0, 1):
        edge_left[t:4 * m:4] = edge_right[t + 2:4 * m:4] = agent_of
        edge_left[t + 2:4 * m:4] = edge_right[t:4 * m:4] = job_of
    left_tag = [1, -1, 1, -1] * m + [-1] * n
    right_tag = [-1, 1, -1, 1] * m + [1] * n
    g_edge = [k for k in range(m) for _ in range(4)] + [-1] * n

    # A copy with d neighbors ranks its edges in three blocks.  Its left
    # list holds the minus-tagged partners (reached along its own plus
    # tag), the plus-tagged partners, then the twin; its right order holds
    # the minus-tagged partners, the twin, then the plus-tagged partners.
    # So an edge at position r of u's list sits at r or d + r on the left
    # and at r or d + 1 + r on the right, and the twin at 2d and d.
    degree = [starts[a + 1] - starts[a] for a in range(na)]
    degree += [len(row) for row in incoming]
    a_deg = [degree[a] for a in agent_of]
    b_deg = [degree[b] for b in job_of]
    lrank = [0] * (4 * m) + [2 * d for d in degree]
    rrank = [0] * (4 * m) + degree
    lrank[0:4 * m:4] = lay.agent_rank
    lrank[1:4 * m:4] = [d + r for d, r in zip(a_deg, lay.agent_rank)]
    lrank[2:4 * m:4] = lay.job_rank
    lrank[3:4 * m:4] = [d + r for d, r in zip(b_deg, lay.job_rank)]
    rrank[0:4 * m:4] = [d + 1 + r for d, r in zip(b_deg, lay.job_rank)]
    rrank[1:4 * m:4] = lay.job_rank
    rrank[2:4 * m:4] = [d + 1 + r for d, r in zip(a_deg, lay.agent_rank)]
    rrank[3:4 * m:4] = lay.agent_rank
    left_lists = [
        (*range(4 * s, 4 * e, 4), *range(4 * s + 1, 4 * e, 4), 4 * m + a)
        for a, (s, e) in enumerate(zip(starts, starts[1:]))
    ]
    left_lists += [
        (*[4 * k + 2 for k in row], *[4 * k + 3 for k in row], 4 * m + na + j)
        for j, row in enumerate(incoming)
    ]

    # Legal flags per genuine edge k and, at m + u, per self-loop of u.
    legal = classification.legal_flags
    forbidden = [
        e for k in range(m) if not legal[k] for e in range(4 * k, 4 * k + 4)
    ]
    forbidden += [4 * m + u for u in range(n) if not legal[m + u]]

    return MirrorGraph(
        inst=inst,
        edge_left=tuple(edge_left),
        edge_right=tuple(edge_right),
        left_tag=tuple(left_tag),
        right_tag=tuple(right_tag),
        g_edge=tuple(g_edge),
        left_lists=tuple(left_lists),
        lrank=tuple(lrank),
        rrank=tuple(rrank),
        forbidden=frozenset(forbidden),
    )


def mirror_system(mirror: MirrorGraph) -> ProposalSystem:
    """Proposal system over the mirror graph: left copies propose, right dispose."""
    return ProposalSystem(
        num_left=mirror.inst.n,
        num_right=mirror.inst.n,
        left_lists=mirror.left_lists,
        edge_left=mirror.edge_left,
        edge_right=mirror.edge_right,
        right_rank=mirror.rrank,
        forbidden=mirror.forbidden,
    )


def embed_stable(mirror: MirrorGraph, stable: Matching) -> MirrorMatching:
    """Mirror a stable matching symmetrically using the minus-to-plus rule.

    Each matched pair occupies the upper and lower minus-to-plus copies;
    self-matched vertices take their twins.  The input must be stable, and
    the result then has no blocking edge in the mirror graph.
    """
    inst = mirror.inst
    if blocking_edges(inst, stable):
        raise ValueError("matching is not stable")
    left = [-1] * inst.n
    right = [-1] * inst.n
    for a, b in stable.pairs(inst):
        k = inst.edge_id(a, b)
        left[a] = 4 * k + 1
        right[b] = 4 * k + 1
        left[b] = 4 * k + 3
        right[a] = 4 * k + 3
    for u in range(inst.n):
        if stable.is_self(u):
            left[u] = right[u] = mirror.twin(u)
    return MirrorMatching(mirror, tuple(left), tuple(right))


def realize_witnessed(
    mirror: MirrorGraph, mat: Matching, alpha
) -> MirrorMatching:
    """Symmetric mirror realization of a popular matching from its certificate.

    Matched pairs are signed by their certificate values; a pair whose
    entries do not cancel violates the tight-edge property of certificates
    and is rejected.  At every vertex the two incident sign tags sum to
    twice its certificate entry.
    """
    inst = mirror.inst
    left = [-1] * inst.n
    right = [-1] * inst.n
    for a, b in mat.pairs(inst):
        if alpha[a] + alpha[b] != 0:
            raise ValueError(
                f"matched pair ({inst.names[a]}, {inst.names[b]}) has "
                "non-cancelling certificate entries"
            )
        k = inst.edge_id(a, b)
        if alpha[a] < 0:
            left[a] = 4 * k + 1   # upper minus at a
            right[b] = 4 * k + 1
            left[b] = 4 * k + 2   # lower plus at b
            right[a] = 4 * k + 2
        elif alpha[a] > 0:
            left[a] = 4 * k      # upper plus at a
            right[b] = 4 * k
            left[b] = 4 * k + 3  # lower minus at b
            right[a] = 4 * k + 3
        else:
            left[a] = 4 * k + 1
            right[b] = 4 * k + 1
            left[b] = 4 * k + 3
            right[a] = 4 * k + 3
    for u in range(inst.n):
        if mat.is_self(u):
            if alpha[u] != 0:
                raise ValueError(
                    f"self-matched vertex {inst.names[u]} has a nonzero "
                    "certificate entry"
                )
            left[u] = right[u] = mirror.twin(u)
    return MirrorMatching(mirror, tuple(left), tuple(right))


def project(mh: MirrorMatching, half: str) -> Matching:
    """Matching induced in one half; twin-matched vertices become self-matched."""
    if half not in ("upper", "lower"):
        raise ValueError(f"unknown half {half!r}")
    mirror = mh.mirror
    inst = mirror.inst
    partner = list(range(inst.n))
    for u in range(inst.n):
        e = mh.left_edge[u]
        if e == -1 or mirror.is_twin(e):
            continue
        is_upper = inst.is_agent(u)
        if (half == "upper") == is_upper:
            v = mirror.edge_right[e]
            partner[u] = v
            partner[v] = u
    return Matching(tuple(partner))


@dataclass(frozen=True)
class PartitionRecord:
    """Sign partitions induced by a perfect mirror matching.

    ``u_agents``/``u_jobs`` hold twin-matched vertices.  The unprimed sets
    read signs off the upper half (each vertex's own tag there) and the
    primed sets read the lower half.
    """

    u_agents: frozenset[int]
    u_jobs: frozenset[int]
    a_plus: frozenset[int]
    a_minus: frozenset[int]
    b_plus: frozenset[int]
    b_minus: frozenset[int]
    ap_plus: frozenset[int]
    ap_minus: frozenset[int]
    bp_plus: frozenset[int]
    bp_minus: frozenset[int]


def classify_partition(mh: MirrorMatching) -> PartitionRecord:
    """Read the sign partitions off a perfect mirror matching."""
    mirror = mh.mirror
    inst = mirror.inst
    u_agents, u_jobs = set(), set()
    a_plus, a_minus, b_plus, b_minus = set(), set(), set(), set()
    ap_plus, ap_minus, bp_plus, bp_minus = set(), set(), set(), set()
    for u in range(inst.n):
        e = mh.left_edge[u]
        if e == -1 or mh.right_edge[u] == -1:
            raise ValueError("mirror matching is not perfect")
        if mirror.is_twin(e):
            (u_agents if inst.is_agent(u) else u_jobs).add(u)
            continue
        if inst.is_agent(u):
            # Upper-half sign at the agent's left copy.
            (a_plus if mirror.left_tag[e] > 0 else a_minus).add(u)
            er = mh.right_edge[u]
            (ap_plus if mirror.right_tag[er] > 0 else ap_minus).add(u)
        else:
            (bp_plus if mirror.left_tag[e] > 0 else bp_minus).add(u)
            er = mh.right_edge[u]
            (b_plus if mirror.right_tag[er] > 0 else b_minus).add(u)
    return PartitionRecord(
        u_agents=frozenset(u_agents),
        u_jobs=frozenset(u_jobs),
        a_plus=frozenset(a_plus),
        a_minus=frozenset(a_minus),
        b_plus=frozenset(b_plus),
        b_minus=frozenset(b_minus),
        ap_plus=frozenset(ap_plus),
        ap_minus=frozenset(ap_minus),
        bp_plus=frozenset(bp_plus),
        bp_minus=frozenset(bp_minus),
    )


def mirror_blocking_edges(mh: MirrorMatching) -> tuple[int, ...]:
    """Every mirror edge both of whose endpoints prefer it to their matches."""
    mirror = mh.mirror
    blockers = []
    for e in range(mirror.num_edges):
        lu = mirror.edge_left[e]
        rv = mirror.edge_right[e]
        le = mh.left_edge[lu]
        re = mh.right_edge[rv]
        if e in (le, re):
            continue
        if (le == -1 or mirror.lrank[e] < mirror.lrank[le]) and (
            re == -1 or mirror.rrank[e] < mirror.rrank[re]
        ):
            blockers.append(e)
    return tuple(blockers)


def format_mirror(mirror: MirrorGraph) -> str:
    """Line-oriented debug dump: each copy's ranked edges with forbidden flags."""
    inst = mirror.inst
    lines = [f"mirror graph: {inst.n * 2} vertices, {mirror.num_edges} edges"]
    for u in range(inst.n):
        row = " ".join(
            mirror.describe(e) + ("!" if e in mirror.forbidden else "")
            for e in mirror.left_lists[u]
        )
        lines.append(f"{inst.names[u]}_l > {row}")
    incoming: list[list[int]] = [[] for _ in range(inst.n)]
    for e in range(mirror.num_edges):
        incoming[mirror.edge_right[e]].append(e)
    for u in range(inst.n):
        order = sorted(incoming[u], key=mirror.rrank.__getitem__)
        row = " ".join(
            mirror.describe(e) + ("!" if e in mirror.forbidden else "")
            for e in order
        )
        lines.append(f"{inst.names[u]}_r > {row}")
    return "\n".join(lines) + "\n"

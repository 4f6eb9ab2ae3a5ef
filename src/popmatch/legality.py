"""Edge classification: valid, popular, and legal edges, and the popular subgraph.

An edge is *valid* when the one-sided characterization permits it (a top or
fallback edge of some agent, or the self-loop of a vertex no agent ranks
first).  It is *popular* when some popular matching uses it; a genuine edge
is popular exactly when it is a stable pair or a dominant pair, and a
self-loop is popular exactly when its vertex is unstable.  *Legal* edges are
those that are both, and only they may appear in a fully popular matching.

Dominant pairs are reduced to stable pairs of a two-level instance: each
agent splits into a high and a low copy, jobs prefer any high copy to any
low copy, and a private last-resort job arbitrates which copy is active.
That instance is never built.  Its proposal systems run on virtual edge ids
over the instance's own edge layout (see :func:`two_level_systems`), and the
test suite checks the reduction exhaustively against the election oracle
and against a materialized reference.  One rotation walk on the instance
and one on its two-level form yield all their stable edges, so
classification takes time linear in the number of edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .engine import ProposalSystem, build_system, rotation_walk
from .instance import Instance, compute_posts

EdgeKey = tuple[int, int]


@dataclass(frozen=True)
class EdgeClassification:
    """Valid/popular/legal sets plus the popular-subgraph components.

    Edge keys are ``(agent, job)`` pairs; self-loops appear as ``(u, u)``.
    ``component_id[u]`` indexes the connected component of u in the graph of
    genuine popular edges (self-loops connect nothing); every vertex belongs
    to exactly one component.
    """

    valid: frozenset[EdgeKey]
    popular: frozenset[EdgeKey]
    legal: frozenset[EdgeKey]
    component_id: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


def valid_edges(inst: Instance, posts) -> frozenset[EdgeKey]:
    """Edges permitted by the one-sided characterization.

    Each agent contributes its top edge and its fallback slot (possibly its
    own self-loop); each job that is nobody's top choice contributes its
    self-loop.
    """
    keys = set()
    for a in inst.agent_ids():
        keys.add((a, posts.f[a]))
        keys.add((a, posts.s[a]) if posts.s[a] != a else (a, a))
    f_image = posts.f_image()
    for b in inst.job_ids():
        if b not in f_image:
            keys.add((b, b))
    return frozenset(keys)


def two_level_systems(inst: Instance) -> tuple[ProposalSystem, ProposalSystem]:
    """Plain systems of the two-level instance, on virtual edge ids.

    Agent a has a high copy (left vertex a) and a low copy (left vertex
    num_agents + a); jobs keep their index j, and a's private last-resort
    job is index num_jobs + a.  High edge k joins the high copy of the
    agent of the instance's edge k (see ``EdgeLayout``) to that edge's
    job, and low edge m + k joins its low copy; edges 2m + a and
    2m + num_agents + a join a's high and low copy to its last resort.
    The high copy ranks its last resort first and a's jobs after; the low
    copy ranks a's jobs first and the last resort last.  A job ranks all
    high edges above all low edges, keeping its own order inside each
    level, and a last resort prefers the low copy.  In any stable matching
    exactly one copy of a holds a genuine job or a is effectively alone, so
    projecting genuine edges back recovers a dominant matching.

    Every list and rank is arithmetic on the instance's edge layout:
    nothing is looked up by name or rank dict.  Returns the agent-proposing
    system and the job-proposing one.
    """
    lay = inst.layout
    na, nj, m = inst.num_agents, inst.num_jobs, inst.m
    starts, rest = lay.starts, 2 * m
    agents = range(na)
    agent_lists = [[rest + a, *range(starts[a], starts[a + 1])] for a in agents]
    agent_lists += [
        [*range(m + starts[a], m + starts[a + 1]), rest + na + a] for a in agents
    ]
    job_lists = [[*row, *[m + k for k in row]] for row in lay.incoming]
    job_lists += [[rest + na + a, rest + a] for a in agents]
    owner = [*lay.agent_of, *[na + a for a in lay.agent_of], *range(2 * na)]
    post = [*lay.job_of, *lay.job_of, *range(nj, nj + na), *range(nj, nj + na)]
    degree = [len(row) for row in lay.incoming]
    job_rank = [
        *lay.job_rank,
        *[degree[j] + r for j, r in zip(lay.job_of, lay.job_rank)],
        *[1] * na,
        *[0] * na,
    ]
    agent_rank = [
        *[r + 1 for r in lay.agent_rank],
        *lay.agent_rank,
        *[0] * na,
        *[starts[a + 1] - starts[a] for a in agents],
    ]
    return (
        ProposalSystem(
            2 * na, nj + na, agent_lists, owner, post, job_rank, alone_ok=True
        ),
        ProposalSystem(
            nj + na, 2 * na, job_lists, post, owner, agent_rank, alone_ok=True
        ),
    )


def stable_pairs(inst: Instance) -> frozenset[EdgeKey]:
    """All edges lying in some stable matching."""
    agents, jobs = build_system(inst, "agents"), build_system(inst, "jobs")
    return frozenset(map(inst.edges.__getitem__, rotation_walk(agents, jobs)))


def dominant_pairs(inst: Instance) -> frozenset[EdgeKey]:
    """All edges lying in some dominant matching.

    These are the two-level instance's stable high and low edges, each
    taken back to the instance's edge it copies.
    """
    m, edges = inst.m, inst.edges
    stable = rotation_walk(*two_level_systems(inst))
    return frozenset(edges[e % m] for e in stable if e < 2 * m)


def popular_edges(
    inst: Instance, backend: str = "fast", cap: int | None = None
) -> frozenset[EdgeKey]:
    """Edges and self-loops that some popular matching uses.

    The ``fast`` backend combines the stable pairs and dominant pairs with
    the unstable-vertex rule for self-loops.  Every stable matching covers
    the same vertices, so the unstable ones are those no stable pair
    covers.  ``oracle`` enumerates all popular matchings instead and takes
    the union (small instances only).
    """
    if backend == "oracle":
        from .oracle import ground_truth

        report = ground_truth(inst, cap)
        return report.popular_edges | frozenset(
            (u, u) for u in report.popular_loops
        )
    if backend != "fast":
        raise ValueError(f"unknown backend {backend!r}")
    stable = stable_pairs(inst)
    covered = set(chain.from_iterable(stable))
    loops = [(u, u) for u in range(inst.n) if u not in covered]
    return stable.union(dominant_pairs(inst), loops)


def legal_edge_set(inst: Instance, backend: str = "fast") -> EdgeClassification:
    """Classify every edge and self-loop and build the popular-subgraph components."""
    posts = compute_posts(inst)
    valid = valid_edges(inst, posts)
    popular = popular_edges(inst, backend=backend)
    legal = valid & popular

    parent = list(range(inst.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in popular:
        if a != b:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

    roots: dict[int, int] = {}
    component_id = []
    members: list[list[int]] = []
    for u in range(inst.n):
        r = find(u)
        if r not in roots:
            roots[r] = len(members)
            members.append([])
        cid = roots[r]
        component_id.append(cid)
        members[cid].append(u)
    return EdgeClassification(
        valid=valid,
        popular=popular,
        legal=legal,
        component_id=tuple(component_id),
        components=tuple(tuple(ms) for ms in members),
    )

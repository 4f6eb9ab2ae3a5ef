"""Edge classification: valid, popular, and legal edges, and the popular subgraph.

An edge is *valid* when the one-sided characterization permits it (a top or
fallback edge of some agent, or the self-loop of a vertex no agent ranks
first).  It is *popular* when some popular matching uses it; a genuine edge
is popular exactly when it is a stable pair or a dominant pair, and a
self-loop is popular exactly when its vertex is unstable.  *Legal* edges are
those that are both, and only they may appear in a fully popular matching.

Dominant pairs are reduced to stable pairs of a two-level auxiliary
instance: each agent splits into a high and a low copy, jobs prefer any
high copy to any low copy, and a private last-resort job arbitrates which
copy is active.  The reduction is validated exhaustively against the
election oracle in the test suite.  One rotation walk on each of the two
instances yields all their stable pairs, so classification takes time linear
in the number of edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import rotation_walk
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


def two_level_instance(inst: Instance) -> tuple[Instance, int]:
    """Auxiliary instance whose stable matchings are the dominant matchings.

    Agent a becomes a high copy (id a) and a low copy (id num_agents + a).
    The high copy ranks a private last-resort job first and a's jobs after;
    the low copy ranks a's jobs first and the last resort last.  Jobs rank
    all high copies above all low copies, preserving a's order inside each
    level, and each last-resort job accepts only its own two copies, low
    copy first.  In any stable matching exactly one copy of a holds a
    genuine job or the agent is effectively unmatched, so projecting genuine
    pairs back recovers a dominant matching.

    Job b keeps its name and becomes id num_agents + b; a's last resort is
    id n + num_agents + a.  The lists are built on ids directly: they are
    valid by construction, so nothing goes back through names.

    Returns the instance and the number of original agents (which is also
    the id offset of the low copies).
    """
    na, names = inst.num_agents, inst.names
    agents = inst.agent_ids()
    rest = inst.n + na
    jobs_of = [tuple(b + na for b in inst.pref[a]) for a in agents]
    pref = (
        [(rest + a,) + jobs_of[a] for a in agents]
        + [jobs_of[a] + (rest + a,) for a in agents]
        + [
            inst.pref[b] + tuple(na + a for a in inst.pref[b])
            for b in inst.job_ids()
        ]
        + [(na + a, a) for a in agents]
    )
    aux_names = (
        tuple(f"{names[a]}^hi" for a in agents)
        + tuple(f"{names[a]}^lo" for a in agents)
        + names[na:]
        + tuple(f"{names[a]}^rest" for a in agents)
    )
    rank_tbl = tuple({v: i for i, v in enumerate(row)} for row in pref)
    edges = tuple((a, b) for a in range(2 * na) for b in pref[a])
    return Instance(aux_names, 2 * na, tuple(pref), rank_tbl, edges), na


def stable_pairs(
    inst: Instance, candidates=None
) -> frozenset[EdgeKey]:
    """All edges (or the given subset) lying in some stable matching."""
    _, pairs = rotation_walk(inst)
    return pairs if candidates is None else pairs.intersection(candidates)


def dominant_pairs(
    inst: Instance, candidates=None
) -> frozenset[EdgeKey]:
    """All edges (or the given subset) lying in some dominant matching.

    These are the stable pairs of the two-level instance on genuine jobs,
    with either copy of the agent projected back to the agent.
    """
    aux, na = two_level_instance(inst)
    pairs = frozenset(
        (ax % na, bx - na)
        for ax, bx in stable_pairs(aux)
        if bx < inst.n + na
    )
    return pairs if candidates is None else pairs.intersection(candidates)


def popular_edges(
    inst: Instance, backend: str = "fast", cap: int | None = None
) -> frozenset[EdgeKey]:
    """Edges and self-loops that some popular matching uses.

    The ``fast`` backend combines the stable pairs and dominant pairs with
    the unstable-vertex rule for self-loops, reading the unstable vertices
    off the agent-optimal matching that the stable-pair walk starts from;
    ``oracle`` enumerates all popular matchings instead and takes the union
    (small instances only).
    """
    if backend == "oracle":
        from .oracle import ground_truth

        report = ground_truth(inst, cap)
        return report.popular_edges | frozenset(
            (u, u) for u in report.popular_loops
        )
    if backend != "fast":
        raise ValueError(f"unknown backend {backend!r}")
    optimal, stable = rotation_walk(inst)
    out = stable | dominant_pairs(inst)
    return out | frozenset((u, u) for u in range(inst.n) if optimal.is_self(u))


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

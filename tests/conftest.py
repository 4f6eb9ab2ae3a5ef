"""Shared fixtures: the three reference instances and sweep helpers.

``size_gap``: four vertices where the stable matching has size 1 but a
popular matching of size 2 exists.

``identical_prefs``: three agents with identical lists; no matching is
popular on the agent side, so no fully popular matching exists.

``showcase``: twelve vertices where the stable size is 4, a popular perfect
matching of size 6 exists, and the only fully popular matching has size 5,
so neither a min-size nor a max-size popular matching qualifies.  The exact
lists are frozen here and re-certified against the oracle in the acceptance
suite.
"""

from __future__ import annotations

import math
import random
from heapq import heappop, heappush
from itertools import chain, compress
from operator import sub

import numpy as np
import pytest

from popmatch import (
    Instance,
    InstanceError,
    Matching,
    PopularityVerdict,
    compute_posts,
    parse_instance,
)
from popmatch.engine import ProposalSystem, rotation_walk
from popmatch.instance import EdgeLayout, _build, matching_from_ids
from popmatch.generator import generate
from popmatch.legality import legal_edge_set, two_level_edges
from popmatch.mirror import MirrorGraph, MirrorMatching, mirror_system
from popmatch.oracle import edge_weight
from popmatch.popularity import a_popular_obstruction, check_witness
from popmatch.solver import SolverDefect, TraceRow

SIZE_GAP_TEXT = """\
# stable matching has size 1, the popular maximum has size 2
agents: a0 a1
jobs: b0 b1
a0 > b1
a1 > b1 b0
b0 > a1
b1 > a1 a0
"""

IDENTICAL_PREFS_TEXT = """\
# three agents with identical lists: nothing is popular agent-side
agents: a1 a2 a3
jobs: b1 b2 b3
a1 > b1 b2 b3
a2 > b1 b2 b3
a3 > b1 b2 b3
b1 > a1 a2 a3
b2 > a1 a2 a3
b3 > a1 a2 a3
"""

SHOWCASE_TEXT = """\
# only a middle-size popular matching is also popular agent-side
agents: a ap p pp x xp
jobs: b bp q qp y yp
a > b qp bp
ap > b
p > q qp
pp > q qp
x > y yp
xp > y qp
b > a ap
bp > a
q > p pp
qp > a p pp xp
y > x xp
yp > x
"""


# Every InstanceError of ``parse_instance``, with its full message.  The
# first thirteen rows give each message once.  The rows after them pin
# inputs that bulk validation could miss, and inputs with two errors,
# whose message names the one reported first.
PARSE_ERRORS = [
    ("agents: a\njobs: b\nagents: c\n", "line 3: repeated agents line"),
    ("agents: a\njobs: b\n\njobs: c\n", "line 4: repeated jobs line"),
    (
        "agents: a\njobs: b\na b\n",
        "line 3: expected 'name > neighbors...'",
    ),
    ("agents: a\njobs: b\n# note\n  > b\n", "line 4: missing vertex name"),
    (
        "agents: a\njobs: b\na > b\nb > a\na > b\n",
        "line 5: repeated list for 'a'",
    ),
    ("agents: a\na > b\nb > a\n", "missing 'agents:' or 'jobs:' line"),
    (
        "agents: a\njobs: b\na > b\nz > a\nb > a\n",
        "preference line for undeclared vertex 'z'",
    ),
    ("agents: a b a\njobs: b\na > b\nb > a\n", "duplicate vertex name 'a'"),
    ("agents: a\njobs: b\na > b z\nb > a\n", "'a' lists unknown vertex 'z'"),
    (
        "agents: a c\njobs: b\na > b c\nb > a\nc > b\n",
        "'a' lists same-side vertex 'c'",
    ),
    ("agents: a\njobs: b\na > b b\nb > a\n", "'a' lists 'b' more than once"),
    ("agents: a\njobs: b\nb >\n", "agent 'a' has an empty preference list"),
    (
        "agents: a\njobs: b c\na > b c\nb > a\nc >\n",
        "adjacency is not mutual: 'a' lists 'c' but not conversely",
    ),
    # An undeclared name in y's list, whose flat key y*n - 1 equals that
    # of the edge (x, c), which only c lists: the keys of both sides agree.
    (
        "agents: x y\njobs: b c\nx > b\ny > b zz\nb > x y\nc > x\n",
        "'y' lists unknown vertex 'zz'",
    ),
    # A pair listed twice on both sides: the keys of both sides agree.
    (
        "agents: a\njobs: b\na > b b\nb > a a\n",
        "'a' lists 'b' more than once",
    ),
    # A header is a header even with a '>' in it, and so is a repeated one.
    (
        "agents: a >\njobs: b\na > b\nb > a\n",
        "agent '>' has an empty preference list",
    ),
    (
        "agents: a\njobs: b\na > b\nb > a\njobs: c > a\n",
        "line 5: repeated jobs line",
    ),
    # A bad list line, then a malformed line: lines are read first.
    (
        "agents: a\njobs: b\na > b z\nb > a\nnonsense\n",
        "line 5: expected 'name > neighbors...'",
    ),
    # A repeated name in the headers, then an undeclared list.
    (
        "agents: a a\njobs: b\nz > b\n",
        "preference line for undeclared vertex 'z'",
    ),
    # An empty agent list, then a later vertex listing an unknown name:
    # every list is checked before any agent's list is found empty.
    (
        "agents: a c\njobs: b\nc > b\nb > c z\n",
        "'b' lists unknown vertex 'z'",
    ),
    # A one-way edge, then a later repeated entry: entries come first.
    (
        "agents: a c\njobs: b d\na > b d\nc > b\nb > a c\nd > c c\n",
        "'d' lists 'c' more than once",
    ),
    # A repeated list shows only once all lines are read, yet it still
    # wins over a later malformed line, a missing header and an undeclared
    # or repeated name.
    (
        "agents: a\njobs: b\na > b\na > b\nnonsense\n",
        "line 4: repeated list for 'a'",
    ),
    ("agents: a\na > b\na > b\n", "line 3: repeated list for 'a'"),
    (
        "agents: a a\njobs: b\nz > b\nz > b\n",
        "line 4: repeated list for 'z'",
    ),
]

# ``popmatch verify`` input errors on size_gap's matching files, by test id:
# each message once, then two errors in one file, where the first line wins.
MATCHING_ERRORS = {
    "unknown-name": ("a0 b1\na1 zz\n", "line 2: unknown vertex name 'zz'"),
    "non-edge": ("a0 b0\n", "line 1: (a0, b0) is not an edge"),
    "job-first": ("b1 a0\n", "line 1: expected an agent then a job"),
    "matched-twice": (
        "a0 b1\na1 b1\n",
        "line 2: vertex matched twice near (a1, b1)",
    ),
    "one-name": ("# pairs\na0\n", "line 2: expected 'agent job'"),
    "first-bad-line-wins": (
        "a1 b1\na0 b0\nnonsense\n",
        "line 2: (a0, b0) is not an edge",
    ),
}


@pytest.fixture(scope="session")
def size_gap():
    return parse_instance(SIZE_GAP_TEXT)


@pytest.fixture(scope="session")
def identical_prefs():
    return parse_instance(IDENTICAL_PREFS_TEXT)


@pytest.fixture(scope="session")
def showcase():
    return parse_instance(SHOWCASE_TEXT)


def id_of(inst, name: str) -> int:
    """The vertex id of ``name``; ``InstanceError`` for an unknown name."""
    try:
        return inst.names.index(name)
    except ValueError:
        raise InstanceError(f"unknown vertex name {name!r}") from None


def edge_id(inst, a: int, b: int) -> int:
    """Layout id of the genuine edge joining agent a to job b, searched in
    a's edge range; ``ValueError`` when a does not list b."""
    s, e = inst.layout.starts[a:a + 2].tolist()
    return s + inst.layout.job_of[s:e].tolist().index(b - inst.num_agents)


def ids(inst, *names):
    return tuple(id_of(inst, name) for name in names)


def vertex_lists(inst) -> tuple[tuple[int, ...], ...]:
    """Every vertex's list of neighbor ids in preference order, read off the
    edge layout: each agent's edge range, then each job's run of
    ``job_edges``."""
    lay, na = inst.layout, inst.num_agents
    jobs = (na + lay.job_of).tolist()
    agents = lay.agent_of[lay.job_edges].tolist()
    runs = [(jobs, lay.starts.tolist()), (agents, lay.job_starts.tolist())]
    return tuple(
        tuple(flat[s:e]) for flat, bounds in runs
        for s, e in zip(bounds, bounds[1:])
    )


def edge_pairs(inst) -> list[tuple[int, int]]:
    """Every edge as ``(agent, job)`` vertex ids, in edge-id order."""
    lay = inst.layout
    jobs = inst.num_agents + lay.job_of
    return list(zip(lay.agent_of.tolist(), jobs.tolist()))


def flag_keys(inst, flags) -> frozenset[tuple[int, int]]:
    """The ``(agent, job)`` keys of a classification's flagged ids, read
    edge by edge, with ``(u, u)`` for the self-loop m + u."""
    edges, m = edge_pairs(inst), inst.m
    return frozenset(
        edges[k] if k < m else (k - m, k - m)
        for k in np.flatnonzero(flags).tolist()
    )


def serialize_instance(inst) -> str:
    """Render an instance back into the parseable text format."""
    names, na = inst.names, inst.num_agents
    lines = ["agents: " + " ".join(names[:na]), "jobs: " + " ".join(names[na:])]
    lines += [
        f"{names[u]} > " + " ".join(names[v] for v in row)
        for u, row in enumerate(vertex_lists(inst))
    ]
    return "\n".join(lines) + "\n"


def plain_edges(inst):
    """The plain agent-proposing system's six arguments, from the layout."""
    lay = inst.layout
    return (
        inst.num_agents, inst.num_jobs,
        lay.agent_of, lay.job_of, lay.agent_rank, lay.job_rank,
    )


def swap_sides(num_left, num_right, left, right, left_rank, right_rank):
    """A system's six arguments with the proposing side swapped."""
    return num_right, num_left, right, left, right_rank, left_rank


def make_mirror(inst) -> MirrorGraph:
    """The mirror graph of ``inst`` with its legal flags."""
    return MirrorGraph(inst, legal_edge_set(inst).legal_flags)


def left_list(system, u: int) -> list[int]:
    """Left vertex u's ranked edges in a proposal system."""
    starts = system.list_starts
    return list(system.list_edges[starts[u]:starts[u + 1]])


def forbid(system, edges) -> None:
    """Forbid edges in a proposal system before its run."""
    for e in edges:
        system.forbidden[e] = True


def pairs_by_name(inst, mat: Matching):
    return sorted(
        (inst.names[a], inst.names[b]) for a, b in mat.pairs(inst)
    )


def matching_of(inst, pairs) -> Matching:
    """The matching of ``(u, v)`` vertex id pairs, either end first, built
    by :func:`~popmatch.instance.matching_from_ids`."""
    ends = np.array(list(pairs), np.intp).reshape(-1, 2)
    ends.sort(axis=1)
    return matching_from_ids(inst, ends[:, 0], ends[:, 1])


def match_of(inst, *name_pairs) -> Matching:
    return matching_of(
        inst, [(id_of(inst, a), id_of(inst, b)) for a, b in name_pairs]
    )


def size_gap_max(inst) -> Matching:
    return match_of(inst, ("a0", "b1"), ("a1", "b0"))


def size_gap_stable(inst) -> Matching:
    return match_of(inst, ("a1", "b1"))


def showcase_stable(inst) -> Matching:
    return match_of(inst, ("a", "b"), ("p", "q"), ("pp", "qp"), ("x", "y"))


def showcase_full(inst) -> Matching:
    return match_of(
        inst, ("a", "b"), ("p", "q"), ("pp", "qp"), ("x", "yp"), ("xp", "y")
    )


def showcase_max(inst) -> Matching:
    return match_of(
        inst,
        ("a", "bp"),
        ("ap", "b"),
        ("p", "q"),
        ("pp", "qp"),
        ("x", "yp"),
        ("xp", "y"),
    )


def random_text(seed: int, max_side: int = 4) -> str:
    """Deterministic small random instance text for sweep tests."""
    na = 1 + seed % max_side
    nb = 1 + (seed // max_side) % max_side
    density = (0.3, 0.6, 1.0)[seed % 3]
    return generate(na, nb, density, seed)


def random_instance(seed: int, max_side: int = 4):
    return parse_instance(random_text(seed, max_side))


def generate_reference(agents: int, jobs: int, density: float, seed: int) -> str:
    """``generate`` as it was written before its draws were inlined: one
    ``rng.random()`` per geometric gap, ``rng.shuffle`` on each list and an
    f-string per list entry.  A subnormal density overflows in ``int``."""
    if agents < 1 or jobs < 1:
        raise ValueError("need at least one agent and one job")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    rng = random.Random(seed)
    log_skip = math.log1p(-density) if density < 1.0 else None

    def bernoulli_row() -> list[int]:
        row = []
        j = -1
        while True:
            j += 1 + int(math.log(1.0 - rng.random()) / log_skip)
            if j >= jobs:
                return row
            row.append(j)

    rows: list[list[int]] = []
    for _ in range(agents):
        for _attempt in range(1000):
            row = list(range(jobs)) if log_skip is None else bernoulli_row()
            if row:
                break
        else:
            raise ValueError("density too low to give every agent a neighbor")
        rows.append(row)

    cols: list[list[int]] = [[] for _ in range(jobs)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].append(i)

    lines = [
        "agents: " + " ".join(f"a{i}" for i in range(agents)),
        "jobs: " + " ".join(f"b{j}" for j in range(jobs)),
    ]
    for i, row in enumerate(rows):
        order = row[:]
        rng.shuffle(order)
        lines.append(f"a{i} > " + " ".join(f"b{j}" for j in order))
    for j, col in enumerate(cols):
        rng.shuffle(col)
        lines.append(f"b{j} > " + " ".join(f"a{i}" for i in col))
    return "\n".join(lines) + "\n"


def random_matching(rng, inst) -> Matching:
    """A random matching: each edge, in shuffled order, joins with
    probability 0.7 while both its ends are free."""
    edges = edge_pairs(inst)
    rng.shuffle(edges)
    taken: set[int] = set()
    pairs = []
    for a, b in edges:
        if a not in taken and b not in taken and rng.random() < 0.7:
            taken.update((a, b))
            pairs.append((a, b))
    return matching_of(inst, pairs)


def ring_text(n: int) -> str:
    """Rotation chain: agent ai lists bi, b(i+1); job bj lists a(j-1), aj."""
    lines = [
        "agents: " + " ".join(f"a{i}" for i in range(n)),
        "jobs: " + " ".join(f"b{i}" for i in range(n)),
    ]
    lines += [f"a{i} > b{i} b{(i + 1) % n}" for i in range(n)]
    lines += [f"b{j} > a{(j - 1) % n} a{j}" for j in range(n)]
    return "\n".join(lines) + "\n"


def ring_instance(n: int):
    return parse_instance(ring_text(n))


BLOCK = [
    ("a0", ["b0", "b1"]),
    ("a1", ["b1", "b2"]),
    ("a2", ["b0", "b1"]),
    ("b0", ["a2", "a0"]),
    ("b1", ["a2", "a1", "a0"]),
    ("b2", ["a1"]),
]


def composed_text(blocks: int, seed: int | None = None, block=BLOCK) -> str:
    """Disjoint copies of a block, ``BLOCK`` unless another is given as
    ``(name, list)`` pairs with agents named ``a...``; block i's names end in
    ``_i``.

    With a ``seed`` the vertex declarations and list lines are shuffled, so
    ids and edge ids no longer follow the blocks.
    """
    agents, jobs, lines = [], [], []
    for i in range(blocks):
        for name, row in block:
            tag = f"{name}_{i}"
            (agents if name.startswith("a") else jobs).append(tag)
            lines.append(f"{tag} > " + " ".join(f"{v}_{i}" for v in row))
    if seed is not None:
        rng = random.Random(seed)
        for seq in (agents, jobs, lines):
            rng.shuffle(seq)
    return (
        "agents: "
        + " ".join(agents)
        + "\njobs: "
        + " ".join(jobs)
        + "\n"
        + "\n".join(lines)
        + "\n"
    )


def planted_text(blocks: int, cross: int, seed: int) -> str:
    """Disjoint copies of ``BLOCK`` glued by ``cross`` random cross edges.

    Each cross edge joins an agent and a job of two different blocks, and
    both ends rank it below their block's own edges, so popular-subgraph
    components can span blocks.
    """
    rng = random.Random(seed)
    prefs = {
        f"{name}_{i}": [f"{v}_{i}" for v in row]
        for i in range(blocks)
        for name, row in BLOCK
    }
    agents = [name for name in prefs if name.startswith("a")]
    jobs = [name for name in prefs if name.startswith("b")]
    for _ in range(cross):
        a, b = rng.choice(agents), rng.choice(jobs)
        if a.split("_")[1] != b.split("_")[1] and b not in prefs[a]:
            prefs[a].append(b)
            prefs[b].append(a)
    return (
        "agents: " + " ".join(agents) + "\njobs: " + " ".join(jobs) + "\n"
        + "".join(f"{u} > {' '.join(row)}\n" for u, row in prefs.items())
    )


def latin_text(n: int) -> str:
    """Complete lists in cyclic order: agent ai ranks bi, b(i+1), ... and
    job bj ranks a(j+1), a(j+2), ... (indices mod n).

    Every agent walks its whole list from its first job to its last, so the
    rotation walks make about n^2 moves, n at a time.
    """
    lines = [
        "agents: " + " ".join(f"a{i}" for i in range(n)),
        "jobs: " + " ".join(f"b{i}" for i in range(n)),
    ]
    lines += [
        f"a{i} > " + " ".join(f"b{(i + k) % n}" for k in range(n))
        for i in range(n)
    ]
    lines += [
        f"b{j} > " + " ".join(f"a{(j + 1 + k) % n}" for k in range(n))
        for j in range(n)
    ]
    return "\n".join(lines) + "\n"


def two_level_reference(inst):
    """The two-level instance materialized, as a reference for dominant pairs.

    Agent a becomes a high copy (id a) and a low copy (id num_agents + a).
    The high copy ranks a private last-resort job first and a's jobs after;
    the low copy ranks a's jobs first and the last resort last.  Jobs rank
    all high copies above all low copies, preserving a's order inside each
    level, and each last-resort job accepts only its own two copies, low
    copy first.  Its stable pairs on genuine jobs, projected back to the
    agents, are the dominant pairs.

    Job b keeps its name and becomes id num_agents + b; a's last resort is
    id n + num_agents + a.  Returns the instance and the number of original
    agents (which is also the id offset of the low copies).
    """
    na, names, lists = inst.num_agents, inst.names, vertex_lists(inst)
    agents = range(na)
    rest = inst.n + na
    jobs_of = [tuple(b + na for b in lists[a]) for a in agents]
    pref = (
        [(rest + a,) + jobs_of[a] for a in agents]
        + [jobs_of[a] + (rest + a,) for a in agents]
        + [row + tuple(na + a for a in row) for row in lists[na:]]
        + [(na + a, a) for a in agents]
    )
    aux_names = (
        tuple(f"{names[a]}^hi" for a in agents)
        + tuple(f"{names[a]}^lo" for a in agents)
        + names[na:]
        + tuple(f"{names[a]}^rest" for a in agents)
    )
    aux = _build(
        list(aux_names[: 2 * na]),
        list(aux_names[2 * na:]),
        {aux_names[u]: [aux_names[v] for v in row] for u, row in enumerate(pref)},
    )
    return aux, na


def stable_matching(inst) -> Matching:
    """Agent-optimal stable matching: one run of the agent-proposing system."""
    system = ProposalSystem(*plain_edges(inst))
    system.run()
    partner = list(range(inst.n))
    for a, e in enumerate(system.left_match):
        if e != -1:
            b = inst.num_agents + system.edge_right[e]
            partner[a], partner[b] = b, a
    return Matching(tuple(partner))


def stable_vertices(inst) -> frozenset[int]:
    """Vertices matched to genuine partners in every stable matching.

    All stable matchings cover the same vertex set, so one agent-proposing
    run settles membership.
    """
    mat = stable_matching(inst)
    return frozenset(u for u in range(inst.n) if mat.partner[u] != u)


def blocking_mask(inst, partners: np.ndarray) -> np.ndarray:
    """Which edges block each row of the k×n partner array ``partners``, as
    a k×m bool array in edge-id order.

    Whole-array passes over the layout: every vertex ranks its partner at
    n, below its whole list, except at the two ends of a matched edge, and
    an edge blocks when both ends rank it above their partners.
    """
    lay = inst.layout
    jobs = inst.num_agents + lay.job_of
    own = np.full(partners.shape, inst.n)
    i, k = np.nonzero(partners[:, lay.agent_of] == jobs)
    own[i, lay.agent_of[k]] = lay.agent_rank[k]
    own[i, jobs[k]] = lay.job_rank[k]
    return (lay.agent_rank < own[:, lay.agent_of]) & (
        lay.job_rank < own[:, jobs]
    )


def blocking_edges(inst, mat: Matching) -> frozenset[tuple[int, int]]:
    """All edges whose endpoints both strictly prefer each other to their
    partners, as ``(agent, job)`` pairs."""
    hit = blocking_mask(inst, mat.partner[None])[0]
    return frozenset(compress(edge_pairs(inst), hit.tolist()))


def pair_families(inst):
    """``(stable, dominant)``: the ``(agent, job)`` keys of the edges in some
    stable and in some dominant matching, from the two rotation walks."""
    edges, m = edge_pairs(inst), inst.m
    stable = rotation_walk(*plain_edges(inst))
    dom = rotation_walk(*two_level_edges(inst))
    return (
        frozenset(edges[k] for k in np.flatnonzero(stable).tolist()),
        frozenset(
            edges[k] for k in np.flatnonzero(dom[:m] | dom[m:2 * m]).tolist()
        ),
    )


def classification_reference(inst):
    """Edge classification on ``(agent, job)`` keys and edge tuples.

    Returns ``(valid, popular, legal, component_id, components)`` as
    ``legal_edge_set`` gives them: the valid slots read off the posts, the
    popular edges as stable pairs, dominant pairs and the loops of vertices
    no stable pair covers, and the components from a union-find over the
    popular key set.
    """
    posts = compute_posts(inst)
    f, s = posts.f.tolist(), posts.s.tolist()
    valid = set()
    for a in range(inst.num_agents):
        valid.add((a, f[a]))
        valid.add((a, s[a]) if s[a] != a else (a, a))
    jobs = range(inst.num_agents, inst.n)
    valid = frozenset(valid).union((b, b) for b in jobs if b not in f)
    stable, dominant = pair_families(inst)
    covered = set(chain.from_iterable(stable))
    loops = [(u, u) for u in range(inst.n) if u not in covered]
    popular = stable.union(dominant, loops)

    parent = list(range(inst.n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in popular:
        if a != b:
            parent[find(a)] = find(b)
    roots: dict[int, int] = {}
    component_id = []
    members: list[list[int]] = []
    for u in range(inst.n):
        cid = roots.setdefault(find(u), len(members))
        if cid == len(members):
            members.append([])
        component_id.append(cid)
        members[cid].append(u)
    return (
        valid,
        popular,
        valid & popular,
        tuple(component_id),
        tuple(map(tuple, members)),
    )


def forbidden_reference(inst, legal) -> frozenset[int]:
    """The mirror graph's forbidden ids for a legal key set, via ``edge_id``."""
    m = inst.m
    keep = [False] * (m + inst.n)
    for a, b in legal:
        keep[m + a if a == b else edge_id(inst, a, b)] = True
    forbidden = [e for k in range(m) if not keep[k] for e in range(4 * k, 4 * k + 4)]
    forbidden += [4 * m + u for u in range(inst.n) if not keep[m + u]]
    return frozenset(forbidden)


def project_two_level(inst, aux_pairs, na):
    """Genuine-job pairs of the two-level instance, taken back to ``inst``."""
    return frozenset(
        (ax % na, bx - na) for ax, bx in aux_pairs if bx < inst.n + na
    )


def layout_reference(inst) -> EdgeLayout:
    """The edge layout built edge by edge from the per-vertex lists, in O(m).

    The lists are read off the layout itself (:func:`vertex_lists`), so
    callers check them against :func:`eager_views` (or the per-name parser)
    too.
    """
    na, pref = inst.num_agents, vertex_lists(inst)
    rank_tbl = [{v: i for i, v in enumerate(row)} for row in pref]
    starts = [0]
    agent_of: list[int] = []
    job_of: list[int] = []
    agent_rank: list[int] = []
    for a in range(na):
        row = pref[a]
        agent_of += [a] * len(row)
        job_of += [b - na for b in row]
        agent_rank += range(len(row))
        starts.append(len(agent_of))
    incoming = tuple(
        tuple([starts[a] + rank_tbl[a][b] for a in pref[b]])
        for b in range(na, inst.n)
    )
    job_rank = [0] * len(agent_of)
    for row in incoming:
        for r, k in enumerate(row):
            job_rank[k] = r
    job_starts = [0]
    for row in incoming:
        job_starts.append(job_starts[-1] + len(row))
    job_edges = list(chain.from_iterable(incoming))
    return EdgeLayout(*(
        np.array(x, np.intp)
        for x in (
            starts, agent_of, job_of, agent_rank, job_rank, job_starts, job_edges
        )
    ))


def partner_ranks_reference(inst, mat: Matching) -> list[int]:
    """``Matching.partner_ranks`` as a list: each matched agent's edge found
    by a search of its edge range."""
    lay, na, partner = inst.layout, inst.num_agents, mat.partner.tolist()
    starts, job_of = lay.starts.tolist(), lay.job_of.tolist()
    job_rank, js = lay.job_rank.tolist(), lay.job_starts.tolist()
    own = [*map(sub, starts[1:], starts), *map(sub, js[1:], js)]
    for a in range(na):
        b = partner[a]
        if b != a:
            s = starts[a]
            k = job_of.index(b - na, s, starts[a + 1])
            own[a] = k - s
            own[b] = job_rank[k]
    return own


def incoming_of(layout: EdgeLayout) -> tuple[tuple[int, ...], ...]:
    """Each job's edge ids as a tuple of its own: its run of ``job_edges``."""
    edges, bounds = layout.job_edges.tolist(), layout.job_starts.tolist()
    return tuple(tuple(edges[s:e]) for s, e in zip(bounds, bounds[1:]))


def eager_views(text: str):
    """``(pref, incoming)`` of a valid instance text, built eagerly.

    This is how the bulk parser once built both views with the instance:
    the flat arrays of the parse, sorted by owner and cut into per-vertex
    tuples, and job-side entries paired with edge ids through the argsorts
    of the ``(agent, job)`` keys of both sides.  It is the reference for
    the lists and job runs read off the edge layout.
    """
    agent_names: list[str] = []
    job_names: list[str] = []
    pref_by_name: dict[str, list[str]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("agents:"):
            agent_names = line[len("agents:"):].split()
        elif line.startswith("jobs:"):
            job_names = line[len("jobs:"):].split()
        else:
            head, _, tail = line.partition(">")
            pref_by_name[head.strip()] = tail.split()
    names = agent_names + job_names
    n, na = len(names), len(agent_names)
    idx = {name: i for i, name in enumerate(names)}
    rows = list(pref_by_name.values())
    src = np.repeat(
        np.array([idx[u] for u in pref_by_name], np.intp),
        [len(row) for row in rows],
    )
    dst = np.array([idx[v] for row in rows for v in row], np.intp)
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    deg = np.bincount(src, minlength=n)
    bounds = [0, *np.cumsum(deg).tolist()]
    flat = tuple(dst.tolist())
    pref = tuple([flat[s:e] for s, e in zip(bounds, bounds[1:])])
    m = bounds[na]
    by_a = np.argsort(src[:m] * n + dst[:m])
    by_j = np.argsort(dst[m:] * n + src[m:])
    edge_at = np.empty(m, np.intp)
    edge_at[by_j] = by_a
    flat = tuple(edge_at.tolist())
    job_bounds = [b - m for b in bounds[na:]]
    incoming = tuple(
        [flat[s:e] for s, e in zip(job_bounds, job_bounds[1:])]
    )
    return pref, incoming


def parse_reference(text: str):
    """The per-name parser: returns ``(names, num_agents, pref)``.

    Reads line by line, then checks each vertex's list name by name in id
    order, raising :class:`InstanceError` at the first broken rule.  It is
    the reference that bulk validation must agree with, message for message.
    """
    agent_names = job_names = None
    pref_by_name: dict[str, list[str]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("agents:"):
            if agent_names is not None:
                raise InstanceError(f"line {line_no}: repeated agents line")
            agent_names = line[len("agents:"):].split()
            continue
        if line.startswith("jobs:"):
            if job_names is not None:
                raise InstanceError(f"line {line_no}: repeated jobs line")
            job_names = line[len("jobs:"):].split()
            continue
        if ">" not in line:
            raise InstanceError(f"line {line_no}: expected 'name > neighbors...'")
        head, _, tail = line.partition(">")
        name = head.strip()
        if not name:
            raise InstanceError(f"line {line_no}: missing vertex name")
        if name in pref_by_name:
            raise InstanceError(f"line {line_no}: repeated list for {name!r}")
        pref_by_name[name] = tail.split()
    if agent_names is None or job_names is None:
        raise InstanceError("missing 'agents:' or 'jobs:' line")
    known = set(agent_names) | set(job_names)
    for name in pref_by_name:
        if name not in known:
            raise InstanceError(f"preference line for undeclared vertex {name!r}")

    names = agent_names + job_names
    if len(set(names)) != len(names):
        dup = next(x for x in names if names.count(x) > 1)
        raise InstanceError(f"duplicate vertex name {dup!r}")
    idx = {name: i for i, name in enumerate(names)}
    na = len(agent_names)
    pref: list[tuple[int, ...]] = []
    for u, name in enumerate(names):
        ids: dict[int, None] = {}
        for v_name in pref_by_name.get(name, []):
            if v_name not in idx:
                raise InstanceError(f"{name!r} lists unknown vertex {v_name!r}")
            v = idx[v_name]
            if (v < na) == (u < na):
                raise InstanceError(f"{name!r} lists same-side vertex {v_name!r}")
            if v in ids:
                raise InstanceError(f"{name!r} lists {v_name!r} more than once")
            ids[v] = None
        pref.append(tuple(ids))
    for a in range(na):
        if not pref[a]:
            raise InstanceError(f"agent {names[a]!r} has an empty preference list")
    for u in range(len(names)):
        for v in pref[u]:
            if u not in pref[v]:
                raise InstanceError(
                    f"adjacency is not mutual: {names[u]!r} lists "
                    f"{names[v]!r} but not conversely"
                )
    return tuple(names), na, tuple(pref)


def parse_matching_reference(text: str, inst: Instance) -> Matching:
    """The line-by-line matching-file parser, as a reference.

    Each line is checked as it is read, on the edge layout, and pairs its
    agent and job at once, so every error names its line.  The whole-array
    parser must agree with it, message for message.
    """
    na, names = inst.num_agents, inst.names
    ids = dict(zip(names, range(inst.n)))
    partner = list(range(inst.n))
    starts, job_of = inst.layout.starts.tolist(), inst.layout.job_of.tolist()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InstanceError(f"line {line_no}: expected 'agent job'")
        for name in parts:
            if name not in ids:
                raise InstanceError(f"line {line_no}: unknown vertex name {name!r}")
        a, b = ids[parts[0]], ids[parts[1]]
        if a >= na or b < na:
            raise InstanceError(f"line {line_no}: expected an agent then a job")
        if b - na not in job_of[starts[a]:starts[a + 1]]:
            raise InstanceError(
                f"line {line_no}: ({names[a]}, {names[b]}) is not an edge"
            )
        if partner[a] != a or partner[b] != b:
            raise InstanceError(
                f"line {line_no}: vertex matched twice near "
                f"({names[a]}, {names[b]})"
            )
        partner[a], partner[b] = b, a
    return Matching(partner)


def wt_total(inst: Instance, mat: Matching, other: Matching) -> int:
    """Sum of ``edge_weight`` over ``other``'s edges and self-loops.

    Equals the vote difference ``phi(other, mat) - phi(mat, other)``.
    """
    total = 0
    for u, p in enumerate(other.partner.tolist()):
        if p == u:
            total += edge_weight(inst, mat, (u, u))
        elif u < p:
            total += edge_weight(inst, mat, (u, p))
    return total


_INF = 1 << 60


def verify_reference(inst: Instance, mat: Matching):
    """``verify_popular`` on per-agent ``(col, weight)`` lists, as a reference.

    The fold and :func:`assignment_reference` are the list-based versions
    that the flat-array ones replaced; the witness is assembled the same
    way but not re-checked here.  Returns the verdict and the number of
    rows that were tight at the warm start's prices yet dropped after a
    column price reset (the cascade).
    """
    p = inst.num_agents
    q = inst.num_jobs
    partner, lay = mat.partner.tolist(), inst.layout
    starts, job_of, job_rank = lay.starts, lay.job_of, lay.job_rank
    loop_wt = [0 if partner[u] == u else -1 for u in range(inst.n)]
    own = partner_ranks_reference(inst, mat)
    const = sum(loop_wt)

    own_job, loop_job = own[p:], loop_wt[p:]  # job c is vertex p + c
    adj: list[list[tuple[int, int]]] = []
    for a in range(p):
        own_a, loop_a, s = own[a], loop_wt[a], starts[a]
        row = []
        for i, c in enumerate(job_of[s:starts[a + 1]]):
            j, own_b = job_rank[s + i], own_job[c]
            wprime = (
                (i < own_a) - (i > own_a) + (j < own_b) - (j > own_b)
                - loop_a - loop_job[c]
            )
            row.append((c, wprime))
        row.append((q + a, 0))
        adj.append(row)

    value, match_row, y_row, y_col, cascade = assignment_reference(
        p, q, adj, own[:p]
    )
    margin = value + const

    if margin > 0:
        pairs = [
            (a, c + p) for a, c in enumerate(match_row) if c < q
        ]
        best = matching_of(inst, pairs)
        return PopularityVerdict(False, margin, None, best), cascade

    witness = [0] * inst.n
    for a in range(p):
        witness[a] = y_row[a] + loop_wt[a]
    for b in range(p, inst.n):
        witness[b] = y_col[b - p] + loop_wt[b]
    return PopularityVerdict(True, 0, tuple(witness), None), cascade


def assignment_reference(
    p: int, q: int, adj: list[list[tuple[int, int]]], start: list[int]
):
    """Max-weight assignment over per-row ``(col, weight)`` option lists.

    ``adj[a]`` ends with row a's zero-weight sink, col ``q + a``; ``start``
    indexes each row's hinted option.  The warm start checks every row's
    tightness in turn and rechecks a column's rows when its price resets;
    each row it leaves unassigned runs Dijkstra over reduced costs.
    Returns the value, the row assignment, the duals and the cascade count.
    """
    num_cols = q + p
    v = [0] * num_cols
    match_row = [-1] * p
    match_col = [-1] * num_cols
    mcost = [0] * p  # cost (negated weight) of each row's assigned edge

    cost_adj = [[(c, -w) for c, w in row] for row in adj]

    # Per-search state over all columns; a search resets what it touched.
    d = [_INF] * num_cols
    reach_row = [-1] * num_cols
    reach_cost = [0] * num_cols
    prev_col = [-1] * num_cols
    done_mark = [False] * num_cols

    for a, i in enumerate(start):
        c, w = cost_adj[a][i]
        if match_col[c] == -1:
            match_col[c] = a
            match_row[a] = c
            mcost[a] = w
            v[c] = -(-w // 2)
    col_rows: list[list[int]] = [[] for _ in range(num_cols)]
    for a, row in enumerate(cost_adj):
        for c, _ in row:
            col_rows[c].append(a)

    def tight(a: int) -> bool:
        u = mcost[a] - v[match_row[a]]
        return all(w - v[c2] >= u for c2, w in cost_adj[a])

    tight_at_start = [match_row[a] != -1 and tight(a) for a in range(p)]
    cascade = 0
    work = list(range(p))
    while work:
        a = work.pop()
        c = match_row[a]
        if c == -1:
            continue
        u = mcost[a] - v[c]
        if all(w - v[c2] >= u for c2, w in cost_adj[a]):
            continue
        cascade += tight_at_start[a]
        match_row[a] = match_col[c] = -1
        if v[c]:
            v[c] = 0
            work.extend(col_rows[c])

    for a0 in range(p):
        if match_row[a0] != -1:
            continue
        touched = [c for c, _ in cost_adj[a0]]
        done: list[int] = []
        heap: list[tuple[int, bool, int]] = []
        for c, w in cost_adj[a0]:
            d[c] = w - v[c]
            reach_row[c] = a0
            reach_cost[c] = w
            prev_col[c] = -1
            heappush(heap, (d[c], match_col[c] != -1, c))
        while True:
            if not heap:
                raise AssertionError("assignment search ran out of columns")
            dist, matched, bc = heappop(heap)
            if dist != d[bc]:
                continue  # stale: the column was reached more cheaply
            done_mark[bc] = True
            done.append(bc)
            if not matched:
                break
            a1 = match_col[bc]
            base = dist - mcost[a1] + v[bc]
            for c, w in cost_adj[a1]:
                if done_mark[c]:
                    continue
                nd = base + w - v[c]
                if nd < d[c]:
                    if d[c] == _INF:
                        touched.append(c)
                    d[c] = nd
                    reach_row[c] = a1
                    reach_cost[c] = w
                    prev_col[c] = bc
                    heappush(heap, (nd, match_col[c] != -1, c))
        mu = dist
        for c in done:
            v[c] += d[c] - mu
        c = bc
        while True:
            a = reach_row[c]
            match_col[c] = a
            match_row[a] = c
            mcost[a] = reach_cost[c]
            if a == a0:
                break
            c = prev_col[c]
        for c in touched:
            d[c] = _INF
            done_mark[c] = False

    value = -sum(mcost[a] for a in range(p) if match_row[a] < q)
    y_col = [-v[c] for c in range(q)]
    y_row = [v[match_row[a]] - mcost[a] for a in range(p)]
    return value, match_row, y_row, y_col, cascade


# The solve epilogue as per-vertex and per-edge Python: the list-based
# definitions that the whole-array passes in ``popmatch.mirror``,
# ``popmatch.popularity`` and ``popmatch.solver`` replaced, kept as their
# references.


def project_reference(mh) -> tuple[Matching, Matching]:
    """``mirror.project``: each half's left copies read one by one, the
    agents' for the upper half and the jobs' for the lower."""
    mirror = mh.mirror
    inst = mirror.inst
    edge_right = mirror_system(mirror).edge_right
    upper, lower = list(range(inst.n)), list(range(inst.n))
    for u in range(inst.n):
        e = mh.left_edge[u]
        if e == -1 or mirror.is_twin(e):
            continue
        partner = upper if u < inst.num_agents else lower
        v = edge_right[e]
        partner[u] = v
        partner[v] = u
    return Matching(tuple(upper)), Matching(tuple(lower))


def partition_reference(mh):
    """``mirror.classify_partition`` as per-copy list comprehensions."""
    mirror = mh.mirror
    if -1 in mh.left_edge or -1 in mh.right_edge:
        raise ValueError("mirror matching is not perfect")
    na, twins = mirror.inst.num_agents, 4 * mirror.inst.m
    at_left = [0 if e >= twins else -1 if e & 1 else 1 for e in mh.left_edge]
    at_right = [0 if e >= twins else 1 if e & 1 else -1 for e in mh.right_edge]
    return (
        (*at_left[:na], *at_right[na:]),
        (*at_right[:na], *at_left[na:]),
    )


def realize_reference(mirror, mat: Matching, own, alpha) -> MirrorMatching:
    """``mirror.realize_witnessed``, one matched pair and one vertex at a time."""
    inst = mirror.inst
    starts = inst.layout.starts.tolist()
    left = [-1] * inst.n
    right = [-1] * inst.n
    for a, b in mat.pairs(inst):
        if alpha[a] + alpha[b] != 0:
            raise ValueError(
                f"matched pair ({inst.names[a]}, {inst.names[b]}) has "
                "non-cancelling certificate entries"
            )
        k = starts[a] + own[a]
        if alpha[a] < 0:
            left[a] = right[b] = 4 * k + 1   # upper minus at a
            left[b] = right[a] = 4 * k + 2   # lower plus at b
        elif alpha[a] > 0:
            left[a] = right[b] = 4 * k       # upper plus at a
            left[b] = right[a] = 4 * k + 3   # lower minus at b
        else:
            left[a] = right[b] = 4 * k + 1
            left[b] = right[a] = 4 * k + 3
    for u in range(inst.n):
        if mat.partner[u] == u:
            if alpha[u] != 0:
                raise ValueError(
                    f"self-matched vertex {inst.names[u]} has a nonzero "
                    "certificate entry"
                )
            left[u] = right[u] = twin(mirror, u)
    return MirrorMatching(mirror, np.array(left), np.array(right))


def twin(mirror, u: int) -> int:
    """The id of u's twin edge in the mirror graph."""
    return 4 * mirror.inst.m + u


def mirror_edges(mh) -> tuple[list[int], list[int]]:
    """A mirror matching's two per-copy edge arrays as lists, for equality."""
    return mh.left_edge.tolist(), mh.right_edge.tolist()


def prefix_blocking_reference(mh) -> tuple[int, ...]:
    """``mirror.mirror_blocking_edges``: each left copy's list scanned up to
    its matched edge, each edge tested at its right end."""
    system = mirror_system(mh.mirror)
    flat, starts = system.list_edges, system.list_starts
    edge_right, rrank = system.edge_right, system.right_rank
    right_edge = mh.right_edge
    blockers = []
    for u, le in enumerate(mh.left_edge):
        for e in flat[starts[u]:starts[u + 1]]:
            if e == le:
                break
            re = right_edge[edge_right[e]]
            if re == -1 or rrank[e] < rrank[re]:
                blockers.append(e)
    blockers.sort()
    return tuple(blockers)


def is_forbidden(mirror, e: int) -> bool:
    """Whether mirror edge e is forbidden: its genuine edge ``e >> 2``, or
    for the twin ``4m + u`` the self-loop of u, is not legal."""
    m = mirror.inst.m
    return not mirror.legal_flags[e >> 2 if e < 4 * m else e - 3 * m]


def uses_forbidden_reference(mh) -> bool:
    """``MirrorMatching.uses_forbidden`` edge by edge."""
    return any(is_forbidden(mh.mirror, e) for e in mh.left_edge)


def a_popular_reference(inst, posts, mat: Matching) -> bool:
    """``popularity.check_a_popular`` one agent and one top job at a time."""
    f, s, partner = posts.f.tolist(), posts.s.tolist(), mat.partner.tolist()
    for a in range(inst.num_agents):
        p = partner[a]
        if p == a:
            if s[a] != a:
                return False
        elif p != f[a] and p != s[a]:
            return False
    for b in set(f):
        p = partner[b]
        if p == b or f[p] != b:
            return False
    return True


def validate_reference(
    mirror, marks, matching, lower, signs, witness, posts, own_m
) -> None:
    """``solver._validate`` as loops over the vertices, edges and pairs,
    taking the same arguments.

    It keeps the upper-scope check that the array version drops as
    unreachable, and, like it, reports a failed realization as a
    :class:`SolverDefect`.
    """
    inst, mat, low = mirror.inst, matching, lower
    upper, lower = signs
    n, na = inst.n, inst.num_agents

    def ensure(cond: bool, message: str) -> None:
        if not cond:
            raise SolverDefect(message)

    ensure(
        a_popular_reference(inst, posts, mat),
        "result is not one-sided popular",
    )

    z = [marked and s != 0 for marked, s in zip(marks, upper)]
    for u in range(n):
        side = -1 if u < na else 1
        straddles = upper[u] == side and lower[u] == -side
        ensure(
            not z[u] or straddles,
            "marked matched agents escaped the minus/plus intersection"
            if u < na
            else "marked matched jobs escaped the plus/minus intersection",
        )
        ensure(
            not straddles or marks[u],
            "unmarked straddling vertex at termination",
        )
        ensure(
            not z[u] or mat.partner[u] == low.partner[u],
            "upper and lower projections diverge on a marked vertex",
        )

    lay = inst.layout
    own_l = partner_ranks_reference(inst, low)
    restricted = [marked or s == 0 for marked, s in zip(marks, upper)]
    for a in range(na):
        if not restricted[a]:
            continue
        for k in range(lay.starts[a], lay.starts[a + 1]):
            b = na + lay.job_of[k]
            if restricted[b]:
                for own in (own_m, own_l):
                    blocked = (
                        lay.agent_rank[k] < own[a] and lay.job_rank[k] < own[b]
                    )
                    ensure(not blocked, "blocking edge inside the marked region")

    for a in range(na):
        settled = (upper[a] == -1 and not z[a]) or upper[a] == lower[a] == 1
        ensure(
            not settled or own_m[a] <= own_l[a],
            "agent prefers the lower projection",
        )

    for a, b in mat.pairs(inst):
        ok = (
            (upper[a] == 1 and upper[b] == -1)
            or (z[a] and z[b])
            or (upper[a] == -1 and upper[b] == 1 and not (z[a] or z[b]))
        )
        ensure(ok, "matched pair escapes the sign partition")

    in_m = [u < na or upper[u] != 0 for u in range(n)]
    ensure(
        all(in_m[a] == in_m[b] for a, b in mat.pairs(inst)),
        "upper projection matches a twin-matched job",
    )
    scope_m = [u for u in range(n) if in_m[u]]
    ensure(
        check_witness(inst, mat, upper, vertices=scope_m),
        "upper-half certificate failed off the twin-matched jobs",
    )
    in_l = [u >= na or lower[u] != 0 for u in range(n)]
    ensure(
        all(in_l[a] == in_l[b] for a, b in low.pairs(inst)),
        "lower projection matches a twin-matched agent",
    )
    scope_l = [u for u in range(n) if in_l[u]]
    ensure(
        check_witness(inst, low, lower, vertices=scope_l),
        "lower-half certificate failed off the twin-matched agents",
    )

    try:
        realization = realize_reference(mirror, mat, own_m, witness)
    except ValueError as exc:
        raise SolverDefect(str(exc)) from exc
    ensure(
        not prefix_blocking_reference(realization),
        "realization of the result is unstable in the mirror graph",
    )
    ensure(
        not uses_forbidden_reference(realization),
        "realization of the result uses a forbidden edge",
    )


def marks_of(report) -> np.ndarray:
    """A found solve's per-vertex marks, as bool flags: the vertices of its
    triggers' components."""
    cid = report.component_id
    return np.isin(cid, cid[list(report.triggers)])


def iterated_forbid_reference(inst) -> dict:
    """The paper's forbid loop, solving from scratch in every round.

    After the agent-popularity precheck and a first legal stable mirror
    matching, each round takes the lowest-id unmarked vertex whose left copy
    sits on a minus tag and whose right copy on a plus tag, forbids the
    plus-tagged copies at its component's agents, and builds and runs a
    fresh mirror system with every edge forbidden so far; the component is
    marked when that run succeeds.  A run that leaves a left copy alone ends
    in ``none``, naming the smallest such copy.  Every rerun must make as
    many proposals as the first run: its new forbids divorce nothing.
    Returns the fields of the ``SolveReport``.
    """
    none = dict(outcome="none", matching=None, witness=None, size=None, trace=())
    posts = compute_posts(inst)
    blocker = a_popular_obstruction(inst, posts)
    if blocker is not None:
        return {**none, "infeasible_vertex": blocker}
    classification = legal_edge_set(inst, posts=posts)
    mirror = MirrorGraph(inst, classification.legal_flags)
    system = mirror_system(mirror)
    edge_left, edge_right = system.edge_left, system.edge_right
    system.run()
    if -1 in system.left_match:
        return {**none, "infeasible_vertex": system.left_match.tolist().index(-1)}
    first_proposals = system.proposals

    def straddles(u: int) -> bool:
        le, re = system.left_match[u], system.right_match[u]
        return (
            not mirror.is_twin(le) and mirror.left_tag(le) == -1
            and not mirror.is_twin(re) and -mirror.left_tag(re) == 1
        )

    marks = [False] * inst.n
    forbidden: set[int] = set()
    trace = []
    while (trigger := next(
        (u for u in range(inst.n) if not marks[u] and straddles(u)), None
    )) is not None:
        cid = classification.component_id
        component = tuple(u for u in range(inst.n) if cid[u] == cid[trigger])
        agents = {u for u in component if u < inst.num_agents}
        newly = {
            e for e in range(4 * inst.m)
            if mirror.left_tag(e) == 1
            and agents & {edge_left[e], edge_right[e]}
            and not is_forbidden(mirror, e) and e not in forbidden
        }
        forbidden |= newly
        system = mirror_system(mirror)
        forbid(system, forbidden)
        system.run()
        assert system.proposals == first_proposals, (len(trace), trigger)
        trace.append(TraceRow(trigger, component, len(newly)))
        if -1 in system.left_match:
            return {
                **none, "trace": tuple(trace),
                "infeasible_vertex": system.left_match.tolist().index(-1),
            }
        for u in component:
            marks[u] = True
    mh = MirrorMatching(
        mirror, np.array(system.left_match), np.array(system.right_match)
    )
    matching, _ = project_reference(mh)
    upper, _ = partition_reference(mh)
    return dict(
        outcome="found",
        matching=matching,
        witness=tuple(0 if marked else s for marked, s in zip(marks, upper)),
        size=matching.size(inst),
        trace=tuple(trace),
        infeasible_vertex=None,
    )

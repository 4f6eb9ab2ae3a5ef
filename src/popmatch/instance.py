"""Bipartite preference instances, matchings, posts, and pairwise elections.

An instance is a bipartite graph whose two sides are called *agents* and
*jobs*.  Every vertex ranks its genuine neighbors strictly and implicitly
ranks "staying on its own" below all of them, so any matching can be viewed
as a perfect matching once each uncovered vertex is paired with itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import NoReturn

import numpy as np


_HEADERS = ("agents:", "jobs:")


class InstanceError(ValueError):
    """Malformed instance or matching input."""


@dataclass(frozen=True)
class Instance:
    """A two-sided preference system with dense integer vertex ids.

    Agents occupy ids ``0 .. num_agents-1`` and jobs occupy
    ``num_agents .. n-1``.  ``pref[u]`` lists u's genuine neighbors in
    strictly decreasing preference; u itself always ranks
    ``len(pref[u])``, one worse than every genuine neighbor.

    Instances are immutable after construction and safe to share across
    threads; all operations on them are pure.  ``layout`` is the only
    per-edge data built with the instance, and solving and verification
    read only it.  ``pref``, ``rank_tbl[u]`` (each neighbor's position in
    ``pref[u]``) and ``edges`` serve the per-vertex and per-pair accessors
    (``rank_of``, ``has_edge``) of the oracle, elections and
    serialization; they are derived from the layout on first use and then
    kept.  Equality and hashing read the fields alone.
    """

    names: tuple[str, ...]
    num_agents: int
    layout: EdgeLayout

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.layout.agent_of)

    @property
    def num_jobs(self) -> int:
        return self.n - self.num_agents

    @cached_property
    def pref(self) -> tuple[tuple[int, ...], ...]:
        """Agents' rows from their edge ranges, jobs' from ``job_edges``."""
        lay, na = self.layout, self.num_agents
        agent_rows = _split(na + lay.job_of, lay.starts)
        job_rows = _split(lay.agent_of[lay.job_edges], lay.job_starts)
        return agent_rows + job_rows

    @cached_property
    def rank_tbl(self) -> tuple[dict[int, int], ...]:
        return tuple(dict(zip(row, range(len(row)))) for row in self.pref)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge as ``(agent, job)``; edge k is ``edges[k]``."""
        lay, na = self.layout, self.num_agents
        return tuple(zip(lay.agent_of.tolist(), (na + lay.job_of).tolist()))

    def is_agent(self, u: int) -> bool:
        return u < self.num_agents

    def agent_ids(self) -> range:
        return range(self.num_agents)

    def job_ids(self) -> range:
        return range(self.num_agents, self.n)

    def rank_of(self, u: int, v: int) -> int:
        """Position of v in u's list; u's own (worst) slot if v == u."""
        if v == u:
            return len(self.pref[u])
        return self.rank_tbl[u][v]

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.rank_tbl[a]

    @staticmethod
    def build(
        agent_names: list[str],
        job_names: list[str],
        pref_by_name: dict[str, list[str]],
    ) -> "Instance":
        """Intern names to ids, validate every structural invariant, lay out edges.

        Lists under undeclared names are ignored.  All list entries map to
        ids in one pass and the rules are checked on flat arrays; only when
        a rule fails does a name-by-name scan look for the message.
        """
        names = list(agent_names) + list(job_names)
        n, na = len(names), len(agent_names)
        idx = dict(zip(names, range(n)))
        if len(idx) != n:
            counts = Counter(names)
            dup = next(x for x in names if counts[x] > 1)
            raise InstanceError(f"duplicate vertex name {dup!r}")
        get = idx.get
        owner = list(map(get, pref_by_name, repeat(-1)))
        rows = list(pref_by_name.values())
        if -1 in owner:
            rows = [row for u, row in zip(owner, rows) if u >= 0]
            owner = [u for u in owner if u >= 0]
        lens = list(map(len, rows))
        src = np.repeat(np.array(owner, np.intp), lens)
        dst = np.fromiter(
            map(get, chain.from_iterable(rows), repeat(-1)), np.intp, len(src)
        )
        order = np.argsort(src, kind="stable")
        src, dst = src[order], dst[order]
        deg = np.bincount(src, minlength=n)
        layout = _bulk_layout(src, dst, deg, na)
        if layout is None:
            _raise_list_error(names, na, pref_by_name)
        return Instance(tuple(names), na, layout)


class _ArrayFields:
    """A record of arrays: equal when its arrays are, hashed by their bytes."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))

    def __hash__(self) -> int:
        return hash(tuple(x.tobytes() for x in vars(self).values()))


@dataclass(frozen=True, eq=False)
class EdgeLayout(_ArrayFields):
    """An instance's edges as flat int arrays indexed by edge id.

    Built with the instance, from the same flat arrays that validate its
    lists; every field is a read-only array that owns its data.  Agent a's
    edges run from ``starts[a]`` to ``starts[a + 1] - 1``
    in a's preference order, so edge (a, b) has id
    ``starts[a] + pref[a].index(b)``.  Jobs are numbered by
    index, job j being vertex ``num_agents + j``.  ``agent_of[k]`` and
    ``job_of[k]`` are the endpoints of edge k; ``agent_rank[k]`` is the
    job's position in the agent's list and ``job_rank[k]`` the agent's
    position in the job's list.  ``job_edges`` holds every edge id in job
    order: job j's edges, in j's preference order, run from
    ``job_starts[j]`` to ``job_starts[j + 1] - 1``.  Layouts are equal
    when their arrays are, and hash by the arrays' bytes.
    """

    starts: np.ndarray
    agent_of: np.ndarray
    job_of: np.ndarray
    agent_rank: np.ndarray
    job_rank: np.ndarray
    job_starts: np.ndarray
    job_edges: np.ndarray

    def degrees(self) -> np.ndarray:
        """Every vertex's list length as an int array, agents then jobs."""
        return np.concatenate((np.diff(self.starts), np.diff(self.job_starts)))


def _bulk_layout(src, dst, deg, na: int) -> EdgeLayout | None:
    """The edge layout of valid lists, or ``None`` if any rule fails.

    ``src[i]`` lists ``dst[i]``, grouped by ``src`` in id order with each
    list in preference order; ``dst`` is -1 for an undeclared name, and
    ``deg`` counts the entries per vertex.  Past the two checks for
    undeclared names and empty agent lists, one test covers the rest: the
    ``(agent, job)`` keys of the agents' lists, sorted, equal those of the
    jobs' lists with no key twice.  That makes adjacency mutual and rules
    out repeated entries.  It also rules out same-side entries: agent a
    listing c gives the key (a, c), and every job-side key ends in a job,
    so no key matches it when c is an agent; likewise for a job listing a
    job, since every agent-side key starts with an agent.  The two
    argsorts pair each job-side entry with its edge id.
    """
    n = len(deg)
    m = int(deg[:na].sum())
    if (dst < 0).any() or (deg[:na] == 0).any():
        return None
    key_a = src[:m] * n + dst[:m]
    key_j = dst[m:] * n + src[m:]
    by_a, by_j = np.argsort(key_a), np.argsort(key_j)
    sorted_a = key_a[by_a]
    if not np.array_equal(sorted_a, key_j[by_j]) or (
        sorted_a[1:] == sorted_a[:-1]
    ).any():
        return None
    starts = np.zeros(na + 1, np.intp)
    np.cumsum(deg[:na], out=starts[1:])
    job_starts = np.zeros(n - na + 1, np.intp)
    np.cumsum(deg[na:], out=job_starts[1:])
    edge_at = np.empty(m, np.intp)  # edge id of each job-side entry
    edge_at[by_j] = by_a
    job_rank = np.empty(m, np.intp)
    job_rank[edge_at] = np.arange(m) - np.repeat(job_starts[:-1], deg[na:])
    agent_rank = np.arange(m) - np.repeat(starts[:-1], deg[:na])
    # A copy, so that no kept array is a view of the 2m-long parse buffers.
    agent_of, job_of = src[:m].copy(), dst[:m] - na
    arrays = (starts, agent_of, job_of, agent_rank, job_rank, job_starts, edge_at)
    for x in arrays:
        x.flags.writeable = False
    return EdgeLayout(*arrays)


def _split(flat: np.ndarray, bounds: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The int array ``flat`` cut into the runs between consecutive
    ``bounds``, as tuples."""
    flat, bounds = tuple(flat.tolist()), bounds.tolist()
    return tuple([flat[s:e] for s, e in zip(bounds, bounds[1:])])


def _match_pair(inst: Instance, partner: list[int], a, b, starts, job_of) -> None:
    """Pair a with b in ``partner``; raise unless they are a free edge.

    Either may be the agent; the edge is looked up in the agent's range.
    ``starts`` and ``job_of`` are the layout's arrays as lists, which the
    caller takes once for all its pairs.
    """
    u, v = (a, b) if a < b else (b, a)
    na = inst.num_agents
    if not (
        0 <= u < na <= v < inst.n and v - na in job_of[starts[u]:starts[u + 1]]
    ):
        raise InstanceError(f"({inst.names[a]}, {inst.names[b]}) is not an edge")
    if partner[a] != a or partner[b] != b:
        raise InstanceError(
            f"vertex matched twice near ({inst.names[a]}, {inst.names[b]})"
        )
    partner[a] = b
    partner[b] = a


def _raise_list_error(
    names: list[str], num_agents: int, pref_by_name: dict[str, list[str]]
) -> NoReturn:
    """Raise the first broken list rule, scanning name by name.

    Vertices go in id order and each list in its own order: an unknown,
    same-side or repeated entry first, then an agent with an empty list,
    then the first entry that is not listed back.
    """
    idx = {name: i for i, name in enumerate(names)}
    pref: list[tuple[int, ...]] = []
    for u, name in enumerate(names):
        ids: dict[int, None] = {}
        for v_name in pref_by_name.get(name, []):
            if v_name not in idx:
                raise InstanceError(f"{name!r} lists unknown vertex {v_name!r}")
            v = idx[v_name]
            if (v < num_agents) == (u < num_agents):
                raise InstanceError(
                    f"{name!r} lists same-side vertex {v_name!r}"
                )
            if v in ids:
                raise InstanceError(f"{name!r} lists {v_name!r} more than once")
            ids[v] = None
        pref.append(tuple(ids))
    for a in range(num_agents):
        if not pref[a]:
            raise InstanceError(f"agent {names[a]!r} has an empty preference list")
    listed = [set(row) for row in pref]
    for u, row in enumerate(pref):
        for v in row:
            if u not in listed[v]:
                raise InstanceError(
                    f"adjacency is not mutual: {names[u]!r} lists "
                    f"{names[v]!r} but not conversely"
                )
    raise AssertionError("bulk validation rejected lists that pass every rule")


@dataclass(frozen=True, eq=False)
class Matching(_ArrayFields):
    """A perfect matching over the self-augmented vertex set.

    ``partner[u] == u`` means u is on its own; otherwise ``(u, partner[u])``
    is a genuine edge.  The map is a total involution, kept as a read-only
    int array built from any int sequence; matchings are equal when their
    arrays are, and hash by the array's bytes.
    """

    partner: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "partner", np.array(self.partner, np.intp))
        self.partner.flags.writeable = False

    @staticmethod
    def from_pairs(inst: Instance, pairs) -> "Matching":
        partner = list(range(inst.n))
        lists = inst.layout.starts.tolist(), inst.layout.job_of.tolist()
        for a, b in pairs:
            _match_pair(inst, partner, a, b, *lists)
        return Matching(partner)

    def partner_ranks(self, inst: Instance) -> np.ndarray:
        """Each vertex's rank of its partner as an int array; its list
        length when alone.

        One pass over the layout's arrays: edge k is matched when its job is
        its agent's partner.
        """
        lay = inst.layout
        jobs = inst.num_agents + lay.job_of
        own = lay.degrees()
        k = np.flatnonzero(self.partner[lay.agent_of] == jobs)
        own[lay.agent_of[k]] = lay.agent_rank[k]
        own[jobs[k]] = lay.job_rank[k]
        return own

    def pairs(self, inst: Instance) -> tuple[tuple[int, int], ...]:
        """Genuine matched pairs as (agent, job) ints, sorted by agent id."""
        na = inst.num_agents
        agents = np.flatnonzero(self.partner[:na] != np.arange(na))
        return tuple(zip(agents.tolist(), self.partner[agents].tolist()))

    def size(self, inst: Instance) -> int:
        na = inst.num_agents
        return int(np.count_nonzero(self.partner[:na] != np.arange(na)))

    def is_self(self, u: int) -> bool:
        return bool(self.partner[u] == u)


@dataclass(frozen=True, eq=False)
class Posts:
    """Per-agent top choice and fallback post, as read-only int arrays
    indexed by agent; posts compare by identity.

    ``f[a]`` is agent a's first-ranked job.  ``s[a]`` is a's most preferred
    neighbor that is nobody's top choice, or a itself when every neighbor of
    a is some agent's top choice.
    """

    f: np.ndarray
    s: np.ndarray


def parse_instance(text: str) -> Instance:
    """Parse the line-oriented instance format.

    Expected shape::

        agents: a0 a1
        jobs: b0 b1
        a0 > b1
        a1 > b1 b0
        b0 > a1
        b1 > a1 a0

    ``#`` starts a comment line.  Preference lines run from most to least
    preferred.  A vertex without a preference line has an empty list, which
    is an error for agents.
    """
    agent_names: list[str] | None = None
    job_names: list[str] | None = None
    pref_by_name: dict[str, list[str]] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        # The common line, ``name > ...``, first; any other line, and any
        # error, goes through the full sequence of tests below.
        head, sep, tail = raw.partition(">")
        name = head.strip()
        if (
            sep
            and name
            and name not in pref_by_name
            and name[0] != "#"
            and not name.startswith(_HEADERS)
        ):
            pref_by_name[name] = tail.split()
            continue
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
        if not name:
            raise InstanceError(f"line {line_no}: missing vertex name")
        raise InstanceError(f"line {line_no}: repeated list for {name!r}")

    if agent_names is None or job_names is None:
        raise InstanceError("missing 'agents:' or 'jobs:' line")
    known = set(agent_names).union(job_names)
    if not known.issuperset(pref_by_name):
        name = next(name for name in pref_by_name if name not in known)
        raise InstanceError(f"preference line for undeclared vertex {name!r}")
    return Instance.build(agent_names, job_names, pref_by_name)


def serialize_instance(inst: Instance) -> str:
    """Render an instance back into the parseable text format."""
    lines = [
        "agents: " + " ".join(inst.names[: inst.num_agents]),
        "jobs: " + " ".join(inst.names[inst.num_agents:]),
    ]
    for u in range(inst.n):
        lines.append(
            f"{inst.names[u]} > " + " ".join(inst.names[v] for v in inst.pref[u])
        )
    return "\n".join(lines) + "\n"


def parse_matching(text: str, inst: Instance) -> Matching:
    """Parse an ``agent job`` pair-per-line file; omitted vertices are self-matched.

    Each line is checked as it is read, on the edge layout, so every error
    names its line.
    """
    na = inst.num_agents
    ids = dict(zip(inst.names, range(inst.n)))
    partner = list(range(inst.n))
    lists = inst.layout.starts.tolist(), inst.layout.job_of.tolist()
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
        try:
            _match_pair(inst, partner, a, b, *lists)
        except InstanceError as exc:
            raise InstanceError(f"line {line_no}: {exc}") from None
    return Matching(partner)


def format_matching(inst: Instance, mat: Matching) -> str:
    names = inst.names
    return "".join(f"{names[a]} {names[b]}\n" for a, b in mat.pairs(inst))


def compute_posts(inst: Instance) -> Posts:
    """Derive each agent's top choice f(a) and fallback post s(a).

    Reads the edge layout: f(a) is the job of edge ``starts[a]``, and s(a)
    the first job in a's edge range that is nobody's top, found as the
    least such edge id per range (m standing for none).
    """
    na, m, lay = inst.num_agents, inst.m, inst.layout
    f = na + lay.job_of[lay.starts[:-1]]
    is_top = np.zeros(inst.n, bool)
    is_top[f] = True
    candidates = np.where(is_top[na + lay.job_of], m, np.arange(m))
    first = np.minimum.reduceat(candidates, lay.starts[:-1])
    s = np.arange(na)
    has = first < m
    s[has] = na + lay.job_of[first[has]]
    f.flags.writeable = s.flags.writeable = False
    return Posts(f, s)


def run_election(
    inst: Instance, first: Matching, second: Matching
) -> tuple[int, int, int, int]:
    """Head-to-head election between two matchings.

    Returns ``(phi_first, phi_second, phiA_first, phiA_second)``: total votes
    for each matching over all vertices, then over agents only.  Vertices
    with the same partner in both matchings abstain.
    """
    phi_first = phi_second = phi_a_first = phi_a_second = 0
    firsts, seconds = first.partner.tolist(), second.partner.tolist()
    for u, (pu, qu) in enumerate(zip(firsts, seconds)):
        if pu == qu:
            continue
        ballot = 1 if inst.rank_of(u, pu) < inst.rank_of(u, qu) else -1
        if ballot > 0:
            phi_first += 1
            if inst.is_agent(u):
                phi_a_first += 1
        else:
            phi_second += 1
            if inst.is_agent(u):
                phi_a_second += 1
    return phi_first, phi_second, phi_a_first, phi_a_second

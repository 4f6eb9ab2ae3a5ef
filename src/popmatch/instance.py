"""Bipartite preference instances, matchings, and posts.

An instance is a bipartite graph whose two sides are called *agents* and
*jobs*.  Every vertex ranks its genuine neighbors strictly and implicitly
ranks "staying on its own" below all of them, so any matching can be viewed
as a perfect matching once each uncovered vertex is paired with itself.
"""

from __future__ import annotations

from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import itemgetter, not_
from typing import NoReturn

import numpy as np


_HEADERS = ("agents:", "jobs:")


class InstanceError(ValueError):
    """Malformed instance or matching input."""


@dataclass(frozen=True)
class Instance:
    """A two-sided preference system with dense integer vertex ids.

    Agents occupy ids ``0 .. num_agents-1`` and jobs occupy
    ``num_agents .. n-1``.  Every vertex ranks its genuine neighbors
    strictly, from 0, and itself at its list length, one worse than every
    genuine neighbor.  ``layout`` holds every list as per-edge arrays; it
    is the instance's one form of its lists, and solving, verification and
    the oracle read only it.  ``ids`` maps each name to its id; it is the
    dict that :meth:`build` interns the names with, kept for
    :func:`parse_matching`.  Equality, hashing and the repr read the other
    fields alone.

    Instances are immutable after construction and safe to share across
    threads; all operations on them are pure.
    """

    names: tuple[str, ...]
    num_agents: int
    layout: EdgeLayout
    ids: dict[str, int] = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def m(self) -> int:
        return len(self.layout.agent_of)

    @property
    def num_jobs(self) -> int:
        return self.n - self.num_agents

    @staticmethod
    def build(
        agent_names: list[str],
        job_names: list[str],
        pref_by_name: dict[str, list[str]],
    ) -> "Instance":
        """Intern names to ids, validate every structural invariant, lay out edges.

        Lists under undeclared names are ignored.  All list entries map to
        ids in one pass, one scatter puts the lists in id order, and the
        rules are checked on flat arrays; only when a rule fails does a
        name-by-name scan look for the message.
        """
        return _build(agent_names, job_names, pref_by_name, False)


def _build(
    agent_names: list[str],
    job_names: list[str],
    pref_by_name: dict[str, list[str]],
    declared_only: bool,
) -> Instance:
    """:meth:`Instance.build`; with ``declared_only``, a list under an
    undeclared name raises instead, before a repeated name does.

    The owners' ids come from the dict that interns the names, with -1 (the
    least, so ``argmin`` finds the first) for an undeclared name.  Owners are
    distinct, so each vertex has at most one list: ``deg[owner] = lens``
    gives every list's place in id order, and one shifted scatter moves the
    flat entries there, with no sort.
    """
    names = list(agent_names) + list(job_names)
    n, na = len(names), len(agent_names)
    idx = dict(zip(names, range(n)))
    get = idx.get
    rows = pref_by_name.values()
    own = np.fromiter(map(get, pref_by_name, repeat(-1)), np.intp, len(rows))
    if (own < 0).any():
        if declared_only:
            name = list(pref_by_name)[np.argmin(own)]
            raise InstanceError(f"preference line for undeclared vertex {name!r}")
        rows = list(compress(rows, own >= 0))
        own = own[own >= 0]
    if len(idx) != n:
        counts = Counter(names)
        dup = next(x for x in names if counts[x] > 1)
        raise InstanceError(f"duplicate vertex name {dup!r}")
    lens = np.fromiter(map(len, rows), np.intp, len(rows))
    deg = np.zeros(n, np.intp)
    deg[own] = lens
    bounds = np.zeros(n + 1, np.intp)
    np.cumsum(deg, out=bounds[1:])
    total = int(bounds[-1])
    flat = np.fromiter(
        map(get, chain.from_iterable(rows), repeat(-1)), np.intp, total
    )
    # Entry i of the flat lists moves by its list's shift: from where the
    # list starts in dict order to where it starts in id order.
    shift = np.repeat(bounds[own] + lens - np.cumsum(lens), lens)
    dst = np.empty(total, np.intp)
    dst[shift + np.arange(total)] = flat
    src = np.repeat(np.arange(n), deg)
    layout = _bulk_layout(src, dst, deg, na)
    if layout is None:
        _raise_list_error(names, na, pref_by_name)
    return Instance(tuple(names), na, layout, idx)


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
    edges run from ``starts[a]`` to ``starts[a + 1] - 1`` in a's preference
    order, so the edge to a's i-th choice has id ``starts[a] + i``.  Jobs
    are numbered by index, job j being vertex ``num_agents + j``.
    ``agent_of[k]`` and ``job_of[k]`` are the endpoints of edge k;
    ``agent_rank[k]`` is the job's position in the agent's list and
    ``job_rank[k]`` the agent's position in the job's list.  ``job_edges``
    holds every edge id in job order: job j's edges, in j's preference
    order, run from ``job_starts[j]`` to ``job_starts[j + 1] - 1``.
    Layouts are equal when their arrays are, and hash by the arrays' bytes.
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
        """The matching of an iterable of ``(u, v)`` vertex id pairs, either
        end first.

        The pairs are checked together by :func:`matching_from_ids`; only if
        that fails are they re-read in order, and the first bad pair raises:
        an id outside ``0 .. n-1``, a non-edge, or a vertex matched twice.
        """
        pairs = list(pairs)
        ends = np.array(pairs, np.intp).reshape(len(pairs), 2)
        ends.sort(axis=1)
        with suppress(InstanceError):
            return matching_from_ids(inst, ends[:, 0], ends[:, 1])
        seen: set[int] = set()
        for a, b in pairs:
            if error := _pair_error(inst, a, b, seen):
                raise InstanceError(error)
        raise AssertionError("whole-array check rejected valid pairs")

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


def matching_from_ids(inst: Instance, agents, jobs) -> Matching:
    """The matching that pairs ``agents[i]`` with ``jobs[i]``, from two int
    arrays, in whole-array passes.

    Every agent id must lie in ``0 .. num_agents-1`` and every job id in
    ``num_agents .. n-1``, and no vertex may appear twice (one
    ``bincount``).  Every pair is then an edge exactly when as many layout
    edges have their job as their agent's partner as there are pairs, since
    an agent has one partner and lists it at most once.  Raises
    :class:`InstanceError`, naming no pair, if any rule fails; callers that
    owe a message find the first bad pair themselves.
    """
    n, na, lay = inst.n, inst.num_agents, inst.layout
    if (
        ((agents < 0) | (agents >= na) | (jobs < na) | (jobs >= n)).any()
        or (np.bincount(np.concatenate((agents, jobs)), minlength=n) > 1).any()
    ):
        raise InstanceError("pairs are not a matching of the instance")
    partner = np.arange(n)
    partner[agents] = jobs
    partner[jobs] = agents
    if np.count_nonzero(partner[lay.agent_of] == na + lay.job_of) != len(agents):
        raise InstanceError("pairs are not a matching of the instance")
    return Matching(partner)


def _pair_error(inst: Instance, a, b, seen: set[int]) -> str | None:
    """What is wrong with pairing vertex ids a and b (either may be the
    agent) after the vertices in ``seen`` were matched, or ``None``, in
    which case both join ``seen``."""
    n, na, lay, names = inst.n, inst.num_agents, inst.layout, inst.names
    if not (0 <= a < n and 0 <= b < n):
        return f"({a}, {b}) names a vertex id outside 0..{n - 1}"
    u, v = min(a, b), max(a, b)
    if not (u < na <= v and v - na in lay.job_of[lay.starts[u]:lay.starts[u + 1]]):
        return f"({names[a]}, {names[b]}) is not an edge"
    if a in seen or b in seen:
        return f"vertex matched twice near ({names[a]}, {names[b]})"
    seen.update((a, b))
    return None


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

    One pass reads the lines: each list line goes straight into the
    name-to-list dict, and the only other lines it takes are blank lines,
    comments and the first ``agents:`` and ``jobs:`` lines.  A repeated list
    shows after the pass, as a dict with fewer entries than there were list
    lines; a list under an undeclared name shows when the dict that interns
    the names looks up its owner.  Only if a line is irregular are the
    lines re-read in order, so that the error names the first bad line.
    """
    lines = text.splitlines()
    agent_names: list[str] | None = None
    job_names: list[str] | None = None
    pref_by_name: dict[str, list[str]] = {}
    others = 0
    for raw in lines:
        head, sep, tail = raw.partition(">")
        name = head.strip()
        if sep and name and name[0] != "#" and not name.startswith(_HEADERS):
            pref_by_name[name] = tail.split()
            continue
        others += 1
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if agent_names is None and line.startswith("agents:"):
            agent_names = line[len("agents:"):].split()
        elif job_names is None and line.startswith("jobs:"):
            job_names = line[len("jobs:"):].split()
        else:
            _raise_line_error(lines)
    if len(pref_by_name) + others != len(lines):
        _raise_line_error(lines)
    if agent_names is None or job_names is None:
        raise InstanceError("missing 'agents:' or 'jobs:' line")
    return _build(agent_names, job_names, pref_by_name, True)


def _raise_line_error(lines: list[str]) -> NoReturn:
    """Raise the first malformed line's error, reading the lines in order:
    a repeated header, a line that is neither a header nor ``name > ...``,
    a list line without a name, or a second list for one name."""
    headers: set[str] = set()
    listed: set[str] = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header := next(filter(line.startswith, _HEADERS), None):
            if header in headers:
                raise InstanceError(f"line {line_no}: repeated {header[:-1]} line")
            headers.add(header)
            continue
        if ">" not in line:
            raise InstanceError(f"line {line_no}: expected 'name > neighbors...'")
        name = line.partition(">")[0].strip()
        if not name:
            raise InstanceError(f"line {line_no}: missing vertex name")
        if name in listed:
            raise InstanceError(f"line {line_no}: repeated list for {name!r}")
        listed.add(name)
    raise AssertionError("the one-pass parse rejected lines that pass every rule")


def parse_matching(text: str, inst: Instance) -> Matching:
    """Parse an ``agent job`` pair-per-line file; omitted vertices are self-matched.

    Blank lines and lines starting with ``#`` are skipped.  Each line is
    split once, every name maps to its id in one pass (an unknown name to
    -1), and the pairs are checked together by :func:`matching_from_ids`.
    Only if a line does not hold two names or that check fails are the
    lines re-read in order, so that every error names its line.
    """
    ids = inst.ids
    rows = list(filter(None, map(str.split, text.splitlines())))
    comments = list(map(str.startswith, map(itemgetter(0), rows), repeat("#")))
    if True in comments:
        rows = list(compress(rows, map(not_, comments)))
    if set(map(len, rows)) <= {2}:
        tokens = map(ids.get, chain.from_iterable(rows), repeat(-1))
        pair_ids = np.fromiter(tokens, np.intp, 2 * len(rows))
        with suppress(InstanceError):
            return matching_from_ids(inst, pair_ids[0::2], pair_ids[1::2])
    # Some line is bad.  Each line in order is tested for two names, then
    # known names, then an agent before a job, then against the lines before.
    na, seen = inst.num_agents, set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            error = "expected 'agent job'"
        elif unknown := [name for name in parts if name not in ids]:
            error = f"unknown vertex name {unknown[0]!r}"
        elif ids[parts[0]] >= na or ids[parts[1]] < na:
            error = "expected an agent then a job"
        else:
            error = _pair_error(inst, ids[parts[0]], ids[parts[1]], seen)
        if error:
            raise InstanceError(f"line {line_no}: {error}")
    raise AssertionError("whole-array check rejected a valid matching file")


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

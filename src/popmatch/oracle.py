"""Exponential ground truth for small instances.

Enumerates every matching, runs all pairwise elections, and reports the
exact sets of popular, agent-side-popular, and fully popular matchings along
with the popular edge union.  Everything downstream is validated against
these definitions, so this module deliberately trades speed for
transparency: no pruning beyond a vertex cap and a matching cap, and no
structural shortcuts except where explicitly cross-checked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance, InstanceError, Matching

VERTEX_CAP = 16
WITNESS_CAP = 12
# The elections take time quadratic in the number of matchings: about 2 s
# of CPU at 4,051 matchings (5x6 complete), 8 s at 8,852 (the largest that
# a test enumerates, in perfbench) and 20 s at 13,327 (6x6 complete).
MATCHING_CAP = 10_000


class OracleCapError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleReport:
    """Exact election results over every matching of a small instance."""

    num_matchings: int
    popular: tuple[Matching, ...]
    a_popular: tuple[Matching, ...]
    fully_popular: tuple[Matching, ...]
    max_fully_popular_size: int | None
    min_popular_size: int
    max_popular_size: int
    popular_edges: frozenset[tuple[int, int]]
    popular_loops: frozenset[int]


def _matching_count(inst: Instance, stop: int) -> int:
    """The number of matchings, or a number above ``stop`` once the count
    passes it.

    A bitmask program over the smaller side: the vertices of the larger
    side join one at a time, and each set of smaller-side vertices in use
    keeps the number of partial matchings that use exactly that set.  A
    partial matching is a matching too, so the running total never exceeds
    the count, and the program stops as soon as it passes ``stop``.
    """
    rows, cols = inst.agent_ids(), inst.job_ids()
    if len(rows) < len(cols):
        rows, cols = cols, rows
    bit = {v: 1 << i for i, v in enumerate(cols)}
    ways = {0: 1}
    for u in rows:
        grown = dict(ways)  # u alone
        for used, count in ways.items():
            for v in inst.pref[u]:
                if not used & bit[v]:
                    key = used | bit[v]
                    grown[key] = grown.get(key, 0) + count
        ways = grown
        if sum(ways.values()) > stop:
            break
    return sum(ways.values())


def enumerate_matchings(inst: Instance):
    """Yield every matching of the instance exactly once, the empty one included.

    Refuses, before yielding anything, an instance of more than
    ``VERTEX_CAP`` vertices or with more than ``MATCHING_CAP`` matchings.
    """
    if inst.n > VERTEX_CAP:
        raise OracleCapError(
            f"instance has {inst.n} vertices, enumeration cap is {VERTEX_CAP}"
        )
    if _matching_count(inst, MATCHING_CAP) > MATCHING_CAP:
        raise OracleCapError(
            f"instance has more than {MATCHING_CAP} matchings, "
            "too many to enumerate"
        )
    partner = list(range(inst.n))

    def rec(a: int):
        if a == inst.num_agents:
            yield Matching(tuple(partner))
            return
        yield from rec(a + 1)
        for b in inst.pref[a]:
            if partner[b] == b:
                partner[a] = b
                partner[b] = a
                yield from rec(a + 1)
                partner[a] = a
                partner[b] = b

    yield from rec(0)


def ground_truth(inst: Instance) -> OracleReport:
    """Exhaustive elections over all matchings.

    Popularity and agent-side popularity come straight from the vote counts;
    the fully popular set is their intersection.  The popular edge union is
    cross-checked against the rule that a self-loop is popular exactly when
    its vertex is unstable, with the stable vertices read off the same
    enumeration: those matched in some matching without a blocking edge.
    """
    mats = list(enumerate_matchings(inst))
    k = len(mats)
    n = inst.n

    # rank_of_partner[i][u]: how u ranks its partner in matching i.
    ranks = np.empty((k, n), dtype=np.int32)
    for i, mat in enumerate(mats):
        ranks[i] = [inst.rank_of(u, mat.partner[u]) for u in range(n)]

    agent_cols = np.arange(inst.num_agents)
    popular_mask = np.ones(k, dtype=bool)
    a_popular_mask = np.ones(k, dtype=bool)
    for i in range(k):
        better = ranks[i] < ranks  # (k, n): vertices preferring mat i
        worse = ranks[i] > ranks
        if np.any(better.sum(axis=1) < worse.sum(axis=1)):
            popular_mask[i] = False
        ba = better[:, agent_cols].sum(axis=1)
        wa = worse[:, agent_cols].sum(axis=1)
        if np.any(ba < wa):
            a_popular_mask[i] = False

    popular = tuple(m for i, m in enumerate(mats) if popular_mask[i])
    a_popular = tuple(m for i, m in enumerate(mats) if a_popular_mask[i])
    fully = tuple(
        m
        for i, m in enumerate(mats)
        if popular_mask[i] and a_popular_mask[i]
    )

    sizes = [m.size(inst) for m in popular]
    pop_edges = frozenset(
        pair for m in popular for pair in m.pairs(inst)
    )
    pop_loops = frozenset(
        u for m in popular for u in range(n) if m.is_self(u)
    )
    # Edge (a, b) blocks matching i when a and b both rank each other above
    # their partners there.
    blocked = np.zeros(k, dtype=bool)
    for a, b in inst.edges:
        blocked |= (inst.rank_of(a, b) < ranks[:, a]) & (
            inst.rank_of(b, a) < ranks[:, b]
        )
    alone_rank = np.array([len(inst.pref[u]) for u in range(n)])
    matched_when_stable = (ranks[~blocked] < alone_rank).any(axis=0)
    rule_loops = frozenset(
        u for u in range(n) if not matched_when_stable[u]
    )
    if pop_loops != rule_loops:
        raise AssertionError(
            "self-loop popularity disagrees with the unstable-vertex rule"
        )

    fully_sizes = [m.size(inst) for m in fully]
    return OracleReport(
        num_matchings=k,
        popular=popular,
        a_popular=a_popular,
        fully_popular=fully,
        max_fully_popular_size=max(fully_sizes) if fully_sizes else None,
        min_popular_size=min(sizes),
        max_popular_size=max(sizes),
        popular_edges=pop_edges,
        popular_loops=pop_loops,
    )


def witness_search(inst: Instance, mat: Matching) -> tuple[int, ...] | None:
    """Exhaustive search for a popularity certificate of ``mat``.

    Complete backtracking over all vectors in {0, +-1}^n, organized so that
    the all-zero branch is explored first (a stable matching therefore
    yields the zero certificate).  Returns None when no vector satisfies the
    covering constraints, which by exhaustiveness proves none exists.
    Refuses an instance of more than ``WITNESS_CAP`` vertices.
    """
    if inst.n > WITNESS_CAP:
        raise OracleCapError(
            f"instance has {inst.n} vertices, witness search cap is {WITNESS_CAP}"
        )
    n = inst.n
    loop_wt = [edge_weight(inst, mat, (u, u)) for u in range(n)]
    wt = {}
    back_edges: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b in inst.edges:
        w = edge_weight(inst, mat, (a, b))
        wt[(a, b)] = w
        hi, lo = max(a, b), min(a, b)
        back_edges[hi].append((lo, w))

    alpha = [0] * n

    def rec(u: int, total: int):
        if u == n:
            if total == 0:
                yield tuple(alpha)
            return
        remaining = n - u - 1
        for val in (0, -1, 1):
            if val < loop_wt[u]:
                continue
            if any(alpha[v] + val < w for v, w in back_edges[u]):
                continue
            if abs(total + val) > remaining:
                continue
            alpha[u] = val
            yield from rec(u + 1, total + val)
        alpha[u] = 0

    return next(rec(0, 0), None)


def edge_weight(inst: Instance, mat: Matching, e: tuple[int, int]) -> int:
    """Joint vote of an edge's endpoints against their partners in ``mat``.

    Genuine edges weigh +2 (blocking), -2 (both prefer their partners), or
    0; a self-loop weighs 0 if it is in the matching and -1 otherwise.
    """
    u, v = e
    if u == v:
        if not 0 <= u < inst.n:
            raise InstanceError(f"no vertex with id {u}")
        return 0 if mat.partner[u] == u else -1
    if not (inst.has_edge(u, v) or inst.has_edge(v, u)):
        raise InstanceError(f"({u}, {v}) is not an edge")
    su = 1 if inst.rank_of(u, v) < inst.rank_of(u, mat.partner[u]) else (
        0 if mat.partner[u] == v else -1
    )
    sv = 1 if inst.rank_of(v, u) < inst.rank_of(v, mat.partner[v]) else (
        0 if mat.partner[v] == u else -1
    )
    return su + sv

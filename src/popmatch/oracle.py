"""Exponential ground truth for small instances, and pairwise elections.

Enumerates every matching, runs all pairwise elections, and reports the
exact sets of popular, agent-side-popular, and fully popular matchings along
with the popular edge union.  Everything downstream is validated against
these definitions, so this module deliberately trades speed for
transparency: no pruning beyond a vertex cap and a matching cap, and no
structural shortcuts except where explicitly cross-checked.  Every rank it
compares comes from the edge layout through its own reader,
:func:`_partner_ranks`, so the referee shares no code with the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import Instance, InstanceError, Matching

VERTEX_CAP = 16
WITNESS_CAP = 12
# The elections take time quadratic in the number of matchings: about 0.8 s
# of CPU at 4,051 matchings (5x6 complete), 3 s at 8,852 (the largest that
# a test enumerates, in perfbench) and 8 s at 13,327 (6x6 complete).
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


def _partner_ranks(inst: Instance, partners: np.ndarray) -> np.ndarray:
    """How each vertex ranks its partner in each row of the k×n int array
    ``partners``: the position in its list, or its list length when alone.

    Edge k is matched in row i when its job is its agent's partner there.
    """
    lay = inst.layout
    jobs = inst.num_agents + lay.job_of
    ranks = np.tile(lay.degrees(), (len(partners), 1))
    i, k = np.nonzero(partners[:, lay.agent_of] == jobs)
    ranks[i, lay.agent_of[k]] = lay.agent_rank[k]
    ranks[i, jobs[k]] = lay.job_rank[k]
    return ranks


def _matching_count(inst: Instance, stop: int) -> int:
    """The number of matchings, or a number above ``stop`` once the count
    passes it.

    A bitmask program over the smaller side: the vertices of the larger
    side join one at a time, in id order, and each set of smaller-side
    vertices in use keeps the number of partial matchings that use exactly
    that set.  A partial matching is a matching too, so the running total
    never exceeds the count, and the program stops as soon as it passes
    ``stop``.
    """
    lay, na, nj = inst.layout, inst.num_agents, inst.num_jobs
    rows, cols = lay.agent_of.tolist(), lay.job_of.tolist()
    if na < nj:
        rows, cols = cols, rows
    bits: list[list[int]] = [[] for _ in range(max(na, nj))]
    for u, v in zip(rows, cols):
        bits[u].append(1 << v)
    ways = {0: 1}
    for row in bits:
        grown = dict(ways)  # the row's vertex alone
        for used, count in ways.items():
            for bit in row:
                if not used & bit:
                    key = used | bit
                    grown[key] = grown.get(key, 0) + count
        ways = grown
        if sum(ways.values()) > stop:
            break
    return sum(ways.values())


def _partner_rows(inst: Instance) -> np.ndarray:
    """Every matching's partner array, the empty matching's first, as the
    rows of a k×n int array.

    Agents choose in id order, each first alone and then along its edge
    range in preference order.  Refuses an instance of more than
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
    lay, na = inst.layout, inst.num_agents
    jobs, starts = (na + lay.job_of).tolist(), lay.starts.tolist()
    partner = list(range(inst.n))
    rows: list[list[int]] = []

    def rec(a: int) -> None:
        if a == na:
            rows.append(partner.copy())
            return
        rec(a + 1)
        for b in jobs[starts[a]:starts[a + 1]]:
            if partner[b] == b:
                partner[a], partner[b] = b, a
                rec(a + 1)
                partner[a], partner[b] = a, b

    rec(0)
    return np.array(rows, np.intp)


def enumerate_matchings(inst: Instance):
    """Yield every matching of the instance exactly once, the empty one included.

    Refuses, before yielding anything, an instance of more than
    ``VERTEX_CAP`` vertices or with more than ``MATCHING_CAP`` matchings.
    """
    yield from map(Matching, _partner_rows(inst))


def ground_truth(inst: Instance) -> OracleReport:
    """Exhaustive elections over all matchings.

    Popularity and agent-side popularity come straight from the vote counts;
    the fully popular set is their intersection.  The elections, sizes,
    edges and loops read the partner rows; only the matchings returned are
    built as :class:`Matching`.  The popular edge union is cross-checked
    against the rule that a self-loop is popular exactly when its vertex is
    unstable, with the stable vertices read off the same enumeration: those
    matched in some matching without a blocking edge.
    """
    partners = _partner_rows(inst)
    k, n = partners.shape
    na, lay = inst.num_agents, inst.layout
    ranks = _partner_ranks(inst, partners)

    # Ranks and vote totals lie within +-VERTEX_CAP, so int8 holds them.
    by_vertex = ranks.T.astype(np.int8)
    popular_mask, a_popular_mask = np.ones((2, k), dtype=bool)
    for i in range(k):
        # (n, k): +1 where a vertex prefers matching i, -1 where the other.
        votes = np.sign(by_vertex - by_vertex[:, i, None])
        popular_mask[i] = votes.sum(0, dtype=np.int8).min() >= 0
        a_popular_mask[i] = votes[:na].sum(0, dtype=np.int8).min() >= 0

    fully_mask = popular_mask & a_popular_mask
    kept = np.flatnonzero(popular_mask | a_popular_mask).tolist()
    mats = dict(zip(kept, map(Matching, partners[kept])))
    popular, a_popular, fully = (
        tuple(mats[i] for i in np.flatnonzero(mask).tolist())
        for mask in (popular_mask, a_popular_mask, fully_mask)
    )

    sizes = np.count_nonzero(partners[:, :na] != np.arange(na), axis=1)
    rows = partners[popular_mask]
    i, a = np.nonzero(rows[:, :na] != np.arange(na))
    pop_edges = frozenset(zip(a.tolist(), rows[i, a].tolist()))
    alone = (rows == np.arange(n)).any(axis=0)  # alone in some popular one
    pop_loops = frozenset(np.flatnonzero(alone).tolist())
    # Edge e blocks matching i when its agent and job both rank each other
    # above their partners there.
    blocked = (
        (lay.agent_rank < ranks[:, lay.agent_of])
        & (lay.job_rank < ranks[:, na + lay.job_of])
    ).any(axis=1)
    matched_when_stable = (ranks[~blocked] < lay.degrees()).any(axis=0)
    rule_loops = frozenset(np.flatnonzero(~matched_when_stable).tolist())
    if pop_loops != rule_loops:
        raise AssertionError(
            "self-loop popularity disagrees with the unstable-vertex rule"
        )

    fully_sizes = sizes[fully_mask].tolist()
    popular_sizes = sizes[popular_mask].tolist()
    return OracleReport(
        num_matchings=k,
        popular=popular,
        a_popular=a_popular,
        fully_popular=fully,
        max_fully_popular_size=max(fully_sizes) if fully_sizes else None,
        min_popular_size=min(popular_sizes),
        max_popular_size=max(popular_sizes),
        popular_edges=pop_edges,
        popular_loops=pop_loops,
    )


def run_election(
    inst: Instance, first: Matching, second: Matching
) -> tuple[int, int, int, int]:
    """Head-to-head election between two matchings.

    Returns ``(phi_first, phi_second, phiA_first, phiA_second)``: total votes
    for each matching over all vertices, then over agents only.  A vertex
    votes for the partner it ranks better; one with the same partner in
    both matchings abstains.
    """
    ranks = _partner_ranks(inst, np.stack((first.partner, second.partner)))
    votes = np.sign(ranks[1] - ranks[0])  # +1 for first, -1 for second
    agents = votes[:inst.num_agents]
    ballots = (votes > 0, votes < 0, agents > 0, agents < 0)
    return tuple(int(np.count_nonzero(x)) for x in ballots)


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
    n, lay = inst.n, inst.layout
    loop_wt = [0 if p == u else -1 for u, p in enumerate(mat.partner.tolist())]
    # Each job's edges, as (agent, weight): a job's id is above its agents'.
    back_edges: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    weights = _edge_weights(inst, mat).tolist()
    for a, j, w in zip(lay.agent_of.tolist(), lay.job_of.tolist(), weights):
        back_edges[inst.num_agents + j].append((a, w))

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


def _edge_weights(inst: Instance, mat: Matching) -> np.ndarray:
    """Every edge's :func:`edge_weight` against ``mat``, indexed by edge id."""
    lay = inst.layout
    own = _partner_ranks(inst, mat.partner[None])[0]
    return np.sign(own[lay.agent_of] - lay.agent_rank) + np.sign(
        own[inst.num_agents + lay.job_of] - lay.job_rank
    )


def edge_weight(inst: Instance, mat: Matching, e: tuple[int, int]) -> int:
    """Joint vote of an edge's endpoints against their partners in ``mat``.

    Genuine edges weigh +2 (blocking), -2 (both prefer their partners), or
    0; a self-loop weighs 0 if it is in the matching and -1 otherwise.  A
    pair that names an id outside ``0 .. n-1``, or that is no edge, raises
    :class:`InstanceError`.
    """
    u, v = e
    n, lay = inst.n, inst.layout
    if not (0 <= u < n and 0 <= v < n):
        raise InstanceError(f"({u}, {v}) names a vertex id outside 0..{n - 1}")
    if u == v:
        return 0 if mat.partner[u] == u else -1
    a, j = min(u, v), max(u, v) - inst.num_agents
    k = np.flatnonzero((lay.agent_of == a) & (lay.job_of == j))
    if not len(k):
        raise InstanceError(f"({u}, {v}) is not an edge")
    return int(_edge_weights(inst, mat)[k[0]])

"""Popularity verification with certificates, plus the one-sided check.

A matching M is popular when it never loses a head-to-head election.  That
is equivalent to every perfect matching N (self-loops included) having
``wt_M(N) <= 0`` under the joint-vote edge weights, which in turn reduces to
a max-weight perfect-matching problem whose integral dual optimum is a
vector in {0, +-1} covering every edge.  Such a vector is a *witness*: it
certifies popularity in linear time without re-running any election.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .engine import components
from .instance import EdgeLayout, Instance, InstanceError, Matching, Posts
from .instance import matching_from_ids

_INF = 1 << 60


@dataclass(frozen=True)
class PopularityVerdict:
    """Outcome of a popularity check.

    When popular, ``witness`` is a vertex-indexed vector in {0, +-1} whose
    covering constraints validate via :func:`check_witness`.  Otherwise
    ``counterexample`` is a matching that defeats M by the largest possible
    vote margin, and ``margin`` is that maximum of ``wt_M``.
    """

    popular: bool
    margin: int
    witness: tuple[int, ...] | None
    counterexample: Matching | None


def check_witness(inst: Instance, mat: Matching, alpha, vertices=None) -> bool:
    """Validate a popularity certificate against a matching.

    Requires ``inst.n`` entries in {0, +-1} summing to zero, every edge
    covered (``alpha_a + alpha_b >= wt``), and every vertex covering its
    own self-loop weight.  ``vertices``, a sequence or array of vertex ids,
    restricts the check to an induced subgraph; the matching must not pair
    a vertex in scope with one outside.  One pass of whole-array tests,
    arrays read as they are: the scope (raising first if a pair straddles
    it), the length and entries, their sum, the self-loops, then every edge
    with both ends in scope, its weight folded from the layout and the
    partner ranks as in :func:`verify_popular`; each equals
    :func:`~popmatch.oracle.edge_weight`.  A scope id outside ``0 .. n-1``
    raises :class:`InstanceError`.
    """
    ids = np.asarray(() if vertices is None else vertices, np.intp)
    if (bad := ids[(ids < 0) | (ids >= inst.n)]).size:
        raise InstanceError(
            f"scope entry {bad[0]} names a vertex id outside 0..{inst.n - 1}"
        )
    return _check_witness(inst, mat, mat.partner_ranks(inst), alpha, vertices)


def _check_witness(inst, mat, own, alpha, vertices=None) -> bool:
    """:func:`check_witness` given ``own``, the matching's partner ranks."""
    n, partner = inst.n, mat.partner
    if vertices is None:
        in_scope = np.ones(n, bool)
    else:
        in_scope = np.zeros(n, bool)
        in_scope[np.asarray(vertices, np.intp)] = True
    if (in_scope & ~in_scope[partner]).any():
        raise ValueError("matching leaves the induced subgraph")
    alpha = np.asarray(alpha)
    if alpha.shape != (n,):
        return False
    if not ((alpha == -1) | (alpha == 0) | (alpha == 1))[in_scope].all():
        return False
    alpha = np.where(in_scope, alpha, 0)
    if alpha.sum() != 0:
        return False
    # A self-loop weighs -1 unless its vertex is alone, then 0.
    if ((partner == np.arange(n)) & (alpha < 0)).any():
        return False
    agents, jobs, votes = _edge_votes(inst, own)
    inside = in_scope[agents] & in_scope[jobs]
    return not (inside & (alpha[agents] + alpha[jobs] < votes)).any()


def _edge_votes(inst: Instance, own):
    """Per edge: its agent's and its job's vertex ids, and their joint vote.

    The vote is each endpoint's +1, 0 or -1 for the other against its
    partner, whose rank is in the array ``own``; it equals
    :func:`~popmatch.oracle.edge_weight`.
    """
    lay = inst.layout
    agents, jobs = lay.agent_of, inst.num_agents + lay.job_of
    votes = np.sign(own[agents] - lay.agent_rank)
    votes += np.sign(own[jobs] - lay.job_rank)
    return agents, jobs, votes


def check_a_popular(inst: Instance, posts: Posts, mat: Matching) -> bool:
    """One-sided popularity, decided structurally from the f/s posts.

    The matching must use only per-agent top or fallback edges, cover every
    agent (an agent may sit on its own self-loop only when its fallback is
    itself), and give every top-choice job to an agent that ranks it first.
    """
    agents = np.arange(inst.num_agents)
    partner, f, s = mat.partner, posts.f, posts.s
    p = partner[agents]
    alone = p == agents
    if (alone & (s != agents)).any() or (~alone & (p != f) & (p != s)).any():
        return False
    top = np.flatnonzero(np.bincount(f, minlength=inst.n))
    holder = partner[top]
    return not (holder == top).any() and bool((f[holder] == top).all())


def a_popular_obstruction(inst: Instance, posts: Posts) -> int | None:
    """Smallest agent that rules out every agent-popular matching, or ``None``.

    Abraham, Irving, Kavitha and Mehlhorn ("Popular matchings", SIAM J.
    Comput. 2007) show, with every agent given its own last resort, that a
    one-sided popular matching exists exactly when some matching puts every
    agent on f(a) or s(a): moving an agent from s(a) to an unmatched f(a)
    then fills every top-choice job, which :func:`check_a_popular` also
    asks.  Here the last resort is the agent's own self-loop, so an agent
    with ``s(a) == a`` can always stay alone and takes no job.  Every other
    agent is one edge f(a)-s(a) between two jobs, and the agents can each
    take a distinct endpoint of their own edge exactly when no connected
    component of this job graph has more edges than jobs.  A fully popular
    matching is agent-popular, so an obstruction also rules it out.

    The job graph's components come from
    :func:`~popmatch.engine.components`; the agent returned is the smallest
    whose edge lies in a component that overflows, so it does not depend on
    the order in which the edges are read.
    """
    na = inst.num_agents
    agents = np.flatnonzero(posts.s != np.arange(na))
    f, s = posts.f[agents] - na, posts.s[agents] - na
    cid = components(inst.num_jobs, f, s)
    jobs = np.bincount(cid)
    overflows = np.bincount(cid[f], minlength=len(jobs)) > jobs
    blockers = agents[overflows[cid[f]]]
    return int(blockers[0]) if blockers.size else None


def verify_popular(inst: Instance, mat: Matching) -> PopularityVerdict:
    """Decide popularity, producing a witness or a defeating matching.

    Folds each self-loop weight into the genuine edges, so that leaving both
    endpoints alone is the zero baseline, and solves the resulting
    max-weight assignment with :func:`_assignment_max`, warm-started from
    ``mat`` itself.  The margin is the optimum plus the loop constant.  When
    it is zero, ``mat`` is an optimal assignment, so complementary slackness
    pins the integral duals, shifted back by the loop weights, into
    {0, +-1}: they are the witness, checked by :func:`check_witness`
    before it is returned.  Otherwise the optimal assignment is the
    counterexample.  The weights come from the edge layout and the partner
    ranks in one array pass; each equals
    :func:`~popmatch.oracle.edge_weight` less the two loop weights.
    """
    p, q = inst.num_agents, inst.num_jobs
    matched = mat.partner != np.arange(inst.n)
    own = mat.partner_ranks(inst)
    const = -int(matched.sum())  # every matched vertex's loop weighs -1

    # Folded weights are >= 0: a vertex's vote for a neighbor against its
    # partner, plus one if it is matched (its loop weight, taken out).
    agents, jobs, votes = _edge_votes(inst, own)
    wprime = votes + matched[agents] + matched[jobs]

    # The rank of an agent's partner is the index of that option in its row;
    # an unmatched agent's own rank is its list length, the index of its sink.
    value, match_row, y_row, y_col = _assignment_max(inst.layout, -wprime, own[:p])
    margin = value + const

    if margin > 0:
        rows = np.flatnonzero(match_row < q)
        best = matching_from_ids(inst, rows, p + match_row[rows])
        return PopularityVerdict(False, margin, None, best)

    alpha = np.concatenate((y_row, y_col)) - matched
    if not _check_witness(inst, mat, own, alpha):
        raise AssertionError("dual potentials fail certificate validation")
    return PopularityVerdict(True, 0, tuple(alpha.tolist()), None)


def _assignment_max(
    lay: EdgeLayout, cost: np.ndarray, start: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Max-weight assignment of agents (rows) to jobs (columns) with sinks.

    Row a's options are its edges ``starts[a] ..`` in layout order, edge
    k going to column ``job_of[k]`` at ``cost[k]`` (a negated weight, so
    <= 0), then its private zero-cost sink, column ``q + a`` (q jobs) at
    option index ``degree``.  ``start[a]``, an int array, is a hinted
    option index of row a; the hints only speed the search up.  Every row
    ends assigned.  Returns the total weight over shared columns, the row
    assignment, and nonnegative integral dual potentials ``y_row``/``y_col``
    satisfying ``y_row[a] + y_col[c] >= weight(a, c)`` with equality on
    assigned pairs and zero on unassigned shared columns, all as int arrays
    but the total.

    The warm start is whole-array passes: each row takes its hinted option,
    the first row in id order to hint a column wins it, at the column half
    of its weight as price, and one ``np.minimum.reduceat`` of reduced costs
    over the layout's rows finds the rows whose option is not one of their
    cheapest.  Only if some row fails or lost its column does
    :func:`_augment` finish the assignment in Python; the total and the
    duals are array passes over the final assignment and prices.
    """
    p, q = len(lay.starts) - 1, len(lay.job_starts) - 1
    num_cols = q + p
    on_edge = start < np.diff(lay.starts)
    k = (lay.starts[:-1] + start)[on_edge]
    hint = q + np.arange(p)
    hint[on_edge] = lay.job_of[k]
    hint_cost = np.zeros(p, np.intp)
    hint_cost[on_edge] = cost[k]
    cols, rows = np.unique(hint, return_index=True)
    match_row = np.full(p, -1)
    match_row[rows] = cols
    match_col = np.full(num_cols, -1)
    match_col[cols] = rows
    mcost = np.zeros(p, np.intp)  # cost of each row's assigned option
    mcost[rows] = hint_cost[rows]
    v = np.zeros(num_cols, np.intp)  # column prices, -y_col
    v[cols] = -(-hint_cost[rows] // 2)
    # The sink's reduced cost is 0; a row is tight when no option is below u.
    lowest = np.minimum(
        np.minimum.reduceat(cost - v[lay.job_of], lay.starts[:-1]), 0
    )
    work = np.flatnonzero((lowest < mcost - v[match_row]) & (match_row != -1))
    if work.size or len(rows) < p:
        match_row, mcost, v = map(
            np.array, _augment(lay, cost, match_row, match_col, mcost, v, work)
        )
    value = -int(mcost[match_row < q].sum())
    # Row potential u satisfies u + v[col] == cost on the assigned edge;
    # the dual we need is its negation.
    return value, match_row, v[match_row] - mcost, -v[:q]


def _augment(lay: EdgeLayout, cost, match_row, match_col, mcost, v, work):
    """Finish :func:`_assignment_max` from its warm start, on Python lists.

    ``match_row``, ``match_col``, ``mcost`` and ``v`` are the warm start's
    assignment, costs and prices as arrays, and ``work`` holds the rows
    found not tight.  A row whose option is not one of its cheapest drops
    out; the column it frees goes back to price 0, which can make the
    column cheapest for its other rows (read from ``job_edges``), so they
    are rechecked.  Prices only rise, so the rows that drop are a monotone
    fixed point and the order in which rows are checked does not change
    them.  Returns the final ``match_row``, ``mcost`` and ``v`` as lists.

    Successive shortest paths over column potentials ``v = -y_col``: every
    row then unassigned runs Dijkstra on reduced costs over the columns its
    alternating paths reach, popping a heap keyed ``(distance, column is
    matched, column)`` with lazy deletion, and augments along the path to
    the first free column it settles.  Its own sink is free at reduced
    distance 0, so a search settles only columns at negative distance and
    touches only their rows' options; at equal distance a free column comes
    first and ends the search.  A sink stays at price 0: only its own row
    reaches it.
    """
    starts, job_of, costs = lay.starts.tolist(), lay.job_of.tolist(), cost.tolist()
    match_row, match_col, mcost, v, work = (
        x.tolist() for x in (match_row, match_col, mcost, v, work)
    )
    p, num_cols = len(match_row), len(v)
    q = num_cols - p

    def options(a: int):
        """Row a's ``(column, cost)`` options, its sink last."""
        s, e = starts[a], starts[a + 1]
        return zip((*job_of[s:e], q + a), (*costs[s:e], 0))

    while work:
        a = work.pop()
        c = match_row[a]
        if c == -1:
            continue
        u = mcost[a] - v[c]
        if all(w - v[c2] >= u for c2, w in options(a)):
            continue
        match_row[a] = match_col[c] = -1
        if v[c]:
            v[c] = 0
            edges = lay.job_edges[lay.job_starts[c]:lay.job_starts[c + 1]]
            work.extend(lay.agent_of[edges].tolist())

    # Per-search state over all columns; a search resets what it touched.
    d = [_INF] * num_cols
    reach_row = [-1] * num_cols
    reach_cost = [0] * num_cols
    prev_col = [-1] * num_cols
    done_mark = [False] * num_cols

    for a0 in range(p):
        if match_row[a0] != -1:
            continue
        touched = []
        done: list[int] = []
        heap: list[tuple[int, bool, int]] = []
        for c, w in options(a0):
            touched.append(c)
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
            for c, w in options(a1):
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

    return match_row, mcost, v

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
That instance is never built.  Its edges are given on virtual edge ids, as
per-edge arrays of arithmetic on the instance's own edge layout (see
:func:`two_level_edges`), and the test suite checks the reduction
exhaustively against the election oracle and against a materialized
reference.  One rotation walk on the instance and one on its two-level form
yield all their stable edges, in time linear in the number of edges in the
walks' loops and at most a log n factor more in their whole-array rounds.
It works on edge ids throughout and makes no ``(agent, job)`` keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import components, rotation_walk
from .instance import Instance, Posts, compute_posts


@dataclass(frozen=True, eq=False)
class EdgeClassification:
    """Valid/popular/legal edges plus the popular-subgraph components.

    The flags are read-only bool arrays of length m + n, indexed like the
    edge layout: ``legal_flags[k]`` for genuine edge k, and
    ``legal_flags[m + u]`` for the self-loop of u.  ``component_id``, a
    read-only int array, holds at u the number of the connected component
    of u in the graph of genuine popular edges (self-loops connect nothing);
    every vertex belongs to exactly one component, and components are
    numbered in the order of their smallest vertex
    (:func:`component_members` lists them).  Solving reads only
    ``legal_flags`` and ``component_id``.  Classifications compare by
    identity.
    """

    valid_flags: np.ndarray
    popular_flags: np.ndarray
    legal_flags: np.ndarray
    component_id: np.ndarray


def component_members(component_id: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Each component's vertices in id order, indexed by its number."""
    members = np.argsort(component_id, kind="stable").tolist()
    ends = np.cumsum(np.bincount(component_id)).tolist()
    return tuple(tuple(members[i:j]) for i, j in zip([0, *ends], ends))


def _valid_flags(inst: Instance, posts: Posts) -> np.ndarray:
    """Edges permitted by the one-sided characterization, as flags.

    Each agent contributes its top edge f(a), which is edge ``starts[a]``,
    and its fallback slot: the edge whose job is s(a), or its own self-loop
    when s(a) is a; each job that is nobody's top choice contributes its
    self-loop.
    """
    lay, m, na = inst.layout, inst.m, inst.num_agents
    flags = np.zeros(m + inst.n, bool)
    flags[lay.starts[:-1]] = True
    flags[:m] |= na + lay.job_of == posts.s[lay.agent_of]
    loops = flags[m:]
    loops[:na] = posts.s == np.arange(na)
    loops[na:] = True
    loops[posts.f] = False
    return flags


def two_level_edges(inst: Instance) -> tuple:
    """The two-level instance, as :func:`~popmatch.engine.rotation_walk`
    takes it, on virtual edge ids.

    Agent a has a high copy (vertex a) and a low copy (vertex num_agents +
    a); jobs keep their index j, and a's private last-resort job is index
    num_jobs + a.  High edge k joins the high copy of the agent of the
    instance's edge k (see ``EdgeLayout``) to that edge's job, and low edge
    m + k joins its low copy; edges 2m + a and 2m + num_agents + a join a's
    high and low copy to its last resort.  The high copy ranks its last
    resort first and a's jobs after; the low copy ranks a's jobs first and
    the last resort last.  A job ranks all high edges above all low edges,
    keeping its own order inside each level, and a last resort prefers the
    low copy.  In any stable matching exactly one copy of a holds a genuine
    job or a is effectively alone, so projecting genuine edges back recovers
    a dominant matching.

    Returns the number of agent copies and that of jobs and last resorts,
    then four int arrays of arithmetic on the layout's arrays: each edge's
    agent copy and its job or last resort, and its rank in the lists of
    both.
    """
    na, nj, lay = inst.num_agents, inst.num_jobs, inst.layout
    agent_of, job_of = lay.agent_of, lay.job_of
    degree, copies = lay.degrees(), np.arange(2 * na)
    rest = np.zeros(na, np.intp)
    owner = np.concatenate((agent_of, na + agent_of, copies))
    post = np.concatenate((job_of, job_of, nj + copies % na))
    owner_rank = np.concatenate(
        (lay.agent_rank + 1, lay.agent_rank, rest, degree[:na])
    )
    post_rank = np.concatenate(
        (lay.job_rank, degree[na + job_of] + lay.job_rank, rest + 1, rest)
    )
    return 2 * na, nj + na, owner, post, owner_rank, post_rank


def _popular_flags(inst: Instance) -> np.ndarray:
    """Edges and self-loops that some popular matching uses, as flags.

    These are the stable pairs and dominant pairs, from the flags of both
    rotation walks, plus the self-loops of unstable vertices.  The dominant
    pairs are the two-level instance's stable high and low edges (ids below
    2m), each taken back to the instance's edge it copies.  Every stable
    matching covers the same vertices, so the unstable ones are those no
    stable pair covers.
    """
    lay, m, na = inst.layout, inst.m, inst.num_agents
    stable = rotation_walk(
        na, inst.num_jobs, lay.agent_of, lay.job_of, lay.agent_rank,
        lay.job_rank,
    )
    dom = rotation_walk(*two_level_edges(inst))
    flags = np.ones(m + inst.n, bool)
    flags[:m] = stable | dom[:m] | dom[m:2 * m]
    flags[m + lay.agent_of[stable]] = False
    flags[m + na + lay.job_of[stable]] = False
    return flags


def legal_edge_set(
    inst: Instance, posts: Posts | None = None
) -> EdgeClassification:
    """Classify every edge and self-loop and number the popular-subgraph components.

    ``posts`` are computed when not given.  Legal means valid and popular;
    the component ids come from :func:`~popmatch.engine.components` over
    the genuine popular edges.
    """
    if posts is None:
        posts = compute_posts(inst)
    valid = _valid_flags(inst, posts)
    popular = _popular_flags(inst)
    legal = valid & popular
    lay, edges = inst.layout, popular[:inst.m]
    component_id = components(
        inst.n, lay.agent_of[edges], inst.num_agents + lay.job_of[edges]
    )
    for x in (valid, popular, legal):
        x.flags.writeable = False
    return EdgeClassification(valid, popular, legal, component_id)

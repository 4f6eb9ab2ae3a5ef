"""Max-size fully popular matching from one stable matching of the mirror graph.

A fully popular matching is agent-popular, so the solver first runs the
linear post-graph test :func:`popmatch.popularity.a_popular_obstruction`
and returns ``none`` at once when no agent-popular matching exists.
Otherwise it computes a legal stable matching of the mirror graph (one that
avoids every signed copy of a non-legal edge); if the engine's run leaves a
left copy alone, no fully popular matching exists.  A vertex whose left
copy carries a minus tag while its right copy carries a plus tag
*straddles*.  It has certificate entry zero in every fully popular
matching, and that forces zero across its whole popular-subgraph
component, so one pass marks the component of every straddling vertex, in
id order.  The upper projection
is then a max-size fully popular matching, and the per-vertex signs with
the marks assemble its popularity certificate.  The last step computes
projections, signs, the certificate and any validation in whole-array
passes over the engine's matching.

The paper's algorithm goes on from each marked component: it forbids the
plus-tagged copies at the component's agents, reruns the engine, and looks
again for an unmarked straddling vertex.  The pass stands for that loop by
this lemma.  In a stable mirror matching that avoids the non-legal copies,
if one vertex of a popular-subgraph component straddles, every vertex of
the component sits on odd or twin copies only, so none holds a plus-tagged
edge.  Forbidding those edges then divorces nothing, the rerun makes no
proposal, and the loop ends with the first run's matching and this pass's
marks and trace.  Matched genuine edges are legal, hence popular, so they
stay inside their component.  The lemma starts from the fact that a
certificate is zero on a whole popular-subgraph component or on none of it
(Huang & Kavitha, "Popular matchings in the stable marriage problem", Inf.
Comput. 2013); a proof is not written out here.  The evidence:

* a sweep of the loop counted 65,800 forbid rounds with no divorce, no
  proposal on a rerun and no rerun that ran dry, over small random
  instances, ``generate`` instances up to 30x30, shuffled disjoint blocks,
  rotation rings and blocks glued by last-ranked cross edges;
* the test suite reruns the loop from scratch, a fresh engine per round,
  and compares its every result field with :func:`solve`.

The guard in :func:`_mark_components` checks the lemma's conclusion on
every solve.  It holds exactly when every forbid of the loop would have
divorced nothing, so a false lemma raises :class:`SolverDefect` instead of
giving an answer that differs from the loop's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .instance import Instance, Matching, compute_posts
from .legality import component_members, legal_edge_set
from .mirror import MirrorGraph, MirrorMatching, mirror_system
from .mirror import classify_partition, mirror_blocking_edges, project
from .mirror import realize_witnessed
from .popularity import _check_witness, a_popular_obstruction, check_a_popular


class SolverDefect(AssertionError):
    """A structural guarantee of the algorithm failed; this is a bug, not an input error."""


@dataclass(frozen=True)
class TraceRow:
    trigger: int
    component: tuple[int, ...]
    edges_forbidden: int


@dataclass(frozen=True)
class SolveReport:
    """Result of a solve: a certified matching or a nonexistence verdict.

    ``outcome`` is ``"found"`` or ``"none"``.  A found matching comes with
    its popularity certificate and is max-size among fully popular
    matchings.  ``triggers`` and ``edges_forbidden`` hold one entry per
    marked component, in trigger order, ``iterations`` counts them, and
    ``trace`` holds their rows, built when first read.  A nonexistence
    verdict has no matching and an empty trace, and rerunning reproduces it
    deterministically.  When no agent-popular matching exists, the verdict
    comes before any engine work: ``infeasible_vertex`` is the smallest
    agent whose post-graph edge f(a)-s(a) lies in a component with more
    such edges than jobs.  Otherwise the verdict comes when the mirror run
    leaves some left copies alone, each having exhausted its list, and
    ``infeasible_vertex`` is the smallest of them, which does not depend on
    the order of the run's proposals.
    """

    outcome: str
    matching: Matching | None = None
    witness: tuple[int, ...] | None = None
    size: int | None = None
    infeasible_vertex: int | None = None
    triggers: tuple[int, ...] = ()
    edges_forbidden: tuple[int, ...] = ()
    component_id: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def iterations(self) -> int:
        return len(self.triggers)

    @cached_property
    def trace(self) -> tuple[TraceRow, ...]:
        members = component_members(self.component_id) if self.iterations else ()
        rows = zip(self.triggers, self.edges_forbidden)
        return tuple(TraceRow(u, members[self.component_id[u]], k) for u, k in rows)


def _mark_components(inst, classification, signs) -> tuple[np.ndarray, ...]:
    """Mark the component of every straddling vertex, in id order.

    ``signs`` are the per-vertex ``(upper, lower)`` tags of
    :func:`~popmatch.mirror.classify_partition`.  With ``side`` -1 for an
    agent and +1 for a job, a vertex straddles, its left copy on a minus
    tag and its right copy on a plus tag, when ``upper == side`` and
    ``lower == -side``.  Every vertex of a marked component must hold odd
    or twin copies only, so ``upper == -side`` or ``lower == side`` there
    means the solver is broken.  Returns the per-vertex marks as bool
    flags, then each marked component's trigger, its first straddling
    vertex, and its edges forbidden: the plus-tagged copies at its agents,
    two per legal edge, that the paper's loop forbids.
    """
    cid = classification.component_id
    upper, lower = signs
    side = np.where(np.arange(inst.n) < inst.num_agents, -1, 1)
    straddles = np.flatnonzero((upper == side) & (lower == -side))
    first = np.full(inst.n, inst.n)
    np.minimum.at(first, cid[straddles], straddles)
    triggers = np.sort(first[first < inst.n])
    ids = cid[triggers]
    marked = np.zeros(inst.n, bool)
    marked[ids] = True
    marks = marked[cid]
    # Legal edges per component, each counted at its agent.
    legal = inst.layout.agent_of[classification.legal_flags[:inst.m]]
    plus = 2 * np.bincount(cid[legal], minlength=inst.n)[ids]
    if (marks & ((upper == -side) | (lower == side))).any():
        raise SolverDefect("a marked component holds a plus-tagged edge")
    return marks, triggers, plus


def extract_witness(inst: Instance, mat: Matching, own_m, marks, upper) -> np.ndarray:
    """Popularity certificate of ``mat`` from the marks and the upper signs,
    as an int array; ``own_m`` is the matching's partner rank array.

    Marked vertices and twin-matched vertices get zero; everything else
    takes the sign of its upper-half tag.  The result must validate; a
    failure here would mean the solver itself is broken.
    """
    witness = np.where(marks, 0, upper)
    if not _check_witness(inst, mat, own_m, witness):
        raise SolverDefect("final signs produced an invalid certificate")
    return witness


def solve(inst: Instance, validate: bool = False) -> SolveReport:
    """Decide whether a fully popular matching exists and return a max-size one.

    Inputs without an agent-popular matching end at the post-graph test,
    before any classification.  With ``validate`` the run additionally
    re-checks every structural guarantee
    (restricted stability, partial symmetry, the per-half certificates, and
    the mirror realization of the result); violations raise
    :class:`SolverDefect`.
    """
    return _solve(inst, validate)[0]


def _solve(
    inst: Instance, validate: bool = False
) -> tuple[SolveReport, MirrorMatching | None]:
    """:func:`solve`'s report, with the mirror run's matching, or ``None``
    when the post-graph test decides before any engine work.  The halves,
    signs and marks of a found solve follow from the matching and report."""
    posts = compute_posts(inst)
    blocker = a_popular_obstruction(inst, posts)
    if blocker is not None:
        return SolveReport("none", infeasible_vertex=blocker), None
    classification = legal_edge_set(inst, posts=posts)
    mirror = MirrorGraph(inst, classification.legal_flags)
    system = mirror_system(mirror)
    system.run()
    mh = MirrorMatching(mirror, system.left_match, system.right_match)
    del system  # its other arrays would otherwise outlive the epilogue
    alone = np.flatnonzero(mh.left_edge == -1)
    if alone.size:
        return SolveReport("none", infeasible_vertex=int(alone[0])), mh
    # The rest reads the matching as two arrays; a structural failure in it
    # is the solver's, not the input's.
    try:
        signs = classify_partition(mh)
    except ValueError as exc:
        raise SolverDefect(str(exc)) from exc
    marks, *marking = _mark_components(inst, classification, signs)
    matching, lower = project(mh)
    own_m = matching.partner_ranks(inst)
    witness = extract_witness(inst, matching, own_m, marks, signs[0])
    if validate:
        _validate(mirror, marks, matching, lower, signs, witness, posts, own_m)
    report = SolveReport(
        "found", matching, tuple(witness.tolist()), matching.size(inst), None,
        *(tuple(x.tolist()) for x in marking), classification.component_id,
    )
    return report, mh


def _validate(mirror, marks, matching, lower, signs, witness, posts, own_m) -> None:
    """Re-check every structural guarantee of a successful solve.

    ``marks`` are the per-vertex flags of :func:`_mark_components`,
    ``matching`` and ``lower`` the upper and lower projections, ``signs``
    their per-vertex sign arrays, ``witness`` the certificate array of
    :func:`extract_witness` and ``own_m`` the upper projection's partner
    rank array.  Signs and projections first, then the certificate's
    realization; a failure raises :class:`SolverDefect`.
    """
    _validate_signs(mirror.inst, marks, matching, lower, signs, posts, own_m)
    try:
        realization = realize_witnessed(mirror, matching, own_m, witness)
    except ValueError as exc:
        raise SolverDefect(str(exc)) from exc
    if mirror_blocking_edges(realization):
        raise SolverDefect(
            "realization of the result is unstable in the mirror graph"
        )
    if realization.uses_forbidden():
        raise SolverDefect("realization of the result uses a forbidden edge")


def _validate_signs(inst, marks, mat, low, signs, posts, own_m) -> None:
    """:func:`_validate`'s checks of the final signs and projections, on its
    arguments and the mirror graph's instance.

    A failing check names the first vertex's failure in id order.  A vertex
    is in *z* when it is marked and not twin-matched; it *straddles* when
    its upper sign is its side's minus tag (-1 for an agent, +1 for a job)
    and its lower sign the opposite.
    """
    n, na = inst.n, inst.num_agents
    upper, lower = signs
    partner_m, partner_l = mat.partner, low.partner
    own_l = low.partner_ranks(inst)

    def ensure(cond, message: str) -> None:
        if not cond:
            raise SolverDefect(message)

    ensure(check_a_popular(inst, posts, mat), "result is not one-sided popular")
    is_agent = np.arange(n) < na
    z = marks & (upper != 0)
    side = np.where(is_agent, -1, 1)
    straddles = (upper == side) & (lower == -side)
    escaped = z & ~straddles
    # Loop termination: no unmarked vertex straddles the two halves.
    unmarked = straddles & ~marks
    # The two projections agree on marked matched vertices.
    diverged = z & (partner_m != partner_l)
    if (bad := np.flatnonzero(escaped | unmarked | diverged)).size:
        u = bad[0]
        ensure(
            not escaped[u],
            "marked matched agents escaped the minus/plus intersection"
            if u < na
            else "marked matched jobs escaped the plus/minus intersection",
        )
        ensure(not unmarked[u], "unmarked straddling vertex at termination")
        raise SolverDefect("upper and lower projections diverge on a marked vertex")

    # Restricted stability on marked and twin-matched vertices.
    restricted = marks | (upper == 0)
    lay = inst.layout
    agents, jobs = lay.agent_of, na + lay.job_of
    inside = restricted[agents] & restricted[jobs]
    for own in (own_m, own_l):
        blocked = (lay.agent_rank < own[agents]) & (lay.job_rank < own[jobs])
        blocked &= inside
        ensure(not blocked.any(), "blocking edge inside the marked region")

    # Agents settled on their minus tags weakly prefer the upper projection.
    ua, la, za = upper[:na], lower[:na], z[:na]
    settled = ((ua == -1) & ~za) | ((ua == 1) & (la == 1))
    prefers_lower = settled & (own_m[:na] > own_l[:na])
    ensure(not prefers_lower.any(), "agent prefers the lower projection")

    # Upper projection stays inside the sign structure.
    a = np.flatnonzero(partner_m[:na] != np.arange(na))
    ua, ub, za, zb = upper[a], upper[partner_m[a]], z[a], z[partner_m[a]]
    plus_minus = (ua == 1) & (ub == -1)
    minus_plus = (ua == -1) & (ub == 1) & ~(za | zb)
    kept = plus_minus | (za & zb) | minus_plus
    ensure(kept.all(), "matched pair escapes the sign partition")

    # Per-half certificates: the signs themselves.  The check above leaves
    # no job the upper projection matches with a zero sign, so only the
    # lower half's scope needs checking for a pair with one end outside it.
    scope = np.flatnonzero(is_agent | (upper != 0))
    ok = _check_witness(inst, mat, own_m, upper, scope)
    ensure(ok, "upper-half certificate failed off the twin-matched jobs")
    in_l = ~is_agent | (lower != 0)
    a = np.flatnonzero(partner_l[:na] != np.arange(na))
    leaves = in_l[a] != in_l[partner_l[a]]
    ensure(not leaves.any(), "lower projection matches a twin-matched agent")
    ok = _check_witness(inst, low, own_l, lower, np.flatnonzero(in_l))
    ensure(ok, "lower-half certificate failed off the twin-matched agents")

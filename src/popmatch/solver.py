"""Max-size fully popular matching via iterated forbidding in the mirror graph.

A fully popular matching is agent-popular, so the solver first runs the
linear post-graph test :func:`popmatch.popularity.a_popular_obstruction`
and returns ``none`` at once when no agent-popular matching exists.
Otherwise it computes a legal stable matching of the mirror graph (one that
avoids every signed copy of a non-legal edge), then repeatedly looks for a
vertex whose left copy carries a minus tag while its right copy carries a
plus tag.  Any such vertex must have certificate entry zero in every fully
popular matching, and that forces zero across its whole popular-subgraph
component; the loop therefore forbids all plus-tagged proposals of the
component's agents, resumes the engine, and marks the component.  When no
unmarked vertex straddles the two halves any more, the upper projection is
a max-size fully popular matching, and the final per-vertex signs assemble
its popularity certificate.  If the engine ever runs dry, no fully popular
matching exists.

The last step computes projections, signs, the certificate and any
validation in whole-array passes over the engine's final matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import ProposalSystem
from .instance import Instance, Matching, Posts, compute_posts
from .legality import EdgeClassification, legal_edge_set
from .mirror import MirrorGraph, MirrorMatching, build_mirror, mirror_system
from .mirror import classify_partition, mirror_blocking_edges, project
from .mirror import realize_witnessed
from .popularity import _ints, _partner_ranks, a_popular_obstruction
from .popularity import check_a_popular, check_witness


class SolverDefect(AssertionError):
    """A structural guarantee of the algorithm failed; this is a bug, not an input error."""


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    trigger: int
    component: tuple[int, ...]
    edges_forbidden: int
    proposals_total: int


@dataclass
class SolverState:
    """Mutable working state of one solve run."""

    inst: Instance
    classification: EdgeClassification
    mirror: MirrorGraph
    system: ProposalSystem
    marks: list[bool] = field(default_factory=list)
    candidates: list[int] = field(default_factory=list)
    in_list: list[bool] = field(default_factory=list)
    scan_pos: int = 0
    iteration: int = 0
    # Populated when the solve finishes successfully.
    matching: Matching | None = None
    lower: Matching | None = None
    # Per-vertex (upper, lower) signs; see classify_partition.
    signs: tuple[tuple[int, ...], tuple[int, ...]] | None = None


@dataclass(frozen=True)
class SolveReport:
    """Result of a solve: a certified matching or a nonexistence verdict.

    ``outcome`` is ``"found"`` or ``"none"``.  A found matching comes with
    its popularity certificate and is max-size among fully popular
    matchings.  A nonexistence verdict records the iteration at which it
    was reached and a vertex to blame; rerunning reproduces it
    deterministically.  When no agent-popular matching exists, the verdict
    comes before any engine work: ``fail_iteration`` is 0,
    ``infeasible_vertex`` is the first agent that overflows its component
    of the post graph, and ``state`` is ``None``.  Otherwise the verdict
    comes when the engine runs dry, and ``infeasible_vertex`` is the vertex
    whose mirror copy ran out of options.
    """

    outcome: str
    matching: Matching | None
    witness: tuple[int, ...] | None
    size: int | None
    iterations: int
    trace: tuple[TraceRow, ...]
    fail_iteration: int | None
    infeasible_vertex: int | None
    state: SolverState | None


def _is_candidate(state: SolverState, u: int) -> bool:
    """u's left copy sits on a minus tag and its right copy on a plus tag.

    That holds when both of u's matched edges are genuine copies with odd
    ids (see :class:`~popmatch.mirror.MirrorGraph`).
    """
    le = state.system.left_match[u]
    re = state.system.right_match[u]
    twins = 4 * state.inst.m
    return 0 <= le < twins and 0 <= re < twins and le & re & 1 == 1


def _absorb_candidates(state: SolverState) -> None:
    """Append vertices that now straddle the two halves, in id order per batch.

    Only a vertex that took a new edge since the last batch can have started
    to straddle; the engine lists those in ``matched``, which this drains.
    """
    matched = state.system.matched
    for u in sorted(set(matched)):
        if (
            not state.in_list[u]
            and not state.marks[u]
            and _is_candidate(state, u)
        ):
            state.in_list[u] = True
            state.candidates.append(u)
    matched.clear()


def find_unmarked(state: SolverState) -> int | None:
    """Next unmarked straddling vertex via the append-only candidate list.

    The scan pointer only moves forward: entries are skipped once they are
    marked or no longer straddle (a vertex that falls to its twin never
    straddles again), so the total scan cost is linear in appends.
    """
    while state.scan_pos < len(state.candidates):
        u = state.candidates[state.scan_pos]
        if not state.marks[u] and _is_candidate(state, u):
            return u
        state.scan_pos += 1
    return None


def _agent_plus_edges(state: SolverState, agents) -> list[int]:
    """All not-yet-forbidden plus-tagged edges at the given agents' copies."""
    starts = state.inst.layout.starts
    forbidden = state.system.forbidden
    out = []
    for a in agents:
        for k in range(starts[a], starts[a + 1]):
            for e in (4 * k, 4 * k + 2):
                if not forbidden[e]:
                    out.append(e)
    return out


def extract_witness(state: SolverState) -> tuple[int, ...]:
    """Popularity certificate of the returned matching from the final signs.

    Marked vertices and twin-matched vertices get zero; everything else
    takes the sign of its upper-half tag.  The result must validate; a
    failure here would mean the solver itself is broken.
    """
    witness = np.where(np.fromiter(state.marks, bool), 0, _ints(state.signs[0]))
    if not check_witness(state.inst, state.matching, witness):
        raise SolverDefect("final signs produced an invalid certificate")
    return tuple(witness.tolist())


def solve(inst: Instance, validate: bool = False) -> SolveReport:
    """Decide whether a fully popular matching exists and return a max-size one.

    Inputs without an agent-popular matching end at the post-graph test,
    before any classification.  With ``validate`` the run additionally
    re-checks every structural guarantee
    (restricted stability, partial symmetry, the per-half certificates, and
    the mirror realization of the result); violations raise
    :class:`SolverDefect`.
    """
    posts = compute_posts(inst)
    blocker = a_popular_obstruction(inst, posts)
    if blocker is not None:
        return SolveReport(
            outcome="none",
            matching=None,
            witness=None,
            size=None,
            iterations=0,
            trace=(),
            fail_iteration=0,
            infeasible_vertex=blocker,
            state=None,
        )
    classification = legal_edge_set(inst, posts=posts)
    mirror = build_mirror(inst, classification)
    system = mirror_system(mirror)
    state = SolverState(
        inst=inst,
        classification=classification,
        mirror=mirror,
        system=system,
        marks=[False] * inst.n,
        in_list=[False] * inst.n,
    )
    trace: list[TraceRow] = []

    if not system.run():
        return _none_report(state, trace, 0)
    _absorb_candidates(state)

    while (trigger := find_unmarked(state)) is not None:
        state.iteration += 1
        cid = state.classification.component_id[trigger]
        component = state.classification.components[cid]
        comp_agents = [u for u in component if inst.is_agent(u)]
        newly = _agent_plus_edges(state, comp_agents)
        system.forbid(newly)
        feasible = system.run()
        trace.append(
            TraceRow(
                iteration=state.iteration,
                trigger=trigger,
                component=component,
                edges_forbidden=len(newly),
                proposals_total=system.proposals,
            )
        )
        if not feasible:
            return _none_report(state, trace, state.iteration)
        for u in component:
            state.marks[u] = True
        _absorb_candidates(state)

    # The epilogue reads the final matching as two arrays; a structural
    # failure in it is the solver's, not the input's.
    mh = MirrorMatching(
        mirror, _ints(system.left_match), _ints(system.right_match)
    )
    state.matching = project(mh, "upper")
    state.lower = project(mh, "lower")
    try:
        state.signs = classify_partition(mh)
    except ValueError as exc:
        raise SolverDefect(str(exc)) from exc
    witness = extract_witness(state)
    if validate:
        own = _partner_ranks(inst, state.matching.partner)
        _validate(state, witness, posts, own)
    return SolveReport(
        outcome="found",
        matching=state.matching,
        witness=witness,
        size=state.matching.size(inst),
        iterations=state.iteration,
        trace=tuple(trace),
        fail_iteration=None,
        infeasible_vertex=None,
        state=state,
    )


def _none_report(
    state: SolverState, trace: list[TraceRow], iteration: int
) -> SolveReport:
    return SolveReport(
        outcome="none",
        matching=None,
        witness=None,
        size=None,
        iterations=state.iteration,
        trace=tuple(trace),
        fail_iteration=iteration,
        infeasible_vertex=state.system.exhausted_left,
        state=state,
    )


def _validate(
    state: SolverState, witness: tuple[int, ...], posts: Posts, own_m
) -> None:
    """Re-check every structural guarantee of a successful solve.

    ``own_m`` holds the upper projection's partner ranks.  Signs and
    projections first, then the certificate's realization; a failure
    raises :class:`SolverDefect`.
    """
    _validate_signs(state, posts, own_m)
    try:
        realization = realize_witnessed(
            state.mirror, state.matching, own_m, witness
        )
    except ValueError as exc:
        raise SolverDefect(str(exc)) from exc
    if mirror_blocking_edges(realization):
        raise SolverDefect(
            "realization of the result is unstable in the mirror graph"
        )
    if realization.uses_forbidden():
        raise SolverDefect("realization of the result uses a forbidden edge")


def _validate_signs(state: SolverState, posts: Posts, own_m) -> None:
    """:func:`_validate`'s checks of the final signs and projections.

    A failing check names the first vertex's failure in id order.  A vertex
    is in *z* when it is marked and not twin-matched; it *straddles* when
    its upper sign is its side's minus tag (-1 for an agent, +1 for a job)
    and its lower sign the opposite.
    """
    inst = state.inst
    n, na = inst.n, inst.num_agents
    upper, lower = map(_ints, state.signs)
    marks = np.fromiter(state.marks, bool, n)
    mat, low = state.matching, state.lower
    partner_m, partner_l = _ints(mat.partner), _ints(low.partner)
    own_m, own_l = _ints(own_m), _partner_ranks(inst, partner_l)

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
    _, agents, job_of, agent_rank, job_rank = inst.layout.arrays
    jobs = na + job_of
    inside = restricted[agents] & restricted[jobs]
    for own in (own_m, own_l):
        blocked = inside & (agent_rank < own[agents]) & (job_rank < own[jobs])
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
    ok = check_witness(inst, mat, upper, np.flatnonzero(is_agent | (upper != 0)))
    ensure(ok, "upper-half certificate failed off the twin-matched jobs")
    in_l = ~is_agent | (lower != 0)
    a = np.flatnonzero(partner_l[:na] != np.arange(na))
    leaves = in_l[a] != in_l[partner_l[a]]
    ensure(not leaves.any(), "lower projection matches a twin-matched agent")
    ok = check_witness(inst, low, lower, np.flatnonzero(in_l))
    ensure(ok, "lower-half certificate failed off the twin-matched agents")

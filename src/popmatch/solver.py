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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .engine import ProposalSystem
from .instance import Instance, Matching, Posts, compute_posts
from .legality import EdgeClassification, legal_edge_set
from .mirror import (
    MirrorGraph,
    MirrorMatching,
    build_mirror,
    classify_partition,
    mirror_blocking_edges,
    mirror_system,
    project,
    realize_witnessed,
)
from .popularity import _check_witness, a_popular_obstruction, check_a_popular


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


def extract_witness(state: SolverState, own: list[int]) -> tuple[int, ...]:
    """Popularity certificate of the returned matching from the final signs.

    Marked vertices and twin-matched vertices get zero; everything else
    takes the sign of its upper-half tag.  ``own`` holds the matching's
    :meth:`~popmatch.instance.Matching.partner_ranks`.  The result must
    validate; a failure here would mean the solver itself is broken.
    """
    upper = state.signs[0]
    witness = tuple(
        0 if marked else s for marked, s in zip(state.marks, upper)
    )
    if not _check_witness(state.inst, state.matching, own, witness):
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

    mh = MirrorMatching(
        mirror, tuple(system.left_match), tuple(system.right_match)
    )
    state.matching = project(mh, "upper")
    state.lower = project(mh, "lower")
    state.signs = classify_partition(mh)
    own = state.matching.partner_ranks(inst)
    witness = extract_witness(state, own)
    if validate:
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
    state: SolverState,
    witness: tuple[int, ...],
    posts: Posts,
    own_m: list[int],
) -> None:
    """Re-check every structural guarantee of a successful solve.

    ``own_m`` holds the upper projection's partner ranks; the lower one's
    are computed here, once.  Each check is one pass over the vertices or
    the matched pairs.  A vertex is in *z* when it is marked and not
    twin-matched; it *straddles* when its upper sign is its side's minus
    tag (-1 for an agent, +1 for a job) and its lower sign the opposite.
    """
    inst = state.inst
    upper, lower = state.signs
    mat = state.matching
    low = state.lower
    n, na = inst.n, inst.num_agents

    def ensure(cond: bool, message: str) -> None:
        if not cond:
            raise SolverDefect(message)

    ensure(
        check_a_popular(inst, posts, mat),
        "result is not one-sided popular",
    )

    z = [marked and s != 0 for marked, s in zip(state.marks, upper)]
    for u in range(n):
        side = -1 if u < na else 1
        straddles = upper[u] == side and lower[u] == -side
        ensure(
            not z[u] or straddles,
            "marked matched agents escaped the minus/plus intersection"
            if u < na
            else "marked matched jobs escaped the plus/minus intersection",
        )
        # Loop termination: no unmarked vertex straddles the two halves.
        ensure(
            not straddles or state.marks[u],
            "unmarked straddling vertex at termination",
        )
        # The two projections agree on marked matched vertices.
        ensure(
            not z[u] or mat.partner[u] == low.partner[u],
            "upper and lower projections diverge on a marked vertex",
        )

    # Restricted stability on marked and twin-matched vertices.
    lay = inst.layout
    own_l = low.partner_ranks(inst)
    restricted = [marked or s == 0 for marked, s in zip(state.marks, upper)]
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

    # Agents settled on their minus tags weakly prefer the upper projection.
    for a in range(na):
        settled = (upper[a] == -1 and not z[a]) or upper[a] == lower[a] == 1
        ensure(
            not settled or own_m[a] <= own_l[a],
            "agent prefers the lower projection",
        )

    # Upper projection stays inside the sign structure.
    for a, b in mat.pairs(inst):
        ok = (
            (upper[a] == 1 and upper[b] == -1)
            or (z[a] and z[b])
            or (upper[a] == -1 and upper[b] == 1 and not (z[a] or z[b]))
        )
        ensure(ok, "matched pair escapes the sign partition")

    # Per-half certificates: the signs themselves.  Each half's scope must
    # hold both ends of every pair its projection matches.
    in_m = [u < na or upper[u] != 0 for u in range(n)]
    ensure(
        all(in_m[a] == in_m[b] for a, b in mat.pairs(inst)),
        "upper projection matches a twin-matched job",
    )
    scope_m = [u for u in range(n) if in_m[u]]
    ensure(
        _check_witness(inst, mat, own_m, upper, vertices=scope_m),
        "upper-half certificate failed off the twin-matched jobs",
    )
    in_l = [u >= na or lower[u] != 0 for u in range(n)]
    ensure(
        all(in_l[a] == in_l[b] for a, b in low.pairs(inst)),
        "lower projection matches a twin-matched agent",
    )
    scope_l = [u for u in range(n) if in_l[u]]
    ensure(
        _check_witness(inst, low, own_l, lower, vertices=scope_l),
        "lower-half certificate failed off the twin-matched agents",
    )

    # The full certificate must also realize to a legal stable mirror matching.
    realization = realize_witnessed(state.mirror, mat, own_m, witness)
    ensure(
        not mirror_blocking_edges(realization),
        "realization of the result is unstable in the mirror graph",
    )
    ensure(
        not realization.uses_forbidden(),
        "realization of the result uses a forbidden edge",
    )

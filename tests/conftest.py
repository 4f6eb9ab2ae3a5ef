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

import pytest

from popmatch import Instance, Matching, parse_instance
from popmatch.generator import generate

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


@pytest.fixture(scope="session")
def size_gap():
    return parse_instance(SIZE_GAP_TEXT)


@pytest.fixture(scope="session")
def identical_prefs():
    return parse_instance(IDENTICAL_PREFS_TEXT)


@pytest.fixture(scope="session")
def showcase():
    return parse_instance(SHOWCASE_TEXT)


def ids(inst, *names):
    return tuple(inst.id_of(name) for name in names)


def pairs_by_name(inst, mat: Matching):
    return sorted(
        (inst.names[a], inst.names[b]) for a, b in mat.pairs(inst)
    )


def match_of(inst, *name_pairs) -> Matching:
    return Matching.from_pairs(
        inst, [(inst.id_of(a), inst.id_of(b)) for a, b in name_pairs]
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


def random_instance(seed: int, max_side: int = 4):
    """Deterministic small random instance for sweep tests."""
    na = 1 + seed % max_side
    nb = 1 + (seed // max_side) % max_side
    density = (0.3, 0.6, 1.0)[seed % 3]
    return parse_instance(generate(na, nb, density, seed))


def ring_instance(n: int):
    """Rotation chain: agent ai lists bi, b(i+1); job bj lists a(j-1), aj."""
    lines = [
        "agents: " + " ".join(f"a{i}" for i in range(n)),
        "jobs: " + " ".join(f"b{i}" for i in range(n)),
    ]
    lines += [f"a{i} > b{i} b{(i + 1) % n}" for i in range(n)]
    lines += [f"b{j} > a{(j - 1) % n} a{j}" for j in range(n)]
    return parse_instance("\n".join(lines) + "\n")


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
    na, names = inst.num_agents, inst.names
    agents = inst.agent_ids()
    rest = inst.n + na
    jobs_of = [tuple(b + na for b in inst.pref[a]) for a in agents]
    pref = (
        [(rest + a,) + jobs_of[a] for a in agents]
        + [jobs_of[a] + (rest + a,) for a in agents]
        + [
            inst.pref[b] + tuple(na + a for a in inst.pref[b])
            for b in inst.job_ids()
        ]
        + [(na + a, a) for a in agents]
    )
    aux_names = (
        tuple(f"{names[a]}^hi" for a in agents)
        + tuple(f"{names[a]}^lo" for a in agents)
        + names[na:]
        + tuple(f"{names[a]}^rest" for a in agents)
    )
    rank_tbl = tuple({v: i for i, v in enumerate(row)} for row in pref)
    edges = tuple((a, b) for a in range(2 * na) for b in pref[a])
    return Instance(aux_names, 2 * na, tuple(pref), rank_tbl, edges), na


def project_two_level(inst, aux_pairs, na):
    """Genuine-job pairs of the two-level instance, taken back to ``inst``."""
    return frozenset(
        (ax % na, bx - na) for ax, bx in aux_pairs if bx < inst.n + na
    )

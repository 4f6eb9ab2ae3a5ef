"""Seeded inputs, expected answers and the timed operation of each workload.

Every workload builds a small pool of items from the workload seed and the
timed loop cycles through it, so each item is solved several times in a run
and its repeated answers can be compared digest for digest.

Why each workload exists (see also ``BENCHMARK.json``):

* ``random``: the ``popmatch bench`` family.  Every instance returns
  ``none`` at round 0, so edge classification (``legal_edge_set``) and the
  mirror build dominate; an early agent-popularity precheck shows here.
* ``blocks``: disjoint copies of a 6-vertex gadget with one forbid round per
  block, solved with ``validate=True``; the only workload that runs the
  forbid/resume loop, witness extraction and validation.
* ``ring``: the rotation chain; truncation probes on the two-level instance
  grow quadratically with n, so ``probe_truncation`` dominates.
* ``verify``: ``popmatch verify --mode fully`` on block instances, half with
  the fully popular answer and half with some blocks defeated; the dense
  assignment inside ``verify_popular`` dominates.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

import popmatch
import popmatch.cli

# Sizes and pool lengths.  Each run spends its time cycling through the pool.
RANDOM_SIDE = 2000
RANDOM_DEGREE = 5
RANDOM_POOL = 16
BLOCKS = 1000
BLOCKS_POOL = 8
RING_N = 300
RING_POOL = 8
VERIFY_BLOCKS = 400
VERIFY_POOL = 8
VERIFY_DEFEAT_SHARE = 0.1
# Exit codes of ``popmatch verify`` as the README documents them.
EXIT_OK = 0
EXIT_DEFEATED = 3

# The 6-vertex block of the acceptance suite: its only fully popular
# matching has size 2 and is reached after one forbid round.
BLOCK = (
    ("a0", ("b0", "b1")),
    ("a1", ("b1", "b2")),
    ("a2", ("b0", "b1")),
    ("b0", ("a2", "a0")),
    ("b1", ("a2", "a1", "a0")),
    ("b2", ("a1",)),
)
BLOCK_EDGES = sum(len(row) for name, row in BLOCK if name.startswith("a"))

WORKLOADS = ("random", "blocks", "ring", "verify")


@dataclass(frozen=True)
class Item:
    """One input of a workload and what its answer must be.

    ``expect`` is ``"found"``, ``"none"`` (random: certified independently)
    or the exit code of a verify run.  ``size`` is the expected matching size
    of a found answer, ``defeated`` whether a verify file was built to lose.
    """

    edges: int
    expect: str | int
    text: str = ""
    size: int | None = None
    argv: tuple[str, ...] = ()
    defeated: bool = False


def instance_text(agents, jobs, lines) -> str:
    return (
        "agents: " + " ".join(agents) + "\njobs: " + " ".join(jobs) + "\n"
        + "\n".join(lines) + "\n"
    )


def read_prefs(text: str) -> tuple[list[str], dict[str, list[str]]]:
    """Agent names and every vertex's list, read from the text format.

    The benchmark's own reader, so checks do not trust the parser under test.
    """
    agents: list[str] = []
    prefs: dict[str, list[str]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("agents:"):
            agents = line[len("agents:"):].split()
        elif not line.startswith("jobs:"):
            head, _, tail = line.partition(">")
            prefs[head.strip()] = tail.split()
    return agents, prefs


def random_items(seed: int) -> list[Item]:
    rng = random.Random(f"random/{seed}")
    items = []
    for _ in range(RANDOM_POOL):
        text = popmatch.generate(
            RANDOM_SIDE, RANDOM_SIDE, RANDOM_DEGREE / RANDOM_SIDE,
            seed=rng.getrandbits(32),
        )
        agents, prefs = read_prefs(text)
        items.append(Item(sum(len(prefs[a]) for a in agents), "none", text))
    return items


def blocks_text(k: int, rng: random.Random) -> str:
    """k disjoint blocks with vertex and line declarations shuffled."""
    agents, jobs, lines = [], [], []
    for i in range(k):
        for name, row in BLOCK:
            tag = f"{name}_{i}"
            (agents if name.startswith("a") else jobs).append(tag)
            lines.append(f"{tag} > " + " ".join(f"{v}_{i}" for v in row))
    for seq in (agents, jobs, lines):
        rng.shuffle(seq)
    return instance_text(agents, jobs, lines)


@dataclass(frozen=True)
class BlockTruth:
    """Oracle facts about one block, by vertex name."""

    size: int
    answer: tuple[tuple[str, str], ...]
    losers: tuple[tuple[tuple[str, str], ...], ...]


def block_matchings() -> list[tuple[tuple[str, str], ...]]:
    """Every matching of one block, as sorted (agent, job) name pairs."""
    agents = [(name, row) for name, row in BLOCK if name.startswith("a")]
    out = []

    def rec(i: int, used: tuple[str, ...], pairs: tuple):
        if i == len(agents):
            out.append(tuple(sorted(pairs)))
            return
        rec(i + 1, used, pairs)
        name, row = agents[i]
        for b in row:
            if b not in used:
                rec(i + 1, used + (b,), pairs + ((name, b),))

    rec(0, (), ())
    return out


def block_truth() -> BlockTruth:
    """The block's unique max-size fully popular matching and its losers."""
    inst = popmatch.parse_instance(instance_text(
        [n for n, _ in BLOCK if n.startswith("a")],
        [n for n, _ in BLOCK if n.startswith("b")],
        [f"{n} > " + " ".join(row) for n, row in BLOCK],
    ))
    truth = popmatch.ground_truth(inst)

    def named(mat):
        return tuple(sorted(
            (inst.names[a], inst.names[b]) for a, b in mat.pairs(inst)
        ))

    best = [
        named(m) for m in truth.fully_popular
        if m.size(inst) == truth.max_fully_popular_size
    ]
    if len(best) != 1:
        raise RuntimeError("the block must have one max-size fully popular matching")
    popular = {named(m) for m in truth.popular}
    losers = tuple(m for m in block_matchings() if m not in popular)
    return BlockTruth(truth.max_fully_popular_size, best[0], losers)


def blocks_items(seed: int) -> list[Item]:
    rng = random.Random(f"blocks/{seed}")
    size = block_truth().size * BLOCKS
    return [
        Item(BLOCK_EDGES * BLOCKS, "found", blocks_text(BLOCKS, rng), size)
        for _ in range(BLOCKS_POOL)
    ]


def ring_text(n: int, rng: random.Random) -> str:
    """Rotation chain: agent i lists jobs i, i+1; job j lists agents j-1, j.

    Labels are permuted and declarations shuffled, so ids differ per seed.
    """
    a_lab = rng.sample(range(n), n)
    b_lab = rng.sample(range(n), n)
    agents = [f"a{a_lab[i]}" for i in range(n)]
    jobs = [f"b{b_lab[j]}" for j in range(n)]
    lines = [f"{agents[i]} > {jobs[i]} {jobs[(i + 1) % n]}" for i in range(n)]
    lines += [f"{jobs[j]} > {agents[j - 1]} {agents[j]}" for j in range(n)]
    for seq in (agents, jobs, lines):
        rng.shuffle(seq)
    return instance_text(agents, jobs, lines)


def ring_items(seed: int) -> list[Item]:
    rng = random.Random(f"ring/{seed}")
    return [
        Item(2 * RING_N, "found", ring_text(RING_N, rng), RING_N)
        for _ in range(RING_POOL)
    ]


def verify_items(seed: int, workdir: Path) -> list[Item]:
    """Block instances and matching files; odd items defeat some blocks."""
    rng = random.Random(f"verify/{seed}")
    truth = block_truth()
    items = []
    for i in range(VERIFY_POOL):
        inst_path = workdir / f"instance{i}.txt"
        mat_path = workdir / f"matching{i}.txt"
        inst_path.write_text(blocks_text(VERIFY_BLOCKS, rng))
        defeated = i % 2 == 1
        chosen = set()
        if defeated:
            chosen = {
                k for k in range(VERIFY_BLOCKS)
                if rng.random() < VERIFY_DEFEAT_SHARE
            } or {rng.randrange(VERIFY_BLOCKS)}
        lines = []
        for k in range(VERIFY_BLOCKS):
            pairs = rng.choice(truth.losers) if k in chosen else truth.answer
            lines += [f"{a}_{k} {b}_{k}" for a, b in pairs]
        mat_path.write_text("\n".join(lines) + "\n")
        argv = (
            "verify", str(inst_path), "--matching", str(mat_path),
            "--mode", "fully", "--json",
        )
        items.append(Item(
            BLOCK_EDGES * VERIFY_BLOCKS,
            EXIT_DEFEATED if defeated else EXIT_OK,
            argv=argv,
            defeated=defeated,
        ))
    return items


def build_items(workload: str, seed: int, workdir: Path) -> list[Item]:
    if workload == "random":
        return random_items(seed)
    if workload == "blocks":
        return blocks_items(seed)
    if workload == "ring":
        return ring_items(seed)
    return verify_items(seed, workdir)


def run_op(workload: str, item: Item):
    """The timed operation.  Names are looked up at call time so tracing sees them."""
    if workload == "verify":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = popmatch.cli.main(list(item.argv))
        return code, out.getvalue()
    inst = popmatch.parse_instance(item.text)
    return inst, popmatch.solve(inst, validate=workload == "blocks")

"""Seeded instance generation.

:func:`generate` draws every number from one ``random.Random(seed)``, in
this order: first the rows, agent by agent in id order, each row one
uniform draw (``random()``) per column it keeps plus one that ends it,
again for every re-roll of an empty row (no draw at all at density 1);
then one shuffle of each agent's list in id order, and then one of each
job's list in id order.  Each shuffle makes exactly the ``getrandbits``
draws that ``Random.shuffle`` makes on the same list.  So the text for
given parameters is the same byte for byte as in earlier releases, and
``tests/golden.json`` holds.

:func:`chain_text` builds a fixed instance whose agent-proposing run is one
long displacement cascade.
"""

from __future__ import annotations

import math
import random

_MAX_REROLLS = 1000


def generate(agents: int, jobs: int, density: float, seed: int) -> str:
    """Random bipartite instance text, byte-identical for equal parameters.

    Every agent/job pair is kept independently with probability ``density``;
    each side's realized neighbor list is then shuffled independently.
    Agents that end up with no neighbors get their row re-rolled, since
    every agent needs at least one genuine neighbor.  The module docstring
    gives the order of the random draws.
    """
    if agents < 1 or jobs < 1:
        raise ValueError("need at least one agent and one job")
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    rng = random.Random(seed)

    if density == 1.0:
        rows = [list(range(jobs)) for _ in range(agents)]
    else:
        # Geometric gaps between kept columns: equivalent to an independent
        # coin per column, but costs only as many draws as columns kept.  A
        # gap of at least ``jobs`` ends the row before ``int`` sees it, as
        # it may be infinite for a subnormal density.
        log_skip = math.log1p(-density)
        uniform, log = rng.random, math.log
        rows = []
        for _ in range(agents):
            for _attempt in range(_MAX_REROLLS):
                row = []
                j = -1
                while True:
                    skip = log(1.0 - uniform()) / log_skip
                    if skip >= jobs:
                        break
                    j += 1 + int(skip)
                    if j >= jobs:
                        break
                    row.append(j)
                if row:
                    break
            else:
                raise ValueError(
                    "density too low to give every agent a neighbor"
                )
            rows.append(row)

    cols: list[list[int]] = [[] for _ in range(jobs)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].append(i)

    # Random.shuffle, inlined: position i swaps with a uniform draw below
    # i + 1, taken by rejection from getrandbits of that bound's bit length.
    getrandbits = rng.getrandbits
    for order in rows + cols:
        for i in range(len(order) - 1, 0, -1):
            k = (i + 1).bit_length()
            r = getrandbits(k)
            while r > i:
                r = getrandbits(k)
            order[i], order[r] = order[r], order[i]

    a = [f"a{i}" for i in range(agents)]
    b = [f"b{j}" for j in range(jobs)]
    join = " ".join
    return "\n".join([
        "agents: " + join(a),
        "jobs: " + join(b),
        *[f"{name} > {join(map(b.__getitem__, row))}"
          for name, row in zip(a, rows)],
        *[f"{name} > {join(map(a.__getitem__, col))}"
          for name, col in zip(b, cols)],
    ]) + "\n"


def chain_text(n: int) -> str:
    """A chain of ``n`` agents and ``n`` jobs, as instance text.

    ``a0`` lists ``b0``; agent ``a{i}`` lists ``b{i-1}`` then ``b{i}``; job
    ``b{j}`` lists ``a{j}`` then ``a{j+1}``, the last job only its own
    agent.  In the agent-proposing run every agent first proposes to its
    first choice and only ``a1`` is refused; ``a1`` then displaces ``a2``
    from ``b1``, ``a2`` displaces ``a3``, and so on to the end: one cascade
    of ``n - 1`` proposals, made one at a time.
    """
    a = [f"a{i}" for i in range(n)]
    b = [f"b{j}" for j in range(n)]
    return "\n".join([
        "agents: " + " ".join(a),
        "jobs: " + " ".join(b),
        "a0 > b0",
        *[f"{a[i]} > {b[i - 1]} {b[i]}" for i in range(1, n)],
        *[f"{b[j]} > {a[j]} {a[j + 1]}" for j in range(n - 1)],
        f"{b[-1]} > {a[-1]}",
    ]) + "\n"

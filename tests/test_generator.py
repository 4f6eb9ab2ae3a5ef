"""Instance generation: same draws and bytes as the reference, and the
chain family."""

import pytest

from popmatch import parse_instance
from popmatch.generator import chain_text, generate

from conftest import generate_reference, vertex_lists

SIDES = (1, 2, 3, 7, 16, 61)
DENSITIES = (1e-3, 0.01, 0.05, 0.2, 0.5, 0.9, 0.999, 1.0)


def outcome(gen, *args):
    """The text ``gen`` returns, or the message of the ``ValueError`` it
    raises."""
    try:
        return gen(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def test_same_text_as_reference():
    grid = [
        (agents, jobs, density, seed)
        for agents in SIDES
        for jobs in SIDES
        for density in DENSITIES
        for seed in (0, 1)
    ]
    # Bad parameters, and the benchmark's shape.
    grid += [(0, 3, 0.5, 0), (3, 0, 0.5, 0), (2, 2, 0.0, 0), (2, 2, 1.5, 0)]
    grid += [(2000, 2000, 5 / 2000, seed) for seed in range(5)]
    outcomes = [outcome(generate_reference, *args) for args in grid]
    for args, want in zip(grid, outcomes):
        assert outcome(generate, *args) == want, args
    # The grid takes every exit: rows kept, and rows re-rolled too often.
    low = (ValueError, "density too low to give every agent a neighbor")
    assert 0 < outcomes.count(low) < len(grid) // 2


@pytest.mark.parametrize("density", [5e-324, 1e-310])
def test_subnormal_density_is_too_low(density):
    with pytest.raises(ValueError, match="^density too low to give every"):
        generate(1, 1, density, 0)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_chain_lists(n):
    inst = parse_instance(chain_text(n))
    lists = vertex_lists(inst)
    # Agent i has id i and job j has id n + j.
    assert lists[0] == (n,)
    for i in range(1, n):
        assert lists[i] == (n + i - 1, n + i)
    for j in range(n - 1):
        assert lists[n + j] == (j, j + 1)
    assert lists[-1] == (n - 1,)

"""The golden-output corpus: one sha256 per (input, CLI command).

Each digest covers a command's exit code, stdout and stderr, as
``popmatch.cli.main`` produces them in-process.  The inputs are the
showcase, ``SIZE_GAP``, 200 ``generate`` instances (sides 1-6, densities
0.3, 0.5 and 0.8) and one ``blocks`` and one ``ring`` text of the
benchmark.  The commands are ``solve --json --trace``, ``solve --validate``,
``edges --dump-mirror``, ``edges --kind <kind> --json`` for each kind and
``verify --json`` in all three modes, on the solver's answer and on a
seeded greedy matching; inputs of at most ``ORACLE_MAX_N`` vertices add
``oracle --cross-check --json``.

``tests/test_golden.py`` compares the corpus with ``tests/golden.json``.
A change that alters an output regenerates the file, from the repository
root, and names the changed outputs in ``CHANGES.md``::

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from popmatch import format_matching, parse_instance, solve
from popmatch.cli import main
from popmatch.generator import generate

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SEEDS = 200
DENSITIES = (0.3, 0.5, 0.8)
VERIFY_MODES = ("popular", "a-popular", "fully")
EDGE_KINDS = ("valid", "popular", "legal")
ORACLE_MAX_N = 8


def _bench_workloads():
    """``perfbench/workloads.py``, loaded by path so that nothing else of
    the benchmark's directory joins ``sys.path``."""
    path = HERE.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("golden_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def inputs() -> dict[str, str]:
    """Every corpus input text by name."""
    from conftest import SHOWCASE_TEXT, SIZE_GAP_TEXT

    texts = {"showcase": SHOWCASE_TEXT, "size_gap": SIZE_GAP_TEXT}
    for seed in range(SEEDS):
        na, nb = 1 + seed % 6, 1 + seed // 6 % 6
        density = DENSITIES[seed // 36 % 3]
        texts[f"generate/{seed}"] = generate(na, nb, density, seed)
    bench = _bench_workloads()
    texts["blocks"] = bench.blocks_text(bench.BLOCKS, random.Random("blocks/0"))
    texts["ring"] = bench.ring_text(bench.RING_N, random.Random("ring/0"))
    return texts


def greedy_matching_text(text: str, seed: str) -> str:
    """A maximal matching file: shuffled edges, each taken while both ends
    are free."""
    inst = parse_instance(text)
    lay = inst.layout
    jobs = inst.num_agents + lay.job_of
    edges = list(zip(lay.agent_of.tolist(), jobs.tolist()))
    random.Random(seed).shuffle(edges)
    free = [True] * inst.n
    lines = []
    for a, b in edges:
        if free[a] and free[b]:
            free[a] = free[b] = False
            lines.append(f"{inst.names[a]} {inst.names[b]}\n")
    return "".join(lines)


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def corpus() -> dict[str, str]:
    """``"<input> <command>"`` to the digest of its output, in input order."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = Path(tmp) / "instance.txt"
        mat_path = Path(tmp) / "matching.txt"
        for name, text in inputs().items():
            inst_path.write_text(text)
            path = str(inst_path)
            inst = parse_instance(text)
            commands = [
                ["solve", path, "--json", "--trace"],
                ["solve", path, "--validate"],
                ["edges", path, "--dump-mirror"],
                *(["edges", path, "--kind", kind, "--json"] for kind in EDGE_KINDS),
            ]
            if inst.n <= ORACLE_MAX_N:
                commands.append(["oracle", path, "--cross-check", "--json"])
            for argv in commands:
                out[f"{name} {' '.join(argv[:1] + argv[2:])}"] = _digest(argv)
            matchings = {"greedy": greedy_matching_text(text, name)}
            report = solve(inst)
            if report.outcome == "found":
                matchings["solved"] = format_matching(inst, report.matching)
            for label, mat_text in matchings.items():
                mat_path.write_text(mat_text)
                for mode in VERIFY_MODES:
                    argv = [
                        "verify", path, "--matching", str(mat_path),
                        "--mode", mode, "--json",
                    ]
                    out[f"{name} verify {label} {mode}"] = _digest(argv)
    return out


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(corpus(), indent=0) + "\n")
    print(f"wrote {GOLDEN}")

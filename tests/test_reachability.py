"""Every executable line of the solver, the mirror graph, the engine, the
edge classification, popularity verification and the command line is
reached or ledgered.

A fixed solve sweep, ``check_witness`` on each found answer's certificate,
``verify_popular`` and ``check_a_popular`` on each found answer and on a
greedy matching of each input, one pinned partial matching, and a sweep of
``popmatch`` commands on a few small inputs run under a ``sys.settrace``
line tracer.  A line they do not reach must be in ``LEDGER``, which names
the test that reaches it on purpose: an injected defect that the line
raises, or a caller error that it rejects.  A ledger entry that the sweep
does reach, or that names no test, fails too, so the ledger lists exactly
the lines that a plain solve, verification or command cannot reach.
"""

import contextlib
import inspect
import io
import re
import sys
from collections import Counter
from pathlib import Path

import popmatch.cli
import popmatch.engine
import popmatch.legality
import popmatch.mirror
import popmatch.popularity
import popmatch.solver
from popmatch import check_a_popular, check_witness, compute_posts, generate
from popmatch import format_matching, parse_instance, parse_matching
from popmatch import solve, verify_popular

from conftest import (
    IDENTICAL_PREFS_TEXT,
    SHOWCASE_TEXT,
    SIZE_GAP_TEXT,
    composed_text,
    planted_text,
    random_text,
    ring_text,
)
from golden import greedy_matching_text

MODULES = (
    popmatch.cli,
    popmatch.engine,
    popmatch.legality,
    popmatch.mirror,
    popmatch.popularity,
    popmatch.solver,
)
# Each module's source text, read at import time like the code the tracer
# sees, so that a file edited during a test run cannot shift its lines.
SOURCES = {module: Path(module.__file__).read_text() for module in MODULES}

PINNED = "test_solver.py::TestValidation::test_every_defect_message_is_pinned"
REALIZE = "test_cli.py::test_structural_failures_are_not_input_errors"
NON_CANCELLING = "test_mirror.py::TestRealize::test_non_cancelling_pair_rejected"
SCOPE_IDS = (
    "test_popularity.py::TestCheckWitness::test_scope_ids_out_of_range_rejected"
)
REJECTIONS = (
    "test_popularity.py::TestCheckWitness::test_every_rejection_returns_false"
)

# A dense instance and a partial matching on which verify_popular's
# assignment search pops a stale heap entry.
STALE_TEXT = generate(12, 4, 1.0, seed=0)
STALE_MATCHING = "a1 b1\na7 b3\na8 b2\na11 b0\n"

# An instance whose two-level walk's first round examines 16 agents short
# of their job-optimal edge and moves 2, as (name, list) pairs.
STOP_BLOCK = [
    (name, row.split())
    for name, row in (
        line.split(" > ") for line in random_text(127, 8).splitlines()[2:]
    )
]

# (module, function, source line, occurrence) -> the test that reaches the
# line.  The occurrence counts the function's earlier executable lines of the
# same text, so identical lines in one function are separate entries.
LEDGER = {
    ("cli", "_cmd_oracle", 'diffs.append("existence verdict differs")', 0):
        "test_cli.py::test_oracle_cross_check_lists_existence_diff",
    ("cli", "_cmd_oracle", "diffs.append(", 0):
        "test_cli.py::test_oracle_cross_check_lists_diff",
    ("cli", "_cmd_oracle",
     'f"solver size {solved.size} != oracle size {oracle_size}"', 0):
        "test_cli.py::test_oracle_cross_check_lists_diff",
    ("cli", "_cmd_oracle", 'diffs.append("popular edge sets differ")', 0):
        "test_cli.py::test_oracle_cross_check_lists_popular_edge_diff",
    ("cli", "main", "except SystemExit as exc:", 0):
        "test_cli.py::test_usage_error_exit_one",
    ("cli", "main", "return EXIT_INPUT if exc.code else EXIT_OK", 0):
        "test_cli.py::test_usage_error_exit_one",
    ("cli", "main", "except (InstanceError, OSError, ValueError) as exc:", 0):
        "test_cli.py::test_input_error_exit_one",
    ("cli", "main", 'print(f"error: {exc}", file=sys.stderr)', 0):
        "test_cli.py::test_input_error_exit_one",
    ("cli", "main", "return EXIT_INPUT", 0):
        "test_cli.py::test_input_error_exit_one",
    ("engine", "_rotation_round",
     'raise AssertionError("a rotation successor holds its job-optimal edge")',
     0):
        "test_engine.py::TestRotationRounds::test_inactive_successor_is_a_defect",
    ("mirror", "realize_witnessed",
     "a, b = inst.names[agents[bad[0]]], inst.names[jobs[bad[0]]]", 0):
        NON_CANCELLING,
    ("mirror", "realize_witnessed", "raise ValueError(", 0): NON_CANCELLING,
    ("mirror", "realize_witnessed", "raise ValueError(", 1): REALIZE,
    ("mirror", "realize_witnessed",
     'f"matched pair ({a}, {b}) has non-cancelling certificate entries"', 0):
        NON_CANCELLING,
    ("mirror", "realize_witnessed",
     'f"self-matched vertex {inst.names[bad[0]]} has a nonzero "', 0): REALIZE,
    ("mirror", "classify_partition",
     'raise ValueError("mirror matching is not perfect")', 0):
        "test_mirror.py::TestPartition::test_not_perfect_rejected",
    ("popularity", "check_witness", "raise InstanceError(", 0): SCOPE_IDS,
    ("popularity", "check_witness",
     'f"scope entry {bad[0]} names a vertex id outside 0..{inst.n - 1}"', 0):
        SCOPE_IDS,
    ("popularity", "_check_witness",
     'raise ValueError("matching leaves the induced subgraph")', 0):
        "test_popularity.py::TestCheckWitness::test_matching_must_stay_inside_scope",
    ("popularity", "_check_witness", "return False", 0): REJECTIONS,
    ("popularity", "_check_witness", "return False", 1): REJECTIONS,
    ("popularity", "_check_witness", "return False", 2): REJECTIONS,
    ("popularity", "_check_witness", "return False", 3): REJECTIONS,
    ("popularity", "verify_popular",
     'raise AssertionError("dual potentials fail certificate validation")',
     0):
        "test_popularity.py::TestVerifyPopular::test_failed_certificate_is_a_defect",
    ("popularity", "_augment",
     'raise AssertionError("assignment search ran out of columns")', 0):
        "test_popularity.py::TestVerifyPopular::test_exhausted_search_is_a_defect",
    ("solver", "_mark_components",
     'raise SolverDefect("a marked component holds a plus-tagged edge")', 0):
        "test_solver.py::TestValidation::test_marked_plus_edge_is_a_defect",
    ("solver", "extract_witness",
     'raise SolverDefect("final signs produced an invalid certificate")', 0):
        "test_solver.py::TestValidation::test_invalid_final_signs_are_a_defect",
    ("solver", "_solve", "except ValueError as exc:", 0): REALIZE,
    ("solver", "_solve", "raise SolverDefect(str(exc)) from exc", 0): REALIZE,
    ("solver", "_validate", "except ValueError as exc:", 0): REALIZE,
    ("solver", "_validate", "raise SolverDefect(str(exc)) from exc", 0): REALIZE,
    ("solver", "_validate", "raise SolverDefect(", 0): PINNED,
    ("solver", "_validate",
     '"realization of the result is unstable in the mirror graph"', 0): PINNED,
    ("solver", "_validate",
     'raise SolverDefect("realization of the result uses a forbidden edge")',
     0): PINNED,
    ("solver", "_validate_signs", "u = bad[0]", 0): PINNED,
    ("solver", "_validate_signs", "ensure(", 0): PINNED,
    ("solver", "_validate_signs", "not escaped[u],", 0): PINNED,
    ("solver", "_validate_signs",
     '"marked matched agents escaped the minus/plus intersection"', 0): PINNED,
    ("solver", "_validate_signs", "if u < na", 0): PINNED,
    ("solver", "_validate_signs",
     'else "marked matched jobs escaped the plus/minus intersection",', 0):
        PINNED,
    ("solver", "_validate_signs",
     'ensure(not unmarked[u], "unmarked straddling vertex at termination")',
     0): PINNED,
    ("solver", "_validate_signs",
     'raise SolverDefect("upper and lower projections diverge on a marked '
     'vertex")', 0): PINNED,
    ("solver", "_validate_signs.<locals>.ensure",
     "raise SolverDefect(message)", 0): PINNED,
}


def sweep_texts() -> list[str]:
    """Found solves with and without marking, and both kinds of none."""
    return [
        SHOWCASE_TEXT,
        SIZE_GAP_TEXT,
        IDENTICAL_PREFS_TEXT,
        *(random_text(seed) for seed in range(60)),
        generate(40, 60, 5 / 60, seed=0),
        composed_text(3, seed=1),
        ring_text(5),
        planted_text(6, 6, 0),
        # The smallest ring whose proposal systems and rotation walks run
        # whole-array rounds.
        ring_text(popmatch.engine.BATCH_MIN),
        # A rotation round that moves too few agents, so the loop takes over.
        composed_text(popmatch.engine.BATCH_MIN // 16, block=STOP_BLOCK),
        # A size whose mirror run leaves left copies alone after whole-array
        # rounds.
        generate(700, 1050, 5 / 1050, seed=0),
    ]


def cli_runs(tmp: Path) -> list[list[str]]:
    """``popmatch`` command lines: ``solve`` in every output mode on a found
    input and on both kinds of none, ``verify`` in every mode, every
    ``edges`` kind and the mirror dump, ``oracle --cross-check`` and
    ``generate``, each in text and ``--json`` where it has both."""
    def write(name: str, text: str) -> str:
        path = tmp / name
        path.write_text(text)
        return str(path)

    show = write("showcase.txt", SHOWCASE_TEXT)
    gap = write("size_gap.txt", SIZE_GAP_TEXT)
    engine_none = write("engine_none.txt", generate(40, 60, 5 / 60, seed=0))
    precheck_none = write("precheck_none.txt", IDENTICAL_PREFS_TEXT)
    inst = parse_instance(SHOWCASE_TEXT)
    answer = write("answer.txt", format_matching(inst, solve(inst).matching))
    outputs = ([], ["--json"])
    runs = [
        ["solve", path, *flags]
        for path in (show, engine_none, precheck_none)
        for flags in ([], ["--json"], ["--trace"], ["--json", "--trace"],
                      ["--validate"])
    ]
    runs += [
        ["verify", show, "--matching", answer, "--mode", mode, *out]
        for mode in ("popular", "a-popular", "fully")
        for out in outputs
    ]
    runs += [
        ["edges", show, "--kind", kind, *out]
        for kind in ("valid", "popular", "legal")
        for out in outputs
    ]
    runs.append(["edges", show, "--dump-mirror"])
    runs += [["oracle", gap, "--cross-check", *out] for out in outputs]
    runs += [["generate", "--seed", "1"],
             ["generate", "-o", str(tmp / "generated.txt")]]
    return runs


def ledger_keys(module) -> dict[int, tuple[str, str, str, int]]:
    """Each line that holds bytecode of a function, with its ledger key:
    the module, the function's qualname, the stripped line and how many of
    the function's executable lines above it have the same text."""
    path, source = module.__file__, SOURCES[module]
    owner = {}
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_NEWLOCALS:
            for _, _, line in code.co_lines():
                if line is not None:
                    owner[line] = code.co_qualname
        stack += [c for c in code.co_consts if inspect.iscode(c)]
    name = module.__name__.rsplit(".", 1)[1]
    lines = source.splitlines()
    seen = Counter()
    keys = {}
    for line, qualname in sorted(owner.items()):
        text = lines[line - 1].strip()
        keys[line] = (name, qualname, text, seen[qualname, text])
        seen[qualname, text] += 1
    return keys


def reached_lines(texts, argvs) -> set[tuple[str, int]]:
    """``(file, line)`` of every line the solves, the verifications and
    the command lines ``argvs`` run in ``MODULES``."""
    files = {module.__file__ for module in MODULES}
    reached = set()

    def local(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local(frame, event, arg) if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        for i, text in enumerate(texts):
            inst = parse_instance(text)
            report = solve(inst, validate=True)
            assert report.iterations == len(report.trace)
            mats = [parse_matching(greedy_matching_text(text, str(i)), inst)]
            if report.outcome == "found":
                assert check_witness(inst, report.matching, report.witness)
                mats.append(report.matching)
            for mat in mats:
                verify_popular(inst, mat)
                check_a_popular(inst, compute_posts(inst), mat)
        inst = parse_instance(STALE_TEXT)
        verify_popular(inst, parse_matching(STALE_MATCHING, inst))
        out = io.StringIO()
        # Earlier tests have built the cached parser; build it here again.
        popmatch.cli.build_parser.cache_clear()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            for argv in argvs:
                assert popmatch.cli.main(argv) in (0, 2), argv
    finally:
        sys.settrace(previous)
    return reached


def test_every_line_is_reached_or_ledgered(tmp_path):
    reached = reached_lines(sweep_texts(), cli_runs(tmp_path))
    unreached = set()
    for module in MODULES:
        for line, key in ledger_keys(module).items():
            if (module.__file__, line) not in reached:
                unreached.add(key)
    assert unreached - LEDGER.keys() == set(), "unreached and not ledgered"
    assert LEDGER.keys() - unreached == set(), "ledgered but reached"


def test_ledger_names_existing_tests():
    tests = Path(__file__).resolve().parent
    for test in set(LEDGER.values()):
        path, *owners, name = test.split("::")
        source = (tests / path).read_text()
        for owner in owners:
            assert re.search(rf"^class {owner}\b", source, re.M), test
        assert re.search(rf"^\s*def {name}\(", source, re.M), test

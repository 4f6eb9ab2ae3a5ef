"""Command-line behavior: exit codes, formats, determinism."""

import argparse
import dataclasses
import json
import re
from pathlib import Path

import pytest

import popmatch.cli as cli
import popmatch.solver as solver
from popmatch.cli import build_parser, main
from popmatch.generator import generate
from popmatch.instance import parse_instance
from popmatch.mirror import mirror_system
from popmatch.oracle import ground_truth
from popmatch.solver import SolverDefect

from conftest import (
    IDENTICAL_PREFS_TEXT,
    MATCHING_ERRORS,
    PARSE_ERRORS,
    SHOWCASE_TEXT,
    SIZE_GAP_TEXT,
    serialize_instance,
)


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_solve_found_exit_zero(files, capsys):
    path = files("gap.txt", SIZE_GAP_TEXT)
    assert main(["solve", path]) == 0
    out = capsys.readouterr().out
    assert "found: size 2" in out


def test_solve_none_exit_two(files, capsys):
    path = files("ident.txt", IDENTICAL_PREFS_TEXT)
    assert main(["solve", path]) == 2
    assert "no fully popular matching" in capsys.readouterr().out


def test_solve_json_schema(files, capsys):
    path = files("gap.txt", SIZE_GAP_TEXT)
    assert main(["solve", path, "--json", "--trace", "--validate"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["outcome"] == "found"
    assert sorted(payload["matching"]) == [["a0", "b1"], ["a1", "b0"]]
    assert payload["witness"] == {"a0": -1, "a1": 1, "b0": -1, "b1": 1}
    assert payload["trace"] == []


def test_solve_trace_rows(files, capsys):
    # The showcase forbids one component before it finds its matching.
    path = files("show.txt", SHOWCASE_TEXT)
    assert main(["solve", path, "--json", "--trace"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["trace"] == [
        {
            "trigger": "a",
            "component": ["a", "ap", "b", "bp"],
            "edges_forbidden": 4,
        }
    ]
    assert main(["solve", path, "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "iteration 1: trigger a, marked 4 vertices, forbade 4 edges" in lines


# random_instance(502): an agent-popular matching exists ({a0 b0, a1 b1},
# with a2 alone), so the mirror engine decides, and its run leaves a left
# copy alone.
ENGINE_NONE_TEXT = """\
agents: a0 a1 a2
jobs: b0 b1
a0 > b1 b0
a1 > b1
a2 > b0
b0 > a0 a2
b1 > a1 a0
"""


def test_solve_json_none(files, capsys):
    # a0's left copy runs out of options while right copies starve; the
    # smallest left copy left alone is the one reported.
    path = files("engine_none.txt", ENGINE_NONE_TEXT)
    assert main(["solve", path, "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"outcome": "none", "vertex": "a0"}
    assert main(["solve", path]) == 2
    assert capsys.readouterr().out == (
        "no fully popular matching (vertex a0 ran out of options)\n"
    )


def test_solve_json_none_precheck(files, capsys):
    # Every agent's posts are b1 and b2: three agents overflow those two
    # jobs, and a1 is the smallest of them, before any engine work.
    path = files("ident.txt", IDENTICAL_PREFS_TEXT)
    assert main(["solve", path, "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"outcome": "none", "vertex": "a1"}
    assert main(["solve", path]) == 2
    assert capsys.readouterr().out == (
        "no fully popular matching (no agent-popular matching: "
        "agent a1's post component overflows)\n"
    )


def test_verify_fully_popular_exit_zero(files, capsys):
    inst_path = files("show.txt", SHOWCASE_TEXT)
    mat_path = files("m5.txt", "a b\np q\npp qp\nx yp\nxp y\n")
    assert main(["verify", inst_path, "--matching", mat_path, "--mode", "fully"]) == 0


def test_verify_rejects_non_a_popular(files):
    inst_path = files("show.txt", SHOWCASE_TEXT)
    # The stable matching is popular but not popular agent-side.
    mat_path = files("s4.txt", "a b\np q\npp qp\nx y\n")
    assert main(["verify", inst_path, "--matching", mat_path, "--mode", "popular"]) == 0
    assert main(["verify", inst_path, "--matching", mat_path, "--mode", "fully"]) == 3


def test_verify_a_popular_mode(files):
    inst_path = files("show.txt", SHOWCASE_TEXT)
    mat_path = files("s4.txt", "a b\np q\npp qp\nx y\n")
    assert main(["verify", inst_path, "--matching", mat_path, "--mode", "a-popular"]) == 3


def test_verify_json_payload(files, capsys):
    inst_path = files("show.txt", SHOWCASE_TEXT)
    mat_path = files("s4.txt", "a b\np q\npp qp\nx y\n")
    assert main(["verify", inst_path, "--matching", mat_path, "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"ok": False, "checks": {"popular": True, "a-popular": False}}


@pytest.mark.parametrize(
    "matching, message", MATCHING_ERRORS.values(), ids=list(MATCHING_ERRORS)
)
def test_verify_bad_matching_exit_one(files, capsys, matching, message):
    inst_path = files("gap.txt", SIZE_GAP_TEXT)
    mat_path = files("bad.txt", matching)
    assert main(["verify", inst_path, "--matching", mat_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_edges_kinds(files, capsys):
    path = files("gap.txt", SIZE_GAP_TEXT)
    for kind in ("valid", "popular", "legal"):
        assert main(["edges", path, "--kind", kind]) == 0
    assert main(["edges", path, "--kind", "legal", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert ["a1", "b1"] in payload["legal"]
    assert payload["components"] == [["a0", "a1", "b0", "b1"]]


def test_edges_oracle_backend(files, capsys):
    # The popular listing is the oracle's popular edges and loops, sorted.
    path = files("gap.txt", SIZE_GAP_TEXT)
    assert main(["edges", path, "--kind", "popular"]) == 0
    inst = parse_instance(SIZE_GAP_TEXT)
    truth = ground_truth(inst)
    keys = sorted(truth.popular_edges | {(u, u) for u in truth.popular_loops})
    names = inst.names
    assert capsys.readouterr().out == "".join(
        f"{names[u]} (self)\n" if u == v else f"{names[u]} {names[v]}\n"
        for u, v in keys
    )


def test_edges_dump_mirror(files, capsys):
    path = files("gap.txt", SIZE_GAP_TEXT)
    assert main(["edges", path, "--dump-mirror"]) == 0
    out = capsys.readouterr().out
    assert "a0_l >" in out and "b1_r >" in out


def test_oracle_cross_check_clean(files, capsys):
    path = files("gap.txt", SIZE_GAP_TEXT)
    assert main(["oracle", path, "--cross-check", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diffs"] == []
    assert payload["matchings"] == 5


def test_oracle_over_cap_exit_one(files, capsys):
    path = files("big.txt", generate(9, 8, 0.2, seed=0))
    assert main(["oracle", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: instance has 17 vertices, enumeration cap is 16\n"
    )


def test_oracle_over_matching_cap_exit_one(files, capsys):
    path = files("complete.txt", generate(8, 8, 1.0, seed=0))
    assert main(["oracle", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: instance has more than 10000 matchings, too many to enumerate\n"
    )


def test_oracle_cross_check_lists_diff(files, capsys, monkeypatch):
    real_solve = cli.solve

    def off_by_one(inst, **kwargs):
        report = real_solve(inst, **kwargs)
        return dataclasses.replace(report, size=report.size + 1)

    monkeypatch.setattr(cli, "solve", off_by_one)
    path = files("gap.txt", SIZE_GAP_TEXT)
    assert main(["oracle", path, "--cross-check", "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["diffs"] == ["solver size 3 != oracle size 2"]
    assert main(["oracle", path, "--cross-check"]) == 3
    assert "diffs: ['solver size 3 != oracle size 2']" in (
        capsys.readouterr().out.splitlines()
    )


def test_oracle_cross_check_lists_existence_diff(files, capsys, monkeypatch):
    real_solve = cli.solve

    def no_answer(inst, **kwargs):
        return dataclasses.replace(real_solve(inst, **kwargs), outcome="none")

    monkeypatch.setattr(cli, "solve", no_answer)
    path = files("gap.txt", SIZE_GAP_TEXT)
    assert main(["oracle", path, "--cross-check", "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["diffs"] == ["existence verdict differs"]


def test_oracle_cross_check_lists_popular_edge_diff(files, capsys, monkeypatch):
    real_classify = cli.legal_edge_set

    def one_popular_edge_short(inst):
        classification = real_classify(inst)
        flags = classification.popular_flags.copy()
        flags[flags.argmax()] = False
        return dataclasses.replace(classification, popular_flags=flags)

    monkeypatch.setattr(cli, "legal_edge_set", one_popular_edge_short)
    path = files("gap.txt", SIZE_GAP_TEXT)
    assert main(["oracle", path, "--cross-check", "--json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["diffs"] == ["popular edge sets differ"]


def readme_synopsis() -> dict[str, set[str]]:
    """Options per subcommand in the README's CLI block."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```")[0]
    return {
        line.split()[1]: set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", line))
        for line in block.splitlines()
        if line.startswith("popmatch ")
    }


def _witness_changed(change):
    """``solver.extract_witness`` with ``change(inst, mat, witness)`` applied."""
    extract = solver.extract_witness

    def changed(inst, mat, *args):
        witness = extract(inst, mat, *args).copy()
        change(inst, mat, witness)
        return witness

    return changed


def _non_cancelling(inst, mat, witness):
    a, b = mat.pairs(inst)[0]
    witness[b] = witness[a]


def _nonzero_single(inst, mat, witness):
    u = next(u for u in range(inst.n) if mat.partner[u] == u)
    witness[u] = 1


def _right_copy_dropped(mirror):
    """``solver.mirror_system`` whose runs end with right copy 1 unmatched.

    Every left copy stays matched, so the run is not a ``none`` verdict;
    the signs, read before the marking pass, find the matching imperfect.
    """
    system = mirror_system(mirror)
    run = system.run

    def run_then_drop():
        run()
        system.right_match[1] = -1

    system.run = run_then_drop
    return system


@pytest.mark.parametrize(
    "text, target, fake, message",
    [
        (
            SIZE_GAP_TEXT, "extract_witness",
            _witness_changed(_non_cancelling), "non-cancelling",
        ),
        (
            SHOWCASE_TEXT, "extract_witness",
            _witness_changed(_nonzero_single), "nonzero certificate entry",
        ),
        (SIZE_GAP_TEXT, "mirror_system", _right_copy_dropped, "not perfect"),
    ],
    ids=["non-cancelling-pair", "nonzero-single", "not-perfect"],
)
def test_structural_failures_are_not_input_errors(
    files, capsys, monkeypatch, text, target, fake, message
):
    # Each failure raises ValueError inside popmatch.mirror; a solve reports
    # it as a SolverDefect, which main does not turn into exit 1.
    monkeypatch.setattr(solver, target, fake)
    with pytest.raises(SolverDefect, match=message):
        main(["solve", "--validate", files("inst.txt", text)])
    assert "error:" not in capsys.readouterr().err


def test_readme_cli_block_matches_parser():
    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    synopsis = readme_synopsis()
    assert synopsis.keys() == commands.choices.keys()
    for name, sub in commands.choices.items():
        # Each option is named once in the README, by any of its spellings.
        spellings = [
            set(action.option_strings)
            for action in sub._actions
            if action.option_strings and action.dest != "help"
        ]
        listed = synopsis[name]
        assert listed <= set().union(*spellings), name
        for options in spellings:
            assert len(options & listed) == 1, (name, options)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["solve", "x", "--jsn"],
        ["verify", "x"],
        ["verify", "x", "--matching", "y", "--mode", "bogus"],
        ["generate", "--agents", "two"],
    ],
    ids=["no-instance", "unknown-option", "no-matching", "bad-mode", "bad-int"],
)
def test_usage_error_exit_one(capsys, argv):
    # A usage error is an input error, not solve's "none" (exit 2).
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: popmatch")
    assert ": error: " in captured.err


def test_help_exit_zero(capsys):
    assert main(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: popmatch")
    assert captured.err == ""


def test_one_parser_per_process_carries_no_state(files, capsys):
    # Each call gives what the same argv gives on a freshly built parser,
    # and the whole sequence builds the parser once.
    gap = files("gap.txt", SIZE_GAP_TEXT)
    show = files("show.txt", SHOWCASE_TEXT)
    stable = files("s4.txt", "a b\np q\npp qp\nx y\n")
    argvs = [
        ["solve", gap, "--json"],
        ["solve", gap],
        ["verify", show, "--matching", stable, "--mode", "popular"],
        ["verify", show, "--matching", stable],
        ["solve", gap, "--jsn"],
        ["edges", gap, "--kind", "popular"],
    ]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert [code for code, _ in fresh] == [0, 0, 0, 3, 1, 0]
    build_parser.cache_clear()
    reused = [run(argvs[0])]
    assert build_parser.cache_info().misses == 1
    reused += [run(argv) for argv in argvs[1:]]
    assert build_parser.cache_info().misses == 1
    assert reused == fresh


def test_generate_deterministic(capsys):
    args = ["generate", "--agents", "3", "--jobs", "3", "--density", "1.0", "--seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    inst = parse_instance(first)
    assert inst.m == 9  # density 1.0 keeps every pair


def test_generate_round_trip(tmp_path):
    text = generate(4, 4, 0.5, seed=1)
    inst = parse_instance(text)
    again = parse_instance(serialize_instance(inst))
    assert again == inst


def test_generate_rejects_bad_density():
    assert main(["generate", "--density", "0", "--seed", "1"]) == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--agents", "0"], "need at least one agent and one job"),
        (["--jobs", "0"], "need at least one agent and one job"),
        (["--density", "1e-20"], "density too low to give every agent a neighbor"),
        (["--density", "1e-310"], "density too low to give every agent a neighbor"),
        (["--density", "5e-324"], "density too low to give every agent a neighbor"),
    ],
)
def test_generate_error_exit_one(capsys, flags, message):
    assert main(["generate", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_generate_output_file_holds_stdout_bytes(tmp_path, capsys):
    args = ["generate", "--agents", "9", "--jobs", "7", "--seed", "3"]
    assert main(args) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "out.txt"
    assert main([*args, "-o", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == printed.encode()


def test_generate_output_in_missing_directory_exit_one(tmp_path, capsys):
    path = tmp_path / "missing" / "out.txt"
    assert main(["generate", "-o", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert not path.parent.exists()


@pytest.fixture(
    params=[
        ["solve"], ["verify", "--matching"], ["edges"],
        ["edges", "--dump-mirror"], ["oracle"],
    ],
    ids=["solve", "verify", "edges", "dump-mirror", "oracle"],
)
def reads_instance(request, files):
    """A command that reads an instance: its argv for an instance path.
    ``verify`` is given an empty matching file."""
    command, *options = request.param
    if command == "verify":
        options.append(files("matching.txt", ""))
    return lambda path: [command, path, *options]


def test_input_error_exit_one(files, capsys, reads_instance):
    for i, (text, message) in enumerate(PARSE_ERRORS):
        path = files(f"broken{i}.txt", text)
        assert main(reads_instance(path)) == 1, message
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


def test_missing_file_exit_one(capsys, reads_instance):
    path = "/nonexistent/instance.txt"
    with pytest.raises(OSError) as err:
        Path(path).read_text()
    assert main(reads_instance(path)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {err.value}\n"
    assert captured.out == ""


def test_directory_instance_exit_one(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_directory_matching_exit_one(files, tmp_path, capsys):
    path = files("gap.txt", SIZE_GAP_TEXT)
    assert main(["verify", path, "--matching", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def latin1_file(tmp_path, name: str, text: str) -> tuple[str, str]:
    """A file holding text in Latin-1, and the error that decoding it as
    UTF-8 raises."""
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(UnicodeDecodeError) as err:
        path.read_bytes().decode("utf-8")
    return str(path), str(err.value)


def test_non_utf8_instance_exit_one(tmp_path, capsys):
    path, error = latin1_file(tmp_path, "gap.txt", SIZE_GAP_TEXT.replace("a1", "\xe91"))
    assert main(["solve", path]) == 1
    captured = capsys.readouterr()
    assert error.startswith("'utf-8' codec can't decode byte 0xe9")
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""


def test_non_utf8_matching_exit_one(files, tmp_path, capsys):
    inst_path = files("gap.txt", SIZE_GAP_TEXT)
    mat_path, error = latin1_file(tmp_path, "bad.txt", "a0 b1\n# caf\xe9\n")
    assert main(["verify", inst_path, "--matching", mat_path]) == 1
    captured = capsys.readouterr()
    assert error.startswith("'utf-8' codec can't decode byte 0xe9")
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""

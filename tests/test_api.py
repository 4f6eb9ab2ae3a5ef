"""The package's public names, and the names its benchmark and README use."""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import popmatch
import popmatch.solver

ROOT = Path(__file__).resolve().parent.parent

EXPORTED = [
    "EdgeClassification",
    "Instance",
    "InstanceError",
    "Matching",
    "OracleCapError",
    "OracleReport",
    "PopularityVerdict",
    "SolveReport",
    "SolverDefect",
    "check_a_popular",
    "check_witness",
    "compute_posts",
    "format_matching",
    "generate",
    "ground_truth",
    "legal_edge_set",
    "parse_instance",
    "parse_matching",
    "run_election",
    "solve",
    "verify_popular",
]


def resolve(dotted: str):
    """``popmatch.<dotted>`` as an attribute chain, importing submodules."""
    obj, path = popmatch, "popmatch"
    for part in dotted.split("."):
        path += "." + part
        obj = getattr(obj, part, None) or importlib.import_module(path)
    return obj


def used_names() -> set[str]:
    """Every ``popmatch.<name>`` that ``perfbench/*.py`` and the README's
    library example reach, as dotted paths below ``popmatch``."""
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Library example", 1)[1]
    texts = [example.split("```python\n", 1)[1].split("```", 1)[0]]
    texts += [path.read_text() for path in sorted(ROOT.glob("perfbench/*.py"))]
    used = set()
    for text in texts:
        used.update(re.findall(r"\bpopmatch\.(\w+(?:\.\w+)*)", text))
        for module, names in re.findall(
            r"from popmatch(\.\w+)? import (\([^)]*\)|[^\n]+)", text
        ):
            for name in re.findall(r"\w+", re.sub(r"#.*", "", names)):
                used.add(f"{module[1:]}.{name}" if module else name)
    return used


def test_exports_are_the_documented_list():
    assert sorted(popmatch.__all__) == EXPORTED
    readme = (ROOT / "README.md").read_text()
    for name in EXPORTED:
        assert f"`{name}`" in readme, name


def test_names_used_by_perfbench_and_readme_resolve():
    used = used_names()
    assert {"solve", "ground_truth", "cli.main", "oracle.enumerate_matchings"} <= used
    for dotted in sorted(used):
        resolve(dotted)


# Each record's public attributes: the fields the program reads and the
# methods it calls, nothing kept only for tests.
PUBLIC = {
    "EdgeClassification": [
        "component_id", "legal_flags", "popular_flags", "valid_flags",
    ],
    "Instance": ["ids", "layout", "m", "n", "names", "num_agents", "num_jobs"],
    "Matching": ["pairs", "partner", "partner_ranks", "size"],
    "MirrorGraph": [
        "forbidden_flags", "inst", "is_twin", "left_tag", "legal_flags",
        "num_edges",
    ],
    "MirrorMatching": ["left_edge", "mirror", "right_edge", "uses_forbidden"],
}


def test_records_hold_only_what_the_program_reads():
    inst = popmatch.parse_instance("agents: a\njobs: b\na > b\nb > a\n")
    report, mh = popmatch.solver._solve(inst)
    records = {
        "EdgeClassification": popmatch.legal_edge_set(inst),
        "Instance": inst,
        "Matching": report.matching,
        "MirrorGraph": mh.mirror,
        "MirrorMatching": mh,
    }
    for name, record in records.items():
        public = [x for x in dir(record) if not x.startswith("_")]
        assert public == PUBLIC[name], name


def test_solver_defines_no_mutable_dataclass():
    for name, cls in inspect.getmembers(popmatch.solver, inspect.isclass):
        if cls.__module__ == popmatch.solver.__name__ and dataclasses.is_dataclass(cls):
            assert cls.__dataclass_params__.frozen, name

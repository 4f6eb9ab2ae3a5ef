"""Parsing, posts, votes, and elections."""

import json
import pickle
import random
import re
import time
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popmatch import (
    Instance,
    InstanceError,
    Matching,
    compute_posts,
    format_matching,
    parse_instance,
    parse_matching,
    run_election,
    solve,
)
from popmatch import instance as instance_module
from popmatch.generator import generate
from popmatch.legality import legal_edge_set
from popmatch.oracle import enumerate_matchings

from conftest import (
    MATCHING_ERRORS,
    PARSE_ERRORS,
    SHOWCASE_TEXT,
    composed_text,
    eager_views,
    ids,
    incoming_of,
    layout_reference,
    match_of,
    parse_matching_reference,
    parse_reference,
    random_instance,
    random_matching,
    random_text,
    ring_text,
    serialize_instance,
    showcase_full,
    size_gap_max,
    size_gap_stable,
    two_level_reference,
    vertex_lists,
)


class TestParsing:
    def test_size_gap_counts(self, size_gap):
        assert size_gap.n == 4
        assert size_gap.m == 3
        assert size_gap.num_agents == 2

    def test_minimal_instance(self):
        inst = parse_instance("agents: a\njobs: b\na > b\nb > a\n")
        assert (inst.n, inst.m) == (2, 1)

    def test_preference_order_preserved(self, size_gap):
        a1, b0, b1 = ids(size_gap, "a1", "b0", "b1")
        assert vertex_lists(size_gap)[a1] == (b1, b0)

    def test_asymmetric_adjacency_rejected(self):
        text = "agents: a\njobs: b c\na > b c\nb > a\nc >\n"
        with pytest.raises(InstanceError, match="mutual"):
            parse_instance(text)

    def test_duplicate_name_rejected(self):
        with pytest.raises(InstanceError, match="duplicate"):
            parse_instance("agents: a a\njobs: b\na > b\nb > a\n")

    def test_unknown_name_rejected(self):
        with pytest.raises(InstanceError, match="unknown"):
            parse_instance("agents: a\njobs: b\na > b z\nb > a\n")

    def test_empty_agent_list_rejected(self):
        with pytest.raises(InstanceError, match="empty"):
            parse_instance("agents: a\njobs: b\nb >\n")

    def test_same_side_listing_rejected(self):
        with pytest.raises(InstanceError, match="same-side"):
            parse_instance("agents: a c\njobs: b\na > b c\nb > a\nc > b\n")

    def test_duplicate_entry_rejected(self):
        with pytest.raises(InstanceError, match="more than once"):
            parse_instance("agents: a\njobs: b\na > b b\nb > a\n")

    def test_missing_headers_rejected(self):
        with pytest.raises(InstanceError, match="agents"):
            parse_instance("a > b\nb > a\n")

    def test_comments_and_blank_lines_ignored(self, size_gap):
        text = "# c\n\nagents: a0 a1\njobs: b0 b1\na0 > b1\na1 > b1 b0\nb0 > a1\nb1 > a1 a0\n"
        assert parse_instance(text) == size_gap

    def test_serialize_round_trip(self, size_gap, showcase):
        for inst in (size_gap, showcase):
            again = parse_instance(serialize_instance(inst))
            assert again.names == inst.names
            assert vertex_lists(again) == vertex_lists(inst)

    def test_jobs_only_instance_allowed(self):
        inst = parse_instance("agents:\njobs: b0 b1\n")
        assert inst.num_agents == 0
        assert inst.m == 0


MUTATIONS = (
    "drop",
    "repeat",
    "unknown",
    "same_side",
    "empty",
    "repeat_line",
    "dup_name",
    "malformed",
    "shuffle",
    "respace",
)

MALFORMED = (
    "junk",
    "a0 b0",
    "> b0",
    "  >",
    "agents: zz",
    "jobs: zz > a0",
    "jobs:",
    "zz > a0",
    "# a0 > b0",
    "",
    "\t",
)


def mutate(kind: str, lines: list[str], rng: random.Random) -> None:
    """Apply one mutation of ``kind`` to the lines of a ``generate`` text."""
    if kind == "shuffle":
        rng.shuffle(lines)
        return
    headers = [
        i for i, line in enumerate(lines) if line.startswith(("agents:", "jobs:"))
    ]
    if kind == "malformed":
        if headers and rng.random() < 0.1:
            del lines[rng.choice(headers)]
        else:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(MALFORMED))
        return
    names = [x for i in headers for x in lines[i].partition(":")[2].split()]
    if kind == "dup_name":
        if headers and names:
            lines[rng.choice(headers)] += " " + rng.choice(names)
        return
    rows = [
        i
        for i, line in enumerate(lines)
        if ">" in line and i not in headers and not line.startswith("#")
    ]
    if kind == "drop":
        rows = [i for i in rows if lines[i].lstrip().startswith("b")] or rows
    if not rows:
        return
    i = rng.choice(rows)
    head, _, tail = lines[i].partition(">")
    name, entries = head.strip(), tail.split()
    if kind == "repeat_line":
        lines.insert(rng.randrange(len(lines) + 1), lines[i])
        return
    spot = rng.randrange(len(entries) + 1)
    if kind == "empty":
        entries = []
    elif kind == "drop" and entries:
        del entries[rng.randrange(len(entries))]
    elif kind == "repeat" and entries:
        entries.insert(spot, rng.choice(entries))
    elif kind == "unknown":
        entries.insert(spot, "zz")
    elif kind == "same_side":
        same = [x for x in names if x[:1] == name[:1]]
        if same:
            entries.insert(spot, rng.choice(same))
    elif kind == "respace":
        pad = ("", " ", "\t", "  ")
        lines[i] = (
            rng.choice(pad) + name + rng.choice(pad) + ">" + rng.choice(pad)
            + rng.choice((" ", "\t ", "  ")).join(entries) + rng.choice(pad)
        )
        return
    lines[i] = f"{name} > " + " ".join(entries)


def mutated_text(seed: int) -> str:
    """A small ``generate`` instance with zero to two random mutations."""
    rng = random.Random(seed)
    lines = generate(
        1 + rng.randrange(5),
        1 + rng.randrange(5),
        rng.choice((0.3, 0.6, 1.0)),
        seed,
    ).splitlines()
    for _ in range(rng.randrange(3)):
        mutate(rng.choice(MUTATIONS), lines, rng)
    return "\n".join(lines) + "\n"


def error_kind(message: str) -> str:
    """A parse error's message with its line number and names blanked."""
    message = re.sub(r"line \d+", "line N", message)
    return re.sub(r"'[^']*'|\([^)]*\)", "X", message)


def shuffled(text: str, rng: random.Random) -> str:
    """The same instance with its declarations and list lines shuffled."""
    lines = text.splitlines()
    head, rows = lines[:2], lines[2:]
    for k, prefix in enumerate(("agents:", "jobs:")):
        names = head[k][len(prefix):].split()
        rng.shuffle(names)
        head[k] = prefix + " " + " ".join(names)
    rng.shuffle(rows)
    return "\n".join(head + rows) + "\n"


class TestParseErrors:
    @pytest.mark.parametrize("text, message", PARSE_ERRORS)
    def test_message_verbatim(self, text, message):
        with pytest.raises(InstanceError) as err:
            parse_instance(text)
        assert str(err.value) == message

    def test_reference_agrees_on_table(self):
        for text, message in PARSE_ERRORS:
            with pytest.raises(InstanceError) as err:
                parse_reference(text)
            assert str(err.value) == message

    def test_duplicate_name_is_linear(self):
        # The repeated name is the last agent's, so a scan that counts
        # each name's occurrences separately is quadratic here.
        side = 25_000
        agents = [f"a{i}" for i in range(side)]
        jobs = [f"b{j}" for j in range(side - 1)] + [agents[-1]]
        text = "agents: " + " ".join(agents) + "\njobs: " + " ".join(jobs) + "\n"
        start = time.perf_counter()
        with pytest.raises(InstanceError) as err:
            parse_instance(text)
        assert time.perf_counter() - start < 5.0
        assert str(err.value) == f"duplicate vertex name {agents[-1]!r}"

    def test_bulk_validation_matches_per_name_rules(self):
        outcomes = Counter()
        for seed in range(1500):
            text = mutated_text(seed)
            try:
                want = parse_reference(text)
            except InstanceError as err:
                with pytest.raises(InstanceError) as got:
                    parse_instance(text)
                assert str(got.value) == str(err), text
                outcomes[error_kind(str(err))] += 1
                continue
            inst = parse_instance(text)
            lists = vertex_lists(inst)
            assert (inst.names, inst.num_agents, lists) == want, text
            assert inst.layout == layout_reference(inst), text
            assert (lists, incoming_of(inst.layout)) == eager_views(text), text
            outcomes["valid"] += 1
        # Both outcomes are common, and every message of the table occurs.
        assert outcomes["valid"] >= 300
        assert sum(outcomes.values()) - outcomes["valid"] >= 300
        assert len(outcomes) == 14, outcomes

    def test_valid_input_never_scans(self, monkeypatch):
        def scan(*args):
            raise AssertionError("a scan for an error message ran on valid input")

        monkeypatch.setattr(instance_module, "_raise_list_error", scan)
        monkeypatch.setattr(instance_module, "_raise_line_error", scan)
        for seed in range(200):
            random_instance(seed, max_side=6)
        parse_instance(SHOWCASE_TEXT)
        lines = SHOWCASE_TEXT.splitlines()
        texts = [
            "# lists\n\n  \n" + "\n# note > x\n\t\n".join(lines) + "\n\n",
            "\r\n".join(lines) + "\r\n",
            "\x85".join(lines),
            "\n".join(lines[3:] + lines[:3]),
            "agents: a\njobs: b\na> b\nb >a\n",
            "agents: a\njobs: b\na>b\n  b  >  a  \n",
            # A job named '>': the jobs line is a header, not a list.
            "agents: a\njobs: b >\na > b\nb > a\n",
        ]
        for text in texts:
            inst = parse_instance(text)
            got = (inst.names, inst.num_agents, vertex_lists(inst))
            assert got == parse_reference(text), text
        assert inst.names == ("a", "b", ">")

    def test_build_ignores_lists_of_undeclared_names(self):
        lists = {"a": ["b"], "b": ["a"]}
        want = Instance.build(["a"], ["b"], lists)
        assert Instance.build(["a"], ["b"], {"zz": ["qq", "a"], **lists}) == want

    def test_scan_that_finds_nothing_is_a_defect(self):
        with pytest.raises(AssertionError, match="bulk validation"):
            instance_module._raise_list_error(
                ["a", "b"], 1, {"a": ["b"], "b": ["a"]}
            )

    def test_line_scan_that_finds_nothing_is_a_defect(self):
        lines = ["agents: a", "# note", "", "jobs: b", "a > b", "b > a"]
        with pytest.raises(AssertionError, match="one-pass parse"):
            instance_module._raise_line_error(lines)


def layout_cases(showcase):
    yield showcase
    for seed in range(100):
        rng = random.Random(seed)
        yield parse_instance(
            generate(
                1 + rng.randrange(30),
                1 + rng.randrange(30),
                rng.choice((0.1, 0.3, 1.0)),
                seed,
            )
        )
    for n in (2, 3, 17, 50):
        yield parse_instance(ring_text(n))
        yield parse_instance(shuffled(ring_text(n), random.Random(n)))
    for blocks in (1, 4, 30):
        yield parse_instance(shuffled(composed_text(blocks), random.Random(blocks)))
    yield parse_instance("agents:\njobs: b0 b1\n")
    for seed in range(20):
        yield two_level_reference(random_instance(seed, max_side=6))[0]
    yield two_level_reference(showcase)[0]


class TestLayout:
    def test_layout_equals_reference(self, showcase):
        for inst in layout_cases(showcase):
            want = layout_reference(inst)
            got = inst.layout
            for field in (
                "starts", "agent_of", "job_of", "agent_rank", "job_rank",
                "job_starts", "job_edges",
            ):
                assert np.array_equal(getattr(got, field), getattr(want, field))
            assert got == want and hash(got) == hash(want)
            assert incoming_of(got) == incoming_of(want)
            assert inst.m == len(want.agent_of)

    def test_stored_quantities_are_read_only_owned_arrays(self, showcase):
        # Every per-edge and per-vertex quantity of the layout, the posts,
        # the classification and a matching is stored once, as a read-only
        # array that owns its data, so none keeps a parse buffer alive.
        found = 0
        for inst in layout_cases(showcase):
            lay, posts = inst.layout, compute_posts(inst)
            cls = legal_edge_set(inst, posts)
            held = {f.name: getattr(lay, f.name) for f in fields(lay)}
            held.update(f=posts.f, s=posts.s, component_id=cls.component_id)
            flags = ("valid_flags", "popular_flags", "legal_flags")
            held.update((name, getattr(cls, name)) for name in flags)
            mat = solve(inst).matching
            if mat is not None:
                found += 1
                parsed = parse_matching(format_matching(inst, mat), inst)
                held.update(solved=mat.partner, parsed=parsed.partner)
            assert len(held) == (13 if mat is None else 15)
            for name, array in held.items():
                assert isinstance(array, np.ndarray), name
                assert array.flags.owndata and not array.flags.writeable, name
                if name in flags:
                    assert array.dtype == bool, name
                    assert array.shape == (inst.m + inst.n,), name
                else:
                    assert array.dtype == np.intp, name
        assert found >= 50

    def test_shuffled_declarations_keep_lists(self):
        text = composed_text(5)
        inst = parse_instance(text)
        again = parse_instance(shuffled(text, random.Random(3)))
        named = lambda x: {
            x.names[u]: [x.names[v] for v in row]
            for u, row in enumerate(vertex_lists(x))
        }
        assert named(again) == named(inst)


def view_texts():
    """Valid texts whose ids and job list orders vary, for the derived views."""
    for seed in range(400):
        yield random_text(seed, max_side=6)
    for seed in range(0, 600, 7):
        rng = random.Random(seed)
        yield generate(
            1 + rng.randrange(30),
            1 + rng.randrange(30),
            rng.choice((0.1, 0.3, 1.0)),
            seed,
        )
    for blocks in (1, 2, 7, 30):
        yield composed_text(blocks, seed=blocks)
    for n in (2, 3, 17, 50):
        yield shuffled(ring_text(n), random.Random(n))
    # Jobs without a list line, first, in the middle and last; no agents.
    yield (
        "agents: a0 a1\njobs: c0 b0 c1 b1 c2\n"
        "a0 > b1 b0\na1 > b1\nb0 > a0\nb1 > a1 a0\n"
    )
    yield "agents:\njobs: b0 b1\n"


class TestDerivedViews:
    """The per-vertex lists and each job's ``incoming`` edge run, read off
    the flat layout, equal the eager reference."""

    def test_equal_eager_reference(self):
        for text in view_texts():
            inst = parse_instance(text)
            pref, incoming = eager_views(text)
            assert incoming_of(inst.layout) == incoming, text
            assert vertex_lists(inst) == pref, text
            assert inst.layout == layout_reference(inst), text

    def test_equality_hash_and_pickle_read_fields_only(self):
        text = composed_text(6, seed=1)
        head, rows = text.splitlines()[:2], text.splitlines()[2:]
        random.Random(2).shuffle(rows)
        same_ids = "\n".join(head + rows) + "\n"
        inst, again = parse_instance(text), parse_instance(same_ids)
        assert inst == again and hash(inst) == hash(again)
        for x in (inst, again):
            back = pickle.loads(pickle.dumps(x))
            assert back == inst and hash(back) == hash(inst)
            assert vars(back) == vars(x) and back.ids == inst.ids
            assert incoming_of(back.layout) == incoming_of(inst.layout)
        # The name-to-id dict that parsing keeps is read by neither.
        assert inst.ids == {name: u for u, name in enumerate(inst.names)}
        stripped = replace(inst, ids={})
        assert stripped == inst and hash(stripped) == hash(inst)
        assert repr(stripped) == repr(inst) and "ids" not in repr(inst)
        relabelled = parse_instance(shuffled(text, random.Random(5)))
        assert relabelled != inst
        # Only job b0_3's order differs, so only the job side tells them apart.
        swapped = parse_instance(
            text.replace("b0_3 > a2_3 a0_3", "b0_3 > a0_3 a2_3")
        )
        na = inst.num_agents
        assert swapped != inst
        assert vertex_lists(swapped)[:na] == vertex_lists(inst)[:na]


MATCHING_MUTATIONS = (
    "unknown",
    "tokens",
    "job_first",
    "non_edge",
    "twice",
    "filler",
)
FILLERS = ("", " ", "\t", "\xa0", "# pairs", "  # a0 b0", "#a0 b1", "#")
BREAKS = ("\n", "\r\n", "\x0c", "\x85")


def mutate_matching(kind: str, lines: list[str], inst, rng: random.Random) -> None:
    """Apply one mutation of ``kind`` to the lines of a matching file."""
    names = inst.names
    spot = rng.randrange(len(lines) + 1)
    if kind == "filler" or not lines:
        lines.insert(spot, rng.choice(FILLERS))
        return
    if kind == "non_edge":
        lists, na = vertex_lists(inst), inst.num_agents
        missing = [
            (a, b) for a in range(na) for b in range(na, inst.n)
            if b not in lists[a]
        ]
        if missing:
            a, b = rng.choice(missing)
            lines.insert(spot, f"{names[a]} {names[b]}")
        return
    i = rng.randrange(len(lines))
    parts = lines[i].split() or [rng.choice(names)]
    if kind == "twice":
        # The same line again, or its first name with another neighbor.
        u = names.index(parts[0]) if parts[0] in names else 0
        row = vertex_lists(inst)[u]
        other = rng.choice(row) if row else u
        again = rng.choice((lines[i], f"{parts[0]} {names[other]}"))
        lines.insert(spot, again)
        return
    if kind == "unknown":
        parts[rng.randrange(len(parts))] = "zz"
    elif kind == "tokens":
        parts = parts[:1] if rng.random() < 0.5 else parts + [rng.choice(names)]
    elif kind == "job_first":
        parts.reverse()
    lines[i] = " ".join(parts)


def mutated_matching_text(seed: int):
    """A small instance and a matching file for it with zero to three
    random mutations, its lines padded and ended by mixed line breaks."""
    rng = random.Random(seed)
    inst = random_instance(seed, max_side=5)
    names = inst.names
    pairs = random_matching(rng, inst).pairs(inst)
    lines = [f"{names[a]} {names[b]}" for a, b in pairs]
    rng.shuffle(lines)
    for _ in range(rng.randrange(4)):
        mutate_matching(rng.choice(MATCHING_MUTATIONS), lines, inst, rng)
    pad = ("", " ", "\t")
    text = "".join(
        rng.choice(pad) + rng.choice((" ", "\t", "  ")).join(line.split())
        + rng.choice(pad) + rng.choice(BREAKS)
        if line.strip()
        else line + rng.choice(BREAKS)
        for line in lines
    )
    return inst, text


class TestMatchingIO:
    def test_round_trip(self, size_gap):
        mat = size_gap_max(size_gap)
        again = parse_matching(format_matching(size_gap, mat), size_gap)
        assert again == mat

    def test_omitted_vertices_self_matched(self, size_gap):
        mat = parse_matching("a1 b1\n", size_gap)
        a0, b0 = ids(size_gap, "a0", "b0")
        assert mat.is_self(a0) and mat.is_self(b0)

    def test_non_edge_rejected(self, size_gap):
        with pytest.raises(InstanceError, match="not an edge"):
            parse_matching("a0 b0\n", size_gap)

    def test_double_match_rejected(self, size_gap):
        with pytest.raises(InstanceError, match="twice"):
            parse_matching("a0 b1\na1 b1\n", size_gap)

    def test_whole_array_parse_equals_line_by_line(self):
        outcomes = Counter()
        for seed in range(1000):
            inst, text = mutated_matching_text(seed)
            try:
                want = parse_matching_reference(text, inst)
            except InstanceError as err:
                with pytest.raises(InstanceError) as got:
                    parse_matching(text, inst)
                assert str(got.value) == str(err), text
                outcomes[error_kind(str(err))] += 1
                continue
            assert parse_matching(text, inst) == want, text
            outcomes["valid"] += 1
        # Both outcomes are common, and every message of the command-line
        # table occurs.
        assert outcomes["valid"] >= 300, outcomes
        assert sum(outcomes.values()) - outcomes["valid"] >= 300, outcomes
        kinds = {error_kind(message) for _, message in MATCHING_ERRORS.values()}
        assert len(kinds) == 5 and kinds <= outcomes.keys(), outcomes

    def test_valid_input_never_scans(self, monkeypatch, showcase):
        def scan(*args):
            raise AssertionError("a pair-by-pair scan ran on valid input")

        # Both scans for an error message test a valid pair here.
        monkeypatch.setattr(instance_module, "_pair_error", scan)
        rng = random.Random(7)
        for seed in range(200):
            inst = random_instance(seed, max_side=6)
            mat = random_matching(rng, inst)
            assert parse_matching(format_matching(inst, mat), inst) == mat
            assert Matching.from_pairs(inst, mat.pairs(inst)) == mat
        parse_matching(format_matching(showcase, showcase_full(showcase)), showcase)

    def test_from_pairs_names_ids_out_of_range(self):
        # Two vertices: 5 is past the last id, and -1 must not wrap to b0.
        inst = parse_instance("agents: a0\njobs: b0\na0 > b0\nb0 > a0\n")
        for pair in ((0, 5), (-1, 1)):
            with pytest.raises(InstanceError) as err:
                Matching.from_pairs(inst, [pair])
            assert str(err.value) == f"{pair} names a vertex id outside 0..1"

    def test_from_pairs_takes_any_iterable(self, showcase):
        pairs = showcase_full(showcase).pairs(showcase)
        want = Matching.from_pairs(showcase, pairs)
        agents, jobs = zip(*pairs)
        for given in (
            iter(pairs),
            zip(agents, jobs),
            zip(jobs, agents),  # either end may come first
            (pair for pair in pairs),
        ):
            assert Matching.from_pairs(showcase, given) == want
        alone = Matching(range(showcase.n))
        assert Matching.from_pairs(showcase, []) == alone
        assert Matching.from_pairs(showcase, iter(())) == alone

    def test_one_array_form(self, showcase):
        # Every way in yields the same read-only array, equal and hashed
        # alike, and every way out yields Python ints.
        pairs = showcase_full(showcase).pairs(showcase)
        partner = list(range(showcase.n))
        for a, b in pairs:
            partner[a], partner[b] = b, a
        names = showcase.names
        text = "".join(f"{names[a]} {names[b]}\n" for a, b in pairs)
        mats = [
            Matching(tuple(partner)),
            Matching(partner),
            Matching.from_pairs(showcase, pairs),
            parse_matching(text, showcase),
        ]
        partner[pairs[0][0]] = pairs[0][0]  # the matchings keep copies
        for mat in mats:
            assert mat == mats[0] and hash(mat) == hash(mats[0])
            assert mat.partner.dtype == np.intp
            assert not mat.partner.flags.writeable
            got = mat.pairs(showcase)
            assert got == pairs and len(got) == 5
            assert all(type(x) is int for pair in got for x in pair)
            assert type(mat.size(showcase)) is int and mat.size(showcase) == 5
            assert type(mat.is_self(0)) is bool
            assert json.loads(json.dumps(got)) == [list(pair) for pair in got]
            assert format_matching(showcase, mat) == text
        assert Matching(partner) != mats[0]

    def test_involution(self, size_gap):
        mat = size_gap_max(size_gap)
        assert all(
            mat.partner[mat.partner[u]] == u for u in range(size_gap.n)
        )


class TestPosts:
    def test_size_gap_posts(self, size_gap):
        posts = compute_posts(size_gap)
        a0, a1, b0, b1 = ids(size_gap, "a0", "a1", "b0", "b1")
        assert posts.f.tolist() == [b1, b1]
        assert posts.s[a0] == a0  # every neighbor of a0 is someone's top choice
        assert posts.s[a1] == b0

    def test_showcase_posts(self, showcase):
        posts = compute_posts(showcase)
        name = showcase.names
        agents = range(showcase.num_agents)
        f = {name[a]: name[posts.f[a]] for a in agents}
        s = {name[a]: name[posts.s[a]] for a in agents}
        assert f == {"a": "b", "ap": "b", "p": "q", "pp": "q", "x": "y", "xp": "y"}
        assert s == {
            "a": "qp",
            "ap": "ap",
            "p": "qp",
            "pp": "qp",
            "x": "yp",
            "xp": "qp",
        }

    def test_single_neighbor_agent(self):
        inst = parse_instance("agents: a\njobs: b\na > b\nb > a\n")
        posts = compute_posts(inst)
        assert posts.s.tolist() == [0]  # the lone neighbor is a's own top choice

    def test_posts_equal_reference(self, showcase):
        # f(a) heads a's list; s(a) is the first job on it that is nobody's
        # top choice, or a itself.
        for inst in layout_cases(showcase):
            posts = compute_posts(inst)
            lists = vertex_lists(inst)[:inst.num_agents]
            f = [row[0] for row in lists]
            tops = set(f)
            s = [
                next((b for b in row if b not in tops), a)
                for a, row in enumerate(lists)
            ]
            assert posts.f.tolist() == f and posts.s.tolist() == s

    def test_f_always_a_job(self):
        for seed in range(40):
            inst = random_instance(seed)
            posts = compute_posts(inst)
            assert all(b >= inst.num_agents for b in posts.f.tolist())
            again = compute_posts(inst)  # deterministic
            assert np.array_equal(again.f, posts.f)
            assert np.array_equal(again.s, posts.s)


class TestElections:
    def test_size_gap_head_to_head(self, size_gap):
        result = run_election(
            size_gap, size_gap_max(size_gap), size_gap_stable(size_gap)
        )
        assert result == (2, 2, 1, 1)

    def test_self_election_all_abstain(self, size_gap):
        mat = size_gap_max(size_gap)
        assert run_election(size_gap, mat, mat) == (0, 0, 0, 0)

    def test_identical_prefs_agent_votes(self, identical_prefs):
        m0 = match_of(
            identical_prefs, ("a1", "b1"), ("a2", "b2"), ("a3", "b3")
        )
        m1 = match_of(
            identical_prefs, ("a1", "b3"), ("a2", "b1"), ("a3", "b2")
        )
        _, _, phi_a_m1, phi_a_m0 = run_election(identical_prefs, m1, m0)
        assert (phi_a_m1, phi_a_m0) == (2, 1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), pick=st.integers(0, 10_000))
    def test_antisymmetry(self, seed, pick):
        inst = random_instance(seed, max_side=3)
        mats = list(enumerate_matchings(inst))
        first = mats[pick % len(mats)]
        second = mats[(pick * 7 + 1) % len(mats)]
        f1, s1, fa1, sa1 = run_election(inst, first, second)
        f2, s2, fa2, sa2 = run_election(inst, second, first)
        assert (f1, s1, fa1, sa1) == (s2, f2, sa2, fa2)

    def test_equals_per_vertex_ballots(self):
        # The whole-array count against the definition read vertex by
        # vertex, on enumerated matchings of small instances and on random
        # matchings of instances past the oracle's caps.
        rng = random.Random(5)
        cases = [
            (inst, list(enumerate_matchings(inst)))
            for inst in map(random_instance, range(100))
        ]
        for seed in range(5):
            inst = parse_instance(generate(80, 60, 4 / 60, seed))
            cases.append((inst, [random_matching(rng, inst) for _ in range(6)]))
        for inst, mats in cases:
            lists = vertex_lists(inst)
            for _ in range(20):
                first, second = rng.choice(mats), rng.choice(mats)
                want = [0, 0, 0, 0]
                pairs = zip(first.partner.tolist(), second.partner.tolist())
                for u, (p, q) in enumerate(pairs):
                    if p != q:
                        row = lists[u] + (u,)  # alone ranks last
                        vote = 0 if row.index(p) < row.index(q) else 1
                        want[vote] += 1
                        want[2 + vote] += u < inst.num_agents
                assert run_election(inst, first, second) == tuple(want)

    def test_each_vertex_votes_at_most_once(self, size_gap):
        mats = list(enumerate_matchings(size_gap))
        for first in mats:
            for second in mats:
                phi_f, phi_s, _, _ = run_election(size_gap, first, second)
                changed = sum(
                    1
                    for u in range(size_gap.n)
                    if first.partner[u] != second.partner[u]
                )
                assert phi_f + phi_s == changed

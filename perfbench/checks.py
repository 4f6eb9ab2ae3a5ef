"""Answer digests and the independent checks that decide whether an operation failed."""

from __future__ import annotations

import hashlib
import json

import popmatch

from workloads import Item, read_prefs


def _sha(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def digest(workload: str, result) -> str:
    """Outcome, size and hashes of the matching and the witness (or the CLI output)."""
    if workload == "verify":
        code, out = result
        return f"exit={code} out={_sha(out)}"
    inst, report = result
    if report.outcome != "found":
        return f"{report.outcome}"
    matching = popmatch.format_matching(inst, report.matching)
    return (
        f"{report.outcome} size={report.size} matching={_sha(matching)} "
        f"witness={_sha(repr(tuple(report.witness)))}"
    )


def no_agent_complete_matching(text: str) -> bool:
    """True when no agent-popular matching can exist (Abraham et al.).

    A matching is agent-popular only if every agent holds its top post f(a)
    or its fallback post s(a), the first job on its list that is nobody's
    top choice; an agent whose jobs are all top choices may stay alone.  So
    if the agents with a real fallback cannot all be matched into their two
    posts, no agent-popular and hence no fully popular matching exists.
    Decided by augmenting paths over at most two edges per agent.
    """
    agents, prefs = read_prefs(text)
    top = {a: prefs[a][0] for a in agents}
    tops = set(top.values())
    options = {}
    for a in agents:
        fallback = next((b for b in prefs[a] if b not in tops), None)
        if fallback is not None:
            options[a] = (top[a], fallback)
    holder: dict[str, str] = {}
    for root in options:
        if not _augment(root, options, holder):
            return True
    return False


def _augment(root: str, options, holder: dict[str, str]) -> bool:
    """Match ``root`` by one augmenting path, iteratively (paths can be long)."""
    seen = set()
    path: list[tuple[str, str]] = []  # (agent, post it tries)
    stack = [(root, iter(options[root]))]
    while stack:
        agent, posts = stack[-1]
        post = next(posts, None)
        if post is None:
            stack.pop()
            if path:
                path.pop()
            continue
        if post in seen:
            continue
        seen.add(post)
        path.append((agent, post))
        owner = holder.get(post)
        if owner is None:
            for a, p in path:
                holder[p] = a
            return True
        stack.append((owner, iter(options[owner])))
    return False


def check(workload: str, item: Item, result) -> str:
    """``"ok"``, ``"unchecked"`` (a none no certificate covers) or a failure reason."""
    if workload == "verify":
        code, out = result
        if code != item.expect:
            return f"exit code {code}, expected {item.expect}"
        if json.loads(out).get("ok") != (item.expect == 0):
            return "JSON ok disagrees with how the matching file was built"
        return "ok"
    inst, report = result
    if report.outcome == "found":
        if not popmatch.check_witness(inst, report.matching, report.witness):
            return "witness fails check_witness"
        posts = popmatch.compute_posts(inst)
        if not popmatch.check_a_popular(inst, posts, report.matching):
            return "matching fails check_a_popular"
        if report.matching.size(inst) != report.size:
            return "reported size differs from the matching"
    if item.expect == "none":
        if no_agent_complete_matching(item.text):
            return "ok" if report.outcome == "none" else "found, but certified none"
        return "unchecked"
    if report.outcome != item.expect:
        return f"outcome {report.outcome}, expected {item.expect}"
    if report.size != item.size:
        return f"size {report.size}, expected {item.size}"
    return "ok"

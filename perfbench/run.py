"""popmatch benchmark: one workload, closed loop, every answer checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload random|blocks|ring|verify \
        --seed N --seconds S --trace 0|1

One caller in one process sends the next operation only when the previous
one has returned.  Set-up (inputs and expected answers) is timed several
times, spread across the run, and reported as its median.  Each operation
is timed alone, bracketed by two timings of a fixed reference kernel;
checks, digests and ``gc.collect()`` run between operations, outside the
timed region.  With ``--trace 0`` the last line carries the end-to-end
metrics; with ``--trace 1`` the run spends half its time untraced and half
traced, checks the traced answers against the untraced digests, and reports
per-layer metrics.  Human readable lines come first, the JSON result last.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 9

# Every reported time is at nominal machine speed: the measured wall time
# divided by the time of reference_kernel() measured right before and after
# the same work, times REF_NOMINAL_S.  The host's CPU speed swings by a third
# or more within seconds and drifts between runs (a fixed pure-Python loop
# shows it too); the ratio cancels that, so runs made at different times
# compare.  The raw wall times are printed in the human readable lines.
REF_NOMINAL_S = 0.01

END_TO_END = (
    ("edges_per_s", "edges/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def reference_kernel() -> int:
    """Fixed pure-Python work (lists, dicts, tuples, a sort), about 10 ms.

    It touches no popmatch code, so no change to the program can move it.
    """
    values = [(i * 7919) % 20011 for i in range(20000)]
    table = {}
    for i, v in enumerate(values):
        table[i] = (v, i & 7)
    values.sort()
    total = 0
    for key, (v, low) in table.items():
        if low:
            total += key ^ v
    return total + values[len(values) // 2]


def time_reference() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def timed_build(workload, seed, workdir, tracer=None):
    """Build a workload's inputs once; return them, the wall seconds and the refs."""
    from workloads import build_items

    gc.collect()
    before = time_reference()
    if tracer is not None:
        tracer.op = "setup"
    start = time.perf_counter()
    items = build_items(workload, seed, workdir)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.op = None
    ref = (before + time_reference()) / 2
    return items, elapsed, elapsed / ref


class Loop:
    """Closed-loop runner: times operations, checks and digests their answers."""

    def __init__(self, workload, items, reference=None):
        self.workload = workload
        self.items = items
        # Digest of each pool item's first checked answer; repeats must match.
        self.reference = {} if reference is None else reference
        self.times: list[float] = []  # wall seconds
        self.costs: list[float] = []  # the same in reference kernel runs
        self.edges = 0
        self.failed = 0
        self.unchecked = 0
        self.reasons: dict[str, int] = {}

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def run(self, seconds, tracer=None, first_op=0, between=None, times=0):
        """Run operations for ``seconds``; call ``between`` ``times`` times, evenly spaced.

        ``between`` runs outside the timed region, between two operations.
        """
        from checks import check, digest
        from workloads import run_op

        begin = time.perf_counter()
        deadline = begin + seconds
        due = [begin + (i + 1) * seconds / (times + 1) for i in range(times)]
        k = first_op
        while time.perf_counter() < deadline:
            if due and time.perf_counter() >= due[0]:
                due.pop(0)
                between()
            index = k % len(self.items)
            item = self.items[index]
            gc.collect()
            before = time_reference()
            if tracer is not None:
                tracer.op = k
            start = time.perf_counter()
            try:
                result = run_op(self.workload, item)
            except Exception:
                result = None
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.op = None
            ref = (before + time_reference()) / 2
            self.times.append(elapsed)
            self.costs.append(elapsed / ref)
            self.edges += item.edges
            k += 1
            if result is None:
                self.fail("raised")
                continue
            self.after(index, item, result, check, digest)
        for _ in due:
            between()
        return k

    def after(self, index, item, result, check, digest):
        try:
            got = digest(self.workload, result)
            if index in self.reference:
                if got != self.reference[index]:
                    self.fail("digest differs from an earlier answer to the same input")
                return
            verdict = check(self.workload, item, result)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail("check raised")
            return
        self.reference[index] = got
        if verdict == "unchecked":
            self.unchecked += 1
        elif verdict != "ok":
            self.fail(verdict)

    def absorb(self, other: "Loop") -> None:
        """Count another half-run's operations and failures as this one's."""
        self.times += other.times
        self.costs += other.costs
        self.edges += other.edges
        self.failed += other.failed
        self.unchecked += other.unchecked
        for reason, count in other.reasons.items():
            self.reasons[reason] = self.reasons.get(reason, 0) + count


def tail(values):
    """The highest percentile with at least ten samples beyond it, and its rank.

    Below twenty samples that percentile would lie under the median, so the
    median stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def pool_digest(reference) -> str:
    joined = "\n".join(f"{i} {reference[i]}" for i in sorted(reference))
    return hashlib.blake2b(joined.encode(), digest_size=8).hexdigest()


def report(loop):
    n = len(loop.times)
    print(f"operations {n} failed {loop.failed} unchecked {loop.unchecked} "
          f"failed_frac {loop.failed / max(n, 1):.4f}")
    for reason, count in sorted(loop.reasons.items()):
        print(f"  failure x{count}: {reason}")
    if loop.unchecked:
        print(f"  {loop.unchecked} none answers had no independent certificate")
    print(f"answer digest {pool_digest(loop.reference)} "
          f"over {len(loop.reference)} inputs")


def run_untraced(args, workdir):
    from workloads import run_op

    items, *first = timed_build(args.workload, args.seed, workdir)
    setups = [first]
    loop = Loop(args.workload, items)

    def rebuild():
        # Set-up is repeated across the run so its median spans the run.
        again, *timing = timed_build(args.workload, args.seed, workdir)
        setups.append(timing)
        if again != items:
            loop.fail("set-up built different inputs from the same seed")

    run_op(args.workload, items[0])  # warm-up, untimed and unrecorded
    loop.run(args.seconds, between=rebuild, times=SETUP_REPEATS - 1)
    report(loop)
    n = len(loop.times)
    tail_cost, pct = tail(loop.costs)
    tail_s, _ = tail(loop.times)
    setup_wall = [wall for wall, _ in setups]
    metrics = {
        "edges_per_s": loop.edges / (sum(loop.costs) * REF_NOMINAL_S),
        "op_p50_s": statistics.median(loop.costs) * REF_NOMINAL_S,
        "op_tail_s": tail_cost * REF_NOMINAL_S,
        "setup_s": statistics.median(cost for _, cost in setups) * REF_NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = dict(END_TO_END)
    notes = {
        "op_p50_s": f"n={n}",
        "op_tail_s": f"p{pct:.1f}, n={n}",
        "setup_s": f"median of {len(setups)}",
    }
    print(f"times at nominal speed ({REF_NOMINAL_S * 1000:g} ms per reference kernel run):")
    for name, unit in END_TO_END:
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} {metrics[name]:.6g} {unit}{note}")
    ref_s = statistics.median(t / c for t, c in zip(loop.times, loop.costs))
    print(f"raw wall times (reference kernel run {ref_s * 1000:.3g} ms): "
          f"edges_per_s {loop.edges / sum(loop.times):.6g} edges/s, "
          f"op_p50_s {statistics.median(loop.times):.6g} s, "
          f"op_tail_s {tail_s:.6g} s, setup_s {statistics.median(setup_wall):.6g} s "
          f"(min {min(setup_wall):.4g}, max {max(setup_wall):.4g})")
    return loop, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def run_traced(args, workdir):
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    from workloads import run_op

    items, *_ = timed_build(args.workload, args.seed, workdir)
    loop = Loop(args.workload, items)
    run_op(args.workload, items[0])
    next_op = loop.run(args.seconds / 2)

    tracer = Tracer()
    tracer.install()
    try:
        items, *_ = timed_build(args.workload, args.seed, workdir, tracer)
        # The traced half is checked against the untraced half's digests.
        traced = Loop(args.workload, items, reference=loop.reference)
        traced.run(args.seconds / 2, tracer, first_op=next_op)
    finally:
        tracer.uninstall()
    traced_ops = range(next_op, next_op + len(traced.times))
    layer = layer_metrics(tracer.spans, traced_ops, ["setup"])
    layer["trace.op_s"] = statistics.mean(traced.times)
    layer["trace.overhead_frac"] = (
        statistics.median(traced.costs) / statistics.median(loop.costs) - 1
    )
    if args.workload == "verify":
        built = sum(items[k % len(items)].defeated for k in traced_ops)
        if round(layer["popularity.defeated"] * len(traced_ops)) != built:
            traced.fail("verify_popular defeats differ from the files built to lose")
    loop.absorb(traced)

    report(loop)
    for name in tracer.absent:
        print(f"absent (its metrics read 0): {name}")
    op_s = layer["trace.op_s"]
    for name, unit, _ in LAYER_METRICS:
        share = ""
        if unit == "s" and not name.startswith(("generator.", "oracle.")):
            share = f" ({100 * layer[name] / op_s:.1f}% of the traced operation)"
        print(f"{name} {layer[name]:.6g} {unit}{share}")
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    return loop, {k: {"value": layer[k], "unit": units[k]} for k, _, _ in LAYER_METRICS}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} (closed loop, 1 caller, 1 process)")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            loop, metrics = run_traced(args, workdir)
        else:
            loop, metrics = run_untraced(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": len(loop.times),
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    if not (SRC / "popmatch" / "__init__.py").is_file():
        print(f"error: no popmatch sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end join benchmark for the RJoin engine on the ``sim`` runtime.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload answer-heavy --seed 1 --seconds 24 --trace 0

One single-threaded caller drives a real :class:`RJoinEngine` in a closed
loop: it submits the workload's standing queries, publishes the tuple
stream, and checks every query's answer bag against the reference oracle.
A run pools the workload's instances (seeds derived from ``--seed``); a
*pass* runs each instance once on a fresh engine, and passes repeat while
another fits in ``--seconds``.  Every pass must repeat the first one's
answer digest, traffic, kernel events and logical answer delays exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` profiles the
first instance: untraced passes for half the time, then passes under the
outside-in wrappers of :mod:`layers`; it prints the per-layer metrics, a
layer table, and writes the spans of the first traced publish calls as Span
JSONL under ``e2ebench/out``.  The last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the oracle's answers over the checked passes and
``failed`` the ones the engine never delivered (the answer miss ratio is
``failed / attempted``).  An answer the oracle does not have aborts the run
with exit code 1 and no result line; see README.md for the design.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from collections import Counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from workloads import Inputs, RepResult, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
#: Span files and the oracle's cached answer bags (ignored by git).
OUT_DIR = os.path.join(HERE, "out")
#: Publish calls whose spans the traced run keeps.
SPAN_CALLS = 10
#: Time spent on set-up-only engine builds before the measured passes.
SETUP_SECONDS = 1.0

Instances = List[Tuple[int, "Inputs"]]
Pass = List["RepResult"]
Metrics = Dict[str, Tuple[float, str]]


class BenchmarkError(Exception):
    """The engine delivered an answer the oracle lacks, or passes disagree."""


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def grouped_percentile(values: Sequence[float], q: float) -> float:
    """Percentile ``q`` of whole-tick values, interpolated within the tick.

    Each value ``v`` stands for the interval ``[v - 0.5, v + 0.5)``, as in
    :func:`statistics.median_grouped`, so the figure moves with the share of
    samples on each side instead of jumping a whole tick.
    """
    if not values:
        return 0.0
    counts = Counter(values)
    target = len(values) * q / 100.0
    below = 0
    for value in sorted(counts):
        within = counts[value]
        if below + within >= target:
            return value - 0.5 + (target - below) / within
        below += within
    return max(values) + 0.5


def setup_samples(workload: "Workload", instances: Instances) -> List[float]:
    """Set-up-only builds, cycling through the instances until
    ``SETUP_SECONDS`` are spent, so cheap set-ups get many samples."""
    from workloads import build

    setups: List[float] = []
    while not setups or sum(setups) < SETUP_SECONDS:
        seed, inputs = instances[len(setups) % len(instances)]
        engine, _, setup_s = build(workload, inputs, seed)
        engine.close()
        setups.append(setup_s)
        del engine
        gc.collect()
    return setups


def run_passes(
    workload: "Workload",
    instances: Instances,
    seconds: float,
    on_phase: Optional[Callable[[str], None]] = None,
) -> Tuple[List[Pass], float]:
    """Run passes over every instance while another pass fits in ``seconds``.

    The first pass always runs; another starts only if, judged by the
    longest pass so far, it ends within ``seconds`` of the start.  Also
    returns the process's peak RSS in MB after the first pass: later passes
    run while earlier results are held, so only that peak compares across
    runs whatever their pass count.
    """
    from workloads import run_rep

    passes: List[Pass] = []
    peak_rss_mb = 0.0
    start = time.perf_counter()
    longest = 0.0
    while not passes or time.perf_counter() - start + longest <= seconds:
        begun = time.perf_counter()
        results = []
        for seed, inputs in instances:
            results.append(run_rep(workload, inputs, seed, on_phase=on_phase))
            gc.collect()
        if not passes:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(results)
        longest = max(longest, time.perf_counter() - begun)
    return passes, peak_rss_mb


def check_passes(
    passes: List[Pass], workload: "Workload", instances: Instances
) -> Tuple[int, int]:
    """Compare every pass with the first, and the first with the oracle.

    Returns ``(oracle answers, missing answers)`` of one pass; raises
    :class:`BenchmarkError` on an extra answer or on passes that disagree.
    """
    from oracle import cached_bags, compare

    first = passes[0]
    for number, results in enumerate(passes[1:], start=1):
        for (seed, _), rep, reference in zip(instances, results, first):
            if rep.fingerprint() != reference.fingerprint():
                raise BenchmarkError(
                    f"instance seed {seed}: pass {number} differs from pass 0 "
                    f"({rep.fingerprint()[:3]} != {reference.fingerprint()[:3]})"
                )
    total = missing = 0
    for (seed, inputs), rep in zip(instances, first):
        expected = cached_bags(
            inputs.catalog, workload.window, rep.log, OUT_DIR, f"{workload.name}-{seed}"
        )
        want, lost, extra = compare(expected, rep.bags)
        if extra:
            raise BenchmarkError(
                f"instance seed {seed}: {extra} delivered answers are not "
                "in the oracle's bags"
            )
        total += want
        missing += lost
    return total, missing


def end_to_end(passes: List[Pass], setups: List[float], peak_rss_mb: float) -> Metrics:
    """The end-to-end metrics; the deterministic ones come from pass 0."""
    reps = [rep for results in passes for rep in results]
    first = passes[0]
    call_s = [elapsed for rep in reps for elapsed in rep.call_s]
    delays = [delay for rep in first for delay in rep.delays]
    return {
        "tuples_per_s": (
            sum(rep.tuples for rep in reps) / sum(rep.phase_s for rep in reps),
            "tuples/s",
        ),
        "publish_p50_ms": (percentile(call_s, 50.0) * 1e3, "ms"),
        "publish_p95_ms": (percentile(call_s, 95.0) * 1e3, "ms"),
        "setup_s": (percentile(setups, 50.0), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "msgs_per_tuple": (
            sum(rep.messages for rep in first) / sum(rep.tuples for rep in first),
            "msgs/tuple",
        ),
        "answer_delay_p50": (grouped_percentile(delays, 50.0), "ticks"),
        "answer_delay_p95": (grouped_percentile(delays, 95.0), "ticks"),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=(__doc__ or "").split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the engine sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, make_inputs

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2

    seeds = workload.instance_seeds(args.seed)
    if args.trace:
        seeds = seeds[:1]
    instances = [(seed, make_inputs(workload, seed)) for seed in seeds]
    setups = setup_samples(workload, instances)
    budget = args.seconds / 2 if args.trace else args.seconds
    passes, peak_rss_mb = run_passes(workload, instances, budget)
    setups.extend(rep.setup_s for results in passes for rep in results)

    traced: List[Pass] = []
    if args.trace:
        from layers import LayerTracer, layer_metrics, layer_table

        tracer = LayerTracer(span_calls=SPAN_CALLS)
        tracer.install()
        try:
            traced, _ = run_passes(workload, instances, budget, on_phase=tracer.mark)
        finally:
            tracer.uninstall()

    try:
        attempted, failed = check_passes(passes + traced, workload, instances)
    except BenchmarkError as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    checked = len(passes) + len(traced)

    out = sys.stdout
    out.write(
        f"{workload.name} seed {args.seed}: {len(passes)} untraced and "
        f"{len(traced)} traced pass(es) over {len(instances)} instance(s) of "
        f"{workload.tuples_per_rep} tuples\n"
    )
    for number, results in enumerate(passes + traced):
        kind = "untraced" if number < len(passes) else "traced"
        for (seed, _), rep in zip(instances, results):
            out.write(
                f"  {kind} pass {number} instance {seed}: {rep.tuples} tuples "
                f"in {rep.phase_s:.3f} s ({rep.tuples / rep.phase_s:.1f} tuples/s), "
                f"set-up {rep.setup_s:.3f} s, {len(rep.delays)} answers\n"
            )
    e2e = end_to_end(passes, setups, peak_rss_mb)
    for name, (value, unit) in e2e.items():
        out.write(f"  {name:<24} {value:14.4f} {unit}\n")
    calls = sum(len(rep.call_s) for results in passes for rep in results)
    out.write(f"  {'publish_calls':<24} {calls:14d} calls\n")
    miss_ratio = failed / attempted if attempted else 0.0
    out.write(f"  {'answer_miss_ratio':<24} {miss_ratio:14.4f} fraction\n")

    metrics = e2e
    if args.trace:
        metrics = layer_metrics(tracer, traced, e2e["tuples_per_s"][0])
        for line in layer_table(tracer):
            out.write(line + "\n")
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}.spans.jsonl")
        written = tracer.write_spans(path)
        out.write(f"{written} spans of the first {SPAN_CALLS} traced publish calls: {path}\n")
        for name, (value, unit) in metrics.items():
            out.write(f"  {name:<44} {value:16.6f} {unit}\n")
    result = {
        "correct": True,
        "attempted": attempted * checked,
        "failed": failed * checked,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    out.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: determinism and seed sensitivity.

Usage (from the repository root)::

    python3 e2ebench/selftest.py [--workload NAME]

For each workload it runs the first instance of seed 1 three times: twice
untraced and once under the layer tracer.  All three must give the same
answer digest, ``msgs_per_tuple`` traffic, logical answer delays and
kernel deliveries (the traced run's ``net.deliveries`` must equal the
untraced event count, so tracing changes nothing the engine does).  Seed 2
must generate different inputs.  Exits 1 on the first violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def check_workload(name: str) -> List[str]:
    """Problems found for one workload (empty when it passes)."""
    from layers import MESSAGE_KINDS, LayerTracer
    from workloads import WORKLOADS, make_inputs, run_rep

    workload = WORKLOADS[name]
    seed = workload.instance_seeds(1)[0]
    inputs = make_inputs(workload, seed)
    first = run_rep(workload, inputs, seed)
    second = run_rep(workload, inputs, seed)
    tracer = LayerTracer(span_calls=0)
    handlers = [f"core.node.handle.{kind.__name__}" for kind in MESSAGE_KINDS]
    marks: List[int] = []
    tracer.install()
    try:
        traced = run_rep(
            workload,
            inputs,
            seed,
            on_phase=lambda event: marks.append(
                sum(tracer.calls[name] for name in handlers)
            ),
        )
    finally:
        tracer.uninstall()

    problems = []
    for label, rep in (("second run", second), ("traced run", traced)):
        if rep.fingerprint() != first.fingerprint():
            problems.append(
                f"{label} differs: {rep.fingerprint()[:3]} != {first.fingerprint()[:3]}"
            )
    deliveries = marks[1] - marks[0]
    if deliveries != first.events:
        problems.append(
            f"traced net.deliveries {deliveries} != untraced kernel events "
            f"{first.events}"
        )
    other = make_inputs(workload, workload.instance_seeds(2)[0])
    if other.rows == inputs.rows or [str(q) for q in other.queries] == [
        str(q) for q in inputs.queries
    ]:
        problems.append("seed 2 generated the same tuples or queries as seed 1")
    print(
        f"{name}: digest {first.fingerprint()[0]} msgs {first.messages} "
        f"events {first.events} answers {len(first.delays)} "
        f"-> {'ok' if not problems else 'FAILED'}"
    )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="default: all")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the engine sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    failed = False
    for name in args.workload or list(WORKLOADS):
        for problem in check_workload(name):
            print(f"  {name}: {problem}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

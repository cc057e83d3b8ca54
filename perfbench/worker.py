"""One pass of one workload in a fresh process.

    python3 -m perfbench.worker --workload NAME --seed N [--trace]

Prints one JSON line: ``ready`` (CLOCK_MONOTONIC when the inputs are
generated and validated, for the parent's setup time), ``wall_s`` (the timed
computation) and ``wall_ref`` (the same in units of the reference kernel), the items with their failures, the peak resident set, and with
``--trace`` the per-layer metrics; a traced pass also writes its span file
(``run.span_file``).  Run with ``PYTHONPATH=src:.`` from the
repository root; ``perfbench/run.py`` does that.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import numpy
import scipy

from .inputs import make_inputs
from .reference import DEFAULT_SEED, check_reference, load_reference
from .run import THREAD_VARS, span_file
from .tracer import Tracer
from .workloads import WORKLOADS, Item


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def trace_checks(workload: str, tracer: Tracer, layers: dict) -> list:
    """Structural facts of the traced run: p-sweep has no cut cell and
    penalty-scan computes no errors."""
    out = []
    if workload == "p-sweep" and layers["quadrature.cut_rules"] != 0:
        out.append(f"p-sweep built {layers['quadrature.cut_rules']} cut-cell rules, expected 0")
    if workload == "penalty-scan" and "errors.compute" in tracer.span_names():
        out.append("penalty-scan recorded an errors span")
    return out


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    inputs = make_inputs(args.workload, args.seed)
    ready = time.monotonic()
    out = {"ready": ready}
    tracer = Tracer().install() if args.trace else None
    result = WORKLOADS[args.workload](inputs, tracer)
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        result.items.append(Item("trace", failures=trace_checks(args.workload, tracer, layers)))
        out["layers"] = layers
        tracer.write(span_file(args.workload, args.seed))
    if args.seed == DEFAULT_SEED:
        check_reference(result.items, load_reference()[args.workload])
    out.update(
        wall_s=result.wall_s,
        wall_ref=result.wall_ref,
        attempted=len(result.items),
        failed=result.failed,
        failures=[f"{item.name}: {msg}" for item in result.items for msg in item.failures],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        inputs=inputs.describe(),
        environment=environment(),
    )
    return out


if __name__ == "__main__":
    print(json.dumps(main()))

#!/usr/bin/env python3
"""Measure the baseline: every workload on a range of seeds, then one traced
run per workload, written as one JSON file with the environment.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Each run lasts ``run_seconds`` of ``BENCHMARK.json``.  For each end-to-end
metric it records the ten values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  Run it from the
repository root on an otherwise idle machine; it takes about
(seeds + 1) x workloads x run_seconds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run

SEEDS = tuple(range(1, 11))


def _stats(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/baseline.py")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    run.OUT.mkdir(exist_ok=True)
    out = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in run.WORKLOADS:
        runs = []
        for seed in SEEDS:
            summary = run.measure(workload, seed, seconds, trace=False)
            runs.append(summary)
            print(workload, seed, {k: round(m["value"], 4) for k, m in summary["metrics"].items()},
                  f"failed {summary['failed']}/{summary['attempted']}", flush=True)
        traced = run.measure(workload, SEEDS[0], seconds, trace=True)
        end_to_end = {name: dict(_stats([r["metrics"][name]["value"] for r in runs]),
                                 unit=runs[0]["metrics"][name]["unit"])
                      for name in runs[0]["metrics"]}
        end_to_end["wall_s"] = dict(_stats([statistics.median(r["pass_walls"]) for r in runs]),
                                    unit="s")
        out["environment"] = runs[0]["environment"]
        out["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "failures": [f for r in runs for f in r["failures"]],
            "end_to_end": end_to_end,
            "per_layer": {"seed": SEEDS[0], **{k: m["value"] for k, m in traced["metrics"].items()}},
        }
        for name, s in end_to_end.items():
            print(f"{workload} {name}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

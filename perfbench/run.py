#!/usr/bin/env python3
"""Benchmark of the ipfem package: one seeded workload, measured for a fixed
time, with every output checked.

    python3 perfbench/run.py --workload {h-sweep,p-sweep,penalty-scan}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.  Each
pass of the workload runs in a fresh process, as a CLI user's run does, with
BLAS/OpenMP threads pinned to 1.  Passes are started one after another
(closed loop) while the next one still fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics (medians over the passes):
wall_ref, setup_s, peak_rss_mb and ok_frac, and prints wall_s and
failed_frac beside them.  ``--trace 1`` runs traced passes
and reports the per-layer metrics, trace.overhead_s among them; it writes
the span file and the per-layer table under ``perfbench/out/``.  The last
line of standard output is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("h-sweep", "p-sweep", "penalty-scan")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A pass is killed this long after the end of the run plus the longest pass
# so far: passes only start while they are expected to end within the run.
KILL_MARGIN = 60.0
UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MiB", "ok_frac": "ratio",
         "wall_s": "s", "failed_frac": "ratio"}


class ChildFailed(Exception):
    """A worker process crashed, timed out or printed no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    path = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spawn(worker_args: list, deadline: float) -> tuple:
    """Run one worker, killed at ``deadline`` (monotonic); returns (its JSON
    result, setup seconds, elapsed)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", *worker_args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=deadline - t0,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker killed after {exc.timeout:.0f} s") from exc
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise ChildFailed(f"worker exited with {proc.returncode}: {tail}")
    result = json.loads(lines[-1])
    return result, result["ready"] - t0, elapsed


def _fmt(value: float) -> str:
    return format(value, ".6g")


def span_file(workload: str, seed: int) -> Path:
    return OUT / f"spans-{workload}-seed{seed}.json"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    args = ["--workload", workload, "--seed", str(seed)] + (["--trace"] if trace else [])
    passes, setups, crashes = [], [], []
    pass_cost = 0.0  # the longest pass so far, spawn to exit
    while True:
        try:
            result, setup_s, elapsed = _spawn(args, start + seconds + pass_cost + KILL_MARGIN)
        except ChildFailed as exc:
            crashes.append(str(exc))
            break
        passes.append(result)
        setups.append(setup_s)
        pass_cost = max(pass_cost, elapsed)
        if time.monotonic() - start + pass_cost > seconds:
            break

    if not passes:
        raise ChildFailed("no pass completed: " + "; ".join(crashes))
    attempted = sum(r["attempted"] for r in passes) + len(crashes)
    failed = sum(r["failed"] for r in passes) + len(crashes)
    summary = {
        "passes": len(passes),
        "pass_walls": [r["wall_s"] for r in passes],
        "pass_refs": [r["wall_ref"] for r in passes],
        "attempted": attempted,
        "failed": failed,
        "failures": [f for r in passes for f in r["failures"]] + crashes,
        "inputs": passes[0]["inputs"],
        "environment": passes[0]["environment"],
    }
    if trace:
        layers = {key: statistics.median(r["layers"][key] for r in passes)
                  for key in passes[0]["layers"]}
        summary["metrics"] = {
            key: {"value": value, "unit": "s"} if key.endswith("_s")
            else {"value": int(value) if float(value).is_integer() else value, "unit": "count"}
            for key, value in layers.items()
        }
        summary["span_file"] = str(span_file(workload, seed).relative_to(ROOT))
    else:
        summary["metrics"] = {
            "wall_ref": statistics.median(r["wall_ref"] for r in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
            "ok_frac": 1.0 - failed / attempted,
        }
        summary["metrics"] = {k: {"value": v, "unit": UNITS[k]}
                              for k, v in summary["metrics"].items()}
    return summary


def _report(workload: str, seed: int, summary: dict, trace: bool) -> None:
    env = summary["environment"]
    print(f"workload {workload}  seed {seed}  inputs {summary['inputs']['curve']}")
    print(f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
          f"nproc {env['nproc']}  threads {env['threads']}")
    print(f"passes {summary['passes']}{' traced' if trace else ''}; pass wall_s "
          + " ".join(_fmt(w) for w in summary["pass_walls"])
          + "; pass wall_ref " + " ".join(_fmt(w) for w in summary["pass_refs"]))
    rows = dict(summary["metrics"])
    if not trace:
        rows["wall_s"] = {"value": statistics.median(summary["pass_walls"]), "unit": UNITS["wall_s"]}
        rows["failed_frac"] = {"value": summary["failed"] / summary["attempted"],
                               "unit": UNITS["failed_frac"]}
    for name, m in rows.items():
        print(f"  {name:28s} {_fmt(m['value']):>14s} {m['unit']}")
    print(f"items attempted {summary['attempted']}, failed {summary['failed']}")
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")
    if trace:
        table = OUT / f"layers-{workload}-seed{seed}.json"
        table.write_text(json.dumps(summary["metrics"], indent=1) + "\n")
        print(f"per-layer table {table.relative_to(ROOT)}, spans {summary['span_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ipfem" / "__init__.py").is_file():
        print(f"error: no ipfem sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _report(args.workload, args.seed, summary, bool(args.trace))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

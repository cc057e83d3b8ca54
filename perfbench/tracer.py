"""Spans around the public calls of each ipfem module, recorded from the
benchmark's own code (nothing under ``src/`` knows about them).

``Tracer.install`` replaces every reference to a traced function in the
loaded ``ipfem`` and ``perfbench`` modules by a wrapper that records a span
(name, start, end, parent span, item id) and the counts read off the call's
result.  Spans stay in memory until ``write``.  A span's self time is its
duration minus the time its child spans cover; calls are nested and
single-threaded, so that is the duration minus the children's durations.

The tracer's own cost, ``trace.overhead_s``, is the number of spans times
the time the wrapper adds to one call, measured in the same process on a
wrapped no-op (``span_cost``).  Comparing traced with untraced passes would
measure the drift of machine speed between processes instead.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, public function, span name)
TARGETS = (
    ("ipfem.cli", "run_single", "cli.run_single"),
    ("ipfem.mesh", "build_mesh", "mesh.build"),
    ("ipfem.geometry", "classify_elements", "geometry.classify"),
    ("ipfem.fe_space", "build_dof_map", "fe_space.dofmap"),
    ("ipfem.fe_space", "build_doubled_space", "fe_space.space"),
    ("ipfem.quadrature", "cut_cell_rule", "quadrature.cut_rule"),
    ("ipfem.quadrature", "segment_rule", "quadrature.segment_rule"),
    ("ipfem.assembly", "assemble", "assembly.assemble"),
    ("ipfem.assembly", "assemble_volume", "assembly.volume"),
    ("ipfem.assembly", "assemble_interface", "assembly.interface"),
    ("ipfem.assembly", "assemble_J0", "assembly.j0"),
    ("ipfem.assembly", "assemble_J1", "assembly.j1"),
    ("ipfem.assembly", "assemble_load", "assembly.load"),
    ("ipfem.solver", "solve", "solver.solve"),
    ("ipfem.errors", "compute_errors", "errors.compute"),
    ("ipfem.probes", "probe_coercivity", "probes.coercivity"),
)

# per-layer metric -> (span name, "self" or "total"); the per-block assembly
# times are self times (quadrature excluded), assembly.assemble_s is the
# whole assemble() call, so it stays meaningful if the blocks are merged.
TIME_METRICS = {
    "mesh.build_s": ("mesh.build", "self"),
    "geometry.classify_s": ("geometry.classify", "self"),
    "fe_space.dofmap_s": ("fe_space.dofmap", "self"),
    "fe_space.space_s": ("fe_space.space", "self"),
    "quadrature.cut_rule_s": ("quadrature.cut_rule", "self"),
    "quadrature.segment_rule_s": ("quadrature.segment_rule", "self"),
    "assembly.volume_s": ("assembly.volume", "self"),
    "assembly.interface_s": ("assembly.interface", "self"),
    "assembly.j0_s": ("assembly.j0", "self"),
    "assembly.j1_s": ("assembly.j1", "self"),
    "assembly.load_s": ("assembly.load", "self"),
    "assembly.assemble_s": ("assembly.assemble", "total"),
    "solver.solve_s": ("solver.solve", "self"),
    "errors.compute_s": ("errors.compute", "self"),
    # probe_coercivity minus the builder spans (assembly) inside it
    "probes.rayleigh_s": ("probes.coercivity", "self"),
}

# per-layer count metric -> (span name, count read off the call's result)
COUNT_METRICS = {
    "geometry.cut_elements": ("geometry.classify", lambda r: len(r.cut_elements)),
    "geometry.segments": ("geometry.classify", lambda r: len(r.segments)),
    "fe_space.unknowns": ("fe_space.space", lambda r: r.n_unknowns),
    "quadrature.cut_rules": ("quadrature.cut_rule", lambda r: 1),
    "quadrature.segment_rules": ("quadrature.segment_rule", lambda r: 1),
    "assembly.nnz": ("assembly.assemble", lambda r: r.matrix.nnz),
    "solver.refine_steps": ("solver.solve", lambda r: r.iterations),
    "probes.points": ("probes.coercivity", lambda r: len(r)),
}

LAYER_METRICS = tuple(TIME_METRICS) + tuple(COUNT_METRICS) + ("trace.overhead_s",)

CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 7


class Tracer:
    """Records one span per traced call; ``item`` tags the spans of the
    current workload item."""

    def __init__(self):
        self.item = ""
        self.spans = []  # [id, name, start, end, parent, item]
        self.counts = defaultdict(int)
        self._stack = []
        self._t0 = time.perf_counter()
        self._patched = []  # (namespace, attribute, original)
        self._counters = defaultdict(list)
        for metric, (span, read) in COUNT_METRICS.items():
            self._counters[span].append((metric, read))

    def wrap_callable(self, name: str, fn):
        counters = self._counters.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), name, time.perf_counter() - self._t0, None,
                    self._stack[-1] if self._stack else None, self.item]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = time.perf_counter() - self._t0
            for metric, read in counters:
                self.counts[metric] += read(result)
            return result

        return traced

    def install(self):
        """Patch every reference to the traced functions in loaded modules."""
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and name.split(".")[0] in ("ipfem", "perfbench")]
        for module_name, attr, span_name in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap_callable(span_name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patched.append((ns, key, original))
                        setattr(ns, key, wrapped)
        return self

    def uninstall(self):
        for ns, key, original in reversed(self._patched):
            setattr(ns, key, original)
        self._patched.clear()

    def layer_times(self) -> dict:
        child_time = defaultdict(float)
        for _id, _name, start, end, parent, _item in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        for sid, name, start, end, _parent, _item in self.spans:
            total[name] += end - start
            self_time[name] += end - start - child_time[sid]
        kinds = {"self": self_time, "total": total}
        return {metric: kinds[kind][span] for metric, (span, kind) in TIME_METRICS.items()}

    def layer_metrics(self) -> dict:
        """Every per-layer metric: times in seconds, counts summed over the
        pass."""
        out = self.layer_times()
        out.update({metric: self.counts[metric] for metric in COUNT_METRICS})
        out["trace.overhead_s"] = len(self.spans) * span_cost()
        return out

    def span_names(self) -> set:
        return {span[1] for span in self.spans}

    def write(self, path: Path):
        keys = ("id", "name", "start", "end", "parent", "item")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")


def span_cost() -> float:
    """Seconds the span wrapper adds to one call: the median, over
    CALIBRATION_REPEATS rounds, of the time of CALIBRATION_CALLS wrapped
    no-op calls minus that of as many bare ones, per call."""

    def noop():
        return None

    probe = Tracer()
    wrapped = probe.wrap_callable("calibration", noop)
    costs = []
    for _ in range(CALIBRATION_REPEATS):
        probe.spans.clear()
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        t1 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        t2 = time.perf_counter()
        costs.append((t2 - t1 - (t1 - t0)) / CALIBRATION_CALLS)
    return statistics.median(costs)

"""Tests of the benchmark itself: deterministic inputs, and every output
check failing on a deliberately broken result.  Small meshes keep them fast;
run with ``PYTHONPATH=src python3 -m pytest perfbench``."""

import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ipfem.assembly import PenaltyParams, assemble
from ipfem.cases import DOMAIN
from ipfem.cli import run_single
from ipfem.errors import compute_errors, estimate_rates
from ipfem.fe_space import build_dof_map, build_doubled_space
from ipfem.geometry import Ellipse, MultiIntersection, classify_elements
from ipfem.mesh import build_mesh
from ipfem.probes import probe_coercivity
from ipfem.solver import solve

from perfbench import reference, workloads
from perfbench.inputs import (AXIS_RANGE, AXIS_SUM, CENTRE_RANGE, CURVES, SCAN_NX, grazes_grid,
                              make_inputs)
from perfbench.tracer import LAYER_METRICS, Tracer
from perfbench.worker import trace_checks
from perfbench.workloads import Item

BENCH = Path(__file__).resolve().parent


def _pipeline(case, p, nx, beta=1):
    mesh = build_mesh(DOMAIN, nx, nx)
    topology = classify_elements(mesh, case.curve)
    space = build_doubled_space(build_dof_map(mesh, p), topology)
    params = PenaltyParams(beta=beta, gamma0=220.0, gamma1=1.0, p=p)
    return topology, space, params, assemble(space, topology, case.problem, params)


@pytest.fixture(scope="module")
def ellipse_case():
    return make_inputs("h-sweep", 0).case


def _sample(problem, curve):
    t = np.linspace(0.0, curve.period, 7, endpoint=False)
    x, y = curve.point(t)[:, 0] * 0.9, curve.point(t)[:, 1] * 0.9
    return np.concatenate([problem.f[0](x, y), problem.f[1](x, y), problem.g_n(t),
                           problem.exact[0](x, y)])


@pytest.mark.parametrize("workload", sorted(CURVES))
def test_inputs_are_deterministic_and_valid(workload):
    first = make_inputs(workload, 7).case
    again = make_inputs(workload, 7).case
    other = make_inputs(workload, 8).case
    assert first.curve.name == again.curve.name
    assert np.array_equal(_sample(first.problem, first.curve), _sample(again.problem, again.curve))
    if workload != "p-sweep":  # nine mesh lines only, so seeds may coincide
        assert first.curve.name != other.curve.name
    for seed in range(20):
        make_inputs(workload, seed)  # raises unless Problem.validate passes


def test_ellipses_stay_in_the_supported_regime():
    h = 2.0 / SCAN_NX
    for seed in range(200):
        curve = CURVES["h-sweep"](seed)
        assert CENTRE_RANGE[0] <= curve.center.min() and curve.center.max() <= CENTRE_RANGE[1]
        assert AXIS_RANGE[0] <= min(curve.a, curve.b) and max(curve.a, curve.b) <= AXIS_RANGE[1]
        assert curve.a + curve.b == pytest.approx(AXIS_SUM, rel=1e-15)
        assert 1.0 / curve.curvature_bound >= 3.0 * h


def test_grazing_draws_are_the_ones_classification_rejects():
    # first draw of seed 103: the bottom extreme lies 5e-4 below y = -0.75
    # and that line is crossed twice inside one nx = 24 cell
    grazing = Ellipse(-0.037463353455410506, -0.05513635547479048,
                      0.5046029184282915, 0.6953970815717084)
    mesh = build_mesh(DOMAIN, SCAN_NX, SCAN_NX)
    assert grazes_grid(grazing, SCAN_NX)
    with pytest.raises(MultiIntersection):
        classify_elements(mesh, grazing)
    for seed in range(100, 110):
        curve = CURVES["penalty-scan"](seed)
        assert not grazes_grid(curve, SCAN_NX)
        classify_elements(mesh, curve)


def test_residual_check_fails_on_a_perturbed_solution(ellipse_case):
    _, _, _, system = _pipeline(ellipse_case, 1, 16)
    x = solve(system).solution
    assert workloads.check_residual(system.matrix, system.load, x) == []
    bumped = x + 1e-6 * np.random.default_rng(0).standard_normal(x.shape)
    assert workloads.check_residual(system.matrix, system.load, bumped)


def test_symmetry_check_fails_when_beta_is_flipped(ellipse_case):
    assert workloads.check_symmetric(_pipeline(ellipse_case, 1, 16, beta=1)[3].matrix) == []
    assert workloads.check_symmetric(_pipeline(ellipse_case, 1, 16, beta=-1)[3].matrix)


def _errors(case, p, nx, perturb=0.0, drop=None, quad_extra=0):
    topology, space, params, system = _pipeline(case, p, nx)
    if quad_extra:
        system = assemble(space, topology, case.problem, params, quad_order=p + 2 + quad_extra)
    if drop:
        system.matrix = (system.matrix - system.blocks[drop]).tocsr()
    x = solve(system).solution
    x = x + perturb * np.random.default_rng(1).standard_normal(x.shape)
    return compute_errors(space, topology, case.problem, x, params)


def test_rate_check_fails_on_a_perturbed_solution(ellipse_case):
    good = [_errors(ellipse_case, 1, nx) for nx in (16, 32, 64)]
    bad = [_errors(ellipse_case, 1, nx, perturb=1e-3) for nx in (16, 32, 64)]
    assert workloads.check_rates(estimate_rates(good).slopes) == []
    assert workloads.check_rates(estimate_rates(bad).slopes)


def test_decay_check_fails_when_a_degree_stalls():
    case = make_inputs("p-sweep", 0).case
    energy = {p: run_single(case, "nip", p, 16, 1.0, 1.0)[5].norm_a for p in (2, 3, 4)}
    assert workloads.check_decay(energy) == []
    stalled = dict(energy)
    stalled[4] = energy[3] / 2.0
    assert workloads.check_decay(stalled)
    # below the round-off floor nothing more is required
    assert workloads.check_decay({2: 1e-3, 3: 1e-4, 4: 0.5 * workloads.ENERGY_FLOOR,
                                  5: workloads.ENERGY_FLOOR}) == []


def test_quotient_check_fails_when_the_jump_penalty_is_dropped(ellipse_case):
    _, space, _, _ = _pipeline(ellipse_case, 1, 8)
    topology = space.topology

    def builder(drop):
        def build(g0, g1):
            params = PenaltyParams(beta=1, gamma0=g0, gamma1=g1, p=1)
            system = assemble(space, topology, ellipse_case.problem, params)
            if drop:
                system.matrix = (system.matrix - system.blocks["j0"]).tocsr()
            return system
        return build

    good = probe_coercivity(builder(False), [1000.0], [1.0])[(1000.0, 1.0)]
    bad = probe_coercivity(builder(True), [1000.0], [1.0])[(1000.0, 1.0)]
    assert workloads.check_positive_quotient(good) == []
    assert workloads.check_positive_quotient(bad)


def _item(err):
    return Item("nx=16", values={"l2": err.l2, "energy": err.norm_a, "dofs": err.dofs})


def test_reference_check_separates_round_off_from_discretisation_changes(ellipse_case):
    base = _item(_errors(ellipse_case, 1, 16))
    recorded = {"nx=16": dict(base.values)}
    rounded = Item("nx=16", values={k: v * (1 + 1e-12) if k != "dofs" else v
                                    for k, v in base.values.items()})
    reference.check_reference([base, rounded], recorded)
    assert base.ok and rounded.ok
    for broken in (_item(_errors(ellipse_case, 1, 16, drop="j1")),
                   _item(_errors(ellipse_case, 1, 16, quad_extra=1))):
        reference.check_reference([broken], recorded)
        assert not broken.ok, broken.values
    wrong_count = Item("nx=16", values={**base.values, "dofs": base.values["dofs"] + 1})
    reference.check_reference([wrong_count], recorded)
    assert not wrong_count.ok


def test_reference_file_covers_every_workload():
    recorded = reference.load_reference()
    assert set(recorded) == set(workloads.WORKLOADS)
    assert all(recorded[w] for w in recorded)


def test_clock_samples_the_reference_kernel_inside_an_interval(monkeypatch):
    calls = []
    monkeypatch.setattr(workloads, "reference_kernel", lambda: calls.append(1) or 0.01)
    clock = workloads._Clock(sampling=True)
    with clock:
        t_end = time.perf_counter() + 1.2
        while time.perf_counter() < t_end:
            pass
    result = clock.result([])
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(calls) >= 4  # before, twice inside, after
    assert 1.1 < result.wall_s < 1.3
    assert result.wall_ref == pytest.approx(result.wall_s / 0.01)


def test_tracer_self_times_counts_and_uninstall():
    import ipfem.cli
    import ipfem.geometry

    original = ipfem.geometry.classify_elements
    tracer = Tracer().install()
    try:
        assert ipfem.cli.classify_elements is not original
        tracer.item = "p=2"
        run_single(make_inputs("p-sweep", 0).case, "nip", 2, 16, 1.0, 1.0)
    finally:
        tracer.uninstall()
    assert ipfem.cli.classify_elements is original
    assert ipfem.geometry.classify_elements is original
    layers = tracer.layer_metrics()
    assert set(layers) == set(LAYER_METRICS)
    assert layers["quadrature.cut_rules"] == 0 and layers["geometry.cut_elements"] == 0
    assert layers["geometry.segments"] == 16 and layers["quadrature.segment_rules"] > 0
    assert {"cli.run_single", "assembly.volume", "errors.compute"} <= tracer.span_names()
    root = [s for s in tracer.spans if s[1] == "cli.run_single"][0]
    assert all(s[5] == "p=2" for s in tracer.spans)
    children = sum(s[3] - s[2] for s in tracer.spans if s[4] == root[0])
    assert 0.0 <= root[3] - root[2] - children <= root[3] - root[2]
    assert 0.0 < layers["trace.overhead_s"] < 0.05 * (root[3] - root[2])
    # the per-block self times exclude the quadrature spans inside them
    volume_total = sum(s[3] - s[2] for s in tracer.spans if s[1] == "assembly.volume")
    assert layers["assembly.volume_s"] <= volume_total
    assert trace_checks("p-sweep", tracer, layers) == []
    assert trace_checks("penalty-scan", tracer, layers)  # it has an errors span
    layers["quadrature.cut_rules"] = 4
    assert trace_checks("p-sweep", tracer, layers)


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    root = BENCH.parent
    if (root / "BENCHMARK.json").exists():
        shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "h-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

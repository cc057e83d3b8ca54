"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
summary lines; the whole module is the exit gate for the build.
"""

import numpy as np
import pytest

from ipfem.assembly import PenaltyParams, assemble
from ipfem.cases import DOMAIN, catalog
from ipfem.cli import StudyConfig, run_study
from ipfem.errors import energy_norm_squared, estimate_rates
from ipfem.fe_space import build_dof_map, build_doubled_space
from ipfem.geometry import classify_elements
from ipfem.mesh import build_mesh
from ipfem.probes import probe_coercivity, probe_inverse_trace
from ipfem.quadrature import cut_cell_rule, segment_rule
from ipfem.solver import solve

from helpers import build_pipeline
from oracles import monomial_pairs, oracle_side_monomials

RADIUS = 0.6


def _sweep(case_name, method, p, nx, out, gamma0=None, gamma1=None):
    cfg = StudyConfig(
        case=case_name,
        method=method,
        p=[p],
        nx=list(nx),
        gamma0=gamma0,
        gamma1=gamma1,
        out=str(out),
    )
    result = run_study(cfg)
    assert not result.failures, result.failures
    return result.rates[p].slopes


def test_criterion_1_sip_h_convergence(tmp_path):
    plans = {1: (8, 16, 32, 64), 2: (8, 16, 32, 64), 3: (8, 16, 32)}
    for p, nxs in plans.items():
        slopes = _sweep("circle-jump", "sip", p, nxs, tmp_path / f"sip{p}")
        assert abs(slopes["norm_a"] - p) <= 0.25, (p, slopes)
        assert abs(slopes["l2"] - (p + 1)) <= 0.25, (p, slopes)
        print(
            f"PASS criterion 1 (SIP h-convergence, p={p}): "
            f"slope(normA)={slopes['norm_a']:.3f} (target {p}±0.25), "
            f"slope(L2)={slopes['l2']:.3f} (target {p + 1}±0.25)"
        )


def test_criterion_2_nip_h_convergence(tmp_path):
    plans = {1: (8, 16, 32, 64), 2: (8, 16, 32, 64), 3: (8, 16, 32)}
    for p, nxs in plans.items():
        slopes = _sweep(
            "circle-jump", "nip", p, nxs, tmp_path / f"nip{p}", gamma0=1.0, gamma1=1.0
        )
        assert abs(slopes["norm_a"] - p) <= 0.25, (p, slopes)
        assert slopes["l2"] >= p + 0.4, (p, slopes)
        print(
            f"PASS criterion 2 (NIP h-convergence, p={p}): "
            f"slope(normA)={slopes['norm_a']:.3f} (target {p}±0.25), "
            f"slope(L2)={slopes['l2']:.3f} (floor {p + 0.4})"
        )


def test_criterion_3_sip_symmetry():
    worst = 0.0
    for name in catalog():
        for p in (1, 2, 3):
            _, _, _, _, system = build_pipeline(name_to_case(name), p, 8, beta=1)
            a = system.matrix
            ratio = abs(a - a.T).max() / abs(a).max()
            worst = max(worst, ratio)
            assert ratio <= 1e-12, (name, p, ratio)
    print(f"PASS criterion 3 (SIP symmetry): worst asymmetry {worst:.2e} <= 1e-12")


def name_to_case(name):
    return catalog()[name]


def test_criterion_4_nip_energy_identity():
    case = catalog()["circle-jump"]
    _, top, space, params, system = build_pipeline(
        case, 2, 8, beta=-1, gamma0=1.0, gamma1=1.0
    )
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(space.n_unknowns)
        quad_form = float(v @ (system.matrix @ v))
        norm_sq = energy_norm_squared(space, top, case.problem, params, v)
        rel = abs(quad_form - norm_sq) / norm_sq
        worst = max(worst, rel)
        assert rel <= 1e-9
    print(
        f"PASS criterion 4 (NIP energy identity, 100 vectors): worst relative "
        f"deviation {worst:.2e} <= 1e-9"
    )


def test_criterion_5_quadrature_oracles():
    from ipfem.geometry import Circle

    curve = Circle(0.0, 0.0, RADIUS)
    worst_area = worst_circ = worst_mono = 0.0
    for nx in (8, 16, 32):
        mesh = build_mesh(DOMAIN, nx, nx)
        top = classify_elements(mesh, curve)
        area = sum(
            cut_cell_rule(top, int(e), 1, order=6).weights.sum()
            for e in top.cut_elements
        )
        area += float((top.labels == 1).sum()) * mesh.dx * mesh.dy
        rel_area = abs(area - np.pi * RADIUS**2) / (np.pi * RADIUS**2)
        circ = sum(
            segment_rule(s, curve, 10).weights.sum() for s in top.segments
        )
        rel_circ = abs(circ - 2 * np.pi * RADIUS) / (2 * np.pi * RADIUS)
        assert rel_area <= 1e-10, (nx, rel_area)
        assert rel_circ <= 1e-10, (nx, rel_circ)
        worst_area = max(worst_area, rel_area)
        worst_circ = max(worst_circ, rel_circ)

        pairs = monomial_pairs(4)
        cell_area = mesh.dx * mesh.dy
        for e in top.cut_elements:
            box = mesh.element_box(int(e))
            for side in (1, 2):
                rule = cut_cell_rule(top, int(e), side, order=6)
                want = oracle_side_monomials(curve, box, side, 4, depth=1)
                for a, b in pairs:
                    got = float(
                        rule.weights
                        @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b)
                    )
                    scale = max(abs(want[(a, b)]), cell_area)
                    rel = abs(got - want[(a, b)]) / scale
                    worst_mono = max(worst_mono, rel)
                    assert rel <= 1e-9, (nx, int(e), side, a, b, rel)
    print(
        f"PASS criterion 5 (quadrature oracles): area {worst_area:.2e}, "
        f"circumference {worst_circ:.2e} (<=1e-10); monomials deg<=4 "
        f"{worst_mono:.2e} (<=1e-9)"
    )


def test_criterion_6_inverse_trace_stability():
    from ipfem.geometry import Circle

    curve = Circle(0.0, 0.0, RADIUS)
    by_nx = {}
    for nx in (8, 16, 32, 64):
        mesh = build_mesh(DOMAIN, nx, nx)
        top = classify_elements(mesh, curve)
        rep = probe_inverse_trace(top, 2)
        assert np.isfinite(list(rep.per_element.values())).all(), rep.per_element
        by_nx[nx] = rep.global_max
    spread_h = max(by_nx.values()) / min(by_nx.values())
    assert spread_h <= 2.0, by_nx
    by_p = {}
    mesh = build_mesh(DOMAIN, 16, 16)
    top = classify_elements(mesh, curve)
    for p in (1, 2, 4):
        rep = probe_inverse_trace(top, p)
        assert np.isfinite(list(rep.per_element.values())).all(), rep.per_element
        by_p[p] = rep.global_max
    spread_p = max(by_p.values()) / min(by_p.values())
    assert spread_p <= 2.0, by_p
    print(
        f"PASS criterion 6 (inverse-trace stability): spread over nx "
        f"{spread_h:.3f}, over p {spread_p:.3f} (both <= 2)"
    )


def test_criterion_6_inverse_trace_stability_up_to_p_8():
    # the constant falls monotonically in p once the region rules integrate
    # the degree-2p products exactly: 3.73 at p = 1 to 2.22 at p = 8 (nx =
    # 32), a spread of 1.66 at nx = 16 and 1.68 at nx = 32
    from ipfem.geometry import Circle

    curve = Circle(0.0, 0.0, RADIUS)
    for nx in (16, 32):
        top = classify_elements(build_mesh(DOMAIN, nx, nx), curve)
        by_p = {}
        for p in range(1, 9):
            rep = probe_inverse_trace(top, p)
            assert np.isfinite(list(rep.per_element.values())).all(), (nx, p)
            by_p[p] = rep.global_max
        spread_p = max(by_p.values()) / min(by_p.values())
        assert spread_p <= 2.0, (nx, by_p)
        print(f"PASS criterion 6 at nx = {nx}: spread over p = 1..8 {spread_p:.3f} (<= 2)")


def test_criterion_7_coercivity_region():
    case = catalog()["circle-jump"]
    mesh = build_mesh(DOMAIN, 8, 8)
    top = classify_elements(mesh, case.curve)
    values = {}
    for p in (1, 2):
        space = build_doubled_space(build_dof_map(mesh, p), top)

        def builder(g0, g1, space=space, p=p):
            return assemble(
                space, top, case.problem, PenaltyParams(beta=1, gamma0=g0, gamma1=g1, p=p)
            )

        grid = probe_coercivity(builder, [100.0, 0.01], [1.0], seed=0)
        assert grid[(100.0, 1.0)] > 0.0, (p, grid)
        assert np.isfinite(grid[(0.01, 1.0)]), (p, grid)
        values[p] = grid
    print(
        "PASS criterion 7 (coercivity region): quotients at gamma0=100: "
        f"p=1 {values[1][(100.0, 1.0)]:.3f} > 0, p=2 {values[2][(100.0, 1.0)]:.3f} > 0; "
        f"reported at gamma0=0.01: {values[1][(0.01, 1.0)]:.2f}, {values[2][(0.01, 1.0)]:.2f}"
    )


def test_criterion_8_average_identity():
    from ipfem.assembly import segment_trace_operators

    case = catalog()["circle-jump"]
    _, top, space, params, _ = build_pipeline(case, 2, 8)
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(20):
        v = rng.standard_normal(space.n_unknowns)
        for seg in top.segments:
            rule = segment_rule(seg, case.curve, 8)
            tr = segment_trace_operators(space, case.problem, seg, rule)
            c1 = space.gather(v, seg.element, 1)
            c2 = space.gather(v, seg.neighbor if seg.on_edge else seg.element, 2)
            f1 = tr.flux1 @ c1
            f2 = tr.flux2 @ c2
            avg = 0.5 * (f1 + f2)
            ie = seg.analysis_side
            rhs = (f1 if ie == 1 else f2) + ((-1.0) ** ie / 2.0) * (f1 - f2)
            scale = max(1.0, float(np.max(np.abs(avg))))
            rel = float(np.max(np.abs(avg - rhs))) / scale
            worst = max(worst, rel)
            assert rel <= 1e-12
    print(f"PASS criterion 8 (average identity): worst deviation {worst:.2e} <= 1e-12")


def test_criterion_9_aligned_edge_regression(tmp_path):
    for p in (1, 2):
        slopes = _sweep("aligned-edge", "sip", p, (8, 16, 32, 64), tmp_path / f"ae{p}")
        assert abs(slopes["norm_a"] - p) <= 0.25, (p, slopes)
        assert abs(slopes["l2"] - (p + 1)) <= 0.25, (p, slopes)
        print(
            f"PASS criterion 9 (aligned-edge regression, p={p}): "
            f"slope(normA)={slopes['norm_a']:.3f}, slope(L2)={slopes['l2']:.3f}"
        )


def test_criterion_10_reproducibility(tmp_path):
    digests = []
    for run in ("first", "second"):
        out = tmp_path / run
        cfg = StudyConfig(
            case="circle-jump",
            method="sip",
            p=[1, 2],
            nx=[8, 16],
            out=str(out),
        )
        run_study(cfg)
        digests.append(
            (
                (out / "results.csv").read_bytes(),
                (out / "rates.csv").read_bytes(),
            )
        )
    assert digests[0] == digests[1]
    print(
        "PASS criterion 10 (reproducibility): repeated runs produce "
        "byte-identical CSV outputs"
    )

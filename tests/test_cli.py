import json

import numpy as np
import pytest

from ipfem.cli import (
    CSV_HEADER,
    StudyConfig,
    default_penalties,
    emit_plots,
    list_cases,
    main,
    run_study,
)
from ipfem.cases import catalog
from ipfem.errors import InsufficientData


def test_list_cases_catalog():
    text = list_cases()
    assert "circle-jump" in text
    assert "aligned-edge" in text
    assert "smooth-nojump" in text
    assert len(text.strip().split("\n")) >= 3


def test_default_penalties():
    cases = catalog()
    g0, g1 = default_penalties("sip", cases["circle-jump"])
    assert g0 == pytest.approx(20.0 * (1.0 + 10.0))
    assert g1 == 1.0
    assert default_penalties("nip", cases["circle-jump"]) == (1.0, 1.0)


def test_config_validation():
    with pytest.raises(InsufficientData):
        StudyConfig(case="circle-jump", method="sip", p_list=[1], nx_list=[])
    with pytest.raises(InsufficientData):
        StudyConfig(case="circle-jump", method="sip", p_list=[], nx_list=[8])
    with pytest.raises(ValueError):
        StudyConfig(case="circle-jump", method="fem", p_list=[1], nx_list=[8])
    cfg = StudyConfig(case="circle-jump", method="sip", p_list=[1], nx_list=[2, 8])
    with pytest.raises(ValueError):
        run_study(cfg)


def test_unknown_case_rejected(tmp_path):
    cfg = StudyConfig(
        case="moebius", method="sip", p_list=[1], nx_list=[8], out_dir=str(tmp_path)
    )
    with pytest.raises(ValueError):
        run_study(cfg)


def test_run_study_writes_artifacts(tmp_path):
    cfg = StudyConfig(
        case="circle-jump",
        method="sip",
        p_list=[1],
        nx_list=[8, 16, 32],
        out_dir=str(tmp_path),
    )
    result = run_study(cfg)
    assert not result.failures
    csv_text = (tmp_path / "results.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert 1 in result.rates
    assert abs(result.rates[1].slopes["l2"] - 2.0) < 0.25
    rates_text = (tmp_path / "rates.csv").read_text()
    assert rates_text.startswith("case,method,p,field,slope,pairwise")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["case"] == "circle-jump"
    assert summary["rates"]["1"]["slopes"]["l2"] == pytest.approx(
        result.rates[1].slopes["l2"]
    )


def test_summary_records_condition_estimates(tmp_path):
    for flag in (False, True):
        out = tmp_path / str(flag)
        cfg = StudyConfig(
            case="circle-jump",
            method="sip",
            p_list=[1],
            nx_list=[8, 12],
            out_dir=str(out),
            estimate_cond=flag,
        )
        run_study(cfg)
        summary = json.loads((out / "summary.json").read_text())
        conds = summary["condition_estimate"]
        assert len(conds) == len(summary["rows"]) == 2
        if flag:
            assert all(c > 1.0 for c in conds)
        else:
            assert conds == [None, None]
        assert (out / "results.csv").read_text().split("\n")[0] == CSV_HEADER


def test_summary_records_run_stats(tmp_path):
    summaries = []
    for k in range(2):
        out = tmp_path / str(k)
        run_study(StudyConfig(case="circle-jump", method="sip", p_list=[1, 2], nx_list=[8], out_dir=str(out)))
        summaries.append((out / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
    stats = json.loads(summaries[0])["stats"]
    common = {"cut_elements": 20, "segments": 20, "dropped_arclength": 0.0, "refine_steps": 0}
    # at p = 2 the uncut elements store only their structural nonzeros: the
    # hat-bubble couplings that are zero for a constant coefficient are dropped
    assert stats == [
        {**common, "unknowns": 89, "nnz": 1081, "min_cut_fraction": pytest.approx(0.031499995393823255, rel=1e-12)},
        {**common, "unknowns": 345, "nnz": 6881, "min_cut_fraction": pytest.approx(0.031499995393823255, rel=1e-12)},
    ]
    out = tmp_path / "uncut"
    run_study(StudyConfig(case="aligned-edge", method="nip", p_list=[1], nx_list=[4], out_dir=str(out)))
    (uncut,) = json.loads((out / "summary.json").read_text())["stats"]
    assert uncut["cut_elements"] == 0 and uncut["min_cut_fraction"] is None
    assert uncut["segments"] == 4
    assert (out / "results.csv").read_text().split("\n")[0] == CSV_HEADER


def test_byte_reproducibility(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        cfg = StudyConfig(
            case="aligned-edge",
            method="nip",
            p_list=[1],
            nx_list=[4, 8, 16],
            seed=7,
            out_dir=str(out),
        )
        run_study(cfg)
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "rates.csv").read_bytes() == (out2 / "rates.csv").read_bytes()


def test_dump_flags(tmp_path):
    cfg = StudyConfig(
        case="circle-jump",
        method="sip",
        p_list=[1],
        nx_list=[8],
        out_dir=str(tmp_path),
        dump_matrix=True,
        dump_quadrature=True,
    )
    run_study(cfg)
    mat = tmp_path / "matrix_circle-jump_sip_p1_nx8.txt"
    quad = tmp_path / "quadrature_circle-jump_sip_p1_nx8.csv"
    assert mat.exists()
    row, col, val = mat.read_text().split("\n")[0].split()
    int(row), int(col), float(val)
    assert quad.read_text().startswith("element,side,x,y,w")


def test_main_entry_and_exit_codes(tmp_path, capsys):
    rc = main(["list-cases"])
    assert rc == 0
    rc = main(
        [
            "run",
            "--case",
            "circle-jump",
            "--method",
            "sip",
            "--p",
            "1",
            "--nx",
            "8,16,32",
            "--out",
            str(tmp_path / "run"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "l2=" in out
    # insufficient config
    rc = main(["run", "--case", "circle-jump", "--method", "sip", "--p", "1"])
    assert rc == 2


def test_config_file_roundtrip(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        json.dumps(
            {
                "case": "circle-jump",
                "method": "sip",
                "p": [1],
                "nx": [8, 16, 32],
                "out": str(tmp_path / "fromfile"),
            }
        )
    )
    rc = main(["run", "--config", str(cfg_path)])
    assert rc == 0
    direct = tmp_path / "direct"
    rc = main(
        [
            "run",
            "--case",
            "circle-jump",
            "--method",
            "sip",
            "--p",
            "1",
            "--nx",
            "8,16,32",
            "--out",
            str(direct),
        ]
    )
    assert rc == 0
    assert (tmp_path / "fromfile" / "results.csv").read_bytes() == (
        direct / "results.csv"
    ).read_bytes()


def test_emit_plots(tmp_path):
    cfg = StudyConfig(
        case="circle-jump",
        method="sip",
        p_list=[1],
        nx_list=[8, 16, 32],
        out_dir=str(tmp_path),
    )
    run_study(cfg)
    csv_path = tmp_path / "results.csv"
    script_path = tmp_path / "plots.py"
    text1 = emit_plots([str(csv_path)], script_path)
    text2 = emit_plots([str(csv_path)], script_path)
    assert text1 == text2  # byte-identical on rerun
    assert script_path.read_text() == text1
    assert "loglog" in text1
    compile(text1, str(script_path), "exec")  # valid python, never executed
    with pytest.raises(FileNotFoundError):
        emit_plots([str(tmp_path / "missing.csv")], script_path)


def test_probes_subcommand(tmp_path):
    rc = main(
        [
            "probes",
            "--probe",
            "invtrace",
            "--case",
            "circle-jump",
            "--nx",
            "8",
            "--p",
            "2",
            "--samples",
            "5",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    text = (tmp_path / "probe_invtrace.csv").read_text()
    assert text.startswith("probe,nx,p,element,value")
    rc = main(
        [
            "probes",
            "--probe",
            "coercivity",
            "--case",
            "circle-jump",
            "--nx",
            "8",
            "--p",
            "1",
            "--gamma0",
            "100,0.01",
            "--gamma1",
            "1",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    text = (tmp_path / "probe_coercivity.csv").read_text()
    assert "coercivity" in text



def test_probe_errors_exit_2(tmp_path, capsys):
    # a circle outside the domain leaves no interface segment to measure
    for probe in ("trace", "invtrace", "G"):
        rc = main(["probes", "--probe", probe, "--curve", "circle:5,5,0.5", "--nx", "4", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: no interface segments")
    rc = main(["probes", "--probe", "trace", "--case", "nope", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: unknown case 'nope'")

def test_aligned_edge_hosts_side1(tmp_path):
    cfg = StudyConfig(
        case="aligned-edge",
        method="sip",
        p_list=[1],
        nx_list=[8],
        out_dir=str(tmp_path),
    )
    result = run_study(cfg)
    assert not result.failures
    from ipfem.cases import DOMAIN, catalog
    from ipfem.geometry import classify_elements
    from ipfem.mesh import build_mesh

    case = catalog()["aligned-edge"]
    mesh = build_mesh(DOMAIN, 8, 8)
    top = classify_elements(mesh, case.curve)
    for seg in top.segments:
        assert seg.on_edge
        cx = mesh.element_box(seg.element)[0] + mesh.dx / 2
        assert float(case.curve.signed_distance(cx, 0.0)) < 0.0


def test_smooth_nojump_jump_penalty_small(tmp_path):
    from helpers import build_pipeline
    from ipfem.errors import energy_norm_squared
    from ipfem.solver import solve

    case = catalog()["smooth-nojump"]
    _, top, space, params, system = build_pipeline(
        case, 2, 32, beta=1, gamma0=20.0, gamma1=1.0
    )
    sol = solve(system).solution
    j0_form = float(sol @ (system.blocks["j0"] @ sol))
    energy = energy_norm_squared(space, top, case.problem, params, sol)
    assert j0_form <= 1e-8 * energy


def test_rates_stable_under_extra_quadrature(tmp_path):
    # raising the quadrature order must not move the observed rates:
    # quadrature is not the accuracy bottleneck
    slopes = {}
    for extra in (0, 2):
        cfg = StudyConfig(
            case="circle-jump",
            method="sip",
            p_list=[1],
            nx_list=[8, 16, 32],
            quad_extra=extra,
            out_dir=str(tmp_path / f"extra{extra}"),
        )
        result = run_study(cfg)
        slopes[extra] = result.rates[1].slopes
    for field in ("l2", "norm_a"):
        assert abs(slopes[0][field] - slopes[2][field]) < 0.02


def test_run_failures_annotated(tmp_path, monkeypatch):
    import ipfem.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("injected solver failure")

    monkeypatch.setattr(cli, "solve", boom)
    cfg = StudyConfig(
        case="circle-jump",
        method="sip",
        p_list=[1],
        nx_list=[8, 16],
        out_dir=str(tmp_path),
    )
    result = run_study(cfg)
    assert len(result.failures) == 2
    assert result.failures[0][:3] == ("circle-jump", 1, 8)
    assert "injected solver failure" in result.failures[0][3]
    assert not result.rows

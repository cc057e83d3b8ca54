import json
import runpy
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from ipfem.cli import (
    CSV_HEADER,
    StudyConfig,
    _local_figure,
    default_penalties,
    emit_plots,
    list_cases,
    main,
    run_single,
    run_study,
)
from ipfem.assembly import build_plan
from ipfem.cases import DOMAIN, catalog
from ipfem.errors import InsufficientData, energy_norm_squared
from ipfem.geometry import classify_elements
from ipfem.mesh import build_mesh
from ipfem.probes import probe_G, probe_trace
from ipfem.quadrature import pass_order
from ipfem.solver import ConvergenceFailure, _jacobi_factors, colamd_solve, diagonal_scale, solve

from helpers import build_pipeline


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


def test_an_unknown_method_is_rejected_not_run_as_nip():
    case = catalog()["circle-jump"]
    with pytest.raises(ValueError, match="method must be sip or nip, got 'SIP'"):
        default_penalties("SIP", case)
    with pytest.raises(ValueError, match="method must be sip or nip, got 'SIP'"):
        run_single(case, "SIP", 1, 8, 220.0, 1.0)


def test_config_validation():
    with pytest.raises(InsufficientData):
        StudyConfig(case="circle-jump", method="sip", p=[1], nx=[])
    with pytest.raises(InsufficientData):
        StudyConfig(case="circle-jump", method="sip", p=[], nx=[8])
    with pytest.raises(ValueError):
        StudyConfig(case="circle-jump", method="fem", p=[1], nx=[8])
    cfg = StudyConfig(case="circle-jump", method="sip", p=[1], nx=[2, 8])
    with pytest.raises(ValueError):
        run_study(cfg)


@pytest.mark.parametrize("argv, problem", [
    (["--p", "1", "--nx", "32,16,8"], "setting 'nx' must be strictly increasing, got [32, 16, 8]"),
    (["--p", "1", "--nx", "8,8,16"], "setting 'nx' must be strictly increasing, got [8, 8, 16]"),
    (["--p", "2,1,2", "--nx", "8"], "setting 'p' must not repeat a degree, got [2, 1, 2]"),
])
def test_an_unordered_sweep_is_a_usage_error_before_any_run(tmp_path, capsys, monkeypatch, argv, problem):
    # each degree's rates need h to fall; the sweep used to run every row and
    # then stop in estimate_rates, writing no output file
    import ipfem.cli as cli

    monkeypatch.setattr(cli, "run_single", lambda *args, **kwargs: pytest.fail("a run started"))
    out = tmp_path / "out"
    assert main(["run", *argv, "--out", str(out)]) == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()


def test_unknown_case_rejected(tmp_path):
    cfg = StudyConfig(
        case="moebius", method="sip", p=[1], nx=[8], out=str(tmp_path)
    )
    with pytest.raises(ValueError):
        run_study(cfg)


def test_run_study_writes_artifacts(tmp_path):
    cfg = StudyConfig(
        case="circle-jump",
        method="sip",
        p=[1],
        nx=[8, 16, 32],
        out=str(tmp_path),
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


LOCAL_KEYS = ("local_ratio", "local_element", "local_side")


def test_summary_has_no_condition_estimate_and_no_local_figure_without_the_check(tmp_path):
    run_study(StudyConfig(case="circle-jump", method="sip", p=[1], nx=[8, 12], out=str(tmp_path)))
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert "condition_estimate" not in summary
    assert len(summary["stats"]) == len(summary["rows"]) == 2
    assert all(not set(LOCAL_KEYS) & row.keys() for row in summary["stats"])
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--p", "1", "--nx", "8", "--estimate-cond", "--out", str(tmp_path / "flag")])
    assert exit_info.value.code == 2 and not (tmp_path / "flag").exists()


@pytest.mark.parametrize("method, p, ratio", [("sip", 2, 7.7e-7), ("sip", 3, 2.1e-12), ("nip", 3, 1.57e-11)])
def test_local_figure_names_the_smallest_cut_block(tmp_path, method, p, ratio):
    # circle-jump, nx = 8: the smallest lambda_min / lambda_max over the
    # Jacobi-scaled cut (element, side) blocks falls by five orders from
    # p = 2 to p = 3; its block is side 1 of element 41, a fraction of 3.15e-2
    assert main(["run", "--method", method, "--p", str(p), "--nx", "8", "--check-spread",
                 "--out", str(tmp_path)]) == 0
    (row,) = json.loads((tmp_path / "summary.json").read_text())["stats"]
    assert row["local_ratio"] == pytest.approx(ratio, rel=0.05)
    assert (row["local_element"], row["local_side"]) == (41, 1)


def test_local_figure_reaches_round_off_at_p_4_and_is_null_without_a_cut(tmp_path):
    run_study(StudyConfig(p=[4], nx=[8], check_spread=True, out=str(tmp_path / "cut")))
    (row,) = json.loads((tmp_path / "cut" / "summary.json").read_text())["stats"]
    assert row["local_ratio"] < 1e-14
    run_study(StudyConfig(case="aligned-edge", p=[2], nx=[8], check_spread=True, out=str(tmp_path / "uncut")))
    (row,) = json.loads((tmp_path / "uncut" / "summary.json").read_text())["stats"]
    assert row["cut_elements"] == 0
    assert [row[key] for key in LOCAL_KEYS] == [None, None, None]


def test_local_figure_is_that_of_each_block_alone():
    # the batched blocks against one sparse slice and one eigvalsh per block
    # of the solver's scaled matrix; at nx = 4 cut elements touch the
    # boundary, so their blocks lose the constrained unknowns
    _, top, space, _, system = build_pipeline(catalog()["circle-jump"], 2, 4, beta=-1)
    scaled = diagonal_scale(system.matrix, _jacobi_factors(system.matrix))
    figures, dropped = [], 0
    for e in top.cut_elements:
        for side in (1, 2):
            idx = space.element_unknowns(e, side)
            dropped += int((idx < 0).sum())
            block = scaled[idx[idx >= 0]][:, idx[idx >= 0]].toarray()
            lam = np.linalg.eigvalsh(0.5 * (block + block.T))
            figures.append((lam[0] / lam[-1], int(e), side))
    assert dropped > 0
    ratio, element, side = min(figures)
    assert _local_figure(space, top, system) == {"local_ratio": ratio, "local_element": element, "local_side": side}


def test_summary_records_run_stats(tmp_path):
    summaries = []
    for k in range(2):
        out = tmp_path / str(k)
        run_study(StudyConfig(case="circle-jump", method="sip", p=[1, 2], nx=[8], out=str(out)))
        summaries.append((out / "summary.json").read_bytes())
    assert summaries[0] == summaries[1]
    stats = json.loads(summaries[0])["stats"]
    common = {"cut_elements": 20, "segments": 20, "dropped_arclength": 0.0, "refine_steps": 0, "spread": None}
    # at p = 2 the uncut elements store only their structural nonzeros: the
    # hat-bubble couplings that are zero for a constant coefficient are dropped
    assert stats == [
        {**common, "unknowns": 89, "nnz": 1081, "factor_nnz": 2364,
         "min_cut_fraction": pytest.approx(0.031499995393823255, rel=1e-12)},
        {**common, "unknowns": 345, "nnz": 6881, "factor_nnz": 18416,
         "min_cut_fraction": pytest.approx(0.031499995393823255, rel=1e-12)},
    ]
    out = tmp_path / "uncut"
    run_study(StudyConfig(case="aligned-edge", method="nip", p=[1], nx=[4], out=str(out)))
    (uncut,) = json.loads((out / "summary.json").read_text())["stats"]
    assert uncut["cut_elements"] == 0 and uncut["min_cut_fraction"] is None
    assert uncut["segments"] == 4
    assert (out / "results.csv").read_text().split("\n")[0] == CSV_HEADER


def test_pivot_order_spread_is_small_where_the_system_is_well_conditioned(tmp_path):
    files = {}
    for flag in (False, True):
        out = tmp_path / str(flag)
        run_study(StudyConfig(case="circle-jump", method="sip", p=[1, 2], nx=[8, 16],
                              out=str(out), check_spread=flag))
        files[flag] = {name: (out / name).read_bytes() for name in ("results.csv", "rates.csv", "summary.json")}
    spreads = [row["spread"] for row in json.loads(files[True]["summary.json"])["stats"]]
    assert len(spreads) == 4
    assert all(np.isfinite(v) and 0.0 <= v <= 1e-8 for v in spreads)
    # the check only adds the spreads: every other output byte is that of a run without it
    assert files[True]["results.csv"] == files[False]["results.csv"]
    assert files[True]["rates.csv"] == files[False]["rates.csv"]
    summary = json.loads(files[True]["summary.json"])
    for row in summary["stats"]:
        row["spread"] = None
        for key in LOCAL_KEYS:
            del row[key]
    assert (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode() == files[False]["summary.json"]
    out = tmp_path / "cli"
    assert main(["run", "--case", "circle-jump", "--p", "1", "--nx", "8", "--check-spread", "--out", str(out)]) == 0
    (row,) = json.loads((out / "summary.json").read_text())["stats"]
    assert row["spread"] == spreads[0]
    assert row["local_ratio"] == pytest.approx(5.2e-2, rel=0.05)


def test_spread_is_the_energy_norm_of_the_pivot_order_difference(tmp_path):
    # delta = ||x1 - x2||_E / ||x1||_E on circle-jump, SIP, nx = 8: the
    # system is determined to round-off through p = 3, and not from p = 4
    # (4.9e-7 at p = 4, 2.4e-6 at p = 6, where d^T E d is negative)
    degrees = [1, 2, 3, 4, 6]
    run_study(StudyConfig(case="circle-jump", method="sip", p=degrees, nx=[8],
                          out=str(tmp_path), check_spread=True))
    stats = json.loads((tmp_path / "summary.json").read_text())["stats"]
    delta = dict(zip(degrees, (row["spread"] for row in stats)))
    assert all(0.0 <= delta[p] <= 1e-8 for p in (1, 2, 3)), delta
    assert all(np.isfinite(delta[p]) and delta[p] > 1e-8 for p in (4, 6)), delta
    # both norms as sums of squares at the error pass's nodes
    case = catalog()["circle-jump"]
    for p in degrees:
        _, top, space, params, system = build_pipeline(case, p, 8)
        x1 = solve(system).solution
        d = x1 - colamd_solve(system).solution
        want = np.sqrt(energy_norm_squared(space, top, case.problem, params, d)
                       / energy_norm_squared(space, top, case.problem, params, x1))
        assert delta[p] == pytest.approx(want, rel=1e-12)


def test_max_delta_fails_the_undetermined_rows(tmp_path):
    # circle-jump, SIP, nx = 8 at X = 1e-8: p = 1-3 pass, while p = 4 and
    # p = 6 fail (delta 4.9e-7 and 2.4e-6); the gate adds failures and the
    # exit code, and every row is still written
    plain, gated = tmp_path / "plain", tmp_path / "gated"
    argv = ["run", "--case", "circle-jump", "--p", "1,2,3,4,6", "--nx", "8"]
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--max-delta", "1e-8", "--out", str(gated)]) == 1
    summary = json.loads((gated / "summary.json").read_text())
    delta = {int(row.split(",")[2]): stats["spread"] for row, stats in zip(summary["rows"], summary["stats"])}
    assert all(delta[p] <= 1e-8 for p in (1, 2, 3)) and all(delta[p] > 1e-8 for p in (4, 6)), delta
    assert [(case, p, nx) for case, p, nx, _ in summary["failures"]] == [("circle-jump", 4, 8), ("circle-jump", 6, 8)]
    for _, p, _, message in summary["failures"]:
        assert message.startswith("Undetermined: delta ") and message.endswith(" exceeds max_delta 1e-08")
        assert float(message.split()[2]) == delta[p]
    assert summary["config"]["max_delta"] == 1e-8
    assert "max_delta" not in json.loads((plain / "summary.json").read_text())["config"]
    assert (gated / "results.csv").read_bytes() == (plain / "results.csv").read_bytes()
    for bad in ("nan", "inf", "-1"):
        assert main(argv + ["--max-delta", bad, "--out", str(tmp_path / "bad")]) == 2
    assert StudyConfig(case="circle-jump", method="sip", p=[1], nx=[8], max_delta=0).check_spread


def test_a_failed_second_solve_leaves_the_spread_undetermined(tmp_path, monkeypatch, capsys):
    # the run's own solve succeeded, so its row is written; delta is NaN,
    # which --max-delta fails
    import ipfem.cli as cli

    def stalled(system):
        raise ConvergenceFailure("direct solve stalled")

    monkeypatch.setattr(cli, "colamd_solve", stalled)
    argv = ["run", "--case", "circle-jump", "--method", "sip", "--p", "1", "--nx", "8"]
    for gate, code in (([], 0), (["--max-delta", "1e-8"], 1)):
        out = tmp_path / str(code)
        assert main(argv + ["--check-spread", "--out", str(out)] + gate) == code
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["rows"]) == len((out / "results.csv").read_text().splitlines()) - 1 == 1
        assert np.isnan(summary["stats"][0]["spread"])
        messages = [message for *_, message in summary["failures"]]
        assert messages == ([] if code == 0 else ["Undetermined: delta nan exceeds max_delta 1e-08"])
    assert "FAILED case=circle-jump p=1 nx=8: Undetermined: delta nan" in capsys.readouterr().err


def test_byte_reproducibility(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        cfg = StudyConfig(
            case="aligned-edge",
            method="nip",
            p=[1],
            nx=[4, 8, 16],
            out=str(out),
        )
        run_study(cfg)
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "rates.csv").read_bytes() == (out2 / "rates.csv").read_bytes()


def test_dump_flags(tmp_path):
    cfg = StudyConfig(
        case="circle-jump",
        method="sip",
        p=[1],
        nx=[8],
        out=str(tmp_path),
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
    # the dumped rules are the assembly plan's cut-cell rules
    _, top, space, _, _ = build_pipeline(catalog()["circle-jump"], 1, 8)
    plan = build_plan(space, top, pass_order(1), 1)
    dumped = [float(line.split(",")[4]) for line in quad.read_text().splitlines()[1:]]
    assert sorted(dumped) == sorted(np.concatenate([g.w.ravel() for g in plan.groups[2:]]).tolist())


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


def test_non_finite_penalty_is_a_usage_error(tmp_path, capsys):
    for flag, value in (("--gamma0", "nan"), ("--gamma1", "inf")):
        out = tmp_path / flag.strip("-")
        rc = main(["run", "--case", "circle-jump", "--p", "2", "--nx", "8", flag, value, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: penalty parameters must be finite")
        assert not out.exists()


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


def test_flags_win_over_config_entries_over_defaults(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"p": "1,2", "nx": [8], "gamma0": 50.0, "check_spread": True,
                                    "out": str(tmp_path / "fromfile")}))
    out = tmp_path / "flags"
    assert main(["run", "--config", str(cfg_path), "--p", "1", "--gamma0", "60", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"] == {"case": "circle-jump", "method": "sip", "p": [1], "nx": [8],
                                 "gamma0": 60.0, "gamma1": 1.0, "quad_extra": 0}
    # a store_true flag not given leaves the file's entry in force
    assert np.isfinite(summary["stats"][0]["spread"])
    assert not (tmp_path / "fromfile").exists()
    defaults = StudyConfig(p=[1], nx=[8])
    assert (defaults.case, defaults.method, defaults.out) == ("circle-jump", "sip", "study-out")


@pytest.mark.parametrize("text,problem", [
    ('{"p": [1], "nx": [8], "gamma_0": 5}', "unknown settings ['gamma_0']"),
    ('{"p": [1], "nx": [8], "cut_threshold": 1e-14}', "unknown settings ['cut_threshold']"),
    ('{"p": [1], "nx": [8],', "cannot read config file"),
    ('[1, 8]', "holds no JSON object"),
    (None, "cannot read config file"),
    ('{"p": 1, "nx": [8]}', "setting 'p' must be a list of integers, got 1"),
    ('{"p": [1], "nx": [8], "gamma0": "abc"}', "setting 'gamma0' must be a number or null, got 'abc'"),
    ('{"p": [1.5], "nx": [8]}', "setting 'p' must be a list of integers, got [1.5]"),
    ('{"p": [1], "nx": [8], "quad_extra": 1.7}', "setting 'quad_extra' must be an integer, got 1.7"),
    ('{"p": [1], "nx": [8], "max_delta": true}', "setting 'max_delta' must be a number or null, got True"),
    ('{"p": [1], "nx": [8], "check_spread": 1}', "setting 'check_spread' must be true or false, got 1"),
    ('{"p": [1], "nx": [8], "case": 3}', "setting 'case' must be a string, got 3"),
])
def test_a_bad_config_file_is_a_usage_error(tmp_path, capsys, text, problem):
    cfg_path = tmp_path / "config.json"
    if text is not None:
        cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()


def test_emit_plots(tmp_path):
    cfg = StudyConfig(
        case="circle-jump",
        method="sip",
        p=[1],
        nx=[8, 16, 32],
        out=str(tmp_path),
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


class _Figure:
    """Stands in for a matplotlib figure and its axes: every call is
    accepted, ``loglog`` and ``savefig`` are recorded."""

    def __init__(self, calls):
        self.calls = calls

    def loglog(self, xs, ys, *args, **kwargs):
        self.calls.append(("loglog", len(xs)))

    def savefig(self, name, **kwargs):
        self.calls.append(("savefig", Path(name).name))

    def __getattr__(self, name):
        return lambda *args, **kwargs: None


@pytest.mark.parametrize("levels", [1, 3])
def test_emitted_plot_script_runs(tmp_path, monkeypatch, levels):
    hs = [0.25 / 2**k for k in range(levels)]
    csv_path = tmp_path / "results.csv"
    rows = "".join(f"1,{h!r},{h * h!r},{h!r},{h!r},{h!r}\n" for h in hs)
    csv_path.write_text("p,h,l2,h1_broken,normA,normB\n" + rows)
    calls = []
    figure = _Figure(calls)
    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = lambda: (figure, figure)
    pyplot.close = lambda fig: None
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    script = tmp_path / "plots.py"
    emit_plots([str(csv_path)], script)
    runpy.run_path(str(script), run_name="__main__")

    norms = ("l2", "h1_broken", "normA", "normB")
    assert [name for kind, name in calls if kind == "savefig"] == [f"results_{norm}.png" for norm in norms]
    # the data line of every norm, plus a slope triangle once there are two levels
    per_norm = [("loglog", levels)] + ([("loglog", 4)] if levels >= 2 else [])
    assert [c for c in calls if c[0] == "loglog"] == per_norm * len(norms)


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


@pytest.mark.parametrize("probe, name", [("trace", "trace"), ("G", "far-point-distance")])
def test_probes_subcommand_trace_and_g(tmp_path, probe, name):
    rc = main(["probes", "--probe", probe, "--case", "circle-jump", "--nx", "8", "--samples", "5",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / f"probe_{probe}.csv").read_text().splitlines()
    assert lines[0] == "probe,nx,p,element,value"
    mesh = build_mesh(DOMAIN, 8, 8)
    hosts = sorted({seg.element for seg in classify_elements(mesh, catalog()["circle-jump"].curve).segments})
    rows = [line.split(",") for line in lines[1:]]
    assert [row[:3] for row in rows] == [[name, "8", "0"]] * (len(hosts) + 2)
    assert [row[3] for row in rows] == [str(e) for e in hosts] + ["max", "median"]
    values = [float(row[4]) for row in rows]
    assert values[-2] == max(values[:-2]) and min(values[:-2]) <= values[-1] <= values[-2]


@pytest.mark.parametrize("probe", ["trace", "G"])
@pytest.mark.parametrize("samples", ["0", "-1", "2.5", "x"])
def test_probe_samples_must_be_a_positive_integer(tmp_path, capsys, probe, samples):
    # --samples 0 made the trace probe measure only its oscillatory field
    with pytest.raises(SystemExit) as exit_info:
        main(["probes", "--probe", probe, "--samples", samples, "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert f"argument --samples: must be a positive integer, got '{samples}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_probes_without_samples_take_each_probe_default(tmp_path):
    # 64 points per segment for G, 20 cubics per segment for the trace probe
    top = classify_elements(build_mesh(DOMAIN, 8, 8), catalog()["circle-jump"].curve)
    for probe, report in (("G", probe_G(top)), ("trace", probe_trace(top))):
        assert main(["probes", "--probe", probe, "--nx", "8", "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / f"probe_{probe}.csv").read_text().splitlines()[1:]]
        values = {row[3]: float(row[4]) for row in rows}
        assert values == {**{str(e): v for e, v in report.per_element.items()},
                          "max": report.global_max, "median": report.global_median}


def test_probes_subcommand_invtrace_measures_every_host_at_p_8(tmp_path):
    # circle-jump at p = 8, nx = 32: every host's constant is finite, and the
    # max is 2.22, against 4.61 from region rules of order p + 3
    rc = main(["probes", "--probe", "invtrace", "--case", "circle-jump", "--nx", "32", "--p", "8",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = [line.split(",") for line in (tmp_path / "probe_invtrace.csv").read_text().splitlines()[1:]]
    values = {row[3]: float(row[4]) for row in rows}
    measured = [v for k, v in values.items() if k not in ("max", "median")]
    assert np.isfinite(measured).all()
    assert values["max"] == max(measured) < 2.5 and values["median"] == np.median(measured)


def test_probe_errors_exit_2(tmp_path, capsys):
    # a circle outside the domain leaves no interface segment to measure
    for probe in ("trace", "invtrace", "G"):
        rc = main(["probes", "--probe", probe, "--curve", "circle:5,5,0.5", "--nx", "4", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: no interface segments")
    rc = main(["probes", "--probe", "trace", "--case", "nope", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: unknown case 'nope'")
    # topologies that classification rejects: a circle leaving the domain, and
    # an open line that ends inside it
    for curve, message in (("circle:0.9,0,0.5", "error: curve crosses the domain boundary"),
                           ("vline:0,-0.5,0.5", "error: open curve ends at")):
        rc = main(["probes", "--probe", "G", "--curve", curve, "--nx", "8", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(message)

def test_aligned_edge_hosts_side1(tmp_path):
    cfg = StudyConfig(
        case="aligned-edge",
        method="sip",
        p=[1],
        nx=[8],
        out=str(tmp_path),
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
            p=[1],
            nx=[8, 16, 32],
            quad_extra=extra,
            out=str(tmp_path / f"extra{extra}"),
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
        p=[1],
        nx=[8, 16],
        out=str(tmp_path),
    )
    result = run_study(cfg)
    assert len(result.failures) == 2
    assert result.failures[0][:3] == ("circle-jump", 1, 8)
    assert "injected solver failure" in result.failures[0][3]
    assert not result.rows

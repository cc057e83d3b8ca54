"""Command-line front end: manufactured convergence studies, probe runs and
machine-readable outputs.

The run subcommand sweeps (p, nx) for one case and method, writes one CSV row
per run plus a per-p rate summary, and exits nonzero if any run failed.  All
outputs are plain text with fixed formatting, so identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assembly import PenaltyParams, assemble
from .cases import DOMAIN, ManufacturedCase, catalog
from .errors import InsufficientData, compute_errors, estimate_rates
from .fe_space import build_dof_map, build_doubled_space
from .geometry import classify_elements, parse_curve
from .mesh import build_mesh
from .probes import ProbeError, probe_coercivity, probe_G, probe_inverse_trace, probe_trace
from .quadrature import cut_cell_rule
from .solver import solve

CSV_HEADER = "case,method,p,nx,h,dofs,gamma0,gamma1,l2,h1_broken,normA,normB,j0,j1,residual"


@dataclass
class StudyConfig:
    case: str
    method: str  # "sip" or "nip"
    p_list: list
    nx_list: list
    gamma0: float | None = None
    gamma1: float | None = None
    quad_extra: int = 0
    seed: int = 0
    out_dir: str = "study-out"
    estimate_cond: bool = False
    dump_matrix: bool = False
    dump_quadrature: bool = False
    cut_threshold: float = 1e-12

    def __post_init__(self):
        if self.method not in ("sip", "nip"):
            raise ValueError(f"method must be sip or nip, got {self.method!r}")
        if not self.p_list:
            raise InsufficientData("empty p list")
        if not self.nx_list:
            raise InsufficientData("empty nx list")


def default_penalties(method: str, case: ManufacturedCase):
    """gamma0 = 20 (1 + max a / min a), gamma1 = 1 for the symmetric method;
    (1, 1) for the non-symmetric one, whose coercivity needs only a positive
    product."""
    if method == "sip":
        return 20.0 * (1.0 + case.a_ratio), 1.0
    return 1.0, 1.0


def _fmt(x) -> str:
    return format(float(x), ".17g")


@dataclass
class StudyResult:
    rows: list = field(default_factory=list)
    condition_estimates: list = field(default_factory=list)  # per row; None unless estimate_cond
    stats: list = field(default_factory=list)  # per row, see _run_stats
    rates: dict = field(default_factory=dict)  # p -> RateSummary
    failures: list = field(default_factory=list)


def run_single(case: ManufacturedCase, method: str, p: int, nx: int,
               gamma0: float, gamma1: float, quad_extra: int = 0,
               cut_threshold: float = 1e-12, estimate_cond: bool = False):
    """One (p, nx) run: mesh -> geometry -> space -> assemble -> solve -> errors."""
    mesh = build_mesh(DOMAIN, nx, nx)
    topology = classify_elements(mesh, case.curve, cut_threshold=cut_threshold)
    space = build_doubled_space(build_dof_map(mesh, p), topology)
    params = PenaltyParams(beta=1 if method == "sip" else -1,
                           gamma0=gamma0, gamma1=gamma1, p=p)
    system = assemble(space, topology, case.problem, params,
                      quad_order=p + 2 + quad_extra)
    report = solve(system, estimate_cond=estimate_cond)
    err = compute_errors(space, topology, case.problem, report.solution, params,
                         quad_order=p + 4 + quad_extra)
    return mesh, topology, space, system, report, err


def _run_stats(topology, space, system, report) -> dict:
    """Deterministic size and health figures of one run: unknowns, matrix
    nonzeros, cut elements, segments, the smallest cut-side area fraction
    (None when nothing is cut), dropped arclength and refinement steps."""
    cut = topology.cut_elements
    return {
        "unknowns": int(space.n_unknowns),
        "nnz": int(system.matrix.nnz),
        "cut_elements": int(len(cut)),
        "segments": len(topology.segments),
        "min_cut_fraction": float(topology.fractions[cut].min()) if len(cut) else None,
        "dropped_arclength": float(topology.dropped_arclength),
        "refine_steps": int(report.iterations),
    }


def _case(name: str) -> ManufacturedCase:
    cases = catalog()
    if name not in cases:
        raise ValueError(f"unknown case {name!r}; see list-cases")
    return cases[name]


def run_study(config: StudyConfig) -> StudyResult:
    """Execute the configured sweep and write results.csv / rates.csv /
    summary.json under the output directory."""
    case = _case(config.case)
    if case.curve.closed and any(nx < 4 for nx in config.nx_list):
        raise ValueError("cut cases need nx >= 4 to keep one segment per element")
    case.problem.validate(case.curve)

    g0_default, g1_default = default_penalties(config.method, case)
    gamma0 = g0_default if config.gamma0 is None else config.gamma0
    gamma1 = g1_default if config.gamma1 is None else config.gamma1

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = StudyResult()
    reports_by_p = {}

    for p in config.p_list:
        reports_by_p[p] = []
        for nx in config.nx_list:
            try:
                mesh, topology, space, system, rep, err = run_single(
                    case, config.method, p, nx, gamma0, gamma1,
                    quad_extra=config.quad_extra,
                    cut_threshold=config.cut_threshold,
                    estimate_cond=config.estimate_cond,
                )
            except Exception as exc:  # noqa: BLE001 - annotate and keep sweeping
                result.failures.append((config.case, p, nx, f"{type(exc).__name__}: {exc}"))
                continue
            row = ",".join(
                [
                    config.case,
                    config.method,
                    str(p),
                    str(nx),
                    _fmt(err.h),
                    str(err.dofs),
                    _fmt(gamma0),
                    _fmt(gamma1),
                    _fmt(err.l2),
                    _fmt(err.h1_broken),
                    _fmt(err.norm_a),
                    _fmt(err.norm_b),
                    _fmt(err.j0_value),
                    _fmt(err.j1_value),
                    _fmt(rep.rel_residual),
                ]
            )
            result.rows.append(row)
            result.condition_estimates.append(rep.condition_estimate)
            result.stats.append(_run_stats(topology, space, system, rep))
            reports_by_p[p].append(err)
            if config.dump_matrix:
                _dump_matrix(out, config, p, nx, system)
            if config.dump_quadrature:
                _dump_quadrature(out, config, p, nx, topology)
        if len(reports_by_p[p]) >= 3:
            result.rates[p] = estimate_rates(reports_by_p[p])

    (out / "results.csv").write_text(CSV_HEADER + "\n" + "\n".join(result.rows) + "\n")
    _write_rates(out / "rates.csv", config, result.rates)
    _write_summary(out / "summary.json", config, gamma0, gamma1, result)
    return result


def _dump_matrix(out: Path, config: StudyConfig, p: int, nx: int, system):
    coo = system.matrix.tocoo()
    lines = [
        f"{i} {j} {format(v, '.17g')}" for i, j, v in zip(coo.row, coo.col, coo.data)
    ]
    name = f"matrix_{config.case}_{config.method}_p{p}_nx{nx}.txt"
    (out / name).write_text("\n".join(lines) + "\n")


def _dump_quadrature(out: Path, config: StudyConfig, p: int, nx: int, topology):
    lines = ["element,side,x,y,w"]
    cut = topology.cut_elements
    if len(cut):
        rules = cut_cell_rule(topology, np.repeat(cut, 2), np.tile([1, 2], len(cut)), p + 2 + config.quad_extra)
        for rule in rules:
            for (x, y), w in zip(rule.points, rule.weights):
                lines.append(f"{rule.element},{rule.side},{x:.17g},{y:.17g},{w:.17g}")
    name = f"quadrature_{config.case}_{config.method}_p{p}_nx{nx}.csv"
    (out / name).write_text("\n".join(lines) + "\n")


def _write_rates(path: Path, config: StudyConfig, rates: dict):
    lines = ["case,method,p,field,slope,pairwise"]
    for p in sorted(rates):
        summary = rates[p]
        for fieldname, slope in summary.slopes.items():
            pw = ";".join(format(v, ".6g") for v in summary.pairwise[fieldname])
            lines.append(
                f"{config.case},{config.method},{p},{fieldname},{format(slope, '.6g')},{pw}"
            )
    path.write_text("\n".join(lines) + "\n")


def _write_summary(path: Path, config: StudyConfig, gamma0, gamma1, result: StudyResult):
    payload = {
        "config": {
            "case": config.case,
            "method": config.method,
            "p": list(config.p_list),
            "nx": list(config.nx_list),
            "gamma0": gamma0,
            "gamma1": gamma1,
            "quad_extra": config.quad_extra,
            "seed": config.seed,
            "cut_threshold": config.cut_threshold,
        },
        "rows": result.rows,
        "condition_estimate": result.condition_estimates,
        "stats": result.stats,
        "rates": {
            str(p): {
                "slopes": result.rates[p].slopes,
                "pairwise": result.rates[p].pairwise,
            }
            for p in result.rates
        },
        "failures": [list(f) for f in result.failures],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def list_cases() -> str:
    lines = []
    for name, case in catalog().items():
        lines.append(f"{name}: {case.description}")
    return "\n".join(lines)


def emit_plots(csv_paths, out_path) -> str:
    """Write a self-contained matplotlib script for log-log error-vs-h plots
    with reference slope triangles; the script is never executed here."""
    for path in csv_paths:
        if not Path(path).exists():
            raise FileNotFoundError(path)
    norms = ["l2", "h1_broken", "normA", "normB"]
    script = [
        "#!/usr/bin/env python3",
        '"""Log-log error plots generated from study CSVs (auto-written)."""',
        "import csv",
        "import math",
        "import matplotlib.pyplot as plt",
        "",
        f"CSV_PATHS = {sorted(str(p) for p in csv_paths)!r}",
        f"NORMS = {norms!r}",
        "",
        "def load(path):",
        "    with open(path) as fh:",
        "        rows = list(csv.DictReader(fh))",
        "    return rows",
        "",
        "for path in CSV_PATHS:",
        "    rows = load(path)",
        "    ps = sorted({int(r['p']) for r in rows})",
        "    for norm in NORMS:",
        "        fig, ax = plt.subplots()",
        "        for p in ps:",
        "            data = [(float(r['h']), float(r[norm])) for r in rows if int(r['p']) == p]",
        "            data.sort(reverse=True)",
        "            hs = [d[0] for d in data]",
        "            errs = [d[1] for d in data]",
        "            if not hs or any(e <= 0 or e != e for e in errs):",
        "                continue",
        "            ax.loglog(hs, errs, 'o-', label=f'p={p}')",
        "            slope = (math.log(errs[-1]) - math.log(errs[-2])) / (math.log(hs[-1]) - math.log(hs[-2])) if len(hs) >= 2 else 0.0",
        "            h0, h1 = hs[-2], hs[-1]",
        "            e0 = errs[-2]",
        "            ax.loglog([h0, h1, h0, h0], [e0, e0 * (h1 / h0) ** round(slope), e0 * (h1 / h0) ** round(slope), e0], ':', color='gray')",
        "            ax.annotate(f'{slope:.2f}', (h1, e0 * (h1 / h0) ** round(slope)))",
        "        ax.set_xlabel('h')",
        "        ax.set_ylabel(norm)",
        "        ax.legend()",
        "        fig.savefig(path.replace('.csv', '') + '_' + norm + '.png', dpi=150)",
        "        plt.close(fig)",
    ]
    text = "\n".join(script) + "\n"
    Path(out_path).write_text(text)
    return text


def _parse_int_list(text: str):
    return [int(v) for v in str(text).split(",") if v != ""]


def _parse_float_list(text: str):
    return [float(v) for v in str(text).split(",") if v != ""]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipfem-study",
        description="Interface-penalty FEM studies on unfitted meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="manufactured-solution convergence sweep")
    run.add_argument("--config", help="JSON file with defaults for the flags below")
    run.add_argument("--case")
    run.add_argument("--method", choices=("sip", "nip"))
    run.add_argument("--p", help="comma-separated degrees, e.g. 1,2,3")
    run.add_argument("--nx", help="comma-separated element counts, e.g. 8,16,32,64")
    run.add_argument("--gamma0", type=float)
    run.add_argument("--gamma1", type=float)
    run.add_argument("--quad-extra", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--out")
    run.add_argument("--estimate-cond", action="store_true", default=None)
    run.add_argument("--dump-matrix", action="store_true", default=None)
    run.add_argument("--dump-quadrature", action="store_true", default=None)
    run.add_argument("--cut-threshold", type=float)

    probes = sub.add_parser("probes", help="inequality and coercivity probes")
    probes.add_argument("--probe", required=True, choices=("trace", "invtrace", "coercivity", "G"))
    probes.add_argument("--case", default="circle-jump")
    probes.add_argument("--curve", help="override curve, e.g. circle:0,0,0.6")
    probes.add_argument("--nx", default="8")
    probes.add_argument("--p", type=int, default=2)
    probes.add_argument("--samples", type=int, default=20)
    probes.add_argument("--seed", type=int, default=0)
    probes.add_argument("--gamma0", default="100")
    probes.add_argument("--gamma1", default="1")
    probes.add_argument("--out", default="study-out")

    sub.add_parser("list-cases", help="print the case catalog")

    plots = sub.add_parser("emit-plots", help="write a plotting script for result CSVs")
    plots.add_argument("csvs", nargs="+")
    plots.add_argument("--out", default="plots.py")
    return parser


def _config_from_args(args) -> StudyConfig:
    file_cfg = {}
    if args.config:
        file_cfg = json.loads(Path(args.config).read_text())

    def pick(flag, key, fallback):
        if flag is not None:
            return flag
        return file_cfg.get(key, fallback)

    p_raw = pick(args.p, "p", None)
    nx_raw = pick(args.nx, "nx", None)
    if p_raw is None or nx_raw is None:
        raise InsufficientData("both --p and --nx (or config entries) are required")
    return StudyConfig(
        case=pick(args.case, "case", "circle-jump"),
        method=pick(args.method, "method", "sip"),
        p_list=_parse_int_list(p_raw) if isinstance(p_raw, str) else list(p_raw),
        nx_list=_parse_int_list(nx_raw) if isinstance(nx_raw, str) else list(nx_raw),
        gamma0=pick(args.gamma0, "gamma0", None),
        gamma1=pick(args.gamma1, "gamma1", None),
        quad_extra=int(pick(args.quad_extra, "quad_extra", 0)),
        seed=int(pick(args.seed, "seed", 0)),
        out_dir=pick(args.out, "out", "study-out"),
        estimate_cond=bool(pick(args.estimate_cond, "estimate_cond", False)),
        dump_matrix=bool(pick(args.dump_matrix, "dump_matrix", False)),
        dump_quadrature=bool(pick(args.dump_quadrature, "dump_quadrature", False)),
        cut_threshold=float(pick(args.cut_threshold, "cut_threshold", 1e-12)),
    )


def _run_probes(args) -> int:
    case = _case(args.case)
    curve = parse_curve(args.curve) if args.curve else case.curve
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for nx in _parse_int_list(args.nx):
        mesh = build_mesh(DOMAIN, nx, nx)
        topology = classify_elements(mesh, curve)
        if args.probe == "coercivity":
            space = build_doubled_space(build_dof_map(mesh, args.p), topology)

            def builder(g0, g1):
                params = PenaltyParams(beta=1, gamma0=g0, gamma1=g1, p=args.p)
                return assemble(space, topology, case.problem, params)

            grid = probe_coercivity(
                builder,
                _parse_float_list(args.gamma0),
                _parse_float_list(args.gamma1),
                seed=args.seed,
            )
            if not lines:
                lines.append("probe,nx,p,gamma0,gamma1,quotient")
            for (g0, g1), rho in sorted(grid.items()):
                lines.append(
                    f"coercivity,{nx},{args.p},{_fmt(g0)},{_fmt(g1)},{_fmt(rho)}"
                )
            continue
        if args.probe == "invtrace":
            report = probe_inverse_trace(mesh, curve, topology, args.p, args.samples, args.seed)
        elif args.probe == "trace":
            report = probe_trace(mesh, curve, topology, args.samples, args.seed)
        else:
            report = probe_G(topology, curve, samples_per_segment=args.samples)
        if not lines:
            lines.append("probe,nx,p,element,value")
        for elem in sorted(report.per_element):
            lines.append(
                f"{report.name},{nx},{report.p},{elem},{_fmt(report.per_element[elem])}"
            )
        lines.append(f"{report.name},{nx},{report.p},max,{_fmt(report.global_max)}")
        lines.append(f"{report.name},{nx},{report.p},median,{_fmt(report.global_median)}")
    (out / f"probe_{args.probe}.csv").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list-cases":
        print(list_cases())
        return 0
    if args.command == "emit-plots":
        emit_plots(args.csvs, args.out)
        print(f"wrote {args.out}")
        return 0
    try:
        if args.command == "probes":
            return _run_probes(args)
        config = _config_from_args(args)
        result = run_study(config)
    except (InsufficientData, ProbeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in result.failures:
        print(f"FAILED case={failure[0]} p={failure[1]} nx={failure[2]}: {failure[3]}", file=sys.stderr)
    for p, summary in result.rates.items():
        slopes = ", ".join(f"{k}={v:.3f}" for k, v in summary.slopes.items())
        print(f"p={p}: {slopes}")
    return 1 if result.failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: manufactured convergence studies, probe runs and
machine-readable outputs.

The run subcommand sweeps (p, nx) for one case and method, writes one CSV row
per run plus a per-p rate summary, and exits nonzero if any run failed.  With
``--max-delta X`` a run whose pivot-order spread delta exceeds X (see
``_spread``) is a failure too; its row is still written.  ``--check-spread``
also records the local figure of the run's matrix (``_local_figure``).  All
outputs are plain text with fixed formatting, so identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .assembly import PenaltyParams, assemble
from .cases import DOMAIN, ManufacturedCase, catalog
from .errors import InsufficientData, compute_errors, energy_norm_squared, estimate_rates
from .fe_space import build_dof_map, build_doubled_space
from .geometry import GeometryError, classify_elements, parse_curve
from .mesh import build_mesh
from .probes import ProbeError, probe_coercivity, probe_G, probe_inverse_trace, probe_trace
from .quadrature import cut_cell_rule, cut_order, pass_order
from .solver import SolverError, _jacobi_factors, colamd_solve, solve

CSV_HEADER = "case,method,p,nx,h,dofs,gamma0,gamma1,l2,h1_broken,normA,normB,j0,j1,residual"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)  # a bool is an int to Python, not here


# what a value of each StudyConfig annotation must be, and its test
_TYPE_CHECKS = {
    "str": ("a string", lambda v: isinstance(v, str)),
    "list": ("a list of integers", lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "float | None": ("a number or null", lambda v: v is None or _is_int(v) or isinstance(v, float)),
    "int": ("an integer", _is_int),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
}


def _beta(method: str) -> int:
    """beta of the symmetric ("sip", +1) or non-symmetric ("nip", -1) method."""
    if method not in ("sip", "nip"):
        raise ValueError(f"method must be sip or nip, got {method!r}")
    return 1 if method == "sip" else -1


@dataclass(kw_only=True)
class StudyConfig:
    """The settings of a run sweep; the one place their defaults are written."""
    case: str = "circle-jump"
    method: str = "sip"  # or "nip"
    p: list
    nx: list
    gamma0: float | None = None
    gamma1: float | None = None
    quad_extra: int = 0
    out: str = "study-out"
    check_spread: bool = False
    dump_matrix: bool = False
    dump_quadrature: bool = False
    max_delta: float | None = None  # the largest spread a row may have; implies check_spread

    def __post_init__(self):
        for f in fields(self):
            kind, ok = _TYPE_CHECKS[f.type]
            value = getattr(self, f.name)
            if not ok(value):
                raise ValueError(f"setting {f.name!r} must be {kind}, got {value!r}")
        _beta(self.method)
        if not self.p:
            raise InsufficientData("empty p list")
        if not self.nx:
            raise InsufficientData("empty nx list")
        # refused before any run, as each degree's rates need h to fall
        if any(b <= a for a, b in zip(self.nx, self.nx[1:])):
            raise ValueError(f"setting 'nx' must be strictly increasing, got {self.nx}")
        if len(set(self.p)) < len(self.p):
            raise ValueError(f"setting 'p' must not repeat a degree, got {self.p}")
        if self.max_delta is not None:
            self.max_delta = float(self.max_delta)
            if not 0.0 <= self.max_delta < float("inf"):
                raise ValueError(f"max_delta must be finite and nonnegative, got {self.max_delta!r}")
            self.check_spread = True


def default_penalties(method: str, case: ManufacturedCase):
    """gamma0 = 20 (1 + max a / min a), gamma1 = 1 for the symmetric method;
    (1, 1) for the non-symmetric one, whose coercivity needs only a positive
    product."""
    if _beta(method) == 1:
        return 20.0 * (1.0 + case.a_ratio), 1.0
    return 1.0, 1.0


def _fmt(x) -> str:
    return format(float(x), ".17g")


@dataclass
class StudyResult:
    rows: list = field(default_factory=list)
    stats: list = field(default_factory=list)  # per row, see _run_stats, _spread and _local_figure
    rates: dict = field(default_factory=dict)  # p -> RateSummary
    failures: list = field(default_factory=list)


def run_single(case: ManufacturedCase, method: str, p: int, nx: int,
               gamma0: float, gamma1: float, quad_extra: int = 0):
    """One (p, nx) run: mesh -> geometry -> space -> assemble -> solve -> errors."""
    mesh = build_mesh(DOMAIN, nx, nx)
    topology = classify_elements(mesh, case.curve)
    space = build_doubled_space(build_dof_map(mesh, p), topology)
    params = PenaltyParams(beta=_beta(method), gamma0=gamma0, gamma1=gamma1, p=p)
    system = assemble(space, topology, case.problem, params,
                      quad_order=pass_order(p) + quad_extra)
    report = solve(system)
    err = compute_errors(space, topology, case.problem, report.solution, params,
                         quad_order=pass_order(p, errors=True) + quad_extra)
    return mesh, topology, space, system, report, err


def _spread(space, topology, problem, system, solution, quad_extra: int) -> float:
    """Pivot-order spread of one run: delta = ||x1 - x2||_E / ||x1||_E in the
    energy norm of ``energy_norm_squared``, x1 the run's ``solution`` and x2
    the solution through SuperLU's default COLAMD LU
    (``solver.colamd_solve``).  The residual cannot show how much an
    ill-conditioned system's solution depends on the pivot order; delta does,
    also for a run whose error is small.  Both norms are sums of squares at
    the error pass's nodes: d^T E d, E = volume + j0 + j1, is round-off where
    x1 and x2 are large and close (negative at p = 6 on circle-jump).  Both
    are measured over one plan of the error pass.  delta is NaN
    (undetermined) when the second solve fails."""
    try:
        second = colamd_solve(system).solution
    except SolverError:
        return float("nan")
    order = pass_order(system.params.p, errors=True) + quad_extra
    diff_sq, norm_sq = energy_norm_squared(space, topology, problem, system.params,
                                           [solution - second, solution], quad_order=order)
    return float(np.sqrt(diff_sq / norm_sq))


def _local_figure(space, topology, system) -> dict:
    """Smallest lambda_min / lambda_max, over the cut (element, side) copies,
    of (B + B^T) / 2, B the Jacobi-scaled matrix on the copy's unknowns on
    the element (NIP's B is skew in its consistency part); with the element
    and side where it occurs, all None when nothing is cut.  The smallest
    cuts set the conditioning: on circle-jump (SIP, nx = 8) the figure is
    7.7e-7 at p = 2, 2.1e-12 at p = 3 and round-off (<= 0) at p = 4.  The
    mirror images of one cut tie up to round-off, which then picks the
    element named."""
    cut = topology.cut_elements
    if not len(cut):
        return {"local_ratio": None, "local_element": None, "local_side": None}
    s = _jacobi_factors(system.matrix)
    found = []
    for side in (1, 2):
        idx = space.element_unknowns(cut, side)
        kept = (idx >= 0).sum(axis=1)  # constrained boundary DOFs drop out
        for k in np.unique(kept):
            rows = np.flatnonzero(kept == k)
            ids = idx[rows][idx[rows] >= 0].reshape(len(rows), k)
            r, c = np.broadcast_arrays(ids[:, :, None], ids[:, None, :])
            block = np.asarray(system.matrix[r.ravel(), c.ravel()]).reshape(r.shape)
            block *= s[r]  # (a_ij s_i) s_j, rounded as the solver scales
            block *= s[c]
            lam = np.linalg.eigvalsh(0.5 * (block + block.transpose(0, 2, 1)))
            found.append((lam[:, 0] / lam[:, -1], cut[rows], np.full(len(rows), side)))
    ratio, element, sides = map(np.concatenate, zip(*found))
    i = np.lexsort((sides, element, ratio))[0]
    return {"local_ratio": float(ratio[i]), "local_element": int(element[i]), "local_side": int(sides[i])}


def _run_stats(topology, space, system, report, spread=None) -> dict:
    """Deterministic size and health figures of one run: unknowns, matrix
    nonzeros, L + U entries of the solve's LU, cut elements, segments, the
    smallest cut-side area fraction (None when nothing is cut), dropped
    arclength, refinement steps and the pivot-order spread (None unless
    checked)."""
    cut = topology.cut_elements
    return {
        "unknowns": int(space.n_unknowns),
        "nnz": int(system.matrix.nnz),
        "factor_nnz": int(report.factor_nnz),
        "cut_elements": int(len(cut)),
        "segments": len(topology.segments),
        "min_cut_fraction": float(topology.fractions[cut].min()) if len(cut) else None,
        "dropped_arclength": float(topology.dropped_arclength),
        "refine_steps": int(report.iterations),
        "spread": spread,
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
    if case.curve.closed and any(nx < 4 for nx in config.nx):
        raise ValueError("cut cases need nx >= 4 to keep one segment per element")
    case.problem.validate(case.curve)

    g0_default, g1_default = default_penalties(config.method, case)
    gamma0 = g0_default if config.gamma0 is None else config.gamma0
    gamma1 = g1_default if config.gamma1 is None else config.gamma1
    # a negative or non-finite penalty is a usage error, not a failure of every row
    PenaltyParams(beta=1, gamma0=gamma0, gamma1=gamma1, p=config.p[0])

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    result = StudyResult()
    reports_by_p = {}

    for p in config.p:
        reports_by_p[p] = []
        for nx in config.nx:
            try:
                mesh, topology, space, system, rep, err = run_single(
                    case, config.method, p, nx, gamma0, gamma1, quad_extra=config.quad_extra,
                )
                spread, local = None, {}  # the local keys are absent without the check
                if config.check_spread:
                    spread = _spread(space, topology, case.problem, system, rep.solution, config.quad_extra)
                    local = _local_figure(space, topology, system)
            except Exception as exc:  # noqa: BLE001 - annotate and keep sweeping
                result.failures.append((config.case, p, nx, f"{type(exc).__name__}: {exc}"))
                continue
            if config.max_delta is not None and not spread <= config.max_delta:
                # the row is still written, as every figure of it was
                # computed, but its solution depends on the pivot order
                result.failures.append((config.case, p, nx, f"Undetermined: delta {_fmt(spread)} "
                                                             f"exceeds max_delta {_fmt(config.max_delta)}"))
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
            result.stats.append({**_run_stats(topology, space, system, rep, spread), **local})
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
    """The cut-cell rules of the run's assembly pass, both sides of every cut element."""
    lines = ["element,side,x,y,w"]
    cut = topology.cut_elements
    if len(cut):
        order = cut_order(pass_order(p) + config.quad_extra, p)
        rules = cut_cell_rule(topology, np.repeat(cut, 2), np.tile([1, 2], len(cut)), order)
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
            "p": list(config.p),
            "nx": list(config.nx),
            "gamma0": gamma0,
            "gamma1": gamma1,
            "quad_extra": config.quad_extra,
            **({} if config.max_delta is None else {"max_delta": config.max_delta}),
        },
        "rows": result.rows,
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
        "            if len(hs) < 2:",
        "                continue  # no slope triangle on a single level",
        "            slope = (math.log(errs[-1]) - math.log(errs[-2])) / (math.log(hs[-1]) - math.log(hs[-2]))",
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


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipfem-study",
        description="Interface-penalty FEM studies on unfitted meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag not given is absent from the namespace, so it cannot mask a config entry
    run = sub.add_parser("run", help="manufactured-solution convergence sweep",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--config", help="JSON object of settings, named as the flags below; a flag given wins")
    run.add_argument("--case")
    run.add_argument("--method", choices=("sip", "nip"))
    run.add_argument("--p", help="comma-separated degrees, e.g. 1,2,3")
    run.add_argument("--nx", help="comma-separated, strictly increasing element counts, e.g. 8,16,32,64")
    run.add_argument("--gamma0", type=float)
    run.add_argument("--gamma1", type=float)
    run.add_argument("--quad-extra", type=int)
    run.add_argument("--out")
    run.add_argument("--check-spread", action="store_true")
    run.add_argument("--max-delta", type=float, help="fail a row whose pivot-order spread exceeds this; "
                                                     "implies --check-spread")
    run.add_argument("--dump-matrix", action="store_true")
    run.add_argument("--dump-quadrature", action="store_true")

    probes = sub.add_parser("probes", help="inequality and coercivity probes")
    probes.add_argument("--probe", required=True, choices=("trace", "invtrace", "coercivity", "G"))
    probes.add_argument("--case", default="circle-jump")
    probes.add_argument("--curve", help="override curve, e.g. circle:0,0,0.6")
    probes.add_argument("--nx", default="8")
    probes.add_argument("--p", type=int, default=2)
    probes.add_argument("--samples", type=_positive_int, help="per segment: trace's cubics (20), G's points (64)")
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
    """The flags given, over the entries of the --config file, over the
    defaults of StudyConfig."""
    given = {k: v for k, v in vars(args).items() if k != "command"}
    settings = {}
    if "config" in given:
        path = given.pop("config")
        try:
            settings = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot read config file {path}: {exc}") from None
        if not isinstance(settings, dict):
            raise ValueError(f"config file {path} holds no JSON object")
    settings.update(given)
    unknown = sorted(settings.keys() - {f.name for f in fields(StudyConfig)})
    if unknown:
        raise ValueError(f"unknown settings {unknown}")
    if not {"p", "nx"} <= settings.keys():
        raise InsufficientData("both --p and --nx (or config entries) are required")
    settings.update({k: _parse_int_list(settings[k]) for k in ("p", "nx") if isinstance(settings[k], str)})
    return StudyConfig(**settings)


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
        samples = {} if args.samples is None else {"samples": args.samples}  # else the probe's default
        if args.probe == "invtrace":
            report = probe_inverse_trace(topology, args.p)
        elif args.probe == "trace":
            report = probe_trace(topology, seed=args.seed, **samples)
        else:
            report = probe_G(topology, **samples)
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
    except (GeometryError, InsufficientData, ProbeError, ValueError) as exc:
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

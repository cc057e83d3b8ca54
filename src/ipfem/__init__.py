"""Interface-penalty finite elements for 2D elliptic interface problems on
unfitted structured meshes (symmetric and non-symmetric variants)."""

from .assembly import AssembledSystem, PenaltyParams, Problem, assemble
from .cases import DOMAIN, ManufacturedCase, catalog
from .errors import ErrorReport, compute_errors, energy_norm_squared, estimate_rates
from .fe_space import build_basis, build_dof_map, build_doubled_space, evaluate_discrete
from .geometry import (
    Circle,
    CutTopology,
    Ellipse,
    InterfaceCurve,
    InterfaceSegment,
    VerticalLine,
    classify_elements,
    signed_side,
)
from .mesh import Mesh, Rectangle, build_mesh
from .quadrature import CutCellRule, QuadRule, cut_cell_rule, gauss_1d, segment_rule
from .solver import SolveReport, solve

__all__ = [
    "AssembledSystem",
    "PenaltyParams",
    "Problem",
    "assemble",
    "DOMAIN",
    "ManufacturedCase",
    "catalog",
    "ErrorReport",
    "compute_errors",
    "energy_norm_squared",
    "estimate_rates",
    "build_basis",
    "build_dof_map",
    "build_doubled_space",
    "evaluate_discrete",
    "Circle",
    "CutTopology",
    "Ellipse",
    "InterfaceCurve",
    "InterfaceSegment",
    "VerticalLine",
    "classify_elements",
    "signed_side",
    "Mesh",
    "Rectangle",
    "build_mesh",
    "CutCellRule",
    "QuadRule",
    "cut_cell_rule",
    "gauss_1d",
    "segment_rule",
    "SolveReport",
    "solve",
]

__version__ = "0.1.0"

"""Exact symbolic tensor calculus for frame-defined contact metric
manifolds: connections, curvature, covariant derivatives, and structure
classification over multivariate rational functions."""

from .catalog import CatalogEntry, CatalogError, build, entry_ids
from .classify import (ClassificationReport, ClassifyError, KappaMuVerdict,
                       RecurrenceVerdict, SasakianVerdict, SelfCheckError,
                       SymmetryVerdict, check_3d_decomposition,
                       classify_structure, constant_curvature, is_flat,
                       is_locally_symmetric, is_sasakian, phi_symmetry,
                       solve_kappa_mu, solve_phi_recurrence)
from .contact import (ContactError, ContactStructure, HEigenstructure,
                      h_eigenstructure)
from .curvature import (ConnectionTable, CurvatureTables, koszul,
                        nabla_structure_tensors, riemann)
from .expr import (Expr, ExprError, ExprParseError, PoleError, Symbol,
                   SymbolTable, KIND_COORDINATE, KIND_PARAMETER, parse)
from .frame import FrameError, FrameManifold, JacobiReport, VectorField
from .manifest import (ManifestError, export_entry, ingest_manifest,
                       load_manifest, manifest_to_json)
from .report import build_report, render_json, render_text

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CatalogError",
    "ClassificationReport",
    "ClassifyError",
    "ConnectionTable",
    "ContactError",
    "ContactStructure",
    "CurvatureTables",
    "Expr",
    "ExprError",
    "ExprParseError",
    "FrameError",
    "FrameManifold",
    "HEigenstructure",
    "JacobiReport",
    "KIND_COORDINATE",
    "KIND_PARAMETER",
    "KappaMuVerdict",
    "ManifestError",
    "PoleError",
    "RecurrenceVerdict",
    "SasakianVerdict",
    "SelfCheckError",
    "Symbol",
    "SymbolTable",
    "SymmetryVerdict",
    "VectorField",
    "build",
    "build_report",
    "check_3d_decomposition",
    "classify_structure",
    "constant_curvature",
    "entry_ids",
    "export_entry",
    "h_eigenstructure",
    "ingest_manifest",
    "is_flat",
    "is_locally_symmetric",
    "is_sasakian",
    "koszul",
    "load_manifest",
    "manifest_to_json",
    "nabla_structure_tensors",
    "parse",
    "phi_symmetry",
    "render_json",
    "render_text",
    "riemann",
    "solve_kappa_mu",
    "solve_phi_recurrence",
]

"""Report assembly and rendering.

A report is a plain dict built in a fixed key order so the JSON encoding
is deterministic and golden-testable.  The text renderer prints the same
content as aligned tables; ANSI color is opt-in through the
CONTACT_TENSOR_COLOR environment variable (unset means plain).
"""

from __future__ import annotations

import dataclasses

from .manifest import CatalogEntry
from .classify import (ClassificationReport, check_3d_decomposition,
                       classify_structure)
from .contact import ContactError, h_eigenstructure
from .curvature import (ConnectionTable, CurvatureTables,
                        first_bianchi_residuals, koszul,
                        metric_compat_residuals, riemann,
                        riemann_symmetry_residuals, second_bianchi_residuals,
                        torsion_residuals)
from .expr import Expr
from .frame import VectorField
from .manifest import export_entry, to_json

REPORT_SCHEMA_VERSION = 1


def _vf(v: VectorField, zero: list[str] | None = None) -> list[str]:
    # the zero field gives `zero` when passed: one report, one zero row
    if zero is not None and not v.terms:
        return zero
    out = ["0"] * v.dim
    for k, c in v.terms.items():
        out[k - 1] = str(c)
    return out


_RENAMED = {"constant_flag": "constant", "lam": "lambda"}


def _json(value):
    """JSON form of a verdict or structure value: dataclass fields in
    declaration order, expressions as strings, vector fields as component
    lists, tuples as lists."""
    if isinstance(value, VectorField):
        return _vf(value)
    if isinstance(value, Expr):
        return str(value)
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {_RENAMED.get(f.name, f.name): _json(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return value


@dataclasses.dataclass(frozen=True)
class Analysis:
    """The computed part of a report: connection, curvature tables,
    classification, and the self checks by name (True, False, or None
    where a check does not apply)."""

    connection: ConnectionTable
    curvature: CurvatureTables
    classification: ClassificationReport
    self_check: dict


def analyse(entry: CatalogEntry) -> Analysis:
    """Connection, curvature, classification and self checks, without the
    Jacobi diagnostics and the rendered tables."""
    m = entry.manifold
    conn = koszul(m)
    curv = riemann(m, conn)
    classification = classify_structure(curv, entry.structure)
    self_check = {
        "torsion_free": not torsion_residuals(conn),
        "metric_compatible": not metric_compat_residuals(conn),
        "riemann_symmetries": not riemann_symmetry_residuals(curv),
        "first_bianchi": not first_bianchi_residuals(curv),
        "second_bianchi": not second_bianchi_residuals(curv),
        "reconstruction_3d": (check_3d_decomposition(curv)
                              if m.dim == 3 else None),
    }
    return Analysis(conn, curv, classification, self_check)


def build_report(entry: CatalogEntry) -> dict:
    """Full pipeline: brackets, structure tensors, connection, curvature,
    classification, self checks."""
    m = entry.manifold
    diagnostics = m.validate()

    analysis = analyse(entry)
    conn, curv = analysis.connection, analysis.curvature
    classification = analysis.classification
    diagnostics.extend(classification.diagnostics)

    structure_section = None
    if entry.structure is not None:
        s = entry.structure
        structure_section = {
            "eta": _vf(s.eta),
            "xi": _vf(s.xi),
            "phi": _json(s.phi_rows),
        }
        if s.h is None:
            diagnostics.append(f"h operator: {s.h_error}")
        else:
            structure_section["h"] = _json(s.h)
            try:
                structure_section["h_eigen"] = _json(h_eigenstructure(s.h))
            except ContactError:
                structure_section["h_eigen"] = None

    pairs = [(i, j) for i in range(1, m.dim + 1)
             for j in range(i + 1, m.dim + 1)]
    zero = ["0"] * m.dim
    nabla_r = curv.nabla_r_table
    verdicts = _json(classification)
    del verdicts["diagnostics"]  # already in the top-level list
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "name": entry.id,
        "manifest": export_entry(entry),
        "brackets": [
            {"i": i, "j": j, "components": _vf(m.bracket_basis(i, j), zero)}
            for i, j in pairs],
        "structure": structure_section,
        "connection": [
            {"i": i, "j": j, "components": _vf(conn.nabla_basis(i, j), zero)}
            for i in range(1, m.dim + 1) for j in range(1, m.dim + 1)],
        "curvature": {
            "riemann": [
                {"i": i, "j": j, "k": k,
                 "components": _vf(curv.riemann(i, j, k), zero)}
                for i, j in pairs for k in range(1, m.dim + 1)],
            "ricci": _json(curv.ricci),
            "ricci_operator": _json(curv.ricci_operator),
            "scalar": str(curv.scalar),
            "nabla_riemann": [
                {"w": w, "i": i, "j": j, "k": k,
                 "components": _vf(nabla_r[w, i, j, k])
                 if (w, i, j, k) in nabla_r else zero}
                for w in range(1, m.dim + 1)
                for i, j in pairs for k in range(1, m.dim + 1)],
        },
        "classification": verdicts,
        "diagnostics": diagnostics,
        "self_check": analysis.self_check,
    }


def failed_self_checks(self_check: dict) -> list[str]:
    """Names of the self checks that came out false."""
    return [k for k, v in self_check.items() if v is False]


def render_json(report: dict) -> str:
    """The report as indented JSON text (manifest.to_json)."""
    return to_json(report)


# ---------------------------------------------------------------------------
# text rendering

_RESET = "\x1b[0m"
_BOLD = "\x1b[1m"
_DIM_ON = "\x1b[2m"


def _heading(text: str, color: bool) -> str:
    return f"{_BOLD}{text}{_RESET}" if color else text


def _fmt_vector(components: list[str], dim: int, basis: str = "e") -> str:
    parts = []
    for idx, comp in enumerate(components, start=1):
        if comp == "0":
            continue
        if comp == "1":
            parts.append(f"{basis}{idx}")
        elif comp == "-1":
            parts.append(f"-{basis}{idx}")
        else:
            coeff = comp if "+" not in comp[1:] and "-" not in comp[1:] \
                else f"({comp})"
            parts.append(f"{coeff}*{basis}{idx}")
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def _verdict_line(label: str, value) -> str:
    return f"  {label:<24} {value}"


def render_text(report: dict, color: bool = False) -> str:
    lines: list[str] = []
    name = report["name"]
    manifest = report["manifest"]
    dim = manifest["dimension"]
    lines.append(_heading(f"{name}: {manifest['mode']} frame, "
                          f"dimension {dim}", color))
    symbols = ", ".join(f"{s['name']} ({s['kind']})"
                        for s in manifest["symbols"]) or "none"
    lines.append(f"  symbols: {symbols}")

    lines.append("")
    lines.append(_heading("brackets", color))
    for rec in report["brackets"]:
        vec = _fmt_vector(rec["components"], dim)
        lines.append(f"  [e{rec['i']},e{rec['j']}] = {vec}")

    if report["structure"] is not None:
        s = report["structure"]
        lines.append("")
        lines.append(_heading("structure", color))
        lines.append(f"  xi  = {_fmt_vector(s['xi'], dim)}")
        lines.append(f"  eta = {_fmt_vector(s['eta'], dim, basis='e^')}")
        for idx, row in enumerate(s["phi"], start=1):
            lines.append(f"  phi(e{idx}) = {_fmt_vector(row, dim)}")
        if "h" in s:
            for idx, row in enumerate(s["h"], start=1):
                lines.append(f"  h(e{idx}) = {_fmt_vector(row, dim)}")

    lines.append("")
    lines.append(_heading("connection (zero entries omitted)", color))
    shown = 0
    for rec in report["connection"]:
        if all(c == "0" for c in rec["components"]):
            continue
        vec = _fmt_vector(rec["components"], dim)
        lines.append(f"  nabla_e{rec['i']} e{rec['j']} = {vec}")
        shown += 1
    if not shown:
        lines.append("  all entries vanish")

    lines.append("")
    lines.append(_heading("curvature (zero entries omitted)", color))
    shown = 0
    for rec in report["curvature"]["riemann"]:
        if all(c == "0" for c in rec["components"]):
            continue
        vec = _fmt_vector(rec["components"], dim)
        lines.append(f"  R(e{rec['i']},e{rec['j']})e{rec['k']} = {vec}")
        shown += 1
    if not shown:
        lines.append("  all entries vanish")
    lines.append(f"  scalar curvature r = {report['curvature']['scalar']}")

    c = report["classification"]
    lines.append("")
    lines.append(_heading("classification", color))
    lines.append(_verdict_line("contact metric valid", c["contact_valid"]))
    if c["sasakian"] is not None:
        extra = ("" if c["sasakian"]["ok"]
                 else f"  (witness pair {tuple(c['sasakian']['witness'])})")
        lines.append(_verdict_line("sasakian", f"{c['sasakian']['ok']}{extra}"))
    if c["kappa_mu"] is not None:
        km = c["kappa_mu"]
        detail = km["status"]
        if km["kappa"] is not None:
            detail += f", kappa = {km['kappa']}"
        if km["mu"] is not None:
            detail += f", mu = {km['mu']}"
        if km["relation"] is not None:
            detail += f", relation {km['relation']}"
        if km["witness"] is not None:
            detail += (f", witness R(e{km['witness'][0]},e{km['witness'][1]})"
                       f"e{km['witness'][2]}"
                       if len(km["witness"]) == 3 else
                       f", witness {tuple(km['witness'])}")
        lines.append(_verdict_line("nullity (kappa, mu)", detail))
    lines.append(_verdict_line("flat", c["flat"]))
    lines.append(_verdict_line("constant curvature",
                               c["constant_curvature"]
                               if c["constant_curvature"] is not None
                               else "no"))
    lines.append(_verdict_line("locally symmetric",
                               c["locally_symmetric"]["ok"]))
    for label, key in (("phi-symmetric", "phi_symmetric"),
                       ("locally phi-symmetric", "locally_phi_symmetric")):
        if c[key] is not None:
            lines.append(_verdict_line(label, c[key]["ok"]))
    for label, key in (("phi-recurrent", "phi_recurrent"),
                       ("locally phi-recurrent", "locally_phi_recurrent")):
        if c[key] is not None:
            rec = c[key]
            detail = rec["status"]
            if rec["status"] == "not_recurrent" and rec["obstruction"]:
                detail += f"  ({rec['obstruction']})"
            if rec["A"] is not None:
                detail += f", A = {_fmt_vector(rec['A'], dim, basis='e^')}"
            lines.append(_verdict_line(label, detail))

    if report["diagnostics"]:
        lines.append("")
        lines.append(_heading("diagnostics", color))
        for d in report["diagnostics"]:
            lines.append(f"  - {d}")

    failed = failed_self_checks(report["self_check"])
    lines.append("")
    status = "ok" if not failed else "FAILED: " + ", ".join(failed)
    line = f"self-check: {status}"
    if color:
        line = (_DIM_ON + line + _RESET) if not failed else \
            ("\x1b[31m" + line + _RESET)
    lines.append(line)
    return "\n".join(lines) + "\n"


__all__ = [
    "REPORT_SCHEMA_VERSION",
    "Analysis",
    "analyse",
    "build_report",
    "failed_self_checks",
    "render_json",
    "render_text",
]

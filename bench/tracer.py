"""Spans and counters around contact_tensor's public functions.

The program is not changed: each function is replaced, for the length of a
traced command, at every module or class attribute that refers to it, which
is the attribute its callers resolve at call time (for example
``contact_tensor.report.koszul`` and ``contact_tensor.expr.poly_gcd``).

A span records (name, start_ns, end_ns, parent span index, operation id).
Spans stay in memory and are written out when the benchmark ends.
`Expr` arithmetic, `Poly` multiplication and frame derivatives run millions
of times a round, so they get counters only, taken in the same wrappers.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import Counter

PACKAGE = "contact_tensor"

# span name -> [(module, attribute path)] of the functions it wraps
SPANS = {
    "cli.main": [("cli", "main")],
    "catalog.build": [("catalog", "build")],
    "catalog.substitute": [("catalog", "CatalogEntry.substitute")],
    "manifest.ingest": [("manifest", "load_manifest"),
                        ("manifest", "entry_from_ingest")],
    "manifest.export": [("manifest", "export_entry")],
    "report.build_report": [("report", "build_report")],
    "report.render": [("report", "render_json"), ("report", "render_text")],
    "frame.validate": [("frame", "FrameManifold.validate")],
    "frame.brackets_from_chart": [("frame",
                                   "FrameManifold.brackets_from_chart")],
    "linalg.invert": [("linalg", "invert")],
    "linalg.determinant": [("linalg", "determinant")],
    "contact.compute_h": [("contact", "ContactStructure.compute_h")],
    "contact.h_eigenstructure": [("contact", "h_eigenstructure")],
    "curvature.koszul": [("curvature", "koszul")],
    "curvature.riemann": [("curvature", "riemann")],
    "curvature.nabla_r": [("curvature", "CurvatureTables.nabla_r")],
    # the five residual checkers of the report's self_check
    "curvature.identity_suite": [
        ("curvature", "torsion_residuals"),
        ("curvature", "metric_compat_residuals"),
        ("curvature", "riemann_symmetry_residuals"),
        ("curvature", "first_bianchi_residuals"),
        ("curvature", "second_bianchi_residuals")],
    "classify.classify_structure": [("classify", "classify_structure")],
    "classify.kappa_mu": [("classify", "solve_kappa_mu")],
    "classify.phi_symmetry": [("classify", "phi_symmetry")],
    "classify.phi_recurrence": [("classify", "solve_phi_recurrence")],
    "classify.check_3d": [("classify", "check_3d_decomposition")],
    "expr.gcd": [("expr", "poly_gcd")],
}

# per-layer metrics: span self times, in seconds per round
SELF_TIME_METRICS = {f"{name}_s": name for name in (
    "expr.gcd", "linalg.invert", "linalg.determinant", "frame.validate",
    "frame.brackets_from_chart", "contact.compute_h",
    "contact.h_eigenstructure", "curvature.koszul", "curvature.riemann",
    "curvature.nabla_r", "curvature.identity_suite",
    "classify.classify_structure", "classify.kappa_mu",
    "classify.phi_symmetry", "classify.phi_recurrence", "classify.check_3d",
    "report.build_report", "report.render", "manifest.ingest",
    "manifest.export", "catalog.build", "catalog.substitute", "cli.main")}
# per-layer metrics: counts per round
COUNT_METRICS = ("expr.add_calls", "expr.mul_calls", "expr.div_calls",
                 "expr.poly_mul_calls", "expr.gcd_calls", "expr.max_terms",
                 "frame.directional_derivative_calls",
                 "curvature.nabla_r_calls", "cli.sweep_points")
SHARE_METRICS = ("expr.zero_operand_share", "expr.den_one_share",
                 "curvature.riemann_nonzero_share",
                 "curvature.nabla_r_nonzero_share")


def _resolve(obj, path: str):
    owner = obj
    *heads, last = path.split(".")
    for part in heads:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """Installs wrappers into an imported contact_tensor package.

    Use as a context manager around each traced command; `op_id` names
    the command that new spans belong to.  Counts add up until cleared.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = None
        self._stack: list[int] = []
        self._patches: list = []          # (owner, attribute, original)
        self._nabla_seen = weakref.WeakKeyDictionary()

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        mods = {name.rpartition(".")[2]: mod
                for name, mod in sys.modules.items()
                if name.startswith(PACKAGE + ".")}
        self._modules = list(mods.values()) + [sys.modules[PACKAGE]]
        counts = self.counts
        # counters first, so that span wrappers end up outermost and a
        # function's span covers its counting
        expr = mods["expr"]
        self._install_expr_counters(expr.Expr, expr.Poly)
        self._wrap(mods["frame"], "FrameManifold.directional_derivative",
                   lambda fn: _counted(fn, counts,
                                       "frame.directional_derivative_calls"))
        self._wrap(expr, "poly_gcd",
                   lambda fn: _counted(fn, counts, "expr.gcd_calls"))
        self._wrap(mods["cli"], "_sweep_row",
                   lambda fn: _counted(fn, counts, "cli.sweep_points"))
        self._wrap(mods["curvature"], "CurvatureTables.nabla_r",
                   self._nabla_r_counter)
        self._wrap(mods["curvature"], "riemann", self._riemann_counter)
        for span, targets in SPANS.items():
            for module, path in targets:
                self._wrap(mods[module], path,
                           lambda fn, span=span: self._span_wrapper(span, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, module, path: str, make_wrapper) -> None:
        """Replace a function at every attribute its callers resolve: the
        class attribute for a method, else each module attribute bound to
        it."""
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return
        for mod in self._modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _span_wrapper(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op_id)
        return wrapper

    def _install_expr_counters(self, expr_cls, poly_cls) -> None:
        counts = self.counts
        binary = {"__add__": "add", "__radd__": "add",
                  "__mul__": "mul", "__rmul__": "mul",
                  "__truediv__": "div"}
        for attr, kind in binary.items():
            self._patch(expr_cls, attr,
                        self._expr_wrapper(getattr(expr_cls, attr), kind,
                                           expr_cls, counts))
        self._patch(poly_cls, "__mul__", _counted(
            poly_cls.__mul__, counts, "expr.poly_mul_calls"))

    @staticmethod
    def _expr_wrapper(fn, kind: str, expr_cls, counts: Counter):
        calls = f"expr.{kind}_calls"
        arith = kind in ("add", "mul")

        def wrapper(a, b):
            counts[calls] += 1
            if arith:
                counts["expr.arith_calls"] += 1
                if isinstance(b, expr_cls):
                    b_zero = not b.num.terms
                    b_den_one = b.den.is_constant()
                else:
                    b_zero = b == 0
                    b_den_one = True
                if b_zero or not a.num.terms:
                    counts["expr.zero_operand"] += 1
                if b_den_one and a.den.is_constant():
                    counts["expr.den_one"] += 1
            out = fn(a, b)
            if out is not NotImplemented:
                size = len(out.num.terms) + len(out.den.terms)
                if size > counts["expr.max_terms"]:
                    counts["expr.max_terms"] = size
            return out
        return wrapper

    def _nabla_r_counter(self, nabla_r):
        counts, seen = self.counts, self._nabla_seen

        def wrapper(tables, w, i, j, k):
            counts["curvature.nabla_r_calls"] += 1
            out = nabla_r(tables, w, i, j, k)
            keys = seen.setdefault(tables, set())
            if (w, i, j, k) not in keys:     # first computation, not a hit
                keys.add((w, i, j, k))
                counts["curvature.nabla_r_components"] += len(out.components)
                counts["curvature.nabla_r_nonzero"] += sum(
                    1 for c in out.components if not c.is_zero())
            return out
        return wrapper

    def _riemann_counter(self, build):
        counts = self.counts

        def wrapper(manifold, connection):
            tables = build(manifold, connection)
            dim = manifold.dim
            for i in range(1, dim + 1):
                for j in range(i + 1, dim + 1):
                    for k in range(1, dim + 1):
                        comps = tables.riemann(i, j, k).components
                        counts["curvature.riemann_components"] += len(comps)
                        counts["curvature.riemann_nonzero"] += sum(
                            1 for c in comps if not c.is_zero())
            return tables
        return wrapper

    # -- results ------------------------------------------------------------

    def self_times(self, first_span: int = 0) -> Counter:
        """Seconds of self time per span name, over spans[first_span:]."""
        spans = self.spans[first_span:]
        child = [0] * len(spans)
        for span in spans:
            _, start, end, parent, _ = span
            if parent is not None and parent >= first_span:
                child[parent - first_span] += end - start
        totals: Counter = Counter()
        for span, child_ns in zip(spans, child):
            name, start, end, _, _ = span
            totals[name] += (end - start - child_ns) / 1e9
        return totals

    def layer_metrics(self, first_span: int = 0) -> dict:
        """Per-layer metric values from the current counts and the spans
        from `first_span` on."""
        counts, self_s = self.counts, self.self_times(first_span)
        out = {metric: self_s.get(span, 0.0)
               for metric, span in SELF_TIME_METRICS.items()}
        for name in COUNT_METRICS:
            out[name] = counts.get(name, 0)
        arith = counts.get("expr.arith_calls", 0)
        out["expr.zero_operand_share"] = _share(
            counts.get("expr.zero_operand", 0), arith)
        out["expr.den_one_share"] = _share(counts.get("expr.den_one", 0),
                                           arith)
        out["curvature.riemann_nonzero_share"] = _share(
            counts.get("curvature.riemann_nonzero", 0),
            counts.get("curvature.riemann_components", 0))
        out["curvature.nabla_r_nonzero_share"] = _share(
            counts.get("curvature.nabla_r_nonzero", 0),
            counts.get("curvature.nabla_r_components", 0))
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _counted(fn, counts: Counter, counter: str):
    def wrapper(*args, **kwargs):
        counts[counter] += 1
        return fn(*args, **kwargs)
    return wrapper


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0

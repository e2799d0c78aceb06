"""Frame-defined manifolds.

A manifold here is an open set carrying a global frame e_1..e_n, described
either abstractly by structure constants [e_i, e_j] = sum_k C^k_ij e_k with
parameter-only coefficients, or concretely by a chart in which each frame
field expands over the coordinate partials.  All tensor data downstream is
expressed in this frame; coordinate components never leave this module.

Frame indices are 1-based in every public argument, witness, and report,
matching the e1..en labels used in rendered output.  Instances are immutable
and complete at construction: the metric inverse and, in chart mode, the
chart inverse and the bracket table are built there, so a singular metric
or chart frame matrix raises SingularMatrixError from the constructor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .expr import (Expr, ExprError, KIND_COORDINATE, Symbol, SymbolTable,
                   sum_of_products)
from .linalg import invert

MODE_ABSTRACT = "abstract"
MODE_CHART = "chart"


class FrameError(Exception):
    """Raised for ill-formed frame data or unsupported frame operations."""


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Expr.rational(value)
    raise FrameError(f"expected an expression, got {value!r}")


_ZERO, _ONE = Expr.zero(), Expr.one()
# the shared zero and basis fields by dim and (dim, i): constants of the
# dimension alone, filled on first use
_ZERO_FIELDS: dict[int, "VectorField"] = {}
_BASIS_FIELDS: dict[tuple[int, int], "VectorField"] = {}


class VectorField:
    """A vector field given by its nonzero frame components.

    `terms` maps a 1-based frame index to a nonzero component; an absent
    index is a zero component, and no operation stores a zero.  `terms`
    is a dict, so a VectorField cannot be hashed.  A VectorField is never
    mutated after construction, so the zero and basis fields are shared.
    """

    __slots__ = ("dim", "terms")
    __hash__ = None

    def __init__(self, dim: int, terms: dict[int, Expr]):
        self.dim = dim
        self.terms = terms

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __repr__(self) -> str:
        return f"VectorField(dim={self.dim!r}, terms={self.terms!r})"

    @staticmethod
    def make(components) -> "VectorField":
        comps = [as_expr(c) for c in components]
        return VectorField(len(comps), {k: c for k, c in enumerate(comps, 1)
                                        if not c.is_zero()})

    @staticmethod
    def zero(dim: int) -> "VectorField":
        v = _ZERO_FIELDS.get(dim)
        if v is None:
            v = _ZERO_FIELDS[dim] = VectorField(dim, {})
        return v

    @staticmethod
    def basis(dim: int, i: int) -> "VectorField":
        # i is 1-based
        v = _BASIS_FIELDS.get((dim, i))
        if v is None:
            v = _BASIS_FIELDS[dim, i] = VectorField(dim, {i: _ONE})
        return v

    @property
    def components(self) -> tuple[Expr, ...]:
        """All dim components, zeros included, for rendering."""
        return tuple(self[k] for k in range(1, self.dim + 1))

    def __getitem__(self, i: int) -> Expr:
        return self.terms.get(i, _ZERO)

    def items(self):
        return self.terms.items()

    def is_zero(self) -> bool:
        return not self.terms

    def map(self, f) -> "VectorField":
        """f applied to each nonzero component, zero results dropped."""
        terms = {}
        for k, c in self.terms.items():
            v = f(c)
            if not v.is_zero():
                terms[k] = v
        return VectorField(self.dim, terms)

    def bind(self, values: dict[str, Fraction]) -> "VectorField":
        """Each component bound through `Expr.bind`."""
        return self.map(lambda c: c.bind(values))

    def __add__(self, other: "VectorField") -> "VectorField":
        terms = dict(self.terms)
        for k, c in other.terms.items():
            total = terms[k] + c if k in terms else c
            if total.is_zero():
                del terms[k]
            else:
                terms[k] = total
        return VectorField(self.dim, terms)

    def __sub__(self, other: "VectorField") -> "VectorField":
        terms = dict(self.terms)
        for k, c in other.terms.items():
            total = terms[k] - c if k in terms else -c
            if total.is_zero():
                del terms[k]
            else:
                terms[k] = total
        return VectorField(self.dim, terms)

    def __neg__(self) -> "VectorField":
        return VectorField(self.dim, {k: -c for k, c in self.terms.items()})

    def scale(self, c) -> "VectorField":
        c = as_expr(c)
        return self.map(lambda a: c * a)

    @staticmethod
    def accumulate(dim: int, pairs) -> "VectorField":
        """sum c * v over (c, v) pairs of an Expr and a VectorField, with
        zero components dropped.  `sum_of_products` sums a component with
        two or more products: those over one denominator in at most one
        variable are added in one monomial dict and cancelled once.  A
        product over two or more variables stays the canonical `c * a`,
        because there one gcd of the fused sum costs more than the gcds of
        its terms (the `x+y+1` chart frame's report: 0.7 s fused, 0.4 s
        per term; `x*y+1`: 45 s fused, 1.5 s per term).  A lone product
        is `c * a`, or one factor when the other is 1."""
        products: dict[int, list[tuple[Expr, Expr]]] = {}
        for c, v in pairs:
            for k, a in v.terms.items():
                products.setdefault(k, []).append((c, a))
        terms: dict[int, Expr] = {}
        for k, prods in products.items():
            if len(prods) > 1:
                a = sum_of_products(prods)
            else:
                (c, a), = prods
                a = a if c == _ONE else c if a == _ONE else c * a
            if not a.is_zero():
                terms[k] = a
        return VectorField(dim, terms)

    @staticmethod
    def combination(coeffs, vectors) -> "VectorField":
        """sum_k c_k * vectors[k-1], with c_k the k-th coefficient (1-based)
        of coeffs: a sequence of scalars or a VectorField."""
        pairs = (coeffs.items() if isinstance(coeffs, VectorField)
                 else enumerate(coeffs, 1))
        return VectorField.accumulate(
            vectors[0].dim, ((as_expr(c), vectors[k - 1]) for k, c in pairs))


class JacobiViolation(NamedTuple):
    triple: tuple[int, int, int]
    residual: VectorField


class JacobiReport(NamedTuple):
    ok: bool
    violations: tuple[JacobiViolation, ...]


class FrameManifold:
    """Frame presentation of a manifold, abstract or chart realized.

    Build through the `abstract` or `chart` classmethods.  The metric is
    given on frame pairs and must be parameter-only (constant along the
    manifold); it defaults to the identity, the orthonormal-frame case.
    It is held as sparse rows, metric_rows[i-1] = g(e_i, .), and its
    inverse as sparse rows.  The metric is inverted first, so a singular
    metric is named before a singular chart frame matrix.  When every row
    is its basis field, `lower` and `raise_index` return their field
    without arithmetic.
    """

    def __init__(self, mode, dim, symbols, metric, structure, chart_frame):
        if dim < 3 or dim % 2 == 0:
            raise FrameError(f"dimension must be an odd integer >= 3, got {dim}")
        self.mode = mode
        self.dim = dim
        self.symbols = symbols
        self.metric_rows = metric
        self.chart_frame = chart_frame
        self._coordinates = symbols.coordinates()
        self._coordinate_names = symbols.coordinate_names
        # False when every frame derivative is zero: abstract, no coordinate
        self.differentiates = mode == MODE_CHART or bool(self._coordinate_names)
        self._metric_inverse = tuple(map(VectorField.make, invert(
            [list(row.components) for row in metric], "metric")))
        self._identity_metric = all(row.terms == {i: _ONE}
                                    for i, row in enumerate(metric, 1))
        if mode == MODE_CHART:
            self._chart_inverse = tuple(map(VectorField.make, invert(
                [list(row.components) for row in chart_frame],
                "chart frame matrix")))
            structure = self.brackets_from_chart()
        self._brackets = structure

    # -- construction -------------------------------------------------------

    @classmethod
    def abstract(cls, dim: int, symbols: SymbolTable, brackets: dict,
                 metric=None) -> "FrameManifold":
        """Abstract mode: brackets maps 1-based pairs (i, j) with i < j to
        component sequences of [e_i, e_j]; omitted pairs are zero."""
        structure: dict[tuple[int, int], VectorField] = {}
        for (i, j), comps in brackets.items():
            if not (1 <= i < j <= dim):
                raise FrameError(f"bracket pair ({i}, {j}) must satisfy "
                                 f"1 <= i < j <= {dim}")
            vf = _as_vector(comps, dim)
            for c in vf.terms.values():
                _require_parameter_only(c, symbols,
                                        f"structure constant of [e{i},e{j}]")
            structure[(i, j)] = vf
        metric = check_metric(metric, dim, symbols)
        return cls(MODE_ABSTRACT, dim, symbols, metric, structure, None)

    @classmethod
    def chart(cls, dim: int, symbols: SymbolTable, frame,
              metric=None) -> "FrameManifold":
        """Chart mode: frame[i][a] is the coefficient of the a-th coordinate
        partial in e_(i+1); coordinates are the coordinate-kind symbols in
        declaration order and there must be exactly dim of them."""
        coords = symbols.coordinates()
        if len(coords) != dim:
            raise FrameError(f"chart mode needs exactly {dim} coordinate "
                             f"symbols, got {len(coords)}")
        rows = tuple(_as_vector(row, dim) for row in frame)
        if len(rows) != dim:
            raise FrameError(f"chart frame must have {dim} rows")
        metric = check_metric(metric, dim, symbols)
        return cls(MODE_CHART, dim, symbols, metric, None, rows)

    # -- basic queries -------------------------------------------------------

    def coordinates(self) -> tuple[Symbol, ...]:
        return self._coordinates

    def basis(self, i: int) -> VectorField:
        return VectorField.basis(self.dim, i)

    def metric_entry(self, i: int, j: int) -> Expr:
        return self.metric_rows[i - 1][j]

    def metric_inverse(self) -> tuple[VectorField, ...]:
        """Rows of the inverse metric as sparse vector fields."""
        return self._metric_inverse

    def lower(self, v: VectorField) -> VectorField:
        """The covector g(v, .) as the field of its frame values: v itself
        under the identity metric, since a VectorField is never mutated."""
        if self._identity_metric:
            return v
        return VectorField.combination(v, self.metric_rows)

    def raise_index(self, lowered) -> VectorField:
        """The vector field w with g(w, e_k) = lowered[k] for every k;
        lowered is a VectorField or a sequence of the dim values."""
        if self._identity_metric and isinstance(lowered, VectorField):
            return lowered
        return VectorField.combination(lowered, self.metric_inverse())

    def g(self, x: VectorField, y: VectorField) -> Expr:
        total = Expr.zero()
        for i, xi in x.items():
            row = self.metric_rows[i - 1].terms
            for j, yj in y.items():
                if j in row:
                    total = total + row[j] * xi * yj
        return total

    # -- differentiation and brackets ---------------------------------------

    def directional_derivative(self, i: int, f: Expr) -> Expr:
        """e_i applied to a scalar.  In abstract mode only parameter-only
        scalars are differentiable (to zero); a coordinate-dependent scalar
        is an error there."""
        f = as_expr(f)
        if self.mode == MODE_ABSTRACT:
            bad = f.variables() & self._coordinate_names
            if bad:
                raise FrameError(
                    f"coordinate-dependent scalar {f} cannot be "
                    "differentiated in abstract mode")
            return Expr.zero()
        coords = self._coordinates
        total = Expr.zero()
        for a, fa in self.chart_frame[i - 1].items():
            total = total + fa * f.diff(coords[a - 1])
        return total

    def derivative(self, i: int, v: VectorField, memo=None) -> VectorField:
        """e_i applied to each frame component of v: the zero field at once
        in abstract mode with no coordinate, where all are parameter-only.
        `memo`, a dict the caller owns, keeps e_i(c) by (i, c) across
        calls, and gives e_i(-c) as -e_i(c)."""
        if not self.differentiates:
            return VectorField.zero(v.dim)
        memo = {} if memo is None else memo

        def derived(c):
            d = memo.get((i, c))
            if d is None:
                d = memo.get((i, -c))
                d = memo[i, c] = (self.directional_derivative(i, c)
                                  if d is None else -d)
            return d
        return v.map(derived)

    def chart_inverse(self) -> tuple[VectorField, ...]:
        """Rows of the inverse chart coefficient matrix as sparse vector
        fields: row a expands the a-th coordinate partial in the frame."""
        if self.mode != MODE_CHART:
            raise FrameError("chart_inverse is defined in chart mode only")
        return self._chart_inverse

    def brackets_from_chart(self) -> dict:
        """All frame brackets re-expressed in the frame, derived afresh
        from the chart by differentiating the coefficient rows; the
        constructor stores them once.  Chart mode only."""
        if self.mode != MODE_CHART:
            raise FrameError("brackets_from_chart requires chart mode")
        rows, inv_rows = self.chart_frame, self.chart_inverse()
        table: dict[tuple[int, int], VectorField] = {}
        for i in range(1, self.dim + 1):
            for j in range(i + 1, self.dim + 1):
                # coordinate components of [e_i, e_j]
                coord = (self.derivative(i, rows[j - 1])
                         - self.derivative(j, rows[i - 1]))
                table[(i, j)] = VectorField.combination(coord, inv_rows)
        return table

    def bracket_basis(self, i: int, j: int) -> VectorField:
        """[e_i, e_j] as a frame vector field (antisymmetric in i, j)."""
        if i < j:
            return self._brackets.get((i, j), VectorField.zero(self.dim))
        return -self._brackets.get((j, i), VectorField.zero(self.dim))

    def bracket(self, x: VectorField, y: VectorField) -> VectorField:
        """Lie bracket of two frame vector fields, with the Leibniz terms
        from non-constant components: one accumulation of x^i e_i(Y),
        -y^j e_j(X) and x^i y^j [e_i, e_j]."""
        pairs = [(xi, self.derivative(i, y)) for i, xi in x.items()]
        pairs += [(-yj, self.derivative(j, x)) for j, yj in y.items()]
        pairs += [(xi * yj, self.bracket_basis(i, j))
                  for i, xi in x.items() for j, yj in y.items() if i != j]
        return VectorField.accumulate(self.dim, pairs)

    def check_jacobi(self) -> JacobiReport:
        """Cyclic-sum test on all basis triples, derivative terms included:
        [e_a, Y] = e_a(Y) + sum_l Y^l [e_a, e_l], so each cyclic sum is one
        accumulation over the bracket table's nonzero entries."""
        violations = []
        for i, j, k in combinations(range(1, self.dim + 1), 3):
            pairs = []
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                inner = self.bracket_basis(b, c)
                if inner.terms:
                    pairs.append((_ONE, self.derivative(a, inner)))
                    pairs += [(y, self.bracket_basis(a, l))
                              for l, y in inner.items()]
            residual = VectorField.accumulate(self.dim, pairs)
            if not residual.is_zero():
                violations.append(JacobiViolation((i, j, k), residual))
        return JacobiReport(not violations, tuple(violations))

    # -- validation and substitution ----------------------------------------

    def validate(self) -> list[str]:
        """The Jacobi check as human-readable issues, empty when it holds."""
        jac = self.check_jacobi()
        if jac.ok:
            return []
        triples = ", ".join(str(v.triple) for v in jac.violations)
        return [f"Jacobi identity fails on triples {triples}"]

    def substitute_parameters(self, bindings: dict) -> "FrameManifold":
        """New manifold with parameter symbols replaced by rationals, all
        bindings applied at once through `Expr.bind`."""
        values = parameter_values(self.symbols, bindings)
        metric = tuple(row.bind(values) for row in self.metric_rows)
        if self.mode == MODE_ABSTRACT:
            structure = {pair: vf.bind(values)
                         for pair, vf in self._brackets.items()}
            return FrameManifold(self.mode, self.dim, self.symbols, metric,
                                 structure, None)
        frame = tuple(row.bind(values) for row in self.chart_frame)
        return FrameManifold(self.mode, self.dim, self.symbols, metric,
                             None, frame)


def _as_vector(components, dim: int) -> VectorField:
    vf = VectorField.make(components)
    if vf.dim != dim:
        raise FrameError(f"expected {dim} components, got {vf.dim}")
    return vf


_NO_NAMES: frozenset[str] = frozenset()


def coordinates_in(e: Expr, symbols: SymbolTable) -> frozenset[str]:
    """Names of the coordinate symbols that e depends on."""
    if e.value is not None:
        return _NO_NAMES
    return e.variables() & symbols.coordinate_names


def coordinate_found(e: Expr, symbols: SymbolTable) -> str | None:
    """The text "found coordinate 'x' in <e>" for the first coordinate
    that e depends on, or None when e is parameter-only."""
    bad = coordinates_in(e, symbols)
    if not bad:
        return None
    try:
        text = str(e)
    except ValueError:  # a placeholder, so that the error text can be formed
        text = "an expression with a number past the int/str digit limit"
    return f"found coordinate {sorted(bad)[0]!r} in {text}"


def _require_parameter_only(e: Expr, symbols: SymbolTable, what: str):
    found = coordinate_found(e, symbols)
    if found:
        raise FrameError(f"{what} must be parameter-only, {found}")


def check_metric(metric, dim: int, symbols: SymbolTable):
    """The rows of a dim x dim metric matrix as sparse vector fields, the
    identity when None.  Raises FrameError unless the matrix is square,
    symmetric and parameter-only."""
    if metric is None:
        return tuple(VectorField.basis(dim, i) for i in range(1, dim + 1))
    rows = tuple(tuple(as_expr(e) for e in row) for row in metric)
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise FrameError(f"metric must be a {dim}x{dim} matrix")
    for i in range(dim):
        for j in range(dim):
            _require_parameter_only(rows[i][j], symbols, f"metric entry "
                                    f"g(e{i + 1},e{j + 1})")
            if rows[i][j] != rows[j][i]:
                raise FrameError("metric is not symmetric at "
                                 f"(e{i + 1},e{j + 1})")
    return tuple(VectorField.make(row) for row in rows)


def parameter_values(symbols: SymbolTable,
                     bindings: dict) -> dict[str, Fraction]:
    """The bindings as a name -> Fraction dict for `Expr.bind`; keys are
    names or Symbols.  An unknown name raises ExprError and a coordinate
    FrameError."""
    values = {}
    for key, value in bindings.items():
        name = key.name if isinstance(key, Symbol) else str(key)
        if symbols.get(name).kind == KIND_COORDINATE:
            raise FrameError(f"cannot bind coordinate {name!r}; only "
                             "parameters are substitutable")
        values[name] = Fraction(value)
    return values


__all__ = [
    "MODE_ABSTRACT",
    "MODE_CHART",
    "FrameError",
    "FrameManifold",
    "JacobiReport",
    "JacobiViolation",
    "VectorField",
    "as_expr",
    "coordinate_found",
    "coordinates_in",
    "parameter_values",
]

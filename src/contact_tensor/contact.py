"""Almost contact metric structures on a framed manifold.

The structure is a triple (phi, xi, eta): an endomorphism phi of the frame
bundle, the Reeb field xi, and the dual form eta, with eta derived from xi
through the metric rather than declared separately.  Validation collects
every axiom violation instead of stopping at the first, so a report can show
the whole failure surface of a bad manifest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import Expr
from .frame import FrameManifold, VectorField, parameter_values


class ContactError(Exception):
    """Raised for structurally unusable contact data."""


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance: which law, at which frame indices."""

    law: str
    indices: tuple[int, ...]
    lhs: object
    rhs: object

    def describe(self) -> str:
        where = ",".join(str(i) for i in self.indices)
        return f"{self.law} fails at ({where}): {self.lhs} != {self.rhs}"


@dataclass(frozen=True)
class ContactMetricReport:
    ok: bool
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class HEigenstructure:
    """Eigenvalue lambda and the frame partition D(lambda), D(-lambda), D(0)."""

    lam: Expr
    d_plus: tuple[int, ...]
    d_minus: tuple[int, ...]
    d_zero: tuple[int, ...]


class ContactStructure:
    """phi, xi and the metric-dual eta over a frame manifold.

    phi is supplied as frame images: phi_rows[i] = phi(e_(i+1)).  eta is
    the lowered xi, eta[i] = g(e_i, xi), never taken from input, and
    eta(X) is g(X, xi).  The constructor also builds phi_square_rows, the
    images phi^2(e_(i+1)), and h as the frame images h[i] = h(e_(i+1)),
    or None when h fails its invariants, and then `h_error` is the
    ContactError that says which.  Nothing is set after construction.
    """

    def __init__(self, manifold: FrameManifold, phi_rows, xi: VectorField):
        dim = manifold.dim
        rows = tuple(phi_rows)
        if len(rows) != dim or any(r.dim != dim for r in rows):
            raise ContactError(f"phi needs {dim} frame images of length {dim}")
        if xi.dim != dim:
            raise ContactError(f"xi needs {dim} components")
        self.manifold = manifold
        self.phi_rows = rows
        self.xi = xi
        self.eta = manifold.lower(xi)
        self.phi_square_rows = tuple(self.apply_phi(r) for r in rows)
        # a manifest can carry a phi whose h breaks the invariants
        try:
            self.h, self.h_error = self.compute_h(), None
        except ContactError as exc:
            self.h, self.h_error = None, exc

    def apply_phi(self, x: VectorField) -> VectorField:
        return VectorField.combination(x, self.phi_rows)

    def substitute_parameters(self, bindings: dict) -> "ContactStructure":
        """Same structure over the parameter-substituted manifold."""
        values = parameter_values(self.manifold.symbols, bindings)
        manifold = self.manifold.substitute_parameters(bindings)
        rows = tuple(r.bind(values) for r in self.phi_rows)
        return ContactStructure(manifold, rows, self.xi.bind(values))

    # -- axioms -------------------------------------------------------------

    def validate_almost_contact(self) -> list[Violation]:
        """All almost contact metric axiom violations, exhaustively.

        Checked on frame fields: eta(xi) = 1, phi^2 = -id + eta (x) xi,
        phi(xi) = 0 and g(phi X, phi Y) = g(X, Y) - eta(X) eta(Y).  The
        first two imply phi(xi) = 0 and eta o phi = 0 (Blair, Riemannian
        Geometry of Contact and Symplectic Manifolds, Thm 4.1): phi^3 X
        taken both ways gives eta(phi X) xi = eta(X) phi xi, so phi xi =
        eta(phi xi) xi and 0 = phi^2 xi = eta(phi xi)^2 xi; thus phi xi
        = 0 and eta o phi = 0.  Only phi(xi) = 0 is checked, as it names
        the commonest mistake.
        """
        m = self.manifold
        dim = m.dim
        out: list[Violation] = []
        trace = m.g(self.xi, self.xi)
        if trace != Expr.one():
            out.append(Violation("eta(xi) = 1", (), str(trace), "1"))
        phi_xi = self.apply_phi(self.xi)
        if not phi_xi.is_zero():
            out.append(Violation("phi(xi) = 0", (),
                                 [str(c) for c in phi_xi.components], "0"))
        for i in range(1, dim + 1):
            lhs = self.phi_square_rows[i - 1]
            rhs = -m.basis(i) + self.xi.scale(self.eta[i])
            if not (lhs - rhs).is_zero():
                out.append(Violation("phi^2 = -id + eta(x)xi", (i,),
                                     [str(c) for c in lhs.components],
                                     [str(c) for c in rhs.components]))
        for i in range(1, dim + 1):
            for j in range(i, dim + 1):
                lhs = m.g(self.phi_rows[i - 1], self.phi_rows[j - 1])
                rhs = m.metric_entry(i, j) - self.eta[i] * self.eta[j]
                if lhs != rhs:
                    out.append(Violation(
                        "g(phi X, phi Y) = g(X, Y) - eta(X)eta(Y)",
                        (i, j), str(lhs), str(rhs)))
        return out

    def d_eta(self, i: int, j: int) -> Expr:
        """d eta on a frame pair, with the 1/2 convention:
        d eta(X, Y) = (1/2)(X(eta Y) - Y(eta X) - eta([X, Y]))."""
        m = self.manifold
        x_term = m.directional_derivative(i, self.eta[j])
        y_term = m.directional_derivative(j, self.eta[i])
        br = m.g(m.bracket_basis(i, j), self.xi)
        return (x_term - y_term - br) / 2

    def check_contact_metric(self) -> ContactMetricReport:
        """Contact metric condition d eta(X, Y) = g(X, phi Y) on all pairs."""
        m = self.manifold
        out = []
        for i in range(1, m.dim + 1):
            for j in range(i + 1, m.dim + 1):
                lhs = self.d_eta(i, j)
                rhs = m.g(m.basis(i), self.phi_rows[j - 1])
                if lhs != rhs:
                    out.append(Violation("d eta(X,Y) = g(X, phi Y)", (i, j),
                                         str(lhs), str(rhs)))
        return ContactMetricReport(not out, tuple(out))

    # -- the h operator -----------------------------------------------------

    def compute_h(self) -> tuple[VectorField, ...]:
        """The frame images h(e_i) of h X = (1/2)([xi, phi X] - phi [xi, X]),
        derived afresh; the constructor stores them as `h`.

        The defining invariants h(xi) = 0, h phi = -phi h, tr h = 0 and
        self-adjointness are verified; a failure means the input structure
        is not a contact metric structure and raises ContactError.
        """
        m = self.manifold
        dim = m.dim
        half = Expr.rational(1, 2)
        h = tuple((m.bracket(self.xi, self.phi_rows[i - 1])
                   - self.apply_phi(m.bracket(self.xi, m.basis(i))))
                  .scale(half) for i in range(1, dim + 1))
        problems = []
        if not VectorField.combination(self.xi, h).is_zero():
            problems.append("h(xi) != 0")
        for i in range(1, dim + 1):
            anti = (VectorField.combination(self.phi_rows[i - 1], h)
                    + self.apply_phi(h[i - 1]))
            if not anti.is_zero():
                problems.append(f"(h phi + phi h)(e{i}) != 0")
        tr = Expr.zero()
        for i in range(dim):
            tr = tr + h[i][i + 1]
        if not tr.is_zero():
            problems.append(f"tr h = {tr} != 0")
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                ei, ej = m.basis(i), m.basis(j)
                if m.g(h[i - 1], ej) != m.g(ei, h[j - 1]):
                    problems.append(f"h is not self-adjoint at (e{i},e{j})")
        if problems:
            raise ContactError("h operator invariants fail, the structure "
                               "is not contact metric: " + "; ".join(problems))
        return h


def h_eigenstructure(h: tuple[VectorField, ...]) -> HEigenstructure:
    """Eigenvalue partition of a frame-diagonal h, given as its frame
    images h[i] = h(e_(i+1)).

    The frame must already diagonalize h; otherwise the caller has to
    re-express the frame in an h-eigenbasis first and this raises.  The
    representative lambda is the eigenvalue whose canonical leading
    coefficient is positive, so numeric frames yield the positive root and
    a symbolic lambda is preferred over -lambda.
    """
    dim = len(h)
    for i, row in enumerate(h, 1):
        if any(j != i for j in row.terms):
            raise ContactError(
                "h is not diagonal in this frame; re-express the frame "
                "in an h-eigenbasis before asking for the eigenstructure")
    diag = [row[i] for i, row in enumerate(h, 1)]
    values = [d for d in diag if not d.is_zero()]
    if not values:
        return HEigenstructure(Expr.zero(), (), (),
                               tuple(range(1, dim + 1)))
    lam = None
    for d in values:
        if d.num.leading()[1] > 0:
            lam = d
            break
    if lam is None:
        lam = -values[0]
    plus, minus, zero = [], [], []
    for i, d in enumerate(diag, start=1):
        if d.is_zero():
            zero.append(i)
        elif d == lam:
            plus.append(i)
        elif d == -lam:
            minus.append(i)
        else:
            raise ContactError(
                f"h eigenvalue {d} is neither +-{lam} nor 0; the frame does "
                "not split into D(lambda), D(-lambda), D(0)")
    return HEigenstructure(lam, tuple(plus), tuple(minus), tuple(zero))


__all__ = [
    "ContactError",
    "ContactMetricReport",
    "ContactStructure",
    "HEigenstructure",
    "Violation",
    "h_eigenstructure",
]

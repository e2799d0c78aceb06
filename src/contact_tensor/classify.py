"""Classifiers built on the curvature tables.

Covers the Sasakian test, exact solving of the nullity condition

    R(X,Y)xi = kappa (eta(Y)X - eta(X)Y) + mu (eta(Y)hX - eta(X)hY)

for the unknowns (kappa, mu), flatness and constant curvature, local
symmetry (nabla R = 0), phi-symmetry (phi^2 applied to nabla R vanishes)
and phi-recurrence (phi^2(nabla R) proportional to R via a 1-form A),
each in a global and a local variant.  "Local" restricts every input
slot to frame fields annihilated by eta.  When eta has one nonzero frame
component these span ker eta, so by function-linearity this is equivalent
to testing all fields orthogonal to xi; otherwise the local scope raises.

Witnesses are reported at the lexicographically smallest violating index
so reports are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .contact import ContactStructure
from .curvature import CurvatureTables, ricci_operator_of
from .expr import Expr, PoleError
from .frame import FrameManifold, VectorField, coordinates_in

SCOPE_GLOBAL = "global"
SCOPE_LOCAL = "local"


class ClassifyError(Exception):
    pass


class SelfCheckError(ClassifyError):
    """An internal consistency check failed; indicates an engine bug."""


@dataclass(frozen=True)
class SasakianVerdict:
    ok: bool
    witness: tuple[int, int] | None = None


@dataclass(frozen=True)
class KappaMuVerdict:
    """Solution state of the nullity condition.

    status is "consistent" (unique kappa, mu), "underdetermined" (an
    affine family of solutions; the determined unknowns are filled in,
    a mixed line is reported through `relation`) or "inconsistent"
    (witness carries (i, j, xi-index), witness_component the frame
    component of the first violated equation).
    """

    status: str
    kappa: Expr | None = None
    mu: Expr | None = None
    relation: str | None = None
    witness: tuple | None = None
    witness_component: int | None = None
    constant_flag: bool | None = None
    kappa_le_one: bool | None = None


@dataclass(frozen=True)
class SymmetryVerdict:
    ok: bool
    witness: tuple | None = None   # (w, i, j, k, l), 1-based


@dataclass(frozen=True)
class RecurrenceVerdict:
    status: str                    # recurrent | not_recurrent | trivially_recurrent
    scope: str
    A: VectorField | None = None   # A(e_w) as the component at w
    obstruction: str | None = None
    obstruction_index: tuple | None = None


@dataclass(frozen=True)
class ClassificationReport:
    contact_valid: bool | None
    sasakian: SasakianVerdict | None
    kappa_mu: KappaMuVerdict | None
    flat: bool
    constant_curvature: Expr | None
    locally_symmetric: SymmetryVerdict
    phi_symmetric: SymmetryVerdict | None
    locally_phi_symmetric: SymmetryVerdict | None
    phi_recurrent: RecurrenceVerdict | None
    locally_phi_recurrent: RecurrenceVerdict | None
    diagnostics: tuple[str, ...] = ()


def _phi_square(structure: ContactStructure, v: VectorField) -> VectorField:
    return VectorField.combination(v, structure.phi_square_rows)


def _scope_indices(structure: ContactStructure, scope: str) -> tuple[int, ...]:
    m = structure.manifold
    if scope == SCOPE_GLOBAL:
        return tuple(range(1, m.dim + 1))
    if scope != SCOPE_LOCAL:
        raise ClassifyError(f"unknown scope {scope!r}")
    eta = structure.eta.terms
    idxs = tuple(i for i in range(1, m.dim + 1) if i not in eta)
    if m.dim - len(idxs) > 1:
        raise ClassifyError(
            f"eta has {m.dim - len(idxs)} nonzero frame components, so the "
            "frame fields it annihilates do not span ker eta")
    return idxs


def _slots(idxs) -> list[tuple[int, int, int]]:
    """(i, j, k) over idxs with i < j, in lexicographic order."""
    return [(i, j, k) for i, j in combinations(idxs, 2) for k in idxs]


def _nullity_sides(curv: CurvatureTables, structure: ContactStructure
                   ) -> list[tuple[int, int, VectorField, VectorField]]:
    """(i, j, R(e_i, e_j)xi, eta(e_j)e_i - eta(e_i)e_j) over i < j in
    lexicographic order, one table for both nullity scans."""
    m = curv.manifold
    eta = structure.eta
    return [(i, j, curv.riemann_apply(m.basis(i), m.basis(j), structure.xi),
             m.basis(i).scale(eta[j]) - m.basis(j).scale(eta[i]))
            for i, j in combinations(range(1, m.dim + 1), 2)]


def is_sasakian(curv: CurvatureTables, structure: ContactStructure) -> SasakianVerdict:
    """Check R(e_i, e_j)xi = eta(e_j)e_i - eta(e_i)e_j for all i, j.

    Both sides are antisymmetric in (i, j), so one lexicographic scan over
    i < j decides it.  The first failing pair is the witness (j, i), xi-like
    slot first: the pair a scan over both orders, j outer, meets first.
    """
    return _sasakian(_nullity_sides(curv, structure))


def _sasakian(sides) -> SasakianVerdict:
    for i, j, lhs, rhs in sides:
        if not (lhs - rhs).is_zero():
            return SasakianVerdict(False, (j, i))
    return SasakianVerdict(True)


class _AffineSolver:
    """Incremental solver for a system a*kappa + b*mu = c over Expr.

    Tracks the solution set exactly: the full plane, a line, a point, or
    empty.  feed() returns False on the equation that empties the set.
    """

    def __init__(self):
        self.state = "plane"
        self.line = None       # (a, b, c)
        self.point = None      # (kappa, mu)
        self.witness = None    # tag of the violated equation

    def feed(self, a: Expr, b: Expr, c: Expr, tag) -> bool:
        if a.is_zero() and b.is_zero():
            if c.is_zero():
                return True
            self.state, self.witness = "empty", tag
            return False
        if self.state == "plane":
            self.state, self.line = "line", (a, b, c)
            return True
        if self.state == "line":
            a1, b1, c1 = self.line
            det = a1 * b - a * b1
            if not det.is_zero():
                kappa = (c1 * b - c * b1) / det
                mu = (a1 * c - a * c1) / det
                self.state, self.point = "point", (kappa, mu)
                return True
            # parallel line: consistent only if it is the same line
            t = a / a1 if not a1.is_zero() else b / b1
            if (a - t * a1).is_zero() and (b - t * b1).is_zero() \
                    and (c - t * c1).is_zero():
                return True
            self.state, self.witness = "empty", tag
            return False
        kappa, mu = self.point
        if (a * kappa + b * mu - c).is_zero():
            return True
        self.state, self.witness = "empty", tag
        return False


def _kappa_above_one(kappa: Expr) -> dict[str, int] | None:
    """The first binding where kappa > 1, or None.  It tries all parameters
    0 and, with one parameter, +B and -B for B a power of two past every
    real root of the numerator and denominator of 1 - kappa (Cauchy's
    bound), where their signs are the signs at infinity.  Poles are
    skipped."""
    names = sorted(kappa.variables())
    tries = [dict.fromkeys(names, 0)]
    if len(names) == 1:
        rest = Expr.one() - kappa
        top = max(abs(Fraction(c) / p.leading()[1])
                  for p in (rest.num, rest.den) for c in p.terms.values())
        b = 1 << math.ceil(top).bit_length()
        tries += [{names[0]: b}, {names[0]: -b}]
    for at in tries:
        try:
            if kappa.eval(at) > 1:
                return at
        except PoleError:
            pass
    return None


def _kappa_le_one(kappa: Expr) -> bool | None:
    """Decide kappa <= 1 wherever kappa is defined: True when 1 - kappa =
    n/d (d monic) has every term of n and d a positive multiple of an even
    monomial, so n >= 0 and d > 0; False at a binding where kappa > 1;
    None (unknown) otherwise."""
    rest = Expr.one() - kappa
    if all(c > 0 and not any(e % 2 for _, e in m)
           for p in (rest.num, rest.den) for m, c in p.terms.items()):
        return True
    return False if _kappa_above_one(kappa) is not None else None


def solve_kappa_mu(curv: CurvatureTables, structure: ContactStructure,
                   h: tuple[VectorField, ...]) -> KappaMuVerdict:
    """Solve the nullity condition for (kappa, mu) exactly, with h given
    as its frame images h[i] = h(e_(i+1)).

    One linear equation per pair i < j and frame component; the solution
    set is tracked incrementally, so the first violated equation is the
    inconsistency witness.
    """
    return _solve_kappa_mu(curv, structure, h,
                           _nullity_sides(curv, structure))


def _solve_kappa_mu(curv: CurvatureTables, structure: ContactStructure,
                    h: tuple[VectorField, ...], sides) -> KappaMuVerdict:
    m = curv.manifold
    eta, xi = structure.eta, structure.xi.terms
    xi_idx = next((k for k in xi if xi == {k: Expr.one()}), None)
    solver = _AffineSolver()
    for i, j, lhs, a_vec in sides:
        b_vec = h[i - 1].scale(eta[j]) - h[j - 1].scale(eta[i])
        for l in range(1, m.dim + 1):
            if not solver.feed(a_vec[l], b_vec[l], lhs[l], (i, j, l)):
                return KappaMuVerdict(
                    status="inconsistent",
                    witness=(i, j, xi_idx) if xi_idx else (i, j),
                    witness_component=l)
    if solver.state == "plane":
        # no equation constrained anything
        return KappaMuVerdict(status="underdetermined", constant_flag=True)
    relation = None
    if solver.state == "point":
        kappa, mu = solver.point
    else:
        # a != 0 here, so kappa is always solved for: the e_i component
        # of a_vec is eta(e_j), so with xi != 0 some equation has a' != 0,
        # and fed after a line (0, b, c), b != 0, it gives det = -a'*b != 0
        # and a point; with xi = 0 every a and b is 0, and the plane stays
        a, b, c = solver.line
        kappa, mu = c / a, None
        if not b.is_zero():        # particular solution with mu = 0
            mu = Expr.zero()
            relation = f"({a})*kappa + ({b})*mu = ({c})"
    const = not any(coordinates_in(e, m.symbols)
                    for e in (kappa, mu) if e is not None)
    return KappaMuVerdict(
        status="consistent" if solver.state == "point" else "underdetermined",
        kappa=kappa, mu=mu, relation=relation, constant_flag=const,
        kappa_le_one=_kappa_le_one(kappa) if const else None)


def constant_curvature(curv: CurvatureTables) -> Expr | None:
    """Return c if R(X,Y)Z = c (g(Y,Z)X - g(X,Z)Y) holds, else None.

    Contracting the right side over its first slot gives the scalar
    curvature r = n(n-1)c, so c = r/(n(n-1)) is the only candidate.  Both
    sides are antisymmetric in (X, Y), so the pairs i < j decide it.
    With c = 0 the right side vanishes, so an empty riemann_support does.
    """
    m = curv.manifold
    c = curv.scalar / (m.dim * (m.dim - 1))
    if c.is_zero():
        return None if curv.riemann_support else c
    for i, j, k in _slots(range(1, m.dim + 1)):
        shape = (m.basis(i).scale(m.metric_entry(j, k))
                 - m.basis(j).scale(m.metric_entry(i, k)))
        if curv.riemann(i, j, k) != shape.scale(c):
            return None
    return c


def is_locally_symmetric(curv: CurvatureTables) -> SymmetryVerdict:
    """nabla R = 0: its support (the i < j keys with a nonzero field, in
    the dense scan's order) is empty, or its first key is the witness."""
    if not curv.nabla_r_support:
        return SymmetryVerdict(True)
    key = curv.nabla_r_support[0]
    return SymmetryVerdict(False, (*key, min(curv.nabla_r(*key).terms)))


def phi_symmetry(curv: CurvatureTables, structure: ContactStructure,
                 scope: str) -> SymmetryVerdict:
    """phi^2((nabla_{e_w} R)(e_i, e_j) e_k) = 0 over the scope indices."""
    return _phi_scan(curv, structure, scope, {})[0]


def solve_phi_recurrence(curv: CurvatureTables, structure: ContactStructure,
                         scope: str) -> RecurrenceVerdict:
    """Solve phi^2((nabla_{e_w} R)(e_i,e_j)e_k) = A(e_w) R(e_i,e_j)e_k."""
    return _phi_scan(curv, structure, scope, {})[1]


def _phi_scan(curv: CurvatureTables, structure: ContactStructure,
              scope: str, squares: dict
              ) -> tuple[SymmetryVerdict, RecurrenceVerdict]:
    """phi-symmetry and phi-recurrence over the scope indices, applying
    phi^2 once to each nonzero nabla R field, memoized in squares by key
    so that scans sharing it share the work.

    The curvature coefficients do not depend on w, so either every
    direction determines its A component by an exact ratio, or no
    direction does and the relation is vacuous.  A must have a nonzero
    in-scope component to count as recurrent.  Every ratio is 0 before
    the first nonzero phi^2 field, so recurrence cannot fail before the
    scan reaches the phi-symmetry witness.  Each w visits, in order, the
    in-scope slots of riemann_support and of its nabla_r_support keys:
    a slot with R != 0 and nabla R = 0 forces A(e_w) = 0, and both sides
    vanish at any other skipped slot, as at a skipped l.
    """
    idxs = _scope_indices(structure, scope)
    in_scope = set(idxs)
    r_slots = [s for s in curv.riemann_support if in_scope.issuperset(s)]
    slots = {w: set(r_slots) for w in idxs}
    for w, i, j, k in curv.nabla_r_support:
        if in_scope.issuperset((w, i, j, k)):
            slots[w].add((i, j, k))
    sym = SymmetryVerdict(True)
    components: dict[int, Expr] = {}
    for w in idxs:
        a_w = None
        for i, j, k in sorted(slots[w]):
            lhs_vec = curv.nabla_r(w, i, j, k)
            if not lhs_vec.is_zero():
                if (w, i, j, k) not in squares:
                    squares[w, i, j, k] = _phi_square(structure, lhs_vec)
                lhs_vec = squares[w, i, j, k]
            if sym.ok and not lhs_vec.is_zero():
                sym = SymmetryVerdict(False, (w, i, j, k, min(lhs_vec.terms)))
            rhs_vec = curv.riemann(i, j, k)
            for l in sorted(lhs_vec.terms.keys() | rhs_vec.terms.keys()):
                lhs, rhs = lhs_vec[l], rhs_vec[l]
                if rhs.is_zero():
                    holds = lhs.is_zero()
                elif a_w is None:
                    a_w, holds = lhs / rhs, True
                else:
                    holds = (lhs - a_w * rhs).is_zero()
                if not holds:
                    index = (w, i, j, k, l)
                    return sym, RecurrenceVerdict(
                        status="not_recurrent", scope=scope,
                        obstruction=(f"component {index}: lhs {lhs}, "
                                     f"curvature coefficient {rhs}"),
                        obstruction_index=index)
        if a_w is not None:
            components[w] = a_w
    a = VectorField(curv.manifold.dim,
                    {w: c for w, c in components.items() if not c.is_zero()})
    if not components:
        # both sides vanish identically: any nonzero A works
        rec = RecurrenceVerdict(status="trivially_recurrent", scope=scope,
                                A=structure.eta)
    elif a.is_zero():
        rec = RecurrenceVerdict(status="not_recurrent", scope=scope,
                                obstruction="only A=0")
    else:
        rec = RecurrenceVerdict(status="recurrent", scope=scope, A=a)
    return sym, rec


def check_3d_decomposition(curv: CurvatureTables) -> bool:
    """The dimension-3 curvature reconstruction on the computed tables."""
    return reconstruction_holds(curv.manifold, curv.riemann, curv.ricci)


def reconstruction_holds(manifold: FrameManifold, riemann_basis,
                         ricci) -> bool:
    """Verify the dimension-3 curvature reconstruction

        R(X,Y)Z = g(Y,Z)QX - g(X,Z)QY + S(Y,Z)X - S(X,Z)Y
                  + (r/2)(g(X,Z)Y - g(Y,Z)X)

    componentwise, with riemann_basis(i, j, k) = R(e_i, e_j)e_k and Q and
    r recomputed from the Ricci matrix S.

    riemann_basis must be antisymmetric in (i, j), as the stored R is.
    The right-hand side changes sign when X and Y swap, so both sides are
    antisymmetric and vanish at i = j, and the pairs i < j decide it.
    """
    m = manifold
    if m.dim != 3:
        raise ClassifyError("the curvature reconstruction check needs dim 3")
    q_rows, scalar = ricci_operator_of(m, ricci)
    half_r = Expr.rational(1, 2) * scalar
    for i, j, k in _slots(range(1, 4)):
        gjk, gik = m.metric_entry(j, k), m.metric_entry(i, k)
        pairs = [(ricci[j - 1][k - 1], m.basis(i)),
                 (-ricci[i - 1][k - 1], m.basis(j))]
        if gjk:
            pairs += [(gjk, q_rows[i - 1]), (-half_r * gjk, m.basis(i))]
        if gik:
            pairs += [(-gik, q_rows[j - 1]), (half_r * gik, m.basis(j))]
        if riemann_basis(i, j, k) != VectorField.accumulate(3, pairs):
            return False
    return True


def _check_implication_chain(report: ClassificationReport) -> None:
    chain = [("flat", report.flat),
             ("locally symmetric", report.locally_symmetric.ok)]
    if report.phi_symmetric is not None:
        chain.append(("phi-symmetric", report.phi_symmetric.ok))
    if report.locally_phi_symmetric is not None:
        chain.append(("locally phi-symmetric", report.locally_phi_symmetric.ok))
    for (name_a, val_a), (name_b, val_b) in zip(chain, chain[1:]):
        if val_a and not val_b:
            raise SelfCheckError(
                f"implication chain violated: {name_a} holds "
                f"but {name_b} does not")


def classify_structure(curv: CurvatureTables,
                       structure: ContactStructure | None = None
                       ) -> ClassificationReport:
    """Run every classifier and enforce the implication chain.

    Without a contact structure the phi/eta-dependent classifiers are
    skipped and reported as None with a diagnostic.
    """
    diagnostics: list[str] = []
    flat = curv.is_flat()
    const = constant_curvature(curv)
    loc_sym = is_locally_symmetric(curv)
    contact_valid = sasakian = kappa_mu = None
    phi_sym = loc_phi_sym = phi_rec = loc_phi_rec = None
    if structure is None:
        diagnostics.append(
            "no contact structure attached; structure classifiers skipped")
    else:
        ac = structure.validate_almost_contact()
        cm = structure.check_contact_metric()
        contact_valid = not ac and cm.ok
        if ac:
            diagnostics.append(
                "almost contact axioms violated: " + ac[0].describe())
        elif not cm.ok:
            diagnostics.append(
                "contact metric condition violated: "
                + cm.violations[0].describe())
        sides = _nullity_sides(curv, structure)
        sasakian = _sasakian(sides)
        if structure.h is None:
            diagnostics.append(f"nullity solver skipped: {structure.h_error}")
        else:
            kappa_mu = _solve_kappa_mu(curv, structure, structure.h, sides)
        if (kappa_mu is not None and kappa_mu.status == "consistent"
                and not kappa_mu.constant_flag):
            diagnostics.append("nullity condition solved with non-constant "
                               "coefficients; not a (kappa,mu) structure")
        if kappa_mu is not None and kappa_mu.kappa_le_one is False:
            at = _kappa_above_one(kappa_mu.kappa)
            where = ", ".join(f"{n}={v}" for n, v in at.items())
            diagnostics.append(
                f"kappa > 1{' at ' + where if at else ''} (kappa = "
                f"{kappa_mu.kappa.eval(at)}); nullity solution is outside "
                "the admissible range")
        squares: dict = {}
        phi_sym, phi_rec = _phi_scan(curv, structure, SCOPE_GLOBAL, squares)
        try:
            loc_phi_sym, loc_phi_rec = _phi_scan(curv, structure,
                                                 SCOPE_LOCAL, squares)
        except ClassifyError as exc:
            diagnostics.append(f"local phi classifiers skipped: {exc}")
    report = ClassificationReport(
        contact_valid=contact_valid,
        sasakian=sasakian,
        kappa_mu=kappa_mu,
        flat=flat,
        constant_curvature=const,
        locally_symmetric=loc_sym,
        phi_symmetric=phi_sym,
        locally_phi_symmetric=loc_phi_sym,
        phi_recurrent=phi_rec,
        locally_phi_recurrent=loc_phi_rec,
        diagnostics=tuple(diagnostics))
    _check_implication_chain(report)
    return report


__all__ = [
    "SCOPE_GLOBAL",
    "SCOPE_LOCAL",
    "ClassificationReport",
    "ClassifyError",
    "KappaMuVerdict",
    "RecurrenceVerdict",
    "SasakianVerdict",
    "SelfCheckError",
    "SymmetryVerdict",
    "check_3d_decomposition",
    "classify_structure",
    "constant_curvature",
    "is_locally_symmetric",
    "is_sasakian",
    "phi_symmetry",
    "reconstruction_holds",
    "solve_kappa_mu",
    "solve_phi_recurrence",
]

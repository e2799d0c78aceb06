"""Levi-Civita connection and curvature in a fixed frame.

Everything is computed against the frame fields, never in coordinates.  The
connection comes from the Koszul formula

    2 g(nabla_X Y, Z) = X g(Y,Z) + Y g(Z,X) - Z g(X,Y)
                        - g(X,[Y,Z]) - g(Y,[X,Z]) + g(Z,[X,Y])

on basis triples.  Frame construction keeps the metric parameter-only, so
the three derivative terms vanish and are not computed.  The curvature
convention is R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
and the Ricci tensor is the trace of X -> R(X,Y)Z over the first slot,
which agrees with the orthonormal-frame contraction for every metric while
staying inside exact rational arithmetic.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .expr import Expr
from .frame import FrameManifold, VectorField

_ONE = Expr.one()


def _times(a: Expr, b: Expr) -> Expr:
    """a * b, without multiplying through a factor equal to 1."""
    if a == _ONE:
        return b
    return a if b == _ONE else a * b


class ConnectionTable:
    """Christoffel data: nabla_{e_i} e_j expanded over the frame."""

    def __init__(self, manifold: FrameManifold, rows):
        self.manifold = manifold
        self._rows = rows  # rows[i][j] = nabla_{e_(i+1)} e_(j+1)

    def nabla_basis(self, i: int, j: int) -> VectorField:
        return self._rows[i - 1][j - 1]

    def gamma(self, i: int, j: int, k: int) -> Expr:
        """Component Gamma^k_ij of nabla_{e_i} e_j along e_k."""
        return self._rows[i - 1][j - 1][k]

    def covariant_derivative(self, x: VectorField, y: VectorField) -> VectorField:
        """nabla_x y, including the derivative terms on y's components."""
        m = self.manifold
        pairs = []
        for i, xi in x.items():
            pairs.append((xi, m.derivative(i, y)))
            row = self._rows[i - 1]
            pairs += [(_times(xi, yj), row[j - 1]) for j, yj in y.items()]
        return VectorField.accumulate(m.dim, pairs)


def koszul(manifold: FrameManifold) -> ConnectionTable:
    """Levi-Civita connection of the frame metric via the Koszul formula,
    read from the lowered brackets low[a, b][c] = g([e_a, e_b], e_c): only
    the (i, j, k) where a nonzero low[a, b][c] is one of the three terms,
    (a, b, c), (c, a, b) or (a, c, b), are visited, in the dense order."""
    m = manifold
    idx = range(1, m.dim + 1)
    half = Expr.rational(1, 2)
    zero = VectorField.zero(m.dim)
    low = {(i, j): m.lower(m.bracket_basis(i, j)) for i in idx for j in idx}
    rhs = {}  # rhs[i, j][k] = g(nabla_{e_i} e_j, e_k)
    for i, j, k in sorted({key for (a, b), v in low.items() for c in v.terms
                           for key in ((a, b, c), (c, a, b), (a, c, b))}):
        val = low[i, j][k] - low[j, k][i] - low[i, k][j]
        if not val.is_zero():
            rhs.setdefault((i, j), {})[k] = half * val
    return ConnectionTable(m, tuple(
        tuple(m.raise_index(VectorField(m.dim, rhs[i, j])) if (i, j) in rhs
              else zero for j in idx) for i in idx))


class StructureDerivatives(NamedTuple):
    """Covariant derivatives of the structure tensors phi, eta, xi."""

    nabla_phi: tuple      # [i][j] -> (nabla_{e_i} phi)(e_j) as a VectorField
    nabla_eta: tuple      # [i][j] -> (nabla_{e_i} eta)(e_j) as an Expr
    nabla_xi: tuple       # [i] -> nabla_{e_i} xi as a VectorField


class CurvatureTables:
    """Riemann, Ricci and scalar curvature plus the exact nabla R table.

    Both curvature tables keep only the nonzero fields at i < j:
    riemann_table maps (i, j, k) to R(e_i, e_j)e_k and nabla_r_table maps
    (w, i, j, k) to (nabla_w R)(e_i, e_j)e_k.  i > j negates the i < j
    entry on read, and i = j or an absent key reads the zero field.
    riemann_support and nabla_r_support are their sorted keys.  All
    tables are built eagerly and never mutated; both kernels share one
    derivative memo, which the constructor drops.
    """

    def __init__(self, manifold: FrameManifold, connection: ConnectionTable):
        self.manifold = manifold
        self.connection = connection
        dim = manifold.dim
        self._zero = VectorField.zero(dim)
        derived: dict[tuple[int, Expr], Expr] = {}
        self.riemann_table: dict[tuple[int, int, int], VectorField] = {}
        for i, j in combinations(range(1, dim + 1), 2):
            for k in range(1, dim + 1):
                r = self._riemann_basis(i, j, k, derived)
                if r.terms:
                    self.riemann_table[i, j, k] = r
        self.riemann_support = tuple(self.riemann_table)
        self.ricci = tuple(
            tuple(self._ricci_entry(j, k) for k in range(1, dim + 1))
            for j in range(1, dim + 1))
        self.ricci_operator, self.scalar = ricci_operator_of(manifold,
                                                             self.ricci)
        self.nabla_r_table = self._nabla_r_kernel(derived)
        self.nabla_r_support = tuple(sorted(self.nabla_r_table))

    def _nabla_r_kernel(self, derived) -> dict:
        # the kernel of nabla_r, one pass per direction w: each entry
        # R_abc = R(e_a, e_b)e_c of riemann_table, both orders of (a, b),
        # is scattered into the keys (w, i, j, k), i < j, whose terms read
        # it, with col[l] = [(x, -Gamma^l_wx)]: (w, a, b, c) takes nabla_w
        # of R_abc, (w, x, b, c) and (w, a, x, c) the R-of-nabla terms of
        # the first two slots, (w, a, b, x) that of the third; a key is
        # opened only for a term with a nonzero field, and no derivative
        # pair is added on a frame that never differentiates
        m, conn = self.manifold, self.connection
        idx = range(1, m.dim + 1)
        nonzero = [e for (a, b, c), r in self.riemann_table.items()
                   for e in (((a, b, c), r), ((b, a, c), -r))]
        table = {}
        for w in idx:
            col: dict[int, list[tuple[int, Expr]]] = {}
            for x in idx:
                for l, g in conn.nabla_basis(w, x).items():
                    col.setdefault(l, []).append((x, -g))
            pairs: dict[tuple[int, int, int, int], list] = {}
            for (a, b, c), r in nonzero:
                if a < b:
                    own = [(v, conn.nabla_basis(w, l)) for l, v in r.items()]
                    if m.differentiates:
                        own.append((_ONE, m.derivative(w, r, derived)))
                    if any(f.terms for _, f in own):
                        pairs.setdefault((w, a, b, c), []).extend(own)
                    for x, g in col.get(c, ()):
                        pairs.setdefault((w, a, b, x), []).append((g, r))
                for x, g in col.get(a, ()):
                    if x < b:
                        pairs.setdefault((w, x, b, c), []).append((g, r))
                for x, g in col.get(b, ()):
                    if a < x:
                        pairs.setdefault((w, a, x, c), []).append((g, r))
            for key, terms in pairs.items():
                out = VectorField.accumulate(m.dim, terms)
                if out.terms:
                    table[key] = out
        return table

    def _riemann_basis(self, i: int, j: int, k: int, derived) -> VectorField:
        # nabla_i nabla_j e_k - nabla_j nabla_i e_k - sum_l c^l_ij nabla_l e_k;
        # zero when nabla_j e_k, nabla_i e_k and [e_i, e_j] all vanish
        m, conn = self.manifold, self.connection
        jk, ik = conn.nabla_basis(j, k), conn.nabla_basis(i, k)
        bracket = m.bracket_basis(i, j)
        if not (jk.terms or ik.terms or bracket.terms):
            return self._zero
        pairs = ([(_ONE, m.derivative(i, jk, derived)),
                  (_ONE, -m.derivative(j, ik, derived))]
                 if m.differentiates else [])
        pairs += [(c, conn.nabla_basis(i, l)) for l, c in jk.items()]
        pairs += [(-c, conn.nabla_basis(j, l)) for l, c in ik.items()]
        pairs += [(-c, conn.nabla_basis(l, k))
                  for l, c in bracket.items()]
        return VectorField.accumulate(m.dim, pairs)

    def riemann(self, i: int, j: int, k: int) -> VectorField:
        """R(e_i, e_j) e_k as a frame vector field, read from the table."""
        if i > j:
            return -self.riemann_table.get((j, i, k), self._zero)
        return self.riemann_table.get((i, j, k), self._zero)

    def riemann_apply(self, x: VectorField, y: VectorField,
                      z: VectorField) -> VectorField:
        """Tensor contraction R(X, Y)Z, function-linear in all slots."""
        pairs = [(_times(_times(xi, yj), zk), self.riemann(i, j, k))
                 for i, xi in x.items() for j, yj in y.items() if i != j
                 for k, zk in z.items()]
        return VectorField.accumulate(self.manifold.dim, pairs)

    def _ricci_entry(self, j: int, k: int) -> Expr:
        # trace over the first slot: sum_l component l of R(e_l, e_j) e_k,
        # read from the i < j entry, so that no field is negated whole
        table, total = self.riemann_table, Expr.zero()
        for l in range(1, self.manifold.dim + 1):
            if l < j:
                total = total + table.get((l, j, k), self._zero)[l]
            elif l > j:
                total = total - table.get((j, l, k), self._zero)[l]
        return total

    def is_flat(self) -> bool:
        return not self.riemann_support

    def nabla_r(self, w: int, i: int, j: int, k: int) -> VectorField:
        """(nabla_{e_w} R)(e_i, e_j) e_k, read from the table:

        nabla_w (R(e_i,e_j)e_k) - R(nabla_w e_i, e_j)e_k
        - R(e_i, nabla_w e_j)e_k - R(e_i,e_j)(nabla_w e_k).
        """
        if i > j:
            return -self.nabla_r_table.get((w, j, i, k), self._zero)
        return self.nabla_r_table.get((w, i, j, k), self._zero)


def ricci_operator_of(manifold: FrameManifold,
                      ricci) -> tuple[tuple[VectorField, ...], Expr]:
    """Rows Q e_i of the Ricci operator, g(Q X, Y) = S(X, Y), and the
    scalar curvature r = tr Q, from a Ricci matrix S."""
    q_rows = tuple(manifold.raise_index(VectorField.make(r)) for r in ricci)
    scalar = sum((q[i] for i, q in enumerate(q_rows, 1)), Expr.zero())
    return q_rows, scalar


def riemann(manifold: FrameManifold, connection: ConnectionTable) -> CurvatureTables:
    return CurvatureTables(manifold, connection)


def nabla_structure_tensors(connection: ConnectionTable,
                            structure) -> StructureDerivatives:
    """Covariant derivatives of phi, eta, xi against the frame.

    (nabla_X phi)(Y) = nabla_X (phi Y) - phi(nabla_X Y)
    (nabla_X eta)(Y) = X(eta Y) - eta(nabla_X Y)
    """
    m = connection.manifold
    dim = m.dim
    nphi, neta, nxi = [], [], []
    for i in range(1, dim + 1):
        ei = m.basis(i)
        phi_row, eta_row = [], []
        for j in range(1, dim + 1):
            ej = m.basis(j)
            dphi = connection.covariant_derivative(
                ei, structure.apply_phi(ej))
            dphi = dphi - structure.apply_phi(connection.nabla_basis(i, j))
            phi_row.append(dphi)
            deta = m.directional_derivative(i, structure.eta[j])
            deta = deta - m.g(connection.nabla_basis(i, j), structure.xi)
            eta_row.append(deta)
        nphi.append(tuple(phi_row))
        neta.append(tuple(eta_row))
        nxi.append(connection.covariant_derivative(ei, structure.xi))
    return StructureDerivatives(tuple(nphi), tuple(neta), tuple(nxi))


# ---------------------------------------------------------------------------
# identity checks; each returns a list of (indices, residual) pairs and an
# empty list certifies the identity exactly

def torsion_residuals(conn: ConnectionTable) -> list:
    m = conn.manifold
    out = []
    for i in range(1, m.dim + 1):
        for j in range(i + 1, m.dim + 1):
            res = (conn.nabla_basis(i, j) - conn.nabla_basis(j, i)
                   - m.bracket_basis(i, j))
            if not res.is_zero():
                out.append(((i, j), res))
    return out


def metric_compat_residuals(conn: ConnectionTable) -> list:
    """e_i g(e_j, e_k) - g(nabla_i e_j, e_k) - g(e_j, nabla_i e_k) over
    j <= k.  Frame construction keeps the metric parameter-only, so the
    derivative term is zero and is not computed.  With low[i, j][k] =
    g(nabla_i e_j, e_k), the residual is -(low[i, j][k] + low[i, k][j]),
    so only the (i, j, k) where one of the two is nonzero are visited."""
    m = conn.manifold
    idx = range(1, m.dim + 1)
    low = {(i, j): m.lower(conn.nabla_basis(i, j)) for i in idx for j in idx}
    keys = {(i, min(j, k), max(j, k))
            for (i, j), v in low.items() for k in v.terms}
    out = []
    for i, j, k in sorted(keys):
        res = -(low[i, j][k] + low[i, k][j])
        if not res.is_zero():
            out.append(((i, j, k), res))
    return out


def riemann_symmetry_residuals(curv: CurvatureTables) -> list:
    """Antisymmetry in the second index pair and the pair interchange
    symmetry of the lowered tensor R(X,Y,Z,W) = g(R(X,Y)Z, W), once per
    independent index set: the second pair over i < j and k <= l, the
    interchange over pairs (i, j) < (k, l) with k < l.  R(e_j, e_i) is
    the i < j entry negated on read, so the first pair holds, a skipped
    second-pair residual is zero or +- a kept one, and, given that the
    second-pair check holds, so is a skipped interchange residual (zero
    at i = j, k = l or (i, j) = (k, l); with k > l it is minus the one at
    (i, j, l, k), and swapping the pairs negates it).  So the list is
    empty exactly when the check over all dim^4 tuples is.

    Each residual sums two entries of riemann_table, so only the index
    sets with a nonzero entry there are visited, in the loops' order.
    """
    m, none = curv.manifold, curv._zero
    # lowered[i, j, k][l] = R(e_i, e_j, e_k, e_l), for i < j
    lowered = {key: m.lower(r) for key, r in curv.riemann_table.items()}
    pair_keys, swaps = set(), set()
    for (i, j, k), v in lowered.items():
        for l in v.terms:
            pair_keys.add((i, j, min(k, l), max(k, l)))
            if k < l and (i, j) != (k, l):
                swaps.add(min((i, j), (k, l)) + max((i, j), (k, l)))
    out = []
    for i, j, k, l in sorted(pair_keys):
        r = lowered.get((i, j, k), none)[l] + lowered.get((i, j, l), none)[k]
        if not r.is_zero():
            out.append((("second-pair", i, j, k, l), r))
    for i, j, k, l in sorted(swaps):
        r = lowered.get((i, j, k), none)[l] - lowered.get((k, l, i), none)[j]
        if not r.is_zero():
            out.append((("interchange", i, j, k, l), r))
    return out


def first_bianchi_residuals(curv: CurvatureTables) -> list:
    """Cyclic sums R(e_i,e_j)e_k + R(e_j,e_k)e_i + R(e_k,e_i)e_j over
    i < j < k.  R is read antisymmetric in (i, j), so the sum alternates
    in (i, j, k): any other triple gives zero or +- a kept residual, and
    the list is empty exactly when the check over all triples is."""
    out = []
    for i, j, k in combinations(range(1, curv.manifold.dim + 1), 3):
        res = (curv.riemann(i, j, k) + curv.riemann(j, k, i)
               + curv.riemann(k, i, j))
        if not res.is_zero():
            out.append(((i, j, k), res))
    return out


def second_bianchi_residuals(curv: CurvatureTables) -> list:
    """Cyclic sums in (w, i, j) of (nabla_w R)(e_i, e_j)e_k over
    w < i < j and every k.  nabla R is stored antisymmetric in (i, j), so
    the list is empty exactly when the check over all dim^4 tuples is, as
    for first_bianchi_residuals.  The sum is formed as the stored entries
    (w, i, j, k) - (i, w, j, k) + (j, w, i, k), since
    (nabla_i R)(e_j, e_w) = -(nabla_i R)(e_w, e_j), and only where one of
    them is nonzero: a support key (a, b, c, k) with a not in (b, c) is
    one of the three at the sorted (a, b, c)."""
    sums = sorted({(*sorted((a, b, c)), k)
                   for a, b, c, k in curv.nabla_r_support if a not in (b, c)})
    out = []
    for w, i, j, k in sums:
        res = (curv.nabla_r(w, i, j, k)
               - curv.nabla_r(i, w, j, k)
               + curv.nabla_r(j, w, i, k))
        if not res.is_zero():
            out.append(((w, i, j, k), res))
    return out


__all__ = [
    "ConnectionTable",
    "CurvatureTables",
    "StructureDerivatives",
    "first_bianchi_residuals",
    "koszul",
    "metric_compat_residuals",
    "nabla_structure_tensors",
    "ricci_operator_of",
    "riemann",
    "riemann_symmetry_residuals",
    "second_bianchi_residuals",
    "torsion_residuals",
]

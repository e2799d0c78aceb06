"""Two identities that hold on every contact metric manifold and relate
the curvature against the Reeb field to covariant derivatives of phi and
of phi h.  No classifier depends on them, so they live with the tests
and read the h that the structure built at construction.
"""

from contact_tensor.curvature import CurvatureTables, nabla_structure_tensors
from contact_tensor.expr import Expr
from contact_tensor.frame import VectorField


def reeb_curvature_identity_residuals(curv: CurvatureTables,
                                      structure) -> list:
    """Residuals of the expansion of g(R(xi,X)Y,Z) through the covariant
    derivatives of phi and of phi h, keyed by the frame indices (i, j, k)
    of (X, Y, Z)."""
    m = curv.manifold
    conn = curv.connection
    dim = m.dim
    der = nabla_structure_tensors(conn, structure)
    xi = structure.xi
    h = structure.h

    def phih(v):
        return structure.apply_phi(VectorField.combination(v, h))

    def d_phih(k, j):
        # (nabla_{e_k} (phi h)) e_j
        return (conn.covariant_derivative(m.basis(k), phih(m.basis(j)))
                - phih(conn.nabla_basis(k, j)))

    out = []
    for i in range(1, dim + 1):
        for j in range(1, dim + 1):
            for k in range(1, dim + 1):
                ei, ek = m.basis(i), m.basis(k)
                lhs = m.g(curv.riemann_apply(xi, ei, m.basis(j)), ek)
                rhs = (m.g(der.nabla_phi[i - 1][j - 1], ek)
                       + m.g(d_phih(k, j) - d_phih(j, k), ei))
                res = lhs - rhs
                if not res.is_zero():
                    out.append(((i, j, k), res))
    return out


def h_direction_phi_derivative_residuals(curv: CurvatureTables,
                                         structure) -> list:
    """Residuals of the closed form for 2 (nabla_{hX} phi) Y in terms of
    curvature against the Reeb field, keyed by the frame indices (i, j)
    of (X, Y)."""
    m = curv.manifold
    conn = curv.connection
    dim = m.dim
    h = structure.h
    xi = structure.xi
    phi = structure.apply_phi
    out = []
    for i in range(1, dim + 1):
        x = m.basis(i)
        hx = VectorField.combination(x, h)
        for j in range(1, dim + 1):
            y = m.basis(j)
            lhs = (conn.covariant_derivative(hx, phi(y))
                   - phi(conn.covariant_derivative(hx, y))) \
                .scale(Expr.integer(2))
            rhs = (-curv.riemann_apply(xi, x, y)
                   - phi(curv.riemann_apply(xi, x, phi(y)))
                   + phi(curv.riemann_apply(xi, phi(x), y))
                   - curv.riemann_apply(xi, phi(x), phi(y))
                   + xi.scale(2 * m.g(x + hx, y))
                   + (x + hx).scale(-2 * m.g(y, xi)))
            res = lhs - rhs
            if not res.is_zero():
                out.append(((i, j), res))
    return out

"""Exact linear algebra over Expr matrices.

Determinants use fraction-free Bareiss elimination, so a singular matrix is
certified by an identically zero pivot rather than by numerics.  Inversion
runs exact Gauss-Jordan elimination; every division is a field operation on
canonical rational functions, so no precision is lost anywhere.
"""

from __future__ import annotations

from .expr import Expr, ExprError

_ZERO, _ONE = Expr.zero(), Expr.one()

Matrix = list


class SingularMatrixError(ExprError):
    """Raised when an exact inverse does not exist; names the context."""

    def __init__(self, context: str):
        super().__init__(f"{context}: determinant is identically zero")
        self.context = context


def determinant(matrix) -> Expr:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(matrix)
    rows = [list(row) for row in matrix]
    if any(len(row) != n for row in rows):
        raise ExprError("determinant needs a square matrix")
    if n == 0:
        return Expr.one()
    sign = 1
    prev = Expr.one()
    for k in range(n - 1):
        p = next((r for r in range(k, n) if not rows[r][k].is_zero()), -1)
        if p < 0:
            return Expr.zero()
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (pivot * rows[i][j] - rows[i][k] * rows[k][j]) / prev
            rows[i][k] = Expr.zero()
        prev = pivot
    det = rows[n - 1][n - 1]
    return -det if sign < 0 else det


def invert(matrix, context: str = "matrix") -> Matrix:
    """Exact inverse; raises SingularMatrixError when none exists.  Runs
    on sparse rows (column -> nonzero entry) of the matrix beside the
    identity; a pivot row is divided only when its pivot is not 1."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ExprError("invert needs a square matrix")
    rows = [{j: e for j, e in enumerate(row) if not e.is_zero()}
            for row in matrix]
    for i, row in enumerate(rows):
        row[n + i] = _ONE
    for k in range(n):
        p = next((r for r in range(k, n) if k in rows[r]), -1)
        if p < 0:
            raise SingularMatrixError(context)
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k][k]
        if pivot != _ONE:
            rows[k] = {j: e / pivot for j, e in rows[k].items()}
        pivot_row = rows[k]
        for i, row in enumerate(rows):
            factor = row.get(k)
            if i == k or factor is None:
                continue
            for j, b in pivot_row.items():
                e = row[j] - factor * b if j in row else -(factor * b)
                if e.is_zero():
                    del row[j]
                else:
                    row[j] = e
    return [[row.get(j, _ZERO) for j in range(n, 2 * n)] for row in rows]


__all__ = ["SingularMatrixError", "determinant", "invert"]

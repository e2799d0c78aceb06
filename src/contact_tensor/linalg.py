"""Exact linear algebra over Expr matrices.

Determinants use fraction-free Bareiss elimination, so a singular matrix is
certified by an identically zero pivot rather than by numerics.  Inversion
runs exact Gauss-Jordan elimination; every division is a field operation on
canonical rational functions, so no precision is lost anywhere.
"""

from __future__ import annotations

from .expr import Expr, ExprError

Matrix = list


class SingularMatrixError(ExprError):
    """Raised when an exact inverse does not exist; names the context."""

    def __init__(self, context: str):
        super().__init__(f"{context}: determinant is identically zero")
        self.context = context


def _pivot(rows, col: int, start: int) -> int:
    for r in range(start, len(rows)):
        if not rows[r][col].is_zero():
            return r
    return -1


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
        p = _pivot(rows, k, k)
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
    """Exact inverse; raises SingularMatrixError when none exists."""
    n = len(matrix)
    rows = [list(row) + [Expr.one() if i == j else Expr.zero() for j in range(n)]
            for i, row in enumerate(matrix)]
    if any(len(row) != 2 * n for row in rows):
        raise ExprError("invert needs a square matrix")
    for k in range(n):
        p = _pivot(rows, k, k)
        if p < 0:
            raise SingularMatrixError(context)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k][k]
        rows[k] = [entry / pivot for entry in rows[k]]
        for i in range(n):
            if i == k or rows[i][k].is_zero():
                continue
            factor = rows[i][k]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


__all__ = ["SingularMatrixError", "determinant", "invert"]

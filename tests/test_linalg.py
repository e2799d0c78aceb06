"""Exact linear algebra over rational expressions."""

import random
from fractions import Fraction

import pytest

from contact_tensor.expr import (
    Expr,
    ExprError,
    KIND_COORDINATE,
    SymbolTable,
    parse,
)
from contact_tensor.linalg import (
    SingularMatrixError,
    determinant,
    invert,
)


def table():
    t = SymbolTable()
    for n in ("x", "y", "z"):
        t.add(n, KIND_COORDINATE)
    return t


def E(n):
    return Expr.integer(n)


def test_determinant_small_cases():
    t = table()
    x = parse("x", t)
    y = parse("y", t)
    assert determinant([[E(5)]]) == E(5)
    m2 = [[x, y], [E(1), x]]
    assert determinant(m2) == x * x - y
    # Vandermonde in x, y, z factors as (y-x)(z-x)(z-y)
    z = parse("z", t)
    rows = [[E(1), v, v * v] for v in (x, y, z)]
    want = (y - x) * (z - x) * (z - y)
    assert determinant(rows) == want


def test_determinant_of_singular_matrix_is_zero():
    t = table()
    x = parse("x", t)
    rows = [[x, x + 1], [x * 2, (x + 1) * 2]]
    assert determinant(rows).is_zero()


def test_invert_round_trip_random():
    rng = random.Random(515)
    built = 0
    while built < 25:
        dim = rng.choice((2, 3))
        m = [[Expr.rational(rng.randint(-5, 5), rng.randint(1, 3))
              for _ in range(dim)] for _ in range(dim)]
        if determinant(m).is_zero():
            continue
        built += 1
        inv = invert(m)
        for i in range(dim):
            for j in range(dim):
                acc = Expr.zero()
                for k in range(dim):
                    acc = acc + m[i][k] * inv[k][j]
                assert acc == (Expr.one() if i == j else Expr.zero())


def test_invert_symbolic_frame_matrix():
    t = table()
    x = parse("x", t)
    rows = [[Expr.zero(), 2 / x, Expr.zero()],
            [E(2), parse("-4*z/x", t), parse("x*y", t)],
            [Expr.zero(), Expr.zero(), E(1)]]
    inv = invert(rows, context="frame")
    for i in range(3):
        for j in range(3):
            acc = Expr.zero()
            for k in range(3):
                acc = acc + rows[i][k] * inv[k][j]
            assert acc == (Expr.one() if i == j else Expr.zero())


def test_invert_singular_raises_with_context():
    t = table()
    x = parse("x", t)
    rows = [[x, x], [x, x]]
    with pytest.raises(SingularMatrixError) as info:
        invert(rows, context="metric")
    assert "metric" in str(info.value)
    assert "determinant is identically zero" in str(info.value)


def test_non_square_rejected():
    with pytest.raises(ExprError):
        determinant([[E(1), E(2)]])


def test_invert_rejects_a_non_square_matrix():
    with pytest.raises(ExprError, match="invert needs a square matrix"):
        invert([[E(1), E(2)]])

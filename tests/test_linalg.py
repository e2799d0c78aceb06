"""Exact linear algebra over rational expressions."""

import json
import random
from fractions import Fraction

import pytest

from contact_tensor import cli
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


# ---------------------------------------------------------------------------
# the sparse inverse against a dense Gauss-Jordan over plain Fractions

def fraction_inverse(rows):
    """Dense Gauss-Jordan over Fractions with the same pivot rule (the
    first row at or below k with a nonzero entry in column k); None when
    the matrix is singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                         for j in range(n)]
           for i, row in enumerate(rows)]
    for k in range(n):
        p = next((r for r in range(k, n) if aug[r][k] != 0), None)
        if p is None:
            return None
        aug[k], aug[p] = aug[p], aug[k]
        aug[k] = [x / aug[k][k] for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                aug[i] = [a - aug[i][k] * b for a, b in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def as_exprs(rows):
    return [[Expr.rational(x) for x in row] for row in rows]


def test_invert_matches_the_fraction_oracle_on_seeded_matrices():
    rng = random.Random(2013)
    singular = 0
    for _ in range(60):
        dim = rng.choice((1, 2, 3, 4, 5))
        # about half the entries zero, as in frame and metric matrices
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 if rng.random() < 0.5 else Fraction(0)
                 for _ in range(dim)] for _ in range(dim)]
        want = fraction_inverse(rows)
        if want is None:
            singular += 1
            with pytest.raises(SingularMatrixError, match="^oracle: "):
                invert(as_exprs(rows), context="oracle")
            continue
        got = invert(as_exprs(rows))
        assert [[c.constant_value() for c in row] for row in got] == want
    assert 0 < singular < 60


def test_invert_swaps_rows_for_a_zero_leading_entry():
    rows = [[0, 2, 0], [3, 0, 1], [0, 0, Fraction(1, 2)]]
    got = invert(as_exprs(rows))
    assert [[c.constant_value() for c in row] for row in got] \
        == fraction_inverse(rows)
    assert [[str(c) for c in row] for row in got] == [
        ["0", "1/3", "-2/3"], ["1/2", "0", "0"], ["0", "0", "2"]]


def test_invert_names_the_context_of_a_singular_matrix():
    # the third row is the sum of the first two: column 2 has no pivot
    rows = as_exprs([[1, 2, 0], [0, 0, 1], [1, 2, 1]])
    with pytest.raises(SingularMatrixError) as info:
        invert(rows, context="chart frame matrix")
    assert str(info.value) \
        == "chart frame matrix: determinant is identically zero"
    assert info.value.context == "chart frame matrix"


def test_invert_divides_by_a_parameter_pivot():
    # diag(a, 1, 1) with an off-diagonal x: the pivot a is not constant
    t = table()
    t.add("a", "parameter")
    a, x = parse("a", t), parse("x", t)
    rows = [[a, x, Expr.zero()], [Expr.zero(), E(1), Expr.zero()],
            [Expr.zero(), Expr.zero(), E(1)]]
    inv = invert(rows)
    assert [[str(c) for c in row] for row in inv] == [
        ["1/a", "-x/a", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    for i in range(3):
        for j in range(3):
            acc = sum((rows[i][k] * inv[k][j] for k in range(3)), Expr.zero())
            assert acc == (Expr.one() if i == j else Expr.zero())


def test_report_refuses_a_metric_made_singular_by_set(tmp_path, capsys):
    doc = {"schema_version": 1, "name": "scaled", "dimension": 3,
           "mode": "abstract",
           "symbols": [{"name": "a", "kind": "parameter"}],
           "brackets": [{"i": 2, "j": 3, "components": ["2", "0", "0"]}],
           "metric": [["a", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["report", str(path), "--set", "a=0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: metric: determinant is identically zero\n"

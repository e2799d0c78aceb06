"""Frame manifolds: brackets, chart calculus, validation."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from contact_tensor import cli, frame
from contact_tensor.catalog import build, entry_ids
from contact_tensor.curvature import koszul, riemann
from contact_tensor.expr import (
    Expr,
    KIND_COORDINATE,
    KIND_PARAMETER,
    SymbolTable,
    parse,
)
from contact_tensor.frame import (
    FrameError,
    FrameManifold,
    VectorField,
)
from contact_tensor.linalg import SingularMatrixError
from contact_tensor.report import build_report

from _frames import (NON_IDENTITY_METRICS, entry, heisenberg_manifest,
                     jacobi_failing_frame, sphere_brackets)


def chart_3d():
    """Chart frame e1 = (2/x) d_y, e2 = 2 d_x - (4z/x) d_y + xy d_z,
    e3 = d_z, orthonormal by declaration."""
    t = SymbolTable()
    for n in ("x", "y", "z"):
        t.add(n, KIND_COORDINATE)
    frame = (
        ("0", "2/x", "0"),
        ("2", "-4*z/x", "x*y"),
        ("0", "0", "1"),
    )
    rows = tuple(tuple(parse(c, t) for c in row) for row in frame)
    return FrameManifold.chart(3, t, rows)


def abstract_heisenberg():
    t = SymbolTable()
    return FrameManifold.abstract(3, t, {(1, 2): (0, 0, 2)})


def test_vector_field_helpers():
    e2 = VectorField.basis(3, 2)
    assert [str(c) for c in e2.components] == ["0", "1", "0"]
    assert VectorField.zero(3).is_zero()
    combo = e2.scale(Expr.integer(3)) - e2
    assert [str(c) for c in combo.components] == ["0", "2", "0"]
    # eta(X) is g(X, xi); the identity metric lowers xi to its own
    # components, so eta(combo) is their dot product with combo's
    m = abstract_heisenberg()
    xi = VectorField.make((1, 3, 0))
    assert m.lower(xi) == xi
    assert str(m.g(combo, xi)) == "6"


def test_vector_field_refuses_a_component_that_is_not_an_expression():
    with pytest.raises(FrameError, match="expected an expression, got"):
        VectorField.make([object()])


def test_constructor_rejects_bad_input():
    t = SymbolTable()
    with pytest.raises(FrameError):
        FrameManifold.abstract(4, t, {})          # even dimension
    with pytest.raises(FrameError):
        FrameManifold.abstract(1, t, {})
    with pytest.raises(FrameError):
        FrameManifold.abstract(3, t, {(2, 1): (0, 0, 1)})
    with pytest.raises(FrameError):
        FrameManifold.abstract(3, t, {(1, 2): (0, 0)})   # short vector
    tc = SymbolTable()
    x = tc.add("x", KIND_COORDINATE)
    with pytest.raises(FrameError):
        # coordinate symbols cannot appear in abstract structure constants
        FrameManifold.abstract(3, tc, {(1, 2): (Expr.symbol(x), 0, 0)})
    with pytest.raises(FrameError):
        # chart mode needs exactly dim coordinate symbols
        FrameManifold.chart(3, tc, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_constructor_rejects_misshapen_frame_and_metric():
    tc = SymbolTable()
    for n in ("x", "y", "z"):
        tc.add(n, KIND_COORDINATE)
    with pytest.raises(FrameError, match="chart frame must have 3 rows"):
        FrameManifold.chart(3, tc, ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(FrameError, match="metric must be a 3x3 matrix"):
        FrameManifold.abstract(3, SymbolTable(), {}, metric=((1, 0), (0, 1)))


def test_chart_queries_refuse_abstract_mode():
    m = abstract_heisenberg()
    with pytest.raises(FrameError, match="chart mode only"):
        m.chart_inverse()
    with pytest.raises(FrameError, match="requires chart mode"):
        m.brackets_from_chart()


def test_metric_must_be_symmetric():
    t = SymbolTable()
    bad = ((1, 2, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(FrameError):
        FrameManifold.abstract(3, t, {}, metric=bad)
    good = ((2, 1, 0), (1, 2, 0), (0, 0, 1))
    m = FrameManifold.abstract(3, t, {}, metric=good)
    assert str(m.metric_entry(1, 2)) == "1"
    assert str(m.metric_inverse()[0][1]) == "2/3"


def test_abstract_brackets():
    m = abstract_heisenberg()
    assert [str(c) for c in m.bracket_basis(1, 2).components] == ["0", "0", "2"]
    assert m.bracket_basis(2, 1).components[2] == Expr.integer(-2)
    assert m.bracket_basis(1, 3).is_zero()
    assert m.bracket_basis(2, 2).is_zero()


def test_chart_brackets_match_hand_computation():
    m = chart_3d()
    t = m.symbols
    b12 = m.bracket_basis(1, 2)
    assert b12.components[0] == parse("2/x", t)
    assert b12.components[1].is_zero()
    assert b12.components[2] == Expr.integer(2)
    assert m.bracket_basis(1, 3).is_zero()
    b23 = m.bracket_basis(2, 3)
    assert [str(c) for c in b23.components] == ["2", "0", "0"]


def test_chart_inverse_is_exact():
    m = chart_3d()
    inv = m.chart_inverse()
    rows = m.chart_frame
    for i in range(3):
        for j in range(3):
            acc = Expr.zero()
            for k in range(3):
                acc = acc + rows[i].components[k] * inv[k][j + 1]
            assert acc == (Expr.one() if i == j else Expr.zero())


def test_directional_derivative_chart():
    m = chart_3d()
    t = m.symbols
    f = parse("x*y*z", t)
    # e2 f = 2 (yz) - (4z/x)(xz) + (xy)(xy)
    want = parse("2*y*z-4*z^2+x^2*y^2", t)
    assert m.directional_derivative(2, f) == want
    assert m.directional_derivative(3, parse("x*y", t)).is_zero()


def test_directional_derivative_abstract():
    m = abstract_heisenberg()
    assert m.directional_derivative(1, Expr.integer(5)).is_zero()
    tc = SymbolTable()
    x = tc.add("x", KIND_COORDINATE)
    mc = FrameManifold.abstract(3, tc, {})
    with pytest.raises(FrameError):
        mc.directional_derivative(1, Expr.symbol(x))


def test_derivative_on_a_coordinate_free_abstract_manifold_is_zero(
        monkeypatch):
    # with no coordinate declared every component is parameter-only, so
    # derivative answers the zero field without differentiating any
    t = SymbolTable()
    a = Expr.symbol(t.add("a", KIND_PARAMETER))
    m = FrameManifold.abstract(3, t, {(1, 2): (0, 0, a)})

    def refuse(self, i, f):
        raise AssertionError("directional_derivative called")

    monkeypatch.setattr(FrameManifold, "directional_derivative", refuse)
    v = VectorField.make((a, a * a + 1, 2))
    for i in (1, 2, 3):
        out = m.derivative(i, v)
        assert out.dim == 3 and out.is_zero()


def test_declared_coordinate_keeps_the_abstract_guard():
    # a coordinate symbol may be declared in abstract mode; a component
    # that depends on it cannot be differentiated by any entry point
    t = SymbolTable()
    x = Expr.symbol(t.add("x", KIND_COORDINATE))
    a = Expr.symbol(t.add("a", KIND_PARAMETER))
    m = FrameManifold.abstract(3, t, {(1, 2): (0, 0, a)})
    v = VectorField.make((0, x, 0))
    assert m.derivative(1, VectorField.make((a, 0, 1))).is_zero()
    with pytest.raises(FrameError):
        m.directional_derivative(1, x * a)
    with pytest.raises(FrameError):
        m.derivative(1, v)
    with pytest.raises(FrameError):
        m.bracket(m.basis(1), v)
    with pytest.raises(FrameError):
        m.bracket(v, m.basis(3))


def test_bracket_is_bilinear_and_leibniz():
    # [fX, Y] = f [X, Y] - (Y f) X on a chart frame
    m = chart_3d()
    t = m.symbols
    rng = random.Random(88)
    names = ("x", "y", "z")
    for _ in range(10):
        f = Expr.zero()
        for n in names:
            f = f + Expr.integer(rng.randint(-3, 3)) * Expr.symbol(t.get(n))
        xi = rng.randint(1, 3)
        yi = rng.randint(1, 3)
        x_field, y_field = m.basis(xi), m.basis(yi)
        lhs = m.bracket(x_field.scale(f), y_field)
        rhs = (m.bracket(x_field, y_field).scale(f)
               - x_field.scale(m.directional_derivative(yi, f)))
        for a, b in zip(lhs.components, rhs.components):
            assert a == b


def test_bracket_antisymmetry_random_fields():
    m = chart_3d()
    t = m.symbols
    rng = random.Random(404)
    for _ in range(8):
        comps1 = tuple(Expr.integer(rng.randint(-2, 2))
                       * Expr.symbol(t.get(rng.choice(("x", "y", "z"))))
                       for _ in range(3))
        comps2 = tuple(Expr.integer(rng.randint(-2, 2)) for _ in range(3))
        xf = VectorField.make(comps1)
        yf = VectorField.make(comps2)
        fwd = m.bracket(xf, yf)
        bwd = m.bracket(yf, xf)
        for a, b in zip(fwd.components, bwd.components):
            assert a == -b


def test_jacobi_identity():
    assert chart_3d().check_jacobi().ok
    assert abstract_heisenberg().check_jacobi().ok
    bad = jacobi_failing_frame()
    report = bad.check_jacobi()
    assert not report.ok
    assert report.violations[0].triple == (1, 2, 3)
    assert not report.violations[0].residual.is_zero()
    assert any("Jacobi identity fails" in line for line in bad.validate())


def test_construction_rejects_singular_metric():
    t = SymbolTable()
    metric = ((1, 0, 0), (0, 0, 0), (0, 0, 1))
    with pytest.raises(SingularMatrixError, match="^metric: determinant"):
        FrameManifold.abstract(3, t, {}, metric=metric)
    # singular at one parameter value: the substituted manifold is refused
    a = Expr.symbol(t.add("a", KIND_PARAMETER))
    m = FrameManifold.abstract(3, t, {}, metric=((a, 0, 0), (0, 1, 0),
                                                 (0, 0, 1)))
    with pytest.raises(SingularMatrixError, match="^metric: determinant"):
        m.substitute_parameters({"a": 0})


def test_construction_rejects_dependent_chart_rows():
    t = SymbolTable()
    for n in ("x", "y", "z"):
        t.add(n, KIND_COORDINATE)
    rows = ((1, 0, 0), (1, 0, 0), (0, 0, 1))
    with pytest.raises(SingularMatrixError,
                       match="^chart frame matrix: determinant"):
        FrameManifold.chart(3, t, rows)


def test_tables_are_built_once_at_construction(monkeypatch):
    calls = Counter()

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(frame, "invert", spy("invert", frame.invert))
    monkeypatch.setattr(FrameManifold, "brackets_from_chart",
                        spy("brackets", FrameManifold.brackets_from_chart))
    ent = build("example41")
    # the metric and the chart frame matrix, then one bracket derivation
    assert calls == {"invert": 2, "brackets": 1}
    calls.clear()
    build_report(ent)
    assert not calls


def test_validate_clean():
    assert chart_3d().validate() == []
    assert abstract_heisenberg().validate() == []


def test_substitute_parameters():
    t = SymbolTable()
    lam = t.add("lambda", KIND_PARAMETER)
    m = FrameManifold.abstract(
        3, t, {(1, 2): (0, 0, Expr.symbol(lam) + 1)})
    m2 = m.substitute_parameters({"lambda": Fraction(1, 2)})
    assert str(m2.bracket_basis(1, 2).components[2]) == "3/2"
    with pytest.raises(FrameError):
        chart_3d().substitute_parameters({"x": 1})


def test_metric_defaults_to_identity():
    m = abstract_heisenberg()
    assert m.g(m.basis(1), m.basis(1)) == Expr.one()
    assert m.g(m.basis(1), m.basis(2)).is_zero()


def test_raise_index_inverts_lowering():
    t = SymbolTable()
    a = Expr.symbol(t.add("a", KIND_PARAMETER))
    metric = ((a, 1, 0), (1, 2, a), (0, a, 3))
    m = FrameManifold.abstract(3, t, {}, metric=metric)
    for lowered in ((Expr.one(), a, Expr.rational(3, 2)),
                    (Expr.zero(), Expr.integer(-2), Expr.zero())):
        w = m.raise_index(lowered)
        for k in range(1, 4):
            assert m.g(w, m.basis(k)) == lowered[k - 1]


def test_identity_metric_lowers_and_raises_without_arithmetic(monkeypatch):
    # every metric row of H^5 is its basis field, so lower and raise_index
    # return the field they are given and never combine rows
    m = entry(heisenberg_manifest(2)).manifold

    def refuse(coeffs, vectors):
        raise AssertionError("VectorField.combination under the identity")
    monkeypatch.setattr(VectorField, "combination", staticmethod(refuse))
    for i in range(1, 6):
        for j in range(1, 6):
            v = m.bracket_basis(i, j)
            assert m.lower(v) is v
            assert m.raise_index(v) is v
    curv = riemann(m, koszul(m))
    assert curv.scalar == Expr.integer(-4)


def _tables_text(m):
    # the connection, Riemann, nabla R, Ricci and scalar tables, every
    # entry in index order
    conn = koszul(m)
    curv = riemann(m, conn)
    idx = range(1, m.dim + 1)
    out = [str(conn.gamma(i, j, k)) for i in idx for j in idx for k in idx]
    out += [str(c) for i in idx for j in idx for k in idx
            for c in curv.riemann(i, j, k).components]
    out += [str(c) for w in idx for i in idx for j in idx for k in idx
            for c in curv.nabla_r(w, i, j, k).components]
    out += [str(c) for row in curv.ricci for c in row] + [str(curv.scalar)]
    return " ".join(out)


# sha256 of _tables_text of the sphere's brackets under each non-identity
# metric, recorded when every lowering and raising went through
# VectorField.combination
NON_IDENTITY_TABLE_DIGESTS = {
    "scaled":
        "b2a6b0f4f701db69f210170177154e9b8c55175de641cfb28cf8e2b7e15eb5c8",
    "berger":
        "52f243ef7b043bd548546e6616b731809031118a6a7aff155d6a59d258329a63",
    "non-diagonal":
        "eab4258c75c54b92d763137d6e317a11d80d29b7626c5912d4e2ab29b46efd5a",
}


@pytest.mark.parametrize("name", sorted(NON_IDENTITY_METRICS))
def test_non_identity_metric_combines_rows(name, monkeypatch):
    m = sphere_brackets(NON_IDENTITY_METRICS[name])
    calls = Counter()
    combination = VectorField.combination

    def counted(coeffs, vectors):
        calls[vectors is m.metric_rows] += 1
        return combination(coeffs, vectors)
    monkeypatch.setattr(VectorField, "combination", staticmethod(counted))
    v = m.basis(2)
    assert m.lower(v) is not v and m.lower(v) == m.metric_rows[1]
    text = _tables_text(m)
    # the Koszul table lowers by the metric rows and raises by the inverse
    assert calls[True] > 1 and calls[False] > 0
    assert hashlib.sha256(text.encode()).hexdigest() \
        == NON_IDENTITY_TABLE_DIGESTS[name]


def test_combination_of_zero_coefficients_is_zero_field():
    vectors = [VectorField.basis(5, i) for i in range(1, 6)]
    out = VectorField.combination([Expr.zero()] * 5, vectors)
    assert len(out.components) == 5
    assert out.is_zero()
    coeffs = [Expr.zero(), Expr.integer(2)] + [Expr.zero()] * 3
    out = VectorField.combination(coeffs, vectors)
    assert out == VectorField.basis(5, 2).scale(2)


def test_vector_field_stores_only_nonzero_components():
    t = SymbolTable()
    x = Expr.symbol(t.add("x", KIND_PARAMETER))
    v = VectorField.make((0, x, 0))
    assert v == VectorField.basis(3, 2).scale(x)
    assert v.terms == {2: x}
    assert (v - v).terms == {}
    assert v.scale(0).is_zero()
    assert len(v.components) == v.dim == 3
    assert v[1].is_zero() and v[2] == x
    assert v.map(lambda c: c - x).terms == {}
    # c2 = 1 - lambda - mu/2 vanishes, so [e1, e3] = -c2 e2 stores nothing
    kmu = build("kmu").substitute({"lambda": 1, "mu": 0})
    assert kmu.manifold.bracket_basis(1, 3).terms == {}


def test_vector_field_compares_by_dim_and_terms_and_is_unhashable():
    x = Expr.integer(3)
    v = VectorField(3, {2: x})
    assert v == VectorField(3, {2: x}) == VectorField.make((0, 3, 0))
    assert v != VectorField(5, {2: x})
    assert v != VectorField(3, {1: x})
    assert VectorField.zero(3) != VectorField.zero(5)
    assert v != (3, {2: x}) and v.__eq__("v") is NotImplemented
    with pytest.raises(TypeError):
        hash(v)
    assert repr(VectorField.zero(2)) == "VectorField(dim=2, terms={})"


def test_zero_and_basis_fields_are_shared():
    assert VectorField.zero(5) is VectorField.zero(5)
    assert VectorField.basis(5, 2) is VectorField.basis(5, 2)
    assert VectorField.basis(5, 2) is not VectorField.basis(5, 3)
    assert VectorField.basis(5, 2) is not VectorField.basis(7, 2)


def test_shared_fields_are_never_mutated_by_the_cli(tmp_path):
    # the zero and basis fields are shared by every caller, so a command
    # that wrote into one would change the next command's results
    shared = {dim: (VectorField.zero(dim),
                    [VectorField.basis(dim, i) for i in range(1, dim + 1)])
              for dim in (3, 5)}
    for name in entry_ids():
        assert cli.main(["demo", name, "--format", "json"]) == 0
    path = tmp_path / "h5.json"
    path.write_text(json.dumps(heisenberg_manifest(2)))
    assert cli.main(["report", str(path), "--format", "json"]) == 0
    for dim, (zero, basis) in shared.items():
        assert VectorField.zero(dim) is zero and zero.terms == {}
        for i, e in enumerate(basis, 1):
            assert VectorField.basis(dim, i) is e
            assert e.terms == {i: Expr.one()}


def test_curvature_tables_store_no_zero_component():
    # H^5: [e2, e3] = [e4, e5] = 2 e1
    two = (2, 0, 0, 0, 0)
    h5 = FrameManifold.abstract(5, SymbolTable(), {(2, 3): two, (4, 5): two})
    for m in (h5, build("kmu").manifold):
        curv = riemann(m, koszul(m))
        idx = range(1, m.dim + 1)
        stored = [curv.riemann(i, j, k) for i in idx for j in idx for k in idx]
        stored += [curv.nabla_r(w, i, j, k)
                   for w in idx for i in idx for j in idx for k in idx]
        assert any(not v.is_zero() for v in stored)
        for v in stored:
            assert all(not c.is_zero() for c in v.terms.values())


def _xy_table():
    t = SymbolTable()
    t.add("x", KIND_COORDINATE)
    t.add("y", KIND_COORDINATE)
    return t


def test_accumulate_of_no_pairs_is_the_zero_field():
    out = VectorField.accumulate(3, [])
    assert out.dim == 3 and out.terms == {}


def test_accumulate_of_one_term_is_the_product():
    t = _xy_table()
    v = VectorField.make((0, parse("y/(x+1)", t), 0))
    assert VectorField.accumulate(3, [(Expr.one(), v)]).terms == v.terms
    c = parse("(x+1)/(2*y)", t)
    out = VectorField.accumulate(3, [(c, v)])
    assert out.terms == {2: Expr.rational(1, 2)}


def test_accumulate_drops_a_component_that_cancels_to_zero():
    # e1: (x+1) * 1/(x+1) - 1 * 1 = 0 is not stored; e2: (x+1) * x stays
    t = _xy_table()
    u = VectorField.make((parse("1/(x+1)", t), parse("x", t), 0))
    w = VectorField.make((1, 0, 0))
    out = VectorField.accumulate(
        3, [(parse("x+1", t), u), (Expr.integer(-1), w)])
    assert out.terms == {2: parse("x^2+x", t)}


def test_accumulate_merges_denominators_p_and_p_squared():
    # 1/p and x/p^2 with p = x + 1 fall in two groups and leave one
    # canonical entry, (2*x+1)/(x+1)^2
    t = _xy_table()
    e1 = VectorField.basis(3, 1)
    out = VectorField.accumulate(3, [(parse("1/(x+1)", t), e1),
                                     (parse("x/(x+1)^2", t), e1)])
    assert out.terms == {1: parse("(2*x+1)/(x+1)^2", t)}
    assert out[1] == parse("1/(x+1)", t) + parse("x/(x+1)^2", t)

"""Connection, curvature and covariant derivative tables.

The closed-form tables for the two reference families are asserted
exactly; everything else is cross-checked against the independent
Fraction oracle in _oracles or against the classical identities.
"""

import copy
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from contact_tensor.catalog import build, entry_ids
from contact_tensor.classify import SymmetryVerdict, is_locally_symmetric
from contact_tensor.curvature import (
    ConnectionTable,
    first_bianchi_residuals,
    koszul,
    metric_compat_residuals,
    nabla_structure_tensors,
    riemann,
    riemann_symmetry_residuals,
    second_bianchi_residuals,
    torsion_residuals,
)
from contact_tensor.expr import KIND_COORDINATE, Expr, SymbolTable, parse
from contact_tensor.frame import (
    MODE_CHART,
    FrameError,
    FrameManifold,
    JacobiViolation,
    VectorField,
)
from contact_tensor.report import build_report, render_json

from _frames import (NON_IDENTITY_METRICS, cayley_example41_manifest,
                     chart_manifest, deformed_kmu_manifest, entry,
                     heisenberg_manifest, jacobi_failing_frame,
                     random_brackets, sphere_brackets)
from _oracles import (
    bracket_constants,
    christoffel,
    nabla_riemann,
    ricci_table,
    riemann_table,
    scalar_curvature,
)
from _reeb import (h_direction_phi_derivative_residuals,
                   reeb_curvature_identity_residuals)


def tables_for(name):
    ent = build(name)
    conn = koszul(ent.manifold)
    return ent, conn, riemann(ent.manifold, conn)


def comps(vec):
    return [str(c) for c in vec.components]


def test_chart_connection_golden_table():
    # nine covariant derivatives of the chart-frame entry; exactly four
    # are nonzero
    ent, conn, _ = tables_for("example41")
    t = ent.manifold.symbols
    assert comps(conn.nabla_basis(1, 1)) == ["0", "-2/x", "0"]
    assert comps(conn.nabla_basis(1, 2)) == ["2/x", "0", "0"]
    assert comps(conn.nabla_basis(2, 1)) == ["0", "0", "-2"]
    assert comps(conn.nabla_basis(2, 3)) == ["2", "0", "0"]
    for i, j in ((1, 3), (2, 2), (3, 1), (3, 2), (3, 3)):
        assert conn.nabla_basis(i, j).is_zero()
    # gamma accessor agrees with the vector table
    assert conn.gamma(1, 1, 2) == parse("-2/x", t)
    assert conn.gamma(3, 2, 1).is_zero()


def test_chart_curvature_golden_table():
    ent, conn, curv = tables_for("example41")
    t = ent.manifold.symbols
    assert comps(curv.riemann(1, 2, 2)) == ["0", "0", "4/x"]
    assert comps(curv.riemann(1, 2, 3)) == ["0", "-4/x", "0"]
    assert comps(curv.riemann(2, 3, 1)) == ["0", "4/x", "0"]
    assert comps(curv.riemann(2, 3, 2)) == ["-4/x", "0", "0"]
    for (i, j, k) in ((1, 2, 1), (1, 3, 1), (1, 3, 2), (1, 3, 3),
                      (2, 3, 3)):
        assert curv.riemann(i, j, k).is_zero()
    assert curv.scalar.is_zero()
    assert curv.ricci[0][2] == parse("4/x", t)
    assert not curv.is_flat()


def test_parameter_family_connection_golden_table():
    ent, conn, _ = tables_for("kmu")
    t = ent.manifold.symbols
    assert conn.nabla_basis(1, 2) == VectorField.make(
        (0, 0, parse("-mu/2", t)))
    assert conn.nabla_basis(1, 3) == VectorField.make(
        (0, parse("mu/2", t), 0))
    assert conn.nabla_basis(2, 1) == VectorField.make(
        (0, 0, parse("-(1+lambda)", t)))
    assert conn.nabla_basis(2, 3) == VectorField.make(
        (parse("1+lambda", t), 0, 0))
    assert conn.nabla_basis(3, 1) == VectorField.make(
        (0, parse("1-lambda", t), 0))
    assert conn.nabla_basis(3, 2) == VectorField.make(
        (parse("lambda-1", t), 0, 0))
    for i in (1, 2, 3):
        assert conn.nabla_basis(i, i).is_zero()


def test_parameter_family_curvature_golden_table():
    ent, conn, curv = tables_for("kmu")
    t = ent.manifold.symbols
    kappa = parse("1-lambda^2", t)
    mu = parse("mu", t)
    lam = parse("lambda", t)

    def along(i, e):
        return VectorField.basis(3, i).scale(e)

    # R(e2,e3)e2 = (kappa+mu) e3 and R(e2,e3)e3 = -(kappa+mu) e2
    assert curv.riemann(2, 3, 2) == along(3, kappa + mu)
    assert curv.riemann(2, 3, 3) == along(2, -(kappa + mu))
    # all three indices distinct gives zero
    assert curv.riemann(1, 2, 3).is_zero()
    assert curv.riemann(1, 3, 2).is_zero()
    assert curv.riemann(2, 3, 1).is_zero()
    # R(e2,e1)e1 = (kappa + lambda mu) e2, R(e3,e1)e1 = (kappa - lambda mu) e3
    b = VectorField.basis
    assert curv.riemann_apply(b(3, 2), b(3, 1), b(3, 1)) \
        == along(2, kappa + lam * mu)
    assert curv.riemann_apply(b(3, 3), b(3, 1), b(3, 1)) \
        == along(3, kappa - lam * mu)
    assert curv.riemann(1, 2, 2) == along(1, kappa + lam * mu)
    assert curv.riemann(1, 3, 3) == along(1, kappa - lam * mu)
    assert curv.scalar == parse("2*(1-lambda^2)-2*mu", t)

    # bracket coefficients c2 = 1-lambda-mu/2, c3 = 1+lambda-mu/2 satisfy
    # (1/4)(12 - 4(c2+c3) - (c2-c3)^2) = kappa + mu
    c2 = parse("1-lambda-mu/2", t)
    c3 = parse("1+lambda-mu/2", t)
    combo = (Expr.integer(12) - 4 * (c2 + c3) - (c2 - c3) ** 2) / 4
    assert (combo - (kappa + mu)).is_zero()


def test_parameter_family_ricci():
    ent, _, curv = tables_for("kmu")
    t = ent.manifold.symbols
    assert curv.ricci[0][0] == parse("2-2*lambda^2", t)
    assert curv.ricci[1][1] == parse("mu*(lambda-1)", t)
    assert curv.ricci[2][2] == parse("-mu*(lambda+1)", t)
    for j in range(3):
        for k in range(3):
            if j != k:
                assert curv.ricci[j][k].is_zero()


def test_parameter_family_nabla_r_golden_table():
    """Complete table of nonzero covariant curvature derivatives."""
    ent, _, curv = tables_for("kmu")
    t = ent.manifold.symbols
    lam = parse("lambda", t)
    mu = parse("mu", t)
    kappa = parse("1-lambda^2", t)
    im2 = 2 * (1 + lam) ** 2 * (1 - lam + mu / 2)
    im3 = 2 * (lam - 1) ** 2 * (1 + lam + mu / 2)
    sym = -(1 + lam) * ((kappa + mu * lam) + (kappa + mu))

    def vec(i, e):
        return VectorField.basis(3, i).scale(e)

    expected = {
        (1, 1, 2, 1): vec(3, lam * mu ** 2),
        (1, 1, 2, 3): vec(1, -lam * mu ** 2),
        (1, 1, 3, 1): vec(2, lam * mu ** 2),
        (1, 1, 3, 2): vec(1, -lam * mu ** 2),
        (2, 1, 2, 2): vec(3, -im2),
        (2, 1, 2, 3): vec(2, im2),
        (2, 2, 3, 1): vec(2, sym),
        (2, 2, 3, 2): vec(1, im2),
        (3, 1, 3, 2): vec(3, -im3),
        (3, 1, 3, 3): vec(2, im3),
        (3, 2, 3, 1): vec(3, -im3),
        (3, 2, 3, 3): vec(1, im3),
    }
    for w in range(1, 4):
        for i in range(1, 4):
            for j in range(i + 1, 4):
                for k in range(1, 4):
                    got = curv.nabla_r(w, i, j, k)
                    want = expected.get((w, i, j, k))
                    if want is None:
                        assert got.is_zero(), (w, i, j, k)
                    else:
                        assert got == want, (w, i, j, k)
    # the leading second-derivative displays
    assert curv.nabla_r(1, 2, 3, 1).is_zero()
    assert curv.nabla_r(1, 2, 3, 2).is_zero()
    assert curv.nabla_r(1, 2, 3, 3).is_zero()
    assert curv.nabla_r(2, 2, 3, 2) == vec(1, im2)
    assert curv.nabla_r(3, 2, 3, 3) == vec(1, im3)
    # the remaining one lands entirely in the e2 slot: its e3 coefficient
    # is forced to zero by second-pair antisymmetry of the lowered tensor
    # together with the vanishing of (nabla_{e2}R)(e2,e3)e3 ... see
    # test_acceptance for the companion check
    assert curv.nabla_r(2, 2, 3, 1) == vec(2, sym)


def test_sphere_tables():
    ent, conn, curv = tables_for("sphere")
    b = VectorField.basis
    # unit constant curvature: R(X,Y)Z = g(Y,Z)X - g(X,Z)Y
    m = ent.manifold
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                want = (b(3, i).scale(m.g(b(3, j), b(3, k)))
                        - b(3, j).scale(m.g(b(3, i), b(3, k))))
                got = curv.riemann_apply(b(3, i), b(3, j), b(3, k))
                assert got == want
    assert str(curv.scalar) == "6"
    for w in range(1, 4):
        for i in range(1, 4):
            for j in range(i + 1, 4):
                for k in range(1, 4):
                    assert curv.nabla_r(w, i, j, k).is_zero()


def test_flat_entries_are_flat():
    for name in ("flat3", "flat5"):
        _, conn, curv = tables_for(name)
        assert curv.is_flat()
        assert curv.scalar.is_zero()
        dim = curv.manifold.dim
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                assert conn.nabla_basis(i, j).is_zero()


def test_classical_identities_all_entries():
    for name in ("example41", "kmu", "sphere", "flat3", "flat5"):
        ent, conn, curv = tables_for(name)
        assert torsion_residuals(conn) == []
        assert metric_compat_residuals(conn) == []
        assert riemann_symmetry_residuals(curv) == []
        assert first_bianchi_residuals(curv) == []
        assert second_bianchi_residuals(curv) == []


def test_covariant_derivative_function_rules():
    ent, conn, _ = tables_for("example41")
    m = ent.manifold
    t = m.symbols
    rng = random.Random(31)
    names = ("x", "y", "z")
    for _ in range(6):
        f = Expr.integer(rng.randint(1, 3))
        for n in names:
            f = f + Expr.integer(rng.randint(-2, 2)) * Expr.symbol(t.get(n))
        xi_idx = rng.randint(1, 3)
        x_field = m.basis(xi_idx)
        y_field = m.basis(rng.randint(1, 3))
        # tensorial in the direction slot
        lhs = conn.covariant_derivative(x_field.scale(f), y_field)
        rhs = conn.covariant_derivative(x_field, y_field).scale(f)
        assert lhs == rhs
        # Leibniz in the argument slot
        lhs2 = conn.covariant_derivative(x_field, y_field.scale(f))
        rhs2 = (y_field.scale(m.directional_derivative(xi_idx, f))
                + conn.covariant_derivative(x_field, y_field).scale(f))
        assert lhs2 == rhs2


def test_structure_derivatives_reeb_and_eta():
    # nabla_X xi = -phi X - phi h X and
    # (nabla_X eta)(Y) = g(X + hX, phi Y) on every structured entry
    for name in ("example41", "kmu", "sphere"):
        ent = build(name)
        m = ent.manifold
        st = ent.structure
        conn = koszul(m)
        h = st.compute_h()
        der = nabla_structure_tensors(conn, st)
        for i in range(1, 4):
            ei = m.basis(i)
            want = -(st.apply_phi(ei)
                     + st.apply_phi(VectorField.combination(ei, h)))
            assert der.nabla_xi[i - 1] == want, (name, i)
            for j in range(1, 4):
                ej = m.basis(j)
                want_eta = m.g(ei + VectorField.combination(ei, h),
                               st.apply_phi(ej))
                assert der.nabla_eta[i - 1][j - 1] == want_eta, (name, i, j)


def test_sphere_satisfies_the_sasakian_derivative_law():
    ent = build("sphere")
    m = ent.manifold
    st = ent.structure
    conn = koszul(m)
    der = nabla_structure_tensors(conn, st)
    for i in range(1, 4):
        for j in range(1, 4):
            ei, ej = m.basis(i), m.basis(j)
            want = (st.xi.scale(m.g(ei, ej))
                    - ei.scale(m.g(ej, st.xi)))
            assert der.nabla_phi[i - 1][j - 1] == want


def test_optional_reeb_identities_hold_on_structured_entries():
    # the two general contact metric identities relating R(xi, .) to
    # derivatives of phi and phi h; informational checks, nothing in the
    # classifiers depends on them
    for name in ("example41", "kmu", "sphere"):
        ent, conn, curv = tables_for(name)
        assert reeb_curvature_identity_residuals(curv, ent.structure) == []
        assert h_direction_phi_derivative_residuals(curv, ent.structure) == []


def rational(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def test_oracle_cross_check_constant_brackets():
    # independent Fraction recomputation of gamma, R, Ricci, scalar and
    # nabla R for every constant-bracket entry, at random parameter values;
    # R and nabla R over every ordered (i, j), so the j <= i entries the
    # engine derives by antisymmetry are checked too
    rng = random.Random(2161)
    entries = [build(name) for name in ("kmu", "sphere", "flat3", "flat5")]
    for ent in entries + [entry(heisenberg_manifest(2))]:
        name = ent.id
        for _ in range(3):
            bindings = {}
            if name == "kmu":
                lam = abs(rational(rng)) + 1  # keep lambda positive
                bindings = {"lambda": lam, "mu": rational(rng)}
            num = ent.substitute(bindings) if bindings else ent
            m = num.manifold
            dim = m.dim
            conn = koszul(m)
            curv = riemann(m, conn)
            consts = bracket_constants(m)
            gamma = christoffel(consts, dim)
            table = riemann_table(consts, gamma, dim)
            ric = ricci_table(table, dim)
            for i in range(1, dim + 1):
                for j in range(1, dim + 1):
                    for k in range(1, dim + 1):
                        assert conn.gamma(i, j, k).eval({}) \
                            == gamma[i - 1][j - 1][k - 1]
            for i in range(1, dim + 1):
                for j in range(1, dim + 1):
                    for k in range(1, dim + 1):
                        got = [c.eval({}) for c in
                               curv.riemann(i, j, k).components]
                        assert got == table[i - 1][j - 1][k - 1]
                        for w in range(1, dim + 1):
                            gotn = [c.eval({}) for c in
                                    curv.nabla_r(w, i, j, k).components]
                            assert gotn == nabla_riemann(
                                consts, gamma, table, dim, w, i, j, k)
            for j in range(dim):
                for k in range(dim):
                    assert curv.ricci[j][k].eval({}) == ric[j][k]
            assert curv.scalar.eval({}) == scalar_curvature(ric, dim)
            if not bindings:
                break


def chart_frame_xy():
    # the first chart frame whose denominators involve two coordinates
    return entry(chart_manifest("x+y+1"))


def test_oracle_cross_check_chart_connection_pointwise():
    # with a constant frame metric the Koszul closed form also holds
    # pointwise in chart mode; points on a pole (x = 0 for example41,
    # x + y + 1 = 0 for the second frame) are drawn again
    for ent, pole in ((build("example41"), lambda p: p["x"]),
                      (chart_frame_xy(), lambda p: p["x"] + p["y"] + 1)):
        m = ent.manifold
        conn = koszul(m)
        rng = random.Random(47)
        for _ in range(5):
            point = {}
            while not point or pole(point) == 0:
                point = {"x": Fraction(rng.randint(1, 9), rng.randint(1, 4)),
                         "y": rational(rng), "z": rational(rng)}
            consts = bracket_constants(m, point)
            gamma = christoffel(consts, 3)
            for i in range(1, 4):
                for j in range(1, 4):
                    for k in range(1, 4):
                        assert conn.gamma(i, j, k).eval(point) \
                            == gamma[i - 1][j - 1][k - 1]


def test_two_coordinate_chart_frame_self_checks_hold():
    report = build_report(chart_frame_xy())
    checks = report["self_check"]
    assert checks and all(v is True for v in checks.values())
    # the only pinned report whose denominators involve two coordinates,
    # so the only digest that the multivariate poly_gcd can move
    out = render_json(report)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "255bab50e9ec44de0205fe729cf79e23e88b8697c203fc91279fce3cf68d9eca")


def test_product_denominator_chart_frame_report_is_pinned():
    # the x*y+1 frame: its denominators have degree 2 in x and y together,
    # so its report runs the several-variable poly_gcd on larger operands
    # than the x+y+1 frame's
    report = build_report(entry(chart_manifest("x*y+1")))
    checks = report["self_check"]
    assert checks and all(v is True for v in checks.values())
    out = render_json(report)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "12fa2881d8e3c8c64daf00ab570961bc49918323aa5147afc37d7896ac827fd4")


# sha256 of the report JSON of the one-coordinate chart frames: the two the
# kernel tests use and every frame that chart seeds 1-5 of the benchmark
# draw.  The benchmark's own chart oracle reads only the connection at
# points, so a wrong R or nabla R entry on these frames shows here
UNIVARIATE_CHART_DIGESTS = {
    "x+2": "ab83c05c2577fd04afa6f6069d0c33cc218abbec5e0426c17228e47c2c048eed",
    "x^2+x+3":
        "81b7ce15f7683f7ef9d07a21ec606ea39374002b9847d5135b78d64275624dd9",
    "x+1": "d4a6844cdfecf474bda932c645c1f3deb047479c62419be9f52023de51937946",
    "x+3": "bd605f3c594f549f56bbbcd0993d821d5f0b4f47352be03d9de1a37784133ca9",
    "x^2+2*x+3":
        "bb3eddf29f69d32d226a03dd281c5cd5af714090f6c287c5a08686175ebe846f",
    "x^2+1*x+3":
        "81b7ce15f7683f7ef9d07a21ec606ea39374002b9847d5135b78d64275624dd9",
    "x^2+1*x+1":
        "3493688839b1efd8f56367893383d73dba6c8a613ebf97d1bc67b965fe5451d9",
}


@pytest.mark.parametrize("p", sorted(UNIVARIATE_CHART_DIGESTS))
def test_univariate_chart_frame_report_is_pinned(p):
    report = build_report(entry(chart_manifest(p)))
    checks = report["self_check"]
    assert checks and all(v is True for v in checks.values())
    out = render_json(report)
    assert hashlib.sha256(out.encode()).hexdigest() \
        == UNIVARIATE_CHART_DIGESTS[p]


# ---------------------------------------------------------------------------
# reference forms of the kernels (one VectorField per term) and of the
# identity checks (every index tuple), kept to test the fused kernels and
# the checks over independent index sets against

def ref_covariant_derivative(conn, x, y):
    m = conn.manifold
    out = VectorField.zero(m.dim)
    for i, xi in x.items():
        out = out + m.derivative(i, y).scale(xi)
        for j, yj in y.items():
            out = out + conn.nabla_basis(i, j).scale(xi * yj)
    return out


def ref_riemann_basis(conn, i, j, k):
    m = conn.manifold
    first = ref_covariant_derivative(conn, m.basis(i), conn.nabla_basis(j, k))
    second = ref_covariant_derivative(conn, m.basis(j),
                                      conn.nabla_basis(i, k))
    third = ref_covariant_derivative(conn, m.bracket_basis(i, j), m.basis(k))
    return first - second - third


def ref_riemann_apply(curv, x, y, z):
    out = VectorField.zero(curv.manifold.dim)
    for i, xi in x.items():
        for j, yj in y.items():
            for k, zk in z.items():
                out = out + curv.riemann(i, j, k).scale(xi * yj * zk)
    return out


def ref_nabla_r(curv, w, i, j, k):
    m, conn = curv.manifold, curv.connection
    ei, ej, ek = m.basis(i), m.basis(j), m.basis(k)
    out = ref_covariant_derivative(conn, m.basis(w), curv.riemann(i, j, k))
    out = out - ref_riemann_apply(curv, conn.nabla_basis(w, i), ej, ek)
    out = out - ref_riemann_apply(curv, ei, conn.nabla_basis(w, j), ek)
    return out - ref_riemann_apply(curv, ei, ej, conn.nabla_basis(w, k))


def full_riemann_symmetry(curv):
    m = curv.manifold
    idx = range(1, m.dim + 1)
    lowered = {(i, j, k, l): m.g(curv.riemann(i, j, k), m.basis(l))
               for i in idx for j in idx for k in idx for l in idx}
    out = []
    for i in idx:
        for j in idx:
            for k in idx:
                res = curv.riemann(i, j, k) + curv.riemann(j, i, k)
                if not res.is_zero():
                    out.append((("first-pair", i, j, k), res))
                for l in idx:
                    r = lowered[i, j, k, l] + lowered[i, j, l, k]
                    if not r.is_zero():
                        out.append((("second-pair", i, j, k, l), r))
                    r = lowered[i, j, k, l] - lowered[k, l, i, j]
                    if not r.is_zero():
                        out.append((("interchange", i, j, k, l), r))
    return out


def full_first_bianchi(curv):
    idx = range(1, curv.manifold.dim + 1)
    return [(i, j, k) for i in idx for j in idx for k in idx
            if not (curv.riemann(i, j, k) + curv.riemann(j, k, i)
                    + curv.riemann(k, i, j)).is_zero()]


def full_second_bianchi(curv):
    idx = range(1, curv.manifold.dim + 1)
    return [(w, i, j, k) for w in idx for i in idx for j in idx for k in idx
            if not (curv.nabla_r(w, i, j, k) + curv.nabla_r(i, j, w, k)
                    + curv.nabla_r(j, w, i, k)).is_zero()]


def kernel_entries():
    """Every catalog entry, kmu at two rational points, H^5, and the two
    example41-shaped chart frames with nonzero derivative terms."""
    kmu = build("kmu")
    out = {name: build(name)
           for name in ("example41", "kmu", "sphere", "flat3", "flat5")}
    out["kmu-point-a"] = kmu.substitute({"lambda": Fraction(1, 2),
                                         "mu": Fraction(-3)})
    out["kmu-point-b"] = kmu.substitute({"lambda": Fraction(2),
                                        "mu": Fraction(1, 3)})
    out["heisenberg5"] = entry(heisenberg_manifest(2))
    out["chart-linear"] = entry(chart_manifest("x+2"))
    out["chart-quadratic"] = entry(chart_manifest("x^2+x+3"))
    return out


@pytest.mark.parametrize("name", list(kernel_entries()))
def test_fused_kernels_match_the_reference_forms(name):
    m = kernel_entries()[name].manifold
    conn = koszul(m)
    curv = riemann(m, conn)
    idx = range(1, m.dim + 1)
    for i in idx:
        for j in idx:
            for k in idx:
                assert curv.riemann(i, j, k) \
                    == ref_riemann_basis(conn, i, j, k), (i, j, k)
                for w in idx:
                    assert curv.nabla_r(w, i, j, k) \
                        == ref_nabla_r(curv, w, i, j, k), (w, i, j, k)
    # fields with coefficients other than 1, coordinate-dependent in
    # chart mode, where the derivative terms of nabla_X Y are nonzero
    t = m.symbols
    x = VectorField.make([Expr.integer(a) - 2 for a in idx])
    y = VectorField.make([Expr.rational(1, a) for a in idx])
    if m.mode == MODE_CHART:
        y = VectorField.make([parse("x*y", t), parse("1/(z^2+1)", t)]
                             + [Expr.one()] * (m.dim - 2))
    for u, v in ((x, y), (y, x), (m.basis(1), y), (x, m.basis(m.dim))):
        assert conn.covariant_derivative(u, v) \
            == ref_covariant_derivative(conn, u, v)
        assert curv.riemann_apply(u, v, x) == ref_riemann_apply(curv, u, v, x)


def test_covariant_derivative_keeps_the_abstract_mode_guard():
    table = SymbolTable()
    t = table.add("t", KIND_COORDINATE)
    m = FrameManifold.abstract(3, table, {(2, 3): (2, 0, 0)})
    conn = koszul(m)
    y = VectorField.make([Expr.symbol(t), 0, 0])
    with pytest.raises(FrameError, match="cannot be differentiated"):
        conn.covariant_derivative(m.basis(1), y)


def _corrupt_riemann(curv, i, j, k, delta):
    """A copy of curv with R(e_i, e_j)e_k (i < j) moved by delta, still
    stored antisymmetric in (i, j)."""
    bad = copy.copy(curv)
    bad._riemann = dict(curv._riemann)
    bad._riemann[i, j, k] = curv.riemann(i, j, k) + delta
    bad._riemann[j, i, k] = -bad._riemann[i, j, k]
    return bad


def _family(residuals, family):
    return [r for r in residuals if r[0][0] == family]


def _h5_tables():
    m = entry(heisenberg_manifest(2)).manifold
    return riemann(m, koszul(m))


def test_reduced_checks_agree_with_the_full_loops_on_valid_tables():
    for name, ent in kernel_entries().items():
        m = ent.manifold
        curv = riemann(m, koszul(m))
        assert riemann_symmetry_residuals(curv) == [] \
            and full_riemann_symmetry(curv) == [], name
        assert first_bianchi_residuals(curv) == [] \
            and full_first_bianchi(curv) == [], name
        assert second_bianchi_residuals(curv) == [] \
            and full_second_bianchi(curv) == [], name


def test_metric_compat_check_needs_no_derivative_and_sees_a_bad_entry(
        monkeypatch):
    # the metric is parameter-only, so the check never differentiates;
    # adding e3 to nabla_{e1} e2 breaks g(nabla_1 e2, e3) + g(e2, nabla_1 e3)
    def refuse(self, i, f):
        raise AssertionError("directional_derivative called")

    conns = {name: koszul(ent.manifold)
             for name, ent in kernel_entries().items()}
    monkeypatch.setattr(FrameManifold, "directional_derivative", refuse)
    for name, conn in conns.items():
        m = conn.manifold
        assert metric_compat_residuals(conn) == [], name
        rows = [list(row) for row in conn._rows]
        rows[0][1] = rows[0][1] + m.basis(3)
        bad = ConnectionTable(m, tuple(tuple(row) for row in rows))
        assert metric_compat_residuals(bad), name


def test_residual_checks_see_a_bad_entry_at_the_last_index():
    # nabla_{e_n} e_n + e_n breaks metric compatibility at (n, n, n) alone,
    # and nabla_{e_(n-1)} e_n + e_1 torsion freeness at (n - 1, n) alone:
    # each sits at the last index of its loops (every kernel entry is
    # orthonormal)
    def corrupt(conn, i, j, delta):
        rows = [list(row) for row in conn._rows]
        rows[i - 1][j - 1] = rows[i - 1][j - 1] + delta
        return ConnectionTable(conn.manifold, tuple(map(tuple, rows)))

    for name, ent in kernel_entries().items():
        m = ent.manifold
        n, conn = m.dim, koszul(m)
        bad = corrupt(conn, n, n, m.basis(n))
        assert [idx for idx, _ in metric_compat_residuals(bad)] \
            == [(n, n, n)], name
        assert torsion_residuals(bad) == [], name
        bad = corrupt(conn, n - 1, n, m.basis(1))
        assert [idx for idx, _ in torsion_residuals(bad)] == [(n - 1, n)], \
            name


# id -> (the residual family it breaks, the entries (i, j, k) it moves)
RIEMANN_CORRUPTIONS = {
    # R(e3,e4)e5 + e1: the cyclic sum at (3, 4, 5)
    "first-bianchi": ("first-bianchi", {(3, 4, 5): {1: 1}}),
    # R(e1,e2)e3 + e3: g(R(e1,e2)e3, e3) != 0, seen only at k = l
    "second-pair": ("second-pair", {(1, 2, 3): {3: 1}}),
    # R(e1,e2)e1 + e3 and R(e1,e2)e3 - e1: both pairs stay antisymmetric,
    # the interchange of (1, 2) and (1, 3) breaks
    "interchange": ("interchange", {(1, 2, 1): {3: 1}, (1, 2, 3): {1: -1}}),
    # R(e2,e3)e1 + e2 and R(e2,e3)e2 - e1: the interchange of (1, 2) and
    # (2, 3) breaks through the later pair's entry alone
    "interchange-later-pair": ("interchange", {(2, 3, 1): {2: 1},
                                               (2, 3, 2): {1: -1}}),
}


def _h5_corrupted(corruption):
    """H^5's tables with the entries named by a RIEMANN_CORRUPTIONS value
    moved; the riemann_support of H^5 is kept, as is."""
    curv = _h5_tables()
    for (i, j, k), change in corruption.items():
        delta = VectorField.make([change.get(a, 0) for a in range(1, 6)])
        curv = _corrupt_riemann(curv, i, j, k, delta)
    return curv


@pytest.mark.parametrize("case", list(RIEMANN_CORRUPTIONS))
def test_reduced_checks_see_a_corrupted_riemann_entry(case):
    family, corruption = RIEMANN_CORRUPTIONS[case]
    curv = _h5_corrupted(corruption)
    if family == "first-bianchi":
        assert first_bianchi_residuals(curv) != []
        assert full_first_bianchi(curv) != []
    else:
        assert _family(riemann_symmetry_residuals(curv), family) != []
        assert _family(full_riemann_symmetry(curv), family) != []


def test_symmetry_check_sees_a_stored_entry_that_breaks_first_pair():
    # the stored R(e2,e1)e3 moved by e1, so it is not -R(e1,e2)e3
    curv = _h5_tables()
    bad = copy.copy(curv)
    bad._riemann = dict(curv._riemann)
    bad._riemann[2, 1, 3] = curv.riemann(2, 1, 3) + VectorField.basis(5, 1)
    assert _family(riemann_symmetry_residuals(bad), "first-pair") \
        == [(("first-pair", 1, 2, 3), VectorField.basis(5, 1))]


def test_reduced_second_bianchi_sees_a_corrupted_nabla_r_entry():
    # (nabla_{e3} R)(e1, e2)e1 + e1: the cyclic sum at (1, 2, 3), k = 1
    curv = _h5_tables()
    bad = copy.copy(curv)
    bad.nabla_r_table = dict(curv.nabla_r_table)
    bad.nabla_r_table[3, 1, 2, 1] = (curv.nabla_r(3, 1, 2, 1)
                                     + VectorField.basis(5, 1))
    bad.nabla_r_support = tuple(sorted(bad.nabla_r_table))
    assert second_bianchi_residuals(bad) != []
    assert full_second_bianchi(bad) != []


# ---------------------------------------------------------------------------
# reference forms of the Koszul table, with three g calls per entry, and of
# the Riemann symmetry check, with one g call per lowered component, kept to
# test the lowered bracket and curvature tables against

def ref_koszul_rows(m):
    half = Expr.rational(1, 2)
    idx = range(1, m.dim + 1)
    return [[m.raise_index([half * (m.g(m.basis(k), m.bracket_basis(i, j))
                                    - m.g(m.basis(i), m.bracket_basis(j, k))
                                    - m.g(m.basis(j), m.bracket_basis(i, k)))
                            for k in idx])
             for j in idx] for i in idx]


def ref_koszul(m):
    # the dense loop over all dim^3 triples, on the lowered bracket table
    idx = range(1, m.dim + 1)
    half = Expr.rational(1, 2)
    low = {(i, j): m.lower(m.bracket_basis(i, j)) for i in idx for j in idx}
    rows = []
    for i in idx:
        row = []
        for j in idx:
            rhs = {}
            for k in idx:
                val = low[i, j][k] - low[j, k][i] - low[i, k][j]
                if not val.is_zero():
                    rhs[k] = half * val
            row.append(m.raise_index(VectorField(m.dim, rhs)))
        rows.append(row)
    return rows


def cancelling_brackets():
    """[e1,e2] = e3 and [e2,e3] = e1: at the visited (1, 2, 3) the terms
    g([e1,e2],e3) - g([e2,e3],e1) - g([e1,e3],e2) = 1 - 1 - 0 cancel."""
    return FrameManifold.abstract(3, SymbolTable(), {
        (1, 2): (0, 0, 1), (2, 3): (1, 0, 0)})


def koszul_inputs():
    """The catalog, H^5, H^7, the sphere under the three non-identity
    metrics, the deformed kmu, the x+y+1 chart frame, example41 under a
    Cayley rotation, four seeded random 5-dimensional bracket tables and
    a table whose three lowered terms cancel at a visited key."""
    out = {name: build(name).manifold for name in entry_ids()}
    for n in (2, 3):
        out[f"heisenberg{2 * n + 1}"] = entry(heisenberg_manifest(n)).manifold
    for name, metric in NON_IDENTITY_METRICS.items():
        out[f"sphere-{name}"] = sphere_brackets(metric)
    out["deformed-kmu"] = entry(deformed_kmu_manifest()).manifold
    out["chart-xy"] = chart_frame_xy().manifold
    out["example41-cayley"] = entry(cayley_example41_manifest()).manifold
    for seed in range(4):
        out[f"random-{seed}"] = random_brackets(seed)
    out["cancelling"] = cancelling_brackets()
    return out


@pytest.mark.parametrize("name", list(koszul_inputs()))
def test_sparse_koszul_matches_the_dense_loop(name):
    m = koszul_inputs()[name]
    conn, ref = koszul(m), ref_koszul(m)
    idx = range(1, m.dim + 1)
    assert [[conn.nabla_basis(i, j) for j in idx] for i in idx] == ref


def test_koszul_drops_a_key_whose_lowered_terms_cancel():
    m = cancelling_brackets()
    conn = koszul(m)
    assert m.lower(m.bracket_basis(1, 2))[3] == Expr.one()
    assert conn.gamma(1, 2, 3).is_zero()


def ref_riemann_symmetry_residuals(curv):
    m = curv.manifold
    idx = range(1, m.dim + 1)
    pairs = list(itertools.combinations(idx, 2))
    out = []
    lowered = {(i, j, k, l): m.g(curv.riemann(i, j, k), m.basis(l))
               for i, j in pairs for k in idx for l in idx}
    for i, j in pairs:
        for k in idx:
            res = curv.riemann(i, j, k) + curv.riemann(j, i, k)
            if not res.is_zero():
                out.append((("first-pair", i, j, k), res))
            for l in range(k, m.dim + 1):
                r = lowered[i, j, k, l] + lowered[i, j, l, k]
                if not r.is_zero():
                    out.append((("second-pair", i, j, k, l), r))
    for a, (i, j) in enumerate(pairs):
        for k, l in pairs[a + 1:]:
            r = lowered[i, j, k, l] - lowered[k, l, i, j]
            if not r.is_zero():
                out.append((("interchange", i, j, k, l), r))
    return out


def lowering_inputs():
    """Every catalog entry, H^5, the two example41-shaped chart frames, the
    sphere's brackets under three non-identity metrics and the deformed
    kmu family, whose metric is not the identity."""
    out = {name: build(name).manifold for name in entry_ids()}
    out["heisenberg5"] = entry(heisenberg_manifest(2)).manifold
    out["chart-linear"] = entry(chart_manifest("x+2")).manifold
    out["chart-quadratic"] = entry(chart_manifest("x^2+x+3")).manifold
    for name, metric in NON_IDENTITY_METRICS.items():
        out[f"sphere-{name}"] = sphere_brackets(metric)
    out["deformed-kmu"] = entry(deformed_kmu_manifest()).manifold
    return out


@pytest.mark.parametrize("name", list(lowering_inputs()))
def test_lowered_tables_match_the_reference_g_calls(name):
    m = lowering_inputs()[name]
    conn = koszul(m)
    ref = ref_koszul_rows(m)
    idx = range(1, m.dim + 1)
    for i in idx:
        for j in idx:
            assert conn.nabla_basis(i, j) == ref[i - 1][j - 1], (i, j)
    curv = riemann(m, conn)
    assert riemann_symmetry_residuals(curv) == []
    assert ref_riemann_symmetry_residuals(curv) == []
    # R(e1,e2)e3 + e3 breaks the second pair, R(e1,e2)e1 + e3 the
    # interchange of (1, 2) with (1, 3)
    for k in (3, 1):
        bad = _corrupt_riemann(curv, 1, 2, k, m.basis(3))
        residuals = riemann_symmetry_residuals(bad)
        assert residuals, k
        assert residuals == ref_riemann_symmetry_residuals(bad), k


@pytest.mark.parametrize("name", list(lowering_inputs()))
def test_lower_and_raise_index_invert_each_other(name):
    m = lowering_inputs()[name]
    assert m.metric_inverse() is m.metric_inverse()
    for row in m.metric_rows + m.metric_inverse():
        assert not any(c.is_zero() for c in row.terms.values())
    idx = range(1, m.dim + 1)
    for i in idx:
        for j in idx:
            v = m.bracket_basis(i, j) + m.basis(j).scale(i)
            low = m.lower(v)
            assert m.raise_index(low) == v, (i, j)
            assert all(low[k] == m.g(v, m.basis(k)) for k in idx), (i, j)


# ---------------------------------------------------------------------------
# nabla R outside its support, and the walks over the support against the
# dense scans

def support_inputs():
    """The kernel entries, the lowering inputs (with the non-identity
    metrics and the deformed kmu) and the chart frame x+y+1."""
    out = {name: ent.manifold for name, ent in kernel_entries().items()}
    out.update(lowering_inputs())
    out["chart-xy"] = chart_frame_xy().manifold
    out["heisenberg7"] = entry(heisenberg_manifest(3)).manifold
    return out


def ref_locally_symmetric(curv):
    idx = range(1, curv.manifold.dim + 1)
    for w in idx:
        for i, j in itertools.combinations(idx, 2):
            for k in idx:
                val = curv.nabla_r(w, i, j, k)
                if not val.is_zero():
                    return SymmetryVerdict(False, (w, i, j, k,
                                                   min(val.terms)))
    return SymmetryVerdict(True)


def ref_second_bianchi_residuals(curv):
    idx = range(1, curv.manifold.dim + 1)
    out = []
    for w, i, j in itertools.combinations(idx, 3):
        for k in idx:
            res = (curv.nabla_r(w, i, j, k) + curv.nabla_r(i, j, w, k)
                   + curv.nabla_r(j, w, i, k))
            if not res.is_zero():
                out.append(((w, i, j, k), res))
    return out


SUPPORT_INPUTS = support_inputs()


@pytest.mark.parametrize("name", list(SUPPORT_INPUTS))
def test_nabla_r_vanishes_outside_its_support(name):
    m = SUPPORT_INPUTS[name]
    curv = riemann(m, koszul(m))
    support = curv.nabla_r_support
    assert list(support) == sorted(set(support))
    assert all(i < j for _, i, j, _ in support)
    assert not any(curv.nabla_r(*key).is_zero() for key in support)
    # the support is exactly the dense scan's nonzero keys
    idx = range(1, m.dim + 1)
    dense = [(w, i, j, k) for w in idx
             for i, j in itertools.combinations(idx, 2) for k in idx
             if not ref_nabla_r(curv, w, i, j, k).is_zero()]
    assert list(support) == dense
    assert len(support) == {"heisenberg5": 96, "heisenberg7": 264}.get(
        name, len(support))
    assert list(curv.riemann_support) == [
        (i, j, k) for i, j in itertools.combinations(idx, 2) for k in idx
        if not curv.riemann(i, j, k).is_zero()]
    # the walks over the support against the dense scans
    assert is_locally_symmetric(curv) == ref_locally_symmetric(curv)
    assert second_bianchi_residuals(curv) \
        == ref_second_bianchi_residuals(curv)


# ---------------------------------------------------------------------------
# the dense loops of the metric and Jacobi checks, over every index tuple,
# kept as oracles, with ref_riemann_symmetry_residuals, for the walks that
# visit only the tuples where a stored entry is nonzero

def dense_metric_compat_residuals(conn):
    m = conn.manifold
    out = []
    for i in range(1, m.dim + 1):
        for j in range(1, m.dim + 1):
            for k in range(j, m.dim + 1):
                ej, ek = m.basis(j), m.basis(k)
                res = (-m.g(conn.nabla_basis(i, j), ek)
                       - m.g(ej, conn.nabla_basis(i, k)))
                if not res.is_zero():
                    out.append(((i, j, k), res))
    return out


def dense_jacobi_violations(m):
    out = []
    for i, j, k in itertools.combinations(range(1, m.dim + 1), 3):
        ei, ej, ek = m.basis(i), m.basis(j), m.basis(k)
        residual = (m.bracket(ei, m.bracket(ej, ek))
                    + m.bracket(ej, m.bracket(ek, ei))
                    + m.bracket(ek, m.bracket(ei, ej)))
        if not residual.is_zero():
            out.append(JacobiViolation((i, j, k), residual))
    return out


def _bump_connection(conn, i, j, delta):
    rows = [list(row) for row in conn._rows]
    rows[i - 1][j - 1] = rows[i - 1][j - 1] + delta
    return ConnectionTable(conn.manifold, tuple(map(tuple, rows)))


def oracle_inputs():
    """The kernel entries, the lowering inputs, the chart frame x+y+1 and
    example41 under a Cayley rotation, whose brackets are not constant in
    the frame, so the Jacobi sums have nonzero derivative terms."""
    out = {name: ent.manifold for name, ent in kernel_entries().items()}
    out.update(lowering_inputs())
    out["chart-xy"] = chart_frame_xy().manifold
    out["example41-cayley"] = entry(cayley_example41_manifest()).manifold
    return out


@pytest.mark.parametrize("name", list(oracle_inputs()))
def test_residual_walks_match_the_dense_loops(name):
    m = oracle_inputs()[name]
    n, conn = m.dim, koszul(m)
    curv = riemann(m, conn)
    # the valid tables, then the connection corruptions of the metric
    # and torsion tests and the Riemann corruptions of the lowering test
    bad_conns = [conn, _bump_connection(conn, 1, 2, m.basis(3)),
                 _bump_connection(conn, n, n, m.basis(n)),
                 _bump_connection(conn, n - 1, n, m.basis(1))]
    for c in bad_conns:
        assert metric_compat_residuals(c) == dense_metric_compat_residuals(c)
    assert any(metric_compat_residuals(c) for c in bad_conns)
    bad_curvs = [curv] + [_corrupt_riemann(curv, 1, 2, k, m.basis(3))
                          for k in (3, 1)]
    for c in bad_curvs:
        assert riemann_symmetry_residuals(c) \
            == ref_riemann_symmetry_residuals(c)
    assert m.check_jacobi().violations == ()
    assert dense_jacobi_violations(m) == []


def test_symmetry_walk_matches_the_dense_loop_on_corrupted_h5_tables():
    # the corruptions edit the stored entries and keep riemann_support,
    # so the walk must read the stored table
    curv = _h5_tables()
    stored_only = copy.copy(curv)
    stored_only._riemann = dict(curv._riemann)
    stored_only._riemann[2, 1, 3] = (curv.riemann(2, 1, 3)
                                     + VectorField.basis(5, 1))
    cases = [_h5_corrupted(c) for _, c in RIEMANN_CORRUPTIONS.values()]
    for curv in cases + [stored_only]:
        assert curv.riemann_support == _h5_tables().riemann_support
        assert riemann_symmetry_residuals(curv) \
            == ref_riemann_symmetry_residuals(curv)
        assert riemann_symmetry_residuals(curv)


@pytest.mark.parametrize("seed", range(4))
def test_jacobi_walk_matches_the_dense_loop_on_failing_frames(seed):
    for m in (jacobi_failing_frame(), random_brackets(seed)):
        violations = m.check_jacobi().violations
        assert violations and list(violations) == dense_jacobi_violations(m)

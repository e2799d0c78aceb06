"""Classifier verdicts on the catalog entries, frozen exactly."""

import itertools
import threading
from fractions import Fraction

import pytest

from contact_tensor import classify
from contact_tensor.catalog import build, entry_ids
from contact_tensor.classify import (
    SCOPE_GLOBAL,
    SCOPE_LOCAL,
    ClassificationReport,
    ClassifyError,
    RecurrenceVerdict,
    SelfCheckError,
    SymmetryVerdict,
    _check_implication_chain,
    check_3d_decomposition,
    classify_structure,
    constant_curvature,
    is_locally_symmetric,
    is_sasakian,
    phi_symmetry,
    reconstruction_holds,
    solve_kappa_mu,
    solve_phi_recurrence,
)
from contact_tensor.contact import ContactStructure
from contact_tensor.curvature import koszul, ricci_operator_of, riemann
from contact_tensor.expr import (
    Expr,
    KIND_COORDINATE,
    KIND_PARAMETER,
    SymbolTable,
    parse,
)
from contact_tensor.cli import SWEEP_LAMBDA_DEFAULT, SWEEP_MU_DEFAULT
from contact_tensor.frame import FrameManifold, VectorField
from contact_tensor.manifest import CatalogEntry, export_entry
from contact_tensor.report import build_report, render_text

from _frames import (NON_IDENTITY_METRICS, cayley_example41_manifest,
                     chart_manifest, deformed_kmu_manifest, entry,
                     heisenberg_manifest, rotation_structure, sphere_brackets)


def classified(name, bindings=None):
    ent = build(name)
    if bindings:
        ent = ent.substitute(bindings)
    conn = koszul(ent.manifold)
    curv = riemann(ent.manifold, conn)
    return ent, curv, classify_structure(curv, ent.structure)


def test_symbolic_family_report():
    ent, curv, rep = classified("kmu")
    t = ent.manifold.symbols
    assert rep.contact_valid is True
    assert rep.diagnostics == ()
    assert rep.flat is False
    assert rep.constant_curvature is None

    km = rep.kappa_mu
    assert km.status == "consistent"
    assert km.kappa == parse("1-lambda^2", t)
    assert km.mu == parse("mu", t)
    assert km.constant_flag is True
    assert km.kappa_le_one is True
    assert km.relation is None

    assert rep.sasakian.ok is False
    assert rep.sasakian.witness == (2, 1)
    assert rep.locally_symmetric.ok is False
    assert rep.locally_symmetric.witness == (1, 1, 2, 1, 3)
    assert rep.phi_symmetric.ok is False
    assert rep.phi_symmetric.witness == (1, 1, 2, 1, 3)
    assert rep.locally_phi_symmetric.ok is True
    assert rep.phi_recurrent.status == "not_recurrent"
    assert rep.phi_recurrent.obstruction_index == (1, 1, 2, 1, 3)
    assert rep.phi_recurrent.obstruction == (
        "component (1, 1, 2, 1, 3): lhs -lambda*mu^2, "
        "curvature coefficient 0")
    assert rep.locally_phi_recurrent.status == "not_recurrent"
    assert rep.locally_phi_recurrent.obstruction == "only A=0"


def test_numeric_family_witnesses():
    _, _, rep = classified("kmu", {"lambda": Fraction(1, 2), "mu": 0})
    assert rep.flat is False
    assert rep.kappa_mu.kappa == Expr.rational(3, 4)
    assert rep.kappa_mu.mu == Expr.zero()
    assert rep.locally_symmetric.witness == (2, 1, 2, 2, 3)
    assert rep.phi_symmetric.witness == (2, 1, 2, 2, 3)
    assert rep.locally_phi_symmetric.ok is True
    assert rep.phi_recurrent.status == "not_recurrent"
    assert rep.phi_recurrent.obstruction == (
        "component (2, 1, 2, 2, 3): lhs 9/4, curvature coefficient 0")
    assert rep.locally_phi_recurrent.obstruction == "only A=0"


def test_sasakian_witness_past_the_first_pair():
    # at lambda = mu the pair (1, 2) meets the Sasakian equation, so the
    # witness is the next failing pair, its xi-like slot first
    ent, curv, _ = classified("kmu", {"lambda": 2, "mu": 2})
    verdict = is_sasakian(curv, ent.structure)
    assert verdict.ok is False
    assert verdict.witness == (3, 1)


def test_flat_member_of_the_family():
    ent, curv, rep = classified("kmu", {"lambda": 1, "mu": 0})
    assert rep.flat is True
    assert rep.constant_curvature == Expr.zero()
    assert rep.locally_symmetric.ok is True
    assert rep.phi_symmetric.ok is True
    assert rep.locally_phi_symmetric.ok is True
    assert rep.kappa_mu.status == "consistent"
    assert rep.kappa_mu.kappa == Expr.zero()
    assert rep.kappa_mu.mu == Expr.zero()
    for verdict in (rep.phi_recurrent, rep.locally_phi_recurrent):
        assert verdict.status == "trivially_recurrent"
        assert [str(c) for c in verdict.A.components] == ["1", "0", "0"]
    # the recurrence form equals eta
    assert list(verdict.A.components) \
        == list(ent.structure.eta.components)


def test_sphere_report():
    ent, curv, rep = classified("sphere")
    assert rep.contact_valid is True
    assert rep.sasakian.ok is True
    assert rep.constant_curvature == Expr.one()
    assert rep.flat is False
    assert rep.locally_symmetric.ok is True
    assert rep.phi_symmetric.ok is True
    assert rep.locally_phi_symmetric.ok is True
    km = rep.kappa_mu
    assert km.status == "underdetermined"
    assert km.kappa == Expr.one()
    assert km.mu is None
    assert km.relation is None
    assert km.kappa_le_one is True
    for verdict in (rep.phi_recurrent, rep.locally_phi_recurrent):
        assert verdict.status == "not_recurrent"
        assert verdict.obstruction == "only A=0"
        assert verdict.A is None
    # S(X, xi) = 2 eta(X): the Ricci tensor is 2 g on this entry
    for i in range(3):
        for j in range(3):
            want = "2" if i == j else "0"
            assert str(curv.ricci[i][j]) == want


def test_chart_entry_report():
    ent, curv, rep = classified("example41")
    assert rep.contact_valid is True
    assert rep.diagnostics == ()
    assert rep.flat is False
    assert rep.constant_curvature is None
    km = rep.kappa_mu
    assert km.status == "inconsistent"
    assert km.witness == (1, 2, 3)
    assert km.witness_component == 2
    assert km.kappa is None and km.mu is None
    assert rep.sasakian.ok is False
    assert rep.sasakian.witness == (2, 1)
    assert rep.locally_symmetric.witness == (1, 1, 2, 1, 3)
    assert rep.phi_symmetric.witness == (1, 1, 2, 3, 1)
    assert rep.locally_phi_symmetric.ok is False
    assert rep.locally_phi_symmetric.witness == (2, 1, 2, 1, 2)
    assert rep.phi_recurrent.status == "not_recurrent"
    assert rep.phi_recurrent.obstruction == (
        "component (1, 1, 2, 3, 1): lhs 8/x^2, curvature coefficient 0")
    assert rep.locally_phi_recurrent.status == "not_recurrent"
    assert rep.locally_phi_recurrent.obstruction == (
        "component (2, 1, 2, 1, 2): lhs 16/x, curvature coefficient 0")


def test_nullity_verdict_does_not_depend_on_the_frame():
    # example41 with e2, e3 rotated by the angle with cos 3/5, sin 4/5:
    # f2 = (3e2 - 4e3)/5, f3 = (4e2 + 3e3)/5, so xi = e3 = (4f2 + 3f3)/5
    doc = {"schema_version": 1, "name": "example41-rotated", "dimension": 3,
           "mode": "chart",
           "symbols": [{"name": s, "kind": "coordinate"} for s in "xyz"],
           "frame": [["0", "2/x", "0"],
                     ["6/5", "-12*z/(5*x)", "(3*x*y+4)/5"],
                     ["-8/5", "16*z/(5*x)", "(-4*x*y+3)/5"]],
           "phi": [["0", "3/5", "-4/5"], ["-3/5", "0", "0"],
                   ["4/5", "0", "0"]],
           "xi": ["0", "4/5", "3/5"]}
    _assert_example41_verdicts(doc)


def test_nullity_verdict_does_not_depend_on_a_coordinate_rotation():
    # the Cayley rotation by t = x turns eta's frame components into
    # functions, so the derivative terms of d eta do not vanish
    _assert_example41_verdicts(cayley_example41_manifest("x"))


def _assert_example41_verdicts(doc):
    # the frame-independent parts of a rotated example41's report
    report = build_report(entry(doc))
    reference = build_report(build("example41"))
    c, c0 = report["classification"], reference["classification"]
    km = c["kappa_mu"]
    assert km["status"] == "inconsistent"
    assert (km["witness"], km["witness_component"]) == ([1, 2], 2)
    assert ("  nullity (kappa, mu)      inconsistent, witness (1, 2)"
            in render_text(report).splitlines())
    assert report["diagnostics"] == [
        "local phi classifiers skipped: eta has 2 nonzero frame components, "
        "so the frame fields it annihilates do not span ker eta"]
    assert list(report["self_check"].values()) == [True] * 6
    assert c["contact_valid"] is True
    for key in ("contact_valid", "sasakian", "flat"):
        assert c[key] == c0[key], key
    assert c["sasakian"]["ok"] is False
    assert c["phi_recurrent"]["status"] == c0["phi_recurrent"]["status"]
    assert report["curvature"]["scalar"] == reference["curvature"]["scalar"]
    assert report["curvature"]["scalar"] == "0"


def test_flat_space_with_rotation_structure():
    fl = build("flat3")
    st = rotation_structure(fl.manifold, xi_index=3, plane=(1, 2))
    conn = koszul(fl.manifold)
    curv = riemann(fl.manifold, conn)
    rep = classify_structure(curv, st)
    assert rep.flat is True
    assert rep.contact_valid is False
    assert rep.diagnostics == (
        "contact metric condition violated: "
        "d eta(X,Y) = g(X, phi Y) fails at (1,2): 0 != -1",)
    km = rep.kappa_mu
    assert km.status == "underdetermined"
    assert km.kappa == Expr.zero()
    assert km.mu is None
    for verdict in (rep.phi_recurrent, rep.locally_phi_recurrent):
        assert verdict.status == "trivially_recurrent"
        assert [str(c) for c in verdict.A.components] == ["0", "0", "1"]


def test_warped_product_is_phi_recurrent():
    # frame e1 = d/dx, e2 = d/dy / x^2, e3 = d/dz: the metric is the warped
    # product dx^2 + x^4 dy^2 + dz^2 with K(e1, e2) = -f''/f = -2/x^2 for
    # f = x^2.  R takes values in span(e1, e2), where phi^2 = -id, and
    # nabla_w R = e_w(log|K|) R, so both scopes are recurrent with
    # A = -d log|K| = (2/x) e^1
    doc = chart_manifest("x")
    doc["frame"] = [["1", "0", "0"], ["0", "1/x^2", "0"], ["0", "0", "1"]]
    ent = entry(doc)
    m = ent.manifold
    curv = riemann(m, koszul(m))
    rep = classify_structure(curv, ent.structure)
    k = m.g(curv.riemann(1, 2, 2), VectorField.basis(3, 1))
    assert k == parse("-2/x^2", m.symbols)
    a = -m.directional_derivative(1, k) / k
    assert a == parse("2/x", m.symbols)
    for verdict, scope in ((rep.phi_recurrent, SCOPE_GLOBAL),
                           (rep.locally_phi_recurrent, SCOPE_LOCAL)):
        assert verdict.status == "recurrent"
        assert verdict.scope == scope
        assert verdict.A == VectorField.make((a, 0, 0))
    assert rep.locally_symmetric.ok is False
    assert rep.phi_symmetric.ok is False
    # almost contact, but d eta = 0 while g(X, phi Y) does not vanish
    assert rep.contact_valid is False
    assert rep.diagnostics == (
        "contact metric condition violated: "
        "d eta(X,Y) = g(X, phi Y) fails at (1,2): 0 != -1",)


def test_h_squared_law():
    # h^2 = (kappa - 1) phi^2 whenever the nullity condition is consistent
    for name, bindings in (("kmu", None), ("sphere", None),
                           ("kmu", {"lambda": Fraction(3, 2), "mu": -1})):
        ent = build(name)
        if bindings:
            ent = ent.substitute(bindings)
        st = ent.structure
        m = ent.manifold
        conn = koszul(m)
        curv = riemann(m, conn)
        km = solve_kappa_mu(curv, st, st.compute_h())
        assert km.status in ("consistent", "underdetermined")
        kappa = km.kappa
        h = st.compute_h()
        for i in range(1, 4):
            ei = m.basis(i)
            lhs = VectorField.combination(
                VectorField.combination(ei, h), h)
            rhs = st.apply_phi(st.apply_phi(ei)).scale(kappa - 1)
            assert lhs == rhs, (name, i)


def test_kappa_bound_diagnostic():
    # cyclic brackets scaled to curvature 4: the nullity line solves with
    # kappa = 4, which the sampler rejects
    t = SymbolTable()
    m = FrameManifold.abstract(3, t, {
        (1, 2): (0, 0, 4), (1, 3): (0, -4, 0), (2, 3): (4, 0, 0)})
    st = rotation_structure(m, xi_index=1, plane=(2, 3))
    curv = riemann(m, koszul(m))
    rep = classify_structure(curv, st)
    assert rep.kappa_mu.status == "underdetermined"
    assert rep.kappa_mu.kappa == Expr.integer(4)
    assert rep.kappa_mu.kappa_le_one is False
    assert any("kappa > 1" in d for d in rep.diagnostics)
    assert rep.constant_curvature == Expr.integer(4)


def test_constant_kappa_is_compared_once(monkeypatch):
    calls = []
    real_eval = Expr.eval
    monkeypatch.setattr(Expr, "eval",
                        lambda e, b: calls.append(b) or real_eval(e, b))
    for kappa, want in ((Expr.rational(3, 4), True), (Expr.one(), True),
                        (Expr.integer(4), False)):
        calls.clear()
        assert classify._kappa_le_one(kappa) is want
        assert len(calls) <= 1


def test_kappa_rule_answers_none_on_the_all_pole_kappa():
    # kappa = 1/prod(lambda - v) has a pole at every p/q with |p| <= 24 and
    # q <= 8, the origin among them, and |kappa| <= 1 at +-B past its
    # roots, so the rule answers None (unknown) from three bindings
    t = SymbolTable()
    lam = Expr.symbol(t.add("lambda", KIND_PARAMETER))
    den = Expr.one()
    for v in sorted({Fraction(a, b) for a in range(-24, 25)
                     for b in range(1, 9)}):
        den = den * (lam - Expr.rational(v))
    result = []
    worker = threading.Thread(
        target=lambda: result.append(classify._kappa_le_one(1 / den)),
        daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert result == [None]


@pytest.mark.parametrize("text, answers, witness", [
    ("1-lambda^2", {True}, None),
    ("(a^2-lambda^2)/a^2", {True}, None),
    ("1001/1000-lambda^2", {False}, {"lambda": 0}),
    ("lambda^2", {False}, None),
    ("2-a^2-lambda^2", {False}, {"a": 0, "lambda": 0}),
    ("1/lambda", {False, None}, None),
    ("1-(lambda-1)^2", {True, None}, None),
    # 1 - kappa = lambda^2*(lambda^2-lambda+1) >= 0, but the lambda^3 term
    # defeats the certificate and kappa = 1 at lambda = 0 is no witness
    ("1-lambda^4+lambda^3-lambda^2", {None}, None),
])
def test_kappa_le_one_is_certified_or_witnessed(text, answers, witness,
                                                monkeypatch):
    t = SymbolTable()
    for name in ("lambda", "a"):
        t.add(name, KIND_PARAMETER)
    kappa = parse(text, t)
    calls = []
    real_eval = Expr.eval
    monkeypatch.setattr(Expr, "eval",
                        lambda e, b: calls.append(b) or real_eval(e, b))
    got = classify._kappa_le_one(kappa)
    assert got in answers
    if got is True:
        assert calls == []      # a certificate, not an evaluation
    if got is False:
        at = classify._kappa_above_one(kappa)
        assert real_eval(kappa, at) > 1
        assert witness is None or at == witness


def test_mixed_line_solution():
    # a doctored h turns the sphere system into a single mixed line;
    # the solver reports the mu = 0 particular solution plus the relation
    ent = build("sphere")
    m = ent.manifold
    curv = riemann(m, koszul(m))
    fake_h = (VectorField.zero(3), VectorField.basis(3, 2),
              VectorField.basis(3, 3))
    km = solve_kappa_mu(curv, ent.structure, fake_h)
    assert km.status == "underdetermined"
    assert km.kappa == Expr.one()
    assert km.mu == Expr.zero()
    assert km.relation == "(-1)*kappa + (-1)*mu = (-1)"
    assert km.constant_flag is True


class _StubCurvature:
    """Only the surface solve_kappa_mu touches: manifold,
    riemann_apply."""

    def __init__(self, manifold, table):
        self.manifold = manifold
        self._table = table

    def riemann_apply(self, x, y, z):
        dim = self.manifold.dim
        out = VectorField.zero(dim)
        for i in range(1, dim + 1):
            ci = x.components[i - 1]
            if ci.is_zero():
                continue
            for j in range(1, dim + 1):
                cj = y.components[j - 1]
                if cj.is_zero() or j == i:
                    continue
                for k in range(1, dim + 1):
                    ck = z.components[k - 1]
                    if ck.is_zero():
                        continue
                    key, flip = (i, j, k), False
                    if i > j:
                        key, flip = (j, i, k), True
                    base = self._table.get(key)
                    if base is None:
                        continue
                    term = base.scale(ci * cj * ck)
                    out = out + (-term if flip else term)
        return out


def identity_chart():
    t = SymbolTable()
    for n in ("x", "y", "z"):
        t.add(n, KIND_COORDINATE)
    rows = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    return FrameManifold.chart(3, t, rows)


def test_non_constant_solution_is_flagged():
    # a coordinate-dependent point solution must clear constant_flag
    m = identity_chart()
    t = m.symbols
    st = rotation_structure(m, xi_index=3, plane=(1, 2))
    table = {(1, 3, 3): VectorField.make((parse("2*x^2", t), 0, 0))}
    curv = _StubCurvature(m, table)
    fake_h = (VectorField.basis(3, 1),
              -VectorField.basis(3, 2), VectorField.zero(3))
    km = solve_kappa_mu(curv, st, fake_h)
    assert km.status == "consistent"
    assert km.kappa == parse("x^2", t)
    assert km.mu == parse("x^2", t)
    assert km.constant_flag is False
    assert km.kappa_le_one is None


def test_non_constant_nullity_solution_gets_a_diagnostic():
    # a contact metric chart on z != 0 whose nullity condition holds with
    # kappa = 1 - 1/z^4 and mu = 2 - 2/z^2: a generalized (kappa, mu) space
    # (Koufogiorgos and Tsichlias), so not a (kappa, mu) structure
    doc = {"schema_version": 1, "name": "generalized-kappa-mu",
           "dimension": 3, "mode": "chart",
           "symbols": [{"name": n, "kind": "coordinate"} for n in "xyz"],
           "frame": [["1", "0", "0"], ["-2*y*z", "2*x/z^3", "-1/z^2"],
                     ["0", "1/z", "0"]],
           "phi": [["0", "0", "0"], ["0", "0", "1"], ["0", "-1", "0"]],
           "xi": ["1", "0", "0"]}
    ent = entry(doc)
    m = ent.manifold
    c = classify_structure(riemann(m, koszul(m)), ent.structure)
    assert c.contact_valid is True
    km = c.kappa_mu
    assert km.status == "consistent" and km.constant_flag is False
    assert km.kappa == parse("1-1/z^4", m.symbols)
    assert km.mu == parse("2-2/z^2", m.symbols)
    assert ("nullity condition solved with non-constant coefficients; not "
            "a (kappa,mu) structure") in c.diagnostics


def test_render_text_prints_the_nullity_relation():
    # the mixed line of test_mixed_line_solution, put into a report
    ent = build("sphere")
    m = ent.manifold
    fake_h = (VectorField.zero(3), VectorField.basis(3, 2),
              VectorField.basis(3, 3))
    km = solve_kappa_mu(riemann(m, koszul(m)), ent.structure, fake_h)
    report = build_report(ent)
    report["classification"]["kappa_mu"].update(
        status=km.status, kappa=str(km.kappa), mu=str(km.mu),
        relation=km.relation)
    assert ("  nullity (kappa, mu)      underdetermined, kappa = 1, mu = 0, "
            "relation (-1)*kappa + (-1)*mu = (-1)"
            in render_text(report).splitlines())


def test_unconstrained_system():
    # with eta identically zero every equation is trivial and the solver
    # never leaves the full plane
    m = identity_chart()
    st = ContactStructure(m, (VectorField.zero(3),) * 3,
                          VectorField.zero(3))
    km = solve_kappa_mu(_StubCurvature(m, {}), st,
                        (VectorField.zero(3),) * 3)
    assert km.status == "underdetermined"
    assert km.kappa is None and km.mu is None
    assert km.relation is None
    assert km.constant_flag is True


@pytest.mark.parametrize("equations, state", [
    # a parallel line with another right side
    ([(1, 1, 1, "l1"), (2, 2, 3, "l2")], "empty"),
    # the same line, scaled
    ([(1, 1, 1, "l1"), (2, 2, 2, "l2")], "line"),
    # an equation that the solved point (kappa, mu) = (1, 2) violates
    ([(1, 0, 1, "k"), (0, 1, 2, "m"), (1, 1, 4, "sum")], "empty"),
])
def test_affine_solver_exits(equations, state):
    solver = classify._AffineSolver()
    eqs = [(Expr.integer(a), Expr.integer(b), Expr.integer(c), tag)
           for a, b, c, tag in equations]
    for eq in eqs[:-1]:
        assert solver.feed(*eq) is True
    assert solver.feed(*eqs[-1]) is (state != "empty")
    assert solver.state == state
    assert solver.witness == (eqs[-1][3] if state == "empty" else None)


@pytest.mark.parametrize("metric, const", [
    ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], "1/2"),
    ([[1, 0, 0], [0, Fraction(1, 3), 0], [0, 0, Fraction(1, 3)]], "None"),
    ([[2, 1, 0], [1, 2, 0], [0, 0, 1]], "None"),
], ids=["scaled", "berger", "non-diagonal"])
def test_sphere_brackets_under_non_identity_metrics(metric, const):
    m = FrameManifold.abstract(
        3, SymbolTable(),
        {(1, 2): (0, 0, 2), (1, 3): (0, -2, 0), (2, 3): (2, 0, 0)}, metric)
    curv = riemann(m, koszul(m))
    assert str(constant_curvature(curv)) == const
    assert check_3d_decomposition(curv) is True
    bad = [list(row) for row in curv.ricci]
    bad[0][1] = bad[1][0] = bad[0][1] + Expr.one()
    assert reconstruction_holds(m, curv.riemann, bad) is False


def test_reconstruction_check():
    for name in ("example41", "kmu", "sphere", "flat3"):
        ent = build(name)
        curv = riemann(ent.manifold, koszul(ent.manifold))
        assert check_3d_decomposition(curv) is True
    # corrupting one Ricci entry must break the reconstruction
    ent = build("sphere")
    curv = riemann(ent.manifold, koszul(ent.manifold))
    bad = [list(row) for row in curv.ricci]
    bad[0][0] = bad[0][0] + Expr.one()
    assert reconstruction_holds(curv.manifold, curv.riemann, curv.ricci)
    assert reconstruction_holds(curv.manifold, curv.riemann, bad) is False
    flat5 = build("flat5")
    curv5 = riemann(flat5.manifold, koszul(flat5.manifold))
    with pytest.raises(ClassifyError):
        check_3d_decomposition(curv5)


def test_no_structure_report():
    ent = build("flat5")
    curv = riemann(ent.manifold, koszul(ent.manifold))
    rep = classify_structure(curv, None)
    assert rep.flat is True
    assert rep.locally_symmetric.ok is True
    assert rep.contact_valid is None
    assert rep.sasakian is None
    assert rep.kappa_mu is None
    assert rep.phi_symmetric is None
    assert rep.phi_recurrent is None
    assert rep.diagnostics == (
        "no contact structure attached; structure classifiers skipped",)


def test_implication_chain_guard():
    forged = ClassificationReport(
        contact_valid=None,
        sasakian=None,
        kappa_mu=None,
        flat=True,
        constant_curvature=Expr.zero(),
        locally_symmetric=SymmetryVerdict(False, (1, 1, 2, 1, 1)),
        phi_symmetric=None,
        locally_phi_symmetric=None,
        phi_recurrent=None,
        locally_phi_recurrent=None,
        diagnostics=())
    with pytest.raises(SelfCheckError) as info:
        _check_implication_chain(forged)
    assert "flat holds but locally symmetric does not" in str(info.value)


@pytest.mark.parametrize("phi_sym, local_phi_sym, broken", [
    (False, True, "locally symmetric holds but phi-symmetric does not"),
    (True, False, "phi-symmetric holds but locally phi-symmetric does not"),
], ids=["phi-symmetric", "locally-phi-symmetric"])
def test_implication_chain_guard_checks_the_phi_links(phi_sym, local_phi_sym,
                                                      broken):
    # a forged report whose only broken link is a phi one
    forged = ClassificationReport(
        contact_valid=None, sasakian=None, kappa_mu=None, flat=False,
        constant_curvature=None, locally_symmetric=SymmetryVerdict(True),
        phi_symmetric=SymmetryVerdict(phi_sym),
        locally_phi_symmetric=SymmetryVerdict(local_phi_sym),
        phi_recurrent=None, locally_phi_recurrent=None)
    with pytest.raises(SelfCheckError) as info:
        _check_implication_chain(forged)
    assert broken in str(info.value)


def test_almost_contact_violation_is_the_first_diagnostic():
    # the sphere with phi(e1) = e2, phi(e2) = -e1 and xi = e1: phi moves xi
    m = sphere_brackets(None)
    phi = (VectorField.basis(3, 2), -VectorField.basis(3, 1),
           VectorField.zero(3))
    st = ContactStructure(m, phi, VectorField.basis(3, 1))
    rep = classify_structure(riemann(m, koszul(m)), st)
    assert rep.contact_valid is False
    assert rep.diagnostics[0] == ("almost contact axioms violated: phi(xi) "
                                  "= 0 fails at (): ['0', '1', '0'] != 0")


def test_scope_validation():
    ent = build("sphere")
    curv = riemann(ent.manifold, koszul(ent.manifold))
    with pytest.raises(ClassifyError):
        phi_symmetry(curv, ent.structure, "nonsense")


def _broken_phi(ent):
    return ContactStructure(
        ent.manifold,
        (VectorField.make((1, 1, 0)), VectorField.basis(3, 1),
         VectorField.zero(3)),
        VectorField.basis(3, 3))


def test_broken_phi_skips_nullity_solver():
    # an h that violates its own invariants must surface as a diagnostic,
    # not a crash
    ent = build("example41")
    broken = _broken_phi(ent)
    curv = riemann(ent.manifold, koszul(ent.manifold))
    rep = classify_structure(curv, broken)
    assert rep.kappa_mu is None
    assert rep.contact_valid is False
    assert any(d.startswith("nullity solver skipped:")
               for d in rep.diagnostics)
    assert any("h operator invariants fail" in d for d in rep.diagnostics)


def test_h_is_derived_once_per_structure(monkeypatch):
    calls = []
    derive = ContactStructure.compute_h

    def counted(self):
        calls.append(self)
        return derive(self)

    monkeypatch.setattr(ContactStructure, "compute_h", counted)
    kmu = build("kmu")
    assert len(calls) == 1
    build_report(kmu)
    assert len(calls) == 1
    # a failing h is derived once too: its error is kept, not raised again
    ent = build("example41")
    calls.clear()
    broken = _broken_phi(ent)
    assert calls == [broken]
    classify_structure(riemann(ent.manifold, koszul(ent.manifold)), broken)
    report = build_report(CatalogEntry(ent.id, ent.manifold, broken))
    assert calls == [broken]
    skipped = [d for d in report["diagnostics"]
               if d.startswith("nullity solver skipped: ")]
    h_lines = [d for d in report["diagnostics"]
               if d.startswith("h operator: ")]
    assert skipped == [f"nullity solver skipped: {broken.h_error}"]
    assert h_lines == [f"h operator: {broken.h_error}"]
    assert (report["diagnostics"].index(skipped[0])
            < report["diagnostics"].index(h_lines[0]))
    assert list(report["structure"]) == ["eta", "xi", "phi"]
    assert report["classification"]["kappa_mu"] is None


@pytest.mark.parametrize("n", [2, 3, 4], ids=["H5", "H7", "H9"])
def test_sasakian_heisenberg_frames_are_not_phi_recurrent(n):
    # the paper's first theorem: no Sasakian manifold is phi-recurrent,
    # checked on H^5, H^7 and H^9
    report = build_report(entry(heisenberg_manifest(n)))
    checks = report["self_check"]
    assert checks.pop("reconstruction_3d") is None
    assert all(v is True for v in checks.values()), checks
    verdicts = report["classification"]
    assert verdicts["sasakian"]["ok"] is True
    assert verdicts["phi_recurrent"]["status"] != "recurrent"
    assert verdicts["locally_phi_recurrent"]["status"] != "recurrent"


# ---------------------------------------------------------------------------
# reference forms of the phi-symmetry and phi-recurrence scans, over every
# (i, j) with phi applied twice, kept to test the one scan per scope of
# classify_structure against

def ref_phi_fields(curv, structure, scope):
    eta = structure.eta.components
    idxs = [i for i in range(1, curv.manifold.dim + 1)
            if scope == SCOPE_GLOBAL or eta[i - 1].is_zero()]
    phi = structure.apply_phi
    for w in idxs:
        for i in idxs:
            for j in idxs:
                for k in idxs:
                    yield (w, i, j, k), phi(phi(curv.nabla_r(w, i, j, k)))


def ref_phi_symmetry(curv, structure, scope):
    for index, val in ref_phi_fields(curv, structure, scope):
        if not val.is_zero():
            return SymmetryVerdict(False, index + (min(val.terms),))
    return SymmetryVerdict(True)


def ref_phi_recurrence(curv, structure, scope):
    dim = curv.manifold.dim
    a = {}
    for (w, i, j, k), lhs_vec in ref_phi_fields(curv, structure, scope):
        rhs_vec = curv.riemann(i, j, k)
        for l in range(1, dim + 1):
            lhs, rhs = lhs_vec[l], rhs_vec[l]
            if rhs.is_zero():
                holds = lhs.is_zero()
            elif w not in a:
                a[w], holds = lhs / rhs, True
            else:
                holds = (lhs - a[w] * rhs).is_zero()
            if not holds:
                index = (w, i, j, k, l)
                return RecurrenceVerdict(
                    "not_recurrent", scope,
                    obstruction=(f"component {index}: lhs {lhs}, "
                                 f"curvature coefficient {rhs}"),
                    obstruction_index=index)
    if not a:
        return RecurrenceVerdict("trivially_recurrent", scope,
                                 A=structure.eta)
    comps = tuple(a.get(w, Expr.zero()) for w in range(1, dim + 1))
    if all(c.is_zero() for c in comps):
        return RecurrenceVerdict("not_recurrent", scope,
                                 obstruction="only A=0")
    return RecurrenceVerdict("recurrent", scope, A=VectorField.make(comps))


def _grid(raw):
    return [Fraction(v) for v in raw.split(",")]


def phi_scan_inputs(group):
    """(manifold, structure) pairs of one input group."""
    if group == "broken-phi":
        ent = build("example41")
        return [(ent.manifold, _broken_phi(ent))]
    if group == "catalog":
        ents = [build(name) for name in entry_ids()]
    elif group == "kmu":
        kmu = build("kmu")
        points = [(lam, mu) for lam in _grid(SWEEP_LAMBDA_DEFAULT)
                  for mu in _grid(SWEEP_MU_DEFAULT)] + [(1, 0), (-1, 0)]
        ents = [kmu.substitute({"lambda": Fraction(lam), "mu": Fraction(mu)})
                for lam, mu in points]
    elif group == "heisenberg":
        ents = [entry(heisenberg_manifest(n)) for n in (2, 3)]
    else:
        ents = [entry(chart_manifest(p)) for p in ("x+2", "x^2+x+3")]
    return [(e.manifold, e.structure) for e in ents if e.structure]


@pytest.mark.parametrize("group", ["catalog", "kmu", "heisenberg", "chart",
                                   "broken-phi"])
def test_phi_verdicts_match_the_reference_scans(group):
    for m, structure in phi_scan_inputs(group):
        curv = riemann(m, koszul(m))
        rep = classify_structure(curv, structure)
        assert (rep.phi_symmetric, rep.locally_phi_symmetric) == (
            ref_phi_symmetry(curv, structure, SCOPE_GLOBAL),
            ref_phi_symmetry(curv, structure, SCOPE_LOCAL))
        assert (rep.phi_recurrent, rep.locally_phi_recurrent) == (
            ref_phi_recurrence(curv, structure, SCOPE_GLOBAL),
            ref_phi_recurrence(curv, structure, SCOPE_LOCAL))


@pytest.mark.parametrize("make, calls", [
    (lambda: entry(heisenberg_manifest(2)), 25),
    (lambda: entry(heisenberg_manifest(3)), 67),
    # the global and the local scan both read one nabla R field
    (lambda: build("example41"), 3),
], ids=["heisenberg5", "heisenberg7", "example41"])
def test_classify_applies_phi_square_once_per_nonzero_field(
        make, calls, monkeypatch):
    ent = make()
    curv = riemann(ent.manifold, koszul(ent.manifold))
    # nabla_r returns the stored field for i < j, so one id is one field
    fields = {id(curv.nabla_r(*key)) for key in curv.nabla_r_support}
    seen = []
    square = classify._phi_square

    def counted_square(structure, v):
        seen.append(id(v))
        return square(structure, v)

    monkeypatch.setattr(classify, "_phi_square", counted_square)
    classify_structure(curv, ent.structure)
    assert len(seen) == len(set(seen)) == calls
    assert set(seen) <= fields


def test_classify_contracts_r_with_xi_once_per_pair(monkeypatch):
    # is_sasakian and solve_kappa_mu share one R(e_i, e_j)xi table
    ent = entry(heisenberg_manifest(3))
    curv = riemann(ent.manifold, koszul(ent.manifold))
    pairs = []
    apply = type(curv).riemann_apply

    def counted_apply(tables, x, y, z):
        pairs.append((min(x.terms), min(y.terms)))
        return apply(tables, x, y, z)

    monkeypatch.setattr(type(curv), "riemann_apply", counted_apply)
    rep = classify_structure(curv, ent.structure)
    assert pairs == list(itertools.combinations(range(1, 8), 2))
    assert rep.sasakian == is_sasakian(curv, ent.structure)
    assert rep.kappa_mu == solve_kappa_mu(curv, ent.structure,
                                          ent.structure.compute_h())


# ---------------------------------------------------------------------------
# reference form of the 3-D reconstruction check, over all 27 (i, j, k),
# kept to test the i < j check of reconstruction_holds against

def ref_reconstruction_holds(m, riemann_basis, ricci):
    q_rows, scalar = ricci_operator_of(m, ricci)
    half_r = Expr.rational(1, 2) * scalar
    for i in range(1, 4):
        for j in range(1, 4):
            for k in range(1, 4):
                gjk, gik = m.metric_entry(j, k), m.metric_entry(i, k)
                sjk, sik = ricci[j - 1][k - 1], ricci[i - 1][k - 1]
                recon = (q_rows[i - 1].scale(gjk) - q_rows[j - 1].scale(gik)
                         + m.basis(i).scale(sjk - half_r * gjk)
                         + m.basis(j).scale(half_r * gik - sik))
                if not (riemann_basis(i, j, k) - recon).is_zero():
                    return False
    return True


def reconstruction_inputs():
    ents = [e for e in map(build, entry_ids()) if e.manifold.dim == 3]
    kmu = build("kmu")
    ents += [kmu.substitute({"lambda": lam, "mu": mu})
             for lam in _grid(SWEEP_LAMBDA_DEFAULT)
             for mu in _grid(SWEEP_MU_DEFAULT)]
    ents += [entry(chart_manifest(p)) for p in ("x+2", "x^2+x+3")]
    ents.append(entry(deformed_kmu_manifest()))
    return ([e.manifold for e in ents]
            + [sphere_brackets(g) for g in NON_IDENTITY_METRICS.values()])


def test_reconstruction_over_i_lt_j_matches_the_full_check():
    ms = reconstruction_inputs()
    assert len(ms) == 4 + 16 + 2 + 1 + 3
    for m in ms:
        curv = riemann(m, koszul(m))
        assert reconstruction_holds(m, curv.riemann, curv.ricci) is True
        assert ref_reconstruction_holds(m, curv.riemann, curv.ricci) is True
        e1 = m.basis(1)

        def corrupted(i, j, k):
            # R(e1,e2)e3 + e1, kept antisymmetric in (i, j)
            sign = {(1, 2, 3): 1, (2, 1, 3): -1}.get((i, j, k), 0)
            return curv.riemann(i, j, k) + e1.scale(sign)

        assert reconstruction_holds(m, corrupted, curv.ricci) is False
        assert ref_reconstruction_holds(m, corrupted, curv.ricci) is False
        bad = [list(row) for row in curv.ricci]
        bad[0][2] = bad[2][0] = bad[0][2] + Expr.one()
        assert reconstruction_holds(m, curv.riemann, bad) is False
        assert ref_reconstruction_holds(m, curv.riemann, bad) is False


# reference form of constant_curvature: the ratio search that takes its
# candidate from the first nonzero shape component, kept to test the
# candidate read from the stored scalar curvature against

def ref_constant_curvature(curv):
    m = curv.manifold
    cand = None
    for i, j in itertools.combinations(range(1, m.dim + 1), 2):
        for k in range(1, m.dim + 1):
            shape = (m.basis(i).scale(m.metric_entry(j, k))
                     - m.basis(j).scale(m.metric_entry(i, k)))
            actual = curv.riemann(i, j, k)
            for l in range(1, m.dim + 1):
                s, a = shape[l], actual[l]
                if s.is_zero():
                    if not a.is_zero():
                        return None
                elif cand is None:
                    cand = a / s
                elif not (a - cand * s).is_zero():
                    return None
    return cand if cand is not None else Expr.zero()


def test_constant_curvature_matches_the_ratio_search():
    ents = [build(i) for i in entry_ids()]
    ents += [entry(heisenberg_manifest(n)) for n in (2, 3)]
    kmu = build("kmu")
    ents += [kmu.substitute({"lambda": lam, "mu": mu})
             for lam in _grid(SWEEP_LAMBDA_DEFAULT)
             for mu in _grid(SWEEP_MU_DEFAULT)]
    ents += [entry(deformed_kmu_manifest()), entry(chart_manifest("x+2"))]
    ms = ([e.manifold for e in ents]
          + [sphere_brackets(g) for g in NON_IDENTITY_METRICS.values()])
    assert len(ms) == 5 + 2 + 16 + 2 + 3
    seen = []
    for m in ms:
        curv = riemann(m, koszul(m))
        want = ref_constant_curvature(curv)
        assert constant_curvature(curv) == want
        seen.append(None if want is None else str(want))
    # the inputs reach flat, two positive and absent constant curvatures
    assert set(seen) == {"0", "1", "1/2", None}


class _StubTables:
    """manifold, scalar and riemann, all that constant_curvature reads:
    R = c(g(Y,Z)X - g(X,Z)Y) on the identity metric in dimension 3, with
    an extra e_3 component on R(e_1,e_2)e_3 when broken.  The Ricci trace
    reads component l of R(e_l, e_j)e_k, so it never reads that one, and
    the scalar stays n(n-1)c = 6c."""

    def __init__(self, c, broken):
        self.manifold = build("sphere").manifold
        self.c, self.broken = Expr.integer(c), broken
        self.scalar = Expr.integer(6 * c)

    def riemann(self, i, j, k):
        m = self.manifold
        r = (m.basis(i).scale(m.metric_entry(j, k))
             - m.basis(j).scale(m.metric_entry(i, k))).scale(self.c)
        sign = {(1, 2, 3): 1, (2, 1, 3): -1}.get((i, j, k), 0)
        return r + m.basis(3).scale(sign) if self.broken else r


@pytest.mark.parametrize("c", [1, -2])
def test_constant_curvature_checks_components_the_trace_never_reads(c):
    for broken in (False, True):
        stub = _StubTables(c, broken)
        idx = range(1, 4)
        trace = sum((stub.riemann(l, j, j)[l] for l in idx for j in idx
                     if l != j), Expr.zero())
        assert trace == stub.scalar
        want = None if broken else stub.c
        assert ref_constant_curvature(stub) == want
        assert constant_curvature(stub) == want


def _example41_with(**fields):
    doc = export_entry(build("example41"))
    doc.update(fields)
    return entry(doc)


@pytest.mark.parametrize("fields, witness, contact_valid", [
    ({}, (1, 2, 3), True),
    # xi = 2e_3 has one frame component, and it is not 1
    (dict(metric=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1/4"]],
          xi=["0", "0", "2"]),
     (1, 2), False),
    # e_2 and e_3 turned by (3/5, 4/5): f2 = (3e2 - 4e3)/5 and
    # f3 = (4e2 + 3e3)/5, so xi = e3 = -(4/5)f2 + (3/5)f3
    (dict(frame=[["0", "2/x", "0"],
                 ["6/5", "-12*z/(5*x)", "(3*x*y-4)/5"],
                 ["8/5", "-16*z/(5*x)", "(4*x*y+3)/5"]],
          phi=[["0", "3/5", "4/5"], ["-3/5", "0", "0"], ["-4/5", "0", "0"]],
          xi=["0", "-4/5", "3/5"]),
     (1, 2), True),
], ids=["example41", "xi-2e3", "turned"])
def test_nullity_witness_names_xi_only_when_it_is_a_frame_field(
        fields, witness, contact_valid):
    ent = _example41_with(**fields)
    curv = riemann(ent.manifold, koszul(ent.manifold))
    rep = classify_structure(curv, ent.structure)
    assert (rep.kappa_mu.status, rep.kappa_mu.witness,
            rep.kappa_mu.witness_component) == ("inconsistent", witness, 2)
    assert solve_kappa_mu(curv, ent.structure, ent.structure.h) \
        == rep.kappa_mu
    assert rep.contact_valid is contact_valid

"""Almost contact metric structures and the h operator."""

import pytest

from contact_tensor.catalog import build
from contact_tensor.contact import (
    ContactError,
    ContactStructure,
    h_eigenstructure,
)
from contact_tensor.expr import (Expr, KIND_COORDINATE, KIND_PARAMETER,
                                 SymbolTable, parse)
from contact_tensor.frame import FrameError, FrameManifold, VectorField
from contact_tensor.report import build_report

from _frames import deformed_kmu_manifest, entry, rotation_structure


def test_eta_is_metric_dual_of_xi():
    for name, want in (("kmu", ["1", "0", "0"]),
                       ("sphere", ["1", "0", "0"]),
                       ("example41", ["0", "0", "1"])):
        st = build(name).structure
        assert [str(c) for c in st.eta.components] == want


def test_apply_phi():
    st = build("example41").structure
    v = VectorField.make((1, 2, 5))
    out = st.apply_phi(v)
    # phi: e1 -> e2, e2 -> -e1, e3 -> 0
    assert [str(c) for c in out.components] == ["-2", "1", "0"]


def test_almost_contact_axioms_hold_on_catalog_entries():
    for name in ("kmu", "sphere", "example41"):
        st = build(name).structure
        assert st.validate_almost_contact() == []
        assert st.check_contact_metric().ok


def test_d_eta_tables():
    e41 = build("example41").structure
    assert [str(e41.d_eta(i, j)) for (i, j) in ((1, 2), (1, 3), (2, 3))] \
        == ["-1", "0", "0"]
    kmu = build("kmu").structure
    assert [str(kmu.d_eta(i, j)) for (i, j) in ((1, 2), (1, 3), (2, 3))] \
        == ["0", "0", "-1"]
    sphere = build("sphere").structure
    assert str(sphere.d_eta(2, 3)) == "-1"


def test_scaled_xi_breaks_the_axioms():
    fl = build("flat3")
    st = ContactStructure(
        fl.manifold,
        (VectorField.basis(3, 2), -VectorField.basis(3, 1),
         VectorField.zero(3)),
        VectorField.basis(3, 3).scale(Expr.integer(2)))
    messages = [v.describe() for v in st.validate_almost_contact()]
    assert "eta(xi) = 1 fails at (): 4 != 1" in messages
    assert any(m.startswith("phi^2 = -id + eta(x)xi fails at (3)")
               for m in messages)
    assert any("g(phi X, phi Y) = g(X, Y) - eta(X)eta(Y)" in m
               for m in messages)


def test_phi_that_moves_xi_breaks_the_axioms_and_h():
    # on the sphere with xi = e1, phi(e1) = e2, phi(e2) = -e1, phi(e3) = 0
    sphere = build("sphere")
    st = ContactStructure(
        sphere.manifold,
        (VectorField.basis(3, 2), -VectorField.basis(3, 1),
         VectorField.zero(3)),
        VectorField.basis(3, 1))
    messages = [v.describe() for v in st.validate_almost_contact()]
    assert messages[0] == "phi(xi) = 0 fails at (): ['0', '1', '0'] != 0"
    with pytest.raises(ContactError) as info:
        st.compute_h()
    assert str(info.value).startswith(
        "h operator invariants fail, the structure is not contact metric: "
        "h(xi) != 0")


def test_h_eigenstructure_of_a_negative_diagonal():
    # every nonzero eigenvalue is -lambda: lambda is the positive-leading
    # one, and e2, e3 span D(-lambda)
    t = SymbolTable()
    lam = Expr.symbol(t.add("lambda", KIND_PARAMETER))
    h = (VectorField.zero(3), VectorField.basis(3, 2).scale(-lam),
         VectorField.basis(3, 3).scale(-lam))
    eig = h_eigenstructure(h)
    assert eig.lam == lam
    assert (eig.d_plus, eig.d_minus, eig.d_zero) == ((), (2, 3), (1,))


def test_rotation_on_flat_space_is_not_contact_metric():
    # the almost contact axioms hold but d eta vanishes identically
    fl = build("flat3")
    st = rotation_structure(fl.manifold, xi_index=3, plane=(1, 2))
    assert st.validate_almost_contact() == []
    rep = st.check_contact_metric()
    assert not rep.ok
    assert [v.describe() for v in rep.violations] \
        == ["d eta(X,Y) = g(X, phi Y) fails at (1,2): 0 != -1"]
    # in the last plane the only failing pair is the last one
    st = rotation_structure(fl.manifold, xi_index=1, plane=(2, 3))
    assert [v.describe() for v in st.check_contact_metric().violations] \
        == ["d eta(X,Y) = g(X, phi Y) fails at (2,3): 0 != -1"]


def test_h_operator_values():
    h = build("example41").structure.compute_h()
    assert [[str(c) for c in r.components] for r in h] \
        == [["-1", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]]
    assert not all(r.is_zero() for r in h)
    hk = build("kmu").structure.compute_h()
    assert [[str(c) for c in r.components] for r in hk] \
        == [["0", "0", "0"], ["0", "lambda", "0"], ["0", "0", "-lambda"]]
    hs = build("sphere").structure.compute_h()
    assert all(r.is_zero() for r in hs)
    assert str(VectorField.combination(VectorField.basis(3, 2),
                                       hs).components[1]) == "0"


def test_h_invariant_violations_are_reported():
    # a phi that is not an almost contact structure gives an h that fails
    # its own invariants; compute_h must say so instead of returning junk
    e41 = build("example41")
    broken = ContactStructure(
        e41.manifold,
        (VectorField.make((1, 1, 0)), VectorField.basis(3, 1),
         VectorField.zero(3)),
        VectorField.basis(3, 3))
    # the constructor keeps the error; compute_h derives h and raises
    assert broken.h is None
    msg = str(broken.h_error)
    assert "h operator invariants fail" in msg
    assert "h is not self-adjoint at (e1,e2)" in msg
    with pytest.raises(ContactError) as info:
        broken.compute_h()
    assert str(info.value) == msg


def _identity_chart(phi, xi):
    # the coordinate partials of R^3 as the frame, so each bracket of
    # frame fields vanishes and h is half the xi-derivative of phi
    return entry({"schema_version": 1, "name": "m", "dimension": 3,
                  "mode": "chart",
                  "symbols": [{"name": n, "kind": "coordinate"}
                              for n in "xyz"],
                  "frame": [["1", "0", "0"], ["0", "1", "0"],
                            ["0", "0", "1"]],
                  "phi": phi, "xi": xi}).structure


def test_h_invariants_are_checked_up_to_the_last_index():
    # phi(e1) = x e1, phi(e2) = x e3, phi(e3) = -x e2 and xi = e1 give
    # h(e1) = e1/2, h(e2) = e3/2 and h(e3) = -e2/2: tr h = xi(tr phi)/2
    # is nonzero, and the failures reach e3 and the pair (e2, e3)
    st = _identity_chart([["x", "0", "0"], ["0", "0", "x"],
                          ["0", "-x", "0"]], ["1", "0", "0"])
    assert str(st.h_error) == (
        "h operator invariants fail, the structure is not contact metric: "
        "h(xi) != 0; (h phi + phi h)(e1) != 0; (h phi + phi h)(e2) != 0; "
        "(h phi + phi h)(e3) != 0; tr h = 1/2 != 0; "
        "h is not self-adjoint at (e2,e3)")
    # phi(e3) = x e3 alone fails only at the last index
    st = _identity_chart([["0", "0", "0"], ["0", "0", "0"],
                          ["0", "0", "x"]], ["1", "0", "0"])
    assert str(st.h_error) == (
        "h operator invariants fail, the structure is not contact metric: "
        "(h phi + phi h)(e3) != 0; tr h = 1/2 != 0")


def test_h_eigenstructure_cases():
    kmu = build("kmu")
    eig = h_eigenstructure(kmu.structure.compute_h())
    assert str(eig.lam) == "lambda"
    assert (eig.d_plus, eig.d_minus, eig.d_zero) == ((2,), (3,), (1,))

    # flipping the diagonal keeps the positive-leading representative
    m = kmu.manifold
    lam = Expr.symbol(m.symbols.get("lambda"))
    flipped = (VectorField.zero(3),
               VectorField.basis(3, 2).scale(-lam),
               VectorField.basis(3, 3).scale(lam))
    eig2 = h_eigenstructure(flipped)
    assert str(eig2.lam) == "lambda"
    assert (eig2.d_plus, eig2.d_minus) == ((3,), (2,))

    zero = h_eigenstructure(build("sphere").structure.compute_h())
    assert str(zero.lam) == "0"
    assert zero.d_zero == (1, 2, 3)

    e41 = h_eigenstructure(build("example41").structure.compute_h())
    assert str(e41.lam) == "1"
    assert (e41.d_plus, e41.d_minus, e41.d_zero) == ((2,), (1,), (3,))


def test_h_eigenstructure_rejects_bad_operators():
    off = (VectorField.basis(3, 2), VectorField.basis(3, 1),
           VectorField.zero(3))
    with pytest.raises(ContactError) as info:
        h_eigenstructure(off)
    assert "not diagonal" in str(info.value)

    mixed = (VectorField.basis(3, 1),
             VectorField.basis(3, 2).scale(Expr.integer(2)),
             VectorField.zero(3))
    with pytest.raises(ContactError) as info:
        h_eigenstructure(mixed)
    assert "neither +-" in str(info.value)


def test_structure_shape_checks():
    m = build("sphere").manifold
    with pytest.raises(ContactError):
        ContactStructure(m, (VectorField.zero(3),) * 2,
                         VectorField.basis(3, 1))
    with pytest.raises(ContactError):
        ContactStructure(m, (VectorField.zero(3),) * 3,
                         VectorField.make((1, 0)))


def test_coordinate_xi_on_an_abstract_frame_fails_at_construction():
    # h needs [xi, phi X], and an abstract frame cannot differentiate a
    # coordinate function; ingest refuses such a manifest before this
    t = SymbolTable()
    x = Expr.symbol(t.add("x", KIND_COORDINATE))
    m = FrameManifold.abstract(3, t, {(1, 2): (0, 0, 2)})
    rows = (VectorField.zero(3), VectorField.basis(3, 3),
            -VectorField.basis(3, 2))
    with pytest.raises(FrameError, match="cannot be differentiated"):
        ContactStructure(m, rows, VectorField.make((x, 0, 0)))


def test_substitute_parameters_on_structure():
    kmu = build("kmu")
    st = kmu.structure.substitute_parameters({"lambda": 1, "mu": 0})
    h = st.compute_h()
    assert [[str(c) for c in r.components] for r in h] \
        == [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]]


def test_d_homothetic_deformation_of_kmu_matches_the_known_formulas():
    # Tanno 1968; Blair, Koufogiorgos & Papantoniou 1995: eta' = a eta,
    # xi' = xi/a, phi' = phi and g' = a g + a(a-1) eta (x) eta take a
    # (kappa, mu)-space to kappa' = (kappa + a^2 - 1)/a^2 and
    # mu' = (mu + 2a - 2)/a; the kmu family has kappa = 1 - lambda^2
    ent = entry(deformed_kmu_manifest())
    m, st = ent.manifold, ent.structure
    a, lam, mu = (parse(n, m.symbols) for n in ("a", "lambda", "mu"))
    one = Expr.one()
    report = build_report(ent)
    assert report["structure"]["eta"] == ["a", "0", "0"]
    for x in (m.basis(1), m.basis(2) - m.basis(1).scale(lam), st.xi):
        assert sum((st.eta[k] * c for k, c in x.items()),
                   Expr.zero()) == m.g(x, st.xi)
    verdicts = report["classification"]
    assert verdicts["contact_valid"] is True
    km = verdicts["kappa_mu"]
    assert km["status"] == "consistent"
    kappa = one - lam * lam
    assert parse(km["kappa"], m.symbols) == (kappa + a * a - one) / (a * a)
    assert parse(km["mu"], m.symbols) == (mu + 2 * a - 2 * one) / a
    assert (km["kappa"], km["mu"]) == ("(a^2-lambda^2)/a^2", "(2*a+mu-2)/a")
    assert km["kappa_le_one"] is True
    assert all(v is True for v in report["self_check"].values())

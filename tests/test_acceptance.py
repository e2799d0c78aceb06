"""Acceptance checklist for the package.

One test per criterion; `pytest -v` prints one pass/fail line for each.
Every comparison is exact rational arithmetic, so there are no numeric
tolerances anywhere.

 1. The chart-frame catalog entry reproduces its connection table: eight
    tabulated covariant derivative equations, exactly four nonzero, and
    all 27 Christoffel symbols.
 2. The same entry has R(e1,e2)e3 = -(4/x) e2, and the nullity-condition
    solver refutes the claimed (kappa, mu) form: the system is
    inconsistent with witness (1,2,3).
 3. The symbolic two-parameter family reproduces its connection table,
    curvature table, the bracket-coefficient identity, and the covariant
    curvature derivative displays (with the one display whose value is
    forced into a single frame slot; the split variant is tracked as a
    strict xfail).
 4. Over the 16-point default grid, global phi-recurrence holds exactly
    at the flat member (lambda, mu) = (1, 0).
 5. Over the same grid, local symmetry and global phi-symmetry are each
    equivalent to flatness, while local phi-symmetry holds everywhere.
 6. The cyclic-bracket entry is Sasakian with constant curvature 1,
    h = 0, S(X, xi) = 2 eta(X), and both recurrence solvers report
    not_recurrent with the only-trivial-recurrence-form obstruction.
 7. Every catalog entry passes the tensor identity suite: torsion-free,
    metric compatibility, curvature symmetries, both Bianchi identities,
    the dimension-3 reconstruction, the h operator invariants, the
    h^2 law, and the Reeb/eta derivative laws.
 8. Symbolic zeros stay zero numerically: 50 random rational bindings
    per entry (poles excluded by resampling) evaluate every residual
    to 0.
 9. For every entry the CLI round trip export -> ingest -> report is
    byte-identical JSON.
"""

import functools
import json
import random
from fractions import Fraction

import pytest

from contact_tensor import cli
from contact_tensor.catalog import build, entry_ids
from contact_tensor.classify import (
    SCOPE_GLOBAL,
    SCOPE_LOCAL,
    check_3d_decomposition,
    classify_structure,
    constant_curvature,
    solve_kappa_mu,
    solve_phi_recurrence,
)
from contact_tensor.curvature import (
    first_bianchi_residuals,
    koszul,
    metric_compat_residuals,
    nabla_structure_tensors,
    riemann,
    riemann_symmetry_residuals,
    second_bianchi_residuals,
    torsion_residuals,
)
from contact_tensor.expr import Expr, PoleError, parse
from contact_tensor.frame import VectorField
from contact_tensor.manifest import export_entry, manifest_to_json


@functools.lru_cache(maxsize=None)
def tables(name):
    ent = build(name)
    conn = koszul(ent.manifold)
    return ent, conn, riemann(ent.manifold, conn)


def basis_times(dim, i, e):
    return VectorField.basis(dim, i).scale(e)


def test_criterion_1_chart_connection_table():
    ent, conn, _ = tables("example41")
    t = ent.manifold.symbols
    two_over_x = parse("2/x", t)
    # the eight tabulated equations
    displayed = {
        (1, 3): VectorField.zero(3),
        (2, 3): basis_times(3, 1, Expr.integer(2)),
        (3, 3): VectorField.zero(3),
        (1, 2): basis_times(3, 1, two_over_x),
        (2, 1): basis_times(3, 3, Expr.integer(-2)),
        (2, 2): VectorField.zero(3),
        (3, 2): VectorField.zero(3),
        (1, 1): basis_times(3, 2, -two_over_x),
    }
    for (i, j), want in displayed.items():
        assert conn.nabla_basis(i, j) == want, (i, j)
    # the remaining pair and the full 27-symbol count
    assert conn.nabla_basis(3, 1).is_zero()
    nonzero = [(i, j) for i in range(1, 4) for j in range(1, 4)
               if not conn.nabla_basis(i, j).is_zero()]
    assert sorted(nonzero) == [(1, 1), (1, 2), (2, 1), (2, 3)]
    assert sum(1 for i in range(1, 4) for j in range(1, 4)
               for k in range(1, 4)
               if not conn.gamma(i, j, k).is_zero()) == 4


def test_criterion_2_curvature_refutes_the_nullity_claim():
    ent, conn, curv = tables("example41")
    t = ent.manifold.symbols
    assert curv.riemann(1, 2, 3) \
        == basis_times(3, 2, parse("-4/x", t))
    km = solve_kappa_mu(curv, ent.structure, ent.structure.compute_h())
    assert km.status == "inconsistent"
    assert km.witness == (1, 2, 3)
    assert km.witness_component == 2


def test_criterion_3_symbolic_family_tables():
    ent, conn, curv = tables("kmu")
    t = ent.manifold.symbols
    lam = parse("lambda", t)
    mu = parse("mu", t)
    kappa = 1 - lam ** 2

    def vec(i, e):
        return basis_times(3, i, e)

    # connection table
    assert conn.nabla_basis(1, 2) == vec(3, -mu / 2)
    assert conn.nabla_basis(2, 1) == vec(3, -(1 + lam))
    assert conn.nabla_basis(1, 3) == vec(2, mu / 2)
    assert conn.nabla_basis(3, 1) == vec(2, 1 - lam)
    assert conn.nabla_basis(2, 3) == vec(1, 1 + lam)
    assert conn.nabla_basis(3, 2) == vec(1, lam - 1)
    for i in (1, 2, 3):
        assert conn.nabla_basis(i, i).is_zero()

    # curvature table
    assert curv.riemann(2, 3, 2) == vec(3, kappa + mu)
    assert curv.riemann(2, 3, 3) == vec(2, -(kappa + mu))
    for (i, j, k) in ((1, 2, 3), (1, 3, 2), (2, 3, 1)):
        assert curv.riemann(i, j, k).is_zero()
    b = VectorField.basis
    assert curv.riemann_apply(b(3, 2), b(3, 1), b(3, 1)) \
        == vec(2, kappa + mu * lam)
    assert curv.riemann_apply(b(3, 3), b(3, 1), b(3, 1)) \
        == vec(3, kappa - mu * lam)

    # bracket-coefficient identity for the xi-transverse plane section
    c2 = 1 - lam - mu / 2
    c3 = 1 + lam - mu / 2
    assert ((12 - 4 * (c2 + c3) - (c2 - c3) ** 2) / 4
            - (kappa + mu)).is_zero()

    # covariant curvature derivative displays
    for k in (1, 2, 3):
        assert curv.nabla_r(1, 2, 3, k).is_zero()
    im2 = 2 * (1 + lam) ** 2 * (1 - lam + mu / 2)
    im3 = 2 * (lam - 1) ** 2 * (1 + lam + mu / 2)
    assert curv.nabla_r(2, 2, 3, 2) == vec(1, im2)
    assert curv.nabla_r(3, 2, 3, 3) == vec(1, im3)
    # the remaining display: the whole coefficient lands in the e2 slot,
    # since the e3 coefficient equals the (vanishing) e1 pairing of
    # (nabla_{e2}R)(e2,e3)e3 up to sign by second-pair antisymmetry
    sym = -(1 + lam) * ((kappa + mu * lam) + (kappa + mu))
    assert curv.nabla_r(2, 2, 3, 1) == vec(2, sym)

    # nullity solver recovers the family parameters exactly
    km = solve_kappa_mu(curv, ent.structure, ent.structure.compute_h())
    assert km.status == "consistent"
    assert km.kappa == kappa
    assert km.mu == mu


@pytest.mark.xfail(strict=True,
                   reason="the split form of the remaining derivative "
                          "display puts a (kappa+mu) coefficient in the e3 "
                          "slot; that contradicts second-pair antisymmetry "
                          "combined with the vanishing companion display, "
                          "and the engine computes the single-slot value "
                          "asserted in the criterion 3 test")
def test_criterion_3_split_display_variant():
    ent, conn, curv = tables("kmu")
    t = ent.manifold.symbols
    lam = parse("lambda", t)
    mu = parse("mu", t)
    kappa = 1 - lam ** 2
    split = (basis_times(3, 2, -(1 + lam) * (kappa + mu * lam))
             + basis_times(3, 3, -(1 + lam) * (kappa + mu)))
    assert curv.nabla_r(2, 2, 3, 1) == split


GRID = [(Fraction(num), Fraction(m))
        for num in ("1/4", "1/2", "1", "3/2") for m in ("-1", "0", "1", "2")]


@functools.lru_cache(maxsize=None)
def grid_reports():
    ent = build("kmu")
    out = {}
    for lam, mu in GRID:
        sub = ent.substitute({"lambda": lam, "mu": mu})
        curv = riemann(sub.manifold, koszul(sub.manifold))
        out[(lam, mu)] = classify_structure(curv, sub.structure)
    return out


def test_criterion_4_recurrence_matches_flatness_on_the_grid():
    reports = grid_reports()
    assert len(reports) == 16
    for (lam, mu), rep in reports.items():
        flat = rep.flat
        recurrent = rep.phi_recurrent.status in ("recurrent",
                                                 "trivially_recurrent")
        assert flat == recurrent, (lam, mu)
        assert flat == ((lam, mu) == (1, 0)), (lam, mu)


def test_criterion_5_symmetry_ladder_on_the_grid():
    for (lam, mu), rep in grid_reports().items():
        flat = rep.flat
        assert rep.locally_symmetric.ok == flat, (lam, mu)
        assert rep.phi_symmetric.ok == flat, (lam, mu)
        assert rep.locally_phi_symmetric.ok is True, (lam, mu)


def test_criterion_6_cyclic_bracket_entry():
    ent, conn, curv = tables("sphere")
    rep = classify_structure(curv, ent.structure)
    assert rep.sasakian.ok is True
    assert rep.constant_curvature == Expr.one()
    assert all(r.is_zero() for r in ent.structure.compute_h())
    # S(X, xi) = 2 eta(X)
    m = ent.manifold
    eta = ent.structure.eta
    for i in range(3):
        got = Expr.zero()
        for k in range(3):
            got = got + curv.ricci[i][k] * ent.structure.xi.components[k]
        assert got == 2 * eta.components[i]
    for scope in (SCOPE_GLOBAL, SCOPE_LOCAL):
        verdict = solve_phi_recurrence(curv, ent.structure, scope)
        assert verdict.status == "not_recurrent"
        assert verdict.obstruction == "only A=0"
        assert verdict.A is None


def test_criterion_7_identity_suite_every_entry():
    for name in entry_ids():
        ent, conn, curv = tables(name)
        m = ent.manifold
        assert torsion_residuals(conn) == [], name
        assert metric_compat_residuals(conn) == [], name
        assert riemann_symmetry_residuals(curv) == [], name
        assert first_bianchi_residuals(curv) == [], name
        assert second_bianchi_residuals(curv) == [], name
        if m.dim == 3:
            assert check_3d_decomposition(curv) is True, name
        if ent.structure is None:
            continue
        st = ent.structure
        h = st.compute_h()
        # h invariants
        assert VectorField.combination(st.xi, h).is_zero(), name
        trace = Expr.zero()
        for i in range(3):
            trace = trace + h[i].components[i]
        assert trace.is_zero(), name
        for i in range(1, 4):
            ei = m.basis(i)
            anti = (VectorField.combination(st.apply_phi(ei), h)
                    + st.apply_phi(VectorField.combination(ei, h)))
            assert anti.is_zero(), (name, i)
        # h^2 = (kappa - 1) phi^2 when the nullity condition is solvable
        km = solve_kappa_mu(curv, st, h)
        if km.status in ("consistent", "underdetermined") \
                and km.kappa is not None:
            for i in range(1, 4):
                ei = m.basis(i)
                lhs = VectorField.combination(
                    VectorField.combination(ei, h), h)
                rhs = st.apply_phi(st.apply_phi(ei)).scale(km.kappa - 1)
                assert lhs == rhs, (name, i)
        # nabla_X xi = -phi X - phi h X and
        # (nabla_X eta)(Y) = g(X + hX, phi Y)
        der = nabla_structure_tensors(conn, st)
        for i in range(1, 4):
            ei = m.basis(i)
            assert der.nabla_xi[i - 1] \
                == -(st.apply_phi(ei)
                     + st.apply_phi(VectorField.combination(ei, h))), (name, i)
            for j in range(1, 4):
                want = m.g(ei + VectorField.combination(ei, h),
                           st.apply_phi(m.basis(j)))
                assert der.nabla_eta[i - 1][j - 1] == want, (name, i, j)


def numeric_residuals(name, bindings):
    """Evaluate the engine tables at a binding, then form the identity
    sums numerically.  Catches a wrong table even if canonical
    simplification were to hide it symbolically."""
    ent, conn, curv = tables(name)
    m = ent.manifold
    dim = m.dim

    def vec(v):
        return [c.eval(bindings) for c in v.components]

    def add(a, b):
        return [x + y for x, y in zip(a, b)]

    out = []
    nb = {(i, j): vec(conn.nabla_basis(i, j))
          for i in range(1, dim + 1) for j in range(1, dim + 1)}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            # torsion: nabla_i e_j - nabla_j e_i - [e_i, e_j]
            br = vec(m.bracket_basis(i, j))
            out.extend(x - y - z
                       for x, y, z in zip(nb[(i, j)], nb[(j, i)], br))
            for k in range(j + 1, dim + 1):
                cyc = add(add(vec(curv.riemann(i, j, k)),
                              vec(curv.riemann(j, k, i))),
                          vec(curv.riemann(k, i, j)))
                out.extend(cyc)
            for w in range(1, dim + 1):
                for k in range(1, dim + 1):
                    cyc = add(add(vec(curv.nabla_r(w, i, j, k)),
                                  vec(curv.nabla_r(i, j, w, k))),
                              vec(curv.nabla_r(j, w, i, k)))
                    out.extend(cyc)
    # Ricci symmetry
    for i in range(dim):
        for j in range(i + 1, dim):
            out.append(curv.ricci[i][j].eval(bindings)
                       - curv.ricci[j][i].eval(bindings))
    if ent.structure is not None:
        st = ent.structure
        h = st.compute_h()
        der = nabla_structure_tensors(conn, st)
        for i in range(1, dim + 1):
            ei = m.basis(i)
            phi_term = vec(st.apply_phi(ei)
                           + st.apply_phi(VectorField.combination(ei, h)))
            out.extend(add(vec(der.nabla_xi[i - 1]), phi_term))
            for j in range(1, dim + 1):
                want = m.g(ei + VectorField.combination(ei, h),
                           st.apply_phi(m.basis(j)))
                out.append(der.nabla_eta[i - 1][j - 1].eval(bindings)
                           - want.eval(bindings))
    return out


def test_criterion_8_symbolic_zeros_survive_random_evaluation():
    rng = random.Random(3307)
    for name in entry_ids():
        ent = build(name)
        names = [s.name for s in ent.manifold.symbols]
        done = 0
        while done < 50:
            bindings = {n: Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                        for n in names}
            try:
                values = numeric_residuals(name, bindings)
            except PoleError:
                continue
            assert all(v == 0 for v in values), (name, bindings)
            done += 1


def test_criterion_9_cli_round_trip_is_byte_identical(tmp_path, capsys):
    for name in entry_ids():
        first = tmp_path / f"{name}.json"
        assert cli.main(["export", name, "-o", str(first)]) == 0
        assert first.read_text() \
            == manifest_to_json(export_entry(build(name)))
        assert cli.main(["report", str(first), "--format", "json"]) == 0
        out1 = capsys.readouterr().out
        second = tmp_path / f"{name}-again.json"
        second.write_text(manifest_to_json(json.loads(out1)["manifest"]))
        assert cli.main(["report", str(second), "--format", "json"]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2, name

"""Differential test of the rational-function layer against sympy.

Every operation on canonical Exprs must agree with ``sympy.cancel`` and
return a canonical result: coprime numerator and denominator, denominator
monic.  `Poly.bind` is checked against term-by-term evaluation, binding at
once against binding in two steps, and `Poly` results against the
normalising constructor.  sympy and hypothesis are test-only; the package
does not need them.
"""

import itertools
import math
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from contact_tensor.expr import (KIND_COORDINATE, KIND_PARAMETER, Expr, Poly,
                                 PoleError, SymbolTable, parse, poly_gcd,
                                 sum_of_products)
from contact_tensor.frame import VectorField

NAMES = ("x", "y", "a")
SETTINGS = hypothesis.settings(max_examples=40, deadline=None,
                               derandomize=True, database=None)

# a polynomial is a dict from exponents of (x, y, a) to a nonzero integer
_EXPONENTS = st.tuples(st.integers(0, 2), st.integers(0, 2),
                       st.integers(0, 1))
_COEFFS = st.integers(-3, 3).filter(bool)
polys = st.dictionaries(_EXPONENTS, _COEFFS, max_size=3)
nonzero_polys = st.dictionaries(_EXPONENTS, _COEFFS, min_size=1, max_size=3)


def table():
    t = SymbolTable()
    t.add("x", KIND_COORDINATE)
    t.add("y", KIND_COORDINATE)
    t.add("a", KIND_PARAMETER)
    return t


def text(poly: dict) -> str:
    terms = [f"({c})" + "".join(f"*{n}^{e}" for n, e in zip(NAMES, exps))
             for exps, c in sorted(poly.items())]
    return "+".join(terms) or "0"


def to_sympy(p: Poly):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[sympy.Symbol(n) ** e for n, e in m])
        for m, c in p.terms.items()])


@st.composite
def operands(draw):
    """Two fractions whose denominators are 1, equal, one a multiple of the
    other, p*q and p*r with a common factor p, or drawn independently;
    numerators may be zero."""
    n1, n2 = text(draw(polys)), text(draw(polys))
    shape = draw(st.sampled_from(("one", "equal", "shared", "common",
                                  "independent")))
    d1 = "1" if shape == "one" else text(draw(nonzero_polys))
    if shape in ("one", "equal"):
        d2 = d1
    elif shape == "shared":
        d2 = f"({d1})*({text(draw(nonzero_polys))})"
    elif shape == "common":
        p = d1
        d1 = f"({p})*({text(draw(nonzero_polys))})"
        d2 = f"({p})*({text(draw(nonzero_polys))})"
    else:
        d2 = text(draw(nonzero_polys))
    return f"({n1})/({d1})", f"({n2})/({d2})"


def assert_matches(e, expected):
    """e is canonical and denotes the same rational function as expected."""
    num, den = to_sympy(e.num), to_sympy(e.den)
    want_num, want_den = sympy.fraction(sympy.cancel(expected))
    assert sympy.expand(num * want_den - den * want_num) == 0
    assert poly_gcd(e.num, e.den)[0].is_constant()
    assert sympy.gcd(num, den).is_number
    assert e.den.leading()[1] == 1
    if e.is_zero():
        assert e.den is Expr.one().den


def sym(s: str):
    return sympy.sympify(s.replace("^", "**"))


@SETTINGS
@hypothesis.given(operands())
def test_arithmetic_matches_sympy_cancel(pair):
    t = table()
    lhs, rhs = (parse(s, t) for s in pair)
    slhs, srhs = (sym(s) for s in pair)
    assert_matches(lhs + rhs, slhs + srhs)
    assert_matches(lhs - rhs, slhs - srhs)
    assert_matches(lhs * rhs, slhs * srhs)
    if not rhs.is_zero():
        assert_matches(lhs / rhs, slhs / srhs)


@SETTINGS
@hypothesis.given(operands(), st.integers(-3, 3))
def test_powers_match_sympy_cancel(pair, k):
    base = parse(pair[0], table())
    if k < 0 and base.is_zero():
        return
    assert_matches(base ** k, sym(pair[0]) ** k)


def xy_polys(x_max=2, y_max=2, min_size=1):
    # polynomials in the two coordinates x and y only: with the parameter a
    # as a third variable, a cube of a three-term factor can keep the
    # multivariate poly_gcd busy for minutes (ROADMAP item 2)
    exps = st.tuples(st.integers(0, x_max), st.integers(0, y_max),
                     st.just(0))
    return st.dictionaries(exps, _COEFFS, min_size=min_size, max_size=3)


@st.composite
def fractions_to_differentiate(draw):
    """n/(p^k * f * g) in x and y with a factor p repeated k times (k in
    1..3), f free of x and g free of y, so each derivative sees a factor
    that is constant in its variable."""
    n, p = text(draw(xy_polys(min_size=0))), text(draw(xy_polys()))
    k = draw(st.integers(1, 3))
    f, g = text(draw(xy_polys(x_max=0))), text(draw(xy_polys(y_max=0)))
    return f"({n})/(({p})^{k}*({f})*({g}))"


@SETTINGS
@hypothesis.given(fractions_to_differentiate())
# d/dx = 1/(x+1)^2 only when the factor y of the denominator cancels
@hypothesis.example("((x+1)+y*x)/(y*(x+1))")
def test_derivatives_match_sympy_diff(s):
    t = table()
    e = parse(s, t)
    for name in ("x", "y"):
        assert_matches(e.diff(t.get(name)), sympy.diff(sym(s), name))
    assert e.diff(t.get("a")).is_zero()


_SHARED_DENS = ("1", "p", "p^2", "p*q")


@st.composite
def product_lists(draw):
    """2-6 (c, a) pairs of fractions over the denominators 1, p, p^2 and
    p*q, with p and q in x alone or in x and y; a coefficient may be 1,
    and about half the lists sum to zero."""
    univariate = draw(st.booleans())

    def den():
        return text({(ex, 0 if univariate else ey, 0): c
                     for (ex, ey, _), c in draw(nonzero_polys).items()})

    p, q = den(), den()
    shapes = {"1": "1", "p": f"({p})", "p^2": f"({p})^2",
              "p*q": f"({p})*({q})"}

    def fraction():
        den = shapes[draw(st.sampled_from(_SHARED_DENS))]
        return f"({text(draw(polys))})/{den}"

    if not draw(st.booleans()):
        return [("1" if draw(st.booleans()) else fraction(), fraction())
                for _ in range(draw(st.integers(2, 6)))]
    # a list that sums to zero: 1-3 products and minus their sum, whose
    # denominator is the lcm of theirs
    pairs = [("1" if draw(st.booleans()) else fraction(), fraction())
             for _ in range(draw(st.integers(1, 3)))]
    return pairs + [("-1", "+".join(f"({c})*({a})" for c, a in pairs))]


@SETTINGS
@hypothesis.given(product_lists())
@hypothesis.example([("1", "1/(x+1)"), ("x", "1/(x+1)^2"),
                     ("-1", "(2*x+1)/(x+1)^2")])
@hypothesis.example([("1/(x+y)", "y/(x+1)"), ("x", "1/(x+1)"),
                     ("1", "1/((x+1)*(x+y))")])
def test_accumulate_matches_the_term_by_term_sum(pairs):
    t = table()
    exprs = [(parse(c, t), parse(a, t)) for c, a in pairs]
    out = VectorField.accumulate(
        3, [(c, VectorField.make((a, 0, 0))) for c, a in exprs])
    want = Expr.zero()
    for c, a in exprs:
        want = want + c * a
    assert (out[1].num, out[1].den) == (want.num, want.den)
    assert out.terms.keys() == ({1} if want else set())
    assert_matches(out[1], sympy.Add(*[sym(c) * sym(a) for c, a in pairs]))


@st.composite
def univariate_gcd_operands(draw):
    """Polynomials in x only with the common factor (x+c)^k, k in 1..4,
    times cofactors of degree up to 3: the dense Euclidean base case."""
    c = draw(st.fractions(-3, 3, max_denominator=3))
    k = draw(st.integers(1, 4))
    cofactors = st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(
        lambda cs: cs[-1] != 0)
    p, q = draw(cofactors), draw(cofactors)
    return tuple(
        f"(x+({c}))^{k}*(" + "+".join(f"({a})*x^{e}" for e, a in
                                      enumerate(cs)) + ")"
        for cs in (p, q))


def assert_gcd_matches(f, g):
    h, f1, g1 = poly_gcd(f, g)
    assert h * f1 == f and h * g1 == g      # the cofactors are exact
    got = to_sympy(h)
    sf, sg = to_sympy(f), to_sympy(g)
    for multiple in (sf, sg):
        assert sympy.fraction(sympy.cancel(multiple / got))[1].is_number
    unit = sympy.cancel(got / sympy.gcd(sf, sg))
    assert unit.is_number and unit != 0


@SETTINGS
@hypothesis.given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_poly_gcd_matches_sympy_gcd(common, p, q):
    t = table()
    f = parse(f"({text(common)})*({text(p)})", t).num
    g = parse(f"({text(common)})*({text(q)})", t).num
    assert_gcd_matches(f, g)


@st.composite
def dense_factors(draw):
    """A factor with a nonzero coefficient on every monomial of degree at
    most 1 in each of two or three of x, y and a."""
    names = draw(st.sampled_from((("x", "y"), ("x", "a"), ("y", "a"),
                                  NAMES)))
    return "+".join(
        f"({draw(_COEFFS)})" + "".join(f"*{n}^{e}" for n, e in zip(names, k))
        for k in itertools.product(range(2), repeat=len(names)))


@SETTINGS
@hypothesis.given(dense_factors(), nonzero_polys, nonzero_polys)
def test_poly_gcd_matches_sympy_gcd_on_a_dense_common_factor(common, p, q):
    t = table()
    f = parse(f"({common})*({text(p)})", t).num
    g = parse(f"({common})*({text(q)})", t).num
    assert_gcd_matches(f, g)


@SETTINGS
@hypothesis.given(univariate_gcd_operands())
def test_univariate_poly_gcd_matches_sympy_gcd(pair):
    t = table()
    f, g = (parse(s, t).num for s in pair)
    assert f.variables() == g.variables() == {"x"}
    assert_gcd_matches(f, g)


def x_poly(cs) -> str:
    # the polynomial sum c_e x^e of a coefficient list, as text
    return "+".join(f"({c})*x^{e}" for e, c in enumerate(cs)) or "0"


# nonconstant polynomials in x alone of degree 1 or 2
_X_FACTORS = st.lists(st.integers(-3, 3), min_size=2, max_size=3).filter(
    lambda cs: cs[-1] != 0)


@st.composite
def univariate_denominator_fractions(draw):
    """n/(p^j * q^k) with p and q in x alone, j in 1..3 and k in 0..2, and
    n in x, y and z: the denominators whose derivative takes one gcd."""
    n = draw(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1),
                                       st.integers(0, 1)),
                             _COEFFS, max_size=3))
    n = "+".join(f"({c})*x^{i}*y^{j}*z^{k}" for (i, j, k), c in n.items())
    p, q = x_poly(draw(_X_FACTORS)), x_poly(draw(_X_FACTORS))
    j, k = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    return f"({n or 0})/(({p})^{j}*({q})^{k})"


def xyz_table():
    t = SymbolTable()
    for name in "xyz":
        t.add(name, KIND_COORDINATE)
    return t


@SETTINGS
@hypothesis.given(univariate_denominator_fractions())
@hypothesis.example("(x*y+z)/((x+1)^2*(x^2+x+3)^3)")
@hypothesis.example("(x^2+3*x+3)/(x^2+2*x+3)")     # d' = 2x+2, g = 1
@hypothesis.example("1/(x+2)")                     # a constant d'
def test_derivative_over_a_univariate_denominator_matches_sympy(s):
    t = xyz_table()
    e = parse(s, t)
    for name in "xyz":
        assert_matches(e.diff(t.get(name)), sympy.diff(sym(s), name))


def test_derivative_over_a_two_variable_denominator_matches_sympy():
    # a denominator in x and y takes (n' - (n/d)*d')/d through the
    # canonical operations, not the one-gcd quotient rule
    t = xyz_table()
    s = "(x*z+y)/((x+y)^2*(x+1))"
    e = parse(s, t)
    assert e.den.variables() == {"x", "y"}
    for name in "xyz":
        assert_matches(e.diff(t.get(name)), sympy.diff(sym(s), name))


_SCALES = st.sampled_from((1, -1, 6, -4, Fraction(2, 3), Fraction(-5, 4)))


@st.composite
def scaled_univariate_gcd_operands(draw):
    """h*p and h*q in x alone, each scaled by a unit from _SCALES, so an
    operand may be non-primitive, lead with a negative coefficient or
    hold Fraction coefficients; h has degree 0..2 with Fraction
    coefficients, so about a third of the pairs are coprime."""
    h = draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=1,
                      max_size=3).filter(lambda cs: cs[-1] != 0))
    p, q = draw(_X_FACTORS), draw(_X_FACTORS)
    t = table()
    return tuple(parse(f"({draw(_SCALES)})*({x_poly(h)})*({x_poly(cs)})",
                       t).num for cs in (p, q))


@SETTINGS
@hypothesis.given(scaled_univariate_gcd_operands())
def test_scaled_univariate_poly_gcd_matches_sympy_gcd(pair):
    f, g = pair
    assert f.variables() == g.variables() == {"x"}
    assert_gcd_matches(f, g)


def certificate(f: Poly, g: Poly) -> tuple[int, int]:
    """xi and gamma = gcd(a(xi), b(xi)) of the coprimality certificate,
    for a and b the primitive integer multiples of f and g in x."""
    def primitive(p):
        cs = {(m[0][1] if m else 0): Fraction(c) for m, c in p.terms.items()}
        den = math.lcm(*(c.denominator for c in cs.values()))
        ints = {e: int(c * den) for e, c in cs.items()}
        k = math.gcd(*ints.values())
        return {e: c // k for e, c in ints.items()}
    a, b = primitive(f), primitive(g)
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    return xi, math.gcd(sum(c * xi ** e for e, c in a.items()),
                        sum(c * xi ** e for e, c in b.items()))


@pytest.mark.parametrize("pair, xi, gamma, gcd", [
    # a coprime pair from the chart workload's x^2+2*x+3 frame on which the
    # certificate declines (2*gamma > xi), so the remainder sequence runs
    (("2*x^4+8*x^3+10*x^2+8*x-6", "x^4+4*x^3+10*x^2+12*x+9"), 12, 9, "1"),
    # the boundary 2*gamma = xi, where the certificate declines as well
    (("-2*x^2-3*x-3", "2*x^2+x"), 6, 3, "1"),
    # one it takes: 2*gamma < xi
    (("x^2+2*x+3", "2*x+2"), 4, 1, "1"),
    # the common root 3 sits at the Cauchy bound 1 + |a| = 4 = xi/2; an xi
    # of |a| + 2 = 5 would give gamma = 2 < 5/2 and a false certificate
    (("(x-3)*(x+1)", "(x-3)*(x+2)"), 8, 5, "x-3"),
])
def test_certificate_on_declined_boundary_and_taken_pairs(pair, xi, gamma,
                                                          gcd):
    t = table()
    f, g = (parse(s, t).num for s in pair)
    assert certificate(f, g) == (xi, gamma)
    h, f1, g1 = poly_gcd(f, g)
    assert h == parse(gcd, t).num
    assert sympy.gcd(to_sympy(f), to_sympy(g)) == to_sympy(h)
    if gcd == "1":
        assert f1 is f and g1 is g
    else:
        assert h * f1 == f and h * g1 == g


_RATIONALS = st.fractions(-5, 5, max_denominator=6)


@st.composite
def polys_with_a_point(draw):
    """A polynomial with rational coefficients in x alone or in x, y and
    a, and a rational point."""
    names = draw(st.sampled_from((("x",), NAMES)))
    exps = st.tuples(*[st.integers(0, 6) for _ in names])
    coeffs = draw(st.dictionaries(exps, _RATIONALS.filter(bool), max_size=5))
    poly = Poly({tuple((n, e) for n, e in zip(names, k) if e): c
                 for k, c in coeffs.items()})
    return poly, {n: draw(_RATIONALS) for n in names}


@SETTINGS
@hypothesis.given(polys_with_a_point())
@hypothesis.example((Poly({(("x", 5),): Fraction(1, 3), (): 2}),
                     {"x": Fraction(-3, 2)}))
def test_poly_bind_matches_term_by_term_evaluation(case):
    poly, point = case
    total = Fraction(0)
    for m, c in poly.terms.items():
        v = Fraction(c)
        for name, e in m:
            v *= point[name] ** e
        total += v
    value = poly.bind(point)
    assert value.is_constant() and value.constant_value() == total


_POINT_VALUES = st.sampled_from((Fraction(0), Fraction(1), Fraction(-1),
                                 Fraction(2), Fraction(1, 2)))


@st.composite
def disjoint_bindings(draw):
    """Two bindings over disjoint sets of the names x, y and a; a name may
    also stay unbound."""
    a, b = {}, {}
    for name in NAMES:
        side = draw(st.sampled_from((a, b, None)))
        if side is not None:
            side[name] = draw(_POINT_VALUES)
    return a, b


@SETTINGS
@hypothesis.given(operands(), disjoint_bindings())
# 0/0 at x = y = 1: binding x alone cancels y-1, binding y alone x-1
@hypothesis.example(("(y-x)/(y-1+(x-1)*a)", "1"),
                    ({"x": Fraction(1)}, {"y": Fraction(1)}))
def test_binding_at_once_equals_binding_in_two_steps(pair, bindings):
    a, b = bindings
    e = parse(pair[0], table())
    for p in (e.num, e.den):
        assert p.bind(a).bind(b) == p.bind(a | b)
    try:
        once = e.bind(a | b)
    except PoleError:
        assert not e.den.bind(a | b)
        return
    assert e.den.bind(a | b) and once == e.bind(a).bind(b)
    point = {sympy.Symbol(n): sympy.Rational(v.numerator, v.denominator)
             for n, v in (a | b).items()}
    assert_matches(once, to_sympy(e.num).subs(point)
                   / to_sympy(e.den).subs(point))


_THIRDS = st.sampled_from((Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3),
                           Fraction(-1, 3), Fraction(2, 3), Fraction(5, 6)))


def poly_of(d: dict) -> Poly:
    # a monomial lists its names in sorted order
    return Poly({tuple(sorted((n, e) for n, e in zip(NAMES, k) if e)): c
                 for k, c in d.items()})


@st.composite
def fraction_poly_pairs(draw):
    """p with Fraction coefficients and q sharing p's monomials with a
    coefficient that makes a sum or difference integral or zero (1/2 + 1/2,
    1/3 - 1/3), plus integer terms of their own."""
    p = draw(st.dictionaries(_EXPONENTS, _THIRDS, min_size=1, max_size=3))
    q = {m: draw(st.sampled_from((c, -c, 1 - c, -1 - c, 2 * c)))
         for m, c in p.items()}
    for extra in (p, q):
        for m, c in draw(polys).items():
            extra.setdefault(m, c)
    return poly_of(p), poly_of(q)


def assert_normalised(p: Poly):
    """No stored zero, no integral Fraction, and equal to a Poly built
    through the normalising constructor."""
    for c in p.terms.values():
        assert c and (type(c) is int or c.denominator != 1), p.terms
    assert p == Poly(dict(p.terms))


@SETTINGS
@hypothesis.given(fraction_poly_pairs(), operands())
@hypothesis.example((Poly({(): Fraction(1, 2), (("x", 1),): Fraction(1, 3)}),
                     Poly({(): Fraction(1, 2), (("x", 1),): Fraction(1, 3)})),
                    ("(x)/(1)", "(x)/(1)"))
def test_results_are_normalised_and_differences_are_direct(polys_pq, pair):
    p, q = polys_pq
    for r in (p + q, p - q, q - p, -p, p * q, p * p,
              p.scale(Fraction(3, 2)), p.scale(2), q.scale(Fraction(-6))):
        assert_normalised(r)
    one = Expr.one().den    # a constant denominator is the shared 1
    a, b = Expr(p, one), Expr(q, one)
    t = table()
    den = parse("x+1", t)
    for products in ([(a, b), (b, -a)], [(a, a), (b, b), (a, -b)],
                     [(a / den, b), (b, -a / den), (a, b)]):
        out = sum_of_products(products)
        assert_normalised(out.num)
        want = Expr.zero()
        for c, e in products:
            want = want + c * e
        assert out == want
    lhs, rhs = (parse(s, t) for s in pair)
    for u, v in ((a, b), (b, a), (lhs, rhs), (rhs, lhs), (a, rhs),
                 (lhs, b), (lhs, lhs)):
        assert u - v == u + (-v)
        assert_normalised((u - v).num)
        fu = VectorField.make((u, v, 0, u, 1))
        fv = VectorField.make((v, v, u, 0, 1))
        assert (fu - fv).terms == (fu + (-fv)).terms


# constants: 0, +-1, ints and Fractions
RATIONALS = st.one_of(st.just(0), st.sampled_from((1, -1)),
                      st.integers(-10**6, 10**6),
                      st.fractions(max_denominator=30))


def lifted(op, u, v, t):
    """op on the constants u and v through the general path: each operand
    carries the non-constant t, which the operation removes."""
    if op == "+":
        return (u + t) + (v - t)
    if op == "-":
        return (u + t) - (v + t)
    if op == "*":
        return (u * t) * (v / t)
    if op == "/":
        return (u * t) / (v * t)
    return -(u + t) + t     # "neg", of u alone


@SETTINGS
@hypothesis.given(RATIONALS, RATIONALS)
def test_constant_arithmetic_equals_the_general_path(p, q):
    one = Expr.one().den
    u, v = Expr.rational(p), Expr.rational(q)
    want = {"+": p + q, "-": p - q, "*": p * q, "neg": -p}
    fast = {"+": u + v, "-": u - v, "*": u * v, "neg": -u}
    if q:
        want["/"], fast["/"] = Fraction(p) / q, u / v
    assert (u == v) is (p == q) and (u == q) is (p == q)
    assert sum_of_products([(u, v), (v, u), (u, -v)]) == p * q
    for t in (parse("x", table()), parse("1/(x+1)", table())):
        for op, r in fast.items():
            g, value = lifted(op, u, v, t), Fraction(want[op])
            assert r == g and g == r and r == value
            assert r.value == g.value == value
            assert r.num.terms == g.num.terms
            assert list(map(type, r.num.terms.values())) \
                == list(map(type, g.num.terms.values()))
            assert r.den is one and g.den is one
            assert hash(r) == hash(g)
            assert str(r) == str(g) == str(value)
            if value.denominator == 1:   # an integral result holds an int
                assert all(type(c) is int for c in r.num.terms.values())
                assert type(r.value) is int

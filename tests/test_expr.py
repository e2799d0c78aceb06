"""Exact rational expression layer: canonical forms, parsing, calculus."""

import itertools
import random
import threading
from fractions import Fraction
from functools import cmp_to_key

import pytest

from _frames import chart_manifest, entry
from contact_tensor.curvature import koszul, riemann
from contact_tensor.expr import (
    Expr,
    ExprError,
    ExprParseError,
    PoleError,
    KIND_COORDINATE,
    KIND_PARAMETER,
    Poly,
    Symbol,
    SymbolTable,
    _P_ONE,
    _mono_key,
    parse,
    poly_gcd,
)


def make_table():
    t = SymbolTable()
    t.add("x", KIND_COORDINATE)
    t.add("y", KIND_COORDINATE)
    t.add("a", KIND_PARAMETER)
    return t


def test_symbol_table_basics():
    t = make_table()
    assert len(t) == 3
    assert "x" in t and "q" not in t
    assert t.get("a").kind == KIND_PARAMETER
    assert [s.name for s in t.coordinates()] == ["x", "y"]
    assert [s.name for s in t.parameters()] == ["a"]
    with pytest.raises(ExprError):
        t.add("x", KIND_PARAMETER)


def test_canonical_strings():
    t = make_table()
    cases = [
        ("0", "0"),
        ("3/4", "3/4"),
        ("2+3*4^2", "50"),
        ("(x^2-1)/(x-1)", "x+1"),
        ("1+x+y+x*y+x^2+y^2", "x^2+x*y+y^2+x+y+1"),
        ("x/(2*y)", "1/2*x/y"),
        ("-(x+1)/(x*y)", "(-x-1)/(x*y)"),
        ("x^-2", "1/x^2"),
        ("(2*x+2)/(4*y-4)", "(1/2*x+1/2)/(y-1)"),
        ("x-x", "0"),
        ("2*a/a", "2"),
    ]
    for text, want in cases:
        assert str(parse(text, t)) == want


def test_fraction_cancellation_is_automatic():
    t = make_table()
    lhs = parse("(x^2-1)/(x^2+3*x+2)", t)
    rhs = parse("(x-1)/(x+2)", t)
    assert lhs == rhs
    assert hash(lhs) == hash(rhs)


def test_henrici_arithmetic_paths():
    t = make_table()

    def p(text):
        return parse(text, t)

    x_over = p("x/(x+1)")
    assert p("0") + x_over is x_over and x_over + 0 is x_over
    assert (p("0") * x_over).is_zero()
    assert x_over * p("(x+1)/x") == p("1")
    assert p("1/(x+1)") + x_over == p("1")
    assert p("2*x/(x^2-1)") + p("2/(x^2-1)") == p("2/(x-1)")
    # g = gcd(b, d) = x: the sum cancels against g and against nothing else
    common = p("1/(x^2+x)") + p("1/(x^2-x)")
    assert common == p("2/(x^2-1)") and common.den == p("x^2-1").num
    assert p("1/(x^2+x)") - p("1/(x^2+2*x)") == p("1/(x^3+3*x^2+2*x)")
    assert p("(x+y)/(2*x*y)") - p("(x+y)/(2*x*y)") is Expr.zero()
    prod = p("(2*x+2)/(3*x)") * p("1/(x+1)")
    assert prod == p("2/3/x") and prod.den == p("x").num
    assert x_over / p("x^2/(2*x+2)") == p("2/x")
    inverse = p("1/(2*x+4)") ** -2
    assert inverse == p("4*x^2+16*x+16")
    power = p("2*x+4") ** -2
    assert power == p("1/(4*x^2+16*x+16)")
    assert power.den == p("x^2+4*x+4").num
    assert str(p("(x+1)/(2*y)") ** -2) == "4*y^2/(x^2+2*x+1)"


def test_powers_build_their_own_canonical_form(monkeypatch):
    # with every Poly product a fresh copy, never an operand, a positive
    # power must still hold the shared denominator 1 and a constant's value
    t = make_table()
    cases = [(parse(text, t), text)
             for text in ("0", "1", "-2", "3/4", "x", "2*x+4", "x*y-a")]
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__",
                        lambda a, b: Poly(dict(mul(a, b).terms)))
    for e, text in cases:
        for k in (1, 2, 3):
            power = e ** k
            assert power.den is _P_ONE, (text, k)
            if e.is_constant():
                assert power.value == e.value ** k, (text, k)
            else:
                assert power.value is None, (text, k)


def _reference_mono_cmp(a, b):
    # graded lex: total degree, then the first name (alphabetically) whose
    # exponents differ decides, the larger exponent winning
    da, db = sum(e for _, e in a), sum(e for _, e in b)
    if da != db:
        return 1 if da > db else -1
    ea, eb = dict(a), dict(b)
    for name in sorted(set(ea) | set(eb)):
        xa, xb = ea.get(name, 0), eb.get(name, 0)
        if xa != xb:
            return 1 if xa > xb else -1
    return 0


def test_mono_key_orders_like_the_graded_lex_comparator():
    # monomials are tuples of (name, exponent) sorted by name
    monos = [tuple((n, e) for n, e in zip("axyz", exps) if e)
             for exps in itertools.product(range(4), repeat=4)]
    assert len(set(monos)) == 256
    want = sorted(monos, key=cmp_to_key(_reference_mono_cmp), reverse=True)
    assert sorted(monos, key=_mono_key) == want
    rng = random.Random(7)
    shuffled = dict.fromkeys(rng.sample(monos, len(monos)), Fraction(1))
    assert [m for m, _ in Poly(shuffled).sorted_terms()] == want
    assert Poly(shuffled).leading()[0] == (("a", 3), ("x", 3), ("y", 3),
                                           ("z", 3))


def monic(p):
    return p.scale(Fraction(1, p.leading()[1]))


@pytest.mark.parametrize("f, g, want", [
    ("(x+1)^3*(x+2)", "(x+1)^2*(x+3)", "(x+1)^2"),
    ("x^2+1", "x^3-x+5", "1"),
    ("(x-2)*(x^2+x+1)", "x^2+x+1", "x^2+x+1"),
    ("x^2+x+1", "(x-2)*(x^2+x+1)", "x^2+x+1"),
    ("(1/2*x+1/3)*(x-1/5)", "(x+2/3)*(3*x+7)", "x+2/3"),
    ("y^2-1", "y^2-2*y+1", "y-1"),
    ("y^2-1", "x*y-x", "y-1"),
    ("a^2-1", "3*a^2+6*a+3", "a+1"),
    ("-3*(x+1)^2*(x-4)", "-6*(x+1)*(x^2+5)", "x+1"),
    ("-2*x^2+x", "-7*x", "x"),
    ("(2/3*x-1/4)*(x+5/7)^2", "(6/5*x+6/7)*(x^2+1/9)", "x+5/7"),
    ("1/2*x^2-1/8", "3/4*x+3/8", "x+1/2"),
    # the remainder sequence on coefficient lists in the first variable (x,
    # or a when a occurs): a content only in the other variables, a gcd
    # free of the main variable, an operand free of it, rational
    # coefficients scaled to integers, and two nonzero remainders
    ("(y+1)*x+(y+1)", "(y+1)*x-(y+1)", "y+1"),
    ("(x*y-1)*(a*x+y)", "(x*y-1)*(a*y+2)", "x*y-1"),
    ("x*y+x", "a*x*y+a*x+y+1", "y+1"),
    ("(1/2*x+2/3*y)*(x-1/3*y)", "(2/3*x*y+1/2)*(3/4*x+y)", "x+4/3*y"),
    ("(x+y)*(x^2+x*y+1)", "(x+y)*(x^2-y)", "x+y"),
], ids=["common-square", "coprime", "divides", "divides-reversed",
        "rational", "y-only", "y-and-xy", "parameter-only",
        "negative-leading", "negative-leading-monomial", "rational-square",
        "rational-halves", "content-only", "constant-in-main-variable",
        "operand-free-of-main-variable", "fraction-coefficients",
        "two-remainders"])
def test_poly_gcd_cases(f, g, want):
    t = make_table()
    f, g = parse(f, t).num, parse(g, t).num
    h, f1, g1 = poly_gcd(f, g)
    assert monic(h) == parse(want, t).num
    assert h * f1 == f and h * g1 == g      # the cofactors are exact
    if len(h.variables()) == 1:   # the univariate gcd comes out monic
        assert h == monic(h)


@pytest.mark.parametrize("f, g, want", [
    ("0", "2*x+2", ("2*x+2", "0", "1")),
    ("x*y-1", "0", ("x*y-1", "1", "0")),
    ("0", "0", ("0", "0", "1")),
    ("2*x*y+a", "2*x*y+a", ("2*x*y+a", "1", "1")),
    ("3/2", "x+1", ("1", "3/2", "x+1")),
    ("x^2-y", "-4", ("1", "x^2-y", "-4")),
    ("x^2+1", "x+y", ("1", "x^2+1", "x+y")),
], ids=["zero-left", "zero-right", "both-zero", "equal", "constant-left",
        "constant-right", "coprime"])
def test_poly_gcd_early_returns(f, g, want):
    # a zero, equal or constant operand returns before the dense form, and
    # a constant gcd returns the operands themselves as the cofactors
    t = make_table()
    f, g = parse(f, t).num, parse(g, t).num
    h, f1, g1 = got = poly_gcd(f, g)
    assert got == tuple(parse(w, t).num for w in want)
    assert h * f1 == f and h * g1 == g
    if want[0] == "1":
        assert f1 is f and g1 is g


def test_poly_gcd_reads_unsorted_monomials_by_name():
    # a Poly built directly may list the names of a monomial out of sorted
    # order; the gcd reads exponents by name, so it answers at once
    f = Poly({(("x", 1), ("y", 2)): -3, (("x", 1), ("y", 1), ("a", 1)): 2,
              (("x", 1), ("a", 1)): -3, (("y", 1),): Fraction(1, 2)})
    g = parse("x+1", make_table()).num
    result = []
    worker = threading.Thread(
        target=lambda: result.append(poly_gcd(f, g)[0]), daemon=True)
    worker.start()
    worker.join(timeout=20)
    assert not worker.is_alive()
    assert len(result) == 1 and result[0].is_constant()


@pytest.mark.parametrize("p", ["x^2+x+3", "2*x+1"])
def test_integral_coefficients_are_ints(p):
    # a coefficient with denominator 1 is an int, any other a Fraction, and
    # a float never appears, through a chart frame's whole pipeline
    assert type(Poly({(): Fraction(6, 3)}).terms[()]) is int
    assert type(Poly({(): Fraction(6, 4)}).terms[()]) is Fraction
    assert type(parse("4/2", make_table()).constant_value()) is Fraction
    assert type(Expr.integer(3).constant_value()) is Fraction
    m = entry(chart_manifest(p)).manifold
    conn = koszul(m)
    curv = riemann(m, conn)
    n = range(1, m.dim + 1)
    fields = [conn.nabla_basis(i, j) for i in n for j in n]
    fields += [curv.riemann(i, j, k) for i in n for j in n for k in n]
    fields += [curv.nabla_r(w, i, j, k)
               for w in n for i in n for j in n for k in n]
    seen = set()
    for v in fields:
        for e in v.terms.values():
            for c in (*e.num.terms.values(), *e.den.terms.values()):
                assert type(c) is int or (type(c) is Fraction
                                          and c.denominator != 1), (e, c)
                seen.add(type(c))
    assert seen == ({int} if p == "x^2+x+3" else {int, Fraction})


def test_parse_errors_carry_positions():
    t = make_table()
    cases = [
        ("x +", "unexpected end of input", 3),
        ("(x", "expected ')'", 2),
        ("x$y", "unexpected character '$'", 1),
        ("q", "unknown symbol 'q'", 0),
        ("1/(x-x)", "division by zero", 1),
        ("1/0", "division by zero", 1),
        ("x^y", "expected an integer exponent", 2),
        ("x^101", "exponent larger than 100", 2),
        ("x^-101", "exponent larger than 100", 3),
    ]
    for text, fragment, pos in cases:
        with pytest.raises(ExprParseError) as info:
            parse(text, t)
        assert fragment in str(info.value)
        assert info.value.position == pos


def test_power_budget_admits_a_nested_power_below_it():
    # ((x+1)^100)^100 and (x+y+z+1)^100 run past the budget (the hostile
    # manifest rows of the CLI tests); this one stays inside it
    e = parse("((x+1)^100)^5", make_table())
    assert len(e.num.terms) == 501
    assert e.eval({"x": Fraction(1)}) == 2 ** 500


def test_product_budget_admits_a_product_below_it():
    # (x+y+z+1)^30*(x+y+z+1)^30 runs past the budget (the large-product
    # row of the CLI tests); this product of a power at the exponent
    # bound stays inside it
    e = parse("(x+1)^100*(x+1)^5", make_table())
    assert len(e.num.terms) == 106
    assert e.eval({"x": Fraction(1)}) == 2 ** 105
    with pytest.raises(ExprParseError) as info:
        parse("(x+y+1)^40/(x+y+1)^40", make_table())   # 861 terms each
    assert info.value.position == 10
    with pytest.raises(ExprParseError) as info:
        # the denominators' term counts multiplied
        parse("(1/(x+y+1)^40)*(1/(x+y+1)^40)", make_table())
    assert info.value.position == 14
    with pytest.raises(ExprParseError) as info:
        # a quotient multiplies one numerator by the other denominator
        parse("(x+y+1)^40/(1/(x+y+2)^40)", make_table())
    assert info.value.position == 10


def test_sum_budget_admits_a_sum_below_it():
    # 1/(a+b+c+1)^30+1/(a+b+c+2)^30 runs past the budget (the large-sum
    # row of the CLI tests); two reciprocals at the exponent bound stay
    # inside it
    e = parse("1/(x+1)^100+1/(x+2)^100", make_table())
    assert len(e.den.terms) == 201
    assert e.eval({"x": Fraction(0)}) == 1 + Fraction(1, 2 ** 100)
    # equal denominators add without cross-multiplying
    t = make_table()
    assert parse("1/(x+y+1)^40-1/(x+y+1)^40", t).is_zero()
    assert len(parse("(x+y+1)^40+(x+y+2)^40", t).num.terms) == 861
    with pytest.raises(ExprParseError) as info:
        parse("1/(x+y+1)^40+1/(x+y+2)^40", t)   # the denominators
    assert info.value.position == 12
    with pytest.raises(ExprParseError) as info:
        parse("(x+y+1)^40-1/(x+y+2)^40", t)     # numerator by denominator
    assert info.value.position == 10


def test_deep_nesting_is_a_parse_error_not_a_recursion_error():
    t = make_table()
    assert parse("-" * 1000 + "x", t) == parse("x", t)
    assert parse("-" * 999 + "x", t) == parse("-x", t)
    assert parse("(" * 100 + "x" + ")" * 100, t) == parse("x", t)
    with pytest.raises(ExprParseError) as info:
        parse("(" * 200 + "x" + ")" * 200, t)
    assert "parentheses nested deeper than 100" in str(info.value)
    assert info.value.position == 100


def test_eval_bindings_and_poles():
    t = make_table()
    e = parse("(x+1)/(y-2)", t)
    assert e.eval({"x": Fraction(1), "y": Fraction(3)}) == Fraction(2)
    # Symbol keys work the same as names
    assert e.eval({t.get("x"): 1, t.get("y"): 4}) == Fraction(1)
    with pytest.raises(PoleError) as info:
        e.eval({"x": 0, "y": 2})
    assert str(info.value) \
        == "denominator of (x+1)/(y-2) vanishes at the binding"
    with pytest.raises(ExprError):
        e.eval({"x": 1})


def test_diff_rules():
    t = make_table()
    x = t.get("x")
    a = t.get("a")
    e = parse("x^2*y+3*x", t)
    assert str(e.diff(x)) == "2*x*y+3"
    quot = parse("x/(x+1)", t)
    assert quot.diff(x) == parse("1/(x^2+2*x+1)", t)
    # 1/y + x/(x+1): right only when the factor y cancels
    fixed = parse("((x+1)+y*x)/(y*(x+1))", t)
    assert fixed.diff(x) == parse("1/(x+1)^2", t)
    assert fixed.diff(t.get("y")) == parse("-1/y^2", t)
    assert parse("(x+1)^2/(x+2)^3", t).diff(x) \
        == parse("(1-x)*(x+1)/(x+2)^4", t)
    # parameters are constants, never differentiation directions
    assert parse("a^2+a*x", t).diff(a).is_zero()
    assert parse("x^3", t).diff(a).is_zero()
    assert parse("a*x", t).diff(x) == parse("a", t)


def test_bind():
    t = make_table()
    one = Fraction(1)
    assert parse("x+y", t).bind({"y": Fraction(2)}) == parse("x+2", t)
    # one pass: the quotient is made canonical once, all bindings applied
    e = parse("(x^2-1)/(x*y+a)", t)
    assert e.bind({"x": Fraction(1, 2), "a": one}) == parse("-3/(2*y+4)", t)
    assert e.bind({"y": one}) == parse("(x^2-1)/(x+a)", t)
    assert e.bind({"q": one}) is e
    assert e.bind({"x": one}).is_zero()
    assert e.bind({"x": Fraction(2), "y": one, "a": one}) == 1
    with pytest.raises(PoleError) as info:
        parse("1/x", t).bind({"x": Fraction(0)})
    assert str(info.value) \
        == "substituting x makes the denominator of 1/x identically zero"
    # a 0/0 point is a pole whatever the order of the bindings: a chain of
    # single substitutions would cancel y-1 or x-1 first and return 2 or
    # -2/a
    e = parse("2*(y-x)/(y-1+(x-1)*a)", t)
    for values in ({"x": one, "y": one}, {"y": one, "x": one}):
        with pytest.raises(PoleError) as info:
            e.bind(values)
        assert str(info.value) == (
            "substituting x, y makes the denominator of "
            "(-2*x+2*y)/(a*x-a+y-1) identically zero")


def test_arithmetic_coercion():
    t = make_table()
    x = parse("x", t)
    assert x + 1 == parse("x+1", t)
    assert 2 * x == parse("2*x", t)
    assert x - Fraction(1, 2) == parse("x-1/2", t)
    assert (1 - x) == -(x - 1)
    assert x / 2 == parse("x/2", t)
    with pytest.raises(ExprError):
        x / Expr.zero()


def test_symbol_rejects_an_unknown_kind_and_an_invalid_name():
    with pytest.raises(ExprError, match="unknown symbol kind"):
        Symbol("x", "constant")
    with pytest.raises(ExprError, match="invalid symbol name"):
        Symbol("x-y", KIND_PARAMETER)


def test_poly_guards():
    t = make_table()
    x, one = parse("x", t).num, parse("1", t).num
    with pytest.raises(ExprError, match="no leading term"):
        Poly({}).leading()
    assert (one == 1) is False       # a Poly equals only a Poly
    with pytest.raises(ExprError, match="negative power"):
        x ** -1


def test_constant_value_and_sum_reject_other_operands():
    t = make_table()
    x = parse("x", t)
    with pytest.raises(ExprError, match="is not a constant"):
        x.constant_value()
    with pytest.raises(TypeError):
        x + object()


def test_symbol_table_get_refuses_an_undeclared_name():
    with pytest.raises(ExprError, match="unknown symbol 'q'"):
        make_table().get("q")


def test_negative_power_of_zero_is_refused():
    with pytest.raises(ExprError, match="negative power of zero"):
        Expr.zero() ** -1
    # the parser reports the power's error at the exponent's position
    with pytest.raises(ExprParseError) as info:
        parse("0^-1", make_table())
    assert str(info.value) == "negative power of zero at position 3"


def test_parse_refuses_a_token_after_a_complete_expression():
    with pytest.raises(ExprParseError) as info:
        parse("x)", make_table())
    assert str(info.value) == "unexpected ')' at position 1"


@pytest.mark.parametrize("op, want", [
    (lambda e, o: e - o, TypeError), (lambda e, o: o - e, TypeError),
    (lambda e, o: e * o, TypeError), (lambda e, o: e / o, TypeError),
    (lambda e, o: o / e, TypeError), (lambda e, o: e ** 1.5, TypeError),
    (lambda e, o: e == o, False),
], ids=["sub", "rsub", "mul", "truediv", "rtruediv", "pow", "eq"])
def test_a_foreign_operand_is_not_an_expression(op, want):
    # each operator returns NotImplemented: Python then raises its own
    # TypeError, or falls back to identity for ==
    e, o = parse("x", make_table()), object()
    if want is TypeError:
        with pytest.raises(TypeError, match="unsupported operand"):
            op(e, o)
    else:
        assert op(e, o) is want


def random_expr(rng, t, depth=3):
    if depth == 0 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.4:
            return Expr.rational(rng.randint(-6, 6), rng.randint(1, 4))
        name = rng.choice(["x", "y", "a"])
        return Expr.symbol(t.get(name))
    op = rng.choice(["+", "-", "*"])
    lhs = random_expr(rng, t, depth - 1)
    rhs = random_expr(rng, t, depth - 1)
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    return lhs * rhs


def random_bindings(rng):
    return {name: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for name in ("x", "y", "a")}


def test_field_axioms_against_numeric_evaluation():
    # symbolic identities must also hold numerically at random points
    rng = random.Random(1202)
    t = make_table()
    for _ in range(60):
        e1 = random_expr(rng, t)
        e2 = random_expr(rng, t)
        e3 = random_expr(rng, t)
        assert (e1 + e2) * e3 == e1 * e3 + e2 * e3
        assert (e1 - e2) + e2 == e1
        assert e1 * e2 == e2 * e1
        combo = (e1 + e2) * e3 - e1 * e2
        b = random_bindings(rng)
        want = (e1.eval(b) + e2.eval(b)) * e3.eval(b) - e1.eval(b) * e2.eval(b)
        assert combo.eval(b) == want


def test_parse_round_trip():
    rng = random.Random(77)
    t = make_table()
    for _ in range(60):
        num = random_expr(rng, t)
        den = random_expr(rng, t)
        if den.is_zero():
            continue
        e = num / den
        assert parse(str(e), t) == e


def test_product_rule_random():
    rng = random.Random(9)
    t = make_table()
    x = t.get("x")
    for _ in range(40):
        f = random_expr(rng, t)
        g = random_expr(rng, t)
        lhs = (f * g).diff(x)
        rhs = f.diff(x) * g + f * g.diff(x)
        assert lhs == rhs


def test_variables_and_constants():
    t = make_table()
    e = parse("(x+a)/(y-1)", t)
    assert e.variables() == frozenset({"x", "a", "y"})
    assert not e.is_constant()
    c = parse("7/3", t)
    assert c.is_constant()
    assert c.constant_value() == Fraction(7, 3)
    assert Expr.integer(0).is_zero()

"""Exact scalar arithmetic for the tensor engine.

Scalars are multivariate rational functions with rational coefficients,
held as ``int`` when integral and as ``Fraction`` otherwise.
Every Expr is held in canonical form: numerator and denominator are coprime
polynomials, the denominator is monic under graded lexicographic order, and
a zero numerator forces denominator 1.  Equality of canonical forms is plain
structural equality, so ``a == b`` decides ``a - b == 0`` exactly.

Instances are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from typing import NamedTuple


KIND_COORDINATE = "coordinate"
KIND_PARAMETER = "parameter"
_KINDS = (KIND_COORDINATE, KIND_PARAMETER)


class ExprError(Exception):
    """Raised for invalid scalar arithmetic (zero division, bad symbols)."""


class ExprParseError(ExprError):
    """Raised when an expression string does not parse; carries the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class PoleError(ExprError):
    """Raised when evaluation or binding hits a vanishing denominator."""


# a NamedTuple class body may not define __new__, so the validation lives
# on a subclass of the functional form
class Symbol(NamedTuple("Symbol", [("name", str), ("kind", str)])):
    __slots__ = ()

    def __new__(cls, name: str, kind: str):
        if kind not in _KINDS:
            raise ExprError(f"unknown symbol kind {kind!r}")
        if not name or not name[0].isalpha() and name[0] != "_":
            raise ExprError(f"invalid symbol name {name!r}")
        if not all(ch.isalnum() or ch == "_" for ch in name):
            raise ExprError(f"invalid symbol name {name!r}")
        return super().__new__(cls, name, kind)


class SymbolTable:
    """Registry of the symbols legal in one manifold's expressions.

    Names are unique; the kind decides differentiation (parameters are
    constant along the manifold, so they differentiate to zero).
    `coordinate_names` is the frozenset of the coordinate names so far.
    """

    def __init__(self):
        self._by_name: dict[str, Symbol] = {}
        self.coordinate_names: frozenset[str] = frozenset()

    def add(self, name: str, kind: str) -> Symbol:
        if name in self._by_name:
            raise ExprError(f"symbol {name!r} already declared")
        sym = Symbol(name, kind)
        self._by_name[name] = sym
        if kind == KIND_COORDINATE:
            self.coordinate_names |= {name}
        return sym

    def get(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise ExprError(f"unknown symbol {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def coordinates(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self if s.kind == KIND_COORDINATE)

    def parameters(self) -> tuple[Symbol, ...]:
        return tuple(s for s in self if s.kind == KIND_PARAMETER)


# ---------------------------------------------------------------------------
# sparse polynomials
#
# A monomial is a tuple of (name, exponent) pairs, sorted by name, with all
# exponents positive.  The empty tuple is the constant monomial.  Term order
# is graded lexicographic: total degree first, then alphabetically earlier
# names take priority and the larger exponent wins.

Mono = tuple

_M_ONE: Mono = ()
_DENOMINATOR = operator.attrgetter("denominator")
_CONSTANT_KEYS = frozenset((_M_ONE,))


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    if len(a) == 1 == len(b):     # no dict and no sort for one variable each
        (na, ea), (nb, eb) = a[0], b[0]
        if na == nb:
            return ((na, ea + eb),)
        return a + b if na < nb else b + a
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _mono_key(m: Mono) -> tuple:
    # (-degree, [(name, -e), ...]): ascending order of this key is graded
    # lex descending; it relies on the names of m being sorted.  A plain
    # loop, because a key runs even for the many one-term polynomials.
    degree, exps = 0, []
    for name, e in m:
        degree += e
        exps.append((name, -e))
    return -degree, exps


# a power that needs more coefficient products than this raises ExprError
# instead of running for minutes on a short input such as ((x+1)^100)^100;
# the parser bounds each product and quotient by the same number
_MAX_POWER_PRODUCTS = 250_000


class Poly:
    """Sparse distributed polynomial over the rationals; an integral
    coefficient is held as ``int``, any other as ``Fraction``."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict[Mono, int | Fraction]):
        self.terms = {m: c if c.__class__ is int or c.denominator != 1
                      else c.numerator
                      for m, c in terms.items() if c}
        self._hash = None

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return self.terms.keys() <= _CONSTANT_KEYS

    def constant_value(self) -> Fraction:
        # valid only when is_constant()
        return Fraction(self.terms.get(_M_ONE, 0))

    def variables(self) -> set[str]:
        return {name for m in self.terms for name, _ in m}

    def leading(self) -> tuple[Mono, int | Fraction]:
        if not self.terms:
            raise ExprError("zero polynomial has no leading term")
        best = min(self.terms, key=_mono_key)
        return best, self.terms[best]

    def scale(self, c: Fraction) -> "Poly":
        out = {m: co * c for m, co in self.terms.items()}
        return _normalised(out, list(out))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:      # on first use: a Poly is never mutated
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return _normalised(out, other.terms)

    def __neg__(self) -> "Poly":
        return _normalised({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] - c if m in out else -c
        return _normalised(out, other.terms)

    def __mul__(self, other: "Poly") -> "Poly":
        # a Poly is never mutated, so it can be shared
        if other.terms == _P_ONE.terms:
            return self
        if self.terms == _P_ONE.terms:
            return other
        out: dict[Mono, int | Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mono_mul(ma, mb)
                v = ca * cb
                if m in out:
                    v += out[m]
                out[m] = v
        return Poly(out)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ExprError("negative power of a polynomial")
        out, products = _P_ONE, 0
        for _ in range(k):
            products += len(out.terms) * len(self.terms)
            if products > _MAX_POWER_PRODUCTS:
                raise ExprError("power needs more than "
                                f"{_MAX_POWER_PRODUCTS} coefficient products")
            out = out * self
        return out

    def diff(self, name: str) -> "Poly":
        out: dict[Mono, int | Fraction] = {}
        for m, c in self.terms.items():
            for k, (n, e) in enumerate(m):
                if n == name:   # sorted names, and no two terms collide
                    rest = m[k + 1:] if e == 1 else ((n, e - 1),) + m[k + 1:]
                    out[m[:k] + rest] = c * e
                    break
        return Poly(out)

    def bind(self, values: dict[str, Fraction]) -> "Poly":
        """Each variable named in `values` replaced by its rational value,
        in one pass; a constant when every variable is bound."""
        out: dict[Mono, int | Fraction] = {}
        for m, c in self.terms.items():
            rest = []
            for name, e in m:
                if name in values:
                    c = c * values[name] ** e
                else:
                    rest.append((name, e))
            rest = tuple(rest)      # a subsequence of m, so still sorted
            out[rest] = out[rest] + c if rest in out else c
        return Poly(out)

    def sorted_terms(self) -> list[tuple[Mono, int | Fraction]]:
        # graded lex, descending; deterministic render order
        return [(m, self.terms[m]) for m in sorted(self.terms, key=_mono_key)]

    def __repr__(self) -> str:
        return f"Poly({_poly_str(self)})"


def _normalised(terms: dict[Mono, int | Fraction], changed=()) -> Poly:
    # Poly(terms) when only the entries at `changed` may need normalising
    for m in changed:
        c = terms[m]
        if not c:
            del terms[m]
        elif c.__class__ is not int and c.denominator == 1:
            terms[m] = c.numerator
    p = object.__new__(Poly)
    p.terms, p._hash = terms, None
    return p


_P_ZERO = Poly({})
_P_ONE = Poly({_M_ONE: 1})


def poly_gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(h, f/h, g/h) for a gcd h of f and g, unique up to a rational unit.

    A zero or equal operand is returned as h, and a constant h returns f
    and g themselves; in one variable, one evaluation may certify that h
    is constant first.  Otherwise f and g are read once into dense lists
    over Z, denominators cleared: indexed by degree in the alphabetically
    first variable, with entries such lists in the next variable, down to
    ints in the last.  The zero is ``[]`` at a list level and ``0`` at the
    last, so an entry's class gives its level.  Each level runs a primitive
    pseudo-remainder sequence (Brown 1971), contents by recursion on the
    same lists; the cofactors come by exact division on them.  h is divided
    by its last integer coefficient, so in one variable it is monic.
    """
    if not f.terms:
        return g, _P_ZERO, _P_ONE
    if not g.terms:
        return f, _P_ONE, _P_ZERO
    if f == g:
        return f, _P_ONE, _P_ONE
    if f.is_constant() or g.is_constant():
        return _P_ONE, f, g
    *outer, last = names = sorted(f.variables() | g.variables())
    if not outer:
        # GCDHEU's evaluation lemma (Char, Geddes & Gonnet, J. Symb. Comp.
        # 7, 1989), with a and b primitive over Z and xi = 2*min(|a|, |b|)
        # + 2 in the max-norm: a common factor h has its roots within xi/2
        # (Cauchy), so |h(xi)| > xi/2 unless h is constant, and h(xi)
        # divides the gcd of a(xi) and b(xi), nonzero as xi is past them
        (ea, a), (eb, b) = _ints(f), _ints(g)
        xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
        if 2 * math.gcd(sum(map(operator.mul, a, [xi ** e for e in ea])),
                        sum(map(operator.mul, b, [xi ** e for e in eb]))) < xi:
            return _P_ONE, f, g

    # entries p and q at one level; an int level is worked inline
    def add(p, q, s):
        # p + s*q for lists p and q, where s is 1 or -1
        if not q:
            return p
        ints = q[-1].__class__ is int
        out = p + [q[-1].__class__()] * (len(q) - len(p))
        for i, y in enumerate(q):
            if y:
                out[i] = out[i] + s * y if ints else add(out[i], y, s)
        while out and not out[-1]:
            out.pop()
        return out

    def mul(p, q):
        if p.__class__ is int:
            return p * q
        if not p or not q:
            return []
        out = [p[-1].__class__()] * (len(p) + len(q) - 1)
        ints = p[-1].__class__ is int
        for i, x in enumerate(p):
            if x:
                for j, y in enumerate(q):
                    if y:
                        out[i + j] = out[i + j] + x * y if ints \
                            else add(out[i + j], mul(x, y), 1)
        return out

    def div(p, q):
        # p/q for lists, where q divides p exactly
        dq, lq, ints = len(q) - 1, q[-1], q[-1].__class__ is int
        r, out = p[:], [None] * (len(p) - dq)
        for k in range(len(p) - 1, dq - 1, -1):
            c = out[k - dq] = r[k] // lq if ints else div(r[k], lq)
            if c:
                for i in range(dq):
                    r[k - dq + i] = r[k - dq + i] - c * q[i] if ints \
                        else add(r[k - dq + i], mul(c, q[i]), -1)
        return out

    def constant(p):
        # the int that p is, or None when p is not constant
        while p.__class__ is list:
            if len(p) != 1:
                return None
            p = p[0]
        return p

    def split(p):
        # the content of a nonzero p (the gcd of its entries) and p over it
        if p[-1].__class__ is int:
            c = math.gcd(*p)
            return c, p if c == 1 else [x // c for x in p]
        c = p[-1]
        for x in p[:-1]:
            if x and constant(c) not in (1, -1):
                c = gcd(c, x)
        return c, p if constant(c) in (1, -1) else [div(x, c) for x in p]

    def gcd(p, q):
        if p.__class__ is int:
            return math.gcd(p, q)
        (cp, a), (cq, b) = split(p), split(q)
        if len(a) < len(b):
            a, b = b, a
        while b:
            a = a[:]    # written in place below, and may be the caller's
            lb, db, ints = b[-1], len(b) - 1, b[-1].__class__ is int
            for k in range(len(a) - 1, db - 1, -1):
                q = a[k]
                # a <- lb*a - q*x^(k-db)*b clears a[k]
                if q and ints:
                    for i in range(k):
                        a[i] *= lb
                    for i in range(db):
                        a[k - db + i] -= q * b[i]
                elif q:
                    for i in range(k):
                        a[i] = mul(a[i], lb)
                    for i in range(db):
                        a[k - db + i] = add(a[k - db + i], mul(q, b[i]), -1)
            del a[db:]
            while a and not a[-1]:
                a.pop()
            a, b = b, split(a)[1] if a else a
        c = gcd(cp, cq)
        return a if constant(c) in (1, -1) else [mul(x, c) for x in a]

    def dense(p):
        # p times the lcm of its denominators, and that lcm
        den = math.lcm(*(c.denominator for c in p.terms.values()))
        out = []
        for m, c in p.terms.items():
            exps, node = dict(m), out
            for name in outer:
                e = exps.get(name, 0)
                node.extend([] for _ in range(e + 1 - len(node)))
                node = node[e]
            e = exps.get(last, 0)
            node.extend([0] * (e + 1 - len(node)))
            node[e] = c if den == 1 else c.numerator * (den // c.denominator)
        return out, den

    def sparse(p, n, d):
        # the Poly of p times n/d
        r = n // d if n % d == 0 else Fraction(n, d)
        out, todo = {}, [(p, 0, ())]
        while todo:
            p, i, mono = todo.pop()
            for e, c in enumerate(p):
                if c:
                    m = mono + ((names[i], e),) if e else mono
                    if c.__class__ is int:
                        out[m] = c * r
                    else:
                        todo.append((c, i + 1, m))
        return _normalised(out) if r.__class__ is int else Poly(out)

    (a, da), (b, db) = dense(f), dense(g)
    h = gcd(a, b)
    if constant(h) is not None:
        return _P_ONE, f, g
    u = h
    while u.__class__ is list:
        u = u[-1]
    return (sparse(h, 1, u), sparse(div(a, h), u, da),
            sparse(div(b, h), u, db))


def _ints(p: Poly) -> tuple[list[int], list[int]]:
    # exponents and coefficients of the primitive integer multiple of a
    # polynomial in one variable
    out = list(p.terms.values())
    den = math.lcm(*map(_DENOMINATOR, out))
    if den != 1:
        out = [c.numerator * (den // c.denominator) for c in out]
    k = math.gcd(*out)
    return ([m[0][1] if m else 0 for m in p.terms],
            out if k == 1 else [c // k for c in out])


# ---------------------------------------------------------------------------
# rational functions


class Expr:
    """Canonical multivariate rational function.

    Construct through the classmethods or `parse`.  Every operation builds
    its canonical result from canonical operands and the constructor only
    stores it, so equal Exprs denote the same rational function.  A
    constant denominator is always the shared polynomial 1, and `value` is
    a constant's rational value (else None), so two constants take one
    coefficient operation in the arithmetic.
    """

    __slots__ = ("num", "den", "value")

    def __init__(self, num: Poly, den: Poly):
        self.num = num
        self.den = den
        self.value = (num.terms.get(_M_ONE, 0) if den is _P_ONE
                      and num.terms.keys() <= _CONSTANT_KEYS else None)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Expr":
        return _E_ZERO

    @staticmethod
    def one() -> "Expr":
        return _E_ONE

    @staticmethod
    def integer(n: int) -> "Expr":
        return _constant(n)

    @staticmethod
    def rational(p, q=1) -> "Expr":
        return _constant(Fraction(p, q) if q != 1 else Fraction(p))

    @staticmethod
    def symbol(sym) -> "Expr":
        name = sym.name if isinstance(sym, Symbol) else str(sym)
        return Expr(Poly({((name, 1),): 1}), _P_ONE)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num.terms

    def is_constant(self) -> bool:
        return self.value is not None

    def constant_value(self) -> Fraction:
        if self.value is None:
            raise ExprError(f"{self} is not a constant")
        return Fraction(self.value)

    def variables(self) -> frozenset[str]:
        return frozenset(self.num.variables() | self.den.variables())

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Expr":
        if other.__class__ is not Expr and (
                other := _coerce(other)) is NotImplemented:
            return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        x, y = self.value, other.value
        if x is not None and y is not None:
            return _constant(x + y)
        a, b, c, d = self.num, self.den, other.num, other.den
        if b is _P_ONE and d is _P_ONE:
            return Expr(a + c, _P_ONE)
        # Henrici: with g = gcd(b, d), b = g*b1 and d = g*d1, the sum
        # a/b + c/d = (a*d1 + c*b1)/(g*b1*d1) is coprime to b1 and d1, so
        # only a factor of g can cancel; b = d is g = b, with no gcd
        g, b1, d1 = (b, _P_ONE, _P_ONE) if b == d else poly_gcd(b, d)
        n = a * d1 + c * b1
        if not n.terms:
            return _E_ZERO
        n, g = _cancel(n, g)
        return Expr(*_monic(n, g * b1 * d1))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        x = self.value
        return Expr(-self.num, self.den) if x is None else _constant(-x)

    def __sub__(self, other) -> "Expr":
        if other.__class__ is not Expr and (
                other := _coerce(other)) is NotImplemented:
            return NotImplemented
        if not other.num.terms:
            return self
        x, y = self.value, other.value
        if x is not None and y is not None:
            return _constant(x - y)
        if self.den is _P_ONE and other.den is _P_ONE:
            return Expr(self.num - other.num, _P_ONE)
        return self + (-other)

    def __rsub__(self, other) -> "Expr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "Expr":
        if other.__class__ is not Expr and (
                other := _coerce(other)) is NotImplemented:
            return NotImplemented
        if not self.num.terms or not other.num.terms:
            return _E_ZERO
        x, y = self.value, other.value
        if x is not None and y is not None:
            return _constant(x * y)
        if self.den is _P_ONE and other.den is _P_ONE:
            return Expr(self.num * other.num, _P_ONE)
        # Henrici: cancelling across canonical operands leaves a coprime product
        a, d = _cancel(self.num, other.den)
        c, b = _cancel(other.num, self.den)
        return Expr(*_monic(a * c, b * d))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Expr":
        if other.__class__ is not Expr and (
                other := _coerce(other)) is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ExprError("division by an identically zero expression")
        v = other.value
        if v is not None:           # what the product below gives
            if self.value is not None:
                return _constant(Fraction(self.value) / v)
            return Expr(self.num.scale(1 / Fraction(v)), self.den)
        return self * Expr(*_monic(other.den, other.num))

    def __rtruediv__(self, other) -> "Expr":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k: int) -> "Expr":
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return _E_ONE
        # powers of coprime polynomials stay coprime
        if k < 0:
            if self.is_zero():
                raise ExprError("negative power of zero")
            return Expr(*_monic(self.den ** -k, self.num ** -k))
        return Expr(*_monic(self.num ** k, self.den ** k))

    def __eq__(self, other) -> bool:
        if other.__class__ is not Expr and (
                other := _coerce(other)) is NotImplemented:
            return NotImplemented
        return self.num.terms == other.num.terms and (
            self.den is other.den or self.den == other.den)

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- calculus -----------------------------------------------------------

    def diff(self, sym: Symbol) -> "Expr":
        """Partial derivative; parameters are constants, so they give 0.

        A d free of x = sym gives n'/d, cancelled.  A d in x alone, with
        g = gcd(d, d') (1 for a constant d'), d = g*d1 and d' = g*e, gives
        (n'*d1 - n*e)/(d*d1), monic as d and g are, in lowest terms: d1 is
        the squarefree part of d, and a prime factor of d1 divides neither
        n (n/d is canonical) nor e (characteristic 0), so not the
        numerator; every factor of g divides d1.  Any other d takes
        (n' - (n/d)*d')/d through the canonical operations, each gcd
        against a factor of d, never d^2.
        """
        name, kind = sym
        if kind != KIND_COORDINATE:
            return _E_ZERO
        n, d = self.num, self.den
        dn, dd = n.diff(name), d.diff(name)
        if not dd.terms:
            return Expr(*_monic(*_cancel(dn, d))) if dn.terms else _E_ZERO
        if d.variables() == {name}:
            _, d1, e = (_P_ONE, d, dd) if dd.is_constant() else poly_gcd(d, dd)
            return Expr(dn * d1 - n * e, d * d1)
        return (Expr(dn, _P_ONE) - self * Expr(dd, _P_ONE)) / Expr(d, _P_ONE)

    def eval(self, bindings: dict) -> Fraction:
        """Evaluate at rational bindings; every variable must be bound."""
        vals: dict[str, Fraction] = {}
        for key, value in bindings.items():
            name = key.name if isinstance(key, Symbol) else str(key)
            vals[name] = Fraction(value)
        missing = sorted(self.variables() - set(vals))
        if missing:
            raise ExprError(f"unbound symbol {missing[0]!r} in eval")
        dv = self.den.bind(vals).constant_value()
        if dv == 0:
            raise PoleError(f"denominator of {self} vanishes at the binding")
        return self.num.bind(vals).constant_value() / dv

    def bind(self, values: dict[str, Fraction]) -> "Expr":
        """Each variable named in `values` replaced by its rational value:
        numerator and denominator are bound together and the quotient is
        made canonical once, so the result does not depend on the order of
        the bindings.  A denominator that binds to zero raises PoleError
        naming the bound symbols it contains."""
        bound = self.variables() & values.keys()
        if not bound:
            return self
        num, den = self.num.bind(values), self.den.bind(values)
        if not den.terms:
            names = ", ".join(sorted(self.den.variables() & bound))
            raise PoleError(f"substituting {names} makes the denominator of "
                            f"{self} identically zero")
        if not num.terms:
            return _E_ZERO
        return Expr(*_monic(*_cancel(num, den)))

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if self.value is not None:
            return str(self.value)
        ns = _poly_str(self.num)
        if self.den is _P_ONE:
            return ns
        if len(self.num.terms) > 1:
            ns = f"({ns})"
        ds = _poly_str(self.den)
        if not _den_bare(self.den):
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"Expr({self})"


def _constant(v) -> Expr:
    # the canonical Expr of the rational v, built directly
    if v.__class__ is not int and v.denominator == 1:
        v = v.numerator
    p, e = object.__new__(Poly), object.__new__(Expr)
    p.terms, p._hash = {_M_ONE: v} if v else {}, None
    e.num, e.den, e.value = p, _P_ONE, v
    return e


def _cancel(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    # num and den with their common factor divided out
    if num.is_constant() or den.is_constant():
        return num, den
    return poly_gcd(num, den)[1:]


def _monic(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    # num/den scaled so that den has leading coefficient 1; a constant den
    # is then the shared _P_ONE
    lc = den.leading()[1]
    if lc != 1:
        inv = Fraction(1, lc)
        num, den = num.scale(inv), den.scale(inv)
    return num, _P_ONE if den.is_constant() else den


def sum_of_products(pairs) -> Expr:
    """sum c * a over (c, a) pairs of Exprs, canonical.  Products of two
    constants are summed as one rational k, built directly when alone.
    Other products over a denominator in at most one variable are summed
    uncancelled, one monomial dict per denominator, and each sum is
    cancelled once; any other product is the canonical `c * a` (see
    `VectorField.accumulate`)."""
    ones: dict[Mono, int | Fraction] = {}
    groups: dict[Poly, dict[Mono, int | Fraction]] = {_P_ONE: ones}
    total, k = _E_ZERO, 0
    for c, a in pairs:
        x, y = c.value, a.value
        if x is not None and y is not None:
            k += x * y
            continue
        b, d = c.den, a.den
        if b is _P_ONE and d is _P_ONE:
            out = ones
        else:
            den = d if b is _P_ONE else b if d is _P_ONE else b * d
            if len(den.variables()) > 1:
                total = total + c * a
                continue
            out = groups.setdefault(den, {})
        for mc, cc in c.num.terms.items():
            for ma, ca in a.num.terms.items():
                m, v = _mono_mul(mc, ma), cc * ca
                out[m] = out[m] + v if m in out else v
    if not ones and len(groups) == 1:
        return total + _constant(k) if total.num.terms else _constant(k)
    ones[_M_ONE] = ones.get(_M_ONE, 0) + k
    for den, out in groups.items():
        num = Poly(out)
        if num.terms:
            total = total + Expr(*_monic(*_cancel(num, den)))
    return total


def _coerce(value) -> "Expr":
    if isinstance(value, (int, Fraction)):
        return _constant(value)
    return NotImplemented


_E_ZERO = Expr(_P_ZERO, _P_ONE)
_E_ONE = Expr(_P_ONE, _P_ONE)


# ---------------------------------------------------------------------------
# rendering

def _poly_str(p: Poly) -> str:
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for m, c in p.sorted_terms():
        mag = -c if c < 0 else c
        factors = []
        if mag != 1 or not m:
            factors.append(str(mag))
        for name, e in m:
            factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"-{body}" if c < 0 else f"+{body}")
    return "".join(parts)


def _den_bare(den: Poly) -> bool:
    # a denominator may be rendered without parentheses only when it is a
    # single monomial in one variable with coefficient 1: "x" or "x^3"
    if len(den.terms) != 1:
        return False
    (m, c), = den.terms.items()
    return c == 1 and len(m) == 1


# ---------------------------------------------------------------------------
# parsing
#
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := '-' factor | power
# power  := atom ('^' ['-'] INT)?
# atom   := INT | NAME | '(' expr ')'

_T_INT, _T_NAME, _T_OP, _T_END = "int", "name", "op", "end"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        # isdecimal, not isdigit: int() rejects digits such as '²'
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append((_T_INT, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((_T_NAME, text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            tokens.append((_T_OP, ch, i))
            i += 1
            continue
        raise ExprParseError(f"unexpected character {ch!r}", i)
    tokens.append((_T_END, "", n))
    return tokens


# deeper parentheses raise ExprParseError instead of exhausting the stack,
# larger exponents instead of multiplying for as many steps
_MAX_NESTING = 100
_MAX_EXPONENT = 100


def _int_literal(text: str, pos: int) -> int:
    try:
        return int(text)
    except ValueError:  # longer than the interpreter's int/str digit limit
        raise ExprParseError("integer literal longer than "
                             f"{sys.get_int_max_str_digits()} digits",
                             pos) from None


class _Parser:
    def __init__(self, tokens, table: SymbolTable):
        self.tokens = tokens
        self.table = table
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.peek()
        if kind != _T_OP or text != op:
            raise ExprParseError(f"expected {op!r}", pos)
        return self.take()

    @staticmethod
    def budget(what: str, e: Expr, rhs: Expr, pos: int) -> None:
        # a/b op c/d multiplies out at most the pairs of {a, b} x {c, d}:
        # a*c and b*d for *, a*d and b*c for /, a*d, c*b and b*d for + -
        if ((len(e.num.terms) + len(e.den.terms))
                * (len(rhs.num.terms) + len(rhs.den.terms))
                > _MAX_POWER_PRODUCTS):
            raise ExprParseError(f"{what} needs more than "
                                 f"{_MAX_POWER_PRODUCTS} coefficient products",
                                 pos)

    def parse(self) -> Expr:
        e = self.sum()
        kind, text, pos = self.peek()
        if kind != _T_END:
            raise ExprParseError(f"unexpected {text!r}", pos)
        return e

    def sum(self) -> Expr:
        e = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == _T_OP and text in "+-":
                self.take()
                rhs = self.term()
                if e.den != rhs.den:   # one shared denominator just adds
                    self.budget("sum", e, rhs, pos)
                e = e + rhs if text == "+" else e - rhs
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == _T_OP and text in "*/":
                self.take()
                rhs = self.factor()
                self.budget("product", e, rhs, pos)
                if text == "*":
                    e = e * rhs
                else:
                    if rhs.is_zero():
                        raise ExprParseError("division by zero", pos)
                    e = e / rhs
            else:
                return e

    def factor(self) -> Expr:
        negate = False
        while self.peek()[:2] == (_T_OP, "-"):
            self.take()
            negate = not negate
        e = self.power()
        return -e if negate else e

    def power(self) -> Expr:
        e = self.atom()
        kind, text, pos = self.peek()
        if kind == _T_OP and text == "^":
            self.take()
            sign = 1
            kind, text, pos = self.peek()
            if kind == _T_OP and text == "-":
                self.take()
                sign = -1
            kind, text, pos = self.peek()
            if kind != _T_INT:
                raise ExprParseError("expected an integer exponent", pos)
            self.take()
            k = sign * _int_literal(text, pos)
            if abs(k) > _MAX_EXPONENT:
                raise ExprParseError("exponent larger than "
                                     f"{_MAX_EXPONENT}", pos)
            try:
                e = e ** k
            except ExprError as exc:  # 0^-k, or past _MAX_POWER_PRODUCTS
                raise ExprParseError(str(exc), pos) from None
        return e

    def atom(self) -> Expr:
        kind, text, pos = self.take()
        if kind == _T_INT:
            return Expr.integer(_int_literal(text, pos))
        if kind == _T_NAME:
            if text not in self.table:
                raise ExprParseError(f"unknown symbol {text!r}", pos)
            return Expr.symbol(self.table.get(text))
        if kind == _T_OP and text == "(":
            if self.depth == _MAX_NESTING:
                raise ExprParseError("parentheses nested deeper than "
                                     f"{_MAX_NESTING}", pos)
            self.depth += 1
            e = self.sum()
            self.expect_op(")")
            self.depth -= 1
            return e
        raise ExprParseError(
            f"unexpected {text!r}" if text else "unexpected end of input", pos)


def parse(text: str, table: SymbolTable) -> Expr:
    """Parse an expression string against a symbol table.

    Grammar: integers, rationals via division, declared symbols, + - * /,
    ^ with integer exponents, parentheses.  Errors carry the offset of the
    offending token.  A bare integer such as "0" or "1" skips the parser.
    """
    if text.isdecimal():
        return Expr.integer(_int_literal(text, 0))
    return _Parser(_tokenize(text), table).parse()


__all__ = [
    "KIND_COORDINATE",
    "KIND_PARAMETER",
    "Expr",
    "ExprError",
    "ExprParseError",
    "PoleError",
    "Symbol",
    "SymbolTable",
    "parse",
]

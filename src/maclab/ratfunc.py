"""Exact arithmetic in Q(q, v) with v = t^(1/2).

Every scalar in the library is a reduced fraction of integer polynomials
in the two variables q and v.  Working with v instead of t keeps the
half-integer powers of t that show up in the operator formulas exact.

Canonical form of a fraction num/den:
  * gcd(num, den) = 1 over the integers (this also forces the joint
    integer content of the pair to be 1),
  * the leading coefficient of den is positive, where leading term is
    taken in lex order with q > v.

Polynomials are sympy sparse ring elements over ZZ; sympy supplies the
bivariate gcd and its cofactors, everything else is done here.

>>> t = RatFunc.t_power(2)
>>> (t / RatFunc.t_power(1)) == RatFunc.t_power(1)
True
>>> one_minus(RatFunc.t_power(1)) / one_minus(RatFunc.t_power(1))
RatFunc('1')
"""

from __future__ import annotations

from fractions import Fraction

from sympy import ZZ
from sympy.polys.rings import ring

from .errors import (
    DivisionByZeroError,
    EvaluationError,
    ZeroDenominatorError,
)

# The shared coefficient ring Z[q, v], lex order with q > v.
RING, QGEN, VGEN = ring("q,v", ZZ)

_ZERO = RING.zero
_ONE = RING.one

# IntPoly2 is a sympy PolyElement of RING; the alias documents intent.
IntPoly2 = type(_ONE)


def poly_from_terms(terms):
    """Build an IntPoly2 from {(q_exp, v_exp): int} or an iterable of pairs."""
    if isinstance(terms, dict):
        terms = terms.items()
    p = RING.zero
    for (eq, ev), c in terms:
        if eq < 0 or ev < 0:
            raise ValueError("IntPoly2 exponents must be nonnegative")
        if c:
            p += RING.term_new((eq, ev), ZZ(c))
    return p


def poly_terms(p):
    """Terms of an IntPoly2 as ((q_exp, v_exp), int) in lex-descending order."""
    return [((m[0], m[1]), int(c)) for m, c in p.terms()]


def _eval_poly(p, q0: Fraction, v0: Fraction) -> Fraction:
    total = Fraction(0)
    for (eq, ev), c in p.terms():
        total += int(c) * q0**eq * v0**ev
    return total


class RatFunc:
    """An element of Q(q, v), kept in canonical reduced form."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = _ONE
        if _canonical:
            self.num = num
            self.den = den
            return
        if not den:
            raise ZeroDenominatorError("denominator is zero")
        if not num:
            self.num = _ZERO
            self.den = _ONE
            return
        _, num, den = num.cofactors(den)
        if den.LC < 0:
            num = -num
            den = -den
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_int(k) -> "RatFunc":
        return RatFunc(RING.ground_new(k), _ONE, _canonical=True)

    @staticmethod
    def q_power(k: int) -> "RatFunc":
        if k >= 0:
            return RatFunc(QGEN**k, _ONE, _canonical=True)
        return RatFunc(_ONE, QGEN ** (-k), _canonical=True)

    @staticmethod
    def v_power(k: int) -> "RatFunc":
        if k >= 0:
            return RatFunc(VGEN**k, _ONE, _canonical=True)
        return RatFunc(_ONE, VGEN ** (-k), _canonical=True)

    @staticmethod
    def t_power(k: int) -> "RatFunc":
        """t^k as an element of Q(q, v), i.e. v^(2k)."""
        return RatFunc.v_power(2 * k)

    @staticmethod
    def qt_monomial(qexp: int, texp: int, coef: int = 1) -> "RatFunc":
        """coef * q^qexp * t^texp with integer exponents of either sign."""
        r = RatFunc.q_power(qexp) * RatFunc.v_power(2 * texp)
        if coef != 1:
            r = r * RatFunc.from_int(coef)
        return r

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == _ONE and self.den == _ONE

    def has_even_v(self) -> bool:
        """True when every v-exponent in num and den is even (so the
        value lies in Q(q, t))."""
        return all(m[1] % 2 == 0 for m in self.num.monoms()) and all(
            m[1] % 2 == 0 for m in self.den.monoms()
        )

    def is_v_monomial(self) -> bool:
        return self.den == _ONE and len(self.num) == 1

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        a, b = self.num, self.den
        c, d = other.num, other.den
        if not a:
            return other
        if not c:
            return self
        if b == d:
            num = a + c
            if not num:
                return _RF_ZERO
            if b == _ONE:
                return RatFunc(num, _ONE, _canonical=True)
            _, num, b = num.cofactors(b)
            return RatFunc(num, b, _canonical=True)
        if b == _ONE:
            return RatFunc(a * d + c, d, _canonical=True)
        if d == _ONE:
            return RatFunc(a + c * b, b, _canonical=True)
        g, b1, d1 = b.cofactors(d)
        if g == _ONE:
            return RatFunc(a * d + c * b, b * d, _canonical=True)
        num = a * d1 + c * b1
        if not num:
            return _RF_ZERO
        _, num, g = num.cofactors(g)
        return RatFunc(num, (b1 * d1) * g, _canonical=True)

    def __neg__(self):
        return RatFunc(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.num, self.den
        c, d = other.num, other.den
        if not a or not c:
            return _RF_ZERO
        if d != _ONE:
            _, a, d = a.cofactors(d)
        if b != _ONE:
            _, c, b = c.cofactors(b)
        return RatFunc(a * c, b * d, _canonical=True)

    def inverse(self) -> "RatFunc":
        if not self.num:
            raise DivisionByZeroError("inverse of zero")
        num, den = self.den, self.num
        if den.LC < 0:
            num, den = -num, -den
        return RatFunc(num, den, _canonical=True)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k: int):
        if k == 0:
            return _RF_ONE
        base = self if k > 0 else self.inverse()
        out = base
        for _ in range(abs(k) - 1):
            out = out * base
        return out

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation -----------------------------------------------------

    def eval(self, q0, v0) -> Fraction:
        """Exact evaluation at rational q0, v0; raises at poles."""
        q0 = Fraction(q0)
        v0 = Fraction(v0)
        dval = _eval_poly(self.den, q0, v0)
        if dval == 0:
            raise EvaluationError(f"pole at q={q0}, v={v0}")
        return _eval_poly(self.num, q0, v0) / dval

    # -- presentation ---------------------------------------------------

    def to_json_obj(self):
        def side(p):
            return [
                {"q": eq, "v": ev, "c": str(c)} for (eq, ev), c in poly_terms(p)
            ]

        return {"num": side(self.num), "den": side(self.den)}

    def _poly_t_str(self, p, latex: bool) -> str:
        sep = " " if latex else "*"

        def power(name, e):
            if e == 1:
                return name
            return f"{name}^{{{e}}}" if latex else f"{name}^{e}"

        parts = []
        for (eq, ev), c in poly_terms(p):
            factors = []
            if eq:
                factors.append(power("q", eq))
            if ev:
                factors.append(power("t", ev // 2))
            if abs(c) != 1 or not factors:
                factors.insert(0, str(abs(c)))
            mono = sep.join(factors)
            if not parts:
                parts.append(("-" if c < 0 else "") + mono)
            else:
                parts.append(("- " if c < 0 else "+ ") + mono)
        return " ".join(parts) if parts else "0"

    def to_t_string(self, latex: bool = False) -> str:
        """Render in the variables q, t.  Requires even v-exponents."""
        if not self.has_even_v():
            raise ValueError("odd power of t^(1/2); cannot render in q, t")
        ns = self._poly_t_str(self.num, latex)
        if self.den == _ONE:
            return ns
        ds = self._poly_t_str(self.den, latex)
        if latex:
            return f"\\frac{{{ns}}}{{{ds}}}"
        return f"({ns})/({ds})"

    def __repr__(self):
        if self.den == _ONE:
            return f"RatFunc('{self.num}')"
        return f"RatFunc('({self.num})/({self.den})')"


_RF_ZERO = RatFunc(_ZERO, _ONE, _canonical=True)
_RF_ONE = RatFunc(_ONE, _ONE, _canonical=True)

RF_ZERO = _RF_ZERO
RF_ONE = _RF_ONE
RF_T = RatFunc.t_power(1)


def rf_normalize(num, den) -> RatFunc:
    """Canonical representative of num/den; num, den are IntPoly2."""
    return RatFunc(num, den)


def rf_arith(a: RatFunc, b: RatFunc, op: str) -> RatFunc:
    """Field arithmetic dispatcher: op in {'add','sub','mul','div'}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def rf_eval(a: RatFunc, q0, v0) -> Fraction:
    return a.eval(q0, v0)


def one_minus(x: RatFunc) -> RatFunc:
    """1 - x, a convenience for the ubiquitous (1 - q^a t^b) factors."""
    return _RF_ONE - x


def qt_fraction(qnum: int, tnum: int, qden: int, tden: int) -> RatFunc:
    """(1 - q^qnum t^tnum) / (1 - q^qden t^tden)."""
    return one_minus(RatFunc.qt_monomial(qnum, tnum)) / one_minus(
        RatFunc.qt_monomial(qden, tden)
    )

"""Exact arithmetic in Q(q, v) with v = t^(1/2).

Every scalar in the library is a reduced fraction of integer polynomials
in the two variables q and v.  Working with v instead of t keeps the
half-integer powers of t that show up in the operator formulas exact.

Canonical form of a fraction num/den:
  * gcd(num, den) = 1 over the integers (this also forces the joint
    integer content of the pair to be 1),
  * the leading coefficient of den is positive, where leading term is
    taken in lex order with q > v.

The denominator is kept factored, as a positive integer c times a
product of irreducible primitive polynomials f^k with positive leading
coefficient (q and v among them); `den` multiplies it out on demand.
The Macdonald denominators are products of binomials 1 - q^a t^b, so
their factors are few and come back again and again.  One rule,
`_cancel`, serves the constructor, `+` and `*`: trial division by the
largest power of each known factor that divides all the polynomials at
hand (q and v at their lowest exponent, in one step), then by their
integer content; never a gcd.  The E_mu walk's common factors come off
its packed numerators in `zpoly._Kron.cancel`, for which `_cancel` is
the reference its tests compare against.  Most factors
are g(q^a v^b) for a univariate g, and dividing by one splits a
polynomial into univariate lines over q^a v^b.  A new denominator (from
`inverse`, `/` or the two-argument constructor) is factored once: what
the known factors leave over is peeled into cyclotomics Phi_d(q^a v^b),
one edge of its Newton polygon at a time (`_peel`), and only a rest
that is not such a product goes to sympy's `factor_list`.

Polynomials are `zpoly.IntPoly2` dicts over Z[q, v].

>>> t = RatFunc.t_power(2)
>>> (t / RatFunc.t_power(1)) == RatFunc.t_power(1)
True
>>> one_minus(RatFunc.t_power(1)) / one_minus(RatFunc.t_power(1))
RatFunc('1')
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import itemgetter

from .errors import (
    DivisionByZeroError,
    EvaluationError,
    InvalidInputError,
    ZeroDenominatorError,
)
from .zpoly import QGEN, RING, VGEN, IntPoly2

_ZERO = RING.zero
_ONE = RING.one

_EXP = (itemgetter(0), itemgetter(1))  # a monomial's q and v exponents


def poly_from_terms(terms):
    """Build an IntPoly2 from {(q_exp, v_exp): int} or an iterable of pairs."""
    if isinstance(terms, dict):
        terms = terms.items()
    p = RING.zero
    for (eq, ev), c in terms:
        if eq < 0 or ev < 0:
            raise ValueError("IntPoly2 exponents must be nonnegative")
        if c:
            p += RING.term_new((eq, ev), int(c))
    return p


def _eval_poly(p, q0: Fraction, v0: Fraction) -> Fraction:
    total = Fraction(0)
    for (eq, ev), c in p.items():
        total += c * q0**eq * v0**ev
    return total


# ---------------------------------------------------------------------------
# irreducible factors and trial division


class _Factor:
    """An irreducible primitive polynomial with positive leading coefficient.

    There is one instance per polynomial (see `_intern`), so factors
    compare and hash by identity.  When the polynomial is g(q^a v^b) for
    a univariate g, `step` is (a, b) and `terms` lists g's nonzero terms
    as (power, coefficient), highest power first; otherwise `step` is
    None and division falls back on sympy.
    """

    __slots__ = ("poly", "step", "terms", "degs")

    def __init__(self, poly):
        self.poly = poly
        self.degs = _degs([poly])
        self.step, self.terms = _line_form(poly)

    def fits(self, degs):
        """False when the degrees alone rule out division of a polynomial
        with degrees degs."""
        return self.degs[0] <= degs[0] and self.degs[1] <= degs[1]

    def exquo(self, p):
        """p / self when self divides p, else None."""
        if self.step is None:
            quo, rem = p.div(self.poly)
            return None if rem else quo
        return _line_exquo(p, self.step, self.terms)


def _degs(polys):
    """The lowest (degree in q, degree in v) over the nonzero IntPoly2s
    polys: a factor that does not fit them divides none of them."""
    if len(polys) == 1:
        p = polys[0]
        return max(p)[0], max(map(_EXP[1], p))  # lex: max(p) has top q
    return tuple(map(min, zip(*(_degs([p]) for p in polys))))


def _line_form(p):
    """((a, b), terms of g) when p = g(q^a v^b), else (None, None)."""
    exps = [m for m in p if m != (0, 0)]
    a, b = exps[0]
    d = gcd(a, b)
    a, b = a // d, b // d
    powers = {}
    for m, c in p.items():
        k = m[0] // a if a else m[1] // b
        if m != (k * a, k * b):
            return None, None
        powers[k] = c
    step = 0
    for k in powers:
        step = gcd(step, k)
    terms = sorted(((k // step, c) for k, c in powers.items()), reverse=True)
    return (a * step, b * step), terms


def _line_exquo(p, step, terms):
    """p / g(m) with m = q^a v^b, or None when g(m) does not divide p.

    Z[q, v] is free over Z[m] on the monomials that m does not divide,
    so p splits into lines base * h(m) and g(m) divides p exactly when it
    divides every h in Z[x]: synthetic division from the top of a dense
    list of h's coefficients, stopped at the first nonzero remainder.
    """
    a, b = step
    lines = {}
    for (i, j), c in p.items():
        if not a:
            k = j // b
        elif not b:
            k = i // a
        else:
            k = i // a
            if j // b < k:
                k = j // b
        base = (i - k * a, j - k * b)
        line = lines.get(base)
        if line is None:
            lines[base] = [(k, c)]
        else:
            line.append((k, c))
    d, lc = terms[0]
    # g's lower terms as (distance below its top, coefficient)
    rest = [(d - k, c) for k, c in terms[1:]]
    out = {}
    for (bi, bj), line in lines.items():
        line.sort()
        low = line[0][0]
        top = line[-1][0] - low
        if top < d:
            return None
        h = [0] * (top + 1)  # h[pos] is the coefficient of m^(low + pos)
        for k, c in line:
            h[k - low] = c
        # the quotient's term at h[pos] lands on base * m^(low + pos - d)
        qi, qj = bi + (low - d) * a, bj + (low - d) * b
        for pos in range(top, d - 1, -1):
            c = h[pos]
            if c:
                quo, r = divmod(c, lc)
                if r:
                    return None
                out[(qi + pos * a, qj + pos * b)] = quo
                for off, gk in rest:
                    h[pos - off] -= quo * gk
        if any(h[:d]):
            return None
    return IntPoly2(out)


# polynomial -> its _Factor; it keeps every factor met, a few dozen for the
# Macdonald constructions
_REGISTRY = {}


def _intern(poly):
    f = _REGISTRY.get(poly)
    if f is None:
        f = _REGISTRY[poly] = _Factor(poly)
    return f


_FQ = _intern(QGEN)
_FV = _intern(VGEN)


def _divide(f, polys, k):
    """(j, quotients): each of the nonzero polys divided by f^j, where
    j <= k is the largest power of f that divides all of them.  For q and
    v, j is their lowest exponent, taken off in one step."""
    if f is _FQ or f is _FV:
        j = k
        for p in polys:
            j = min(j, min(map(_EXP[f is _FV], p)))
            if not j:
                return 0, polys
        dq, dv = (0, j) if f is _FV else (j, 0)
        return j, [
            IntPoly2({(a - dq, b - dv): c for (a, b), c in p.items()})
            for p in polys
        ]
    j = 0
    while j < k:
        quos = []
        for p in polys:
            quo = f.exquo(p)
            if quo is None:
                return j, polys
            quos.append(quo)
        polys = quos
        j += 1
    return j, polys


def _cancel(polys, fac, c):
    """Divide the nonzero polys by every factor of fac that divides all of
    them, at most its multiplicity, then by the gcd of the positive int c
    and their content: (quotients, what is left of fac, what is left of
    c).  fac itself is never changed."""
    left = fac
    if fac:
        lo = _degs(polys)
    for f, k in fac.items():
        if not f.fits(lo):
            continue
        j, polys = _divide(f, polys, k)
        if j:
            lo = (lo[0] - j * f.degs[0], lo[1] - j * f.degs[1])
            if left is fac:
                left = dict(fac)
            if j == k:
                del left[f]
            else:
                left[f] = k - j
    if c > 1:
        g = gcd(c, *(x for p in polys for x in p.values()))
        if g > 1:
            polys = [p.quo_ground(g) for p in polys]
            c //= g
    return polys, left, c


@lru_cache(maxsize=4096)
def _factor(p):
    """(u, fac) with p = u * prod(f.poly ** k for f, k in fac.items()).

    u is a nonzero int and fac maps irreducible factors to their
    multiplicity.  The result is shared: callers must not change fac.
    """
    # the monomial part (d copies are more than q or v can divide); _peel
    # finds every cyclotomic Phi_d(q^a v^b) in what is left
    d = sum(_degs([p])) + 1
    (p,), left, _ = _cancel([p], {_FQ: d, _FV: d}, 1)
    fac = {f: d - k for f, k in left.items() if k < d}
    while len(p) > 1 or (0, 0) not in p:
        peeled = _peel(p)
        if peeled is None:
            # not a product of cyclotomics in monomials: sympy factors it
            u, parts = p.factor_list()
            for g, k in parts:
                if g.LC < 0:
                    g = -g
                    u *= (-1) ** k
                f = _intern(g)
                fac[f] = fac.get(f, 0) + k
            return u, fac
        p, found = peeled
        for f, k in found:
            fac[f] = fac.get(f, 0) + k
    return p[(0, 0)], fac


def _peel(p):
    """(p', [(f, k), ...]) with p = p' * prod f.poly^k, or None.

    The f are the factors Phi_d(m) on the edge of p's Newton polygon at
    the origin with the lowest slope, m = q^a v^b primitive.  A factor
    of p restricts to that edge as itself when it lies on the ray of m
    and as its constant term otherwise (the polygon of a product is the
    sum of its factors' polygons), so when p is a product of
    cyclotomics in monomials, the edge h(m) is an int times the factors
    on the ray.  None when p has no constant term, h is not an int times
    cyclotomics, or one of them does not divide p.
    """
    if (0, 0) not in p:
        return None
    top = None  # the nonzero exponent of least slope v/q
    for i, j in p:
        if (i or j) and (top is None or j * top[0] < top[1] * i):
            top = (i, j)
    g = gcd(*top)
    a, b = top[0] // g, top[1] // g
    ray = {i // a if a else j // b: c for (i, j), c in p.items() if i * b == j * a}
    h = [ray.get(k, 0) for k in range(max(ray) + 1)]
    cyc = _cyclotomic_parts(h)
    if cyc is None:
        return None
    found = []
    for d, k in cyc:
        f = _intern(
            IntPoly2(
                {(e * a, e * b): c for e, c in enumerate(_cyclotomic(d)) if c}
            )
        )
        j, (p,) = _divide(f, [p], k)
        if j < k:
            return None
        found.append((f, k))
    return p, found


def _cyclotomic_parts(h):
    """[(d, k), ...] with h = c * prod Phi_d^k for an int c, or None; h
    is a dense list of ints, lowest power first, with h[0] != 0."""
    # a product of cyclotomics is palindromic, up to sign
    rev = h[::-1]
    if h != rev and h != [-c for c in rev]:
        return None
    out = []
    d = 0
    # phi(d) >= sqrt(d / 2), so no Phi_d past 2 deg(h)^2 divides h
    while len(h) > 1 and d < 2 * (len(h) - 1) ** 2:
        d += 1
        if _totient(d) >= len(h):
            continue
        phi = _cyclotomic(d)
        k = 0
        while len(phi) <= len(h):
            quo = _dense_exquo(h, phi)
            if quo is None:
                break
            h = quo
            k += 1
        if k:
            out.append((d, k))
    return out if len(h) == 1 else None


def _totient(d):
    """Euler's phi(d), the degree of Phi_d."""
    out, n, r = d, d, 2
    while r * r <= n:
        if n % r == 0:
            while n % r == 0:
                n //= r
            out -= out // r
        r += 1
    if n > 1:
        out -= out // n
    return out


@lru_cache(maxsize=None)
def _cyclotomic(d):
    """Phi_d as a dense tuple of ints, lowest power first:
    x^d - 1 over Phi_e for the proper divisors e of d."""
    p = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            p = _dense_exquo(p, _cyclotomic(e))
    return tuple(p)


def _dense_exquo(h, g):
    """h / g for a monic g, or None when g does not divide h (dense
    lists of ints, lowest power first)."""
    dg = len(g) - 1
    h = list(h)
    quo = [0] * (len(h) - dg)
    for k in range(len(h) - 1, dg - 1, -1):
        c = h[k]
        if c:
            quo[k - dg] = c
            for t in range(dg + 1):
                h[k - dg + t] -= c * g[t]
    return None if any(h[:dg]) else quo


def _as_poly(x):
    """x as an IntPoly2, an int as a constant; other types (bool too) raise."""
    if type(x) is IntPoly2:
        return x
    if type(x) is not int:
        raise InvalidInputError(f"{x!r} is neither an IntPoly2 nor an int")
    return RING.ground_new(x)


def _make(num, c, fac):
    r = object.__new__(RatFunc)
    r.num = num
    r._c = c
    r._fac = fac
    return r


class RatFunc:
    """An element of Q(q, v), kept in canonical reduced form.

    Built from num and den (default 1), each an IntPoly2 or an int.
    `num` is the numerator; the denominator is a positive int times a
    product of irreducible factors, and `den` is that product.
    """

    __slots__ = ("num", "_c", "_fac")

    def __init__(self, num, den=_ONE):
        if type(num) is not IntPoly2 or type(den) is not IntPoly2:
            num, den = _as_poly(num), _as_poly(den)
        if not den:
            raise ZeroDenominatorError("denominator is zero")
        if not num:
            num, u, fac = _ZERO, 1, {}
        else:
            u, fac = _factor(den)
            if u < 0:
                num, u = -num, -u
            (num,), fac, u = _cancel([num], fac, u)
        self.num = num
        self._c = u
        self._fac = fac

    @property
    def den(self):
        """The denominator as an IntPoly2, multiplied out on each read."""
        d = RING.ground_new(self._c)
        for f, k in self._fac.items():
            d = d * f.poly**k
        return d

    # -- constructors ---------------------------------------------------

    @staticmethod
    def q_power(k: int) -> "RatFunc":
        if k >= 0:
            return _make(QGEN**k, 1, {})
        return _make(_ONE, 1, {_FQ: -k})

    @staticmethod
    def v_power(k: int) -> "RatFunc":
        if k >= 0:
            return _make(VGEN**k, 1, {})
        return _make(_ONE, 1, {_FV: -k})

    @staticmethod
    def t_power(k: int) -> "RatFunc":
        """t^k as an element of Q(q, v), i.e. v^(2k)."""
        return RatFunc.v_power(2 * k)

    @staticmethod
    def qt_monomial(qexp: int, texp: int) -> "RatFunc":
        """q^qexp * t^texp with integer exponents of either sign."""
        vexp = 2 * texp
        num = IntPoly2({(max(qexp, 0), max(vexp, 0)): 1})
        fac = {f: -k for f, k in ((_FQ, qexp), (_FV, vexp)) if k < 0}
        return _make(num, 1, fac)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def is_one(self) -> bool:
        return self.num == _ONE and not self._fac and self._c == 1

    def has_even_v(self) -> bool:
        """True when every v-exponent in num and den is even (so the
        value lies in Q(q, t))."""
        return all(m[1] % 2 == 0 for m in self.num) and all(
            m[1] % 2 == 0 for m in self.den
        )

    def is_v_monomial(self) -> bool:
        return not self._fac and self._c == 1 and len(self.num) == 1

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        a, b = self.num, other.num
        if not a:
            return other
        if not b:
            return self
        fa, fb = self._fac, other._fac
        if self._c == other._c and fa == fb:
            s = a + b
            if not s:
                return _RF_ZERO
            (s,), fac, c = _cancel([s], fa, self._c)
            return _make(s, c, fac)
        # over the lcm of the denominators; a factor can divide the sum only
        # when both sides carry it equally often
        S, (a, b) = _lift((self, other))
        s = a + b
        if not s:
            return _RF_ZERO
        shared = {f: k for f, k in fa.items() if fb.get(f) == k}
        (s,), left, c = _cancel([s], shared, S._c)
        fac = S._fac
        if left is not shared:
            fac = {f: k for f, k in fac.items() if f not in shared} | left
        return _make(s, c, fac)

    def __neg__(self):
        return _make(-self.num, self._c, self._fac)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.num, other.num
        if not a or not b:
            return _RF_ZERO
        fa, fb = self._fac, other._fac
        ca, cb = self._c, other._c
        if fb or cb > 1:
            (a,), fb, cb = _cancel([a], fb, cb)
        if fa or ca > 1:
            (b,), fa, ca = _cancel([b], fa, ca)
        fac = fa or fb
        if fa and fb:
            fac = dict(fa)
            for f, k in fb.items():
                fac[f] = fac.get(f, 0) + k
        return _make(a * b, ca * cb, fac)

    def inverse(self) -> "RatFunc":
        if not self.num:
            raise DivisionByZeroError("inverse of zero")
        u, fac = _factor(self.num)
        if u < 0:
            return _make(-self.den, -u, fac)
        return _make(self.den, u, fac)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k: int):
        if k == 0:
            return _RF_ONE
        base = self if k > 0 else self.inverse()
        k = abs(k)
        fac = {f: m * k for f, m in base._fac.items()}
        return _make(base.num**k, base._c**k, fac)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (
            self.num == other.num
            and self._c == other._c
            and self._fac == other._fac
        )

    def __hash__(self):
        return hash((self.num, self._c, frozenset(self._fac.items())))

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
        """{"num": side, "den": side}, each side [{"q", "v", "c"}, ...]
        lex-descending, parsed from the text `_json` renders."""
        import json

        return json.loads(self._json({}))

    def _json(self, dens):
        """The JSON text of this fraction, its denominator's through
        `_den_text`."""
        return '{"num":%s,"den":%s}' % (
            _json_side(self.num),
            self._den_text(dens, _json_side),
        )

    def _den_text(self, dens, render):
        """render(self.den), memoized in dens for one document by the
        denominator's factor multiset, so a denominator shared by many
        coefficients is expanded and rendered once."""
        key = (self._c, frozenset(self._fac.items()))
        ds = dens.get(key)
        if ds is None:
            ds = dens[key] = render(self.den)
        return ds

    def _poly_t_str(self, p, latex: bool, in_v: bool = False) -> str:
        """p in q and t, or in q and v = t^(1/2) when in_v."""
        sep = " " if latex else "*"

        def power(name, e):
            if e == 1:
                return name
            return f"{name}^{{{e}}}" if latex else f"{name}^{e}"

        parts = []
        for (eq, ev), c in p.terms():
            if ev % 2 and not in_v:
                raise InvalidInputError(
                    "odd power of t^(1/2); cannot render in q, t"
                )
            factors = []
            if eq:
                factors.append(power("q", eq))
            if ev:
                factors.append(power("v", ev) if in_v else power("t", ev // 2))
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
        return self._t_string(latex, {})

    def _t_string(self, latex, dens, in_v=False):
        """`to_t_string`, or in q and v when in_v, its denominator's text
        through `_den_text`."""
        ns = self._poly_t_str(self.num, latex, in_v)
        if not self._fac and self._c == 1:
            return ns
        ds = self._den_text(dens, lambda p: self._poly_t_str(p, latex, in_v))
        if latex:
            return f"\\frac{{{ns}}}{{{ds}}}"
        return f"({ns})/({ds})"

    def __repr__(self):
        if self.den == _ONE:
            return f"RatFunc('{self.num}')"
        return f"RatFunc('({self.num})/({self.den})')"


def _json_side(p):
    """The IntPoly2 p as the JSON text of [{"q": .., "v": .., "c": ".."},
    ...], lex-descending, in one % call."""
    terms = p.terms()
    text = "[" + ",".join(['{"q":%d,"v":%d,"c":"%d"}'] * len(terms)) + "]"
    return text % tuple(x for (eq, ev), c in terms for x in (eq, ev, c))


def _lift(cs):
    """(S, nums) with c = S * num for every c of cs: S is one over the lcm
    of their denominators, and each num is an IntPoly2."""
    c = 1
    fac = {}
    for x in cs:
        c = c * x._c // gcd(c, x._c)
        for f, k in x._fac.items():
            if fac.get(f, 0) < k:
                fac[f] = k
    lifts = {}  # denominators recur, so each lift is built once
    nums = []
    for x in cs:
        key = (x._c, tuple(x._fac.items()))
        lift = lifts.get(key)
        if lift is None:
            lift = RING.ground_new(c // x._c)
            for f, k in fac.items():
                d = k - x._fac.get(f, 0)
                if d:
                    lift = lift * f.poly**d
            lifts[key] = lift
        nums.append(x.num if lift == _ONE else x.num * lift)
    return _make(_ONE, c, fac), nums


def _cancel_common(s, polys, ring=None):
    """Divide the nonzero IntPoly2 polys by every factor of s's denominator
    that divides all of them, and move it into s: (s', polys') with
    s' * p' = s * p for each p.  With a `zpoly._Kron` ring the polys are
    ints packed in its layout, and so are the quotients."""
    polys, fac, c = (ring.cancel if ring else _cancel)(polys, s._fac, s._c)
    return _make(s.num, c, fac), polys


_RF_ZERO = _make(_ZERO, 1, {})
_RF_ONE = _make(_ONE, 1, {})

RF_ZERO = _RF_ZERO
RF_ONE = _RF_ONE
RF_T = RatFunc.t_power(1)


def rf_normalize(num, den) -> RatFunc:
    """Canonical representative of num/den; num, den are IntPoly2 or int."""
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

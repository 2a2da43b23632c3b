"""Laurent polynomials in x_1..x_n over the fraction field Q(q, v).

Exponent vectors are dense integer tuples of length n; coefficients are
canonical RatFunc values and zero coefficients are never stored.

>>> x1 = LaurentPoly.x(1, 2)
>>> x2 = LaurentPoly.x(2, 2)
>>> (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2
True
"""

from __future__ import annotations

from operator import index

from .errors import InvalidInputError
from .ratfunc import RF_ONE, RF_ZERO, RatFunc

Weight = tuple  # vector of n integers


def check_weight(mu, n=None, nonneg=False):
    """Validate a weight vector of integers and return it as a tuple."""
    try:
        mu = tuple(map(index, mu))
    except TypeError:
        raise InvalidInputError(f"weight {mu!r} is not a vector of integers") from None
    if n is not None and len(mu) != n:
        raise InvalidInputError(f"weight {mu} does not have length {n}")
    if nonneg and any(x < 0 for x in mu):
        raise InvalidInputError(f"weight {mu} has negative entries")
    return mu


def _acc(out, e, c):
    """Add c into the term dict out at exponent e; no zero is kept.

    The values are RatFunc coefficients or, inside the Hecke operators,
    IntPoly2 numerators; both are false exactly when zero.
    """
    prev = out.get(e)
    if prev is None:
        if c:
            out[e] = c
    else:
        s = prev + c
        if s:
            out[e] = s
        else:
            del out[e]


class LaurentPoly:
    """Finite sum of RatFunc-weighted monomials x^e, e in Z^n."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None, _clean=False):
        self.n = n
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            self.terms = {
                tuple(e): c for e, c in dict(terms).items() if not c.is_zero()
            }
            for e in self.terms:
                if len(e) != n:
                    raise InvalidInputError(f"exponent {e} has wrong length")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n: int) -> "LaurentPoly":
        return LaurentPoly(n, {}, _clean=True)

    @staticmethod
    def one(n: int) -> "LaurentPoly":
        return LaurentPoly(n, {(0,) * n: RF_ONE}, _clean=True)

    @staticmethod
    def x(i: int, n: int) -> "LaurentPoly":
        """The variable x_i, 1-based."""
        if not 1 <= i <= n:
            raise InvalidInputError(f"x_{i} needs 1 <= i <= {n}")
        e = [0] * n
        e[i - 1] = 1
        return LaurentPoly(n, {tuple(e): RF_ONE}, _clean=True)

    @staticmethod
    def monomial(e, coeff: RatFunc = RF_ONE) -> "LaurentPoly":
        e = tuple(e)
        if coeff.is_zero():
            return LaurentPoly.zero(len(e))
        return LaurentPoly(len(e), {e: coeff}, _clean=True)

    # -- ring operations ------------------------------------------------

    def _check_same(self, other):
        if self.n != other.n:
            raise InvalidInputError("dimension mismatch")

    def __add__(self, other):
        self._check_same(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            if e in out:
                _acc(out, e, c)
            else:  # never zero: a LaurentPoly stores no zero
                out[e] = c
        return LaurentPoly(self.n, out, _clean=True)

    def __neg__(self):
        return LaurentPoly(
            self.n, {e: -c for e, c in self.terms.items()}, _clean=True
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_same(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _acc(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return LaurentPoly(self.n, out, _clean=True)

    def scale(self, c: RatFunc) -> "LaurentPoly":
        if c.is_zero():
            return LaurentPoly.zero(self.n)
        if c.is_one():
            return self
        return LaurentPoly(
            self.n, {e: x * c for e, x in self.terms.items()}, _clean=True
        )

    def mul_monomial(self, shift) -> "LaurentPoly":
        """Multiply by x^shift."""
        shift = check_weight(shift, self.n)
        out = {
            tuple(a + b for a, b in zip(e, shift)): c for e, c in self.terms.items()
        }
        return LaurentPoly(self.n, out, _clean=True)

    def is_zero(self) -> bool:
        return not self.terms

    # -- coefficients and substitutions ----------------------------------
    # (in the library only hecke's divided-difference reference route
    # calls one of these, subst_perm; the operators run on numerators)

    def coeff(self, mu) -> RatFunc:
        """Coefficient of x^mu (zero when absent)."""
        mu = check_weight(mu, self.n)
        return self.terms.get(mu, RF_ZERO)

    def subst_perm(self, w) -> "LaurentPoly":
        """Simultaneous substitution x_i -> x_{w(i)} for w in S_n.

        w is a permutation of {1..n} in one-line notation.
        """
        if sorted(w) != list(range(1, self.n + 1)):
            raise InvalidInputError(f"{w} is not a permutation of 1..{self.n}")
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * self.n
            for i in range(self.n):
                e2[w[i] - 1] = e[i]
            out[tuple(e2)] = c
        return LaurentPoly(self.n, out, _clean=True)

    def shift_qn(self) -> "LaurentPoly":
        """x_n -> q^(-1) x_n: term with x_n-exponent k picks up q^(-k)."""
        out = {}
        for e, c in self.terms.items():
            k = e[-1]
            out[e] = c * RatFunc.q_power(-k) if k else c
        return LaurentPoly(self.n, out, _clean=True)

    # -- comparison and presentation --------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def sorted_terms(self):
        """Terms sorted lexicographically by exponent vector."""
        return sorted(self.terms.items(), key=lambda t: t[0])

    def has_even_v(self) -> bool:
        return all(c.has_even_v() for c in self.terms.values())

    def to_json(self) -> str:
        """The terms as JSON text, [{"x": exponents, "coeff": coefficient},
        ...] sorted by exponent: the "terms" field of a document.  Each
        distinct coefficient object and each distinct denominator is
        rendered once."""
        # many terms share one coefficient object (hecke._join makes one
        # RatFunc per distinct numerator); keyed by identity, no RatFunc
        # is hashed
        coeffs = {}
        dens = {}
        args = []
        for e, c in self.sorted_terms():
            cs = coeffs.get(id(c))
            if cs is None:
                cs = coeffs[id(c)] = c._json(dens)
            args += e
            args.append(cs)
        # the whole array in one % call, so no text is copied twice
        term = '{"x":[' + ",".join(["%d"] * self.n) + '],"coeff":%s}'
        return ("[" + ",".join([term] * len(self.terms)) + "]") % tuple(args)

    def to_json_obj(self):
        """The terms as [{"x": exponents, "coeff": coefficient}, ...],
        parsed from `to_json`."""
        import json

        return json.loads(self.to_json())

    def to_string(self, latex: bool = False) -> str:
        """Human-readable form with coefficients rendered in q, t."""
        return self._string(latex, False)

    def _readable(self) -> str:
        """`to_string()`, or the same in q and v = t^(1/2) when a
        coefficient carries an odd power of v, which q, t cannot show."""
        return self._string(False, not self.has_even_v())

    def _string(self, latex, in_v):
        if not self.terms:
            return "0"
        sep = " " if latex else "*"
        # id(c) -> (c alone, c as the factor before a monomial), rendered
        # once per distinct coefficient
        coeffs = {}
        dens = {}
        bits = []
        for e, c in self.sorted_terms():
            mono = []
            for i, a in enumerate(e):
                if a == 0:
                    continue
                name = f"x_{{{i + 1}}}" if latex else f"x{i + 1}"
                if a == 1:
                    mono.append(name)
                else:
                    mono.append(f"{name}^{{{a}}}" if latex else f"{name}^{a}")
            mono_s = sep.join(mono)
            r = coeffs.get(id(c))
            if r is None:
                cs = c._t_string(latex, dens, in_v)
                if c.is_one():
                    wrap = ""
                elif c.is_v_monomial():
                    wrap = cs + sep
                elif latex:
                    wrap = f"\\left({cs}\\right){sep}"
                else:
                    wrap = f"({cs}){sep}"
                r = coeffs[id(c)] = (cs, wrap)
            bits.append(r[1] + mono_s if mono_s else r[0])
        return " + ".join(bits)

    def __repr__(self):
        return f"LaurentPoly({self.n}, '{self._readable()}')"


def lp_arith(a: LaurentPoly, b: LaurentPoly, op: str) -> LaurentPoly:
    """Ring arithmetic dispatcher: op in {'add','sub','mul'}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    raise ValueError(f"unknown op {op!r}")


def lp_coeff(a: LaurentPoly, mu) -> RatFunc:
    return a.coeff(mu)


def lp_subst_perm(a: LaurentPoly, w) -> LaurentPoly:
    return a.subst_perm(tuple(w))


def lp_shift_qn(a: LaurentPoly) -> LaurentPoly:
    return a.shift_qn()

"""The integer polynomial ring Z[q, v].

An `IntPoly2` is a dict from a monomial (q_exp, v_exp) to its nonzero
int coefficient.  Values are never changed once built, so the hash is
computed once and kept.  Monomials order lex with q > v, and a
polynomial prints as sympy prints the same element of ZZ[q, v]:

>>> q, v = QGEN, VGEN
>>> (1 - q * v**2) * (1 + q * v**2)
-q**2*v**4 + 1
>>> (2 * q - v) ** 2
4*q**2 - 4*q*v + v**2
>>> RING.zero, RING.ground_new(-3), (q - 1).LC
(0, -3, 1)

`div`, `rem`, `gcd`, `cofactors` and `factor_list` go through sympy
(`_sympy`), which is imported on their first use only.  `ratfunc`
calls them only for a factor that is not a line g(q^a v^b) and for a
denominator that is not a product of cyclotomics in monomials.
"""

from __future__ import annotations

from functools import lru_cache

_CONST = (0, 0)


class IntPoly2(dict):
    """An element of Z[q, v]: {(q_exp, v_exp): nonzero int}, immutable by
    convention.  `+ - *` take an int on either side; `**` takes an int
    k >= 0."""

    __slots__ = ("_hash",)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if type(other) is not IntPoly2:
            if not isinstance(other, int):
                return NotImplemented
            if not other:
                return self
            other = IntPoly2({_CONST: other})
        if len(self) < len(other):
            self, other = other, self
        out = IntPoly2(self)
        get = out.get
        for m, c in other.items():
            s = get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not IntPoly2:
            if not isinstance(other, int):
                return NotImplemented
            if not other:
                return self
            other = IntPoly2({_CONST: other})
        out = IntPoly2(self)
        get = out.get
        for m, c in other.items():
            s = get(m, 0) - c
            if s:
                out[m] = s
            else:
                del out[m]
        return out

    def __rsub__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return -self + other

    def __neg__(self):
        return IntPoly2({m: -c for m, c in self.items()})

    def __mul__(self, other):
        if type(other) is not IntPoly2:
            if not isinstance(other, int):
                return NotImplemented
            if not other:
                return _ZERO
            return IntPoly2({m: c * other for m, c in self.items()})
        if len(self) < len(other):
            self, other = other, self
        if len(other) == 1:
            ((a, b), k), = other.items()
            return IntPoly2({(i + a, j + b): c * k for (i, j), c in self.items()})
        out = {}
        get = out.get
        right = list(other.items())
        for (i, j), c in self.items():
            for (a, b), k in right:
                m = (i + a, j + b)
                out[m] = get(m, 0) + c * k
        return IntPoly2({m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("IntPoly2 powers need an int k >= 0")
        if not (k or self):
            raise ValueError("0**0")
        if len(self) == 1:
            ((a, b), c), = self.items()
            return IntPoly2({(a * k, b * k): c**k})
        out, base = _ONE, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def mul_monom(self, m):
        """self * q^m[0] v^m[1]."""
        a, b = m
        return IntPoly2({(i + a, j + b): c for (i, j), c in self.items()})

    def quo_ground(self, x):
        """self / x for a nonzero int x that divides every coefficient."""
        if x == 1:
            return self
        return IntPoly2({m: c // x for m, c in self.items()})

    # -- access ---------------------------------------------------------

    def terms(self):
        """[((q_exp, v_exp), coefficient)], lex-descending with q > v."""
        return sorted(self.items(), reverse=True)

    def monoms(self):
        """The monomials, lex-descending with q > v."""
        return sorted(self, reverse=True)

    @property
    def LC(self):
        """The coefficient of the lex-largest monomial (0 for zero)."""
        return self[max(self)] if self else 0

    # -- comparison -----------------------------------------------------

    def __eq__(self, other):
        if type(other) is IntPoly2:
            return dict.__eq__(self, other)
        if isinstance(other, int):
            if not other:
                return not self
            return len(self) == 1 and self.get(_CONST) == other
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash(frozenset(self.items()))
            return h

    # -- presentation ---------------------------------------------------

    def __str__(self):
        if not self:
            return "0"
        parts = []
        for (i, j), c in self.terms():
            parts.append(" - " if c < 0 else " + ")
            c = abs(c)
            factors = []
            if c != 1 or not (i or j):
                factors.append(str(c))
            for name, e in (("q", i), ("v", j)):
                if e:
                    factors.append(name if e == 1 else f"{name}**{e}")
            parts.append("*".join(factors))
        head = parts[0]
        parts[0] = "-" if head == " - " else ""
        return "".join(parts)

    __repr__ = __str__

    # -- through sympy --------------------------------------------------

    def div(self, g):
        """(quotient, remainder) of sympy's division by g."""
        quo, rem = _sympy(self).div(_sympy(g))
        return _from_sympy(quo), _from_sympy(rem)

    def rem(self, g):
        """The remainder of sympy's division by g."""
        return _from_sympy(_sympy(self).rem(_sympy(g)))

    def gcd(self, g):
        """The gcd with g, with positive leading coefficient."""
        return _from_sympy(_sympy(self).gcd(_sympy(g)))

    def cofactors(self, g):
        """(h, self / h, g / h) with h the gcd of self and g."""
        return tuple(map(_from_sympy, _sympy(self).cofactors(_sympy(g))))

    def factor_list(self):
        """(u, [(f, k), ...]): self = u * prod f^k over irreducible f."""
        u, parts = _sympy(self).factor_list()
        return int(u), [(_from_sympy(f), k) for f, k in parts]


_ZERO = IntPoly2()
_ONE = IntPoly2({_CONST: 1})
QGEN = IntPoly2({(1, 0): 1})
VGEN = IntPoly2({(0, 1): 1})


class _Ring:
    """Z[q, v] as the constructors `ratfunc` and the tests use."""

    __slots__ = ()
    zero = _ZERO
    one = _ONE

    @staticmethod
    def ground_new(c):
        """The constant int c."""
        return IntPoly2({_CONST: c} if c else {})

    @staticmethod
    def term_new(monom, c):
        """c q^monom[0] v^monom[1]."""
        return IntPoly2({tuple(monom): c} if c else {})


RING = _Ring()


# ---------------------------------------------------------------------------
# the one bridge to sympy

@lru_cache(maxsize=None)
def _sympy_ring():
    """sympy's ZZ[q, v], imported on first use."""
    from sympy import ZZ
    from sympy.polys.rings import ring

    return ring("q,v", ZZ)[0]


def _sympy(p):
    """p as an element of sympy's ZZ[q, v]."""
    R = _sympy_ring()
    return R.from_dict({m: R.domain(c) for m, c in p.items()})


def _from_sympy(p):
    return IntPoly2({(m[0], m[1]): int(c) for m, c in p.items()})

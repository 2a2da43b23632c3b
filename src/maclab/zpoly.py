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

`div`, `gcd`, `cofactors` and `factor_list` go through sympy
(`_sympy`), which is imported on their first use only.  `ratfunc`
calls `div` only for a factor that is not a line g(q^a v^b), and
`factor_list` only for a denominator that is not a product of
cyclotomics in monomials; no library code calls `gcd` or `cofactors`.

`_Kron` packs an element of Z[q, v] into one Python int by Kronecker
substitution (v = 2^B, q = 2^(BW)): the walk that builds E_mu keeps its
numerators so.  `RING` and a `_Kron` layout are the two numerator rings
of `hecke._run`: each multiplies by t (`t`), by a monomial (`shift`) and
by a small polynomial (`by`).
"""

from __future__ import annotations

import sys
from functools import lru_cache
from itertools import product
from operator import methodcaller

from .errors import InvariantViolation

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

    # as a numerator ring of `hecke._run`
    t = methodcaller("mul_monom", (0, 2))
    shift = staticmethod(IntPoly2.mul_monom)

    @staticmethod
    def by(c):
        """Multiplication by the IntPoly2 c."""
        return c.__mul__


RING = _Ring()


# ---------------------------------------------------------------------------
# Kronecker-packed polynomials

# memoryview formats of a signed lane.  A cast reads lanes in the machine's
# byte order and the lane bytes are little-endian, so elsewhere every lane
# goes through int.from_bytes / int.to_bytes
_LANES = {16: "h", 32: "i", 64: "q"} if sys.byteorder == "little" else {}


class _Kron:
    """Z[q, v] packed into ints: p is the int p(2^(BW), 2^B).

    The coefficient of q^i v^j is the signed digit at lane i W + j in base
    2^B.  A packed polynomial is valid when its v-degree is below W and
    each coefficient lies in [-2^(B-2), 2^(B-2)): then it reads back as p,
    and a sum or a product of valid polynomials packs their sum or
    product as long as the result is valid too.  Nothing on the way can
    check that, so whoever runs letters on packed values makes room for
    their growth first (`fit`); `unpack` and `pack` refuse a value out of
    range with an InvariantViolation.  Multiplying by t is a shift by 2B
    bits.

    >>> K = _kron(16, 8)
    >>> p = (1 - QGEN * VGEN**2) * (3 - VGEN)
    >>> K.unpack(K.by(VGEN - 1)(K.pack(p))) == p * (VGEN - 1)
    True
    """

    __slots__ = ("B", "W", "t", "_factors")

    def __init__(self, B, W):
        self.B = B
        self.W = W
        self.t = (2 * B).__rlshift__  # p << 2B
        self._factors = {}

    def shift(self, p, m):
        """p * q^m[0] v^m[1]."""
        return p << (m[0] * self.W + m[1]) * self.B

    def by(self, c):
        """Multiplication by the IntPoly2 c: a difference of two shifts
        when c is one monomial minus another, else a product."""
        if len(c) == 2:
            (m1, c1), (m2, c2) = c.items()
            if c1 == -c2 and abs(c1) == 1:
                B, W = self.B, self.W
                if c1 < 0:
                    m1, m2 = m2, m1
                s1 = (m1[0] * W + m1[1]) * B
                s2 = (m2[0] * W + m2[1]) * B
                return lambda p: (p << s1) - (p << s2)
        return self.pack(c).__mul__

    # -- lanes: the bytes of an int's digits, each in B-bit two's complement

    def _lanes(self, P):
        """The lanes of P, rows of W of them, enough for every digit."""
        B, W = self.B, self.W
        rows = (P.bit_length() // B + 1) // W + 1
        half = _masks(B, W, rows, B - 1, 0)[0]  # 2^(B-1) in every lane
        return ((P + half) ^ half).to_bytes(rows * W * B // 8, "little")

    def _from_lanes(self, buf):
        """The int whose lanes are buf."""
        B, W = self.B, self.W
        half = _masks(B, W, len(buf) * 8 // (B * W), B - 1, 0)[0]
        return (int.from_bytes(buf, "little") ^ half) - half

    def _view(self, buf):
        """The lanes in buf as signed ints."""
        fmt = _LANES.get(self.B)
        if fmt:
            return memoryview(buf).cast(fmt)
        nb = self.B // 8
        return [
            int.from_bytes(buf[k : k + nb], "little", signed=True)
            for k in range(0, len(buf), nb)
        ]

    def pack(self, p):
        """The int of the IntPoly2 p."""
        B, W = self.B, self.W
        rows = max(p)[0] + 1 if p else 1
        buf = bytearray(rows * W * B // 8)
        lanes = self._view(buf)
        for (i, j), c in p.items():
            if j >= W or not -(1 << B - 2) <= c < 1 << B - 2:
                raise InvariantViolation(
                    f"q^{i} v^{j} with coefficient {c} does not fit a lane"
                    f" of {B} bits in rows of {W}"
                )
            lanes[i * W + j] = c
        if type(lanes) is list:
            nb = B // 8
            buf = b"".join(c.to_bytes(nb, "little", signed=True) for c in lanes)
        return self._from_lanes(buf)

    def unpack(self, P):
        """The IntPoly2 of the int P."""
        if not self.fits(P, self.B - 2, 0):
            raise InvariantViolation(
                f"a coefficient does not fit a lane of {self.B} bits with 2 to spare"
            )
        lanes = self._view(self._lanes(P))
        monoms = product(range(len(lanes) // self.W), range(self.W))
        return IntPoly2({m: c for m, c in zip(monoms, lanes) if c})

    def fits(self, P, r, g):
        """True when every coefficient of P lies in [-2^r, 2^r) and the top
        g lanes of every row are zero (its v-degree is below W - g)."""
        B, W = self.B, self.W
        if g >= W:
            return False
        rows = (P.bit_length() // B + 1) // W + 1
        bias, mask, want = _masks(B, W, rows, r, g)
        return (P + bias) & mask == want

    def fit(self, N, k, d):
        """(ring, N') with N' the numerators N (a dict of ints) in a layout
        where each of them can grow its coefficients k-fold and its
        v-degree by d and stay valid: this one when it has the room, else
        a wider one that they are repacked into."""
        B, W = self.B, self.W
        r = B - 2 - k.bit_length()
        if r >= 0 and all(self.fits(P, r, d) for P in N.values()):
            return self, N
        distinct = set(N.values())
        row = W * B // 8
        top = size = 0
        for P in distinct:
            buf = self._lanes(P)
            view = self._view(buf)
            size = max(size, max(view), -min(view))
            for s in range(0, len(buf), row):
                top = max(top, len(buf[s : s + row].rstrip(b"\0")))
        bits = size.bit_length() + k.bit_length() + 2
        width = -(-top * 8 // B) + d  # the v-degree plus 1, plus d
        ring = _kron(*_layout(bits, width))
        if ring.B < bits or ring.W < width:
            raise InvariantViolation(
                f"no room in lanes of {ring.B} bits in rows of {ring.W}:"
                f" {bits} bits in rows of {width} needed"
            )
        packed = {P: self._repack(P, ring) for P in distinct}
        return ring, {e: packed[P] for e, P in N.items()}

    def _repack(self, P, ring):
        """P in the layout ring: its lanes in longer or shorter rows when
        the lanes keep their width, else unpacked and packed again.  On the
        n = 6 staircase (2-vCPU Xeon) the row copy saves 0.3 s of 4.2 s over
        the latter."""
        if ring.B != self.B:
            return ring.pack(self.unpack(P))
        buf = self._lanes(P)
        row, new = self.W * self.B // 8, ring.W * self.B // 8
        return ring._from_lanes(
            b"".join(
                buf[s : s + row][:new].ljust(new, b"\0")
                for s in range(0, len(buf), row)
            )
        )

    def cancel(self, polys, fac, c):
        """`ratfunc._cancel` on the packed polys: divide them by every factor
        of fac that divides all of them, at most its multiplicity.  The
        walk's denominators have no int part: c is 1, and anything else
        raises an InvariantViolation rather than leave its content in the
        numerators.

        A division is certified: P = F Q for the packed factor F leaves a
        quotient Q that is p / f only when Q is small enough that f Q
        cannot overflow a lane, and has the top lanes of each row free so
        that f Q cannot spill into the next power of q; otherwise f is
        taken not to divide.
        """
        if c != 1:
            raise InvariantViolation(f"a packed walk's denominator has int part {c}")
        left = fac
        for f, k in fac.items():
            j, polys = self._divide(f, polys, k)
            if j:
                if left is fac:
                    left = dict(fac)
                if j == k:
                    del left[f]
                else:
                    left[f] = k - j
        return polys, left, c

    def _divide(self, f, polys, k):
        """`ratfunc._divide` on the packed polys: (j, quotients)."""
        row = self.B * self.W
        if f.poly == QGEN:  # q^j: the lowest set bit lies in row j or above
            j = min(k, min(((P & -P).bit_length() - 1) // row for P in polys))
            return j, [P >> j * row for P in polys] if j else polys
        if f not in self._factors:
            # (F, r, g): a quotient Q in [-2^r, 2^r) has |f Q| <= 2^(B-2)
            norm = sum(map(abs, f.poly.values()))
            r = self.B - 2 - (norm - 1).bit_length()
            fits = f.degs[1] < self.W and r >= 0
            self._factors[f] = (self.pack(f.poly), r, f.degs[1]) if fits else None
        div = self._factors[f]
        if div is None:
            return 0, polys
        F, r, g = div
        j = 0
        while j < k:
            quos = []
            for P in polys:
                Q, rem = divmod(P, F)
                if rem or not self.fits(Q, r, g):
                    return j, polys
                quos.append(Q)
            polys = quos
            j += 1
        return j, polys


@lru_cache(maxsize=None)
def _kron(B, W):
    """The one `_Kron` of a layout."""
    return _Kron(B, W)


def _layout(bits, width):
    """(B, W) for lanes of at least bits bits and rows of at least width
    lanes, with room to grow: B is a power of two from 16 and W a quarter
    over width."""
    B = 16
    while B < bits:
        B *= 2
    return B, -(-width * 5 // 4)


@lru_cache(maxsize=128)
def _masks(B, W, rows, r, g):
    """(bias, mask, want) for `_Kron.fits` on ints of rows rows: P passes
    when (P + bias) & mask == want.  bias puts 2^r in every lane, so a
    lane of P in [-2^r, 2^r) becomes a lane in [0, 2^(r+1)) without a
    carry; mask keeps the bits above those and the top g lanes of every
    row, which must read back 2^r.  All are repunits in closed form."""
    size = rows * W * B
    ones = ((1 << size) - 1) // ((1 << B) - 1)  # 1 in every lane
    bias = ones << r
    mask = ~(ones * ((2 << r) - 1))
    want = 0
    if g:
        guard = ((1 << size) - 1) // ((1 << W * B) - 1) * ((1 << g * B) - 1) << (W - g) * B
        mask |= guard
        want = bias & guard
    return bias, mask, want


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

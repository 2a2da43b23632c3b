"""The owned ring Z[q, v] against sympy's ZZ[q, v] as an independent
oracle, factoring without sympy, and sympy off the import path."""

import json
import os
import subprocess
import sys
from functools import lru_cache
from math import gcd
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.rings import ring

from maclab import ratfunc, zpoly
from maclab.errors import InvariantViolation
from maclab.zpoly import QGEN, RING, VGEN, IntPoly2, _kron
from test_cli import readme_commands

SR = ring("q,v", ZZ)[0]
q, v = QGEN, VGEN

_dicts = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-5, 5), max_size=5
).map(lambda d: {m: c for m, c in d.items() if c})
_ints = st.integers(-4, 4)


def _pair(d):
    """The same polynomial as an IntPoly2 and as a sympy PolyElement."""
    return IntPoly2(d), SR.from_dict({m: ZZ(c) for m, c in d.items()})


def _same(ours, theirs):
    assert type(ours) is IntPoly2
    assert dict(ours) == {m: int(c) for m, c in theirs.items()}
    assert str(ours) == str(theirs) == repr(ours)


class TestAgainstSympy:
    @settings(max_examples=200, deadline=None)
    @given(_dicts, _dicts, _ints)
    @example({}, {}, 0)
    @example({(0, 0): -3}, {(1, 2): 1, (0, 0): 3}, -1)
    def test_ring_operations(self, x, y, k):
        a, sa = _pair(x)
        b, sb = _pair(y)
        _same(a, sa)
        _same(a + b, sa + sb)
        _same(a - b, sa - sb)
        _same(a * b, sa * sb)
        _same(-a, -sa)
        _same(a + k, sa + k)
        _same(k + a, k + sa)
        _same(a - k, sa - k)
        _same(k - a, k - sa)
        _same(a * k, sa * k)
        _same(k * a, k * sa)
        assert (a == k) == (sa == k) and (a != k) == (sa != k)
        assert (a == b) == (sa == sb) and (a != b) == (sa != sb)

    @settings(max_examples=150, deadline=None)
    @given(_dicts, st.integers(0, 4), st.tuples(st.integers(0, 3), st.integers(0, 3)))
    def test_pow_and_monomial_shift(self, x, k, m):
        a, sa = _pair(x)
        if a or k:
            _same(a**k, sa**k)
        else:
            for p in (a, sa):
                with pytest.raises(ValueError):
                    p**k
        _same(a.mul_monom(m), sa.mul_monom(m))

    @settings(max_examples=150, deadline=None)
    @given(_dicts, _ints.filter(bool))
    def test_quo_ground_terms_and_lc(self, x, c):
        a, sa = _pair(x)
        _same((a * c).quo_ground(c), (sa * c).quo_ground(c))
        assert a.terms() == [(tuple(m), int(k)) for m, k in sa.terms()]
        assert sorted(a, reverse=True) == [tuple(m) for m in sa.monoms()]
        assert a.LC == int(sa.LC)

    @settings(max_examples=150, deadline=None)
    @given(_dicts, _dicts)
    def test_equal_values_hash_equal(self, x, y):
        a, b = IntPoly2(x), IntPoly2(y)
        for p, r in (((a + b) - b, a), (a * b, b * a), (a + b, b + a)):
            assert p == r and hash(p) == hash(r)
        assert hash(a) == hash(IntPoly2(dict(a)))

    def test_ring_constructors(self):
        assert RING.zero == 0 and not RING.zero
        assert RING.one == 1 and RING.ground_new(0) == RING.zero
        assert RING.term_new((2, 1), 0) == RING.zero
        assert RING.term_new((2, 1), -3) == -3 * q**2 * v
        assert str(RING.ground_new(-7)) == "-7"


@lru_cache(maxsize=None)
def _cyclotomic(d):
    """Phi_d(x) from sympy, as a dense list lowest power first."""
    from sympy import Poly, cyclotomic_poly, symbols

    x = symbols("x")
    return [int(c) for c in reversed(Poly(cyclotomic_poly(d, x), x).all_coeffs())]


def _on_monomial(dense, a, b):
    return IntPoly2({(e * a, e * b): c for e, c in enumerate(dense) if c})


# primitive monomials q^a v^b
_STEPS = [(a, b) for a in range(3) for b in range(3) if (a or b) and gcd(a, b) == 1]
_cyclotomics = st.builds(
    lambda d, step: _on_monomial(_cyclotomic(d), *step),
    st.integers(1, 12),
    st.sampled_from(_STEPS),
)


@lru_cache(maxsize=None)
def _irreducible(f):
    u, parts = f.factor_list()
    return u == 1 and parts == [(f, 1)]


def _check_factoring(p):
    u, fac = ratfunc._factor(p)
    back = RING.ground_new(u)
    for f, k in fac.items():
        assert f.poly.LC > 0
        assert _irreducible(f.poly)
        back = back * f.poly**k
    assert back == p


class TestFactor:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_cyclotomics, min_size=1, max_size=3),
        st.integers(1, 6),
        st.sampled_from([1, -1]),
    )
    # (1 - q^4 t)(1 - q^5 t), which P by cst inverts
    @example([1 - q**4 * v**2, 1 - q**5 * v**2], 1, 1)
    @example([1 - v**2, 1 - q**2], 2, -1)
    def test_cyclotomics_in_monomials_without_sympy(self, fs, c, sign):
        def refuse(self):
            raise AssertionError("a product of cyclotomics went to sympy")

        p = RING.ground_new(sign * c)
        for f in fs:
            p = p * f
        factor_list = IntPoly2.factor_list
        IntPoly2.factor_list = refuse
        try:
            ratfunc._factor(p)
        finally:
            IntPoly2.factor_list = factor_list
        _check_factoring(p)

    @pytest.mark.parametrize(
        "p", [2 - q, q - v**2, 1 + q + v, 1 - q + q * v, (1 - q) * (q - v**2)], ids=str
    )
    def test_what_is_not_cyclotomic_falls_back(self, p):
        _check_factoring(p)


class TestKron:
    """Polynomials packed into ints by Kronecker substitution: the ring
    operations, the range and guard tests, and certified division."""

    @settings(max_examples=100, deadline=None)
    @given(_dicts, _dicts, st.sampled_from([(16, 8), (32, 13), (128, 8)]))
    def test_ring_operations(self, x, y, layout):
        K = _kron(*layout)
        a, b = IntPoly2(x), IntPoly2(y)
        A, B = K.pack(a), K.pack(b)
        assert K.unpack(A) == a and type(K.unpack(A)) is IntPoly2
        assert K.unpack(A + B) == a + b and K.unpack(A - B) == a - b
        assert K.unpack(K.t(A)) == a.mul_monom((0, 2))
        assert K.unpack(K.shift(A, (2, 1))) == a.mul_monom((2, 1))
        assert K.unpack(K.by(b)(A)) == a * b
        for c in (1 - q * v**2, v**2 - 1, q**2 - v**4):  # by two shifts
            assert K.unpack(K.by(c)(A)) == a * c

    @settings(max_examples=100, deadline=None)
    @given(_dicts, st.sampled_from([(16, 8), (32, 13), (64, 5), (128, 8)]))
    def test_pack_is_the_substitution(self, x, layout):
        # p(2^(BW), 2^B) computed directly, through memoryview lanes and
        # through the int.from_bytes lanes a big-endian host reads
        B, W = layout
        a = IntPoly2(x)
        want = sum(c << B * (i * W + j) for (i, j), c in a.items())
        K = _kron(B, W)
        assert K.pack(a) == want and K.unpack(want) == a
        with patch.dict(zpoly._LANES, clear=True):
            assert K.pack(a) == want and K.unpack(want) == a

    @settings(max_examples=100, deadline=None)
    @given(_dicts, st.integers(0, 4), st.integers(0, 6))
    def test_range_and_guard(self, x, r, g):
        K = _kron(16, 7)
        a = IntPoly2(x)
        want = all(-(2**r) <= c < 2**r for c in a.values()) and all(
            j < 7 - g for _, j in a
        )
        assert K.fits(K.pack(a), r, g) == want

    def test_out_of_range_refused(self):
        K = _kron(16, 4)
        assert K.unpack(K.pack(IntPoly2({(1, 3): -(2**14)}))) == -(2**14) * q * v**3
        for bad in ({(0, 0): 2**14}, {(0, 4): 1}):
            with pytest.raises(InvariantViolation):
                K.pack(IntPoly2(bad))
        with pytest.raises(InvariantViolation):
            K.unpack(2**14)  # one lane of 2^14 leaves no 2 bits to spare

    def test_division_that_would_spill_is_refused(self):
        # v^3 - q = -v^3 (v - 1) as ints in rows of 4, since q packs as v^4:
        # the quotient's top lane is the guard, so v - 1 does not divide
        f = ratfunc._intern(v - 1)
        for W in (4, 8):
            K = _kron(16, W)
            P = K.pack(v**3 - q)
            assert P % K.pack(f.poly) == 0
            assert K.cancel([P], {f: 1}, 1) == ([P], {f: 1}, 1)
        assert ratfunc._cancel([v**3 - q], {f: 1}, 1) == ([v**3 - q], {f: 1}, 1)

    def test_division_whose_quotient_could_overflow_is_refused(self):
        # v - 1 has |f|_1 = 2, so in 16-bit lanes a quotient must stay in
        # [-2^13, 2^13) for f Q to stay within 2^14 in size
        f = ratfunc._intern(v - 1)
        K = _kron(16, 8)
        for h, divides in ((2**13 - 1, True), (2**13, False), (-(2**13), True)):
            P = K.pack((v - 1) * h)
            polys, left, _ = K.cancel([P], {f: 2}, 1)
            assert (left == {f: 1}) == divides and (polys == [P]) != divides
        assert K.unpack(K.cancel([K.pack((v - 1) * 5)], {f: 2}, 1)[0][0]) == 5

    def test_cancel_refuses_an_int_part(self):
        # ratfunc._cancel would divide 2 out of 2 v - 2 and c = 2
        f = ratfunc._intern(v - 1)
        K = _kron(16, 8)
        with pytest.raises(InvariantViolation):
            K.cancel([K.pack((v - 1) * 2)], {f: 1}, 2)

    def test_q_and_line_factors(self):
        K = _kron(32, 12)
        f = ratfunc._intern(q * v**2 - 1)
        polys = [q**2 * v * (q * v**2 - 1) * 2, q**3 * (q * v**2 - 1)**2 * 4]
        fac = {ratfunc._FQ: 5, f: 3}
        got, left, c = K.cancel([K.pack(p) for p in polys], fac, 1)
        want, wleft, wc = ratfunc._cancel(polys, fac, 1)
        assert [K.unpack(P) for P in got] == want == [2 * v, 4 * q * (q * v**2 - 1)]
        assert left == wleft == {ratfunc._FQ: 3, f: 2} and c == wc == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_cyclotomics, min_size=1, max_size=3),
        st.lists(_dicts.filter(bool), min_size=1, max_size=3),
        st.integers(1, 3),
    )
    def test_cancel_matches_the_field(self, fs, xs, k):
        fac = {}
        for f in fs:
            u, parts = ratfunc._factor(f)
            for g, m in parts.items():
                fac[g] = fac.get(g, 0) + m * k
        prod = RING.one
        for f in fs:
            prod = prod * f
        polys = [prod * IntPoly2(x) for x in xs]
        K = _kron(64, 96)
        got, left, c = K.cancel([K.pack(p) for p in polys], fac, 1)
        want, wleft, wc = ratfunc._cancel(polys, fac, 1)
        assert [K.unpack(P) for P in got] == want
        assert left == wleft and c == wc == 1

    def test_fit_repacks_only_when_short_of_room(self):
        K = _kron(16, 8)
        polys = [1 - q * v**2, 3 * v**5 - q**2]
        N = {(e,): K.pack(p) for e, p in enumerate(polys)}
        assert K.fit(N, 4, 2) == (K, N)
        for k, d, B in ((4, 3, 16), (2**20, 0, 32), (2**40, 4, 64)):
            ring, M = K.fit(N, k, d)
            # room for k-fold coefficients and d more v-degrees
            assert ring.B == B and ring.W >= 6 + d and M.keys() == N.keys()
            assert [ring.unpack(M[e]) for e in sorted(M)] == polys
            r = ring.B - 2 - k.bit_length()
            assert all(ring.fits(P, r, d) for P in M.values())
            with patch.dict(zpoly._LANES, clear=True):
                assert K.fit(N, k, d) == (ring, M)


_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _sympy_modules_after(code):
    """The sympy modules loaded once code has run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    code += (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestNoSympyOnImportPath:
    def test_import(self):
        assert _sympy_modules_after("import maclab") == []

    def test_readme_commands_cst_and_verify(self):
        argvs = readme_commands() + [
            ["P", "--n", "4", "--lam", "3,2,1,0", "--method", "cst"],
            ["verify", "--suite", "all", "--n", "4"],
        ]
        code = (
            "import contextlib, io\n"
            "from maclab.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0, argv\n"
        )
        assert _sympy_modules_after(code) == []

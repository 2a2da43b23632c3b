"""The owned ring Z[q, v] against sympy's ZZ[q, v] as an independent
oracle, factoring without sympy, and sympy off the import path."""

import json
import os
import subprocess
import sys
from functools import lru_cache
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.rings import ring

from maclab import ratfunc
from maclab.zpoly import QGEN, RING, VGEN, IntPoly2
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
        assert a.monoms() == [tuple(m) for m in sa.monoms()]
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

"""The Laurent polynomial carrier ring."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Q, T, frac, laurent_polys, lp, random_laurent
from maclab import permutations as fperm
from maclab.errors import InvalidInputError
from maclab.laurent import LaurentPoly, lp_arith, lp_coeff, lp_shift_qn, lp_subst_perm
from maclab.macdonald import compute_E, compute_F, compute_P
from maclab.ratfunc import RF_ONE, RatFunc, one_minus, poly_terms

x1, x2, x3 = (LaurentPoly.x(i, 3) for i in (1, 2, 3))


# -- the reference renderers: a dict per term and per coefficient, and the
# plain or LaTeX form one term at a time, with nothing shared between terms


def reference_coeff_json(c):
    def side(p):
        return [{"q": eq, "v": ev, "c": str(k)} for (eq, ev), k in poly_terms(p)]

    return {"num": side(c.num), "den": side(c.den)}


def reference_json(f):
    return [
        {"x": list(e), "coeff": reference_coeff_json(c)} for e, c in f.sorted_terms()
    ]


def reference_string(f, latex):
    if not f.terms:
        return "0"
    sep = " " if latex else "*"
    bits = []
    for e, c in f.sorted_terms():
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
        cs = c.to_t_string(latex=latex)
        if c.is_one() and mono_s:
            bits.append(mono_s)
        elif not mono_s:
            bits.append(cs)
        else:
            if c.is_v_monomial():
                wrap = cs
            elif latex:
                wrap = f"\\left({cs}\\right)"
            else:
                wrap = f"({cs})"
            bits.append(f"{wrap}{sep}{mono_s}")
    return " + ".join(bits)


def assert_renders_as_reference(f):
    want = reference_json(f)
    assert f.to_json() == json.dumps(want, separators=(",", ":"))
    assert f.to_json_obj() == want
    for c in f.terms.values():
        assert c.to_json_obj() == reference_coeff_json(c)
    for latex in (False, True):
        if f.has_even_v():
            assert f.to_string(latex) == reference_string(f, latex)
        else:
            with pytest.raises(InvalidInputError):
                f.to_string(latex)


@st.composite
def shared_coefficient_polys(draw, n):
    """laurent_polys(n) with some terms set to the coefficient object of
    another term, as hecke._join shares one RatFunc per numerator."""
    f = draw(laurent_polys(n))
    rng = draw(st.randoms(use_true_random=False))
    pool = list(f.terms.values())
    terms = dict(f.terms)
    for _ in range(rng.randint(0, 4) if pool else 0):
        e = tuple(rng.randint(-2, 2) for _ in range(n))
        terms[e] = rng.choice(pool)
    return LaurentPoly(n, terms)


class TestArith:
    def test_monomial_product(self):
        assert lp_arith(x1, x2, "mul") == lp(3, {(1, 1, 0): RF_ONE})

    def test_difference_of_squares(self):
        assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2

    def test_additive_identity(self):
        E = compute_E((2, 1, 0)).poly
        assert lp_arith(E, LaurentPoly.zero(3), "add") == E

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            lp_arith(x1, LaurentPoly.x(1, 2), "add")

    def test_no_zero_coefficients_stored(self):
        f = x1 - x1
        assert f.terms == {}
        g = lp(3, {(1, 0, 0): RatFunc.from_int(0)})
        assert g.terms == {}

    def test_variable_index_out_of_range(self):
        # index 0 would wrap to x_n through e[-1]
        for i in (0, 4, -1):
            with pytest.raises(InvalidInputError):
                LaurentPoly.x(i, 3)

    def test_monomial_shift_needs_length_n(self):
        # zip would truncate a short shift and leave a short exponent
        assert x1.mul_monomial((0, 1, -1)) == lp(3, {(1, 1, -1): RF_ONE})
        for shift in ((1,), (1, 0, 0, 0)):
            with pytest.raises(InvalidInputError):
                x1.mul_monomial(shift)


class TestCoeff:
    def test_leading_coefficient_of_E(self):
        E = compute_E((2, 1, 0)).poly
        assert lp_coeff(E, (2, 1, 0)) == RF_ONE

    def test_interior_coefficient_of_E(self):
        E = compute_E((2, 1, 0)).poly
        assert lp_coeff(E, (1, 1, 1)) == frac(1, 2) * Q

    def test_absent_coefficient(self):
        assert lp_coeff(x1 * x2, (3, 0, 0)).is_zero()


class TestSubstPerm:
    def test_transposition(self):
        f = x1 * x2 * x2
        assert lp_subst_perm(f, (2, 1, 3)) == x1 * x1 * x2

    def test_cycle_pinned_by_kz(self):
        # w = s1 s2 with w(1)=2, w(2)=3, w(3)=1 sends x1 x3^2 to x2 x1^2
        f = x1 * x3 * x3
        assert lp_subst_perm(f, (2, 3, 1)) == x2 * x1 * x1

    def test_identity(self):
        f = x1 * x2 + x3.scale(T)
        assert lp_subst_perm(f, (1, 2, 3)) == f

    def test_group_action(self):
        rng = random.Random(2)
        perms = fperm.all_perms(3)
        for _ in range(20):
            f = random_laurent(rng, 3)
            w = perms[rng.randrange(len(perms))]
            w2 = perms[rng.randrange(len(perms))]
            lhs = lp_subst_perm(lp_subst_perm(f, w), w2)
            assert lhs == lp_subst_perm(f, fperm.compose(w2, w))

    def test_not_a_permutation(self):
        with pytest.raises(InvalidInputError):
            lp_subst_perm(x1, (1, 1, 3))


class TestShiftQn:
    def test_pure_power(self):
        f = x3 * x3
        assert lp_shift_qn(f) == f.scale(RatFunc.q_power(-2))

    def test_no_xn(self):
        f = x1 * x2
        assert lp_shift_qn(f) == f

    def test_full_monomial(self):
        f = x1 * x2 * x3
        assert lp_shift_qn(f) == f.scale(RatFunc.q_power(-1))

    def test_commutes_with_perms_fixing_n(self):
        rng = random.Random(9)
        for _ in range(10):
            f = random_laurent(rng, 3)
            w = (2, 1, 3)
            assert lp_shift_qn(lp_subst_perm(f, w)) == lp_subst_perm(
                lp_shift_qn(f), w
            )


class TestPresentation:
    def test_sorted_terms_lex(self):
        f = x3 + x1 + x2
        assert [e for e, _ in f.sorted_terms()] == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        ]

    def test_json_terms_sorted(self):
        f = x2 + x1.scale(frac(1, 2))
        obj = f.to_json_obj()
        assert [d["x"] for d in obj] == [[0, 1, 0], [1, 0, 0]]

    @settings(max_examples=80, deadline=None)
    @given(shared_coefficient_polys(2))
    def test_renders_as_the_reference(self, f):
        assert_renders_as_reference(f)

    def test_coefficients_sharing_a_denominator(self):
        # equal denominators with different numerators, equal numerators
        # with different denominators, denominators told apart only by
        # their integer part or by a multiplicity, and one denominator
        # with its factors in two orders: a memo keyed by anything coarser
        # than the coefficient object, or a denominator memo keyed by
        # anything coarser than the factor multiset, prints a wrong
        # coefficient
        t = RatFunc.t_power(1)
        a = one_minus(Q * t).inverse()
        b = one_minus(Q * Q * t).inverse()
        half, third = RatFunc.from_int(2).inverse(), RatFunc.from_int(3).inverse()
        coeffs = [a, Q * a, b, Q * b, half, third, Q * half, a * b, b * a, a * a]
        f = LaurentPoly(1, {(k,): c for k, c in enumerate(coeffs)})
        assert_renders_as_reference(f)
        assert f.to_string() == (
            "(-1)/(q*t - 1) + ((-q)/(q*t - 1))*x1 + ((-1)/(q^2*t - 1))*x1^2"
            " + ((-q)/(q^2*t - 1))*x1^3 + ((1)/(2))*x1^4 + ((1)/(3))*x1^5"
            " + ((q)/(2))*x1^6 + ((1)/(q^3*t^2 - q^2*t - q*t + 1))*x1^7"
            " + ((1)/(q^3*t^2 - q^2*t - q*t + 1))*x1^8"
            " + ((1)/(q^2*t^2 - 2*q*t + 1))*x1^9"
        )

    def test_repr_renders_odd_powers_of_v(self):
        # F_(0,1) has odd powers of t^(1/2): repr shows it in q and v, and
        # the q, t renderings still refuse it
        f = compute_F((0, 1)).poly
        c = "((q*v^4 - 1)/(q*v^3 - v))"
        assert repr(f) == f"LaurentPoly(2, '{c}*x2 + {c}*x1')"
        for latex in (False, True):
            with pytest.raises(InvalidInputError):
                f.to_string(latex)
        assert repr(x1 + x2.scale(T)) == "LaurentPoly(3, 't*x2 + x1')"

    def test_import_loads_no_json(self):
        # documents are built as text; json loads only where one is parsed
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, maclab; print(sorted(m for m in sys.modules if 'json' in m))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_documents_of_the_constructions(self):
        # coefficient objects shared by many terms, as the joins make them
        # (F_(0,1,2) has odd powers of t^(1/2), so only its JSON renders)
        for f in (compute_P((3, 1, 0)).poly, compute_F((0, 1, 2)).poly):
            assert len({id(c) for c in f.terms.values()}) < len(f.terms)
            assert_renders_as_reference(f)


class TestProperties:
    """Ring laws on random polynomials with negative exponents and
    coefficients in the field."""

    @settings(max_examples=60, deadline=None)
    @given(laurent_polys(2), laurent_polys(2), laurent_polys(2))
    def test_ring_laws(self, a, b, c):
        # (a + b) - a cancels the terms of a; (a + b) * (a - b) cancels
        # ab against ba inside one product
        for f in (a + b, a - b, a * b, (a + b) - a, (a + b) * (a - b)):
            assert not any(x.is_zero() for x in f.terms.values())
        assert (a - b) + b == a
        assert (a + b) - a == b
        assert a * (b + c) == a * b + a * c
        assert (a + b) * (a - b) == a * a - b * b

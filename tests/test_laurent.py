"""The Laurent polynomial carrier ring."""

import random

import pytest
from hypothesis import given, settings

from conftest import Q, T, frac, laurent_polys, lp, random_laurent
from maclab import permutations as fperm
from maclab.errors import InvalidInputError
from maclab.laurent import LaurentPoly, lp_arith, lp_coeff, lp_shift_qn, lp_subst_perm
from maclab.macdonald import compute_E
from maclab.ratfunc import RF_ONE, RatFunc

x1, x2, x3 = (LaurentPoly.x(i, 3) for i in (1, 2, 3))


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

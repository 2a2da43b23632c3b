"""The polynomial representation: T_i, g, g_vee, Y_i, 1_0, X^omega."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Q, T, laurent_polys, random_laurent
from maclab import hecke
from maclab import permutations as fperm
from maclab.errors import InvalidInputError, InvariantViolation
from maclab.hecke import (
    _join,
    _split,
    apply_g,
    apply_g_inv,
    apply_gvee,
    apply_operator_word,
    apply_symmetrizer,
    apply_T,
    apply_T_inv,
    apply_T_reference,
    apply_tT,
    apply_tT_word,
    apply_X_omega,
    apply_Y,
    apply_Y_inv,
    divided_difference_part,
    hecke_symmetrize_sum,
    lp_divexact_xdiff,
    poincare_poly,
    poincare_stabilizer,
)
from maclab.laurent import LaurentPoly
from maclab.ratfunc import RF_ONE, RatFunc

x1, x2, x3 = (LaurentPoly.x(i, 3) for i in (1, 2, 3))
V = RatFunc.v_power(1)
VINV = RatFunc.v_power(-1)


class TestDemazureLusztig:
    def test_action_on_variables(self):
        # the closed action of t^(1/2) T_r on the variables
        assert apply_tT(1, x1) == x2
        assert apply_tT(1, x2) == x1.scale(T) + x2.scale(T - RF_ONE)
        assert apply_tT(1, x3) == x3.scale(T)

    def test_symmetric_polynomial_eigenvector(self):
        f = x1 * x2 + x2 * x1 + (x1 + x2) * x3
        assert apply_T(1, f) == f.scale(V)

    def test_inverse_law(self):
        rng = random.Random(31)
        for _ in range(10):
            f = random_laurent(rng, 3)
            assert apply_T_inv(1, apply_T(1, f)) == f
            assert apply_T(2, apply_T_inv(2, f)) == f

    def test_quadratic_relation(self):
        rng = random.Random(37)
        for _ in range(20):
            f = random_laurent(rng, 3)
            i = rng.choice((1, 2))
            lhs = apply_T(i, apply_T(i, f))
            assert lhs == apply_T(i, f).scale(V - VINV) + f

    def test_braid_relations(self):
        rng = random.Random(41)
        for _ in range(20):
            f = random_laurent(rng, 4)
            assert apply_T(1, apply_T(2, apply_T(1, f))) == apply_T(
                2, apply_T(1, apply_T(2, f))
            )
            assert apply_T(1, apply_T(3, f)) == apply_T(3, apply_T(1, f))

    def test_fast_path_matches_divided_difference(self):
        rng = random.Random(43)
        for _ in range(10):
            f = random_laurent(rng, 3)
            i = rng.choice((1, 2))
            assert apply_T(i, f) == apply_T_reference(i, f)

    def test_exact_division_guard(self):
        with pytest.raises(InvariantViolation):
            lp_divexact_xdiff(x1 + x2, 1)

    @pytest.mark.parametrize("i", [-1, 0, 3])
    def test_reference_route_rejects_missing_index(self, i):
        # s_i, x_i - x_{i+1} and T_i exist only for 1 <= i <= n - 1
        f = x1 + x2 * x3
        with pytest.raises(InvalidInputError):
            fperm.simple(i, 3)
        with pytest.raises(InvalidInputError):
            lp_divexact_xdiff(x3 - x1, i)
        with pytest.raises(InvalidInputError):
            divided_difference_part(i, f)
        with pytest.raises(InvalidInputError):
            apply_T_reference(i, f)

    def test_laurent_monomials(self):
        # the operators live on the full Laurent ring
        rng = random.Random(89)
        for _ in range(10):
            e = tuple(rng.randint(-3, 3) for _ in range(3))
            f = LaurentPoly.monomial(e)
            i = rng.choice((1, 2))
            assert apply_T(i, f) == apply_T_reference(i, f)
            assert apply_T_inv(i, apply_T(i, f)) == f


class TestProperties:
    """T_i on random polynomials with negative exponents and coefficients
    in the field."""

    @settings(max_examples=40, deadline=None)
    @given(laurent_polys(3), st.sampled_from((1, 2)))
    def test_fast_path_matches_divided_difference(self, f, i):
        assert apply_T(i, f) == apply_T_reference(i, f)

    @settings(max_examples=40, deadline=None)
    @given(laurent_polys(3), st.sampled_from((1, 2)))
    def test_quadratic_relation(self, f, i):
        assert apply_T(i, apply_T(i, f)) == apply_T(i, f).scale(V - VINV) + f

    @settings(max_examples=25, deadline=None)
    @given(laurent_polys(4))
    def test_braid_relations(self, f):
        for i, j in ((1, 2), (2, 3)):
            assert apply_T(i, apply_T(j, apply_T(i, f))) == apply_T(
                j, apply_T(i, apply_T(j, f))
            )
        assert apply_T(1, apply_T(3, f)) == apply_T(3, apply_T(1, f))


def reference_word(word, f):
    """T_z f letter by letter through the divided difference."""
    for i in reversed(word):
        f = apply_T_reference(i, f)
    return f


class TestSharedDenominator:
    """The operators run on integer numerators over one denominator; the
    divided difference (`apply_T_reference`) stays the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(laurent_polys(3))
    def test_split_join_round_trip(self, f):
        S, N = _split(f)
        assert all(N.values())
        assert _join(3, S, N) == f

    @settings(max_examples=40, deadline=None)
    @given(laurent_polys(3), st.lists(st.sampled_from((1, 2)), max_size=4))
    def test_word_matches_divided_difference(self, f, word):
        want = reference_word(word, f).scale(RatFunc.v_power(len(word)))
        assert apply_tT_word(word, f) == want

    @settings(max_examples=25, deadline=None)
    @given(laurent_polys(3))
    def test_symmetrize_sum_matches_brute_force(self, f):
        want = LaurentPoly.zero(3)
        for z in fperm.all_perms(3):
            word = fperm.reduced_word(z)
            want = want + reference_word(word, f).scale(
                RatFunc.v_power(len(word))
            )
        assert hecke_symmetrize_sum(f) == want

    @settings(max_examples=25, deadline=None)
    @given(laurent_polys(3), st.sampled_from((1, 2)))
    def test_inverse_matches_divided_difference(self, f, i):
        want = apply_T_reference(i, f) - f.scale(V - VINV)
        assert apply_T_inv(i, f) == want


class TestGOperators:
    def test_g_on_monomials(self):
        assert apply_g(x1 * x1 * x2) == x2 * x2 * x3
        assert apply_g(x1 * x2 * x3) == (x1 * x2 * x3).scale(RatFunc.q_power(-1))

    def test_g_inverse(self):
        rng = random.Random(47)
        for _ in range(10):
            f = random_laurent(rng, 3)
            assert apply_g_inv(apply_g(f)) == f

    def test_gvee_of_one(self):
        assert apply_gvee(LaurentPoly.one(3)) == x1.scale(T)

    @settings(max_examples=40, deadline=None)
    @given(laurent_polys(3))
    def test_g_matches_substitution(self, f):
        # the numerator letters against x_3 -> q^-1 x_3, x_i -> x_(i+1 mod 3)
        for h in (f, LaurentPoly.zero(3)):
            assert apply_g(h) == h.shift_qn().subst_perm((2, 3, 1))
            assert apply_g(apply_g_inv(h)) == h


class TestCherednik:
    def test_Y1_small(self):
        y = apply_Y(1, LaurentPoly.x(1, 2))
        assert y == LaurentPoly.x(1, 2).scale(RatFunc.q_power(-1) * VINV)

    def test_Y_on_constants(self):
        for n in (2, 3, 4):
            for i in range(1, n + 1):
                got = apply_Y(i, LaurentPoly.one(n))
                want = LaurentPoly.one(n).scale(
                    RatFunc.v_power(n - 1 - 2 * (i - 1))
                )
                assert got == want

    def test_Y_inverse_law(self):
        rng = random.Random(53)
        for n in (2, 3, 4):
            f = random_laurent(rng, n, deg=3, terms=3)
            for i in range(1, n + 1):
                assert apply_Y_inv(i, apply_Y(i, f)) == f
                assert apply_Y(i, apply_Y_inv(i, f)) == f

    def test_Y_commute_all_monomials(self):
        # the stated invariant: all monomials of degree <= 4, n <= 4
        for n in (2, 3, 4):
            for deg in range(5):
                for e in itertools.product(range(deg + 1), repeat=n):
                    if sum(e) != deg:
                        continue
                    m = LaurentPoly.monomial(e)
                    ys = {i: apply_Y(i, m) for i in range(1, n + 1)}
                    for i in range(1, n + 1):
                        for j in range(i + 1, n + 1):
                            assert apply_Y(i, ys[j]) == apply_Y(j, ys[i])


class TestOperatorWords:
    def test_known_composite(self):
        # Y_1 = g T_{n-1} ... T_1 as a word
        from maclab.hecke import apply_operator_word

        rng = random.Random(97)
        for _ in range(5):
            f = random_laurent(rng, 3)
            assert apply_operator_word(["g", "T2", "T1"], f) == apply_Y(1, f)
            assert apply_operator_word(["1_0", "T1"], f) == apply_symmetrizer(
                apply_T(1, f)
            )

    def test_index_validation(self):
        from maclab.errors import InvalidInputError
        from maclab.hecke import apply_operator_word

        with pytest.raises(InvalidInputError):
            apply_operator_word(["T3"], LaurentPoly.one(3))
        with pytest.raises(InvalidInputError):
            apply_operator_word(["Y4"], LaurentPoly.one(3))
        with pytest.raises(InvalidInputError):
            apply_operator_word(["Z1"], LaurentPoly.one(3))

    def test_tags_match_single_calls(self):
        rng = random.Random(101)
        for _ in range(3):
            f = random_laurent(rng, 3)
            assert apply_operator_word(["Y2"], f) == apply_Y(2, f)
            assert apply_operator_word([], f) == f
            got = apply_operator_word(["gvee", "g^-1", "1_0", "T2^-1"], f)
            want = apply_gvee(apply_g_inv(apply_symmetrizer(apply_T_inv(2, f))))
            assert got == want


class TestOneExecutor:
    """Every operator runs its letters between one split and one join."""

    @pytest.mark.parametrize(
        "op, args",
        [
            (apply_Y, (3,)),
            (apply_Y_inv, (3,)),
            (apply_X_omega, (2,)),
            (apply_operator_word, (["Y2", "T1^-1", "g"],)),
        ],
        ids=["Y3", "Y3_inv", "X_omega2", "word"],
    )
    def test_one_split_one_join(self, monkeypatch, op, args):
        calls = {"_split": 0, "_join": 0}
        for name in calls:
            def counted(*a, _name=name, _fn=getattr(hecke, name)):
                calls[_name] += 1
                return _fn(*a)

            monkeypatch.setattr(hecke, name, counted)
        op(*args, random_laurent(random.Random(59), 4))
        assert calls == {"_split": 1, "_join": 1}


class TestSymmetrizer:
    def test_poincare_poly(self):
        w0 = poincare_poly(3)
        want = (RF_ONE + T) * (RF_ONE + T + RatFunc.t_power(2))
        assert w0 == want

    def test_poincare_stabilizer(self):
        assert poincare_stabilizer((2, 1, 0)) == RF_ONE
        assert poincare_stabilizer((2, 2, 0)) == RF_ONE + T
        assert poincare_stabilizer((1, 1, 1)) == poincare_poly(3)

    def test_T_fixes_symmetrized(self):
        rng = random.Random(59)
        for _ in range(5):
            f = random_laurent(rng, 3)
            g = apply_symmetrizer(f)
            for i in (1, 2):
                assert apply_T(i, g) == g.scale(V)

    def test_sum_operator_squares_to_W0_times_itself(self):
        # the square law for the sum S = sum_z t^(l(z)/2) T_z: S S f = W0(t) S f
        rng = random.Random(61)
        w0 = poincare_poly(3)
        for _ in range(5):
            f = random_laurent(rng, 3)
            sf = hecke_symmetrize_sum(f)
            assert hecke_symmetrize_sum(sf) == sf.scale(w0)

    def test_normalized_idempotent_scalar(self):
        # for 1_0 = t^(-l(w0)/2) S the square picks up exactly that scalar:
        # 1_0 1_0 f = t^(-l(w0)/2) W0(t) 1_0 f
        rng = random.Random(67)
        w0 = poincare_poly(3)
        for _ in range(3):
            f = random_laurent(rng, 3)
            g = apply_symmetrizer(f)
            assert apply_symmetrizer(g) == g.scale(RatFunc.v_power(-3) * w0)


class TestXOmega:
    def test_on_one(self):
        for n in (2, 3, 4):
            for r in range(1, n + 1):
                want = LaurentPoly.monomial((1,) * r + (0,) * (n - r))
                assert apply_X_omega(r, LaurentPoly.one(n)) == want

    def test_is_multiplication_both_words(self):
        rng = random.Random(71)
        for n in (3, 4):
            xs = LaurentPoly.one(n)
            for r in range(1, n + 1):
                xs = xs * LaurentPoly.x(r, n)
                for _ in range(3):
                    f = random_laurent(rng, n)
                    assert apply_X_omega(r, f, "A") == xs * f
                    assert apply_X_omega(r, f, "B") == xs * f

    @pytest.mark.parametrize("word_form", ["Z", "a", ""])
    def test_unknown_word_form_rejected(self, word_form):
        with pytest.raises(InvalidInputError):
            apply_X_omega(2, x1 + x3, word_form)

    def test_top_case_is_gvee_power(self):
        rng = random.Random(73)
        n = 3
        for _ in range(5):
            f = random_laurent(rng, n)
            got = f
            for _ in range(n):
                got = apply_gvee(got)
            assert apply_X_omega(n, f) == got

    def test_gl2_relations(self):
        rng = random.Random(79)
        y1, y2 = LaurentPoly.x(1, 2), LaurentPoly.x(2, 2)
        for _ in range(20):
            f = random_laurent(rng, 2)
            assert apply_gvee(apply_T_inv(1, f)) == y1 * f  # X_1
            assert apply_T(1, apply_gvee(f)) == y2 * f  # X_2 = T_1 g_vee
            assert apply_gvee(apply_gvee(f)) == y1 * y2 * f  # X_1 X_2
            # X_1^(k+1) T_1 = (g_vee T_1^-1)^k g_vee for k = 2
            lhs = apply_T(1, f)
            for _ in range(3):
                lhs = apply_gvee(apply_T_inv(1, lhs))
            rhs = apply_gvee(f)
            for _ in range(2):
                rhs = apply_gvee(apply_T_inv(1, rhs))
            assert lhs == rhs

"""The polynomial representation: T_i, g, g_vee, Y_i, 1_0, X^omega."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Q, T, laurent_polys, random_laurent, random_ratfunc
from maclab import hecke
from maclab import permutations as fperm
from maclab.errors import InvalidInputError, InvariantViolation
from maclab.hecke import (
    _join,
    _split,
    apply_operator_word,
    apply_T_reference,
    apply_X_omega,
    divided_difference_part,
    lp_divexact_xdiff,
    poincare_poly,
    poincare_stabilizer,
)
from maclab.laurent import LaurentPoly
from maclab.ratfunc import RF_ONE, RatFunc

x1, x2, x3 = (LaurentPoly.x(i, 3) for i in (1, 2, 3))
V = RatFunc.v_power(1)
VINV = RatFunc.v_power(-1)


def op(tag, f):
    return apply_operator_word([tag], f)


class TestDemazureLusztig:
    def test_action_on_variables(self):
        # the closed action of t^(1/2) T_r on the variables
        assert op("T1", x1).scale(V) == x2
        assert op("T1", x2).scale(V) == x1.scale(T) + x2.scale(T - RF_ONE)
        assert op("T1", x3).scale(V) == x3.scale(T)

    def test_symmetric_polynomial_eigenvector(self):
        f = x1 * x2 + x2 * x1 + (x1 + x2) * x3
        assert op("T1", f) == f.scale(V)

    def test_inverse_law(self):
        rng = random.Random(31)
        for _ in range(10):
            f = random_laurent(rng, 3)
            assert op("T1^-1", op("T1", f)) == f
            assert op("T2", op("T2^-1", f)) == f

    def test_quadratic_relation(self):
        rng = random.Random(37)
        for _ in range(20):
            f = random_laurent(rng, 3)
            i = rng.choice((1, 2))
            lhs = op(f"T{i}", op(f"T{i}", f))
            assert lhs == op(f"T{i}", f).scale(V - VINV) + f

    def test_braid_relations(self):
        rng = random.Random(41)
        for _ in range(20):
            f = random_laurent(rng, 4)
            assert op("T1", op("T2", op("T1", f))) == op(
                "T2", op("T1", op("T2", f))
            )
            assert op("T1", op("T3", f)) == op("T3", op("T1", f))

    def test_fast_path_matches_divided_difference(self):
        rng = random.Random(43)
        for _ in range(10):
            f = random_laurent(rng, 3)
            i = rng.choice((1, 2))
            assert op(f"T{i}", f) == apply_T_reference(i, f)

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
            assert op(f"T{i}", f) == apply_T_reference(i, f)
            assert op(f"T{i}^-1", op(f"T{i}", f)) == f


class TestProperties:
    """T_i on random polynomials with negative exponents and coefficients
    in the field."""

    @settings(max_examples=40, deadline=None)
    @given(laurent_polys(3), st.sampled_from((1, 2)))
    def test_fast_path_matches_divided_difference(self, f, i):
        assert op(f"T{i}", f) == apply_T_reference(i, f)

    @settings(max_examples=40, deadline=None)
    @given(laurent_polys(3), st.sampled_from((1, 2)))
    def test_quadratic_relation(self, f, i):
        assert op(f"T{i}", op(f"T{i}", f)) == op(f"T{i}", f).scale(V - VINV) + f

    @settings(max_examples=25, deadline=None)
    @given(laurent_polys(4))
    def test_braid_relations(self, f):
        for i, j in ((1, 2), (2, 3)):
            assert op(f"T{i}", op(f"T{j}", op(f"T{i}", f))) == op(
                f"T{j}", op(f"T{i}", op(f"T{j}", f))
            )
        assert op("T1", op("T3", f)) == op("T3", op("T1", f))


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
        got = apply_operator_word([f"T{i}" for i in word], f)
        assert got.scale(RatFunc.v_power(len(word))) == want

    @settings(max_examples=25, deadline=None)
    @given(laurent_polys(3))
    def test_symmetrize_sum_matches_brute_force(self, f):
        want = LaurentPoly.zero(3)
        for z in fperm.all_perms(3):
            word = fperm.reduced_word(z)
            want = want + reference_word(word, f).scale(
                RatFunc.v_power(len(word))
            )
        # the sum is t^(l(w0)/2) 1_0, l(w0) = 3
        assert op("1_0", f).scale(RatFunc.v_power(3)) == want

    @settings(max_examples=25, deadline=None)
    @given(laurent_polys(3), st.sampled_from((1, 2)))
    def test_inverse_matches_divided_difference(self, f, i):
        want = apply_T_reference(i, f) - f.scale(V - VINV)
        assert op(f"T{i}^-1", f) == want

    @settings(max_examples=40, deadline=None)
    @given(laurent_polys(3), st.sampled_from((1, 2)), st.integers(0, 2**32))
    def test_walk_letters_match_the_field(self, f, i, seed):
        # the letters the E_mu walk runs: x1, and the intertwiner
        # t^(1/2) T_i + c, which moves c's denominator into S
        c = random_ratfunc(random.Random(seed))
        got = _join(3, *hecke._run(3, *_split(f), [("tau", (i, c))]))
        assert got == apply_T_reference(i, f).scale(V) + f.scale(c)
        got = _join(3, *hecke._run(3, *_split(f), [("x1", None)]))
        assert got == f.mul_monomial((1, 0, 0))


class TestGOperators:
    def test_g_on_monomials(self):
        assert op("g", x1 * x1 * x2) == x2 * x2 * x3
        assert op("g", x1 * x2 * x3) == (x1 * x2 * x3).scale(RatFunc.q_power(-1))

    def test_g_inverse(self):
        rng = random.Random(47)
        for _ in range(10):
            f = random_laurent(rng, 3)
            assert op("g^-1", op("g", f)) == f

    def test_gvee_of_one(self):
        assert op("gvee", LaurentPoly.one(3)) == x1.scale(T)

    @settings(max_examples=40, deadline=None)
    @given(laurent_polys(3))
    def test_g_matches_substitution(self, f):
        # the numerator letters against x_3 -> q^-1 x_3, x_i -> x_(i+1 mod 3)
        for h in (f, LaurentPoly.zero(3)):
            assert op("g", h) == h.shift_qn().subst_perm((2, 3, 1))
            assert op("g", op("g^-1", h)) == h


class TestCherednik:
    def test_Y1_small(self):
        y = op("Y1", LaurentPoly.x(1, 2))
        assert y == LaurentPoly.x(1, 2).scale(RatFunc.q_power(-1) * VINV)

    def test_Y_on_constants(self):
        for n in (2, 3, 4):
            for i in range(1, n + 1):
                got = op(f"Y{i}", LaurentPoly.one(n))
                want = LaurentPoly.one(n).scale(
                    RatFunc.v_power(n - 1 - 2 * (i - 1))
                )
                assert got == want

    def test_Y_inverse_law(self):
        rng = random.Random(53)
        for n in (2, 3, 4):
            f = random_laurent(rng, n, deg=3, terms=3)
            for i in range(1, n + 1):
                assert op(f"Y{i}^-1", op(f"Y{i}", f)) == f
                assert op(f"Y{i}", op(f"Y{i}^-1", f)) == f

    def test_Y_commute_all_monomials(self):
        # the stated invariant: all monomials of degree <= 4, n <= 4
        for n in (2, 3, 4):
            for deg in range(5):
                for e in itertools.product(range(deg + 1), repeat=n):
                    if sum(e) != deg:
                        continue
                    m = LaurentPoly.monomial(e)
                    ys = {i: op(f"Y{i}", m) for i in range(1, n + 1)}
                    for i in range(1, n + 1):
                        for j in range(i + 1, n + 1):
                            assert op(f"Y{i}", ys[j]) == op(f"Y{j}", ys[i])


class TestOperatorWords:
    def test_known_composite(self):
        # Y_1 = g T_{n-1} ... T_1 and Y_2 = T_1^-1 Y_1 T_1^-1 as words
        rng = random.Random(97)
        for _ in range(5):
            f = random_laurent(rng, 3)
            assert apply_operator_word(["g", "T2", "T1"], f) == op("Y1", f)
            assert apply_operator_word(["T1^-1", "Y1", "T1^-1"], f) == op("Y2", f)

    def test_index_validation(self):
        with pytest.raises(InvalidInputError):
            apply_operator_word(["T3"], LaurentPoly.one(3))
        with pytest.raises(InvalidInputError):
            apply_operator_word(["Y4"], LaurentPoly.one(3))
        with pytest.raises(InvalidInputError):
            apply_operator_word(["Y2^-1", "Y0"], LaurentPoly.one(3))
        with pytest.raises(InvalidInputError):
            apply_operator_word(["Z1"], LaurentPoly.one(3))

    def test_bad_tags_rejected(self):
        # only T<i>, T<i>^-1, Y<i>, Y<i>^-1, g, g^-1, gvee and 1_0
        for tag in (1, "Y1^-1x", "T 1", "T+1", "t1", "G", "gvee^-1", "T1^-2"):
            with pytest.raises(InvalidInputError):
                apply_operator_word([tag], x1 + x2 * x3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_inverse_tags(self, n):
        f = random_laurent(random.Random(103 + n), n, deg=2, terms=3)
        tags = [f"T{i}" for i in range(1, n)] + [f"Y{i}" for i in range(1, n + 1)]
        for tag in tags + ["g"]:
            assert apply_operator_word([tag + "^-1", tag], f) == f, tag
            assert apply_operator_word([tag, tag + "^-1"], f) == f, tag

    def test_tags_match_single_calls(self):
        # one split and one join against one call per tag
        rng = random.Random(101)
        for _ in range(3):
            f = random_laurent(rng, 3)
            assert apply_operator_word([], f) == f
            word = ["gvee", "g^-1", "1_0", "T2^-1", "Y3^-1", "Y2", "g"]
            want = f
            for tag in reversed(word):
                want = op(tag, want)
            assert apply_operator_word(word, f) == want


class TestOneExecutor:
    """Every operator runs its letters between one split and one join."""

    @pytest.mark.parametrize(
        "run, args",
        [
            (apply_operator_word, (["Y3"],)),
            (apply_operator_word, (["Y3^-1"],)),
            (apply_X_omega, (2,)),
            (apply_operator_word, (["Y2", "T1^-1", "g"],)),
        ],
        ids=["Y3", "Y3_inv", "X_omega2", "word"],
    )
    def test_one_split_one_join(self, monkeypatch, run, args):
        calls = {"_split": 0, "_join": 0}
        for name in calls:
            def counted(*a, _name=name, _fn=getattr(hecke, name)):
                calls[_name] += 1
                return _fn(*a)

            monkeypatch.setattr(hecke, name, counted)
        run(*args, random_laurent(random.Random(59), 4))
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
            g = op("1_0", f)
            for i in (1, 2):
                assert op(f"T{i}", g) == g.scale(V)

    def test_sum_operator_squares_to_W0_times_itself(self):
        # the square law for the sum S = sum_z t^(l(z)/2) T_z: S S f = W0(t) S f
        rng = random.Random(61)
        w0 = poincare_poly(3)
        for _ in range(5):
            f = random_laurent(rng, 3)
            sf = op("1_0", f).scale(RatFunc.v_power(3))  # l(w0) = 3
            assert op("1_0", sf).scale(RatFunc.v_power(3)) == sf.scale(w0)

    def test_normalized_idempotent_scalar(self):
        # for 1_0 = t^(-l(w0)/2) S the square picks up exactly that scalar:
        # 1_0 1_0 f = t^(-l(w0)/2) W0(t) 1_0 f
        rng = random.Random(67)
        w0 = poincare_poly(3)
        for _ in range(3):
            f = random_laurent(rng, 3)
            g = op("1_0", f)
            assert op("1_0", g) == g.scale(RatFunc.v_power(-3) * w0)


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
                # the other reduced word of w_r, in ascending runs
                runs = [j for k in range(n - r, 0, -1) for j in range(k, k + r)]
                word_b = ["gvee"] * r + [f"T{j}^-1" for j in runs]
                for _ in range(3):
                    f = random_laurent(rng, n)
                    assert apply_X_omega(r, f) == xs * f
                    assert apply_operator_word(word_b, f) == xs * f

    def test_top_case_is_gvee_power(self):
        rng = random.Random(73)
        n = 3
        for _ in range(5):
            f = random_laurent(rng, n)
            got = f
            for _ in range(n):
                got = op("gvee", got)
            assert apply_X_omega(n, f) == got

    def test_gl2_relations(self):
        rng = random.Random(79)
        y1, y2 = LaurentPoly.x(1, 2), LaurentPoly.x(2, 2)
        for _ in range(20):
            f = random_laurent(rng, 2)
            assert op("gvee", op("T1^-1", f)) == y1 * f  # X_1
            assert op("T1", op("gvee", f)) == y2 * f  # X_2 = T_1 g_vee
            assert op("gvee", op("gvee", f)) == y1 * y2 * f  # X_1 X_2
            # X_1^(k+1) T_1 = (g_vee T_1^-1)^k g_vee for k = 2
            lhs = op("T1", f)
            for _ in range(3):
                lhs = op("gvee", op("T1^-1", lhs))
            rhs = op("gvee", f)
            for _ in range(2):
                rhs = op("gvee", op("T1^-1", rhs))
            assert lhs == rhs

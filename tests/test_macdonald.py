"""Golden expansions and algebraic identities for E, f, P, F.

A few golden cells admit a tempting near-miss variant (an off-by-one
t-power or a swapped monomial); those spots carry a VARIANT GUARD
assertion showing the variant differs from the value forced by the
defining eigenvalue property and the intertwiner chains.
"""

import inspect
import itertools
import random
import sys
from fractions import Fraction

import pytest

from conftest import Q, T, compositions, frac, lp, partitions_in
from maclab import hecke
from maclab import permutations as fperm
from maclab.affine import _first_box_block, box_greedy_word
from maclab.errors import InvalidInputError, InvariantViolation
from maclab.laurent import LaurentPoly
from maclab.macdonald import (
    _E_box,
    _E_form,
    closed_column,
    closed_n2,
    closed_single_box,
    closed_three_box,
    compute_E,
    compute_E_rel,
    compute_F,
    compute_P,
    compute_f,
    eigen_data,
    eigenvalue,
    symmetrization_constant,
    verify_eigen,
    verify_haction,
    verify_kz,
)
from maclab.ratfunc import RF_ONE, RING, RatFunc, _cancel_common, one_minus

A = frac(1, 1)  # (1-t)/(1-qt)
B = one_minus(T) / one_minus(RatFunc.qt_monomial(2, 2))  # (1-t)/(1-q^2 t^2)


def m_sym(lam, n):
    out = LaurentPoly.zero(n)
    for nu in fperm.weight_orbit(tuple(lam)):
        out = out + LaurentPoly.monomial(nu)
    return out


class TestGoldenOrbit210:
    """The twelve expansions of the (2,1,0) module."""

    def test_E_210(self):
        assert compute_E((2, 1, 0)).poly == lp(
            3, {(2, 1, 0): RF_ONE, (1, 1, 1): frac(1, 2) * Q}
        )

    def test_E_201(self):
        assert compute_E((2, 0, 1)).poly == lp(
            3, {(2, 0, 1): RF_ONE, (2, 1, 0): A, (1, 1, 1): A * Q}
        )

    def test_E_120(self):
        assert compute_E((1, 2, 0)).poly == lp(
            3, {(1, 2, 0): RF_ONE, (2, 1, 0): A, (1, 1, 1): A * Q}
        )

    def test_E_021(self):
        assert compute_E((0, 2, 1)).poly == lp(
            3,
            {
                (0, 2, 1): RF_ONE,
                (1, 2, 0): A,
                (2, 0, 1): B,
                (2, 1, 0): B * A,
                (1, 1, 1): A + B * A * Q,
            },
        )

    def test_E_102(self):
        assert compute_E((1, 0, 2)).poly == lp(
            3,
            {
                (1, 0, 2): RF_ONE,
                (2, 0, 1): A,
                (1, 2, 0): B,
                (2, 1, 0): B * A,
                (1, 1, 1): A + B * A * Q,
            },
        )

    def test_E_012(self):
        # VARIANT GUARD: the x1^2 x3 cell must be A^2, as forced by the
        # intertwiner step from E_(0,2,1) and the eigenvalue property;
        # the nearby product B*A differs.
        want = lp(
            3,
            {
                (0, 1, 2): RF_ONE,
                (0, 2, 1): A,
                (1, 0, 2): A,
                (2, 0, 1): A * A,
                (2, 1, 0): B * T + B * A * A,
                (1, 2, 0): B * A * Q * T + B * A,
                (1, 1, 1): A * A + B * A * Q * T + B * A * A * Q + A,
            },
        )
        got = compute_E((0, 1, 2)).poly
        assert got == want
        assert got.coeff((2, 0, 1)) != B * A

    def test_f_family(self):
        c = frac(1, 2)
        cases = {
            (2, 1, 0): {(2, 1, 0): RF_ONE, (1, 1, 1): Q * c},
            (1, 2, 0): {(1, 2, 0): RF_ONE, (1, 1, 1): Q * T * c},
            (2, 0, 1): {(2, 0, 1): RF_ONE, (1, 1, 1): Q * T * c},
            (1, 0, 2): {(1, 0, 2): RF_ONE, (1, 1, 1): c},
            (0, 2, 1): {(0, 2, 1): RF_ONE, (1, 1, 1): c},
            (0, 1, 2): {(0, 1, 2): RF_ONE, (1, 1, 1): T * c},
        }
        for mu, want in cases.items():
            assert compute_f(mu).poly == lp(3, want), mu

    def test_f_equals_relative_E_of_lambda(self):
        # compute_f is E_lambda^(z_mu); the public operator word T_(z_mu)
        # on E_lambda, split and joined once, is its oracle
        for n in (1, 2, 3, 4):
            for mu in compositions(n, 4):
                lam = tuple(sorted(mu, reverse=True))
                z = fperm.min_coset_rep(mu)
                word = fperm.reduced_word(z)
                Tz = hecke.apply_operator_word([f"T{i}" for i in word], compute_E(lam).poly)
                got = compute_f(mu)
                assert got.poly == Tz.scale(RatFunc.v_power(len(word))), mu
                assert (got.mu, got.z) == (mu, z)


class TestGoldenSmall:
    def test_zero_weight(self):
        for n in (1, 2, 3, 4):
            assert compute_E((0,) * n).poly == LaurentPoly.one(n)

    def test_n2_table(self):
        cases = {
            (0, 0): {(0, 0): RF_ONE},
            (1, 0): {(1, 0): RF_ONE},
            (0, 1): {(0, 1): RF_ONE, (1, 0): A},
            (1, 1): {(1, 1): RF_ONE},
            (2, 0): {(2, 0): RF_ONE, (1, 1): A * Q},
            (0, 2): {
                (0, 2): RF_ONE,
                (2, 0): frac(2, 1),
                (1, 1): A + frac(2, 1) * A * Q,
            },
            (3, 0): {
                (3, 0): RF_ONE,
                (1, 2): frac(2, 1) * Q * Q,
                (2, 1): A * Q + frac(2, 1) * A * Q * Q,
            },
        }
        for mu, want in cases.items():
            assert compute_E(mu).poly == lp(2, want), mu

    def test_n3_table(self):
        cases = {
            (0, 0, 0): {(0, 0, 0): RF_ONE},
            (1, 0, 0): {(1, 0, 0): RF_ONE},
            (0, 1, 0): {(0, 1, 0): RF_ONE, (1, 0, 0): frac(1, 2)},
            (0, 0, 1): {(0, 0, 1): RF_ONE, (0, 1, 0): A, (1, 0, 0): A},
            (1, 1, 0): {(1, 1, 0): RF_ONE},
            (1, 0, 1): {(1, 0, 1): RF_ONE, (1, 1, 0): frac(1, 2)},
            (0, 1, 1): {(0, 1, 1): RF_ONE, (1, 0, 1): A, (1, 1, 0): A},
            (2, 0, 0): {(2, 0, 0): RF_ONE, (1, 0, 1): A * Q, (1, 1, 0): A * Q},
        }
        for mu, want in cases.items():
            assert compute_E(mu).poly == lp(3, want), mu

    def test_E_220(self):
        # VARIANT GUARD: the denominators here are 1-qt, as applying
        # g_vee to E_(2,0,1) shows; the 1-qt^2 variant fails both the
        # eigenvalue check and the column-strict-tableau route for
        # P_(2,2,0).
        want = lp(
            3,
            {(2, 2, 0): RF_ONE, (2, 1, 1): A * Q, (1, 2, 1): A * Q},
        )
        got = compute_E((2, 2, 0)).poly
        assert got == want
        assert got.coeff((2, 1, 1)) != frac(1, 2) * Q

    def test_P_small(self):
        assert compute_P((1, 0, 0)).poly == m_sym((1, 0, 0), 3)
        assert compute_P((1, 1, 0)).poly == m_sym((1, 1, 0), 3)
        # VARIANT GUARD: the fraction attaches to m_(1,1), not m_2, per
        # the sum-of-relatives oracle.
        c = (
            one_minus(RatFunc.q_power(2))
            * one_minus(T)
            / (one_minus(Q) * one_minus(RatFunc.qt_monomial(1, 1)))
        )
        got = compute_P((2, 0, 0)).poly
        assert got == m_sym((2, 0, 0), 3) + m_sym((1, 1, 0), 3).scale(c)
        assert got != m_sym((1, 1, 0), 3) + m_sym((2, 0, 0), 3).scale(c)

    def test_E_30_grouped_as_in_path_section(self):
        got = compute_E((3, 0)).poly
        assert got.coeff((3, 0)) == RF_ONE
        assert got.coeff((1, 2)) == frac(2, 1) * Q * Q
        assert got.coeff((2, 1)) == A * Q + frac(2, 1) * A * Q * Q

    def test_E_201_word_form(self):
        got = compute_E((2, 0, 1)).poly
        assert got.coeff((2, 0, 1)) == RF_ONE
        assert got.coeff((2, 1, 0)) == A
        # q t (1-t)/(1-qt^2) x1 x3 x2 + q A (1-t)/(1-qt^2) x1 x2 x3 combine:
        assert got.coeff((1, 1, 1)) == Q * T * frac(1, 2) + Q * A * frac(1, 2)

    def test_E_120_word_form(self):
        got = compute_E((1, 2, 0)).poly
        assert got.coeff((1, 1, 1)) == Q * (
            one_minus(RatFunc.qt_monomial(1, 2)) / one_minus(RatFunc.qt_monomial(1, 1))
        ) * frac(1, 2)


class TestP210:
    def test_routes_agree(self):
        p1 = compute_P((2, 1, 0), "sum-rel").poly
        p2 = compute_P((2, 1, 0), "symmetrize").poly
        assert p1 == p2

    def test_routes_agree_sweep(self):
        for n in (2, 3, 4):
            for lam in partitions_in(n, 4):
                p1 = compute_P(lam, "sum-rel").poly
                assert p1 == compute_P(lam, "symmetrize").poly, lam
                assert p1 == compute_P(lam, "cst").poly, lam

    def test_monomial_profile(self):
        p = compute_P((2, 1, 0)).poly
        for nu in fperm.weight_orbit((2, 1, 0)):
            assert p.coeff(nu) == RF_ONE

    def test_m111_coefficient(self):
        # equal to the sum of the six f-coefficients; the factored form
        # with first numerator (1-q^2 t) agrees.
        got = compute_P((2, 1, 0)).poly.coeff((1, 1, 1))
        six = frac(1, 2) * (
            Q + Q * T + Q * T + RF_ONE + RF_ONE + T
        )
        assert got == six
        corrected = one_minus(RatFunc.t_power(2)) * one_minus(
            RatFunc.qt_monomial(2, 1)
        ) / (
            one_minus(RatFunc.qt_monomial(1, 1))
            * one_minus(RatFunc.qt_monomial(1, 2))
        ) + one_minus(T) * one_minus(RatFunc.q_power(2)) / (
            one_minus(Q) * one_minus(RatFunc.qt_monomial(1, 1))
        )
        assert got == corrected

    def test_near_miss_factorization_differs(self):
        # VARIANT GUARD: replacing the (1-q^2 t) numerator by (1-qt)
        # gives a genuinely different function (despite cancelling
        # prettily), so the factored forms are not interchangeable.
        got = compute_P((2, 1, 0)).poly.coeff((1, 1, 1))
        printed = one_minus(RatFunc.t_power(2)) * one_minus(
            RatFunc.qt_monomial(1, 1)
        ) / (
            one_minus(RatFunc.qt_monomial(1, 1))
            * one_minus(RatFunc.qt_monomial(1, 2))
        ) + one_minus(T) * one_minus(RatFunc.q_power(2)) / (
            one_minus(Q) * one_minus(RatFunc.qt_monomial(1, 1))
        )
        assert got != printed

    def test_symmetry(self):
        p = compute_P((2, 1, 0)).poly
        for i in (1, 2):
            assert p.subst_perm(fperm.simple(i, 3)) == p


class TestEigen:
    def test_explicit_eigenvalues_210(self):
        E = compute_E((2, 1, 0)).poly
        vals = {
            1: RatFunc.q_power(-2) * RatFunc.v_power(-4 + 2),
            2: RatFunc.q_power(-1) * RatFunc.v_power(-2 + 2),
            3: RatFunc.v_power(2),
        }
        for i, lam in vals.items():
            assert eigenvalue((2, 1, 0), i) == lam
            assert hecke.apply_operator_word([f"Y{i}"], E) == E.scale(lam)

    def test_explicit_eigenvalues_120(self):
        vals = {
            1: RatFunc.q_power(-1) * RatFunc.v_power(0),
            2: RatFunc.q_power(-2) * RatFunc.v_power(-2),
            3: RatFunc.v_power(2),
        }
        for i, lam in vals.items():
            assert eigenvalue((1, 2, 0), i) == lam
        assert all(line.ok for line in verify_eigen((1, 2, 0)))

    def test_eigenvalue_index_out_of_range(self):
        # index 0 would wrap to Y_n through mu[-1]
        for i in (0, 4):
            with pytest.raises(InvalidInputError):
                eigenvalue((1, 2, 3), i)

    def test_monic(self):
        for mu in [(2, 1, 0), (0, 3, 1), (2, 2, 0), (4, 0)]:
            assert compute_E(mu).poly.coeff(mu) == RF_ONE


class TestHAction:
    def test_distinct_parts(self):
        # (1, 2, 1, 0) at i = 3 checks Y_3^-1 Y_4, the first Y_i^-1 with i >= 3
        for mu, i in [
            ((2, 1, 0), 1),
            ((2, 1, 0), 2),
            ((0, 2, 1), 1),
            ((1, 2, 1, 0), 3),
        ]:
            assert all(line.ok for line in verify_haction(mu, i))

    def test_equal_parts(self):
        lines = verify_haction((1, 1, 0), 1)
        assert all(line.ok for line in lines)
        names = [line.name for line in lines]
        assert any("tau" in s for s in names)

    def test_ascent_swaps_before_any_work(self, monkeypatch):
        # an ascent mu_i < mu_(i+1) is checked at s_i mu, with nothing
        # computed at mu first: one Y_(i+1), then one Y_i^-1
        calls = []
        Y_letters = hecke._Y_letters
        monkeypatch.setattr(
            hecke,
            "_Y_letters",
            lambda i, n, inverse=False: calls.append((i, inverse))
            or Y_letters(i, n, inverse),
        )
        lines = verify_haction((0, 1, 2), 1)
        assert calls == [(2, False), (1, True)]
        assert all(line.ok for line in lines)
        assert lines == verify_haction((1, 0, 2), 1)

    @pytest.mark.parametrize("n", [3, 4])
    def test_suite_checks_each_pair_once(self, n):
        # an ascent is checked at s_i mu, so the suite skips it: the names
        # are those of every (mu, i), each once
        from maclab import verify

        names = [line.name for line in verify.suite_haction(n)]
        every = {
            line.name
            for mu in verify._weights(n, 3)
            for i in range(1, n)
            for line in verify_haction(mu, i)
        }
        assert len(names) == len(set(names))
        assert set(names) == every

    def test_eigen_data_equal_parts(self):
        ed = eigen_data((1, 1, 0), 1)
        assert ed.a_mu == RatFunc.t_power(-1)

    def test_eigen_data_index_out_of_range(self):
        # the pair (i, i + 1) needs 1 <= i <= n - 1; index 0 would wrap
        # to the pair (n, 1) through mu[-1]
        for i in (0, 3):
            with pytest.raises(InvalidInputError):
                eigen_data((2, 1, 0), i)


class TestKZ:
    def test_orbit_210_full(self):
        lines = verify_kz((2, 1, 0))
        assert all(line.ok for line in lines)

    def test_six_g_identities(self):
        fs = {nu: compute_f(nu).poly for nu in fperm.weight_orbit((2, 1, 0))}
        # g f_mu = q^(-mu_n) f_(mu_n, mu_1, mu_2) around the whole orbit
        cases = {
            (2, 1, 0): (0, (0, 2, 1)),
            (1, 2, 0): (0, (0, 1, 2)),
            (2, 0, 1): (1, (1, 2, 0)),
            (0, 2, 1): (1, (1, 0, 2)),
            (1, 0, 2): (2, (2, 1, 0)),
            (0, 1, 2): (2, (2, 0, 1)),
        }
        for mu, (power, target) in cases.items():
            got = hecke.apply_operator_word(["g"], fs[mu])
            assert got == fs[target].scale(RatFunc.q_power(-power)), mu

    def test_kz_partitions_up_to_3_boxes(self):
        for n in (2, 3):
            for lam in partitions_in(n, 3):
                assert all(line.ok for line in verify_kz(lam)), lam


class TestRelative:
    def test_identity_basement(self):
        mu = (2, 0, 1)
        assert compute_E_rel(mu, (1, 2, 3)).poly == compute_E(mu).poly

    def test_x_factor_identity(self):
        lhs = compute_E_rel((1, 0, 0, 1, 0, 0), (1, 5, 6, 2, 3, 4)).poly
        rhs = compute_E_rel((0, 0, 1, 0, 0, 0), (5, 6, 2, 3, 4, 1)).poly
        assert lhs == LaurentPoly.x(1, 6) * rhs

    def test_even_v(self):
        for mu in [(2, 1, 0), (0, 2, 2)]:
            for z in [(1, 2, 3), (3, 1, 2), (2, 3, 1)]:
                assert compute_E_rel(mu, z).poly.has_even_v()


class TestSymmetrizationConstant:
    def test_decreasing_case(self):
        # F_lambda = t^(-l(w0)/2) W_lambda(t) P_lambda
        for lam in [(2, 1, 0), (2, 2, 0), (1, 1, 1)]:
            F = compute_F(lam).poly
            want = compute_P(lam).poly.scale(
                RatFunc.v_power(-3) * hecke.poincare_stabilizer(lam)
            )
            assert F == want, lam

    def test_single_factor_pattern(self):
        # mu = (1,3,0): z_mu = s1, one factor (1-q^2 t)/(1-q^2 t^2)
        got = symmetrization_constant((1, 3, 0))
        want = RatFunc.v_power(3) * (
            one_minus(RatFunc.qt_monomial(2, 1))
            / one_minus(RatFunc.qt_monomial(2, 2))
        )
        assert got == want
        P = compute_P((3, 1, 0)).poly
        assert compute_F((1, 3, 0)).poly.scale(got) == P

    def test_two_factor_pattern(self):
        # mu = (1,0,3) is the (lam2, lam3, lam1) row: two inversion factors
        got = symmetrization_constant((1, 0, 3))
        P = compute_P((3, 1, 0)).poly
        assert compute_F((1, 0, 3)).poly.scale(got) == P
        assert len(fperm.inversions(fperm.min_coset_rep((1, 0, 3)))) == 2

    def test_constant_on_all_distinct_part_rows(self):
        lam = (3, 1, 0)
        P = compute_P(lam).poly
        for mu in fperm.weight_orbit(lam):
            assert compute_F(mu).poly.scale(symmetrization_constant(mu)) == P, mu

    def test_expanded_form_of_F(self):
        # F_mu = t^(-l(w0)/2) sum_z t^((l(z) + l(z v^-1) - l(v^-1))/2) E_mu^z,
        # the expansion of the symmetrizer sum in relative polynomials
        for mu in [(1, 2, 0), (2, 0, 1), (1, 1, 0)]:
            vinv = fperm.inverse(fperm.v_increasing(mu))
            total = LaurentPoly.zero(3)
            for z in fperm.all_perms(3):
                shift = (
                    fperm.length(z)
                    + fperm.length(fperm.compose(z, vinv))
                    - fperm.length(vinv)
                )
                total = total + compute_E_rel(mu, z).poly.scale(
                    RatFunc.v_power(shift)
                )
            assert total.scale(RatFunc.v_power(-3)) == compute_F(mu).poly, mu


class TestClosedForms:
    def test_single_box_trivial(self):
        for z in [(1, 2, 3), (3, 1, 2)]:
            assert closed_single_box(1, z).poly == LaurentPoly.x(z[0], 3)

    def test_single_box_identity_basement(self):
        got = closed_single_box(2, (1, 2, 3)).poly
        assert got == lp(3, {(0, 1, 0): RF_ONE, (1, 0, 0): frac(1, 2)})
        got = closed_single_box(3, (1, 2, 3)).poly
        assert got == lp(
            3, {(0, 0, 1): RF_ONE, (0, 1, 0): A, (1, 0, 0): A}
        )

    def test_single_box_random_z(self):
        rng = random.Random(83)
        for n in (3, 4, 5):
            for _ in range(8):
                z = list(range(1, n + 1))
                rng.shuffle(z)
                z = tuple(z)
                j = rng.randint(1, n)
                mu = tuple(1 if k == j else 0 for k in range(1, n + 1))
                assert closed_single_box(j, z).poly == compute_E_rel(mu, z).poly

    def test_column(self):
        assert closed_column(3, (1, 2, 3)).poly == lp(3, {(1, 1, 1): RF_ONE})
        assert compute_E((1, 1, 0)).poly == lp(3, {(1, 1, 0): RF_ONE})
        assert closed_column(2, (1, 3, 2)).poly == lp(3, {(1, 0, 1): RF_ONE})
        with pytest.raises(InvalidInputError):
            closed_column(2, (2, 1, 3))

    def test_three_box(self):
        for n in (3, 4):
            for shape, mu in [
                ("3e1", (3,) + (0,) * (n - 1)),
                ("2e1+e2", (2, 1) + (0,) * (n - 2)),
                ("e1+e2+e3", (1, 1, 1) + (0,) * (n - 3)),
            ]:
                assert closed_three_box(shape, n).poly == compute_E(mu).poly
                assert (
                    closed_three_box(shape, n, symmetric=True).poly
                    == compute_P(mu).poly
                )

    def test_n2_grid(self):
        for mu in compositions(2, 6):
            assert closed_n2(mu).poly == compute_E(mu).poly, mu

    def test_P_of_column_is_elementary(self):
        # P_{omega_r} = e_r, the sum of all squarefree degree-r monomials
        import itertools

        for n in (3, 4):
            for r in range(1, n + 1):
                lam = (1,) * r + (0,) * (n - r)
                e_r = LaurentPoly.zero(n)
                for comb in itertools.combinations(range(1, n + 1), r):
                    e_r = e_r + LaurentPoly.monomial(
                        tuple(1 if k in comb else 0 for k in range(1, n + 1))
                    )
                assert compute_P(lam).poly == e_r, (n, r)


class TestStructuralProperties:
    def test_even_v_everywhere(self):
        for mu in [(2, 1, 0), (0, 1, 2), (3, 0, 2), (1, 4)]:
            assert compute_E(mu).poly.has_even_v()
            assert compute_f(mu).poly.has_even_v()
        for lam in [(2, 1, 0), (2, 2, 0), (3, 1)]:
            assert compute_P(lam).poly.has_even_v()

    def test_f_basis_triangular_change_of_basis(self):
        # expand each f_mu in the E-basis of the (2,1,0) module; ordered by
        # l(z_mu) the change-of-basis matrix must be unitriangular.  The
        # E-coefficients are read off from the top of the orbit down, since
        # E_nu only contains orbit monomials of strictly smaller l(z).
        orbit = sorted(
            fperm.weight_orbit((2, 1, 0)),
            key=lambda nu: fperm.length(fperm.min_coset_rep(nu)),
        )
        Es = {nu: compute_E(nu).poly for nu in orbit}
        for r, mu in enumerate(orbit):
            rest = compute_f(mu).poly
            coeffs = {}
            for nu in reversed(orbit):
                c = rest.coeff(nu)
                if not c.is_zero():
                    rest = rest - Es[nu].scale(c)
                coeffs[nu] = c
            assert rest.is_zero(), mu
            assert coeffs[mu] == RF_ONE
            for later in orbit[r + 1 :]:
                assert coeffs[later].is_zero()

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            compute_E((1, -1, 0))
        with pytest.raises(InvalidInputError):
            compute_P((1, 2, 0))
        with pytest.raises(InvalidInputError):
            compute_P((2, 1, 0), "nonsense")

    @pytest.mark.parametrize("entry", [1.5, 2.0, "2", "a", Fraction(1, 2), Fraction(2)])
    def test_weight_entries_are_integers(self, entry):
        # no float, string or Fraction is truncated or parsed into a weight
        from maclab.diagrams import count

        with pytest.raises(InvalidInputError):
            compute_E((entry, 0))
        with pytest.raises(InvalidInputError):
            LaurentPoly.x(1, 2).coeff((entry, 0))
        with pytest.raises(InvalidInputError):
            count((entry, 0), "naf")
        assert compute_E((True, 0)) == compute_E((1, 0))

    @pytest.mark.parametrize("entry", [2.0, 2.9, "2", Fraction(2), Fraction(5, 2)])
    def test_basement_entries_are_integers(self, entry):
        # each of these read as 2 made (2, 1) a valid basement
        from maclab.diagrams import enumerate_fillings

        with pytest.raises(InvalidInputError):
            fperm.check_perm((entry, 1))
        with pytest.raises(InvalidInputError):
            compute_E_rel((1, 0), (entry, 1))
        with pytest.raises(InvalidInputError):
            enumerate_fillings((1, 0), (entry, 1))
        assert fperm.check_perm((True, 2)) == (1, 2)


def reference_walk(mu):
    """E_mu by the intertwiner walk over Q(q, t^(1/2)), with T_i through
    the divided difference and the leading coefficient divided out at
    every pi letter."""
    n = len(mu)
    f = LaurentPoly.one(n)
    nu = (0,) * n
    for letter in reversed(box_greedy_word(mu)):
        if letter == "pi":
            for i in range(n - 1, 0, -1):
                f = hecke.apply_T_reference(i, f)
            f = f.mul_monomial((1,) + (0,) * (n - 1))
            nu = (nu[-1] + 1,) + nu[:-1]
            f = f.scale(f.coeff(nu).inverse())
        else:
            i = int(letter[1:])
            a = eigen_data(nu, i).a_mu
            f = hecke.apply_T_reference(i, f).scale(RatFunc.v_power(1)) + f.scale(
                one_minus(T) / one_minus(a)
            )
            nu = nu[: i - 1] + (nu[i], nu[i - 1]) + nu[i + 1 :]
    return f


class TestWalkOnNumerators:
    """The walk keeps integer numerators over one denominator; the same
    walk in the field, letter by letter, is its oracle."""

    @pytest.mark.parametrize(
        "mu", [(0, 1, 2), (2, 0, 1), (1, 2, 0, 1), (0, 3, 1), (2, 2, 0), (0, 1, 2, 3)]
    )
    def test_matches_field_walk(self, mu):
        assert compute_E(mu).poly == reference_walk(mu)


def gvee_walk(mu):
    """E_mu by the numerator walk with g_vee as the pi letter (its T
    letters and x1), then the leading coefficient divided out; the s
    letters are intertwiner letters."""
    n = len(mu)
    nu = (0,) * n
    S, N = RF_ONE, {nu: RING.one}
    for letter in reversed(box_greedy_word(mu)):
        if letter == "pi":
            S, N = hecke._run(n, S, N, hecke._gvee_letters(n))
            nu = (nu[-1] + 1,) + nu[:-1]
            distinct = list(dict.fromkeys(N.values()))
            S, quos = _cancel_common(S / (S * RatFunc(N[nu])), distinct)
            quo = dict(zip(distinct, quos))
            N = {e: quo[p] for e, p in N.items()}
        else:
            i = int(letter[1:])
            c = one_minus(T) / one_minus(eigen_data(nu, i).a_mu)
            S, N = hecke._run(n, S, N, [("tau", (i, c))])
            nu = nu[: i - 1] + (nu[i], nu[i - 1]) + nu[i + 1 :]
    return hecke._join(n, S, N)


# the weights of n = 2, 3, 4 with parts below 4 and at most 6 boxes
SMALL_WEIGHTS = [
    mu
    for n in (2, 3, 4)
    for mu in itertools.product(range(4), repeat=n)
    if sum(mu) <= 6
]


class TestKnopSahiPiLetter:
    """The walk's pi letter is x_1 g with the scalar q^(nu_n) (Knop,
    Sahi); the g_vee pi letter with its leading coefficient divided out
    is its oracle."""

    def test_matches_gvee_walk(self):
        assert len(SMALL_WEIGHTS) == 220
        for mu in SMALL_WEIGHTS:
            assert compute_E(mu).poly == gvee_walk(mu), mu

    def test_pi_letters_cancel_common_factors(self):
        # without the common cancellation after each pi letter the
        # numerators of E_(1,0,3,4) hold 14,944 terms, against 2,672
        # with it (and those of E_(0,0,1,2,3,4) nine times as many)
        S, N = _E_form((1, 0, 3, 4))
        assert sum(map(len, N.values())) < 4000

    def test_corrupt_pi_letter_fails_the_monic_check(self, monkeypatch):
        real = hecke._g

        def off_by_q(N, inverse):
            N, k = real(N, inverse)
            return N, k + 1

        monkeypatch.setattr(hecke, "_g", off_by_q)
        with pytest.raises(InvariantViolation, match="not monic"):
            _E_box.__wrapped__((0, 1, 2))

    def test_corrupt_pi_letter_on_a_cached_predecessor(self, monkeypatch):
        # the predecessor's form is right, so only the pi letter of the
        # last box runs the corrupt g, and the check on (0, 1, 2) catches it
        mu = (0, 1, 2)
        nu, _ = _first_box_block(mu)
        assert sum(nu) == sum(mu) - 1
        _E_form(nu)
        real = hecke._g

        def off_by_q(N, inverse):
            N, k = real(N, inverse)
            return N, k + 1

        monkeypatch.setattr(hecke, "_g", off_by_q)
        with pytest.raises(InvariantViolation, match=r"E_\(0, 1, 2\) is not monic"):
            _E_box.__wrapped__(mu)


class TestBoxByBox:
    """E_mu is built one box at a time on the cached E of the weight
    before it, so the order in which weights are asked for must not
    change any of them."""

    def test_long_cold_walks(self):
        # the chain of weights is built from the bottom up, so the stack
        # does not grow with the boxes: under a recursion limit 40 frames
        # above this one, cold weights of 1,200 to 3,000 boxes build.
        # E_(mu + (c, ..., c)) = (x_1 ... x_n)^c E_mu
        cases = [((0,), 3000), ((0, 0), 1000), ((1, 0, 2), 400)]
        want = {}
        for mu, c in cases:
            want[mu] = compute_E(mu).poly.mul_monomial((c,) * len(mu))
        # the one-box step's cache is the only memo of E
        _E_box.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            got = {mu: compute_E(tuple(m + c for m in mu)).poly for mu, c in cases}
        finally:
            sys.setrecursionlimit(limit)
        assert got == want

    def test_cold_cache_in_both_orders(self):
        want = {mu: reference_walk(mu) for mu in SMALL_WEIGHTS}
        ascending = sorted(SMALL_WEIGHTS, key=sum)
        for order in (ascending, ascending[::-1]):
            _E_box.cache_clear()
            for mu in order:
                assert compute_E(mu).poly == want[mu], mu


class TestNumeratorForm:
    """The consumers of E_mu run on its cached (S, N) form."""

    @pytest.mark.parametrize(
        "lam", [(2, 1, 0), (2, 2, 0), (3, 1, 1, 0), (2, 1, 1, 0, 0), (1, 1, 0, 0, 0)]
    )
    def test_sum_rel_is_the_sum_of_f(self, lam):
        # compute_f runs the reduced word of z_nu, independent of the
        # orbit walk that sum-rel takes
        want = LaurentPoly.zero(len(lam))
        for nu in fperm.weight_orbit(lam):
            want = want + compute_f(nu).poly
        assert compute_P(lam, "sum-rel").poly == want

    @pytest.mark.parametrize("lam", [(1,), (2, 1, 0), (2, 1, 1, 0)])
    def test_consumers_leave_the_cached_form(self, lam):
        n = len(lam)
        E = compute_E(lam).poly
        terms = dict(E.terms)
        S, N = _E_form(lam)
        numerators = {e: dict(p) for e, p in N.items()}
        compute_E_rel(lam, tuple(range(n, 0, -1)))
        for nu in fperm.weight_orbit(lam):
            compute_f(nu)
        compute_F(lam)
        compute_P(lam, "sum-rel")
        compute_P(lam, "symmetrize")
        assert _E_form(lam) == (S, N)
        assert {e: dict(p) for e, p in N.items()} == numerators
        assert compute_E(lam).poly.terms == terms
        assert compute_E(lam).poly == reference_walk(lam)


class TestRecursions:
    """The step-by-step and norm-statistic identities at n = 6."""

    Z = (5, 6, 1, 2, 3, 4)

    def test_x_factor_identities(self):
        x = lambda i: LaurentPoly.x(i, 6)
        gamma = (1, 0, 0, 1, 0, 0)
        nu = (0, 0, 1, 0, 0, 0)
        cases = [
            ((1, 5, 6, 2, 3, 4), 1, (5, 6, 2, 3, 4, 1)),
            ((5, 1, 6, 2, 3, 4), 5, (1, 6, 2, 3, 4, 5)),
            ((6, 5, 1, 2, 3, 4), 6, (5, 1, 2, 3, 4, 6)),
        ]
        for z, xi, z2 in cases:
            lhs = compute_E_rel(gamma, z).poly
            assert lhs == x(xi) * compute_E_rel(nu, z2).poly, z

    def test_step_descent(self):
        lhs = compute_E_rel((0, 0, 1, 1, 0, 0), self.Z).poly
        r1 = compute_E_rel((0, 1, 0, 1, 0, 0), (5, 1, 6, 2, 3, 4)).poly
        r2 = compute_E_rel((0, 1, 0, 1, 0, 0), self.Z).poly
        assert lhs == r1 + r2.scale(frac(1, 3) * Q)

    def test_step_ascent(self):
        lhs = compute_E_rel((0, 1, 0, 1, 0, 0), self.Z).poly
        r1 = compute_E_rel((1, 0, 0, 1, 0, 0), (6, 5, 1, 2, 3, 4)).poly
        r2 = compute_E_rel((1, 0, 0, 1, 0, 0), self.Z).poly
        assert lhs == r1 + r2.scale(frac(1, 4))

    def test_three_term(self):
        gamma = (1, 0, 0, 1, 0, 0)
        lhs = compute_E_rel((0, 0, 1, 1, 0, 0), self.Z).poly
        ra = compute_E_rel(gamma, (1, 5, 6, 2, 3, 4)).poly
        rb = compute_E_rel(gamma, (6, 5, 1, 2, 3, 4)).poly
        rc = compute_E_rel(gamma, self.Z).poly
        assert lhs == ra + rb.scale(frac(1, 3) * Q) + rc.scale(frac(1, 3) * Q)

    def test_shifted_single_box_statistic(self):
        # E^z_{eps_j} for z = s_{j+k-1}..s_j: x_{j+k} + B t^k (x_1+..+x_{j-1})
        for n in (3, 4, 5):
            for j in range(1, n + 1):
                for k in range(0, n - j + 1):
                    z = fperm.identity(n)
                    for m in range(j, j + k):
                        z = fperm.compose(fperm.simple(m, n), z)
                    mu = tuple(1 if i == j else 0 for i in range(1, n + 1))
                    want = LaurentPoly.x(z[j - 1], n)
                    coef = frac(1, n - j + 1) * RatFunc.t_power(k)
                    for a in range(1, j):
                        want = want + LaurentPoly.x(z[a - 1], n).scale(coef)
                    assert compute_E_rel(mu, z).poly == want, (n, j, k)
                    assert closed_single_box(j, z).poly == want, (n, j, k)


class TestCompression:
    def test_both_forms_equal_operator_route(self):
        for n in (4, 5):
            for j2 in range(2, n + 1):
                w1 = frac(1, n - (j2 - 1))
                w2 = frac(1, n - (j2 - 2))
                xs = lambda k: LaurentPoly.x(k, n)
                lead = xs(j2 - 1) * xs(j2)
                s1 = LaurentPoly.zero(n)
                s2 = LaurentPoly.zero(n)
                s3 = LaurentPoly.zero(n)
                for k in range(1, j2 - 1):
                    s1 = s1 + xs(k) * xs(j2)
                    s2 = s2 + xs(k) * xs(j2 - 1)
                    for l in range(k + 1, j2 - 1):
                        s3 = s3 + xs(k) * xs(l)
                form1 = (
                    lead
                    + s1.scale(w1)
                    + s2.scale(w2 * (w1 + T))
                    + s3.scale(w2 * w1 * (RF_ONE + T))
                )
                ratio = one_minus(RatFunc.qt_monomial(1, n - (j2 - 2))) / one_minus(
                    RatFunc.qt_monomial(1, n - (j2 - 1))
                )
                form2 = (
                    lead
                    + s1.scale(w1)
                    + s2.scale(w2 * ratio)
                    + s3.scale(w2 * w1 * (RF_ONE + T))
                )
                mu = tuple(
                    1 if i in (j2 - 1, j2) else 0 for i in range(1, n + 1)
                )
                assert form1 == form2, (n, j2)
                assert form1 == compute_E(mu).poly, (n, j2)

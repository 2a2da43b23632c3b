"""Acceptance criteria, one test per criterion.

Each test prints a PASS line after its assertions; run with -s (or rely
on the pytest result column) for the per-criterion report.  All
comparisons are exact in Q(q, t).
"""

import itertools
import json
import random
import subprocess
import sys

from conftest import Q, T, compositions, frac, lp, partitions_in
from maclab import hecke
from maclab import permutations as fperm
from maclab.diagrams import (
    count,
    cst_expand,
    enumerate_fillings,
    enumerate_walks,
    iter_walks,
    pipedream_convert,
    pipedream_invert,
    qt_special_count,
)
from maclab.affine import (
    PeriodicPerm,
    box_greedy_word,
    column_greedy_word,
    decompose_mu,
    length_translation,
    translation,
    u_element,
    word_eval,
)
from maclab.laurent import LaurentPoly
from maclab.macdonald import (
    closed_column,
    closed_n2,
    closed_single_box,
    closed_three_box,
    compute_E,
    compute_E_rel,
    compute_F,
    compute_P,
    compute_f,
    eigenvalue,
    symmetrization_constant,
    verify_eigen,
    verify_kz,
)
from maclab.ratfunc import RF_ONE, RatFunc, one_minus

A = frac(1, 1)
B = one_minus(T) / one_minus(RatFunc.qt_monomial(2, 2))


def report(num, text):
    print(f"PASS criterion {num}: {text}")


def m_sym(lam, n):
    out = LaurentPoly.zero(n)
    for nu in fperm.weight_orbit(tuple(lam)):
        out = out + LaurentPoly.monomial(nu)
    return out


def test_criterion_01_golden_expansions():
    # the full (2,1,0) module
    gold_E = {
        (2, 1, 0): {(2, 1, 0): RF_ONE, (1, 1, 1): frac(1, 2) * Q},
        (2, 0, 1): {(2, 0, 1): RF_ONE, (2, 1, 0): A, (1, 1, 1): A * Q},
        (1, 2, 0): {(1, 2, 0): RF_ONE, (2, 1, 0): A, (1, 1, 1): A * Q},
        (0, 2, 1): {
            (0, 2, 1): RF_ONE, (1, 2, 0): A, (2, 0, 1): B,
            (2, 1, 0): B * A, (1, 1, 1): A + B * A * Q,
        },
        (1, 0, 2): {
            (1, 0, 2): RF_ONE, (2, 0, 1): A, (1, 2, 0): B,
            (2, 1, 0): B * A, (1, 1, 1): A + B * A * Q,
        },
        # x1^2 x3 coefficient per the intertwiner chain from E_(0,2,1)
        # (the printed cell differs; see test_macdonald notes)
        (0, 1, 2): {
            (0, 1, 2): RF_ONE, (0, 2, 1): A, (1, 0, 2): A,
            (2, 0, 1): A * A, (2, 1, 0): B * T + B * A * A,
            (1, 2, 0): B * A * Q * T + B * A,
            (1, 1, 1): A * A + B * A * Q * T + B * A * A * Q + A,
        },
    }
    for mu, want in gold_E.items():
        assert compute_E(mu).poly == lp(3, want), mu
    c = frac(1, 2)
    gold_f = {
        (2, 1, 0): Q * c, (1, 2, 0): Q * T * c, (2, 0, 1): Q * T * c,
        (1, 0, 2): c, (0, 2, 1): c, (0, 1, 2): T * c,
    }
    for mu, coeff in gold_f.items():
        f = compute_f(mu).poly
        assert f == lp(3, {mu: RF_ONE, (1, 1, 1): coeff}), mu
    # the n = 2 table
    for mu, want in {
        (0, 0): {(0, 0): RF_ONE},
        (1, 0): {(1, 0): RF_ONE},
        (0, 1): {(0, 1): RF_ONE, (1, 0): A},
        (1, 1): {(1, 1): RF_ONE},
        (2, 0): {(2, 0): RF_ONE, (1, 1): A * Q},
        (0, 2): {(0, 2): RF_ONE, (2, 0): frac(2, 1),
                 (1, 1): A + frac(2, 1) * A * Q},
        (3, 0): {(3, 0): RF_ONE, (1, 2): frac(2, 1) * Q * Q,
                 (2, 1): A * Q + frac(2, 1) * A * Q * Q},
    }.items():
        assert compute_E(mu).poly == lp(2, want), mu
    # the n = 3 table (E_220 with the derived denominators)
    for mu, want in {
        (0, 0, 0): {(0, 0, 0): RF_ONE},
        (1, 0, 0): {(1, 0, 0): RF_ONE},
        (0, 1, 0): {(0, 1, 0): RF_ONE, (1, 0, 0): frac(1, 2)},
        (0, 0, 1): {(0, 0, 1): RF_ONE, (0, 1, 0): A, (1, 0, 0): A},
        (1, 1, 0): {(1, 1, 0): RF_ONE},
        (1, 0, 1): {(1, 0, 1): RF_ONE, (1, 1, 0): frac(1, 2)},
        (0, 1, 1): {(0, 1, 1): RF_ONE, (1, 0, 1): A, (1, 1, 0): A},
        (2, 0, 0): {(2, 0, 0): RF_ONE, (1, 0, 1): A * Q, (1, 1, 0): A * Q},
        (2, 2, 0): {(2, 2, 0): RF_ONE, (2, 1, 1): A * Q, (1, 2, 1): A * Q},
    }.items():
        assert compute_E(mu).poly == lp(3, want), mu
    # P_(1,0,0), P_(1,1,0), P_(2,0,0) with the sum-rel oracle
    assert compute_P((1, 0, 0)).poly == m_sym((1, 0, 0), 3)
    assert compute_P((1, 1, 0)).poly == m_sym((1, 1, 0), 3)
    c2 = one_minus(RatFunc.q_power(2)) * one_minus(T) / (
        one_minus(Q) * one_minus(RatFunc.qt_monomial(1, 1))
    )
    assert compute_P((2, 0, 0)).poly == m_sym((2, 0, 0), 3) + m_sym(
        (1, 1, 0), 3
    ).scale(c2)
    report(1, "golden expansions: the (2,1,0) module and the small-mu tables")


def test_criterion_02_eigenvalues():
    for n in (1, 2, 3, 4):
        for mu in compositions(n, 5):
            E = compute_E(mu).poly
            for i in range(1, n + 1):
                got = hecke.apply_operator_word([f"Y{i}"], E)
                assert got == E.scale(eigenvalue(mu, i)), (
                    mu,
                    i,
                )
    # the explicitly tabulated eigenvalue rows
    assert eigenvalue((2, 1, 0), 1) == RatFunc.q_power(-2) * RatFunc.t_power(
        -2
    ) * RatFunc.t_power(1)
    assert eigenvalue((2, 1, 0), 2) == RatFunc.q_power(-1) * RatFunc.t_power(0)
    assert eigenvalue((2, 1, 0), 3) == RatFunc.t_power(1)
    assert eigenvalue((1, 2, 0), 1) == RatFunc.q_power(-1) * RatFunc.t_power(0)
    assert eigenvalue((1, 2, 0), 2) == RatFunc.q_power(-2) * RatFunc.t_power(-1)
    assert eigenvalue((1, 2, 0), 3) == RatFunc.t_power(1)
    report(2, "Y_i eigenvalues for every mu with n <= 4, |mu| <= 5")


def test_criterion_03_kz_family():
    lines = verify_kz((2, 1, 0))
    assert all(l.ok for l in lines)
    # the six g-identities exactly (cycling form)
    fs = {nu: compute_f(nu).poly for nu in fperm.weight_orbit((2, 1, 0))}
    for mu in fs:
        got = hecke.apply_operator_word(["g"], fs[mu])
        cyc = (mu[-1],) + mu[:-1]
        assert got == fs[cyc].scale(RatFunc.q_power(-mu[-1])), mu
    for n in (2, 3, 4):
        for lam in partitions_in(n, 4):
            assert all(l.ok for l in verify_kz(lam)), lam
    report(3, "KZ relations on all orbits of partitions with <= 4 boxes, n <= 4")


def test_criterion_04_symmetrization():
    # P_(2,1,0) equals the tabulated sum of the six f's
    P = compute_P((2, 1, 0)).poly
    total = LaurentPoly.zero(3)
    for nu in fperm.weight_orbit((2, 1, 0)):
        total = total + compute_f(nu).poly
    assert P == total
    assert P.coeff((1, 1, 1)) == frac(1, 2) * (
        Q + Q * T + Q * T + RF_ONE + RF_ONE + T
    )
    assert P == compute_P((2, 1, 0), "symmetrize").poly
    # the symmetrization constant on four full orbits at n = 3
    for lam in [(3, 1, 0), (2, 1, 0), (2, 2, 0), (1, 1, 1)]:
        Plam = compute_P(lam).poly
        for mu in fperm.weight_orbit(lam):
            assert compute_F(mu).poly.scale(symmetrization_constant(mu)) == Plam, mu
    # the distinct-parts product patterns at lam = (3,1,0), both sides
    # computed independently
    lam = (3, 1, 0)
    Plam = compute_P(lam).poly
    patterns = {
        (3, 1, 0): [],
        (1, 3, 0): [(2, 1)],
        (3, 0, 1): [(1, 1)],
        (1, 0, 3): [(3, 2), (2, 1)],
        (0, 3, 1): [(3, 2), (1, 1)],
        (0, 1, 3): [(2, 1), (3, 2), (1, 1)],
    }
    for mu, factors in patterns.items():
        expect = RatFunc.v_power(-3)
        for (d, e) in factors:
            expect = expect * (
                one_minus(RatFunc.qt_monomial(d, e + 1))
                / one_minus(RatFunc.qt_monomial(d, e))
            )
        assert compute_F(mu).poly == Plam.scale(expect), mu
    report(4, "P_(2,1,0) tabulation and symmetrization constants on four orbits")


def test_criterion_05_counting():
    assert count((4, 3, 3, 3, 2, 2, 1, 1, 0, 0), "naf") == 3189375
    rng = random.Random(97)
    for n in (1, 2, 3, 4):
        zs = {fperm.identity(n)}
        while len(zs) < min(3, len(fperm.all_perms(n))):
            z = list(range(1, n + 1))
            rng.shuffle(z)
            zs.add(tuple(z))
        for mu in itertools.product(range(4), repeat=n):
            naf = count(mu, "naf")
            aw = count(mu, "aw")
            assert aw == 2 ** u_length(mu)
            for z in zs:
                assert len(enumerate_fillings(mu, z)) == naf, (mu, z)
                assert sum(1 for _ in iter_walks(mu, z)) == aw, (mu, z)
    id6 = fperm.identity(6)
    assert (
        count((2, 2, 1, 1, 0, 0), "aw"),
        len(enumerate_fillings((2, 2, 1, 1, 0, 0), id6)),
        len(enumerate_fillings((2, 2, 1, 1, 0, 0), id6, "queue")),
    ) == (16, 9, 7)
    id3 = fperm.identity(3)
    for mu, triple in [
        ((1, 2, 0), (4, 3, 3)),
        ((2, 0, 1), (4, 4, 4)),
        ((2, 2, 0), (4, 4, 3)),
    ]:
        got = (
            count(mu, "aw"),
            len(enumerate_fillings(mu, id3)),
            len(enumerate_fillings(mu, id3, "queue")),
        )
        assert got == triple, mu
    for n in (2, 3, 4):
        zid = fperm.identity(n)
        for r in (1, 2, 3):
            row = (r,) + (0,) * (n - 1)
            rect = (r,) * (n - 1) + (0,)
            assert len(enumerate_fillings(row, zid, "queue")) == qt_special_count("row", n, r)
            assert len(enumerate_fillings(rect, zid, "queue")) == qt_special_count("rect", n, r)
    report(5, "counting formulas vs brute force on n <= 4, parts <= 3, 3 basements")


def u_length(mu):
    return u_element(mu).length()


def test_criterion_06_words_and_inversions():
    mu = (0, 4, 5, 1, 4)
    d = decompose_mu(mu)
    assert d.u_mu.length() == 23
    assert fperm.length(d.v_mu) == 3
    assert fperm.length(d.z_mu) == 6
    assert length_translation(d.lam) == 26
    for word in (box_greedy_word(mu), column_greedy_word(mu)):
        el, reduced = word_eval(word, 5)
        assert el == d.u_mu and reduced
    from maclab.affine import AffineRoot

    table = {
        (3, 1, 4), (5, 1, 5), (2, 1, 1), (4, 1, 4),
        (3, 1, 3), (5, 1, 4), (4, 1, 3), (4, 2, 3),
        (3, 1, 2), (3, 2, 2), (5, 1, 3), (5, 2, 3), (4, 1, 2), (4, 2, 2),
        (3, 1, 1), (3, 2, 1), (5, 1, 2), (5, 2, 2), (4, 1, 1), (4, 2, 1),
        (5, 1, 1), (5, 2, 1), (5, 3, 1),
    }
    assert {(r.i, r.j, r.level) for r in d.u_mu.inversions()} == table
    for n in (3, 4, 5):
        e1 = (1,) + (0,) * (n - 1)
        e2 = (0, 1) + (0,) * (n - 2)
        m = {(r.i, r.j, r.level) for r in translation(e1).inversions()}
        assert m == {(1, k, 0) for k in range(2, n + 1)}
        m = {(r.i, r.j, r.level) for r in translation(tuple(-x for x in e1)).inversions()}
        assert m == {(k, 1, 1) for k in range(2, n + 1)}
        m = {(r.i, r.j, r.level) for r in (translation(e1) * PeriodicPerm.s(1, n)).inversions()}
        assert m == {(2, k, 0) for k in range(3, n + 1)}
        m = {(r.i, r.j, r.level) for r in (PeriodicPerm.s(1, n) * translation(e1)).inversions()}
        assert m == {(1, k, 0) for k in range(2, n + 1)} | {(1, 2, 1)}
        m = {(r.i, r.j, r.level) for r in translation(e2).inversions()}
        assert m == {(2, k, 0) for k in range(3, n + 1)} | {(2, 1, 1)}
    report(6, "lengths, greedy words, the 23-root table, five translation inversion sets")


def test_criterion_07_term_count_table():
    from fractions import Fraction

    lam = (5, 4, 2, 1, 0)
    assert count(lam, "t") == 552960
    assert count(lam, "c") == Fraction(128, 9)
    assert count(lam, "r") == Fraction(15, 2)
    assert count(lam, "cst") == 3675
    report(7, "term-count comparison row for (5,4,2,1,0)")


def test_criterion_08_cst_route():
    for n in (3, 4):
        for lam in partitions_in(n, 4):
            if not any(lam):
                continue
            lam_full = tuple(list(lam) + [0] * (n - len(lam)))
            assert cst_expand(lam, n).poly == compute_P(lam_full).poly, (lam, n)
    # P_(2,0,0) against the sum-rel oracle; the printed display swaps the
    # monomial attachments (recorded deviation)
    c2 = one_minus(RatFunc.q_power(2)) * one_minus(T) / (
        one_minus(Q) * one_minus(RatFunc.qt_monomial(1, 1))
    )
    got = compute_P((2, 0, 0)).poly
    assert got == m_sym((2, 0, 0), 3) + m_sym((1, 1, 0), 3).scale(c2)
    assert got != m_sym((1, 1, 0), 3) + m_sym((2, 0, 0), 3).scale(c2)
    report(8, "CST expansion equals P for all partitions <= 4 boxes, n = 3, 4")


def test_criterion_09_recursion_identities():
    x = lambda i: LaurentPoly.x(i, 6)
    gamma = (1, 0, 0, 1, 0, 0)
    nu = (0, 0, 1, 0, 0, 0)
    assert compute_E_rel(gamma, (1, 5, 6, 2, 3, 4)).poly == x(1) * compute_E_rel(nu, (5, 6, 2, 3, 4, 1)).poly
    assert compute_E_rel(gamma, (5, 1, 6, 2, 3, 4)).poly == x(5) * compute_E_rel(nu, (1, 6, 2, 3, 4, 5)).poly
    assert compute_E_rel(gamma, (6, 5, 1, 2, 3, 4)).poly == x(6) * compute_E_rel(nu, (5, 1, 2, 3, 4, 6)).poly
    z = (5, 6, 1, 2, 3, 4)
    lhs = compute_E_rel((0, 0, 1, 1, 0, 0), z).poly
    assert lhs == compute_E_rel((0, 1, 0, 1, 0, 0), (5, 1, 6, 2, 3, 4)).poly + compute_E_rel(
        (0, 1, 0, 1, 0, 0), z
    ).poly.scale(frac(1, 3) * Q)
    assert compute_E_rel((0, 1, 0, 1, 0, 0), z).poly == compute_E_rel(
        gamma, (6, 5, 1, 2, 3, 4)
    ).poly + compute_E_rel(gamma, z).poly.scale(frac(1, 4))
    # the three-term norm-statistic identity
    assert lhs == (
        compute_E_rel(gamma, (1, 5, 6, 2, 3, 4)).poly
        + compute_E_rel(gamma, (6, 5, 1, 2, 3, 4)).poly.scale(frac(1, 3) * Q)
        + compute_E_rel(gamma, z).poly.scale(frac(1, 3) * Q)
    )
    # the shifted single-box statistic for all n <= 5, j, k
    for n in (2, 3, 4, 5):
        for j in range(1, n + 1):
            for k in range(0, n - j + 1):
                zz = fperm.identity(n)
                for m in range(j, j + k):
                    zz = fperm.compose(fperm.simple(m, n), zz)
                mu = tuple(1 if i == j else 0 for i in range(1, n + 1))
                want = LaurentPoly.x(zz[j - 1], n)
                coef = frac(1, n - j + 1) * RatFunc.t_power(k)
                for a in range(1, j):
                    want = want + LaurentPoly.x(zz[a - 1], n).scale(coef)
                assert compute_E_rel(mu, zz).poly == want, (n, j, k)
                assert closed_single_box(j, zz).poly == want, (n, j, k)
    report(9, "step-by-step recursion identities at n = 6 and the shifted box statistic")


def test_criterion_10_closed_forms():
    for n in (3, 4):
        for shape, mu in [
            ("3e1", (3,) + (0,) * (n - 1)),
            ("2e1+e2", (2, 1) + (0,) * (n - 2)),
            ("e1+e2+e3", (1, 1, 1) + (0,) * (n - 3)),
        ]:
            assert closed_three_box(shape, n).poly == compute_E(mu).poly
            assert closed_three_box(shape, n, symmetric=True).poly == compute_P(mu).poly
    for n in (2, 3, 4):
        for r in range(1, n + 1):
            E = compute_E((1,) * r + (0,) * (n - r)).poly
            for comb in itertools.combinations(range(1, n + 1), r):
                rest = [k for k in range(1, n + 1) if k not in comb]
                zz = tuple(list(comb) + rest)
                word = fperm.reduced_word(zz)
                got = hecke.apply_operator_word([f"T{k}" for k in word], E)
                got = got.scale(RatFunc.v_power(len(word)))
                want = LaurentPoly.monomial(
                    tuple(1 if k + 1 in comb else 0 for k in range(n))
                )
                assert got == want and closed_column(r, zz).poly == want, (r, zz)
    rng = random.Random(101)
    for n in (2, 3, 4, 5):
        for _ in range(20):
            zz = list(range(1, n + 1))
            rng.shuffle(zz)
            zz = tuple(zz)
            for j in range(1, n + 1):
                mu = tuple(1 if k == j else 0 for k in range(1, n + 1))
                assert closed_single_box(j, zz).poly == compute_E_rel(mu, zz).poly, (j, zz)
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
            form1 = lead + s1.scale(w1) + s2.scale(w2 * (w1 + T)) + s3.scale(w2 * w1 * (RF_ONE + T))
            ratio = one_minus(RatFunc.qt_monomial(1, n - (j2 - 2))) / one_minus(RatFunc.qt_monomial(1, n - (j2 - 1)))
            form2 = lead + s1.scale(w1) + s2.scale(w2 * ratio) + s3.scale(w2 * w1 * (RF_ONE + T))
            mu = tuple(1 if i in (j2 - 1, j2) else 0 for i in range(1, n + 1))
            assert form1 == form2 == compute_E(mu).poly, (n, j2)
    report(10, "three-box, column, single-box closed forms and the adjacent-row compression")


def test_criterion_11_operator_algebra():
    from conftest import random_laurent
    from maclab.hecke import apply_operator_word, apply_X_omega, poincare_poly

    def op(tag, f):
        return apply_operator_word([tag], f)

    rng = random.Random(103)
    V = RatFunc.v_power(1)
    VINV = RatFunc.v_power(-1)
    w0 = poincare_poly(3)
    for _ in range(20):
        f = random_laurent(rng, 3)
        i = rng.choice((1, 2))
        # quadratic and braid
        Ti = f"T{i}"
        assert op(Ti, op(Ti, f)) == op(Ti, f).scale(V - VINV) + f
        assert op("T1", op("T2", op("T1", f))) == op("T2", op("T1", op("T2", f)))
        # commuting Cherednik operators
        ys = {k: op(f"Y{k}", f) for k in (1, 2, 3)}
        for a in (1, 2, 3):
            for b in range(a + 1, 4):
                assert op(f"Y{a}", ys[b]) == op(f"Y{b}", ys[a])
        # symmetrizer: T_i 1_0 = t^(1/2) 1_0; the square law S S = W0(t) S
        # holds for the plain sum S, and 1_0 = t^(-l(w0)/2) S picks up that scalar
        g = op("1_0", f)
        assert op(Ti, g) == g.scale(V)
        sf = g.scale(RatFunc.v_power(3))  # S f, l(w0) = 3
        assert op("1_0", sf).scale(RatFunc.v_power(3)) == sf.scale(w0)
        assert op("1_0", g) == g.scale(RatFunc.v_power(-3) * w0)
    for n in (2, 3, 4):
        for r in range(1, n + 1):
            want = LaurentPoly.monomial((1,) * r + (0,) * (n - r))
            assert apply_X_omega(r, LaurentPoly.one(n)) == want
    for _ in range(20):
        f = random_laurent(rng, 2)
        y1, y2 = LaurentPoly.x(1, 2), LaurentPoly.x(2, 2)
        assert op("gvee", op("T1^-1", f)) == y1 * f
        assert op("T1", op("gvee", f)) == y2 * f
        assert op("gvee", op("gvee", f)) == y1 * y2 * f
    report(11, "operator relations on 20 random polynomials each")


def test_criterion_12_structural_invariants():
    rng = random.Random(107)
    mus = [(2, 1, 0), (0, 1, 2), (2, 2, 0), (3, 0, 2), (1, 4), (0, 2, 2, 1)]
    for mu in mus:
        E = compute_E(mu).poly
        assert E.coeff(mu) == RF_ONE
        assert E.has_even_v()
        assert compute_f(mu).poly.has_even_v()
    for lam in [(2, 1, 0), (2, 2, 0), (3, 1), (2, 1, 1, 0)]:
        assert compute_P(lam).poly.has_even_v()
    for _ in range(8):
        n = rng.randint(2, 4)
        mu = tuple(rng.randint(0, 3) for _ in range(n))
        z = list(range(1, n + 1))
        rng.shuffle(z)
        z = tuple(z)
        for T_ in enumerate_fillings(mu, z):
            assert pipedream_invert(pipedream_convert(T_), mu, z) == T_
    # byte-identical CLI output across two fresh interpreter runs
    cmd = [
        sys.executable, "-m", "maclab", "E", "--n", "3", "--mu", "0,2,1",
        "--format", "json",
    ]
    out1 = subprocess.run(cmd, capture_output=True, check=True).stdout
    out2 = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert out1 == out2 and out1
    doc = json.loads(out1)
    assert doc["schema"] == "macdonald-lab/1"
    report(12, "monicity, even t-powers, round trips, deterministic CLI output")

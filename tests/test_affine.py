"""Periodic permutations, words, inversions and the mu decomposition."""

import itertools
import random

import pytest

from conftest import compositions
from maclab import permutations as fperm
from maclab.affine import (
    _first_box_block,
    AffineRoot,
    PeriodicPerm,
    box_greedy_word,
    boxes_of,
    column_greedy_word,
    decompose_mu,
    translation,
    u_element,
    u_stat,
    word_eval,
)
from maclab.errors import InvalidInputError


def roots(pairs):
    return {AffineRoot(i, j, lev) for (i, j, lev) in pairs}


class TestGroup:
    def test_pi_inverse(self):
        pi = PeriodicPerm.pi(4)
        assert pi * pi.inverse() == PeriodicPerm.identity(4)

    def test_pi_conjugation(self):
        for n in (3, 4, 5):
            pi = PeriodicPerm.pi(n)
            for i in range(1, n - 1):
                assert pi * PeriodicPerm.s(i, n) * pi.inverse() == PeriodicPerm.s(
                    i + 1, n
                )
            # the index wraps mod n: conjugating s_{n-1} gives s_0
            assert pi * PeriodicPerm.s(n - 1, n) * pi.inverse() == PeriodicPerm.s(
                0, n
            )

    def test_translation_eps1_word(self):
        got, reduced = word_eval(["pi", "s2", "s1"], 3)
        assert got == translation((1, 0, 0))
        assert got.window == (4, 2, 3)
        assert reduced

    def test_s0_identity(self):
        # s_0 = t_{eps1 - epsn} s_{n-1} .. s_2 s_1 s_2 .. s_{n-1}
        for n in (3, 4, 5):
            word = [f"s{i}" for i in range(n - 1, 1, -1)] + ["s1"] + [
                f"s{i}" for i in range(2, n)
            ]
            prod, _ = word_eval(word, n)
            lhs = translation((1,) + (0,) * (n - 2) + (-1,)) * prod
            assert PeriodicPerm.s(0, n) == lhs

    def test_s0_is_an_involution(self):
        for n in range(2, 6):
            s0 = PeriodicPerm.s(0, n)
            assert s0 != PeriodicPerm.identity(n)
            assert s0 * s0 == PeriodicPerm.identity(n)

    def test_no_s0_at_rank_one(self):
        # at n = 1 the group is generated by pi alone
        with pytest.raises(InvalidInputError):
            PeriodicPerm.s(0, 1)
        with pytest.raises(InvalidInputError):
            word_eval(["s0"], 1)

    def test_letter_index_is_ascii_digits(self):
        # "²" and "٣" pass str.isdigit, and int() refuses the first
        for bad in ("s²", "s٣", "s", "s-1", "s 1"):
            with pytest.raises(InvalidInputError):
                word_eval([bad], 3)
        assert word_eval(["s2"], 3) == word_eval(["s02"], 3)

    def test_braid_and_quadratic(self):
        n = 4
        for i in range(1, n):
            s = PeriodicPerm.s(i, n)
            assert s * s == PeriodicPerm.identity(n)
        for i in range(1, n - 1):
            a, b = PeriodicPerm.s(i, n), PeriodicPerm.s(i + 1, n)
            assert a * b * a == b * a * b

    def test_apply_periodicity(self):
        w = translation((2, 0, 1))
        for k in (-5, 0, 1, 7):
            assert w.apply(k + 3) == w.apply(k) + 3

    def test_bad_window(self):
        with pytest.raises(InvalidInputError):
            PeriodicPerm(3, (1, 1, 3))


class TestWeightAction:
    def test_pi_action(self):
        pi = PeriodicPerm.pi(3)
        assert pi.act_weight((2, 1, 0)) == (1, 2, 1)

    def test_simple_action(self):
        s1 = PeriodicPerm.s(1, 3)
        assert s1.act_weight((1, 2, 0)) == (2, 1, 0)

    def test_u_takes_zero_to_mu(self):
        for mu in [(2, 1, 0), (0, 4, 5, 1, 4), (3, 0, 0, 2)]:
            u, reduced = word_eval(box_greedy_word(mu), len(mu))
            assert reduced
            assert u.act_weight((0,) * len(mu)) == mu

    def test_finite_permutation_moves_places(self):
        # a finite w puts mu_i at position w(i)
        mu = (7, -2, 5)
        for w in itertools.permutations((1, 2, 3)):
            want = [None] * 3
            for i, x in enumerate(w):
                want[x - 1] = mu[i]
            assert PeriodicPerm.from_finite(w).act_weight(mu) == tuple(want), w

    def test_weight_orbit_is_the_distinct_permutations_in_order(self):
        # the distinct tuples of itertools.permutations, in the order it
        # first meets them, for sorted and unsorted weights alike
        for n in range(6):
            for mu in compositions(n, 4):
                want = list(dict.fromkeys(itertools.permutations(mu)))
                assert fperm.weight_orbit(mu) == want, mu


class TestInversions:
    def test_s1s2(self):
        w, _ = word_eval(["s1", "s2"], 3)
        assert set(w.inversions()) == roots({(2, 3, 0), (1, 3, 0)})

    def test_s2s1(self):
        w, _ = word_eval(["s2", "s1"], 3)
        assert set(w.inversions()) == roots({(1, 2, 0), (1, 3, 0)})

    def test_identity_empty(self):
        assert PeriodicPerm.identity(4).inversions() == []

    def test_finite_length_counts_inverted_pairs(self):
        for w in itertools.permutations((1, 2, 3, 4)):
            want = sum(1 for a, b in itertools.combinations(w, 2) if a > b)
            assert fperm.length(w) == want, w

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_small_translation_inversion_tables(self, n):
        e1 = (1,) + (0,) * (n - 1)
        # t_{eps1}
        got = set(translation(e1).inversions())
        assert got == roots({(1, k, 0) for k in range(2, n + 1)})
        # t_{-eps1}
        got = set(translation(tuple(-x for x in e1)).inversions())
        assert got == roots({(k, 1, 1) for k in range(2, n + 1)})
        # t_{eps1} s1
        got = set((translation(e1) * PeriodicPerm.s(1, n)).inversions())
        assert got == roots({(2, k, 0) for k in range(3, n + 1)})
        # s1 t_{eps1}
        got = set((PeriodicPerm.s(1, n) * translation(e1)).inversions())
        assert got == roots(
            {(1, k, 0) for k in range(2, n + 1)} | {(1, 2, 1)}
        )
        # t_{eps2}
        e2 = (0, 1) + (0,) * (n - 2)
        got = set(translation(e2).inversions())
        assert got == roots({(2, k, 0) for k in range(3, n + 1)} | {(2, 1, 1)})

    def test_23_root_table(self):
        u = u_element((0, 4, 5, 1, 4))
        table = roots(
            {
                (3, 1, 4), (5, 1, 5), (2, 1, 1), (4, 1, 4),
                (3, 1, 3), (5, 1, 4), (4, 1, 3), (4, 2, 3),
                (3, 1, 2), (3, 2, 2), (5, 1, 3), (5, 2, 3), (4, 1, 2), (4, 2, 2),
                (3, 1, 1), (3, 2, 1), (5, 1, 2), (5, 2, 2), (4, 1, 1), (4, 2, 1),
                (5, 1, 1), (5, 2, 1), (5, 3, 1),
            }
        )
        assert set(u.inversions()) == table
        assert u.length() == 23


class TestTranslation:
    def test_zero(self):
        assert translation((0, 0, 0)) == PeriodicPerm.identity(3)

    def test_eps1(self):
        assert translation((1, 0, 0)).window == (4, 2, 3)

    def test_length_of_t_lambda(self):
        assert translation((5, 4, 4, 1, 0)).length() == 26

    def test_length_is_sum_of_part_differences(self):
        # l(t_mu) = sum over i < j of |mu_i - mu_j|
        for n in range(1, 5):
            for mu in itertools.product(range(4), repeat=n):
                want = sum(abs(a - b) for a, b in itertools.combinations(mu, 2))
                assert translation(mu).length() == want, mu

    def test_pi_power_is_translation(self):
        got, _ = word_eval(["pi"] * 4, 4)
        assert got == translation((1, 1, 1, 1))


class TestDecomposition:
    def test_running_example(self):
        d = decompose_mu((0, 4, 5, 1, 4))
        assert d.v_mu == (1, 3, 5, 2, 4)
        assert fperm.length(d.z_mu) == 6
        assert fperm.length(d.v_mu) == 3
        assert d.u_mu.length() == 23
        assert translation(d.lam).length() == 26

    def test_decreasing_gives_trivial_z(self):
        d = decompose_mu((5, 3, 2, 0))
        assert d.z_mu == fperm.identity(4)

    def test_v_values_for_120(self):
        d = decompose_mu((1, 2, 0))
        assert d.v_mu == (2, 3, 1)

    def test_structure_identities(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randint(2, 5)
            mu = tuple(rng.randint(0, 4) for _ in range(n))
            d = decompose_mu(mu)
            v_pp = PeriodicPerm.from_finite(d.v_mu)
            z_pp = PeriodicPerm.from_finite(d.z_mu)
            assert d.t_mu == d.u_mu * v_pp
            assert d.u_mu == z_pp * decompose_mu(d.lam).u_mu
            assert d.t_mu.length() == d.u_mu.length() + fperm.length(d.v_mu)
            assert d.u_mu.length() == fperm.length(d.z_mu) + decompose_mu(
                d.lam
            ).u_mu.length()
            assert z_pp.act_weight(d.lam) == mu
            moved = v_pp.act_weight(mu)
            assert list(moved) == sorted(moved)
            assert fperm.compose(d.w_upper_lambda, d.w_lambda) == d.w0
            # v_mu = v_lambda z_mu^-1 with v_lambda = w0 w_lambda, matching
            # the worked (0,4,5,1,4) example where v_lambda = w0 s2
            assert d.v_mu == fperm.compose(
                d.w_upper_lambda, fperm.inverse(d.z_mu)
            )


class TestWords:
    def test_box_greedy_examples(self):
        assert box_greedy_word((2, 1, 0)) == ("pi", "pi", "s1", "pi")
        assert box_greedy_word((2, 0, 1)) == ("pi", "s1", "pi", "s1", "pi")
        assert box_greedy_word((1, 2, 0)) == ("pi", "pi", "s2", "s1", "pi")
        want = (
            ("s1", "pi") * 6 + ("s2", "s1", "pi") * 7 + ("s3", "s2", "s1", "pi")
        )
        assert box_greedy_word((0, 4, 5, 1, 4)) == want

    def test_box_greedy_word_is_box_by_box(self):
        # the word peeled one first block at a time is the word of the
        # boxes in cylindrical order, each with its block s_u(b) ... s_1 pi
        for n in (1, 2, 3, 4):
            for mu in itertools.product(range(4), repeat=n):
                want = []
                for i, j in boxes_of(mu):
                    want.extend(f"s{k}" for k in range(u_stat(mu, i, j), 0, -1))
                    want.append("pi")
                assert box_greedy_word(mu) == tuple(want), mu

    def test_first_box_block(self):
        for n in (1, 2, 3, 4):
            for mu in itertools.product(range(4), repeat=n):
                if not any(mu):
                    continue
                nu, u = _first_box_block(mu)
                i = next(r for r, m in enumerate(mu, 1) if m)
                assert u == u_stat(mu, i, 1) == i - 1
                assert sum(nu) == sum(mu) - 1
                # the block's letters, run on nu, end at mu
                block = tuple(f"s{k}" for k in range(u, 0, -1)) + ("pi",)
                assert word_eval(block, n)[0].act_weight(nu) == mu, mu

    def test_column_greedy_examples(self):
        assert column_greedy_word((1, 1, 0)) == ("pi", "pi")
        assert column_greedy_word((1, 1, 1, 1)) == ("pi",) * 4
        got = " ".join(column_greedy_word((0, 4, 5, 1, 4)))
        assert got == (
            "s1 s2 s3 s4 pi pi pi pi s1 s2 s4 s3 pi pi pi "
            "s2 s1 s3 s2 s4 s3 pi pi pi s2 s1 s3 s2 s4 s3 pi pi pi s3 s2 s1 pi"
        )
        got = " ".join(column_greedy_word((5, 4, 4, 1, 0)))
        assert got == (
            "pi pi pi pi s1 s2 s3 pi pi pi s2 s1 s3 s2 s4 s3 pi pi pi "
            "s2 s1 s3 s2 s4 s3 pi pi pi s2 s1 pi"
        )

    def test_word_eval_flags_nonreduced(self):
        el, reduced = word_eval(["s1", "s1"], 3)
        assert el == PeriodicPerm.identity(3)
        assert not reduced

    def test_both_words_reduced_and_evaluate_to_u(self):
        # full sweep n <= 3, random sample for n = 4, 5
        cases = [mu for n in (1, 2, 3) for mu in compositions(n, 5)]
        rng = random.Random(23)
        for n in (4, 5):
            for _ in range(40):
                cases.append(tuple(rng.randint(0, 5) for _ in range(n)))
        for mu in cases:
            n = len(mu)
            u = u_element(mu)
            for word in (box_greedy_word(mu), column_greedy_word(mu)):
                el, reduced = word_eval(word, n)
                assert el == u, mu
                assert reduced, mu

    def test_length_equals_u_stat_sum(self):
        from maclab.diagrams import boxes_of, u_stat

        rng = random.Random(29)
        for _ in range(40):
            n = rng.randint(2, 5)
            mu = tuple(rng.randint(0, 4) for _ in range(n))
            total = sum(u_stat(mu, i, j) for (i, j) in boxes_of(mu))
            u = u_element(mu)
            assert u.length() == total
            assert len(u.inversions()) == total


class TestProjection:
    def test_pi_projects_to_cycle(self):
        # pi = t_eps1 s1 s2 by window arithmetic, and s1 s2 is the cycle
        # (2, 3, 1), the finite part of pi
        prod, _ = word_eval(["s1", "s2"], 3)
        assert prod == PeriodicPerm.from_finite((2, 3, 1))
        assert PeriodicPerm.pi(3) == translation((1, 0, 0)) * prod

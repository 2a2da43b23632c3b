"""Diagram statistics, fillings, pipe dreams, walks, and the CST route."""

import gc
import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import Q, T, compositions, frac, partitions_in
from maclab import diagrams, macdonald
from maclab import permutations as fperm
from maclab.affine import AffineRoot, PeriodicPerm, word_eval
from maclab.diagrams import (
    Diagram,
    Filling,
    PathRealization,
    PathSegment,
    box_stats,
    boxes_of,
    column_strict_tableaux,
    count,
    cst_expand,
    enumerate_fillings,
    enumerate_walks,
    filling_weight,
    filling_word,
    iter_walks,
    pipedream_convert,
    pipedream_invert,
    psi_strip,
    qt_special_count,
    u_stat,
    walk_geometry,
)
from maclab.errors import InvalidInputError
from maclab.laurent import LaurentPoly
from maclab.macdonald import compute_E, compute_E_rel, compute_P
from maclab.ratfunc import RF_ONE, RING, RatFunc, one_minus


def word_monomial(word, n):
    out = LaurentPoly.one(n)
    for idx in word:
        out = out * LaurentPoly.x(idx, n)
    return out


def _filling_sum(mu, z):
    """Sum of wt(T) x^T over the nonattacking fillings T of dg(mu) with
    basement z."""
    n = len(mu)
    total = LaurentPoly.zero(n)
    for f in enumerate_fillings(mu, z):
        word, _ = filling_word(f)
        total = total + word_monomial(word, n).scale(filling_weight(f))
    return total


def _cst_every_weight(lam, n):
    """P_lambda by the tableau formula summed over the tableaux of every
    weight, each weight over one denominator in Z[q, v], with no use of
    symmetry."""
    by_weight = {}
    for chain in column_strict_tableaux(lam, n):
        psi = Counter()
        weight = []
        for step in range(1, n + 1):
            prev, cur = chain[step - 1], chain[step]
            psi.update(diagrams._psi_strip(diagrams._trim(cur), diagrams._trim(prev)))
            weight.append(sum(cur) - sum(prev))
        by_weight.setdefault(tuple(weight), []).append(psi)
    terms = {}
    for weight, psis in by_weight.items():
        den = Counter()
        for psi in psis:
            for f, k in psi.items():
                if -k > den[f]:
                    den[f] = -k
        num = RING.zero
        for psi in psis:
            lifted = Counter(den)
            lifted.update(psi)
            num = num + diagrams._binomials(lifted)
        terms[weight] = RatFunc(num, diagrams._binomials(den))
    return LaurentPoly(n, terms)


class TestBoxStats:
    def test_diagram_type(self):
        d = Diagram.of((2, 0, 1))
        assert d.boxes == ((1, 1), (3, 1), (1, 2))
        assert d.coordinate[(1, 2)] == 7

    def test_nleg_formula(self):
        assert box_stats((0, 4, 5, 1, 4)).nleg[3, 2] == 3

    def test_u_values_220(self):
        bs = box_stats((2, 2, 0))
        assert bs.u == {(1, 1): 0, (2, 1): 0, (1, 2): 1, (2, 2): 1}

    def test_partition_arm_leg_bridge(self):
        # decreasing mu: narm(i,j) = mu'_{j-1} - i, nleg(i,j) = mu_i - j
        from maclab.diagrams import conjugate_partition

        mu = (4, 3, 1, 0)
        muc = conjugate_partition(mu)
        bs = box_stats(mu)
        for (i, j) in boxes_of(mu):
            assert bs.nleg[i, j] == mu[i - 1] - j
            if j > 1:
                assert bs.narm[i, j] == muc[j - 2] - i

    def test_increasing_flip_bridge(self):
        # increasing mu flips to the partition w0 mu with row i landing on
        # row n - i + 1: narm(i,j) = leg_{w0 mu}(n-i+1, j) and
        # nleg(i,j) = arm_{w0 mu}(n-i+1, j)
        from maclab.diagrams import conjugate_partition

        for mu in [(0, 1, 3, 4), (0, 0, 2, 2), (1, 2, 3)]:
            n = len(mu)
            lam = tuple(reversed(mu))
            lamc = conjugate_partition(lam)
            bs = box_stats(mu)
            for (i, j) in boxes_of(mu):
                flip = n - i + 1
                assert bs.narm[i, j] == lamc[j - 1] - flip
                assert bs.nleg[i, j] == lam[flip - 1] - j

    def test_u_respects_attack_complement(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 5)
            mu = tuple(rng.randint(0, 4) for _ in range(n))
            bs = box_stats(mu)
            for b in boxes_of(mu):
                assert bs.u[b] + 1 == n - len(bs.attack[b])


    def test_statistics_match_the_window_rule(self):
        # restated on the extended diagram: b's attackers sit at the n - 1
        # coordinates before b; its arm are the attackers w whose row has no
        # more boxes right of w than b's has right of b
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randint(1, 5)
            mu = tuple(rng.randint(0, 4) for _ in range(n))
            d = Diagram.of(mu)
            assert Diagram.of(list(mu)) is d
            ext = [(i, j) for i in range(1, n + 1) for j in range(mu[i - 1] + 1)]
            coord = {(i, j): i + n * j for (i, j) in ext}
            boxes = sorted((b for b in ext if b[1]), key=coord.get)
            assert d.boxes == tuple(boxes)
            assert d.coordinate == {b: coord[b] for b in boxes}
            assert [d.index[b] for b in boxes] == list(range(len(boxes)))

            def right(w):
                return sum(1 for (i, j) in ext if i == w[0] and j > w[1])

            for b in boxes:
                attack = sorted(
                    (w for w in ext if coord[b] - n < coord[w] < coord[b]),
                    key=coord.get,
                )
                arm = [w for w in attack if right(w) <= right(b)]
                assert list(d.attack[b]) == attack
                assert list(d.arm[b]) == arm
                assert d.nleg[b] == right(b)
                assert d.narm[b] == len(arm)

    def test_diagram_serves_fillings_once_built(self, monkeypatch):
        # weights, values and the pipe-dream round trip read the built
        # Diagram and never list the boxes again
        mu, z = (2, 0, 1), (2, 3, 1)
        fillings = enumerate_fillings(mu, z)
        weights = [filling_weight(T) for T in fillings]

        def listed(mu):
            raise AssertionError(f"boxes_of({mu}) called again")

        monkeypatch.setattr(diagrams, "boxes_of", listed)
        assert [filling_weight(T) for T in fillings] == weights
        for T in fillings:
            assert T.value(1, 2) == T.values[2]
            assert pipedream_invert(pipedream_convert(T), mu, z) == T


class TestCounts:
    def test_big_naf(self):
        assert count((4, 3, 3, 3, 2, 2, 1, 1, 0, 0), "naf") == 3189375

    def test_term_count_row(self):
        lam = (5, 4, 2, 1, 0)
        assert count(lam, "t") == 552960
        assert count(lam, "c") == Fraction(128, 9)
        assert count(lam, "r") == Fraction(15, 2)
        assert count(lam, "cst") == 3675

    def test_zero_weight(self):
        assert count((0, 0, 0), "aw") == 1
        assert count((0, 0, 0), "naf") == 1

    def test_cst_count_matches_enumeration(self):
        assert len(column_strict_tableaux((5, 4, 2, 1, 0), 5)) == 3675
        for n in (3, 4):
            for lam in partitions_in(n, 4):
                assert len(column_strict_tableaux(lam, n)) == count(
                    tuple(list(lam) + [0] * (n - len(lam))), "cst"
                )

    def test_needs_partition(self):
        with pytest.raises(InvalidInputError):
            count((1, 2, 0), "cst")

    def test_term_count_consistency(self):
        # t(lam) = n! * #NAF_lam (distinct parts), c(lam) = #AW/#NAF, and
        # r(lam) = #NAF_rev(lam) / #NAF_lam
        from math import factorial

        lam = (5, 4, 2, 1, 0)
        n = len(lam)
        rev = (1, 2, 4, 5, 0)
        assert count(lam, "t") == factorial(n) * count(lam, "naf")
        assert count(lam, "c") == Fraction(count(lam, "aw"), count(lam, "naf"))
        assert count(lam, "r") == Fraction(
            count(rev, "naf"), count(lam, "naf")
        )


class TestFillings:
    def test_four_fillings_of_220(self):
        fills = enumerate_fillings((2, 2, 0), (1, 2, 3))
        grids = [f.as_dict() for f in fills]
        want = [
            {(1, 1): 1, (2, 1): 2, (1, 2): 1, (2, 2): 2},
            {(1, 1): 1, (2, 1): 2, (1, 2): 1, (2, 2): 3},
            {(1, 1): 1, (2, 1): 2, (1, 2): 3, (2, 2): 1},
            {(1, 1): 1, (2, 1): 2, (1, 2): 3, (2, 2): 2},
        ]
        assert grids == want

    def test_count_independent_of_basement(self):
        rng = random.Random(7)
        for _ in range(15):
            n = rng.randint(2, 4)
            mu = tuple(rng.randint(0, 3) for _ in range(n))
            naf = count(mu, "naf")
            for _ in range(3):
                z = list(range(1, n + 1))
                rng.shuffle(z)
                assert len(enumerate_fillings(mu, tuple(z))) == naf

    def test_single_column_unique(self):
        for n in (3, 4):
            for r in range(1, n + 1):
                mu = (1,) * r + (0,) * (n - r)
                assert len(enumerate_fillings(mu, fperm.identity(n))) == 1

    def test_queue_subset_and_collapse(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(2, 4)
            mu = tuple(rng.randint(0, 3) for _ in range(n))
            z = fperm.identity(n)
            naf = {f.values for f in enumerate_fillings(mu, z)}
            qt = {f.values for f in enumerate_fillings(mu, z, "queue")}
            assert qt <= naf
            if all(mu[i] != mu[i + 1] for i in range(n - 1)):
                assert qt == naf

    def test_compression_count_triples(self):
        id6 = fperm.identity(6)
        assert count((2, 2, 1, 1, 0, 0), "aw") == 16
        assert len(enumerate_fillings((2, 2, 1, 1, 0, 0), id6)) == 9
        assert len(enumerate_fillings((2, 2, 1, 1, 0, 0), id6, "queue")) == 7
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

    def test_qt_closed_forms(self):
        for n in (2, 3, 4):
            for r in (1, 2, 3):
                zid = fperm.identity(n)
                row = (r,) + (0,) * (n - 1)
                rect = (r,) * (n - 1) + (0,)
                assert qt_special_count("row", n, r) == n ** (r - 1)
                assert len(enumerate_fillings(row, zid, "queue")) == n ** (r - 1)
                assert len(enumerate_fillings(rect, zid, "queue")) == n ** (r - 1)
                assert len(enumerate_fillings(rect, zid)) == (2 ** (n - 1)) ** (
                    r - 1
                )

    @pytest.mark.parametrize("n, size", [(3, 4), (4, 3)])
    def test_search_matches_brute_force(self, n, size):
        # every value tuple in {1..n}^|mu| in lexicographic order, kept when
        # no box shares its value with a cell of the extended diagram at the
        # n - 1 coordinates before it and, for queue tableaux, with (r, j - 1)
        # for each row r above i in the run of equal rows mu_r = mu_i ending
        # at i (column 0 is the basement)
        def kept(mu, z, values, queue):
            boxes = sorted(boxes_of(mu), key=lambda b: b[0] + n * b[1])
            T = dict(zip(boxes, values))
            T.update({(i, 0): z[i - 1] for i in range(1, n + 1)})
            for i, j in boxes:
                for (r, c), v in T.items():
                    if (i + n * j) - n < r + n * c < i + n * j and v == T[i, j]:
                        return False
                r = i - 1
                while queue and r >= 1 and mu[r - 1] == mu[i - 1]:
                    if T[r, j - 1] == T[i, j]:
                        return False
                    r -= 1
            return True

        for mu in compositions(n, size):
            for z in itertools.permutations(range(1, n + 1)):
                for kind in ("nonattacking", "queue"):
                    want = [
                        v
                        for v in itertools.product(range(1, n + 1), repeat=sum(mu))
                        if kept(mu, z, v, kind == "queue")
                    ]
                    got = enumerate_fillings(mu, z, kind)
                    assert [T.values for T in got] == want, (mu, z, kind)
                    assert all(T == Filling(mu, z, T.values, kind) for T in got)


class TestFillingWords:
    def test_words_201(self):
        ws = [filling_word(f)[0] for f in enumerate_fillings((2, 0, 1), (1, 2, 3))]
        assert sorted(ws) == sorted([(1, 3, 1), (1, 2, 1), (1, 3, 2), (1, 2, 3)])

    def test_words_120(self):
        ws = [filling_word(f)[0] for f in enumerate_fillings((1, 2, 0), (1, 2, 3))]
        assert sorted(ws) == sorted([(1, 2, 2), (1, 2, 1), (1, 2, 3)])

    def test_single_box_word(self):
        mu = (1, 0, 0)
        (f,) = enumerate_fillings(mu, (1, 2, 3))
        word, endpoint = filling_word(f)
        assert word == (1,)
        assert endpoint == (1, 0, 0)


# each refused by the check that pipedream_convert, filling_weight and
# filling_word share: one value per box of dg(mu), each in 1..n, and a
# basement that is a permutation
MALFORMED_FILLINGS = [
    pytest.param(Filling((1, 0), (1, 2), (0,)), id="value-0"),
    pytest.param(Filling((1, 0), (1, 2), (3,)), id="value-3"),
    pytest.param(Filling((1, 0), (1, 2), (7,)), id="value-7"),
    pytest.param(Filling((1, 0), (1, 5), (1,)), id="z-not-a-permutation"),
    pytest.param(Filling((1, 0), (1, 1), (1,)), id="z-repeats"),
    pytest.param(Filling((1, 0), (1, 2), ()), id="too-few-values"),
    pytest.param(Filling((1, 0), (1, 2), (2, 1, 1)), id="too-many-values"),
]


class TestPipeDreams:
    def test_220_displays(self):
        fills = enumerate_fillings((2, 2, 0), (1, 2, 3))
        dreams = [pipedream_convert(f) for f in fills]
        assert dreams[0] == [[1, 1, 1], [2, 2, 2], [3, 0, 0]]
        assert dreams[1] == [[1, 1, 1], [2, 2, 0], [3, 0, 2]]
        # forced by P(k, j) = i iff T(i, j) = k
        assert dreams[2] == [[1, 1, 2], [2, 2, 0], [3, 0, 1]]
        assert dreams[3] == [[1, 1, 0], [2, 2, 2], [3, 0, 1]]

    def test_8_row_example(self):
        mu = (3, 2, 2, 2, 1, 0, 0, 0)
        z = (6, 1, 2, 7, 8, 3, 4, 5)
        grid = {
            (1, 1): 6, (1, 2): 5, (1, 3): 3,
            (2, 1): 1, (2, 2): 6,
            (3, 1): 2, (3, 2): 2,
            (4, 1): 7, (4, 2): 4,
            (5, 1): 8,
        }
        T8 = Filling(mu, z, tuple(grid[b] for b in boxes_of(mu)))
        got = pipedream_convert(T8)
        assert got == [
            [2, 2, 0, 0],
            [3, 3, 3, 0],
            [6, 0, 0, 1],
            [7, 0, 4, 0],
            [8, 0, 1, 0],
            [1, 1, 2, 0],
            [4, 4, 0, 0],
            [5, 5, 0, 0],
        ]
        assert pipedream_invert(got, mu, z) == T8

    def test_round_trip_everywhere(self):
        rng = random.Random(13)
        for _ in range(10):
            n = rng.randint(2, 4)
            mu = tuple(rng.randint(0, 3) for _ in range(n))
            z = list(range(1, n + 1))
            rng.shuffle(z)
            z = tuple(z)
            for f in enumerate_fillings(mu, z):
                assert pipedream_invert(pipedream_convert(f), mu, z) == f

    def test_empty_diagram(self):
        (f,) = enumerate_fillings((0, 0), (2, 1))
        assert pipedream_convert(f) == [[2], [1]]

    @pytest.mark.parametrize("T", MALFORMED_FILLINGS)
    def test_convert_rejects_malformed(self, T):
        with pytest.raises(InvalidInputError):
            pipedream_convert(T)

    @pytest.mark.parametrize("check", [filling_weight, filling_word])
    @pytest.mark.parametrize("T", MALFORMED_FILLINGS)
    def test_weight_and_word_reject_malformed(self, check, T):
        # the check pipedream_convert makes, shared
        with pytest.raises(InvalidInputError):
            check(T)

    def test_each_basement_checked_once(self, monkeypatch):
        mu, z = (1, 0, 2), (2, 3, 1)
        fillings = enumerate_fillings(mu, z)
        seen = []
        real = fperm.check_perm

        def counting(w, n=None):
            seen.append(tuple(w))
            return real(w, n)

        monkeypatch.setattr(fperm, "check_perm", counting)
        diagrams._pipe_plan.cache_clear()
        try:
            for T in fillings:
                assert pipedream_invert(pipedream_convert(T), mu, z) == T
            # a list is keyed by its tuple; a bad z is refused on every call
            pipedream_invert(pipedream_convert(fillings[0]), mu, list(z))
            assert seen == [z]
            for _ in range(2):
                with pytest.raises(InvalidInputError):
                    pipedream_invert(pipedream_convert(fillings[0]), mu, [2, 3, 3])
            assert seen == [z, (2, 3, 3), (2, 3, 3)]
        finally:
            diagrams._pipe_plan.cache_clear()

    @pytest.mark.parametrize(
        "P",
        [
            # value 3 at (2, 1), where mu_2 = 0
            pytest.param([[1, 1, 3], [2, 3, 0], [3, 2, 0]], id="outside-dg"),
            # values 1 and 2 both at (1, 2)
            pytest.param([[1, 1, 3], [2, 3, 1], [3, 0, 0]], id="box-twice"),
            pytest.param([[2, 1, 3], [1, 3, 0], [3, 0, 0]], id="basement-not-z"),
            pytest.param([[1, 1, 3], [2, 3, 0], [3, 4, 0]], id="row-index-4"),
            pytest.param([[1, 1, 3], [2, 3, 0]], id="two-rows"),
            # value 2 at (1, 3), past the widest row of dg(1, 0, 2)
            pytest.param([[1, 1, 3], [2, 3, 0, 1], [3, 0, 0]], id="past-width"),
        ],
    )
    def test_invert_rejects_malformed(self, P):
        # each P differs in one entry or row from the pipe dream of the
        # filling (1, 2, 1) of dg(1, 0, 2) over the identity basement
        mu, z = (1, 0, 2), (1, 2, 3)
        good = [[1, 1, 3], [2, 3, 0], [3, 0, 0]]
        assert pipedream_invert(good, mu, z) == Filling(mu, z, (1, 2, 1))
        with pytest.raises(InvalidInputError):
            pipedream_invert(P, mu, z)


class TestWalks:
    def test_30_walks(self):
        walks = enumerate_walks((3, 0), (1, 2))
        assert [w.shorthand() for w in walks] == [
            "pi s1 pi s1 pi",
            "pi s1 pi 1 pi",
            "pi 1 pi s1 pi",
            "pi 1 pi 1 pi",
        ]
        assert [sum(w.folds) for w in walks] == [0, 1, 1, 2]

    def test_count_formula(self):
        for mu, z in [((1, 2, 0), (1, 2, 3)), ((2, 0, 1), (3, 1, 2))]:
            assert len(enumerate_walks(mu, z)) == count(mu, "aw")

    def test_zero_weight_single_walk(self):
        walks = enumerate_walks((0, 0, 0), (1, 2, 3))
        assert len(walks) == 1
        assert walks[0].word == ()

    def test_geometry_mass(self):
        for w in enumerate_walks((3, 0), (1, 2)):
            geo = walk_geometry(w)
            assert sum(geo.endpoint()) == 3
            assert sum(1 for s in geo.segments if s.kind == "f") == sum(w.folds)
            for s in geo.segments:
                if s.kind != "omega":
                    assert sum(s.direction) == 0

    def test_fold_roots_on_fundamental_wall(self):
        # an immediate fold at the identity sits on eps_{i+1} - eps_i
        walks = enumerate_walks((0, 1, 0), (1, 2, 3))
        word = walks[0].word
        assert word == ("s1", "pi")
        folded = [w for w in walks if w.folds[0]][0]
        geo = walk_geometry(folded)
        root = geo.segments[0].root
        assert (root.i, root.j, root.level) == (2, 1, 0)

    def test_rho(self):
        geo = walk_geometry(enumerate_walks((0, 0, 0), (1, 2, 3))[0])
        assert geo.rho == (Fraction(1), Fraction(0), Fraction(-1))

    def test_geometry_matches_the_step_rule(self):
        # restated per walk: pi moves by (1/n, ..., 1/n); an s_i step from
        # the alcove with window entries wi, wi1 at i, i + 1 (residues a, b)
        # moves along e_a - e_b, and a fold carries the root e_b - e_a +
        # level K with level = floor((wi - 1)/n) - floor((wi1 - 1)/n)
        def reference(w):
            n = len(w.mu)
            segs = []
            folds = iter(w.folds)
            for L, p in zip(w.word, w.states):
                if L == "pi":
                    segs.append(PathSegment("omega", (Fraction(1, n),) * n))
                    continue
                i = int(L[1:])
                wi, wi1 = p.window[i - 1], p.window[i]
                a, b = (wi - 1) % n + 1, (wi1 - 1) % n + 1
                e = tuple(Fraction((c == a) - (c == b)) for c in range(1, n + 1))
                if next(folds):
                    root = AffineRoot(b, a, (wi - a) // n - (wi1 - b) // n)
                    segs.append(PathSegment("f", e, root))
                else:
                    segs.append(PathSegment("c", e))
            rho = tuple(Fraction(n - 1, 2) - c for c in range(n))
            return PathRealization(w, tuple(segs), rho)

        shared = {}
        for mu, z in [
            ((3, 0), (2, 1)),
            ((2, 0, 1), (1, 2, 3)),
            ((1, 3, 0), (3, 1, 2)),
            ((0, 2, 1, 1), (2, 4, 1, 3)),
            ((2, 0, 1, 2), (4, 3, 2, 1)),
        ]:
            walks = enumerate_walks(mu, z)
            assert len(walks) == count(mu, "aw")
            for w in walks:
                geo = walk_geometry(w)
                assert geo == reference(w)
                for seg in geo.segments:
                    # an equal segment met again is the same object
                    assert shared.setdefault(seg, seg) is seg
        assert any(seg.kind == "f" and seg.root.level for seg in shared)

    def test_states_follow_word_eval(self):
        # the alcoves of a walk start at z, stay put at a fold, and end at
        # z times the word with its folded letters dropped
        for mu, z in [
            ((3, 0), (2, 1)),
            ((2, 0, 1), (1, 2, 3)),
            ((1, 3, 0), (3, 1, 2)),
            ((0, 2, 1, 1), (2, 4, 1, 3)),
            ((2, 0, 1, 2), (4, 3, 2, 1)),
        ]:
            n, start = len(mu), PeriodicPerm.from_finite(z)
            for w in iter_walks(mu, z):
                states = w.states
                assert len(states) == len(w.word) + 1
                assert states[0] == start
                folds = iter(w.folds)
                crossed = []
                for k, L in enumerate(w.word):
                    if L != "pi" and next(folds):
                        assert states[k + 1] == states[k]
                    else:
                        crossed.append(L)
                assert states[-1] == start * word_eval(crossed, n)[0]


class TestPsiAndCST:
    def test_psi_trivial(self):
        assert psi_strip((3, 1), (3, 1)) == RF_ONE
        assert psi_strip((3, 1, 0), (3, 1)) == RF_ONE

    def test_psi_single_row_is_qbinomial_factor(self):
        # the pair range is 1 <= i <= j <= l(mu); in particular a single
        # row already contributes through the diagonal pair (1,1), which
        # the P_(2,0,0) oracle pins (a strict i < j range would make this
        # 1 and break the tableau formula)
        got = psi_strip((2,), (1,))
        want = one_minus(T) * one_minus(RatFunc.q_power(2)) / (
            one_minus(RatFunc.qt_monomial(1, 1)) * one_minus(Q)
        )
        assert got == want

    def test_psi_non_strip(self):
        with pytest.raises(InvalidInputError):
            psi_strip((2, 2), (0, 0))

    def test_psi_21_over_11(self):
        got = psi_strip((2, 1), (1, 1))
        want = one_minus(RatFunc.t_power(2)) * one_minus(
            RatFunc.qt_monomial(2, 1)
        ) / (
            one_minus(RatFunc.qt_monomial(1, 2))
            * one_minus(RatFunc.qt_monomial(1, 1))
        )
        assert got == want

    def test_psi_binomials_match_the_pochhammer_product(self):
        # every horizontal strip lam/mu of partitions with at most 4 parts
        # and |lam| <= 6, against the four q-Pochhammer symbols multiplied
        # in the field one at a time
        def pochhammers(lam, mu):
            ell = len([x for x in mu if x > 0])
            lp_ = list(lam) + [0] * (ell + 2)
            mp = list(mu) + [0] * (ell + 2)
            out = RF_ONE
            for i in range(1, ell + 1):
                r = lp_[i - 1] - mp[i - 1]
                for j in range(i, ell + 1):
                    d = j - i
                    out = out * macdonald._poch(mp[i - 1] - mp[j - 1], d + 1, r)
                    out = out * macdonald._poch(mp[i - 1] - lp_[j] + 1, d, r)
                    out = out / macdonald._poch(mp[i - 1] - lp_[j], d + 1, r)
                    out = out / macdonald._poch(mp[i - 1] - mp[j - 1] + 1, d, r)
            return out

        shapes = [
            p
            for p in itertools.product(range(7), repeat=4)
            if sum(p) <= 6 and list(p) == sorted(p, reverse=True)
        ]
        strips = [(a, b) for a in shapes for b in shapes if diagrams._strip_ok(a, b)]
        assert len(strips) > 100
        for lam, mu in strips:
            assert psi_strip(lam, mu) == pochhammers(lam, mu), (lam, mu)

    def test_cst_single_row(self):
        got = cst_expand((1,), 4).poly
        want = LaurentPoly.zero(4)
        for i in range(1, 5):
            want = want + LaurentPoly.x(i, 4)
        assert got == want

    def test_cst_computes_each_strip_once(self, monkeypatch):
        # psi is computed only for the strips of the chains of a dominant
        # weight (strip sizes weakly decreasing), each distinct strip,
        # trailing zeros aside, validated (and so computed) once, however
        # many chains share it
        lam, n = (3, 1, 1, 1, 0), 5
        chains = diagrams.column_strict_tableaux(lam, n)

        def strips_of(cs):
            return {
                (diagrams._trim(c[k]), diagrams._trim(c[k - 1]))
                for c in cs
                for k in range(1, n + 1)
            }

        def dominant(c):
            sizes = [sum(c[k]) - sum(c[k - 1]) for k in range(1, n + 1)]
            return sizes == sorted(sizes, reverse=True)

        kept = [c for c in chains if dominant(c)]
        strips = strips_of(kept)
        others = strips_of(chains) - strips
        assert (len(strips), len(strips) + len(others)) == (14, 43)
        seen = []
        real = diagrams._strip_ok

        def counting(a, b):
            seen.append((a, b))
            return real(a, b)

        monkeypatch.setattr(diagrams, "_strip_ok", counting)
        diagrams._psi_strip.cache_clear()
        try:
            got = cst_expand(lam, n).poly
        finally:
            diagrams._psi_strip.cache_clear()
        assert not set(seen) & others
        assert len(seen) == len(set(seen)) == len(strips) < len(kept) * n
        assert set(seen) == strips
        assert got == compute_P(lam).poly

    def test_cst_matches_the_sum_over_every_weight(self):
        # the dominant weights' coefficients copied to their orbits give
        # the same terms as summing the tableaux of every weight
        for n in (1, 2, 3, 4):
            for lam in partitions_in(n, 6):
                got = compute_P(lam, "cst").poly
                assert got.terms == _cst_every_weight(lam, n).terms, lam

    @pytest.mark.parametrize("lam,n", [((2, 1), 3), ((3, 1, 1), 4), ((2, 2), 3)])
    def test_tableaux_are_the_strip_chains_in_order(self, lam, n):
        # brute force over every chain of partitions inside lam: each step
        # adds boxes in distinct columns, and the chains come in
        # lexicographic order of (lam^(n-1), ..., lam^(1))
        def cells(p):
            return {(i, j) for i, part in enumerate(p) for j in range(part)}

        def strip(big, small):
            added = cells(big) - cells(small)
            columns = {j for _, j in added}
            return cells(small) <= cells(big) and len(added) == len(columns)

        inside = [
            p
            for p in itertools.product(*(range(x + 1) for x in lam))
            if list(p) == sorted(p, reverse=True)
        ]
        empty = (0,) * len(lam)
        want = []
        for middle in itertools.product(inside, repeat=n - 1):
            chain = (empty,) + middle[::-1] + (lam,)
            if all(strip(chain[k], chain[k - 1]) for k in range(1, n + 1)):
                want.append(chain)
        assert column_strict_tableaux(lam, n) == want

    @pytest.mark.parametrize(
        "lam,n",
        [
            ((2, 1), 3),
            ((3, 1, 1), 4),
            ((2, 2), 5),
            ((3, 2), 6),
            ((2, 1, 1), 6),
            ((4, 2), 4),
            ((1, 1, 1, 1), 6),
            ((3, 3), 3),
            ((), 0),
            ((0, 0), 0),
            ((2,), 0),
            ((1, 1), 1),
            ((3, 3, 3), 2),
            ((2, 1, 0, 0), 3),
            ((3, 0), 1),
            ((1, 1, 1, 0), 2),
            ((2, 2, 1), 2),
        ],
    )
    def test_tableaux_match_the_strip_oracle(self, lam, n):
        # every sequence of n + 1 partitions inside lam from the empty one,
        # linked by _strip_ok, that ends at lam, in order of the reversed
        # chain
        inside = [
            p
            for p in itertools.product(*(range(x + 1) for x in lam))
            if list(p) == sorted(p, reverse=True)
        ]
        chains = [((0,) * len(lam),)]
        for _ in range(n):
            chains = [
                c + (p,) for c in chains for p in inside if diagrams._strip_ok(p, c[-1])
            ]
        want = sorted((c for c in chains if c[-1] == lam), key=lambda c: c[::-1])
        assert column_strict_tableaux(lam, n) == want

    def test_cst_matches_P(self):
        for n in (3, 4):
            for lam in partitions_in(n, 4):
                if not any(lam):
                    continue
                lam_full = tuple(list(lam) + [0] * (n - len(lam)))
                got = cst_expand(lam, n).poly
                assert got == compute_P(lam_full).poly, (lam, n)


class TestTabulatedWeights:
    def test_single_box_weights_reproduce_relative_E(self):
        rng = random.Random(17)
        for n in (3, 4, 5):
            for j in range(1, n + 1):
                for _ in range(3):
                    z = list(range(1, n + 1))
                    rng.shuffle(z)
                    z = tuple(z)
                    mu = tuple(1 if k == j else 0 for k in range(1, n + 1))
                    total = _filling_sum(mu, z)
                    assert total == compute_E_rel(mu, z).poly, (mu, z)

    def test_two_box_column_weights_reproduce_E(self):
        # the extra t on the descending pair below j1 is pinned by these
        # operator-route comparisons
        for n in (3, 4, 5):
            for j1 in range(1, n):
                for j2 in range(j1 + 1, n + 1):
                    mu = tuple(
                        1 if k in (j1, j2) else 0 for k in range(1, n + 1)
                    )
                    total = _filling_sum(mu, fperm.identity(n))
                    assert total == compute_E(mu).poly, mu

    def test_two_box_row_surviving_cells(self):
        # two-box-row weight cells as coefficient statements against the
        # operator route
        for n in (3, 4):
            for i in range(2, n + 1):
                mu = tuple(2 if a == i else 0 for a in range(1, n + 1))
                E = compute_E(mu).poly
                cell = (
                    one_minus(T)
                    / one_minus(RatFunc.qt_monomial(2, n - (i - 1)))
                    * frac(1, 1)
                )
                for k in range(1, i):
                    for l in range(i + 1, n + 1):
                        e = [0] * n
                        e[k - 1] = 1
                        e[l - 1] = 1
                        assert E.coeff(tuple(e)) == cell * Q
                for k in range(1, i):
                    for l in range(k + 1, i):
                        e = [0] * n
                        e[k - 1] = 1
                        e[l - 1] = 1
                        assert E.coeff(tuple(e)) == cell * (RF_ONE + Q)


class TestFillingWeight:
    @pytest.mark.parametrize("n, size", [(2, 3), (3, 5), (4, 3)])
    def test_every_basement_reproduces_relative_E(self, n, size):
        for mu in compositions(n, size):
            for z in itertools.permutations(range(1, n + 1)):
                got = _filling_sum(mu, z)
                assert got == compute_E_rel(mu, z).poly, (mu, z)

    @pytest.mark.parametrize(
        "mu", [(1, 0, 3, 4), (0, 1, 2, 3), (3, 1, 4, 0, 2)]
    )
    def test_identity_basement_reproduces_E(self, mu):
        z = fperm.identity(len(mu))
        assert _filling_sum(mu, z) == compute_E_rel(mu, z).poly

    def test_full_column_has_weight_one(self):
        (f,) = enumerate_fillings((1, 1, 1), (1, 2, 3))
        assert filling_weight(f) == RF_ONE

    def test_independent_of_single_box_closed_form(self, monkeypatch):
        # closed_single_box is an oracle for the rule only while the rule
        # does not call its helper; an import by name would escape the patch
        assert not hasattr(diagrams, "_single_box_coeff")

        def refuse(*args):
            raise AssertionError("filling_weight used _single_box_coeff")

        monkeypatch.setattr(macdonald, "_single_box_coeff", refuse)
        for n in (3, 4):
            for j in range(1, n + 1):
                mu = tuple(1 if k == j else 0 for k in range(1, n + 1))
                for z in itertools.permutations(range(1, n + 1)):
                    got = _filling_sum(mu, z)
                    assert got == compute_E_rel(mu, z).poly, (mu, z)


def test_enumerators_leave_no_reference_cycle():
    # a result list must be freed when the caller drops it, not held by a
    # cycle (a recursive closure) until the cyclic collector runs
    mu, z = (1, 0, 2, 1), (2, 1, 4, 3)

    def run():
        fillings = enumerate_fillings(mu, z)
        queue = enumerate_fillings(mu, z, "queue")
        chains = column_strict_tableaux((3, 1, 1), 4)
        P = cst_expand((2, 1, 1), 4)
        walks = [(w, walk_geometry(w)) for w in iter_walks(mu, z)]
        trips = [pipedream_invert(pipedream_convert(T), mu, z) for T in fillings]
        assert fillings and queue and chains and P.poly and walks and trips

    run()  # builds the cached diagrams, geometry constants and strips
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()

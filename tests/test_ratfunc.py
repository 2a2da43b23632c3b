"""The coefficient field Q(q, v), v = t^(1/2)."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import frac, random_ratfunc
from maclab import ratfunc
from maclab.diagrams import cst_expand
from maclab.errors import (
    DivisionByZeroError,
    EvaluationError,
    InvalidInputError,
    ZeroDenominatorError,
)
from maclab.macdonald import (
    _E_box,
    compute_E,
    compute_E_rel,
    compute_P,
)
from maclab.ratfunc import (
    QGEN,
    IntPoly2,
    RF_ONE,
    RF_T,
    RING,
    VGEN,
    RatFunc,
    one_minus,
    poly_from_terms,
    rf_arith,
    rf_eval,
    rf_normalize,
)

q, v = QGEN, VGEN
one = RING.one


class TestNormalize:
    def test_exact_cancellation(self):
        r = rf_normalize((1 - v**2) * (1 - q * v**2), 1 - q * v**2)
        assert r == rf_normalize(1 - v**2, one)
        assert r.den == one

    def test_zero_numerator(self):
        r = rf_normalize(RING.zero, 1 - q * v**2)
        assert r.is_zero()
        assert r.den == one

    def test_difference_of_squares(self):
        # oracle: (1 - v^2)(1 + v^2) multiplies back to 1 - v^4
        assert (1 - v**2) * (1 + v**2) == 1 - v**4
        r = rf_normalize(1 - v**4, 1 - v**2)
        assert r == rf_normalize(1 + v**2, one)

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDenominatorError):
            rf_normalize(one, RING.zero)

    def test_idempotent_and_cross_multiplication(self):
        rng = random.Random(7)
        for _ in range(50):
            a = random_ratfunc(rng)
            again = rf_normalize(a.num, a.den)
            assert again.num == a.num and again.den == a.den
            # a/b == (a*m)/(b*m) for any nonzero m
            m = RING.zero
            while not m:
                m = random_ratfunc(rng).num
            assert rf_normalize(a.num * m, a.den * m) == a

    def test_hash_of_a_divided_input(self):
        # sympy's div returns a quotient whose cached hash is stale
        p, f = q + 2 * v, 1 + q + v
        quo, rem = (p * f).div(f)
        assert quo == p and not rem
        for den in (one, 1 - q * v**2):
            a, b = rf_normalize(quo, den), rf_normalize(p, den)
            assert a == b and hash(a) == hash(b)

    def test_canonical_sign(self):
        r = rf_normalize(one, -(1 - q * v**2))
        assert r.den.LC > 0

    def test_joint_content_one(self):
        r = rf_normalize(2 * q, RING.ground_new(4))
        assert r.num.terms() == [((1, 0), 1)]
        assert r.den.terms() == [((0, 0), 2)]

    def test_int_is_a_constant(self):
        three = RatFunc(3)
        assert three == RatFunc(RING.ground_new(3))
        assert hash(three) == hash(RatFunc(RING.ground_new(3)))
        assert len({three, RatFunc(RING.ground_new(3))}) == 1
        assert three.to_t_string() == "3"
        assert three.to_json_obj() == {
            "num": [{"q": 0, "v": 0, "c": "3"}],
            "den": [{"q": 0, "v": 0, "c": "1"}],
        }
        assert three.inverse() == RatFunc(one, RING.ground_new(3))
        assert three.has_even_v()
        assert RatFunc(0).is_zero() and RatFunc(-1) == -RF_ONE
        half_q = RatFunc(q, RING.ground_new(2))
        assert RatFunc(q, 2) == half_q and rf_normalize(1, 2) == RatFunc(1) / RatFunc(2)
        assert rf_normalize(q, -2) == -half_q
        with pytest.raises(ZeroDenominatorError):
            RatFunc(q, 0)

    @pytest.mark.parametrize(
        "args", [(1.5,), (True,), ("1",), (q, 2.0), (q, False), (Fraction(1), 2)]
    )
    def test_only_polynomials_and_ints(self, args):
        with pytest.raises(InvalidInputError):
            RatFunc(*args)


class TestArith:
    def test_resolvent_collapse(self):
        # t + (1-t)/(1-a) = (1 - t a)/(1 - a), here with a = q t^2
        a = RatFunc.qt_monomial(1, 2)
        got = rf_arith(RF_T, one_minus(RF_T) / one_minus(a), "add")
        assert got == one_minus(RF_T * a) / one_minus(a)

    def test_inverse_law(self):
        rng = random.Random(11)
        for _ in range(30):
            x = random_ratfunc(rng)
            if x.is_zero():
                continue
            assert rf_arith(x, x.inverse(), "mul") == RF_ONE

    def test_norm_statistic_simplification(self):
        # (1-t)/(1-qt^3) * q t^3 * t^-3 = q (1-t)/(1-q t^3)
        got = frac(1, 3) * RatFunc.qt_monomial(1, 3) * RatFunc.t_power(-3)
        assert got == frac(1, 3) * RatFunc.q_power(1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZeroError):
            rf_arith(RF_ONE, RatFunc(0), "div")

    def test_field_axioms_random(self):
        rng = random.Random(3)
        for _ in range(25):
            a, b, c = (random_ratfunc(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a - a == RatFunc(0)

    def test_powers(self):
        a = frac(1, 1)
        assert a**0 == RF_ONE
        assert a**3 == a * a * a
        assert a**-2 == RF_ONE / (a * a)


    def test_qt_monomial_is_built_directly(self, monkeypatch):
        want = {
            (a, b): RatFunc.q_power(a) * RatFunc.t_power(b)
            for a in range(-2, 3)
            for b in range(-2, 3)
        }

        def cancel(*args):
            raise AssertionError("qt_monomial cancelled a fraction")

        monkeypatch.setattr(ratfunc, "_cancel", cancel)
        for (a, b), w in want.items():
            got = RatFunc.qt_monomial(a, b)
            assert got == w and got.den == w.den and hash(got) == hash(w)


class TestEval:
    def test_constant(self):
        assert rf_eval(RF_ONE, 5, Fraction(7, 3)) == 1

    def test_direct_substitution(self):
        r = one_minus(RatFunc.v_power(2)) / one_minus(RatFunc.qt_monomial(1, 1))
        assert rf_eval(r, 2, 3) == Fraction(1 - 9, 1 - 18)

    def test_pole(self):
        r = RF_ONE / one_minus(RatFunc.v_power(1))
        with pytest.raises(EvaluationError):
            rf_eval(r, 2, 1)

    def test_equal_functions_agree_at_random_points(self):
        lhs = frac(1, 1) + RF_T
        rhs = one_minus(RF_T * RatFunc.qt_monomial(1, 1)) / one_minus(
            RatFunc.qt_monomial(1, 1)
        )
        assert lhs == rhs
        rng = random.Random(5)
        for _ in range(20):
            q0 = Fraction(rng.randint(2, 50), rng.randint(1, 7))
            v0 = Fraction(rng.randint(2, 50), rng.randint(1, 7))
            try:
                assert rf_eval(lhs, q0, v0) == rf_eval(rhs, q0, v0)
            except EvaluationError:
                continue

    def test_ring_homomorphism(self):
        rng = random.Random(13)
        for _ in range(20):
            a = random_ratfunc(rng)
            b = random_ratfunc(rng)
            q0, v0 = Fraction(3, 2), Fraction(5, 3)
            try:
                assert rf_eval(a * b, q0, v0) == rf_eval(a, q0, v0) * rf_eval(b, q0, v0)
                assert rf_eval(a + b, q0, v0) == rf_eval(a, q0, v0) + rf_eval(b, q0, v0)
            except EvaluationError:
                continue


class TestPresentation:
    def test_even_v(self):
        assert frac(1, 2).has_even_v()
        assert not RatFunc.v_power(1).has_even_v()

    def test_json_roundtrip_shape(self):
        r = frac(1, 2)
        obj = r.to_json_obj()
        assert set(obj) == {"num", "den"}
        rebuilt = rf_normalize(
            poly_from_terms({(d["q"], d["v"]): int(d["c"]) for d in obj["num"]}),
            poly_from_terms({(d["q"], d["v"]): int(d["c"]) for d in obj["den"]}),
        )
        assert rebuilt == r

    def test_t_string_rejects_odd_v(self):
        with pytest.raises(InvalidInputError):
            RatFunc.v_power(1).to_t_string()


# ---------------------------------------------------------------------------
# properties on random integer polynomials in q, v

_FACTORS = [
    one,
    q,
    v,
    RING.ground_new(2),
    -one,
    1 - v**2,
    1 + v**2,
    1 - q,
    1 - q * v**2,
    1 - q**2 * v**4,
    1 + q * v**2 + q**2 * v**4,  # Phi_3(q v^2)
    (1 - q * v**2) ** 2,
    RING.ground_new(3),
    # not a polynomial in one monomial: division falls back on sympy
    1 + q + v,
    q - v**2,
]

_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), st.integers(-3, 3), max_size=4
).map(poly_from_terms)


def _product(fs):
    out = one
    for f in fs:
        out = out * f
    return out


_factor_products = st.lists(st.sampled_from(_FACTORS), max_size=3).map(_product)
# (num, den) pairs sharing factors often, so the reductions really cancel
_fractions = st.builds(
    lambda p, shared, den: (p * shared, den * shared),
    _polys,
    _factor_products,
    _factor_products,
)
_ratfuncs = _fractions.map(lambda nd: RatFunc(*nd))
_nonzero_ratfuncs = _ratfuncs.filter(lambda r: not r.is_zero())


def _canonical(r):
    return r.num.gcd(r.den) == one and r.den.LC > 0


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(_fractions)
    def test_constructor_canonical_and_equal(self, nd):
        a, b = nd
        r = RatFunc(a, b)
        assert _canonical(r)
        assert r.num * b == r.den * a

    @settings(max_examples=150, deadline=None)
    @given(_fractions, _fractions)
    def test_add_sub_mul(self, x, y):
        a, b = x
        c, d = y
        rx, ry = RatFunc(a, b), RatFunc(c, d)
        s = rx + ry
        assert _canonical(s)
        assert s.num * (b * d) == s.den * (a * d + c * b)
        s = rx - ry
        assert _canonical(s)
        assert s.num * (b * d) == s.den * (a * d - c * b)
        p = rx * ry
        assert _canonical(p)
        assert p.num * (b * d) == p.den * (a * c)
        # the sum's denominator shares factors with d, so this cancels
        back = (rx + ry) - ry
        assert _canonical(back)
        assert back.num * b == back.den * a

    @settings(max_examples=150, deadline=None)
    @given(_fractions, _fractions.filter(lambda nd: bool(nd[0])))
    def test_div(self, x, y):
        a, b = x
        c, d = y
        r = RatFunc(a, b) / RatFunc(c, d)
        assert _canonical(r)
        assert r.num * (b * c) == r.den * (a * d)

    @settings(max_examples=100, deadline=None)
    @given(_ratfuncs, _ratfuncs, _ratfuncs)
    def test_ring_axioms(self, a, b, c):
        zero = RatFunc(0)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * RF_ONE == a
        assert a + (-a) == zero
        assert (a + b) - b == a
        assert a - b == -(b - a)

    @settings(max_examples=100, deadline=None)
    @given(_nonzero_ratfuncs, _nonzero_ratfuncs)
    def test_field_inverses(self, a, b):
        assert a * a.inverse() == RF_ONE
        assert _canonical(a.inverse())
        assert (a / b) * b == a
        assert (a * b).inverse() == a.inverse() * b.inverse()

    @settings(max_examples=100, deadline=None)
    @given(_ratfuncs, _nonzero_ratfuncs)
    def test_equal_values_hash_equal(self, x, y):
        # the same value reached by different routes
        for a, b in (((x * y) / y, x), (x + y - y, x)):
            assert a == b
            assert hash(a) == hash(b)


class TestNoGcd:
    """The field cancels by trial division against known factors; no
    sympy gcd runs on the way to a Macdonald polynomial."""

    def test_constructions_without_gcd(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("bivariate gcd called")

        monkeypatch.setattr(IntPoly2, "gcd", refuse)
        monkeypatch.setattr(IntPoly2, "cofactors", refuse)
        # start cold, so every walk runs here: the one-box step's cache is
        # the only memo of E
        _E_box.cache_clear()
        ratfunc._factor.cache_clear()
        try:
            assert len(compute_E((1, 0, 3, 4)).poly.terms) > 0
            assert len(compute_P((3, 2, 1, 0)).poly.terms) > 0
            assert len(compute_E_rel((2, 0, 0, 3), (4, 1, 2, 3)).poly.terms) > 0
            assert len(cst_expand((3, 1), 3).poly.terms) > 0
            # the walks ran here: one step per box state of E_(1,0,3,4)
            assert _E_box.cache_info().misses >= sum((1, 0, 3, 4)) + 1
        finally:
            _E_box.cache_clear()


class TestLineExquo:
    """Division by a line factor g(q^a v^b) against sympy's `div`."""

    LINES = [
        1 - q * v**2,  # two-term lines
        q**3 * v**2 - 1,
        1 + v**2,
        q**2 + q + 1,  # cyclotomic lines met on the workloads
        v**2 - v + 1,
        q**4 + q**3 + q**2 + q + 1,
        2 * q * v - 3,  # leading coefficients other than 1
        3 * q**2 * v**2 + q * v - 1,
    ]

    @staticmethod
    def _sympy(p, g):
        quo, rem = p.div(g)
        return None if rem else quo

    def _check(self, p, g):
        step, terms = ratfunc._line_form(g)
        assert step is not None
        assert ratfunc._line_exquo(p, step, terms) == self._sympy(p, g)

    @pytest.mark.parametrize("g", LINES, ids=str)
    def test_products_and_non_multiples(self, g):
        rng = random.Random(str(g))
        for _ in range(25):
            h = poly_from_terms(
                {
                    (rng.randrange(5), rng.randrange(7)): rng.randint(-4, 4)
                    for _ in range(rng.randrange(1, 7))
                }
            )
            if not h:
                continue
            self._check(g * h, g)  # a multiple
            self._check(g * h + q ** rng.randrange(4) * v, g)  # off by a term
            self._check(h, g)
        self._check(g**3, g)
        self._check(g**2 * (g + 1), g)

    @pytest.mark.parametrize("g", LINES, ids=str)
    def test_one_line_off_in_either_order(self, g):
        # p is a multiple of g on the line through 1 and, on another line,
        # a multiple or not; p lists either line's terms first
        step, terms = ratfunc._line_form(g)
        other = q if step[1] else v  # off the line through 1
        on = g * (g + 2)
        for off, divides in ((other * (g + 1), False), (other * g * (g - 3), True)):
            for first, second in ((on, off), (off, on)):
                p = IntPoly2({**first, **second})
                assert p == on + off
                self._check(p, g)
                assert (ratfunc._line_exquo(p, step, terms) is not None) == divides


class TestCancel:
    """`_cancel`, the one trial-division rule behind the constructor, +, *,
    factoring and the walk's common cancellation."""

    # q, v, two line factors g(q^a v^b) (1 - q v^2 and Phi_3(q v), with
    # positive leading coefficient) and one factor that is not a line
    FACTORS = [q, v, q * v**2 - 1, q**2 * v**2 + q * v + 1, q - v**2]
    COFACTORS = [one, q + v + 1, 2 * q + 3, v**3 + 2]

    _mults = st.lists(st.integers(0, 3), min_size=5, max_size=5)

    @settings(max_examples=80, deadline=None)
    @given(
        _mults,
        st.integers(1, 12),
        st.lists(
            st.tuples(
                st.integers(-6, 6).filter(bool),
                _mults,
                st.sampled_from(COFACTORS),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    # integer content only, and every kind of factor at once
    @example([0] * 5, 4, [(6, [0] * 5, one), (-2, [0] * 5, q + v + 1)])
    @example([3, 2, 2, 1, 1], 6, [(3, [3, 1, 1, 2, 1], 2 * q + 3)])
    def test_quotients_times_removed_part_give_inputs(self, mults, c, specs):
        fs = [ratfunc._intern(g) for g in self.FACTORS]
        fac = {f: k for f, k in zip(fs, mults) if k}
        before = dict(fac)
        polys = []
        for content, exps, cofactor in specs:
            p = cofactor * content
            for g, e in zip(self.FACTORS, exps):
                p = p * g**e
            polys.append(p)
        quos, left, rest = ratfunc._cancel(polys, fac, c)
        assert fac == before
        assert c % rest == 0
        removed = RING.ground_new(c // rest)
        for f, k in fac.items():
            assert 0 <= left.get(f, 0) <= k
            removed = removed * f.poly ** (k - left.get(f, 0))
        assert set(left) <= set(fac)
        assert [r * removed for r in quos] == polys
        # nothing left divides all the quotients; sympy's division by one
        # polynomial is the oracle
        for f in left:
            assert any(r.div(f.poly)[1] for r in quos)
        assert gcd(rest, *(int(x) for r in quos for x in r.values())) == 1

    def test_q_and_v_come_off_in_one_step(self, monkeypatch):
        exquo = ratfunc._Factor.exquo

        def one_copy_refused(f, p):
            if f.poly in (q, v):
                raise AssertionError("q or v divided off one copy at a time")
            return exquo(f, p)

        monkeypatch.setattr(ratfunc._Factor, "exquo", one_copy_refused)
        fq, fv = ratfunc._intern(q), ratfunc._intern(v)
        assert ratfunc._divide(fq, [q**5 * v + q**3, q**4 * v**2], 10) == (
            3,
            [q**2 * v + 1, q * v**2],
        )
        assert ratfunc._divide(fv, [q * v**4 + v**6], 2) == (2, [q * v**2 + v**4])
        assert ratfunc._divide(fv, [q * v**4 + q], 5) == (0, [q * v**4 + q])
        x = RatFunc(q**3 * v**5 * (1 + q), one) * RatFunc(
            one, q**4 * v**2 * (1 - q * v**2)
        )
        assert x == RatFunc(v**3 * (1 + q), q - q**2 * v**2)
        assert x.eval(2, 3) == Fraction(27 * 3, 2 * (1 - 18))

    @staticmethod
    def _check_sum(a, b, s):
        for q0, v0 in ((2, 3), (Fraction(1, 2), 5), (-3, Fraction(2, 7))):
            assert s.eval(q0, v0) == a.eval(q0, v0) + b.eval(q0, v0)

    def test_add_cancels_a_factor_carried_equally_often(self):
        g, k = 1 - q * v**2, 1 - v**2
        fg = ratfunc._intern(-g)
        # equal denominators: (1 - q v^2) / g^2 = 1 / g
        a, b = RatFunc(one, g**2), RatFunc(-q * v**2, g**2)
        s = a + b
        assert s == RatFunc(one, g) and s._fac[fg] == 1
        self._check_sum(a, b, s)
        # unequal denominators, g once on each side: the numerator of the
        # sum is g (1 + q), so g cancels
        a, b = RatFunc(one, g), RatFunc(v**2 - 1 + g * (1 + q), g * k)
        s = a + b
        assert s == RatFunc(1 + q, k) and fg not in s._fac
        self._check_sum(a, b, s)

    def test_add_keeps_a_factor_carried_unequally_often(self):
        # g^2 on one side and g on the other: g cannot divide the sum's
        # numerator, so the sum keeps g^2
        g, k = 1 - q * v**2, 1 - v**2
        a, b = RatFunc(1 + q, g**2), RatFunc(v, g * k)
        s = a + b
        assert s == RatFunc((1 + q) * k + v * g, g**2 * k)
        assert s._fac[ratfunc._intern(-g)] == 2
        self._check_sum(a, b, s)

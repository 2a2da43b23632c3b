"""Shared helpers for the test suite."""

import dataclasses
import itertools
import random

from hypothesis import strategies as st

from maclab import macdonald
from maclab.laurent import LaurentPoly
from maclab.ratfunc import RF_ONE, RF_T, RatFunc, one_minus

Q = RatFunc.q_power(1)
T = RF_T


def frac(a, b):
    """(1 - t) / (1 - q^a t^b), the ubiquitous Macdonald coefficient."""
    return one_minus(T) / one_minus(RatFunc.qt_monomial(a, b))


def lp(n, terms):
    """LaurentPoly from {exponent tuple: RatFunc}."""
    return LaurentPoly(n, terms)


def compositions(n, total_max):
    """All weak compositions mu in Z_{>=0}^n with |mu| <= total_max."""
    for s in range(total_max + 1):
        for c in itertools.product(range(s + 1), repeat=n):
            if sum(c) == s:
                yield c


def partitions_in(n, max_boxes):
    """Partitions with at most n parts and at most max_boxes boxes."""
    seen = set()
    for mu in compositions(n, max_boxes):
        lam = tuple(sorted(mu, reverse=True))
        if lam not in seen:
            seen.add(lam)
            yield lam


def random_ratfunc(rng: random.Random, max_deg=2, max_coef=4) -> RatFunc:
    """A small random element of Q(q, v), sometimes with a denominator."""
    from maclab.ratfunc import RING, rf_normalize

    def rand_poly(allow_zero):
        p = RING.zero
        for _ in range(rng.randint(0 if allow_zero else 1, 3)):
            p += RING.term_new(
                (rng.randint(0, max_deg), rng.randint(0, max_deg)),
                rng.randint(-max_coef, max_coef),
            )
        return p

    num = rand_poly(True)
    den = RING.zero
    while not den:
        den = rand_poly(False)
    return rf_normalize(num, den)


def random_laurent(rng: random.Random, n, deg=4, terms=5) -> LaurentPoly:
    """Random polynomial with small integer coefficients, degree <= deg."""
    out = {}
    for _ in range(terms):
        e = [0] * n
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(n)] += 1
        c = rng.randint(-3, 3)
        if c:
            out[tuple(e)] = RatFunc.from_int(c)
    return LaurentPoly(n, out)


def random_field_laurent(rng: random.Random, n, span=2, terms=4) -> LaurentPoly:
    """Random Laurent polynomial: exponents in [-span, span], coefficients
    from random_ratfunc (so with denominators and odd powers of v)."""
    out = {}
    for _ in range(rng.randint(0, terms)):
        out[tuple(rng.randint(-span, span) for _ in range(n))] = random_ratfunc(rng)
    return LaurentPoly(n, out)


def laurent_polys(n):
    """Hypothesis strategy for random_field_laurent in n variables."""
    return st.randoms(use_true_random=False).map(
        lambda rng: random_field_laurent(rng, n)
    )


def plant_wrong_scalar(monkeypatch, suite):
    """A wrong scalar in one verify suite: the Y_i eigenvalue ("eigen") or
    d_mu ("haction") times q, or ("kz") the increasing f_nu of each orbit
    doubled."""
    if suite == "eigen":
        real = macdonald.eigenvalue
        monkeypatch.setattr(macdonald, "eigenvalue", lambda mu, i: real(mu, i) * Q)
    elif suite == "haction":
        real = macdonald.eigen_data

        def wrong(mu, i):
            ed = real(mu, i)
            return dataclasses.replace(ed, d_mu=ed.d_mu * Q)

        monkeypatch.setattr(macdonald, "eigen_data", wrong)
    else:
        real = macdonald._orbit_forms

        def doubled(lam):
            for nu, (S, M) in real(lam):
                if nu == tuple(sorted(lam)) != lam:
                    M = {e: 2 * p for e, p in M.items()}
                yield nu, (S, M)

        monkeypatch.setattr(macdonald, "_orbit_forms", doubled)

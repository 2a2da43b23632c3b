"""The weight lists the verify suites run over."""

import time
from itertools import product
from math import comb

import pytest

from maclab import hecke, macdonald, verify


def product_weights(n, total):
    """Every weight of length n with at most `total` boxes, by size, from
    all of {0..s}^n filtered by size: the definition."""
    for s in range(total + 1):
        for c in product(range(s + 1), repeat=n):
            if sum(c) == s:
                yield c


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("total", range(5))
def test_generators_match_the_definition(n, total):
    want = list(product_weights(n, total))
    assert list(verify._weights(n, total)) == want
    want = [mu for mu in want if list(mu) == sorted(mu, reverse=True)]
    assert list(verify._partitions(n, total)) == want


def test_weights_do_not_walk_every_tuple():
    # (s + 1)^30 tuples per size s would never finish
    start = time.perf_counter()
    weights = list(verify._weights(30, 3))
    assert time.perf_counter() - start < 1.0
    assert len(weights) == comb(33, 3) == 5456
    assert len(set(weights)) == len(weights)


def test_haction_suite_joins_each_E_once(monkeypatch):
    # n = 4 has 39 ties and 33 descents over 35 distinct weights: one
    # join per operator run (Y_i^-1 Y_(i+1) E and t^(1/2) T_i E, plus
    # t^(1/2) T_i E_(s_i mu) at a descent) and one per distinct E makes
    # 2 * 39 + 3 * 33 + 35 = 212; joining E and E_(s_i mu) on every
    # (mu, i) made 282
    calls = []
    join = hecke._join

    def counted(n, S, N):
        calls.append(n)
        return join(n, S, N)

    monkeypatch.setattr(hecke, "_join", counted)
    lines = verify.suite_haction(4)
    assert len(lines) == 282 and all(line.ok for line in lines)
    assert len(calls) == 212


def test_verify_haction_alone_keeps_its_checks():
    # the public check takes no memo and returns what the suite does
    joined = {}
    for mu, i in (((2, 1, 0), 1), ((0, 2, 1), 1), ((1, 1, 0), 1)):
        want = macdonald._verify_haction(mu, i, joined)
        got = macdonald.verify_haction(mu, i)
        assert [(c.name, c.ok) for c in got] == [(c.name, c.ok) for c in want]


def test_kz_suite_walks_each_orbit_once(monkeypatch):
    # n = 4: the forms come from one walk per orbit, one letter t^(1/2) T_i
    # per weight, beside the letters the checks run and the E walks;
    # running the reduced word of z_nu from E_lambda for every nu made 370
    calls = []
    tT = hecke._tT
    monkeypatch.setattr(hecke, "_tT", lambda i, N: calls.append(i) or tT(i, N))
    macdonald._E_box.cache_clear()
    lines = verify.suite_kz(4)
    assert len(lines) == 280 and all(line.ok for line in lines)
    assert len(calls) == 284

"""The weight lists the verify suites run over."""

import time
from itertools import product
from math import comb

import pytest

from conftest import plant_wrong_scalar
from maclab import hecke, macdonald, verify
from maclab.laurent import _acc


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


@pytest.mark.parametrize("suite", ["eigen", "haction", "kz"])
def test_suites_join_only_to_print_a_failure(monkeypatch, suite):
    # a check compares numerator forms over one denominator, so a passing
    # suite joins nothing and a failed check joins its difference once
    calls = []
    join = hecke._join

    def counted(n, S, N):
        calls.append(n)
        return join(n, S, N)

    monkeypatch.setattr(hecke, "_join", counted)
    lines = verify.SUITES[suite](4)
    assert len(lines) == {"eigen": 140, "haction": 282, "kz": 280}[suite]
    assert all(line.ok for line in lines) and calls == []
    plant_wrong_scalar(monkeypatch, suite)
    failed = [line for line in verify.SUITES[suite](4) if not line.ok]
    assert failed and all(line.detail.startswith("difference ") for line in failed)
    assert len(calls) == len(failed)


def test_kz_suite_walks_each_orbit_once(monkeypatch):
    # n = 4: the forms come from one walk per orbit, one letter t^(1/2) T_i
    # per weight, beside the letters the checks run and the E walks;
    # running the reduced word of z_nu from E_lambda for every nu made 370
    calls = []
    tT = hecke._tT
    monkeypatch.setattr(
        hecke, "_tT", lambda i, N, ring: calls.append(i) or tT(i, N, ring)
    )
    macdonald._E_box.cache_clear()
    lines = verify.suite_kz(4)
    assert len(lines) == 280 and all(line.ok for line in lines)
    assert len(calls) == 284


def _tT_without_between(i, N, ring):
    """t^(1/2) T_i with the monomials strictly between x^e and x^(s_i e)
    dropped: wrong whenever |e_i - e_(i+1)| >= 2."""
    out = {}
    for e, p in N.items():
        a, b = e[i - 1], e[i]
        se = e[: i - 1] + (b, a) + e[i + 1 :]
        tp = ring.t(p)
        if a == b:
            _acc(out, e, tp)
        elif a > b:
            _acc(out, se, p)
        else:
            _acc(out, se, tp)
            _acc(out, e, tp - p)
    return out


def test_kz_suite_fails_on_a_wrong_tT(monkeypatch):
    # the orbit walk builds each f_nu with the same t^(1/2) T_i that a
    # descent line checks, so those lines cannot see a wrong rule; the
    # suite as a whole must still fail.  The E walk runs the wrong rule
    # too, so the cache of E is cleared before and after
    macdonald._E_box.cache_clear()
    monkeypatch.setattr(hecke, "_tT", _tT_without_between)
    try:
        lines = verify.suite_kz(4)
    finally:
        monkeypatch.undo()
        macdonald._E_box.cache_clear()
    assert len(lines) == 280 and not all(line.ok for line in lines)

"""The weight lists the verify suites run over."""

import time
from itertools import product
from math import comb

import pytest

from maclab import verify


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

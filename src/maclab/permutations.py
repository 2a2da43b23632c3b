"""Finite permutations of {1..n} in one-line notation (tuples, 1-based).

Products compose as functions: (a * b)(i) = a(b(i)), so in a word
s_{i_1} ... s_{i_l} the rightmost letter acts first.

>>> compose((2, 1, 3), (1, 3, 2))
(2, 3, 1)
>>> reduced_word((3, 1, 2))
[2, 1]
"""

from __future__ import annotations

from itertools import permutations as _it_permutations
from operator import index

from .errors import InvalidInputError


def check_perm(w, n=None):
    try:
        w = tuple(map(index, w))
    except TypeError:
        raise InvalidInputError(f"{w!r} is not a vector of integers") from None
    m = len(w)
    if n is not None and m != n:
        raise InvalidInputError(f"{w} does not have length {n}")
    if sorted(w) != list(range(1, m + 1)):
        raise InvalidInputError(f"{w} is not a permutation of 1..{m}")
    return w


def identity(n):
    return tuple(range(1, n + 1))


def simple(i, n):
    """The adjacent transposition s_i, 1 <= i <= n-1."""
    if not 1 <= i <= n - 1:
        raise InvalidInputError(f"s_{i} needs 1 <= i <= {n - 1}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def compose(a, b):
    """a after b: (a b)(i) = a(b(i))."""
    return tuple(a[b[i] - 1] for i in range(len(b)))


def inverse(w):
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x - 1] = i + 1
    return tuple(out)


def length(w):
    """Number of inversions."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def inversions(w):
    """Position pairs (i, j), i < j, with w(i) > w(j); 1-based."""
    n = len(w)
    return [
        (i + 1, j + 1)
        for i in range(n)
        for j in range(i + 1, n)
        if w[i] > w[j]
    ]


def reduced_word(w):
    """Lexicographically smallest reduced word, letters read left to right.

    The word [i1, i2, ...] satisfies w = s_{i1} s_{i2} ... with the
    rightmost letter acting first.
    """
    w = list(w)
    n = len(w)
    word = []
    while True:
        winv_desc = None
        for i in range(1, n):
            # s_i * w drops length iff i + 1 occurs before i in w
            if w.index(i) > w.index(i + 1):
                winv_desc = i
                break
        if winv_desc is None:
            return word
        word.append(winv_desc)
        # replace w by s_i * w (swap the values i, i+1)
        a = w.index(winv_desc)
        b = w.index(winv_desc + 1)
        w[a], w[b] = w[b], w[a]


def act_weight(w, mu):
    """(w mu)_{w(i)} = mu_i, the place permutation on weight vectors."""
    out = [0] * len(mu)
    for i, x in enumerate(w):
        out[x - 1] = mu[i]
    return tuple(out)


def all_perms(n):
    return [tuple(p) for p in _it_permutations(range(1, n + 1))]


def longest_element(n):
    return tuple(range(n, 0, -1))


def orbit_stabilizer_longest(lam):
    """Longest element of the stabilizer of lam in S_n (lam any weight).

    Reverses each maximal block of equal entries.
    """
    n = len(lam)
    w = list(range(1, n + 1))
    i = 0
    while i < n:
        j = i
        while j + 1 < n and lam[j + 1] == lam[i]:
            j += 1
        w[i : j + 1] = reversed(w[i : j + 1])
        i = j + 1
    return tuple(w)


def min_coset_rep(mu):
    """Minimal-length z with z . lam = mu, lam the decreasing rearrangement.

    Ties between equal parts of lam are matched in increasing position
    order, which gives the shortest representative.
    """
    mu = tuple(mu)
    lam = tuple(sorted(mu, reverse=True))
    n = len(mu)
    used = [False] * n
    zinv = [0] * n
    for i in range(n):
        for j in range(n):
            if not used[j] and lam[j] == mu[i]:
                zinv[i] = j + 1
                used[j] = True
                break
    return inverse(tuple(zinv))


def v_increasing(mu):
    """Minimal-length v with v . mu weakly increasing.

    v(i) = 1 + #{j < i : mu_j <= mu_i} + #{j > i : mu_j < mu_i}.
    """
    n = len(mu)
    return tuple(
        1
        + sum(1 for j in range(i) if mu[j] <= mu[i])
        + sum(1 for j in range(i + 1, n) if mu[j] < mu[i])
        for i in range(n)
    )


def weight_orbit(lam):
    """Distinct rearrangements of lam, in reverse-lex order from lam."""
    lam = tuple(lam)
    out = [] if lam else [()]
    for v in dict.fromkeys(lam):
        i = lam.index(v)
        out += [(v,) + rest for rest in weight_orbit(lam[:i] + lam[i + 1 :])]
    return out

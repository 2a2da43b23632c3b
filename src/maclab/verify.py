"""Named verification suites for the command line.

Each suite returns a list of `macdonald.CheckLine` records (name, ok,
detail); a suite passes when every entry does.  The acceptance-grade
runs live in the test suite; these runners cover fixed small sizes at
every n, so `verify --suite all` finishes quickly at small n.
"""

from __future__ import annotations

from itertools import combinations, product

from . import diagrams, macdonald
from . import permutations as fperm
from .macdonald import CheckLine


def _weights(n, total):
    """Every weight of length n with at most `total` boxes: by size,
    then in lexicographic order."""
    for s in range(total + 1):
        # stars and bars: n - 1 bars among s + n - 1 places, in
        # lexicographic order, give the parts in lexicographic order
        for bars in combinations(range(s + n - 1), n - 1):
            yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (s + n - 1,)))


def _partitions(n, boxes):
    """The weakly decreasing weights among `_weights(n, boxes)`, in the
    same order."""
    return (mu for mu in _weights(n, boxes) if list(mu) == sorted(mu, reverse=True))


def suite_eigen(n: int):
    # every mu with |mu| <= 3
    return [line for mu in _weights(n, 3) for line in macdonald.verify_eigen(mu)]


def suite_haction(n: int):
    # every mu with |mu| <= 3; verify_haction checks an ascent at s_i mu, so
    # each pair is taken once, at its descent or tie
    return [
        line
        for mu in _weights(n, 3)
        for i in range(1, n)
        if mu[i - 1] >= mu[i]
        for line in macdonald.verify_haction(mu, i)
    ]


def suite_kz(n: int):
    # every partition of at most 4 boxes
    return [line for lam in _partitions(n, 4) for line in macdonald.verify_kz(lam)]


def suite_counts(n: int):
    # every mu in {0, 1, 2}^n
    out = []
    zs = [fperm.identity(n)]
    if n >= 2:
        zs.append(fperm.longest_element(n))
    for mu in product(range(3), repeat=n):
        naf = diagrams.count(mu, "naf")
        aw = diagrams.count(mu, "aw")
        for z in zs:
            got = len(diagrams.enumerate_fillings(mu, z))
            out.append(
                CheckLine(f"#NAF_{mu}^{z}", got == naf, f"formula {naf}, enumerated {got}")
            )
        got = sum(1 for _ in diagrams.iter_walks(mu, zs[0]))
        out.append(CheckLine(f"#AW_{mu}", got == aw, f"formula {aw}, enumerated {got}"))
    return out


def suite_golden(n: int):
    """The worked examples against their closed forms: those of size
    n = 2 from n = 2 and those of size n = 3 from n = 3; the closed-form
    NAF count runs at every n."""
    out = []
    if n >= 2:
        got = macdonald.compute_E((3, 0)).poly
        out.append(CheckLine("E_(3,0)", got == macdonald.closed_n2((3, 0)).poly))
    if n >= 3:
        got = macdonald.compute_E((2, 1, 0)).poly
        want = macdonald.closed_three_box("2e1+e2", 3).poly
        out.append(CheckLine("E_(2,1,0)", got == want))
        got = macdonald.compute_P((2, 1, 0)).poly
        want = macdonald.compute_P((2, 1, 0), "symmetrize").poly
        out.append(CheckLine("P_(2,1,0) routes", got == want))
        got = macdonald.compute_P((2, 1, 0), "cst").poly
        out.append(CheckLine("P_(2,1,0) cst route", got == want))
    out.append(
        CheckLine("#NAF_(4,3,3,3,2,2,1,1,0,0)", diagrams.count((4, 3, 3, 3, 2, 2, 1, 1, 0, 0), "naf") == 3189375)
    )
    return out


SUITES = {
    "eigen": suite_eigen,
    "haction": suite_haction,
    "kz": suite_kz,
    "counts": suite_counts,
    "golden": suite_golden,
}


def run_suite(name: str, n: int):
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite(n))
        return out
    return SUITES[name](n)

"""Named verification suites for the command line.

Each suite returns a list of `macdonald.CheckLine` records (name, ok,
detail); a suite passes when every entry does.  The acceptance-grade
runs live in the test suite; these runners use n-scaled defaults so
`verify --suite all` finishes quickly at small n.
"""

from __future__ import annotations

from itertools import product

from . import diagrams, macdonald
from . import permutations as fperm
from .laurent import LaurentPoly
from .macdonald import CheckLine
from .ratfunc import RF_ONE, RF_T, RatFunc, one_minus


def _weights(n, total):
    for s in range(total + 1):
        for c in product(range(s + 1), repeat=n):
            if sum(c) == s:
                yield c


def _partitions(n, boxes):
    for mu in _weights(n, boxes):
        if list(mu) == sorted(mu, reverse=True):
            yield mu


def suite_eigen(n: int, max_weight: int = 3):
    return [
        line for mu in _weights(n, max_weight) for line in macdonald.verify_eigen(mu)
    ]


def suite_haction(n: int, max_weight: int = 3):
    # verify_haction checks an ascent at s_i mu, so each pair is taken once,
    # at its descent or tie
    return [
        line
        for mu in _weights(n, max_weight)
        for i in range(1, n)
        if mu[i - 1] >= mu[i]
        for line in macdonald.verify_haction(mu, i)
    ]


def suite_kz(n: int, max_boxes: int = 4):
    return [
        line for lam in _partitions(n, max_boxes) for line in macdonald.verify_kz(lam)
    ]


def suite_counts(n: int, max_part: int = 2):
    out = []
    zs = [fperm.identity(n)]
    if n >= 2:
        zs.append(fperm.longest_element(n))
    for mu in product(range(max_part + 1), repeat=n):
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


def suite_golden(n: int = 3):
    """Fixed golden expansions from the worked examples: those of size
    n = 2 from n = 2 and those of size n = 3 from n = 3; the closed-form
    NAF count runs at every n."""
    out = []
    q = RatFunc.q_power(1)
    t = RF_T

    def frac(a, b):
        return one_minus(t) / one_minus(RatFunc.qt_monomial(a, b))

    if n >= 2:
        E30 = LaurentPoly(
            2,
            {
                (3, 0): RF_ONE,
                (1, 2): frac(2, 1) * q * q,
                (2, 1): frac(1, 1) * q + frac(2, 1) * frac(1, 1) * q * q,
            },
        )
        got = macdonald.compute_E((3, 0)).poly
        out.append(CheckLine("E_(3,0)", got == E30))
    if n >= 3:
        E210 = LaurentPoly(3, {(2, 1, 0): RF_ONE, (1, 1, 1): frac(1, 2) * q})
        got = macdonald.compute_E((2, 1, 0)).poly
        out.append(CheckLine("E_(2,1,0)", got == E210))
        got = macdonald.compute_P((2, 1, 0)).poly
        want = macdonald.compute_P((2, 1, 0), "symmetrize").poly
        out.append(CheckLine("P_(2,1,0) routes", got == want))
        got = diagrams.cst_expand((2, 1), 3).poly
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
        for key in ("eigen", "haction", "kz", "counts", "golden"):
            out.extend(SUITES[key](n))
        return out
    return SUITES[name](n)

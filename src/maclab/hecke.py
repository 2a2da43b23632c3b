"""The polynomial representation of the affine Hecke algebra.

Operators act on LaurentPoly values; an operator product written
A B C applies C first.  T_i is the Demazure-Lusztig operator

    T_i = t^(-1/2) (t - (t x_i - x_{i+1})/(x_i - x_{i+1}) (1 - s_i)),

g = s_1 ... s_{n-1} followed by x_n -> q^(-1) x_n, and g_vee multiplies
by x_1 after T_1 ... T_{n-1}.  Most internal work uses t^(1/2) T_i,
which keeps coefficients free of odd powers of v: a word T_z goes
through t^(l(z)/2) T_z and one scale by t^(-l(z)/2) at the end.

An operator call writes f = S * sum N_e x^e over one shared denominator
(`_split`): S is one RatFunc and each N_e lies in Z[q, v].  Every
operator is a list of letters, and one executor (`_run`) applies them
to the N_e: t^(1/2) T_i needs only polynomial adds and a shift by v^2,
g^(+-1) rotates the exponents and shifts by powers of q, x_1 shifts
the exponents, and the intertwiner t^(1/2) T_i + c multiplies by c's
denominator and moves it into S.  g_vee is the letters T_(n-1), ...,
T_1 followed by x_1.  The leftover powers of q and v are folded into S
once, and `_run` returns the form (S, N); `_join` rebuilds canonical
coefficients from it.  `apply_operator_word` is the one public way to
apply an operator.  `macdonald` runs its letters on the cached form of
E_mu without a split, the walk that builds E_mu among them (a pi
letter is g then x_1, an s letter an intertwiner); it joins the
results it returns, and a verify check compares forms and joins only
to print a failure.

The letters touch numerators only through their numerator ring: `+`,
`-`, multiplying by t (`t`), by a monomial (`shift`) and by a small
polynomial (`by`).  That ring is `zpoly.RING` for IntPoly2s, and the
walk passes a `zpoly._Kron` layout instead, whose numerators are ints
packed by Kronecker substitution: t p is a shift and a binomial
multiplies as two shifts and a subtraction.  `_tau_bound` bounds how
far the walk's letters can grow them, so that it can make room first.
"""

from __future__ import annotations

import re

from . import permutations as fperm
from .errors import InvalidInputError, InvariantViolation
from .laurent import LaurentPoly, _acc
from .ratfunc import RF_ONE, RF_T, RatFunc, _lift
from .zpoly import RING

_VINV = RatFunc.v_power(-1)


def _split(f: LaurentPoly):
    """(S, N) with f = S * sum N_e x^e: S is one over the lcm of f's
    denominators and each N_e is an IntPoly2, never zero."""
    S, nums = _lift(list(f.terms.values()))
    return S, dict(zip(f.terms, nums))


def _join(n: int, S: RatFunc, N) -> LaurentPoly:
    """S * sum N_e x^e with canonical coefficients.

    Equal numerators are common (about half of them on the Macdonald
    constructions), so each distinct one is cancelled against S once.
    """
    coeffs = {}
    terms = {}
    for e, p in N.items():
        c = coeffs.get(p)
        if c is None:
            c = coeffs[p] = S * RatFunc(p)
        terms[e] = c
    return LaurentPoly(n, terms, _clean=True)


def _check_index(i: int, n: int):
    if not 1 <= i <= n - 1:
        raise InvalidInputError(f"T_{i} needs 1 <= i <= {n - 1}")


def _tT(i: int, N, ring):
    """t^(1/2) T_i on the numerators N, termwise, in the numerator ring
    ring.

    On a monomial with exponents (a, b) at positions (i, i+1):
      a = b:  t x^e
      a > b:  x^(s_i e) + (1 - t) * (the monomials strictly between)
      a < b:  t x^(s_i e) + (t - 1) x^e + (t - 1) * (strictly between)
    which is the divided difference expanded into a geometric sum.  The
    coefficients t, 1 - t and t - 1 keep N in Z[q, v]: t p is a shift
    of p by v^2.
    """
    out = {}
    t = ring.t
    ia, ib = i - 1, i
    for e, p in N.items():
        a, b = e[ia], e[ib]
        if a == b:
            _acc(out, e, t(p))
            continue
        mono = list(e)
        mono[ia], mono[ib] = b, a
        if a > b:
            _acc(out, tuple(mono), p)
            if a - b == 1:
                continue
            pm = p - t(p)
        else:
            tp = t(p)
            _acc(out, tuple(mono), tp)
            pm = tp - p
            _acc(out, e, pm)
        # strictly between, x_i-exponent from max(a, b) - 1 down
        hi, lo = max(a, b), min(a, b)
        for k in range(1, hi - lo):
            mono[ia] = hi - k
            mono[ib] = lo + k
            _acc(out, tuple(mono), pm)
    return out


def _g(N, inverse: bool, ring):
    """g, or g^-1, on the numerators N in the ring ring, up to the scalar
    q^k it returns.

    g takes x^e to q^(-e_n) x^(e_n, e_1, ..., e_(n-1)) and g^-1 takes x^e
    to q^(e_1) x^(e_2, ..., e_n, e_1).  With k the least of these powers
    of q, each N_e shifts by q^(power - k), so N stays in Z[q, v].
    """
    if inverse:
        moved = [(e[1:] + e[:1], e[0], p) for e, p in N.items()]
    else:
        moved = [(e[-1:] + e[:-1], -e[-1], p) for e, p in N.items()]
    k = min((a for _, a, _ in moved), default=0)
    shift = ring.shift
    return {e: shift(p, (a - k, 0)) if a != k else p for e, a, p in moved}, k


def _tau_bound(N, letters):
    """(k, d) for the tau letters on the numerators N: when every
    coefficient of N is at most M in size and every v-degree at most D,
    those of the result are at most k M and D + d.

    Every letter keeps each exponent of the result between the least and
    the largest exponent in N, so t^(1/2) T_i adds at most w of them
    into one numerator, w the number of exponents in that range, each
    times 1, t or 1 - t; the intertwiner then multiplies by c's
    numerator and denominator.
    """
    w = max(map(max, N)) - min(map(min, N)) + 1
    k, d = 1, 0
    for _, (_, c) in letters:
        num, den = c.num, c.den
        k *= 2 * w * sum(map(abs, den.values())) + sum(map(abs, num.values()))
        d += max(2 + max(m[1] for m in den), max(m[1] for m in num))
    return k, d


def _run(n: int, S: RatFunc, N, letters, ring=RING):
    """The letters, first to last, on f = S * sum N_e x^e, as the form
    (S', N') of the result: nothing is joined.

    A letter is (name, i), and only the T and tau letters read i: 'tT'
    is t^(1/2) T_i, 'T' and 'T^-1' are T_i and T_i^(-1), 'g' and 'g^-1'
    are g and g^(-1), 'x1' multiplies by x_1, 'tau' with i = (i, c) is
    the intertwiner t^(1/2) T_i + c for a RatFunc c, '1_0' is the
    symmetrizer and 'sum' is 1_0 without its t^(-l(w0)/2).  g_vee is the
    letters T_(n-1), ..., T_1 and then x1 (`_gvee_letters`).  The tau
    letter multiplies the numerators by c's denominator and divides S
    by it; the powers of q and v the other letters leave over are
    folded into S once.

    The numerators are IntPoly2s, or ints packed by a `zpoly._Kron`
    layout passed as ring; the caller makes room for the letters in it.
    """
    qk = vk = 0
    for name, i in letters:
        if name in ("tT", "T", "T^-1"):
            _check_index(i, n)
            out = _tT(i, N, ring)
            if name == "T^-1":  # t^(-1/2) (t^(1/2) T_i - (t - 1))
                for e, p in N.items():
                    _acc(out, e, p - ring.t(p))
            if name != "tT":
                vk -= 1
            N = out
        elif name == "tau":  # (den t^(1/2) T_i + num) / den, c = num / den
            i, c = i
            _check_index(i, n)
            num, den = c.num, c.den
            by_num, by_den = ring.by(num), ring.by(den)
            out = {e: by_den(p) for e, p in _tT(i, N, ring).items()}
            for e, p in N.items():
                _acc(out, e, by_num(p))
            N = out
            S = S / RatFunc(den)
        elif name in ("g", "g^-1"):
            N, k = _g(N, name == "g^-1", ring)
            qk += k
        elif name == "x1":
            N = {(e[0] + 1,) + e[1:]: p for e, p in N.items()}
        elif name in ("1_0", "sum"):
            N = _symmetrize(N, n, ring)
            if name == "1_0":
                vk -= n * (n - 1) // 2
        else:
            raise InvariantViolation(f"unknown operator letter {name!r}")
    if qk:
        S = S * RatFunc.q_power(qk)
    if vk:
        S = S * RatFunc.v_power(vk)
    return S, N


def _apply(f: LaurentPoly, letters) -> LaurentPoly:
    """The letters (see `_run`) on f: one split, one join."""
    return _join(f.n, *_run(f.n, *_split(f), letters))


def divided_difference_part(i: int, f: LaurentPoly) -> LaurentPoly:
    """(t x_i - x_{i+1}) (f - s_i f) / (x_i - x_{i+1}) by exact division.

    The slow reference route for T_i; the division must be exact, and a
    nonzero remainder means a bug, not bad input.
    """
    n = f.n
    _check_index(i, n)
    si = fperm.simple(i, n)
    num = (LaurentPoly.x(i, n).scale(RF_T) - LaurentPoly.x(i + 1, n)) * (
        f - f.subst_perm(si)
    )
    return lp_divexact_xdiff(num, i)


def lp_divexact_xdiff(f: LaurentPoly, i: int) -> LaurentPoly:
    """Exact division of f by (x_i - x_{i+1})."""
    n = f.n
    _check_index(i, n)
    ia, ib = i - 1, i
    rem = dict(f.terms)
    quo = {}
    while rem:
        e = max(rem, key=lambda m: (m[ia], m[ib]))
        c = rem[e]
        if e[ia] == min(m[ia] for m in rem):
            # no term can be reduced further
            raise InvariantViolation(
                f"polynomial not divisible by x_{i} - x_{i + 1}"
            )
        qe = list(e)
        qe[ia] -= 1
        qe = tuple(qe)
        _acc(quo, qe, c)
        del rem[e]
        lower = list(qe)
        lower[ib] += 1
        _acc(rem, tuple(lower), c)
    return LaurentPoly(n, quo, _clean=True)


def apply_T_reference(i: int, f: LaurentPoly) -> LaurentPoly:
    """T_i through the explicit divided difference.

    This is the oracle for `_tT`, the rule every operator runs: it
    shares no code with it (no numerators, no geometric sum), so the
    tests check the fast rule and the words built on it against this
    route.
    """
    return (f.scale(RF_T) - divided_difference_part(i, f)).scale(_VINV)


_INVERSE = {"T": "T^-1", "T^-1": "T", "g": "g^-1"}


def _gvee_letters(n: int):
    """g_vee = x_1 T_1 ... T_(n-1) as letters, first applied first."""
    return [("T", i) for i in range(n - 1, 0, -1)] + [("x1", None)]


def _Y_letters(i: int, n: int, inverse: bool = False):
    """Y_i as letters, first applied first: Y_1 = g T_{n-1} ... T_1 and
    Y_{i+1} = T_i^(-1) Y_i T_i^(-1).  Y_i^(-1) reverses them and inverts
    each."""
    if not 1 <= i <= n:
        raise InvalidInputError(f"Y_{i} needs 1 <= i <= {n}")
    side = [("T^-1", j) for j in range(1, i)]
    letters = side[::-1] + [("T", j) for j in range(1, n)] + [("g", None)] + side
    if inverse:
        return [(_INVERSE[name], j) for name, j in reversed(letters)]
    return letters


def _symmetrize(N, n: int, ring):
    """sum over z in S_n of t^(l(z)/2) T_z on the numerators N.

    Uses the coset factorization z = (s_j s_{j+1} .. s_{n-1}) y with
    y in S_{n-1} and additive lengths, so the sum needs only O(n^2)
    letters t^(1/2) T_i.
    """
    if n <= 1:
        return N
    inner = _symmetrize(N, n - 1, ring)
    total = dict(inner)
    cur = inner
    for j in range(n - 1, 0, -1):
        cur = _tT(j, cur, ring)
        for e, p in cur.items():
            _acc(total, e, p)
    return total


# ---------------------------------------------------------------------------
# operator words and X^{omega_r}

_PLAIN_TAGS = ("g", "g^-1", "1_0")
_INDEXED_TAG = re.compile(r"([TY])([0-9]+)(\^-1)?")


def apply_operator_word(word, f: LaurentPoly) -> LaurentPoly:
    """Apply a word of operator tags, rightmost tag first, in one split
    and one join.

    The tags are exactly these, with i written in decimal digits:

      T<i>, T<i>^-1   T_i and T_i^(-1), 1 <= i <= n - 1
      Y<i>, Y<i>^-1   Y_i and Y_i^(-1), 1 <= i <= n
      g, g^-1         g and g^(-1)
      gvee            g_vee
      1_0             the symmetrizer 1_0

    Any other tag, or an index out of range, raises InvalidInputError.

    >>> from .laurent import LaurentPoly
    >>> f = LaurentPoly.x(1, 2)
    >>> apply_operator_word(["T1^-1", "T1"], f) == f
    True
    >>> apply_operator_word(["Y2^-1", "Y2"], f) == f
    True
    """
    letters = []
    for tag in reversed(list(word)):
        if tag in _PLAIN_TAGS:
            letters.append((tag, None))
            continue
        if tag == "gvee":
            letters.extend(_gvee_letters(f.n))
            continue
        m = _INDEXED_TAG.fullmatch(tag) if isinstance(tag, str) else None
        if m is None:
            raise InvalidInputError(f"bad operator tag {tag!r}")
        op, i, inverse = m[1], int(m[2]), m[3] is not None
        if op == "T":  # `_run` checks i
            letters.append(("T^-1" if inverse else "T", i))
        else:
            letters.extend(_Y_letters(i, f.n, inverse))
    return _apply(f, letters)


def poincare_poly(n: int) -> RatFunc:
    """W_0(t) = sum over S_n of t^length."""
    out = RF_ONE
    for m in range(2, n + 1):
        out = out * sum(
            (RatFunc.t_power(k) for k in range(1, m)), RF_ONE
        )
    return out


def poincare_stabilizer(lam) -> RatFunc:
    """W_lambda(t) for the stabilizer of lam in S_n."""
    out = RF_ONE
    m = 1
    for i in range(1, len(lam)):
        if lam[i] == lam[i - 1]:
            m += 1
        else:
            out = out * poincare_poly(m)
            m = 1
    return out * poincare_poly(m)


def apply_X_omega(r: int, f: LaurentPoly) -> LaurentPoly:
    """X^{omega_r} f = (g_vee)^r T_{w_r}^(-1) f.

    In the polynomial representation this is multiplication by
    x_1 ... x_r.  The reduced word of w_r runs in descending runs,
    (s_{n-r} .. s_1)(s_{n-r+1} .. s_2) ... (s_{n-1} .. s_r).
    """
    n = f.n
    if not 1 <= r <= n:
        raise InvalidInputError(f"X^omega_{r} needs 1 <= r <= {n}")
    word = [j for m in range(1, r + 1) for j in range(n - r + m - 1, m - 1, -1)]
    return _apply(f, [("T^-1", i) for i in reversed(word)] + _gvee_letters(n) * r)

"""The polynomial representation of the affine Hecke algebra.

Operators act on LaurentPoly values; an operator product written
A B C applies C first.  T_i is the Demazure-Lusztig operator

    T_i = t^(-1/2) (t - (t x_i - x_{i+1})/(x_i - x_{i+1}) (1 - s_i)),

g = s_1 ... s_{n-1} followed by x_n -> q^(-1) x_n, and g_vee multiplies
by x_1 after T_1 ... T_{n-1}.  Most internal work uses t^(1/2) T_i,
which keeps coefficients free of odd powers of v: a word T_z goes
through t^(l(z)/2) T_z and one scale by t^(-l(z)/2) at the end.

An operator call writes f = S * sum N_e x^e over one shared denominator
(`_split`): S is one RatFunc and each N_e lies in Z[q, v].  Every letter
t^(1/2) T_i runs on the N_e, where its coefficients t, 1 - t and t - 1
need only polynomial adds and a shift by v^2, and the call rebuilds
canonical coefficients once at the end (`_join`).  The letters of a word
(`_tT_word`) and the symmetrizer's coset recursion (`_symmetrize`) run
on the numerators alone, so `macdonald` applies them to the cached
numerator form of E_mu without a split.
"""

from __future__ import annotations

from . import permutations as fperm
from .errors import InvalidInputError, InvariantViolation
from .laurent import LaurentPoly, _acc
from .ratfunc import RF_ONE, RF_T, RatFunc, _lift

_VINV = RatFunc.v_power(-1)
_T_MONOM = (0, 2)  # t = v^2 as a monomial of Z[q, v]


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


def _tT(i: int, N):
    """t^(1/2) T_i on the numerators N, termwise.

    On a monomial with exponents (a, b) at positions (i, i+1):
      a = b:  t x^e
      a > b:  x^(s_i e) + (1 - t) * (the monomials strictly between)
      a < b:  t x^(s_i e) + (t - 1) x^e + (t - 1) * (strictly between)
    which is the divided difference expanded into a geometric sum.  The
    coefficients t, 1 - t and t - 1 keep N in Z[q, v]: t p is a shift
    of p by v^2.
    """
    out = {}
    ia, ib = i - 1, i
    for e, p in N.items():
        a, b = e[ia], e[ib]
        if a == b:
            _acc(out, e, p.mul_monom(_T_MONOM))
            continue
        mono = list(e)
        mono[ia], mono[ib] = b, a
        if a > b:
            _acc(out, tuple(mono), p)
            if a - b == 1:
                continue
            pm = p - p.mul_monom(_T_MONOM)
        else:
            tp = p.mul_monom(_T_MONOM)
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


def _gvee(N, n: int):
    """x_1 t^((n-1)/2) T_1 ... T_{n-1} on the numerators N: g_vee up to
    the scalar t^((n-1)/2)."""
    for i in range(n - 1, 0, -1):
        N = _tT(i, N)
    return {(e[0] + 1,) + e[1:]: p for e, p in N.items()}


def _tT_word(word, N):
    """t^(l(z)/2) T_z on the numerators N along a word, rightmost letter
    first."""
    for i in reversed(word):
        N = _tT(i, N)
    return N


def _word(word, f: LaurentPoly, s: RatFunc) -> LaurentPoly:
    """s t^(l(z)/2) T_z f along a word, rightmost letter first: one
    split, every letter on the numerators, one join."""
    word = list(word)
    for i in word:
        _check_index(i, f.n)
    S, N = _split(f)
    return _join(f.n, S * s, _tT_word(word, N))


def apply_tT(i: int, f: LaurentPoly) -> LaurentPoly:
    """t^(1/2) T_i f (see `_tT`)."""
    return _word((i,), f, RF_ONE)


def apply_T(i: int, f: LaurentPoly) -> LaurentPoly:
    """T_i f."""
    return _word((i,), f, _VINV)


def apply_T_inv(i: int, f: LaurentPoly) -> LaurentPoly:
    """T_i^(-1) f = t^(-1/2) (t^(1/2) T_i - (t - 1)) f."""
    _check_index(i, f.n)
    S, N = _split(f)
    out = _tT(i, N)
    for e, p in N.items():
        _acc(out, e, p - p.mul_monom(_T_MONOM))
    return _join(f.n, S * _VINV, out)


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
    """T_i through the explicit divided difference; used as an oracle."""
    return (f.scale(RF_T) - divided_difference_part(i, f)).scale(_VINV)


# ---------------------------------------------------------------------------
# g, g_vee, Y_i

def _long_cycle(n):
    """s_1 s_2 ... s_{n-1} as a one-line permutation: i -> i + 1 mod n."""
    return tuple(range(2, n + 1)) + (1,)


def apply_g(f: LaurentPoly) -> LaurentPoly:
    """g f: substitute x_n -> q^(-1) x_n, then x_i -> x_{cycle(i)}."""
    return f.shift_qn().subst_perm(_long_cycle(f.n))


def apply_g_inv(f: LaurentPoly) -> LaurentPoly:
    cycle_inv = fperm.inverse(_long_cycle(f.n))
    return f.subst_perm(cycle_inv).shift_qn_inv()


def apply_gvee(f: LaurentPoly) -> LaurentPoly:
    """g_vee f = x_1 T_1 ... T_{n-1} f (T_{n-1} first)."""
    n = f.n
    S, N = _split(f)
    return _join(n, S * RatFunc.v_power(-(n - 1)), _gvee(N, n))


def apply_Y(i: int, f: LaurentPoly) -> LaurentPoly:
    """Y_i f via Y_1 = g T_{n-1} ... T_1 and Y_{i+1} = T_i^{-1} Y_i T_i^{-1}."""
    n = f.n
    if not 1 <= i <= n:
        raise InvalidInputError(f"Y_{i} needs 1 <= i <= {n}")
    for j in range(i - 1, 0, -1):
        f = apply_T_inv(j, f)
    f = apply_g(apply_tT_word(range(n - 1, 0, -1), f)).scale(
        RatFunc.v_power(-(n - 1))
    )
    for j in range(1, i):
        f = apply_T_inv(j, f)
    return f


def apply_Y_inv(i: int, f: LaurentPoly) -> LaurentPoly:
    """Y_i^(-1) f = T_{i-1} ... T_1 Y_1^(-1) T_1 ... T_{i-1} f with
    Y_1^(-1) = T_1^(-1) ... T_{n-1}^(-1) g^(-1)."""
    n = f.n
    if not 1 <= i <= n:
        raise InvalidInputError(f"Y_{i} needs 1 <= i <= {n}")
    f = apply_T_word(range(1, i), f)
    f = apply_g_inv(f)
    for j in range(n - 1, 0, -1):
        f = apply_T_inv(j, f)
    return apply_T_word(range(i - 1, 0, -1), f)


# ---------------------------------------------------------------------------
# operator words, T_z, the symmetrizer, and X^{omega_r}


def apply_operator_word(word, f: LaurentPoly) -> LaurentPoly:
    """Apply a word of operator tags, rightmost tag first.

    Tags: 'T<i>', 'T<i>^-1', 'Y<i>', 'g', 'g^-1', 'gvee', '1_0'.

    >>> from .laurent import LaurentPoly
    >>> f = LaurentPoly.x(1, 2)
    >>> apply_operator_word(["T1^-1", "T1"], f) == f
    True
    """
    n = f.n
    for tag in reversed(list(word)):
        if tag == "g":
            f = apply_g(f)
        elif tag == "g^-1":
            f = apply_g_inv(f)
        elif tag == "gvee":
            f = apply_gvee(f)
        elif tag == "1_0":
            f = apply_symmetrizer(f)
        elif tag.startswith("T") and tag.endswith("^-1"):
            f = apply_T_inv(_op_index(tag[1:-3], n, n - 1), f)
        elif tag.startswith("T"):
            f = apply_T(_op_index(tag[1:], n, n - 1), f)
        elif tag.startswith("Y"):
            f = apply_Y(_op_index(tag[1:], n, n), f)
        else:
            raise InvalidInputError(f"bad operator tag {tag!r}")
    return f


def _op_index(text, n, top):
    try:
        i = int(text)
    except ValueError:
        raise InvalidInputError(f"bad operator index {text!r}")
    if not 1 <= i <= top:
        raise InvalidInputError(f"operator index {i} out of range for n={n}")
    return i


def apply_tT_word(word, f: LaurentPoly) -> LaurentPoly:
    """t^(l(z)/2) T_z f along a reduced word."""
    return _word(word, f, RF_ONE)


def apply_T_word(word, f: LaurentPoly) -> LaurentPoly:
    """T_z f for z = s_{word[0]} s_{word[1]} ... (rightmost letter first),
    as t^(-len(word)/2) times the t^(1/2) T_i word."""
    word = list(word)
    return _word(word, f, RatFunc.v_power(-len(word)))


def _symmetrize(N, n: int):
    """sum over z in S_n of t^(l(z)/2) T_z on the numerators N.

    Uses the coset factorization z = (s_j s_{j+1} .. s_{n-1}) y with
    y in S_{n-1} and additive lengths, so the sum needs only O(n^2)
    letters t^(1/2) T_i.
    """
    if n <= 1:
        return N
    inner = _symmetrize(N, n - 1)
    total = dict(inner)
    cur = inner
    for j in range(n - 1, 0, -1):
        cur = _tT(j, cur)
        for e, p in cur.items():
            _acc(total, e, p)
    return total


def _symmetrizer(n: int, S: RatFunc, N) -> LaurentPoly:
    """1_0 f for f = S * sum N_e x^e, with t^(-l(w0)/2) folded into S."""
    return _join(n, S * RatFunc.v_power(-(n * (n - 1) // 2)), _symmetrize(N, n))


def hecke_symmetrize_sum(f: LaurentPoly) -> LaurentPoly:
    """sum over z in S_n of t^(l(z)/2) T_z f (see `_symmetrize`)."""
    S, N = _split(f)
    return _join(f.n, S, _symmetrize(N, f.n))


def apply_symmetrizer(f: LaurentPoly) -> LaurentPoly:
    """1_0 f = t^(-l(w0)/2) sum_z t^(l(z)/2) T_z f."""
    return _symmetrizer(f.n, *_split(f))


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


def _coset_word_A(r: int, n: int):
    """Reduced word of w_r, descending runs: (s_{n-r} .. s_1)(s_{n-r+1} .. s_2)..."""
    word = []
    for m in range(1, r + 1):
        word.extend(range(n - r + m - 1, m - 1, -1))
    return word


def _coset_word_B(r: int, n: int):
    """Reduced word of w_r, ascending runs: (s_{n-r} .. ) down to (s_1 ..)."""
    word = []
    for k in range(n - r, 0, -1):
        word.extend(range(k, k + r))
    return word


def apply_X_omega(r: int, f: LaurentPoly, word_form: str = "A") -> LaurentPoly:
    """X^{omega_r} f = (g_vee)^r T_{w_r}^(-1) f.

    In the polynomial representation this is multiplication by
    x_1 ... x_r.  word_form, "A" or "B", selects one of the two reduced
    words of w_r.
    """
    n = f.n
    if not 1 <= r <= n:
        raise InvalidInputError(f"X^omega_{r} needs 1 <= r <= {n}")
    if word_form == "A":
        word = _coset_word_A(r, n)
    elif word_form == "B":
        word = _coset_word_B(r, n)
    else:
        raise InvalidInputError(f"word_form must be 'A' or 'B', not {word_form!r}")
    for i in reversed(word):
        f = apply_T_inv(i, f)
    for _ in range(r):
        f = apply_gvee(f)
    return f

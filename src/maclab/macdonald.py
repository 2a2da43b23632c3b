"""Macdonald polynomials E_mu, E_mu^z, f_mu, F_mu and P_lambda.

E_mu is built by walking the box-greedy word of u_mu from the constant
polynomial, one box at a time: the block s_u ... s_1 pi of the word's
first box runs last, on the cached E of the weight with that box
removed, so walks share their states.  Every letter runs in
`hecke._run`, the one executor of operator letters.  An s_i letter is
the intertwiner letter 'tau', t^(1/2) T_i + (1 - t)/(1 - a_nu).  A pi
letter is the Knop-Sahi recurrence E_(Phi nu) = q^(nu_n) x_1 (g E_nu),
with Phi nu = (nu_n + 1, nu_1, ..., nu_(n-1)) (Knop, Integrality of two
variable Kostka functions, J. reine angew. Math. 1997; Sahi,
Interpolation, integrality, and a generalization of Macdonald's
polynomials, IMRN 1996): the letters g then x1, with q^(nu_n) folded
into S, so it runs no T_i and leaves E monic with no leading
coefficient to divide out.  The walk runs on integer numerators over
one shared denominator, and that form (S, N) is cached for every
weight the walk passes, at each box boundary (`_E_box`, built from the
bottom up by `_E_form`).  That step's cache is the only memo of E:
`compute_E` joins the form on every call.

Everything else is a Hecke-operator twist of some E, run on N with its
scalar folded into S and joined once at the end: E_mu^z applies a
reduced word and f_mu is E_lambda^(z_mu), F_mu and P_lambda by
`symmetrize` the coset recursion of the symmetrizer, and P_lambda by
`sum-rel` walks the orbit of lambda by f_(s_i nu) = t^(1/2) T_i f_nu
(nu_i > nu_(i+1)), one letter per weight.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from types import MappingProxyType

from . import hecke
from . import permutations as fperm
from .affine import _first_box_block
from .errors import InvalidInputError, InvariantViolation
from .laurent import LaurentPoly, _acc, check_weight
from .ratfunc import RF_ONE, RF_T, RING, RatFunc, _cancel_common, _lift, one_minus


@dataclass(frozen=True)
class EigenData:
    """The scalars of the H-action at (mu, i)."""

    mu: tuple
    i: int
    a_mu: RatFunc
    a_simu: RatFunc
    d_mu: RatFunc


def _a_mu(mu, i: int) -> RatFunc:
    """a_mu at i: q^(mu_i - mu_(i+1)) t^(v_mu(i) - v_mu(i+1)), which is
    t^-1 when mu_i = mu_(i+1)."""
    v = fperm.v_increasing(mu)
    return RatFunc.qt_monomial(mu[i - 1] - mu[i], v[i - 1] - v[i])


def eigen_data(mu, i: int) -> EigenData:
    mu = check_weight(mu)
    if not 1 <= i <= len(mu) - 1:
        raise InvalidInputError(f"index {i} out of range")
    a = _a_mu(mu, i)
    ainv = a.inverse()
    if mu[i - 1] == mu[i]:
        return EigenData(mu, i, a, ainv, RF_ONE)
    d = (one_minus(RF_T * a) * one_minus(RF_T * ainv)) / (
        one_minus(a) * one_minus(ainv)
    )
    return EigenData(mu, i, a, ainv, d)


def eigenvalue(mu, i: int) -> RatFunc:
    """The Y_i eigenvalue q^(-mu_i) t^(-(v_mu(i)-1) + (n-1)/2)."""
    mu = check_weight(mu)
    n = len(mu)
    if not 1 <= i <= n:
        raise InvalidInputError(f"Y_{i} needs 1 <= i <= {n}")
    v = fperm.v_increasing(mu)
    return RatFunc.q_power(-mu[i - 1]) * RatFunc.v_power(
        -2 * (v[i - 1] - 1) + (n - 1)
    )


@dataclass(frozen=True)
class MacdonaldResult:
    mu: tuple
    poly: LaurentPoly
    route: str
    z: tuple | None = None


# ---------------------------------------------------------------------------
# E_mu by the intertwiner walk


def _E_form(mu):
    """E_mu as (S, N) with E_mu = S * sum N_e x^e (see hecke._split): S
    is one RatFunc and each N_e lies in Z[q, v].  The result is the
    one-box step's cached form, so N is a read-only view: consumers run
    their letters into new dicts.

    E_mu is built one box at a time.  The box-greedy word of u_mu starts
    with the block s_u ... s_1 pi of its first box, and the rest of the
    word is that of the weight nu with one box fewer
    (`affine._first_box_block`).  `_E_box` runs the block on the cached
    form of E_nu; this function runs it on each weight of the chain from
    (0, ..., 0) up to mu, so every step finds the form before it cached
    and the stack stays two calls deep however many boxes mu has.  Every
    walk passes through the cached E of the weights on its way, and
    walks to weights that share a predecessor share its states.

    `_E_box`'s cache is the only memo of E: this function and every
    join run again on each call, and a cold start clears that one cache.
    """
    chain = [mu]
    while any(chain[-1]):
        chain.append(_first_box_block(chain[-1])[0])
    for nu in reversed(chain):
        form = _E_box(nu)
    return form


_PI_LETTERS = [("g", None), ("x1", None)]


@lru_cache(maxsize=4096)
def _E_box(mu):
    """The form of `_E_form(mu)` from that of the weight before mu, which
    the caller has cached.

    The block's letters run in `hecke._run`.  The pi letter is g then
    x1, not g_vee = x_1 T_1 ... T_(n-1): by the Knop-Sahi recurrence
    E_(Phi nu) = q^(nu_n) x_1 (g E_nu), both give E_(Phi nu) up to a
    scalar, and for x_1 g that scalar is the known power q^(nu_n), which
    goes into S.  So the letter costs a rotation instead of n - 1 T
    letters, and E stays monic without a leading coefficient to look up
    and divide out; one check per weight confirms it.  Each s_i letter
    is the intertwiner letter 'tau' with c = (1 - t)/(1 - a_nu).
    """
    if not any(mu):
        return RF_ONE, MappingProxyType({mu: RING.one})
    n = len(mu)
    nu, u = _first_box_block(mu)
    S, N = _E_box(nu)
    # the block's letters in the order the walk runs them: pi, s_1, ..., s_u
    if nu[-1]:  # the Knop-Sahi scalar; q^0 would still cost a multiply
        S = S * RatFunc.q_power(nu[-1])
    S, N = hecke._run(n, S, N, _PI_LETTERS)
    nu = (nu[-1] + 1,) + nu[:-1]
    # without this the numerators keep every factor that the s letters
    # put in and that S could take back: at n = 6 they grow about
    # fivefold.  Equal numerators are common: divide each distinct one once
    distinct = list(dict.fromkeys(N.values()))
    S, quos = _cancel_common(S, distinct)
    quo = dict(zip(distinct, quos))
    N = {e: quo[p] for e, p in N.items()}
    letters = []
    for i in range(1, u + 1):
        if nu[i - 1] <= nu[i]:
            raise InvariantViolation(f"box-greedy word hit s_{i} at weight {nu}")
        letters.append(("tau", (i, one_minus(RF_T) / one_minus(_a_mu(nu, i)))))
        nu = nu[: i - 1] + (nu[i], nu[i - 1]) + nu[i + 1 :]
    if nu != mu:
        raise InvariantViolation(f"walk ended at {nu}, wanted {mu}")
    S, N = hecke._run(n, S, N, letters)
    lead = N.get(mu)
    # S * lead = 1 with S = num / den in lowest terms, without a fraction
    # whose cancellation trial-divides lead by every factor of den
    if lead is None or S.num * lead != S.den:
        raise InvariantViolation(f"E_{mu} is not monic at x^{mu}")
    return S, MappingProxyType(N)


def compute_E(mu) -> MacdonaldResult:
    """The nonsymmetric Macdonald polynomial E_mu, mu in Z_{>=0}^n."""
    mu = check_weight(mu, nonneg=True)
    return MacdonaldResult(mu, hecke._join(len(mu), *_E_form(mu)), "operator-chain")


def compute_E_rel(mu, z) -> MacdonaldResult:
    """E_mu^z = t^(-(l(z v_mu^-1) - l(v_mu^-1))/2) T_z E_mu."""
    mu = check_weight(mu, nonneg=True)
    z = fperm.check_perm(z, len(mu))
    vinv = fperm.inverse(fperm.v_increasing(mu))
    word = fperm.reduced_word(z)
    # T_z = t^(-l(z)/2) (t^(l(z)/2) T_z): fold l(z) into the one scalar
    shift = len(word) + fperm.length(fperm.compose(z, vinv)) - fperm.length(vinv)
    S, N = _E_form(mu)
    letters = [("tT", i) for i in reversed(word)]
    form = hecke._run(len(mu), S * RatFunc.v_power(-shift), N, letters)
    return MacdonaldResult(mu, hecke._join(len(mu), *form), "operator-chain", z)


def compute_f(mu) -> MacdonaldResult:
    """f_mu = t^(l(z_mu)/2) T_{z_mu} E_lambda, the KZ-family member: that
    is E_lambda^(z_mu)."""
    mu = check_weight(mu, nonneg=True)
    lam = tuple(sorted(mu, reverse=True))
    return replace(compute_E_rel(lam, fperm.min_coset_rep(mu)), mu=mu)


def _orbit_forms(lam):
    """Yield (nu, (S, M)) for every nu in the orbit of lam, with
    f_nu = S * sum M_e x^e and S that of E_lam.

    f_lam = E_lam, and f_(s_i nu) = t^(1/2) T_i f_nu at each descent
    nu_i > nu_(i+1).  Each nu other than lam is reached once, from
    s_i nu with i the first ascent of nu, so the walk costs one letter
    per weight.
    """
    n = len(lam)
    stack = [(lam, _E_form(lam))]
    while stack:
        nu, f = stack.pop()
        yield nu, f
        for i in range(1, n):
            if nu[i - 1] > nu[i]:
                snu = nu[: i - 1] + (nu[i], nu[i - 1]) + nu[i + 1 :]
                # i is the first ascent of snu: snu_1 >= ... >= snu_i
                if all(snu[j - 1] >= snu[j] for j in range(1, i)):
                    stack.append((snu, hecke._run(n, *f, [("tT", i)])))


def compute_P(lam, method: str = "sum-rel") -> MacdonaldResult:
    """P_lambda, by summing f_nu over rearrangements ("sum-rel"), by
    symmetrizing ("symmetrize") or over column strict tableaux ("cst")."""
    lam = check_weight(lam, nonneg=True)
    if list(lam) != sorted(lam, reverse=True):
        raise InvalidInputError(f"{lam} is not weakly decreasing")
    n = len(lam)
    if method == "sum-rel":
        total = {}
        # every f_nu lies over E_lam's S
        for _, (S, M) in _orbit_forms(lam):
            for e, p in M.items():
                _acc(total, e, p)
        return MacdonaldResult(lam, hecke._join(n, S, total), "operator-chain")
    if method == "symmetrize":
        S, N = _E_form(lam)
        w_lam = hecke.poincare_stabilizer(lam)
        form = hecke._run(n, S / w_lam, N, [("sum", None)])
        return MacdonaldResult(lam, hecke._join(n, *form), "symmetrization")
    if method == "cst":
        from .diagrams import cst_expand  # diagrams imports this module
        return cst_expand(lam, n)
    raise InvalidInputError(f"unknown method {method!r}")


def compute_F(mu) -> MacdonaldResult:
    """F_mu = 1_0 E_mu (coefficients may carry odd powers of t^(1/2))."""
    mu = check_weight(mu, nonneg=True)
    n = len(mu)
    form = hecke._run(n, *_E_form(mu), [("1_0", None)])
    return MacdonaldResult(mu, hecke._join(n, *form), "symmetrization")


def symmetrization_constant(mu) -> RatFunc:
    """c(mu) with c(mu) F_mu = P_lambda:

    c(mu) = t^(l(w0)/2) / W_lambda(t) *
            prod over (i,j) in Inv(z_mu) of
            (1 - q^(lam_i - lam_j) t^e) / (1 - q^(lam_i - lam_j) t^(e+1)),

    where e = v_lam(i) - v_lam(j).  When the parts of lam are distinct,
    e = j - i and this is the familiar display; for repeated parts the
    step-by-step derivation forces the v_lam exponents (the telescoping
    eigenvalues are q^(lam_i - lam_j) t^(v_lam(i) - v_lam(j))).
    """
    mu = check_weight(mu, nonneg=True)
    n = len(mu)
    lam = tuple(sorted(mu, reverse=True))
    v_lam = fperm.v_increasing(lam)
    z = fperm.min_coset_rep(mu)
    c = RatFunc.v_power(n * (n - 1) // 2) / hecke.poincare_stabilizer(lam)
    for i, j in fperm.inversions(z):
        e = v_lam[i - 1] - v_lam[j - 1]
        c = c * (
            one_minus(RatFunc.qt_monomial(lam[i - 1] - lam[j - 1], e))
            / one_minus(RatFunc.qt_monomial(lam[i - 1] - lam[j - 1], e + 1))
        )
    return c


# ---------------------------------------------------------------------------
# closed forms


def _single_box_coeff(z, j: int, a: int) -> RatFunc:
    """c_a, the coefficient of x_{z(a)} in E_{eps_j}^z (1 <= a <= j).

    c_j = 1; for a < j, with B = (1-t)/(1 - q t^(n-j+1)),
    c_a = B q t^C(a) if z(j) < z(a) and B t^C(a) if z(j) > z(a), where
    C(a) counts k in {j+1..n} strictly between in the stated sense.
    """
    if a == j:
        return RF_ONE
    n = len(z)
    base = one_minus(RF_T) / one_minus(RatFunc.qt_monomial(1, n - j + 1))
    za, zj = z[a - 1], z[j - 1]
    if zj < za:
        cnt = sum(
            1
            for k in range(j + 1, n + 1)
            if z[k - 1] < zj < za or zj < za < z[k - 1]
        )
        return base * RatFunc.qt_monomial(1, cnt)
    cnt = sum(1 for k in range(j + 1, n + 1) if za < z[k - 1] < zj)
    return base * RatFunc.t_power(cnt)


def closed_single_box(j: int, z) -> MacdonaldResult:
    """E_{eps_j}^z = sum_{a <= j} c_a x_{z(a)}, c_a from _single_box_coeff."""
    z = fperm.check_perm(z)
    n = len(z)
    if not 1 <= j <= n:
        raise InvalidInputError(f"box row {j} out of range")
    mu = [0] * n
    mu[j - 1] = 1
    terms = {}
    for a in range(1, j + 1):
        e = [0] * n
        e[z[a - 1] - 1] = 1
        terms[tuple(e)] = _single_box_coeff(z, j, a)
    return MacdonaldResult(
        tuple(mu), LaurentPoly(n, terms), "closed-form", z
    )


def closed_column(r: int, z) -> MacdonaldResult:
    """t^(l(z)/2) T_z E_{omega_r} = x_{z(1)} ... x_{z(r)} for minimal z."""
    z = fperm.check_perm(z)
    n = len(z)
    if not 1 <= r <= n:
        raise InvalidInputError(f"column height {r} out of range")
    if list(z[:r]) != sorted(z[:r]) or list(z[r:]) != sorted(z[r:]):
        raise InvalidInputError(
            f"{z} is not minimal in its (S_{r} x S_{n - r})-coset"
        )
    e = [0] * n
    for i in range(r):
        e[z[i] - 1] = 1
    mu = (1,) * r + (0,) * (n - r)
    return MacdonaldResult(
        mu, LaurentPoly.monomial(tuple(e)), "closed-form", z
    )


def closed_three_box(shape: str, n: int, symmetric: bool = False) -> MacdonaldResult:
    """The displayed three-box formulas: shapes '3e1', '2e1+e2', 'e1+e2+e3'.

    With symmetric=True returns P of the same shape instead of E.
    """
    if n < 3:
        raise InvalidInputError("three-box closed forms need n >= 3")
    t = RF_T
    q = RatFunc.q_power(1)
    one = RF_ONE
    A = one_minus(t) / one_minus(RatFunc.qt_monomial(1, 1))  # (1-t)/(1-qt)
    B = one_minus(t) / one_minus(RatFunc.qt_monomial(2, 1))  # (1-t)/(1-q^2 t)
    if shape == "3e1":
        mu = (3,) + (0,) * (n - 1)
        if not symmetric:
            x1 = LaurentPoly.x(1, n)
            out = x1 * x1 * x1
            sq = LaurentPoly.zero(n)
            lin = LaurentPoly.zero(n)
            for k in range(2, n + 1):
                xk = LaurentPoly.x(k, n)
                sq = sq + x1 * xk * xk
                lin = lin + x1 * x1 * xk
            out = out + sq.scale(B * q * q)
            out = out + lin.scale(A * (one + B * q) * q)
            cross = LaurentPoly.zero(n)
            for k in range(2, n + 1):
                for l in range(k + 1, n + 1):
                    cross = cross + x1 * LaurentPoly.x(k, n) * LaurentPoly.x(l, n)
            out = out + cross.scale(A * B * (one + q) * q * q)
            return MacdonaldResult(mu, out, "closed-form")
        out = _monomial_sym(mu, n)
        c21 = (one_minus(RatFunc.q_power(3)) / one_minus(RatFunc.qt_monomial(2, 1))) * (
            one_minus(t) / one_minus(q)
        )
        c111 = c21 * (
            one_minus(RatFunc.q_power(2)) / one_minus(RatFunc.qt_monomial(1, 1))
        ) * (one_minus(t) / one_minus(q))
        out = out + _monomial_sym((2, 1) + (0,) * (n - 2), n).scale(c21)
        out = out + _monomial_sym((1, 1, 1) + (0,) * (n - 3), n).scale(c111)
        return MacdonaldResult(mu, out, "closed-form")
    if shape == "2e1+e2":
        mu = (2, 1) + (0,) * (n - 2)
        if not symmetric:
            x1 = LaurentPoly.x(1, n)
            C = one_minus(t) / one_minus(RatFunc.qt_monomial(1, 2))
            out = x1 * x1 * LaurentPoly.x(2, n)
            rest = LaurentPoly.zero(n)
            for k in range(3, n + 1):
                rest = rest + x1 * LaurentPoly.x(2, n) * LaurentPoly.x(k, n)
            return MacdonaldResult(mu, out + rest.scale(C * q), "closed-form")
        out = _monomial_sym(mu, n)
        c = (one_minus(RatFunc.t_power(2)) / one_minus(RatFunc.qt_monomial(1, 1))) * (
            one_minus(RatFunc.qt_monomial(2, 1)) / one_minus(RatFunc.qt_monomial(1, 2))
        ) + (one_minus(t) / one_minus(q)) * (
            one_minus(RatFunc.q_power(2)) / one_minus(RatFunc.qt_monomial(1, 1))
        )
        out = out + _monomial_sym((1, 1, 1) + (0,) * (n - 3), n).scale(c)
        return MacdonaldResult(mu, out, "closed-form")
    if shape == "e1+e2+e3":
        mu = (1, 1, 1) + (0,) * (n - 3)
        if not symmetric:
            out = (
                LaurentPoly.x(1, n) * LaurentPoly.x(2, n) * LaurentPoly.x(3, n)
            )
            return MacdonaldResult(mu, out, "closed-form")
        return MacdonaldResult(mu, _monomial_sym(mu, n), "closed-form")
    raise InvalidInputError(f"unknown three-box shape {shape!r}")


def _monomial_sym(lam, n) -> LaurentPoly:
    """The monomial symmetric polynomial m_lambda in n variables."""
    lam = tuple(lam)
    out = {}
    for nu in fperm.weight_orbit(lam):
        out[nu] = RF_ONE
    return LaurentPoly(n, out, _clean=True)


def _poch(qexp: int, texp: int, r: int) -> RatFunc:
    """(q^qexp t^texp ; q)_r = prod_{k=0}^{r-1} (1 - q^(qexp+k) t^texp)."""
    out = RF_ONE
    for k in range(r):
        out = out * one_minus(RatFunc.qt_monomial(qexp + k, texp))
    return out


def closed_n2(mu) -> MacdonaldResult:
    """The n = 2 closed form via q-binomials in q-Pochhammer form.

    General (a, b) reduces to (0, m) or (m+1, 0) by pulling out powers
    of x1 x2.
    """
    mu = check_weight(mu, 2, nonneg=True)
    a, b = mu
    c = min(a, b)
    a, b = a - c, b - c
    if a == 0:
        m = b
        leading_row = False
    else:
        if b != 0:
            raise InvariantViolation("reduction left a mixed weight")
        m = a - 1
        leading_row = True
    # [k+m, m] -> (qt; q)_m / (q; q)_m, [k+i-1, i] -> (t; q)_i / (q; q)_i
    norm = _poch(1, 0, m) / _poch(1, 1, m)
    out = LaurentPoly.zero(2)
    for i in range(m + 1):
        j = m - i
        coef = (
            (_poch(0, 1, i) / _poch(1, 0, i))
            * (_poch(1, 1, j) / _poch(1, 0, j))
            * norm
        )
        if leading_row:
            coef = coef * RatFunc.q_power(i)
            e = (j + 1, i)
        else:
            e = (i, j)
        out = out + LaurentPoly.monomial(e, coef)
    if c:
        out = out.mul_monomial((c, c))
    return MacdonaldResult(tuple(mu), out, "closed-form")


# ---------------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class CheckLine:
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, n: int, sides) -> CheckLine:
    """The sum over the sides (c, (S, N)) of c * S * sum N_e x^e is zero.

    The scalars c * S go over one denominator, so the check adds integer
    numerators; only a failure joins the sum, to print it as the detail.
    """
    S, lifts = _lift([c * s for c, (s, _) in sides])
    total = {}
    for lift, (_, (_, N)) in zip(lifts, sides):
        for e, p in N.items():
            _acc(total, e, lift * p)
    if not total:
        return CheckLine(name, True)
    diff = hecke._join(n, S, total)
    return CheckLine(name, False, f"difference {diff._readable()}")


def verify_eigen(mu) -> list:
    """Check Y_i E_mu = eigenvalue * E_mu for every i."""
    mu = check_weight(mu, nonneg=True)
    n = len(mu)
    E = _E_form(mu)
    out = []
    for i in range(1, n + 1):
        Y = hecke._run(n, *E, hecke._Y_letters(i, n))
        out.append(_check(f"Y_{i} E_{mu}", n, [(RF_ONE, Y), (-eigenvalue(mu, i), E)]))
    return out


def verify_haction(mu, i: int) -> list:
    """Check the H-action table at (mu, i).

    For mu_i > mu_{i+1} (with E = E_mu, Es = E_{s_i mu}):
      Y_i^-1 Y_{i+1} E = a_mu E
      t^(1/2) T_i E  = -(1-t)/(1-a_mu) E + Es
      t^(1/2) T_i Es = D_mu E - (1-t)/(1-a_simu) Es
    and for mu_i = mu_{i+1}:
      Y_i^-1 Y_{i+1} E = t^-1 E,  t^(1/2) tau_i E = 0,  t^(1/2) T_i E = t E.
    An ascent mu_i < mu_{i+1} is checked at s_i mu.
    """
    mu = check_weight(mu, nonneg=True)
    if not 1 <= i <= len(mu) - 1:
        raise InvalidInputError(f"index {i} out of range")
    if mu[i - 1] < mu[i]:
        # swap roles so that mu_i > mu_{i+1}
        mu = mu[: i - 1] + (mu[i], mu[i - 1]) + mu[i + 1 :]
    n = len(mu)
    E = _E_form(mu)
    ed = eigen_data(mu, i)
    # Y_(i+1), then Y_i^-1, on the cached form
    letters = hecke._Y_letters(i + 1, n) + hecke._Y_letters(i, n, inverse=True)
    yy = hecke._run(n, *E, letters)
    out = [_check(f"Y_{i}^-1 Y_{i + 1} E_{mu}", n, [(RF_ONE, yy), (-ed.a_mu, E)])]
    tTE = hecke._run(n, *E, [("tT", i)])
    # t^(1/2) tau_i = t^(1/2) T_i + (1-t)/(1-a_mu)
    tau = [(RF_ONE, tTE), (one_minus(RF_T) / one_minus(ed.a_mu), E)]
    if mu[i - 1] == mu[i]:
        out.append(_check(f"t^1/2 tau_{i} E_{mu} = 0", n, tau))
        out.append(_check(f"t^1/2 T_{i} E_{mu} = t E", n, [(RF_ONE, tTE), (-RF_T, E)]))
        return out
    smu = mu[: i - 1] + (mu[i], mu[i - 1]) + mu[i + 1 :]
    Es = _E_form(smu)
    taus = [
        (RF_ONE, hecke._run(n, *Es, [("tT", i)])),
        (one_minus(RF_T) / one_minus(ed.a_simu), Es),
    ]
    D = (-ed.d_mu, E)
    out.append(_check(f"t^1/2 T_{i} E_{mu}", n, tau + [(-RF_ONE, Es)]))
    out.append(_check(f"t^1/2 T_{i} E_{smu}", n, taus + [D]))
    out.append(_check(f"t^1/2 tau_{i} E_{mu} = E_{smu}", n, tau + [(-RF_ONE, Es)]))
    out.append(_check(f"t^1/2 tau_{i} E_{smu} = D E_{mu}", n, taus + [D]))
    return out


def verify_kz(lam) -> list:
    """Check the KZ-family relations on the orbit of lam.

    t^(1/2) T_i f_mu = f_{s_i mu} (mu_i > mu_{i+1}), = t f_mu (equal),
    = t f_{s_i mu} + (t-1) f_mu (mu_i < mu_{i+1}, derived), and
    g f_mu = q^(-mu_n) f_{(mu_n, mu_1, ..., mu_{n-1})}.
    """
    lam = check_weight(lam, nonneg=True)
    if list(lam) != sorted(lam, reverse=True):
        raise InvalidInputError(f"{lam} is not weakly decreasing")
    n = len(lam)
    fs = dict(_orbit_forms(lam))
    out = []
    for nu in fperm.weight_orbit(lam):
        f = fs[nu]
        for i in range(1, n):
            got = (RF_ONE, hecke._run(n, *f, [("tT", i)]))
            snu = nu[: i - 1] + (nu[i], nu[i - 1]) + nu[i + 1 :]
            if nu[i - 1] > nu[i]:
                sides = [got, (-RF_ONE, fs[snu])]
                name = f"t^1/2 T_{i} f_{nu} = f_{snu}"
            elif nu[i - 1] == nu[i]:
                sides = [got, (-RF_T, f)]
                name = f"t^1/2 T_{i} f_{nu} = t f_{nu}"
            else:
                sides = [got, (-RF_T, fs[snu]), (RF_ONE - RF_T, f)]
                name = f"t^1/2 T_{i} f_{nu} (ascent case)"
            out.append(_check(name, n, sides))
        got = (RF_ONE, hecke._run(n, *f, [("g", None)]))
        cyc = (nu[-1],) + nu[:-1]
        sides = [got, (-RatFunc.q_power(-nu[-1]), fs[cyc])]
        out.append(_check(f"g f_{nu} = q^-{nu[-1]} f_{cyc}", n, sides))
    return out

"""The affine Weyl group of type GL_n as n-periodic permutations.

A periodic permutation w is a bijection of Z with w(i + n) = w(i) + n,
stored by its window (w(1), ..., w(n)).  The group is generated by the
simple reflections s_1 .. s_{n-1} together with the rotation pi with
pi(i) = i + 1; s_0 is available as a derived element.

Words over the letters {s_i, pi, pi^-1} evaluate with the rightmost
letter acting first, matching how operator products are applied.

>>> PeriodicPerm.pi(3) * PeriodicPerm.pi(3).inverse() == PeriodicPerm.identity(3)
True
>>> translation((1, 0, 0)).window
(4, 2, 3)
"""

from __future__ import annotations

from collections import namedtuple

from . import permutations as fperm
from .errors import InvalidInputError
from .laurent import check_weight

# ---------------------------------------------------------------------------
# group elements


class PeriodicPerm:
    """An n-periodic permutation of Z, stored by its window."""

    __slots__ = ("n", "window")

    def __init__(self, n: int, window):
        window = tuple(int(x) for x in window)
        if len(window) != n:
            raise InvalidInputError("window length must equal n")
        if sorted((x - 1) % n for x in window) != list(range(n)):
            raise InvalidInputError(
                f"window {window} residues are not a permutation of 1..{n}"
            )
        self.n = n
        self.window = window

    # -- constructors ----------------------------------------------------

    @staticmethod
    def identity(n: int) -> "PeriodicPerm":
        return PeriodicPerm(n, range(1, n + 1))

    @staticmethod
    def pi(n: int) -> "PeriodicPerm":
        return PeriodicPerm(n, range(2, n + 2))

    @staticmethod
    def s(i: int, n: int) -> "PeriodicPerm":
        if not 0 <= i <= n - 1:
            raise InvalidInputError(f"s_{i} needs 0 <= i <= {n - 1}")
        if i == 0:
            if n == 1:
                raise InvalidInputError("s_0 needs n >= 2 (at n = 1 pi alone generates the group)")
            w = list(range(1, n + 1))
            w[0] = 0
            w[n - 1] = n + 1
            return PeriodicPerm(n, w)
        w = list(range(1, n + 1))
        w[i - 1], w[i] = i + 1, i
        return PeriodicPerm(n, w)

    @staticmethod
    def from_finite(perm) -> "PeriodicPerm":
        """Embed a finite permutation of {1..n} (one-line notation)."""
        perm = fperm.check_perm(perm)
        return PeriodicPerm(len(perm), perm)

    # -- group structure ---------------------------------------------------

    def apply(self, k: int) -> int:
        """Value w(k) for any integer k."""
        r = (k - 1) % self.n
        return self.window[r] + (k - 1 - r)

    def __mul__(self, other: "PeriodicPerm") -> "PeriodicPerm":
        """Composition (self * other)(k) = self(other(k))."""
        if self.n != other.n:
            raise InvalidInputError("dimension mismatch")
        return _mul(self, other)

    def inverse(self) -> "PeriodicPerm":
        n = self.n
        win = [0] * n
        for j, val in enumerate(self.window, start=1):
            r = (val - 1) % n
            win[r] = j - (val - 1 - r)
        return PeriodicPerm(n, win)

    def __eq__(self, other):
        if not isinstance(other, PeriodicPerm):
            return NotImplemented
        return self.n == other.n and self.window == other.window

    def __hash__(self):
        return hash((self.n, self.window))

    def __repr__(self):
        return f"PeriodicPerm({self.n}, {self.window})"

    # -- weights, lengths, inversions --------------------------------------

    def act_weight(self, mu) -> tuple:
        """The affine action on Z^n pinned by pi(mu) = (mu_n + 1, mu_1, ...).

        Writing self = t_nu v, the action is mu -> nu + v mu.
        """
        mu = check_weight(mu, self.n)
        n = self.n
        out = [0] * n
        for i in range(n):
            val = self.window[i]
            r = (val - 1) % n
            out[r] = mu[i] + (val - 1 - r) // n
        return tuple(out)

    def inversions(self):
        """Affine roots for pairs (a, b), 1 <= a <= n, a < b, w(a) > w(b)."""
        n = self.n
        out = []
        for a in range(1, n + 1):
            wa = self.apply(a)
            for j in range(1, n + 1):
                if j == a:
                    continue
                wj = self.apply(j)
                lev = 0 if j > a else 1
                while wj + lev * n < wa:
                    out.append(AffineRoot(a, j, lev))
                    lev += 1
        return out

    def length(self) -> int:
        return len(self.inversions())


def _mul(a: PeriodicPerm, b: PeriodicPerm) -> PeriodicPerm:
    """a * b for two elements of one group, without the residue check: a
    product of periodic permutations is one."""
    n, w = a.n, a.window
    out = object.__new__(PeriodicPerm)
    out.n = n
    out.window = tuple(w[(x - 1) % n] + (x - 1) // n * n for x in b.window)
    return out


class AffineRoot(namedtuple("AffineRoot", "i j level")):
    """eps_i - eps_j + level * K with i != j in {1..n}."""

    __slots__ = ()

    def __new__(cls, i, j, level):
        if i == j:
            raise InvalidInputError("affine root needs i != j")
        return super().__new__(cls, i, j, level)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so it is checked too
        return cls(*iterable)

    def __str__(self):
        base = f"e{self.i}-e{self.j}"
        if self.level == 0:
            return base
        if self.level == 1:
            return base + "+K"
        return base + f"+{self.level}K"


def translation(mu) -> PeriodicPerm:
    """t_mu with window (1 + n mu_1, ..., n + n mu_n); mu in Z^n."""
    mu = check_weight(mu)
    n = len(mu)
    return PeriodicPerm(n, (i + 1 + n * mu[i] for i in range(n)))


# ---------------------------------------------------------------------------
# words


def word_letters(word):
    """Normalize a word to a tuple of letter tags.

    Accepts tags 's<i>' (i in ASCII digits), 'pi', 'pi^-1' (also
    'pi-1'/'pi_inv' on input).
    """
    out = []
    for L in word:
        if L in ("pi", "pi^-1"):
            out.append(L)
        elif L in ("pi-1", "pi_inv"):
            out.append("pi^-1")
        elif isinstance(L, str) and L.startswith("s") and L[1:].isascii() and L[1:].isdigit():
            out.append(L)
        else:
            raise InvalidInputError(f"bad word letter {L!r}")
    return tuple(out)


def s_count(word) -> int:
    return sum(1 for L in word if L.startswith("s"))


def word_eval(word, n: int):
    """Evaluate a word (rightmost letter first) to a PeriodicPerm.

    Returns (element, reduced) where reduced reports whether the number
    of s-letters equals the length of the element.
    """
    word = word_letters(word)
    w = PeriodicPerm.identity(n)
    for L in word:
        if L == "pi":
            step = PeriodicPerm.pi(n)
        elif L == "pi^-1":
            step = PeriodicPerm.pi(n).inverse()
        else:
            i = int(L[1:])
            if not 0 <= i <= n - 1:
                raise InvalidInputError(f"letter {L} out of range for n={n}")
            step = PeriodicPerm.s(i, n)
        w = w * step
    return w, s_count(word) == w.length()


# ---------------------------------------------------------------------------
# the mu decomposition t_mu = u_mu v_mu, u_mu = z_mu u_lambda


# t_mu and u_mu are PeriodicPerms; v_mu, z_mu, w0, w_lambda and
# w_upper_lambda finite permutations in one-line notation
MuDecomposition = namedtuple(
    "MuDecomposition", "mu lam t_mu u_mu v_mu z_mu w0 w_lambda w_upper_lambda"
)


def decompose_mu(mu) -> MuDecomposition:
    """Split t_mu into its minimal pieces for mu in Z_{>=0}^n."""
    mu = check_weight(mu, nonneg=True)
    n = len(mu)
    lam = tuple(sorted(mu, reverse=True))
    v = fperm.v_increasing(mu)
    z = fperm.min_coset_rep(mu)
    t_mu = translation(mu)
    u_mu = t_mu * PeriodicPerm.from_finite(fperm.inverse(v))
    w0 = fperm.longest_element(n)
    w_lam = fperm.orbit_stabilizer_longest(lam)
    w_up = fperm.compose(w0, w_lam)
    return MuDecomposition(mu, lam, t_mu, u_mu, v, z, w0, w_lam, w_up)


def u_element(mu) -> PeriodicPerm:
    """u_mu, the minimal-length element with u_mu . 0 = mu."""
    return decompose_mu(mu).u_mu


# ---------------------------------------------------------------------------
# the two canonical reduced words for u_mu


def boxes_of(mu):
    """Boxes (i, j) of dg(mu) in increasing cylindrical coordinate i + n*j."""
    n = len(mu)
    boxes = [
        (i, j) for i in range(1, n + 1) for j in range(1, mu[i - 1] + 1)
    ]
    boxes.sort(key=lambda b: b[0] + n * b[1])
    return boxes


def u_stat(mu, i, j):
    """u_mu(i, j) with u + 1 = n - #attack(i, j); the attack window is
    the n - 1 preceding cylindrical coordinates in the extended diagram."""
    n = len(mu)
    b = i + n * j
    count = 0
    for c in range(b - n + 1, b):
        if c < 1:
            continue
        r = (c - 1) % n + 1
        col = (c - r) // n
        if col == 0 or col <= mu[r - 1]:
            count += 1
    return n - 1 - count


def _first_box_block(mu):
    """(nu, u) for a nonzero weight mu: the box-greedy word of u_mu starts
    with the block s_u ... s_1 pi of the first box of dg(mu) in
    cylindrical order, and the rest of the word is the box-greedy word of
    nu, the weight with one box fewer that the block, undone, leaves.

    The first box is (i, 1) with i the first nonzero row; no earlier row
    attacks it, so u = u_mu(i, 1) = i - 1.  Undoing s_u ... s_1 moves
    mu_i to the front and undoing pi then moves it to the end, one lower.
    """
    u = next(k for k, m in enumerate(mu) if m)
    return mu[:u] + mu[u + 1 :] + (mu[u] - 1,), u


def box_greedy_word(mu):
    """Word for u_mu built box by box in cylindrical order.

    Each box b contributes the block s_{u(b)} ... s_2 s_1 pi; the blocks
    are peeled off one at a time by `_first_box_block`.
    """
    mu = check_weight(mu, nonneg=True)
    word = []
    while any(mu):
        mu, u = _first_box_block(mu)
        word.extend(f"s{k}" for k in range(u, 0, -1))
        word.append("pi")
    return tuple(word)


def column_greedy_word(mu):
    """Word for u_mu built column by column.

    Each pass over the nonzero rows J = (j_1 < ... < j_r) contributes
    the runs s_{j_m - 1} ... s_m (in increasing m) followed by pi^r, and
    then recurses on the decremented entries moved to the last r slots.
    """
    mu = check_weight(mu, nonneg=True)
    n = len(mu)
    word = []
    cur = mu
    while any(cur):
        J = [j for j in range(1, n + 1) if cur[j - 1] > 0]
        r = len(J)
        for m, jm in enumerate(J, start=1):
            word.extend(f"s{k}" for k in range(jm - 1, m - 1, -1))
        word.extend(["pi"] * r)
        cur = (0,) * (n - r) + tuple(cur[j - 1] - 1 for j in J)
    return tuple(word)

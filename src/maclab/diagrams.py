"""Box diagrams, fillings, queue tableaux, pipe dreams, alcove walks.

Boxes of dg(mu) are (row i, column j) with 1 <= j <= mu_i; the basement
column j = 0 holds z(i).  The cylindrical coordinate of (i, j) is
i + n*j, and attack_mu(b) is the window of the n - 1 preceding
cylindrical coordinates intersected with the extended diagram.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial
from types import MappingProxyType

from . import permutations as fperm
from .affine import AffineRoot, PeriodicPerm, box_greedy_word, boxes_of, s_count, u_stat
from .errors import InvalidInputError, InvariantViolation
from .laurent import LaurentPoly, check_weight
from .macdonald import MacdonaldResult
from .ratfunc import RF_ONE, RF_T, RING, RatFunc, one_minus

# ---------------------------------------------------------------------------
# diagrams and box statistics


@dataclass(frozen=True)
class Diagram:
    """dg(mu): the boxes (i, j), 1 <= j <= mu_i, in cylindrical order, with
    their coordinates and per-box statistics.

    attack[b] are the boxes (basement included) at the n - 1 coordinates
    before b; arm[b] are the attackers whose Nleg is no longer than b's
    (a basement box (i', 0) counts mu_i'); nleg[b] = mu_i - j,
    narm[b] = #arm[b] and u[b] = u_mu(b).  `Diagram.of(mu)` builds each
    weight once.
    """

    mu: tuple
    boxes: tuple
    coordinate: Mapping  # box -> i + n*j
    index: Mapping  # box -> its position in boxes
    attack: Mapping
    arm: Mapping
    nleg: Mapping
    narm: Mapping
    u: Mapping

    @staticmethod
    def of(mu) -> "Diagram":
        """The Diagram of mu.  The cache is keyed by mu as given (a list as
        its tuple), and the weight is checked on the miss that builds the
        Diagram: once per distinct input, so a repeated call is a lookup."""
        return _diagram(mu if type(mu) is tuple else tuple(mu))


@lru_cache(maxsize=1024)
def _diagram(mu) -> Diagram:
    mu = check_weight(mu, nonneg=True)
    n = len(mu)
    boxes = tuple(boxes_of(mu))
    coordinate = {(i, j): i + n * j for (i, j) in boxes}
    attack, arm, nleg, narm, u = {}, {}, {}, {}, {}
    for (i, j), b in coordinate.items():
        window = range(max(b - n + 1, 1), b)
        cells = (((c - 1) % n + 1, (c - 1) // n) for c in window)
        attack[i, j] = tuple((r, col) for r, col in cells if col <= mu[r - 1])
        leg = nleg[i, j] = mu[i - 1] - j
        # the Nleg of (r, col) is mu_r - col, the basement's included
        arm[i, j] = tuple(w for w in attack[i, j] if mu[w[0] - 1] - w[1] <= leg)
        narm[i, j] = len(arm[i, j])
        if narm[i, j] != narm_count_formula(mu, i, j):
            raise InvariantViolation("narm set/formula mismatch")
        u[i, j] = u_stat(mu, i, j)
    index = {box: k for k, box in enumerate(boxes)}
    # one Diagram per weight serves every caller, so none may change it
    maps = (coordinate, index, attack, arm, nleg, narm, u)
    return Diagram(mu, boxes, *map(MappingProxyType, maps))


def narm_count_formula(mu, i, j):
    """#{i' < i : (i',j) in dg, mu_i' <= mu_i} + #{i' > i : (i',j-1) in ext, mu_i' < mu_i}."""
    n = len(mu)
    first = sum(
        1
        for i2 in range(1, i)
        if mu[i2 - 1] >= j and mu[i2 - 1] <= mu[i - 1]
    )
    second = sum(
        1
        for i2 in range(i + 1, n + 1)
        if (j - 1 == 0 or mu[i2 - 1] >= j - 1) and mu[i2 - 1] < mu[i - 1]
    )
    return first + second


def box_stats(mu) -> Diagram:
    """All per-box statistics of dg(mu): its `Diagram`."""
    return Diagram.of(mu)


# ---------------------------------------------------------------------------
# counting formulas


def conjugate_partition(lam):
    lam = [x for x in lam if x > 0]
    if not lam:
        return ()
    return tuple(
        sum(1 for x in lam if x >= j) for j in range(1, max(lam) + 1)
    )


def count(mu, what: str):
    """Exact counts: 'aw', 'naf' for any mu; 'cst', 't', 'c', 'r' for
    partitions (entries weakly decreasing)."""
    mu = check_weight(mu, nonneg=True)
    n = len(mu)
    if what in ("aw", "naf"):
        total = 1
        for (i, j) in boxes_of(mu):
            u = u_stat(mu, i, j)
            total *= 2**u if what == "aw" else u + 1
        return total
    if list(mu) != sorted(mu, reverse=True):
        raise InvalidInputError(f"{what} needs a partition, got {mu}")
    lam = mu
    lamc = conjugate_partition(lam)
    if what == "cst":
        prod = Fraction(1)
        for (i, j) in boxes_of(lam):
            content = j - i
            hook = (lam[i - 1] - j) + (lamc[j - 1] - i) + 1
            prod *= Fraction(n + content, hook)
        if prod.denominator != 1:
            raise InvalidInputError("cst count did not come out integral")
        return int(prod)
    if what == "t":
        total = factorial(n)
        for (i, j) in boxes_of(lam):
            if j > 1:
                total *= n - lamc[j - 2] + 1
        return total
    if what == "c":
        prod = Fraction(1)
        for (i, j) in boxes_of(lam):
            if j > 1:
                prod *= Fraction(2 ** (n - lamc[j - 2]), n - lamc[j - 2] + 1)
        return prod
    if what == "r":
        prod = Fraction(1)
        for (i, j) in boxes_of(lam):
            if j > 1:
                prod *= Fraction(n - lamc[j - 1] + 1, n - lamc[j - 2] + 1)
        return prod
    raise InvalidInputError(f"unknown count {what!r}")


def qt_special_count(shape: str, n: int, r: int) -> int:
    """#QT closed forms: n^(r-1) for both (r,0,...,0) and (r,...,r,0)."""
    if r < 1:
        raise InvalidInputError("need r >= 1")
    if shape not in ("row", "rect"):
        raise InvalidInputError("shape is 'row' (r,0,..,0) or 'rect' (r,..,r,0)")
    return n ** (r - 1)


# ---------------------------------------------------------------------------
# fillings


@dataclass(frozen=True, slots=True)
class Filling:
    mu: tuple
    z: tuple
    values: tuple  # box values in cylindrical order
    kind: str = "nonattacking"

    def value(self, i, j):
        if j == 0:
            return self.z[i - 1]
        return self.values[Diagram.of(self.mu).index[i, j]]

    def as_dict(self):
        return dict(zip(Diagram.of(self.mu).boxes, self.values))

    def to_json_obj(self):
        return {
            "mu": list(self.mu),
            "z": list(self.z),
            "boxes": [
                {"i": i, "j": j, "v": v}
                for (i, j), v in zip(Diagram.of(self.mu).boxes, self.values)
            ],
        }


def _slot_constructor(cls):
    """For a frozen slots dataclass of four fields, a function that
    makes cls(a, b, c, d) from fields that are already checked.  The
    dataclass's __init__ sets each field through object.__setattr__; the
    slot descriptors set them at about half the cost."""
    set_a, set_b, set_c, set_d = (cls.__dict__[f.name].__set__ for f in fields(cls))
    new = object.__new__

    def make(a, b, c, d):
        obj = new(cls)
        set_a(obj, a)
        set_b(obj, b)
        set_c(obj, c)
        set_d(obj, d)
        return obj

    return make


# Filling(mu, z, values, kind)
_filling = _slot_constructor(Filling)


def enumerate_fillings(mu, z, kind: str = "nonattacking"):
    """All fillings of dg(mu) over the basement z, nonattacking or (kind
    'queue') queue tableaux, values in cylindrical box order, in
    lexicographic order of their values.

    One table gives each box the values its basement attackers leave it
    and the positions of the earlier boxes it must differ from: its
    attackers and, for a queue tableau, the boxes left of the rows of
    equal length just above it (the run rule).  The search fills one
    flat list of values, depth first and without recursion, and emits
    the last box's values in one sweep.
    """
    d = Diagram.of(mu)
    n = len(d.mu)
    z = fperm.check_perm(z, n)
    if kind not in ("nonattacking", "queue"):
        raise InvalidInputError(f"unknown filling kind {kind!r}")
    allowed, earlier = _search_table(d, z, kind == "queue")
    mu, m = d.mu, len(allowed)
    if not m:
        return [_filling(mu, z, (), kind)]
    out = []
    values = [0] * m
    last = m - 1
    todo = [None] * m  # per position, the values not yet tried there
    k = 0
    while k >= 0:
        if k == last:
            head = tuple(values[:last])
            taken = {values[p] for p in earlier[k]}
            for v in allowed[k]:
                if v not in taken:
                    out.append(_filling(mu, z, head + (v,), kind))
            k -= 1
            continue
        left = todo[k]
        if left is None:
            taken = {values[p] for p in earlier[k]}
            left = todo[k] = iter([v for v in allowed[k] if v not in taken])
        v = next(left, 0)
        if v:
            values[k] = v
            k += 1
        else:
            todo[k] = None
            k -= 1
    return out


def _search_table(d, z, queue):
    """Per box of d in cylindrical order: the values in 1..n that its
    basement attackers (and, for a queue tableau, the basement cells of
    the run rule) leave it, ascending, and the positions of the earlier
    boxes whose values it may not take.

    The run rule: a box (i, j) differs from (r, j - 1) for each row r
    above i in the run of rows r < i with mu_r = mu_i that ends at i;
    column 0 is the basement."""
    mu, n = d.mu, len(d.mu)
    allowed, earlier = [], []
    for box in d.boxes:
        i, j = box
        cells = list(d.attack[box])
        r = i - 1
        while queue and r >= 1 and mu[r - 1] == mu[i - 1]:
            cells.append((r, j - 1))
            r -= 1
        banned = {z[i2 - 1] for i2, j2 in cells if j2 == 0}
        allowed.append(tuple(v for v in range(1, n + 1) if v not in banned))
        earlier.append(tuple({d.index[w] for w in cells if w[1]}))
    return allowed, earlier


def filling_word(T: Filling):
    """The word of T (variable indices in cylindrical box order) and the
    endpoint sum of the corresponding straight-line path.  T must be
    well formed (see `pipedream_convert`)."""
    _checked_plan(T)
    endpoint = [0] * len(T.mu)
    for v in T.values:
        endpoint[v - 1] += 1
    return tuple(T.values), tuple(endpoint)


# ---------------------------------------------------------------------------
# pipe dreams


def _plan(mu, z):
    """What every pipe dream of dg(mu) over the basement z shares, keyed
    by mu and z as given (a list as its tuple), so that each distinct
    (mu, z) is checked and laid out once.  See `_pipe_plan`."""
    return _pipe_plan(
        mu if type(mu) is tuple else tuple(mu), z if type(z) is tuple else tuple(z)
    )


@lru_cache(maxsize=1024)
def _pipe_plan(mu, z):
    """(d, z, values, width, template, cells, slot) for dg(mu) over the
    basement z:

    - d is `Diagram.of(mu)` and z is checked as a permutation of 1..n;
    - values is the set 1..n;
    - width = max(mu) + 1 is the number of columns of a pipe dream;
    - template is a pipe dream with n rows laid out flat: row k holds in
      column 0 the i with z(i) = k, and 0 elsewhere;
    - cells[b] = (i, at) for box b = (i, j), where at[v] is the flat
      position of (v, j) for each value v in 1..n (at[0] is unused);
    - slot[j * (n + 1) + i] is the index of box (i, j) for 1 <= j < width
      and 0 <= i <= n, and -1 where (i, j) is not a box.
    Nothing here may change after it is built.
    """
    d = Diagram.of(mu)
    n = len(d.mu)
    z = fperm.check_perm(z, n)
    width = max(d.mu, default=0) + 1
    template = [0] * (n * width)
    for i, k in enumerate(z, start=1):
        template[(k - 1) * width] = i
    cells = tuple(
        (i, tuple(range(j - width, n * width, width))) for i, j in d.boxes
    )
    slot = [-1] * (width * (n + 1))
    for b, (i, j) in enumerate(d.boxes):
        slot[j * (n + 1) + i] = b
    return d, z, frozenset(range(1, n + 1)), width, template, cells, slot


def _checked_plan(T: Filling):
    """The plan of T's (mu, z), once T is checked: z a permutation of
    1..n, one value per box of dg(mu) and every value in 1..n.  Anything
    else raises InvalidInputError."""
    plan = _plan(T.mu, T.z)
    d, _, allowed = plan[:3]
    values = T.values
    if len(values) != len(d.boxes):
        raise InvalidInputError(
            f"filling has {len(values)} values for the {len(d.boxes)} boxes of dg({d.mu})"
        )
    if not allowed.issuperset(values):
        v = next(v for v in values if v not in allowed)
        raise InvalidInputError(f"filling value {v} is not in 1..{len(d.mu)}")
    return plan


def pipedream_convert(T: Filling):
    """P(k, j) = i iff T(i, j) = k, with 0 where k is absent; column 0 is
    the basement.  T must be well formed: its basement a permutation of
    1..n, one value per box of dg(mu), every value in 1..n and the values
    of each column distinct; anything else raises InvalidInputError.

    Each box writes one entry into a copy of the (mu, z) plan's template,
    at the flat position the plan keeps for its value."""
    *_, width, template, cells, _ = _checked_plan(T)
    P = template.copy()
    for (i, at), v in zip(cells, T.values):
        f = at[v]
        if P[f]:
            raise InvalidInputError("filling is not column distinct")
        P[f] = i
    return [P[r : r + width] for r in range(0, len(P), width)]


def pipedream_invert(P, mu, z) -> Filling:
    """The filling T with T(i, j) = k iff P(k, j) = i, inverting
    `pipedream_convert`.  P must have n rows, row k starting with the i
    of z(i) = k, and name each box of dg(mu) exactly once, with row
    indices in 1..n; anything else raises InvalidInputError.  Boxes are
    found in the (mu, z) plan's slot table."""
    d, z, *_, slot = _plan(mu, z)
    n = len(d.mu)
    if len(P) != n:
        raise InvalidInputError(f"pipe dream has {len(P)} rows, not {n}")
    values = [0] * len(d.boxes)
    for k, row in enumerate(P, start=1):
        # column 0 holds the i with z(i) = k
        if not row or not 1 <= row[0] <= n or z[row[0] - 1] != k:
            raise InvalidInputError(f"pipe dream row {k} disagrees with z in column 0")
        base = 0  # the slot of (0, j), for the entry i in column j
        for i in row:
            if i and base:
                if not 1 <= i <= n:
                    raise InvalidInputError(f"pipe dream row index {i} is not in 1..{n}")
                b = slot[base + i] if base < len(slot) else -1
                if b < 0:
                    raise InvalidInputError(
                        f"pipe dream names {(i, base // (n + 1))}, not a box of dg({d.mu})"
                    )
                if values[b]:
                    raise InvalidInputError(f"pipe dream names box {(i, base // (n + 1))} twice")
                values[b] = k
            base += n + 1
    if 0 in values:
        raise InvalidInputError(f"pipe dream misses box {d.boxes[values.index(0)]}")
    return _filling(d.mu, z, tuple(values), "nonattacking")


# ---------------------------------------------------------------------------
# alcove walks


@dataclass(frozen=True, slots=True)
class AlcoveWalk:
    mu: tuple
    z: tuple
    word: tuple  # letters of the reduced word for u_mu
    folds: tuple  # per s-letter: False = cross, True = fold

    @property
    def states(self):
        """The alcoves p_0 .. p_r, PeriodicPerm: z, then the right product
        by each letter, pi or a crossed s_i; a fold stays where it is."""
        n = len(self.mu)
        states = [PeriodicPerm.from_finite(self.z)]
        folds = iter(self.folds)
        for L in self.word:
            p = states[-1]
            if L == "pi":
                p = p * PeriodicPerm.pi(n)
            elif not next(folds):
                p = p * PeriodicPerm.s(int(L[1:]), n)
            states.append(p)
        return tuple(states)

    def shorthand(self) -> str:
        bits = []
        k = 0
        for L in self.word:
            if L == "pi":
                bits.append("pi")
            else:
                bits.append("1" if self.folds[k] else L)
                k += 1
        return " ".join(bits)


# AlcoveWalk(mu, z, word, folds)
_walk = _slot_constructor(AlcoveWalk)


def iter_walks(mu, z):
    """Generate all alcove walks of type (z, box-greedy word of u_mu).

    A walk is its fold vector, one cross (False) or fold (True) per
    s-letter, so the 2^l(u_mu) walks are {cross, fold}^l in binary order:
    cross before fold, first s-letter most significant.
    """
    mu = check_weight(mu, nonneg=True)
    z = fperm.check_perm(z, len(mu))
    word = box_greedy_word(mu)
    for folds in product((False, True), repeat=s_count(word)):
        yield _walk(mu, z, word, folds)


def enumerate_walks(mu, z):
    """All alcove walks of type (z, box-greedy word of u_mu), in the
    deterministic fold-vector order."""
    return list(iter_walks(mu, z))


@dataclass(frozen=True, slots=True)
class PathSegment:
    kind: str  # 'c', 'f', or 'omega'
    direction: tuple  # vector in Q^n
    root: object = None  # AffineRoot for folds


@dataclass(frozen=True, slots=True)
class PathRealization:
    walk: AlcoveWalk
    segments: tuple
    rho: tuple

    def endpoint(self):
        out = [Fraction(0)] * len(self.rho)
        for seg in self.segments:
            for a in range(len(out)):
                out[a] += seg.direction[a]
        return tuple(out)

    def to_json_obj(self):
        segs = []
        for s in self.segments:
            segs.append(
                {
                    "kind": s.kind,
                    "dir": [str(x) for x in s.direction],
                    "root": None
                    if s.root is None
                    else {"i": s.root.i, "j": s.root.j, "level": s.root.level},
                }
            )
        return {"segments": segs, "rho": [str(x) for x in self.rho]}


@lru_cache(maxsize=None)
def _walk_constants(n):
    """What every walk in rank n shares: the omega segment (1/n, ..., 1/n),
    rho, the crossing segment along the coroot e_a - e_b for each a != b,
    and two tables that fill as walks meet their entries: the fold
    segments by (a, b, level), and the steps by window entries (see
    `_walk_step`)."""
    zero, one = Fraction(0), Fraction(1)
    cross = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                e = [zero] * n
                e[a - 1], e[b - 1] = one, -one
                cross[a, b] = PathSegment("c", tuple(e))
    omega = PathSegment("omega", (Fraction(1, n),) * n)
    rho = tuple(Fraction(n - 1, 2) - a for a in range(n))
    return omega, rho, cross, {}, {}


def _walk_step(n, wi, wi1):
    """The (crossing, fold) segments of an s_i step from an alcove whose
    window holds wi, wi1 at i, i + 1.  With a, b their residues, both run
    along e_a - e_b, and the fold carries the root e_b - e_a + level K,
    level = floor((wi - 1) / n) - floor((wi1 - 1) / n).  Kept in the
    rank-n steps table."""
    _, _, cross, folds, steps = _walk_constants(n)
    a, b = (wi - 1) % n + 1, (wi1 - 1) % n + 1
    key = a, b, (wi - 1) // n - (wi1 - 1) // n
    fold = folds.get(key)
    if fold is None:
        fold = folds[key] = PathSegment("f", cross[a, b].direction, AffineRoot(b, a, key[2]))
    step = steps[wi, wi1] = cross[a, b], fold
    return step


@lru_cache(maxsize=1024)
def _letter_indices(word):
    """i for each letter s_i of a walk's word, and 0 for pi."""
    return tuple(0 if L == "pi" else int(L[1:]) for L in word)


def walk_geometry(walk: AlcoveWalk) -> PathRealization:
    """Per-step path segments: omega for pi, c/f in direction of the
    moved coroot, fold steps also carrying their hyperplane root.

    The alcove's window starts at z: a crossing s_i swaps its entries i
    and i + 1, a fold leaves it, and pi rotates it to (w_2, ..., w_n,
    w_1 + n).  Each step is looked up by the two entries it moves, and
    every segment and rho is built once per n and shared by every walk.
    """
    n = len(walk.mu)
    omega, rho, _, _, steps = _walk_constants(n)
    out = []
    w = list(walk.z)
    folds = iter(walk.folds)
    for i in _letter_indices(walk.word):
        if not i:
            out.append(omega)
            w.append(w.pop(0) + n)
            continue
        step = steps.get((w[i - 1], w[i])) or _walk_step(n, w[i - 1], w[i])
        fold = next(folds)
        out.append(step[fold])
        if not fold:
            w[i - 1], w[i] = w[i], w[i - 1]
    return PathRealization(walk, tuple(out), rho)


# ---------------------------------------------------------------------------
# the column strict tableau formula for P_lambda


def _strip_ok(lam, mu):
    """lam >= mu with lam/mu a horizontal strip."""
    lam = list(lam) + [0] * (len(mu) - len(lam))
    mu = list(mu) + [0] * (len(lam) - len(mu))
    for i in range(len(lam)):
        if lam[i] < mu[i]:
            return False
        if i + 1 < len(lam) and mu[i] < lam[i + 1]:
            return False
    return True


def _trim(p):
    """p as a tuple of ints without trailing zeros."""
    p = tuple(int(x) for x in p)
    k = len(p)
    while k and p[k - 1] == 0:
        k -= 1
    return p[:k]


def psi_strip(lam, mu) -> RatFunc:
    """psi_{lam/mu} for a horizontal strip, as a finite q-Pochhammer
    product over pairs 1 <= i <= j <= l(mu):

      (q^(mu_i - mu_j) t^(j-i+1); q)_{lam_i - mu_i}
      (q^(mu_i - lam_{j+1} + 1) t^(j-i); q)_{lam_i - mu_i}
      / (q^(mu_i - lam_{j+1}) t^(j-i+1); q)_{lam_i - mu_i}
      / (q^(mu_i - mu_j + 1) t^(j-i); q)_{lam_i - mu_i}

    Trailing zeros do not change it, and each strip is computed once.
    """
    exps = _psi_strip(_trim(lam), _trim(mu))
    num = _binomials({f: k for f, k in exps.items() if k > 0})
    den = _binomials({f: -k for f, k in exps.items() if k < 0})
    return RatFunc(num, den)


@lru_cache(maxsize=4096)
def _psi_strip(lam, mu) -> Counter:
    """psi_{lam/mu} as binomial exponents: {(a, b): k} stands for the
    product of (1 - q^a t^b)^k.  Every factor of the q-Pochhammer
    symbols has a, b >= 0 and (a, b) != (0, 0), and no k is zero.  The
    Counter is shared: callers must not change it."""
    if list(lam) != sorted(lam, reverse=True) or list(mu) != sorted(
        mu, reverse=True
    ):
        raise InvalidInputError("psi needs partitions")
    if not _strip_ok(lam, mu):
        raise InvalidInputError(f"{lam}/{mu} is not a horizontal strip")
    ell = len([x for x in mu if x > 0])
    lam_pad = list(lam) + [0] * (ell + 2)
    mu_pad = list(mu) + [0] * (ell + 2)
    out = Counter()
    for i in range(1, ell + 1):
        r = lam_pad[i - 1] - mu_pad[i - 1]
        if r == 0:
            continue
        for j in range(i, ell + 1):
            d = j - i
            for k in range(r):
                out[mu_pad[i - 1] - mu_pad[j - 1] + k, d + 1] += 1
                out[mu_pad[i - 1] - lam_pad[j] + 1 + k, d] += 1
                out[mu_pad[i - 1] - lam_pad[j] + k, d + 1] -= 1
                out[mu_pad[i - 1] - mu_pad[j - 1] + 1 + k, d] -= 1
    return Counter({f: k for f, k in out.items() if k})


def _binomials(exps):
    """The product of (1 - q^a t^b)^k over {(a, b): k} with every k >= 0,
    in Z[q, v]: each factor multiplies in as p - p q^a v^(2b)."""
    p = RING.one
    for (a, b), k in exps.items():
        for _ in range(k):
            p = p - p.mul_monom((a, 2 * b))
    return p


def column_strict_tableaux(lam, n):
    """All column strict tableaux of shape lam with entries in {1..n},
    as chains (lam^(0) = empty, ..., lam^(n) = lam) of partitions, in
    lexicographic order of (lam^(n-1), ..., lam^(1)).

    A horizontal strip takes at most one box from each column, so a
    shape with k nonzero parts needs k more strips to empty.  The search
    runs depth first over one shared chain and only steps to shapes that
    can still be emptied in the steps left, so no branch is dead: its
    time is proportional to the chains it returns.
    """
    lam = tuple(int(x) for x in lam)
    if list(lam) != sorted(lam, reverse=True):
        raise InvalidInputError("shape must be a partition")
    if any(x < 0 for x in lam) or sum(1 for x in lam if x) > n:
        return []
    empty = (0,) * len(lam)
    if n < 2:
        # lam is empty when n = 0, and one strip when n = 1
        return [(empty,) + (lam,) * n]
    chain = [empty] + [None] * (n - 1) + [lam]
    out = []
    _strip_chains(chain, n, out, {})
    return out


def _strip_chains(chain, steps, out, below):
    """Fill chain[steps - 1], ..., chain[1] below chain[steps] (which has
    at most `steps` nonzero parts), appending each finished chain to out.

    below[shape, steps] lists every mu with shape/mu a horizontal strip
    and at most steps - 1 nonzero parts: shape_(i+1) <= mu_i <= shape_i,
    which also makes mu weakly decreasing, and mu_i = 0 from part
    `steps` on.  Many chains pass through one shape, so each list is
    made once per call.
    """
    shape = chain[steps]
    prevs = below.get((shape, steps))
    if prevs is None:
        ranges = [
            range(lo, (hi if i < steps - 1 else 0) + 1)
            for i, (lo, hi) in enumerate(zip(shape[1:] + (0,), shape))
        ]
        prevs = below[shape, steps] = list(product(*ranges))
    for prev in prevs:
        chain[steps - 1] = prev
        if steps == 2:
            out.append(tuple(chain))
        else:
            _strip_chains(chain, steps - 1, out, below)


def cst_expand(lam, n) -> MacdonaldResult:
    """P_lambda = sum over column strict tableaux T of psi_T x^T.

    P_lambda is symmetric, so only tableaux of a dominant weight (strip
    sizes weakly decreasing) are summed; each coefficient then goes to
    every rearrangement of its weight.  psi_T is the product of its
    strips' psi, as binomial exponents.  The tableaux of one weight are
    summed in Z[q, v] over one denominator, each binomial at the largest
    multiplicity any of them has in its denominator, so the field makes
    one RatFunc per weight, not one per q-Pochhammer factor.
    """
    lam = check_weight(lam, nonneg=True)
    if len([x for x in lam if x > 0]) > n:
        raise InvalidInputError("shape has more rows than variables")
    by_weight = {}
    for chain in column_strict_tableaux(lam, n):
        weight = tuple(sum(chain[k]) - sum(chain[k - 1]) for k in range(1, n + 1))
        if any(a < b for a, b in zip(weight, weight[1:])):
            continue
        psi = Counter()
        for k in range(1, n + 1):
            psi.update(_psi_strip(_trim(chain[k]), _trim(chain[k - 1])))
        by_weight.setdefault(weight, []).append(psi)
    terms = {}
    for weight, psis in by_weight.items():
        den = Counter()
        for psi in psis:
            den |= Counter({f: -k for f, k in psi.items() if k < 0})
        num = sum((_binomials(den + psi) for psi in psis), RING.zero)
        coeff = RatFunc(num, _binomials(den))
        for nu in fperm.weight_orbit(weight):
            terms[nu] = coeff
    mu_full = tuple(list(lam) + [0] * (n - len(lam))) if len(lam) < n else lam[:n]
    return MacdonaldResult(mu_full, LaurentPoly(n, terms), "cst")


# ---------------------------------------------------------------------------
# the nonattacking-filling weight (Haglund-Haiman-Loehr, permuted basements)


def _cyclic(a, b, c):
    """(a, b, c) is in cyclically increasing order."""
    return a < b < c or b < c < a or c < a < b


def filling_weight(T: Filling) -> RatFunc:
    """wt(T), so that E_mu^z = sum over nonattacking fillings T of
    wt(T) x^T with x^T = prod of x_T(u) over the boxes u of dg(mu).

    Haglund-Haiman-Loehr's weight with the permuted basement z
    (Alexandersson): wt(T) is a product over the boxes u = (i, j).  With
    L = T(i, j-1), the basement z(i) when j = 1, a box with T(u) = L
    contributes 1; any other box contributes

      (1-t) / (1 - q^(nleg+1) t^(narm+1)) * q^(nleg+1 if T(u) > L) * t^k

    with nleg, narm and the arm set of `Diagram`; k counts the boxes w of
    the arm set of u with (L, T(u), T(w)) cyclically increasing.  T must
    be well formed (see `pipedream_convert`).
    """
    d = _checked_plan(T)[0]
    out = RF_ONE
    for (i, j), a in zip(d.boxes, T.values):
        left = T.value(i, j - 1)
        if a == left:
            continue
        leg = d.nleg[i, j] + 1
        k = sum(1 for w in d.arm[i, j] if _cyclic(left, a, T.value(*w)))
        den = one_minus(RatFunc.qt_monomial(leg, d.narm[i, j] + 1))
        out = out * one_minus(RF_T) / den
        out = out * RatFunc.qt_monomial(leg if a > left else 0, k)
    return out

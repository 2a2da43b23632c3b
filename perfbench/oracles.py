"""Exact output checks, run outside the timed window.

`Oracle.check(job, out)` returns a list of failure messages (empty when
the output is right).  Where it can, a check uses arithmetic of its own
rather than the code path it checks:

* coefficients are evaluated from the JSON at t = 1 (v = 1) and a
  rational q with `fractions.Fraction`, where E_mu, E_mu^z and f_mu
  reduce to one monomial, P_lambda to m_lambda and F_mu to
  |Stab(mu)| m_lambda;
* the three P routes must agree term for term;
* counts use this file's own box statistic and hook-content formula,
  and the nonattacking, queue and horizontal-strip rules are restated
  here;
* the pipe-dream round trip must return each filling unchanged;
* on a seeded subset, c(mu) F_mu must equal P_lambda by the cst route.

The oracle keeps what later checks need (the verified fillings of a
job, the first P route of each lambda) between calls.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import permutations
from math import factorial

SCHEMA = "macdonald-lab/1"
Q0 = Fraction(3, 7)  # the rational q at which t = 1 values are taken


# -- independent arithmetic -------------------------------------------------------


def _side(terms, q0, v0):
    return sum((int(t["c"]) * q0 ** t["q"] * v0 ** t["v"] for t in terms), Fraction(0))


def at_t_one(terms):
    """{exponent: value} of a JSON term list at v = 1, q = Q0, zeros dropped."""
    out = {}
    for term in terms:
        c = term["coeff"]
        den = _side(c["den"], Q0, Fraction(1))
        if den == 0:
            raise ZeroDivisionError(f"pole at t = 1 in the coefficient of {term['x']}")
        val = _side(c["num"], Q0, Fraction(1)) / den
        if val:
            out[tuple(term["x"])] = val
    return out


def _orbit(lam):
    return set(permutations(lam))


def _stabilizer(lam):
    out = 1
    for part in set(lam):
        out *= factorial(list(lam).count(part))
    return out


def boxes(mu):
    """Boxes (i, j) of dg(mu) in increasing cylindrical coordinate i + n j."""
    n = len(mu)
    return sorted(
        ((i, j) for i in range(1, n + 1) for j in range(1, mu[i - 1] + 1)),
        key=lambda b: b[0] + n * b[1],
    )


def _window(mu, i, j):
    """Cells of the extended diagram among the n - 1 cylindrical
    coordinates before (i, j); column 0 is the basement."""
    n = len(mu)
    c = i + n * j
    for c2 in range(max(1, c - n + 1), c):
        i2 = (c2 - 1) % n + 1
        j2 = (c2 - i2) // n
        if j2 == 0 or j2 <= mu[i2 - 1]:
            yield i2, j2


def naf_count(mu):
    out = 1
    n = len(mu)
    for i, j in boxes(mu):
        out *= n - sum(1 for _ in _window(mu, i, j))
    return out


def aw_count(mu):
    exp = 0
    n = len(mu)
    for i, j in boxes(mu):
        exp += n - 1 - sum(1 for _ in _window(mu, i, j))
    return 2**exp


def cst_count(lam, n=None):
    """Column-strict tableaux of shape lam with entries 1..n (hook-content);
    n defaults to len(lam)."""
    n = len(lam) if n is None else n
    lam = [x for x in lam if x]
    conj = [sum(1 for x in lam if x >= j) for j in range(1, (lam[0] if lam else 0) + 1)]
    out = Fraction(1)
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            out *= Fraction(n + j - i, (row - j) + (conj[j - 1] - i) + 1)
    return int(out)


def _values(mu, z, values):
    """The filling as {(i, j): value}, basement included."""
    cells = dict(zip(boxes(mu), values))
    for i in range(1, len(mu) + 1):
        cells[i, 0] = z[i - 1]
    return cells


def _nonattacking(mu, cells):
    return all(
        cells[i, j] != cells[b] for (i, j) in boxes(mu) for b in _window(mu, i, j)
    )


def _queue_rule(mu, cells):
    """No box repeats the value left of it in a row above it within the
    maximal run of equal-length rows ending at its row."""
    for i, j in boxes(mu):
        r = i - 1
        while r >= 1 and mu[r - 1] == mu[i - 1]:
            if cells[i, j] == cells[r, j - 1]:
                return False
            r -= 1
    return True


def _horizontal_strip(outer, inner):
    return all(inner[k] <= outer[k] for k in range(len(outer))) and all(
        outer[k + 1] <= inner[k] for k in range(len(outer) - 1)
    )


# -- the checks ---------------------------------------------------------------------


class Oracle:
    def __init__(self):
        self.fillings = {}  # job id -> verified value tuples, in order
        self.p_routes = {}  # lambda -> (method, terms) of the first route seen

    def check(self, job, out):
        try:
            return getattr(self, "_" + job["kind"])(job, out)
        except Exception as e:  # a malformed output is a failed check
            return [f"oracle raised {type(e).__name__}: {e}"]

    # -- construct and cli ----------------------------------------------------------

    def _cli(self, job, out):
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        verb = job.get("verb")
        if verb == "verify":
            n = int(job["argv"][job["argv"].index("--n") + 1])
            k = 3**n * 3  # weights in {0,1,2}^n, each with two basements and one walk count
            want = f"{k}/{k} checks passed\n"
            return [] if out["stdout"] == want else [f"verify printed {out['stdout']!r}, want {want!r}"]
        lines = out["stdout"].splitlines()
        if len(lines) != 1:
            return [f"{len(lines)} lines of output"]
        doc = json.loads(lines[0])
        errs = []
        command = "E" if verb == "Ez" else verb
        if doc.get("schema") != SCHEMA or doc.get("command") != command:
            errs.append(f"header {doc.get('schema')!r} {doc.get('command')!r}")
        if doc.get("mu") != list(job["mu"]) or doc.get("n") != len(job["mu"]):
            errs.append("mu or n not echoed")
        if verb == "count":
            if doc.get("what") != job["what"]:
                errs.append(f"count of {doc.get('what')!r}")
            want = {"naf": naf_count, "aw": aw_count, "cst": cst_count}[job["what"]](job["mu"])
            if doc.get("value") != str(want):
                errs.append(f"count {job['what']} = {doc.get('value')}, want {want}")
            return errs
        return errs + self._poly(job, doc)

    def _poly(self, job, doc):
        terms = doc["terms"]
        errs = _canonical_terms(terms)
        mu = tuple(job["mu"])
        n = len(mu)
        verb = job["verb"]
        got = at_t_one(terms)
        if verb == "E":
            errs += _monic(terms, mu)
            want = {mu: 1}
        elif verb == "Ez":
            if doc.get("z") != list(job["z"]):
                errs.append("z not echoed")
            w = [0] * n
            for i, zi in enumerate(job["z"]):
                w[zi - 1] = mu[i]
            want = {tuple(w): 1}
        elif verb == "f":
            want = {mu: 1}
        elif verb == "F":
            s = _stabilizer(mu)
            want = {nu: s for nu in _orbit(mu)}
            if job.get("check_constant"):
                errs += _constant_times_F(mu, terms)
        else:  # P
            want = {nu: 1 for nu in _orbit(mu)}
            if doc.get("method") != job["method"]:
                errs.append(f"method {doc.get('method')!r}")
            first = self.p_routes.setdefault(mu, (job["method"], terms))
            if first[1] != terms:
                errs.append(f"P by {job['method']} differs from P by {first[0]}")
        if got != want:
            errs.append(f"value at t = 1 is {_show(got)}, want {_show(want)}")
        return errs

    # -- verify ---------------------------------------------------------------------

    def _lines(self, out, want_count):
        lines = out["lines"]
        errs = [f"check failed: {c.name} {c.detail}" for c in lines if c.ok is not True]
        if len(lines) != want_count:
            errs.append(f"{len(lines)} check lines, want {want_count}")
        return errs

    def _eigen(self, job, out):
        mu = tuple(job["mu"])
        errs = self._lines(out, len(mu))
        errs += _canonical_terms(out["E"]) + _monic(out["E"], mu)
        if at_t_one(out["E"]) != {mu: 1}:
            errs.append("E_mu at t = 1 is not x^mu")
        return errs

    def _haction(self, job, out):
        mu, i = job["mu"], job["i"]
        return self._lines(out, 3 if mu[i - 1] == mu[i] else 5)

    def _kz(self, job, out):
        lam = tuple(job["lam"])
        return self._lines(out, len(_orbit(lam)) * len(lam))

    # -- enumerate ------------------------------------------------------------------

    def _fillings(self, job, out):
        mu, z = tuple(job["mu"]), tuple(job["z"])
        n = len(mu)
        errs = []
        seen = []
        for T in out:
            if T.mu != mu or tuple(T.z) != z or T.kind != job["fill"]:
                return [f"filling of the wrong diagram: {T}"]
            if len(T.values) != sum(mu) or not all(1 <= v <= n for v in T.values):
                return [f"bad values {T.values}"]
            cells = _values(mu, z, T.values)
            if not _nonattacking(mu, cells):
                return [f"attacking filling {T.values}"]
            if job["fill"] == "queue" and not _queue_rule(mu, cells):
                return [f"queue rule broken by {T.values}"]
            seen.append(tuple(T.values))
        if len(set(seen)) != len(seen):
            errs.append("repeated filling")
        if job["fill"] == "nonattacking":
            if len(seen) != naf_count(mu):
                errs.append(f"{len(seen)} fillings, want {naf_count(mu)}")
        else:
            naf = self.fillings[job["naf_job"]]
            want = sum(1 for vals in naf if _queue_rule(mu, _values(mu, z, vals)))
            if not set(seen) <= set(naf):
                errs.append("a queue tableau is not among the nonattacking fillings")
            if len(seen) != want:
                errs.append(f"{len(seen)} queue tableaux, want {want}")
        if not errs:
            self.fillings[job["id"]] = seen
        return errs

    def _pipedream(self, job, out):
        mu, z = tuple(job["mu"]), tuple(job["z"])
        fills = self.fillings[job["of"]]
        if len(out) != len(fills):
            return [f"{len(out)} round trips for {len(fills)} fillings"]
        width = max(mu) + 1
        for (P, back), vals in zip(out, fills):
            if tuple(back.values) != vals or back.mu != mu or tuple(back.z) != z:
                return [f"round trip changed {vals} into {back.values}"]
            if len(P) != len(mu) or any(len(row) != width for row in P):
                return [f"pipe dream of shape {[len(r) for r in P]}"]
            for (i, j), v in _values(mu, z, vals).items():
                if P[v - 1][j] != i:
                    return [f"pipe dream misplaces box ({i}, {j}) of {vals}"]
            if sum(1 for row in P for x in row if x) != len(mu) + sum(mu):
                return [f"pipe dream of {vals} has stray entries"]
        return []

    def _walks(self, job, out):
        mu, z = tuple(job["mu"]), tuple(job["z"])
        want = aw_count(mu)
        if len(out) != want:
            return [f"{len(out)} walks, want {want}"]
        folds = set()
        for w, g in out:
            if w.mu != mu or tuple(w.z) != z:
                return [f"walk of the wrong type {w.mu} {w.z}"]
            letters = len(w.word) - w.word.count("pi")
            if len(w.folds) != letters or 2**letters != want:
                return [f"fold vector of length {len(w.folds)} for {letters} letters"]
            folds.add(tuple(w.folds))
            if len(g.segments) != len(w.word):
                return ["one path segment per letter expected"]
            kinds = [s.kind for s in g.segments]
            if kinds.count("omega") != sum(mu) or kinds.count("f") != sum(w.folds):
                return [f"segments {kinds} do not match folds {w.folds}"]
            for s in g.segments:
                if s.kind == "omega":
                    continue
                if sorted(s.direction) != [-1] + [0] * (len(mu) - 2) + [1]:
                    return [f"segment direction {s.direction}"]
                if (s.root is None) != (s.kind == "c"):
                    return ["fold root missing or cross root present"]
            if sum(g.endpoint()) != sum(mu):
                return [f"path endpoint {g.endpoint()} has the wrong mass"]
        # distinct fold vectors of the right length, as many as the
        # cube has vertices: every walk is there once
        if len(folds) != want:
            return ["repeated walk"]
        return []

    def _tableaux(self, job, out):
        lam, n = tuple(job["lam"]), job["n"]
        want = cst_count(lam, n)
        errs = [] if len(out) == want else [f"{len(out)} tableaux, want {want}"]
        if len(set(out)) != len(out):
            errs.append("repeated tableau")
        for chain in out:
            if len(chain) != n + 1 or any(chain[0]) or tuple(chain[-1]) != lam:
                return errs + [f"chain {chain} does not run from 0 to {lam}"]
            for a, b in zip(chain, chain[1:]):
                if not _horizontal_strip(b, a):
                    return errs + [f"{b}/{a} is not a horizontal strip"]
        return errs

    def _weights(self, job, out):
        mu, z = tuple(job["mu"]), tuple(job["z"])
        errs = _canonical_terms(out["operator"])
        if out["fillings"] != out["operator"]:
            errs.append("filling formula and operator chain differ")
        w = [0] * len(mu)
        for i, zi in enumerate(z):
            w[zi - 1] = mu[i]
        if at_t_one(out["operator"]) != {tuple(w): 1}:
            errs.append("E_mu^z at t = 1 is not x^(z mu)")
        return errs


def _canonical_terms(terms):
    """Terms sorted by exponent, none zero, denominators present."""
    xs = [tuple(t["x"]) for t in terms]
    if xs != sorted(set(xs)):
        return ["terms not strictly sorted by exponent"]
    for t in terms:
        c = t["coeff"]
        if not c["num"] or not c["den"] or any(int(x["c"]) == 0 for x in c["num"] + c["den"]):
            return [f"zero or empty coefficient at {t['x']}"]
    return []


def _monic(terms, mu):
    one = [{"q": 0, "v": 0, "c": "1"}]
    lead = [t["coeff"] for t in terms if tuple(t["x"]) == tuple(mu)]
    if lead != [{"num": one, "den": one}]:
        return [f"coefficient of x^{tuple(mu)} is {lead}, want 1"]
    return []


def _constant_times_F(mu, terms):
    """c(mu) F_mu = P_lambda, with P_lambda from the column-strict route."""
    from maclab import cst_expand, symmetrization_constant
    from maclab.ratfunc import poly_from_terms, rf_normalize

    c = symmetrization_constant(mu)
    lam = tuple(sorted((x for x in mu if x), reverse=True))
    want = {tuple(t["x"]): t["coeff"] for t in cst_expand(lam, len(mu)).poly.to_json_obj()}
    got = {}
    for t in terms:
        side = {k: poly_from_terms({(x["q"], x["v"]): int(x["c"]) for x in t["coeff"][k]}) for k in ("num", "den")}
        got[tuple(t["x"])] = (c * rf_normalize(side["num"], side["den"])).to_json_obj()
    return [] if got == want else ["c(mu) F_mu differs from P_lambda by cst"]


def _show(d):
    return {k: str(v) for k, v in sorted(d.items())}

"""Span tracer installed from outside the program, for the traced run only.

`Tracer.install()` wraps the public functions and class methods of the
maclab layers and rebinds every module namespace that imported them by
name, so calls made inside the library are traced too.  Each wrapped
call records one span: name, start, end, parent span and job id.  Spans
stay in memory; `write()` dumps them and `layer_metrics()` turns them
into the per-layer numbers.

sympy's `PolyElement.gcd` calls `cofactors`, so the two are wrapped with
a depth guard and only the outermost call is a span (`sympy.gcd`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYER_MODULES = (
    "cli",
    "macdonald",
    "diagrams",
    "hecke",
    "laurent",
    "ratfunc",
    "affine",
    "permutations",
)

# Dunder methods that are part of a class's public arithmetic interface.
_DUNDERS = (
    "__add__",
    "__sub__",
    "__mul__",
    "__truediv__",
    "__neg__",
    "__pow__",
    "__eq__",
    "__hash__",
)

# Input validation that every layer calls; its time stays in the caller's.
_UNTRACED = {"laurent.check_weight"}

_RENDER = ("laurent.LaurentPoly.to_json_obj", "laurent.LaurentPoly.to_string")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.names = []  # span name table
        self._ids = {}
        # one entry per span, in start order
        self.s_name = []
        self.s_parent = []
        self.s_job = []
        self.s_start = []
        self.s_end = []
        self.stack = []
        self.job = -1
        self.on = False  # spans are recorded only while a job runs
        self.counts = {
            "laurent.terms_in": 0,
            "hecke.tT_terms_in": 0,
            "macdonald.result_terms_max": 0,
            "diagrams.fillings": 0,
            "diagrams.walks": 0,
            "diagrams.tableaux": 0,
            "gcd.trivial": 0,
        }

    # -- spans --------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _parent_layer(self):
        if not self.stack:
            return None
        return _layer(self.names[self.s_name[self.stack[-1]]])

    def _open(self, nid):
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1] if self.stack else -1)
        self.s_job.append(self.job)
        self.s_start.append(perf_counter())
        self.s_end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.s_end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, observe=None):
        """A traced stand-in for fn; observe(tracer, args, result) runs
        after the span closes."""
        nid = self._name_id(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(nid, fn, observe)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def _wrap_generator(self, nid, fn, observe):
        # one span per resumption, so iteration time lands in the layer
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                if not self.on:
                    yield from gen
                    return
                idx = self._open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                if observe is not None:
                    observe(self, args, item)
                yield item

        return traced

    # -- installation ---------------------------------------------------------

    def install(self):
        """Wrap every public function and method of the layer modules, for
        the rest of the process."""
        modules = [importlib.import_module(f"maclab.{short}") for short in LAYER_MODULES]
        replaced = {}
        for short, mod in zip(LAYER_MODULES, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                name = f"{short}.{attr}"
                if name in _UNTRACED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[obj] = self.wrap(name, obj, _OBSERVERS.get(name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(short, obj)
        # rebind the originals wherever a module imported them by name
        for modname, mod in list(sys.modules.items()):
            if not (modname == "maclab" or modname.startswith("maclab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                try:
                    new = replaced.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if new is not None:
                    setattr(mod, attr, new)
        self._install_gcd()

    def _install_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            observe = _OBSERVERS.get(name)
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, raw.__func__, observe)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw, observe))

    def _install_gcd(self):
        from maclab.ratfunc import IntPoly2

        nid = self._name_id("sympy.gcd")
        depth = [0]

        def guard(fn, trivial):
            @functools.wraps(fn)
            def traced(f, g):
                if depth[0] or not self.on:
                    return fn(f, g)
                depth[0] += 1
                idx = self._open(nid)
                try:
                    result = fn(f, g)
                finally:
                    self._close(idx)
                    depth[0] -= 1
                if trivial(result) == 1:
                    self.counts["gcd.trivial"] += 1
                return result

            return traced

        IntPoly2.gcd = guard(IntPoly2.gcd, lambda h: h)
        IntPoly2.cofactors = guard(IntPoly2.cofactors, lambda r: r[0])

    # -- results --------------------------------------------------------------

    def write(self, path):
        """Spans as tab-separated lines: name, parent, job, start, end (s)."""
        t0 = self.s_start[0] if self.s_start else 0.0
        with open(path, "w") as fh:
            fh.write("name\tparent\tjob\tstart_s\tend_s\n")
            for k in range(len(self.s_name)):
                fh.write(
                    f"{self.names[self.s_name[k]]}\t{self.s_parent[k]}\t{self.s_job[k]}"
                    f"\t{self.s_start[k] - t0:.9f}\t{self.s_end[k] - t0:.9f}\n"
                )

    def layer_metrics(self):
        """Per-layer counts and self times from the recorded spans.

        A layer's `calls`/`ops` count spans entered from another layer (or
        from the workload itself); self time is a span's duration minus
        the time its child spans cover.
        """
        n = len(self.s_name)
        layer_of = [_layer(nm) for nm in self.names]
        child = [0.0] * n
        for k in range(n):
            p = self.s_parent[k]
            if p >= 0:
                child[p] += self.s_end[k] - self.s_start[k]
        self_s = {}
        by_name = [0] * len(self.names)
        boundary = {}
        gcd_calls = 0
        gcd_s = 0.0
        render_s = 0.0
        render_ids = {self._ids[r] for r in _RENDER if r in self._ids}
        for k in range(n):
            nid = self.s_name[k]
            layer = layer_of[nid]
            dur = self.s_end[k] - self.s_start[k]
            self_s[layer] = self_s.get(layer, 0.0) + dur - child[k]
            by_name[nid] += 1
            p = self.s_parent[k]
            parent_layer = layer_of[self.s_name[p]] if p >= 0 else None
            if parent_layer != layer:
                boundary[layer] = boundary.get(layer, 0) + 1
                if nid in render_ids:
                    render_s += dur
            if layer == "sympy" and parent_layer == "ratfunc":
                gcd_calls += 1
                gcd_s += dur

        def calls(*names):
            return sum(by_name[self._ids[x]] for x in names if x in self._ids)

        c = self.counts
        return {
            "ratfunc.ops": boundary.get("ratfunc", 0),
            "ratfunc.self_s": self_s.get("ratfunc", 0.0),
            "ratfunc.gcd_calls": gcd_calls,
            "ratfunc.gcd_s": gcd_s,
            "ratfunc.gcd_trivial_ratio": c["gcd.trivial"] / gcd_calls if gcd_calls else 0.0,
            "ratfunc.eq_calls": calls("ratfunc.RatFunc.__eq__"),
            "laurent.ops": boundary.get("laurent", 0),
            "laurent.terms_in": c["laurent.terms_in"],
            "laurent.self_s": self_s.get("laurent", 0.0),
            "laurent.render_s": render_s,
            "hecke.tT_calls": calls("hecke.apply_tT"),
            "hecke.tT_terms_in": c["hecke.tT_terms_in"],
            "hecke.Tinv_calls": calls("hecke.apply_T_inv"),
            "hecke.g_calls": calls("hecke.apply_g", "hecke.apply_g_inv"),
            "hecke.gvee_calls": calls("hecke.apply_gvee"),
            "hecke.Y_calls": calls("hecke.apply_Y", "hecke.apply_Y_inv"),
            "hecke.sym_calls": calls("hecke.hecke_symmetrize_sum"),
            "hecke.self_s": self_s.get("hecke", 0.0),
            "macdonald.calls": boundary.get("macdonald", 0),
            "macdonald.verify_calls": self._outermost(
                "macdonald.verify_eigen", "macdonald.verify_haction", "macdonald.verify_kz"
            ),
            "macdonald.result_terms_max": c["macdonald.result_terms_max"],
            "macdonald.self_s": self_s.get("macdonald", 0.0),
            "diagrams.fillings": c["diagrams.fillings"],
            "diagrams.walks": c["diagrams.walks"],
            "diagrams.geometry_calls": calls("diagrams.walk_geometry"),
            "diagrams.tableaux": c["diagrams.tableaux"],
            "diagrams.psi_calls": calls("diagrams.psi_strip"),
            "diagrams.self_s": self_s.get("diagrams", 0.0),
            "affine.perm_mul_calls": calls("affine.PeriodicPerm.__mul__"),
            "affine.word_calls": calls("affine.box_greedy_word", "affine.column_greedy_word"),
            "affine.self_s": self_s.get("affine", 0.0),
            "permutations.self_s": self_s.get("permutations", 0.0),
            "cli.calls": calls("cli.main"),
            "cli.self_s": self_s.get("cli", 0.0),
            "trace.spans": n,
        }

    def _outermost(self, *names):
        ids = {self._ids[x] for x in names if x in self._ids}
        out = 0
        for k in range(len(self.s_name)):
            if self.s_name[k] in ids:
                p = self.s_parent[k]
                if p < 0 or self.s_name[p] not in ids:
                    out += 1
        return out


# -- observers: counts that need a call's arguments or result ------------------


def _laurent_terms_in(tr, args, result):
    if tr._parent_layer() == "laurent":
        return
    from maclab.laurent import LaurentPoly

    tr.counts["laurent.terms_in"] += sum(
        len(a.terms) for a in args if isinstance(a, LaurentPoly)
    )


def _tT_terms_in(tr, args, result):
    tr.counts["hecke.tT_terms_in"] += len(args[1].terms)


def _result_terms(tr, args, result):
    c = tr.counts
    c["macdonald.result_terms_max"] = max(c["macdonald.result_terms_max"], len(result.poly.terms))


def _add_len(key):
    def observe(tr, args, result):
        tr.counts[key] += len(result)

    return observe


def _add_one(key):
    def observe(tr, args, result):
        tr.counts[key] += 1

    return observe


_OBSERVERS = {
    "hecke.apply_tT": _tT_terms_in,
    "diagrams.enumerate_fillings": _add_len("diagrams.fillings"),
    "diagrams.iter_walks": _add_one("diagrams.walks"),
    "diagrams.column_strict_tableaux": _add_len("diagrams.tableaux"),
}
for _m in ("compute_E", "compute_E_rel", "compute_f", "compute_P", "compute_F"):
    _OBSERVERS[f"macdonald.{_m}"] = _result_terms
for _m in _DUNDERS + ("scale", "mul_monomial", "coeff", "subst_perm", "shift_qn", "shift_qn_inv"):
    _OBSERVERS[f"laurent.LaurentPoly.{_m}"] = _laurent_terms_in

"""Span wrappers around the public functions of each wreathmac layer.

Used only by traced benchmark runs; timing runs never import the program
with these installed (``count_wrapped`` lets them prove it).

A wrapper opens a span (name, start, end, parent) around one call.  Spans
are folded into per-name totals as they close, because a single pass closes
millions of kernel spans: ``calls``, ``s`` (time inside the outermost span
of that name, so recursion is not counted twice) and ``self_s`` (a span's
duration minus the durations of its direct child spans).

Names bound with ``from x import f`` are separate references, so
``install`` rebinds every global of every loaded ``wreathmac`` module, and
every attribute of the wrapped classes, that is the original object.
"""

from __future__ import annotations

import sys
from time import perf_counter

MARK = "__perfbench_span__"

# span name -> (module, attribute path) of the wrapped callable
TARGETS = {
    "kernels.bgcd": ("wreathmac.kernels", "bgcd"),
    "kernels.pmul": ("wreathmac.kernels", "pmul"),
    "kernels.bdivexact": ("wreathmac.kernels", "bdivexact"),
    "algebra.RatFun.new": ("wreathmac.algebra", "RatFun.__init__"),
    "algebra.RatFun.add": ("wreathmac.algebra", "RatFun.__add__"),
    "algebra.RatFun.mul": ("wreathmac.algebra", "RatFun.__mul__"),
    "algebra.RatFun.div": ("wreathmac.algebra", "RatFun.__truediv__"),
    "linsolve.solve_unique": ("wreathmac.linsolve", "solve_unique"),
    "symfunc.hall_inner": ("wreathmac.symfunc", "SymFunc1.hall_inner SymFunc2.hall_inner"),
    "symfunc.to_basis": ("wreathmac.symfunc", "SymFunc1.to_basis SymFunc2.to_basis"),
    "symfunc.alphabet_substitute": ("wreathmac.symfunc", "SymFunc2.alphabet_substitute"),
    "macdonald.macdonald_H": ("wreathmac.macdonald", "macdonald_H"),
    "wreath.wreath_H": ("wreathmac.wreath", "wreath_H"),
    "wreath.wreath_N": ("wreathmac.wreath", "wreath_N"),
    "series.wreath_series_terms": ("wreathmac.series", "wreath_series_terms"),
    "series.star_series_terms": ("wreathmac.series", "star_series_terms"),
    "series.invert_series": ("wreathmac.series", "invert_series"),
    "hodge.compute_hodge": ("wreathmac.hodge", "compute_hodge"),
    "hodge.e_polynomial": ("wreathmac.hodge", "e_polynomial"),
    "hodge.mixed_hodge": ("wreathmac.hodge", "mixed_hodge"),
    "classtypes.h_of_type": ("wreathmac.classtypes", "h_of_type"),
    "cli": ("wreathmac.cli", "main"),
}
CACHED = ("macdonald.macdonald_H", "wreath.wreath_H")


def _wreathmac_modules():
    return [m for name, m in list(sys.modules.items()) if name.startswith("wreathmac") and m]


def _resolve(module, path):
    """[(owner, attribute name)] for a space-separated list of attribute
    paths such as "RatFun.__add__"."""
    out = []
    for dotted in path.split():
        owner = sys.modules[module]
        *classes, attr = dotted.split(".")
        for c in classes:
            owner = getattr(owner, c)
        out.append((owner, attr))
    return out


def count_wrapped() -> int:
    """Number of span wrappers reachable from loaded wreathmac modules."""
    n = 0
    for m in _wreathmac_modules():
        for v in vars(m).values():
            if hasattr(v, MARK):
                n += 1
            elif isinstance(v, type):
                n += sum(hasattr(a, MARK) for a in vars(v).values())
    return n


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_s: list[float] = []
        self.active: list[int] = []
        # per open span: [name id, time covered by its direct children]
        self.stack: list[list] = []
        self.counters = {
            "den_degree_max": 0,
            "bgcd_useful": 0,
            "rows_max": 0,
            "terms": 0,
            "inverted_terms": 0,
            "triples": 0,
        }
        self._restore: list[tuple[object, str, object]] = []
        # cached span name -> (lru_cache object, hits, misses at install)
        self._cache_base: dict[str, tuple[object, int, int]] = {}

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name, fn, post=None):
        if name in self.names:
            nid = self.names.index(name)
        else:
            nid = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.incl.append(0.0)
            self.self_s.append(0.0)
            self.active.append(0)
        stack, calls, incl, self_s, active = (
            self.stack, self.calls, self.incl, self.self_s, self.active
        )

        def wrapper(*args, **kwargs):
            frame = [nid, 0.0]
            stack.append(frame)
            active[nid] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                active[nid] -= 1
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if not active[nid]:
                    incl[nid] += dur
                if stack:
                    stack[-1][1] += dur
            if post is not None:
                post(args, out)
            return out

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- counters taken where the work happens --------------------------------

    def _post_new(self, args, out):
        a, b = args[0].den.max_exponents()
        if max(a, b) > self.counters["den_degree_max"]:
            self.counters["den_degree_max"] = max(a, b)

    def _post_bgcd(self, args, g):
        # the kernels' recursive dense form: a constant is one row of one entry
        if len(g) > 1 or (g and len(g[0]) > 1):
            self.counters["bgcd_useful"] += 1

    def _post_solve(self, args, out):
        self.counters["rows_max"] = max(self.counters["rows_max"], len(args[0]))

    def _post_terms(self, args, out):
        self.counters["terms"] += len(out)

    def _post_inverted(self, args, out):
        self.counters["inverted_terms"] += len(out)

    def _count_triples(self, fn):
        counters = self.counters

        def triples(*args):
            for t in fn(*args):
                counters["triples"] += 1
                yield t

        setattr(triples, MARK, "hodge.triples")
        triples.__wrapped__ = fn
        return triples

    # -- install / report -----------------------------------------------------

    def install(self):
        posts = {
            "algebra.RatFun.new": self._post_new,
            "kernels.bgcd": self._post_bgcd,
            "linsolve.solve_unique": self._post_solve,
            "series.wreath_series_terms": self._post_terms,
            "series.star_series_terms": self._post_terms,
            "series.invert_series": self._post_inverted,
        }
        originals = {}  # id(original) -> (original, wrapper), shared by aliases
        for name, (module, path) in TARGETS.items():
            for owner, attr in _resolve(module, path):
                fn = getattr(owner, attr)
                originals[id(fn)] = (fn, self._wrap(name, fn, posts.get(name)))
            if name in CACHED:
                info = fn.cache_info()
                self._cache_base[name] = (fn, info.hits, info.misses)
        triples = sys.modules["wreathmac.hodge"]._triples
        originals[id(triples)] = (triples, self._count_triples(triples))
        for m in _wreathmac_modules():
            if m.__name__.startswith("wreathmac._kernels"):
                continue  # calls inside a kernel are not layer boundaries
            owners = [m] + [v for v in vars(m).values() if isinstance(v, type)]
            for owner in owners:
                for attr, v in list(vars(owner).items()):
                    hit = originals.get(id(v))
                    if hit is not None and hit[0] is v:
                        self._restore.append((owner, attr, v))
                        setattr(owner, attr, hit[1])

    def uninstall(self):
        for owner, attr, v in reversed(self._restore):
            setattr(owner, attr, v)
        self._restore.clear()

    def report(self) -> dict:
        """Per-name totals and counters; plain data, so that reports of
        several processes can be merged by ``merge``."""
        spans = {
            name: [self.calls[i], self.incl[i], self.self_s[i]]
            for i, name in enumerate(self.names)
        }
        caches = {}
        for name, (fn, hits0, misses0) in self._cache_base.items():
            info = fn.cache_info()
            caches[name] = [info.hits - hits0, info.misses - misses0]
        return {"spans": spans, "counters": dict(self.counters), "caches": caches}


def merge(reports: list[dict]) -> dict:
    """Sum the reports of several processes (maxima stay maxima)."""
    out = {"spans": {}, "counters": {}, "caches": {}}
    for r in reports:
        for name, vals in r["spans"].items():
            acc = out["spans"].setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for key, v in r["counters"].items():
            prev = out["counters"].get(key, 0)
            out["counters"][key] = max(prev, v) if key.endswith("_max") else prev + v
        for name, (h, m) in r["caches"].items():
            acc = out["caches"].setdefault(name, [0, 0])
            acc[0] += h
            acc[1] += m
    return out


def layer_metrics(r: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from a merged report."""
    spans, counters, caches = r["spans"], r["counters"], r["caches"]

    def calls(name):
        return spans[name][0]

    def incl(name):
        return spans[name][1]

    def self_s(name):
        return spans[name][2]

    def hit_ratio(name):
        hits, misses = caches[name]
        return hits / (hits + misses) if hits + misses else 0.0

    bgcd_calls = calls("kernels.bgcd")
    return {
        "kernels.bgcd.calls": calls("kernels.bgcd"),
        "kernels.bgcd.s": incl("kernels.bgcd"),
        "kernels.pmul.calls": calls("kernels.pmul"),
        "kernels.pmul.s": incl("kernels.pmul"),
        "kernels.bdivexact.calls": calls("kernels.bdivexact"),
        "kernels.bdivexact.s": incl("kernels.bdivexact"),
        "algebra.RatFun.new.calls": calls("algebra.RatFun.new"),
        "algebra.RatFun.new.self_s": self_s("algebra.RatFun.new"),
        "algebra.RatFun.add.s": incl("algebra.RatFun.add"),
        "algebra.RatFun.mul.s": incl("algebra.RatFun.mul"),
        "algebra.RatFun.div.s": incl("algebra.RatFun.div"),
        "algebra.den_degree.max": counters["den_degree_max"],
        "algebra.gcd_useful_ratio": counters["bgcd_useful"] / bgcd_calls if bgcd_calls else 0.0,
        "linsolve.solve_unique.calls": calls("linsolve.solve_unique"),
        "linsolve.solve_unique.self_s": self_s("linsolve.solve_unique"),
        "linsolve.rows.max": counters["rows_max"],
        "symfunc.hall_inner.calls": calls("symfunc.hall_inner"),
        "symfunc.hall_inner.self_s": self_s("symfunc.hall_inner"),
        "symfunc.to_basis.calls": calls("symfunc.to_basis"),
        "symfunc.to_basis.self_s": self_s("symfunc.to_basis"),
        "symfunc.alphabet_substitute.s": incl("symfunc.alphabet_substitute"),
        "macdonald.macdonald_H.s": incl("macdonald.macdonald_H"),
        "macdonald.macdonald_H.hit_ratio": hit_ratio("macdonald.macdonald_H"),
        "wreath.wreath_H.s": incl("wreath.wreath_H"),
        "wreath.wreath_H.hit_ratio": hit_ratio("wreath.wreath_H"),
        "wreath.wreath_N.s": incl("wreath.wreath_N"),
        "series.wreath_series_terms.self_s": self_s("series.wreath_series_terms"),
        "series.star_series_terms.self_s": self_s("series.star_series_terms"),
        "series.invert_series.self_s": self_s("series.invert_series"),
        "series.terms": counters["terms"],
        "series.inverted_terms": counters["inverted_terms"],
        "hodge.compute_hodge.self_s": self_s("hodge.compute_hodge"),
        "hodge.triples": counters["triples"],
        "hodge.e_polynomial.calls": calls("hodge.e_polynomial"),
        "hodge.e_polynomial.self_s": self_s("hodge.e_polynomial"),
        "hodge.mixed_hodge.self_s": self_s("hodge.mixed_hodge"),
        "classtypes.h_of_type.s": incl("classtypes.h_of_type"),
        "cli.self_s": self_s("cli"),
    }


def self_total(r: dict) -> float:
    """Sum of every span's self time: the traced time inside root spans."""
    return sum(v[2] for v in r["spans"].values())

"""Boundary tracing of rquiver from outside the library.

A Tracer replaces every binding of the traced public functions (including the
names other modules import with ``from .exact import inverse``) and the traced
methods on their classes with wrappers that record one span per outermost
call: name, parent span, case id, start and end.  Spans stay in memory and are
written out once, when the run ends.  QuadElement constructions are counted,
not spanned, because a span per field element would cost more than the
element.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter

# span name -> (module, attribute path) pairs it covers.  A call nested inside
# a span of the same name is not recorded again, so "exact.elim" counts the
# outermost rank/kernel_basis/solve_unique/inverse/column_space_basis only.
SPANS = {
    "exact.mul": [("exact", "QuadMatrix.__mul__")],
    "exact.elim": [("exact", "rank"), ("exact", "kernel_basis"),
                   ("exact", "solve_unique"), ("exact", "inverse"),
                   ("exact", "column_space_basis")],
    "exact.fixed_space": [("exact", "fixed_space")],
    "exact.nilpotency": [("exact", "nilpotency_exponent")],
    "unipotent.stabilize": [("unipotent", "stabilize")],
    "unipotent.sqrt": [("unipotent", "unipotent_sqrt")],
    "unipotent.neumann_inverse": [("unipotent", "neumann_inverse")],
    "hc.validate_hc": [("hc", "validate_hc")],
    "hc.functor_E": [("hc", "functor_E")],
    "hc.inverse_E": [("hc", "inverse_E")],
    "hc.roundtrip_hc": [("hc", "roundtrip_hc")],
    "hc.normalizations": [("hc", "normalizations")],
    "hc.hc_hom_space": [("hc", "hc_hom_space")],
    "reps.hom_space": [("reps", "hom_space")],
    "reps.functor_F": [("reps", "functor_F")],
    "reps.functor_H": [("reps", "functor_H")],
    "reps.hf_witness": [("reps", "hf_witness")],
    "reps.validate_rep": [("reps", "validate_rep")],
    "reps.is_morphism": [("reps", "is_morphism")],
    "reps.rep_isomorphic": [("reps", "rep_isomorphic")],
    "species.species_of_quiver": [("species", "species_of_quiver")],
    "species.quiver_of_species": [("species", "quiver_of_species")],
    "species.roundtrip": [("species", "roundtrip_quiver"),
                          ("species", "roundtrip_species")],
    "quiver.validate": [("quiver", "validate")],
    # Per-element accessors (mul, inv, apply, elements) are left out: their
    # cost is a dict lookup, smaller than a span.
    "gsets": [("gsets", a) for a in (
        "FiniteGroup.__init__", "FiniteGroup.cyclic", "FiniteGroup.symmetric",
        "Subgroup.__init__", "Subgroup.left_cosets", "Subgroup.conjugate",
        "Subgroup.as_group", "GSet.__init__", "GSet.orbit_of", "GSet.orbits",
        "GSet.stabilizer", "GSet.transporter", "GSet.restrict_to",
        "GSet.from_generator_perms", "GSet.coset_space",
        "orbits", "stabilizer", "induce", "equivariant_maps")],
    "serialize.load": [("serialize", a) for a in (
        "load_rep", "load_hc", "load_quiver", "load_species",
        "load_species_rep", "load_matrix")],
    "serialize.dump": [("serialize", a) for a in (
        "dump_rep", "dump_hc", "dump_quiver", "dump_species",
        "dump_species_rep", "dump_matrix")],
    "cli.render": [("cli", "render_diagram")],
}

MODULES = ("exact", "gsets", "quiver", "species", "reps", "unipotent", "hc",
           "serialize", "cli")

CASE = "case"  # root span the benchmark opens around each case


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []        # [name, parent index, case id, start, end]
        self.counters = Counter()
        self.case = -1
        self._stack = []
        self._active = Counter()
        self._restore = []

    # -------------------------------------------------------------- spans
    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span (the outermost of its name only)."""
        if self._active[name]:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        record = [name, self._stack[-1] if self._stack else -1, self.case, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(idx)
        self._active[name] += 1
        record[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self._active[name] -= 1
            self._stack.pop()

    def _wrap(self, name, fn):
        tracer = self

        if name == "unipotent.stabilize":
            def wrapper(*args, **kwargs):
                res = tracer.span(name, fn, *args, **kwargs)
                tracer.counters["unipotent.stabilize.iterations"] += res.iterations
                return res
        elif name == "hc.roundtrip_hc":
            def wrapper(*args, **kwargs):
                tracer.counters["hc.roundtrip.attempted"] += 1
                res = tracer.span(name, fn, *args, **kwargs)
                if res.path.startswith("constructive"):
                    tracer.counters["hc.roundtrip.constructive"] += 1
                return res
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------ install/remove
    def install(self, rq):
        """Wrap every traced function in the rquiver modules of namespace rq."""
        wrappers = {}
        for name, targets in SPANS.items():
            for mod_name, path in targets:
                owner = getattr(rq, mod_name)
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                if cls_path:
                    raw = owner.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    self._set(owner, attr, raw, new)
                else:
                    fn = getattr(owner, attr)
                    wrappers[id(fn)] = self._wrap(name, fn)
        # every module binding of a traced function, so `hc.inverse` is seen
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "rquiver" and not mod_name.startswith("rquiver."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, attr, value, wrappers[id(value)])

        element = rq.exact.QuadElement
        init = element.__init__
        counters = self.counters

        def counted_init(obj, a, b=0, d=-1):
            counters["exact.elem_new.count"] += 1
            init(obj, a, b, d)

        self._set(element, "__init__", init, counted_init)

    def _set(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._restore.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # ------------------------------------------------------------ results
    def summary(self):
        """Per span name: calls, inclusive and self seconds; plus module self."""
        child = [0.0] * len(self.spans)
        for name, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = {}
        for (name, _, _, t0, t1), inner in zip(self.spans, child):
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += t1 - t0
            s[2] += t1 - t0 - inner
        modules = {m: 0.0 for m in MODULES}
        for name, (_, _, self_s) in stats.items():
            mod = name.split(".")[0]
            if mod in modules:
                modules[mod] += self_s
        return stats, modules

    def write(self, path):
        """Spans as gzip'd TSV, times in seconds from the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id\tparent\tcase\tname\tstart_s\tend_s\n")
            for idx, (name, parent, case, t0, t1) in enumerate(self.spans):
                fh.write(f"{idx}\t{parent}\t{case}\t{name}\t"
                         f"{t0 - origin:.9f}\t{t1 - origin:.9f}\n")

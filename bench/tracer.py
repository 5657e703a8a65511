"""Span tracer that wraps the library's public functions from outside.

Each wrapped call records a span ``[name, op, parent, start, end, entries]``
in memory: ``op`` is the benchmark operation it belongs to (the worker sets
``Tracer.op`` before each one), ``parent`` the index of the enclosing span
(-1 at the top).  Functions called too often for a span each
(``merge_sign``, ``GaussianRational.__mul__``) only count their calls in total.
A wrapper replaces the name on every module of the package that bound it, so
``from .scalars import rank`` call sites are traced too.  Spans are written
out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "exterior", "scalars", "covariants", "invariants",
           "classify", "spectra", "oracle")

SPANNED = {
    "cli": ("parse_state", "build_report", "state_document", "emit"),
    "exterior": ("slocc_apply", "wedge", "interior", "star"),
    "covariants": ("kappa_map", "first_order_map", "seven_covariants",
                   "eight_covariants", "t_matrix_rows", "t_power_traces"),
    "scalars": ("rank", "hermitian_eigenvalues", "hermitian_eigensystem"),
    "invariants": ("quartic_d", "seven_j", "eight_i", "nine_js_scaled",
                   "delta_132"),
    "classify": ("classify6", "classify7", "support_reduction",
                 "plucker_residuals"),
    "spectra": ("one_matrix", "natural_orbital_transform", "pinning_analysis"),
}
COUNTED = {"exterior.merge_sign.calls": ("exterior", "merge_sign")}
# ranks are split by arithmetic, the way scalars.rank itself decides
RANK = "scalars.rank"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counters = {}

    # -- recording ---------------------------------------------------------

    def _span(self, name, fn, is_exact=None):
        spans, stack, tracer = self.spans, self.stack, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label, entries = name, None
            if is_exact is not None:
                m = args[0]
                label += ".exact" if is_exact(m) else ".float"
                entries = len(m) * len(m[0]) if m else 0
            rec = [label, tracer.op, stack[-1] if stack else -1, 0.0, 0.0, entries]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
        return wrapper

    def _counter(self, name, fn):
        box = self.counters.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        mods = {m: importlib.import_module(f"trivec.{m}") for m in MODULES}
        everywhere = [importlib.import_module("trivec")] + list(mods.values())

        def rebind(orig, wrapper):
            for mod in everywhere:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)

        scalars = mods["scalars"]
        for mod, names in SPANNED.items():
            for fname in names:
                orig = getattr(mods[mod], fname)
                qual = f"{mod}.{fname}"
                exact = scalars.matrix_is_exact if qual == RANK else None
                rebind(orig, self._span(qual, orig, exact))
        for name, (mod, fname) in COUNTED.items():
            orig = getattr(mods[mod], fname)
            rebind(orig, self._counter(name, orig))
        gr = scalars.GaussianRational
        mul = self._counter("scalars.GaussianRational.mul.calls", gr.__mul__)
        gr.__mul__ = mul
        gr.__rmul__ = mul

    def dump(self, path):
        counts = {name: box[0] for name, box in self.counters.items()}
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": counts}, fh)


# -- analysis ----------------------------------------------------------------


def self_times(spans):
    """Each span's duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s[2] >= 0:
            children[s[2]].append((s[3], s[4]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[3]
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s[4])
            if b > a:
                covered += b - a
                reach = b
        out.append(s[4] - s[3] - covered)
    return out


def aggregate(spans):
    """{span name: {"calls", "self_s", "entries"}} summed over all spans."""
    out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "entries": 0})
    for s, st in zip(spans, self_times(spans)):
        agg = out[s[0]]
        agg["calls"] += 1
        agg["self_s"] += st
        if s[5] is not None:
            agg["entries"] += s[5]
    return dict(out)


def calls_in_ops(spans, names, ops):
    """Number of spans named in ``names`` that belong to one of ``ops``."""
    return sum(1 for s in spans if s[0] in names and s[1] in ops)

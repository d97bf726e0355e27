"""In-memory span tracer for rmbetti, installed from outside the package.

``Tracer.install()`` replaces every public function of the traced modules
with a wrapper that records one span per call: name, start, end, parent
span and op id.  Several modules bind helpers with ``from .x import f``
(``srres`` binds ``subset_sum_accumulate``, ``codes`` binds
``popcount_table``, ...), so a wrapper replaces the binding in every
rmbetti module, not only in the defining one.  Methods are patched on their
class.  The ``GF`` arithmetic methods are called ~10^6 times per pass; they
only bump two counters, because a timer per call would swamp them.

Spans stay in memory until ``write()``.  A span's self time is its
duration minus the durations of its direct children, so the self times of
one op's spans add up to its top-level span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("cli", "verify", "srres", "linalg", "bits", "codes", "rm", "gf")

# (module, class, method) patched with a span on the class itself
SPAN_METHODS = (("gf", "GF", "__init__"),
                ("codes", "LinearCode", "nullity_table"),
                ("rm", "ExponentPoly", "evaluate"))
GF_LOOKUPS = ("add", "sub", "mul", "neg", "inv", "pow")


# counters taken at a span boundary: name -> f(args, result) -> {counter: n}
COUNTER_HOOKS = {
    "linalg.rref": lambda a, res: {"linalg.rref_cells": int(np.prod(np.shape(a[1])))},
    "linalg.independent_column_sets": lambda a, res: {"linalg.faces": len(res)},
    "srres.betti_hochster": lambda a, res: {"srres.restrictions": 1 << a[0].n},
    "bits.subset_sum_accumulate": lambda a, res: {"bits.transform_cells": a[1] << a[1]},
    "bits.subset_max_accumulate": lambda a, res: {"bits.transform_cells": a[1] << a[1]},
    # rows materialised: the enumerated sub-span, then its q - 1 cosets
    "codes.enumerate_codewords": lambda a, res: {"codes.words": len(res)},
    "codes.min_weight_bruteforce": lambda a, res: {
        "codes.words": (a[0].gf.q - 1) * a[0].gf.q ** (a[0].k - 1)},
}


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name id, start, end, parent index, op, child time]
        self.spans: list[list] = []
        self.counters: dict[object, dict[str, int]] = {}  # op -> counts
        self.op = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def start_op(self, op) -> None:
        self.op = op
        self.counters.setdefault(op, {})

    def count(self, key: str, n: int) -> None:
        c = self.counters[self.op]
        c[key] = c.get(key, 0) + n

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = COUNTER_HOOKS.get(name)
        calls_key = name + ".calls"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            row = [nid, clock(), 0.0, parent, self.op, 0.0]
            index = len(spans)
            spans.append(row)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                row[2] = end = clock()
                if parent is not None:
                    spans[parent][5] += end - row[1]
            self.count(calls_key, 1)
            if hook is not None:
                for key, n in hook(args, result).items():
                    self.count(key, n)
            return result
        if hasattr(fn, "cache_clear"):  # keep the lru_cache interface
            traced.cache_clear, traced.cache_info = fn.cache_clear, fn.cache_info
        return traced

    def _count_lookup(self, fn):
        @functools.wraps(fn)
        def counted(*args):
            result = fn(*args)
            c = self.counters[self.op]
            c["gf.lookup_calls"] = c.get("gf.lookup_calls", 0) + 1
            c["gf.lookup_elements"] = c.get("gf.lookup_elements", 0) + (
                result.size if type(result) is np.ndarray else 1)
            return result
        return counted

    # -- installing -----------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the public functions of every layer in all rmbetti modules."""
        for layer in LAYERS:
            importlib.import_module(f"rmbetti.{layer}")
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "rmbetti" or name.startswith("rmbetti.")}
        for layer in LAYERS:
            mod = modules[f"rmbetti.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", obj)
                for other in modules.values():
                    for oattr, oobj in list(vars(other).items()):
                        if oobj is obj:
                            self._patch(other, oattr, wrapper)
        for layer, cls_name, meth in SPAN_METHODS:
            cls = getattr(modules[f"rmbetti.{layer}"], cls_name)
            self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}",
                                              getattr(cls, meth)))
        gf_cls = modules["rmbetti.gf"].GF
        for meth in GF_LOOKUPS:
            self._patch(gf_cls, meth, self._count_lookup(getattr(gf_cls, meth)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------

    def op_spans(self, ops) -> list[int]:
        ops = set(ops)
        return [i for i, s in enumerate(self.spans) if s[4] in ops]

    def self_time(self, index: int) -> float:
        s = self.spans[index]
        return s[2] - s[1] - s[5]

    def _has_ancestor(self, index: int, names: set[int]) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def inclusive(self, indices, names, under=()) -> float:
        """Summed duration of spans named in ``names`` that have no ancestor
        also named there (so recursion counts once), optionally only those
        inside a span named in ``under``."""
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        under_ids = {self._name_ids[n] for n in under if n in self._name_ids}
        total = 0.0
        for i in indices:
            s = self.spans[i]
            if s[0] not in ids or self._has_ancestor(i, ids):
                continue
            if under and not self._has_ancestor(i, under_ids):
                continue
            total += s[2] - s[1]
        return total

    def self_by_name(self, indices) -> dict[str, float]:
        out: dict[str, float] = {}
        for i in indices:
            name = self.names[self.spans[i][0]]
            out[name] = out.get(name, 0.0) + self.self_time(i)
        return out

    def total_counts(self, ops) -> dict[str, int]:
        out: dict[str, int] = {}
        for op in ops:
            for key, n in self.counters.get(op, {}).items():
                out[key] = out.get(key, 0) + n
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent", "op", "child_s"],
                       "spans": self.spans,
                       "counters": {str(k): v for k, v in self.counters.items()}},
                      fh)


def layer_metrics(tracer: Tracer, ops) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the given ops: name -> (value, unit).

    Times ending in ``_s`` are inclusive unless named ``self``; the
    ``*_self_s`` of the two Betti backends is their time outside the face
    enumeration.  Each should move ``pass_norm_s`` on the workload where its
    layer works: faces, fastpath, hochster and transforms on purity-sweep;
    rref, matmul, shrink, certificate build/check and build_code on
    certificates; rank table, GHW, enumeration (also ``peak_rss_mb``) and
    the MDS check on weights.  ``cli.self_s`` should stay flat everywhere.
    A layer that a workload never calls reads 0 there.
    """
    spans = tracer.op_spans(ops)
    counts = tracer.total_counts(ops)
    by_name = tracer.self_by_name(spans)

    def incl(*names, under=()):
        return tracer.inclusive(spans, names, under)

    def count(key):
        return counts.get(key, 0)

    faces = "linalg.independent_column_sets"
    fast, hoch = "srres.betti_fastpath", "srres.betti_hochster"
    return {
        "cli.self_s": (by_name.get("cli.main", 0.0), "s"),
        "verify.cert_build_s": (incl("verify.non_purity_certificate"), "s"),
        "verify.cert_check_s": (incl("verify.check_certificate"), "s"),
        "verify.purity_by_betti_s": (incl("verify.purity_by_betti"), "s"),
        "verify.mds_check_s": (incl("verify.mds_check"), "s"),
        "srres.fastpath_s": (incl(fast), "s"),
        "srres.fastpath_self_s": (incl(fast) - incl(faces, under=(fast,)), "s"),
        "srres.hochster_s": (incl(hoch), "s"),
        "srres.hochster_self_s": (incl(hoch) - incl(faces, under=(hoch,)), "s"),
        "srres.restrictions": (count("srres.restrictions"), "count"),
        "linalg.faces_s": (incl(faces), "s"),
        "linalg.faces": (count("linalg.faces"), "count"),
        "linalg.rank_table_s": (incl("linalg.subset_rank_table"), "s"),
        "linalg.rref_s": (incl("linalg.rref"), "s"),
        "linalg.rref_calls": (count("linalg.rref.calls"), "count"),
        "linalg.rref_cells": (count("linalg.rref_cells"), "count"),
        "linalg.matmul_s": (incl("linalg.matmul", "linalg.matvec"), "s"),
        "linalg.matvec_calls": (count("linalg.matvec.calls"), "count"),
        "bits.transform_s": (incl("bits.subset_sum_accumulate",
                                  "bits.subset_max_accumulate"), "s"),
        "bits.transform_cells": (count("bits.transform_cells"), "count"),
        "codes.enumerate_s": (incl("codes.enumerate_codewords",
                                   "codes.min_weight_bruteforce"), "s"),
        "codes.words": (count("codes.words"), "count"),
        "codes.shortened_dim_calls": (count("codes.shortened_dim.calls"), "count"),
        "codes.shrink_s": (incl("codes.shrink_to_one_minimal"), "s"),
        "codes.ghw_s": (incl("codes.ghw", "codes.ghw_profile"), "s"),
        "codes.nullity_table_s": (incl("codes.LinearCode.nullity_table"), "s"),
        "rm.build_code_s": (incl("rm.build_code"), "s"),
        "rm.build_code_calls": (count("rm.build_code.calls"), "count"),
        "rm.evaluate_s": (incl("rm.ExponentPoly.evaluate"), "s"),
        "gf.lookup_calls": (count("gf.lookup_calls"), "count"),
        "gf.lookup_elements": (count("gf.lookup_elements"), "count"),
    }

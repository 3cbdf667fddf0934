"""In-memory span tracer for the public functions of bridgecovers.

``Tracer`` rebinds each function in ``TRACED`` in every ``bridgecovers.*``
module namespace that holds a reference to it (and the two methods at class
level), so a call made through any import of the name is recorded.  A span
is ``[name, start, end, parent index, item key]``; spans stay in memory
until the run ends.  Return values pass through unchanged.

A span's self time is its duration minus the durations of its direct
children.  Counter updates run in ``bench.count`` spans so that their cost
is not charged to the layer that was called.
"""

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

ITEM = "bench.item"
COUNT = "bench.count"

# (span name, module under bridgecovers, attribute); "Class.method" is
# rebound on the class
TRACED = (
    ("cli.main", "cli", "main"),
    ("cli.build_parser", "cli", "build_parser"),
    ("two_bridge.normalize", "two_bridge", "normalize"),
    ("two_bridge.even_cf_expand", "two_bridge", "even_cf_expand"),
    ("covering.lens_recognize", "covering", "lens_recognize"),
    ("words.relator_matrix", "words", "Presentation.relator_matrix"),
    ("words.expand", "words", "CyclicPresentation.expand"),
    ("presentations.minkus_presentation", "presentations", "minkus_presentation"),
    ("presentations.mu3_presentation", "presentations", "mu3_presentation"),
    ("presentations.takahashi_word", "presentations", "takahashi_word"),
    ("presentations.alexander_polynomial", "presentations", "alexander_polynomial"),
    ("polyhedral.build_minkus", "polyhedral", "build_minkus"),
    ("polyhedral.quotient_counts", "polyhedral", "quotient_counts"),
    ("polyhedral.schema_presentation", "polyhedral", "schema_presentation"),
    ("homology.smith_normal_form", "homology", "smith_normal_form"),
    ("homology.order_via_resultant", "homology", "order_via_resultant"),
    ("homology.h1", "homology", "h1"),
    ("homology.h1_closed_form", "homology", "h1_closed_form"),
    ("homology.verify_consistency", "homology", "verify_consistency"),
    ("gems.build", "gems", "build_lins_mandel"),
    ("gems.build", "gems", "build_generalized"),
    ("gems.is_gem", "gems", "is_gem"),
    ("gems.is_crystallization", "gems", "is_crystallization"),
    ("gems.heegaard_genus", "gems", "heegaard_genus"),
    ("gems.represented_covering", "gems", "represented_covering"),
    ("gems.graph_isomorphic", "gems", "graph_isomorphic"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))

# counted calls, reported as <span>.calls
CALLS = ("cli.build_parser", "homology.smith_normal_form", "gems.is_gem",
         "gems.graph_isomorphic")


def _raise_max(counts, name, value):
    counts[name] = max(counts[name], value)


def _count_snf(counts, args, result):
    m = args[0]
    counts["homology.smith_normal_form.cells"] += m.rows * m.cols
    _raise_max(counts, "homology.smith_normal_form.max_dim", max(m.rows, m.cols))
    _raise_max(counts, "homology.smith_normal_form.max_factor_bits",
               max((abs(d).bit_length() for d in result), default=0))


def _count_resultant(counts, args, result):
    delta, n = args
    # Sylvester matrix of Delta and t^n - 1 has size deg Delta + n
    _raise_max(counts, "homology.order_via_resultant.sylvester_dim_max",
               len(delta.coefficient_list()) - 1 + n)


def _count_routes(counts, args, result):
    routes = result["routes"]
    counts["homology.verify_consistency.routes"] += len(routes)
    counts["homology.verify_consistency.unverified"] += sum("group" in r for r in routes) < 2


def _count_syllables(counts, args, result):
    counts["words.syllables"] += sum(len(r.letters) for r in args[0].relators)


def _count_vertices(counts, args, result):
    counts["gems.vertices"] += result.vertex_count


COUNTERS = {
    "homology.smith_normal_form": _count_snf,
    "homology.order_via_resultant": _count_resultant,
    "homology.verify_consistency": _count_routes,
    "words.relator_matrix": _count_syllables,
    "gems.build": _count_vertices,
}


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.item = None
        self._stack = []
        self._saved = []

    def open(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def close(self, rec):
        rec[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if counter is not None:
                rec = self.open(COUNT)
                counter(self.counts, args, result)
                self.close(rec)
            return result

        return traced

    def _rebind(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "bridgecovers"
                                            or name.startswith("bridgecovers."))]
        for name, module, attr in TRACED:
            owner = sys.modules["bridgecovers." + module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._rebind(cls, method, self._wrap(name, cls.__dict__[method]))
                continue
            fn = getattr(owner, attr)
            traced = self._wrap(name, fn)
            for ns in namespaces:
                for ref, value in list(vars(ns).items()):
                    if value is fn:
                        self._rebind(ns, ref, traced)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def totals(self):
        """Self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path):
        """One JSON object per span, times relative to the first span."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as out:
            for name, start, end, parent, item in self.spans:
                out.write(json.dumps({"name": name, "start": start - base,
                                      "end": end - base, "parent": parent,
                                      "item": item}) + "\n")


def layer_metrics(tracer, traced_wall, overhead_ratio):
    """Per-layer metrics of one traced pass over a workload's pool.

    ``traced_wall`` is the wall time of the traced pass and
    ``overhead_ratio`` its ratio to an untraced pass at the same speed.
    """
    self_s, calls = tracer.totals()
    counts = tracer.counts
    out = {}
    for name in SPAN_NAMES:
        out[name + ".self_s"] = (self_s[name], "s")
    for name in CALLS:
        out[name + ".calls"] = (calls[name], "count")
    snf = "homology.smith_normal_form"
    out[snf + ".cells"] = (counts[snf + ".cells"], "count")
    out[snf + ".max_dim"] = (counts[snf + ".max_dim"], "count")
    out[snf + ".max_factor_bits"] = (counts[snf + ".max_factor_bits"], "bits")
    res = "homology.order_via_resultant.sylvester_dim_max"
    out[res] = (counts[res], "count")
    vc = "homology.verify_consistency"
    reports = calls[vc]
    out[vc + ".routes_per_item"] = (counts[vc + ".routes"] / reports if reports else 0.0,
                                    "count")
    out[vc + ".unverified_ratio"] = (counts[vc + ".unverified"] / reports if reports else 0.0,
                                     "ratio")
    out["words.syllables"] = (counts["words.syllables"], "count")
    out["gems.vertices"] = (counts["gems.vertices"], "count")
    out["bench.self_s"] = ((self_s[ITEM] + self_s[COUNT]), "s")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out

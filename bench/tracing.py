"""Spans around the package's public functions, for the traced run.

The package's modules import each other's functions by name, so a wrapper is
installed in every `smalldoubling` module namespace that binds the function,
and removed again after each traced round: untraced rounds run the original
code.  Spans (name, start, end, parent, work) stay in memory until the phase
ends.  A span's self time is its duration minus that of its direct children;
busy time counts only the outermost span of a name, so recursion (a direct
product's factors built by `from_spec`) is not counted twice.
"""

from __future__ import annotations

import sys
import time

# (module, function, work count or None, per-layer quantities reported)
TARGETS = [
    ("groups", "from_spec", None, ("calls", "busy_ms")),
    ("groups", "from_table", None, ("calls", "busy_ms")),
    ("groups", "enumerate_subgroups", ("subgroups", lambda a, k, r: len(r)),
     ("calls", "busy_ms", "subgroups")),
    ("setalg", "product_mask", None, ("calls", "busy_ms")),
    ("setalg", "mask_table_from_rows",
     ("entries", lambda a, k, r: 1 << len(a[0] if a else k["rows"])), ("busy_ms", "entries")),
    ("setalg", "product_mask_table", None, ("busy_ms", "hits", "misses")),
    ("setalg", "product_size_table", None, ("busy_ms", "hits", "misses")),
    ("setalg", "right_stabilizer", None, ("busy_ms",)),
    ("setalg", "coset_cover", None, ("busy_ms",)),
    ("connectivity", "connectivity_subgroup_solver", None, ("self_ms", "subgroups_evaluated")),
    ("connectivity", "connectivity_bruteforce",
     ("subsets", lambda a, k, r: (1 << a[0].order) - 1), ("self_ms", "subsets")),
    ("connectivity", "verify_atom_proposition", None, ("self_ms",)),
    ("theorems", "petridis_minimizer",
     ("subsets_visited", lambda a, k, r: (1 << r.A.cardinality) - 1),
     ("self_ms", "subsets_visited")),
    ("theorems", "petridis_verify", ("c_sets_checked", lambda a, k, r: r.checked),
     ("self_ms", "c_sets_checked")),
    ("theorems", "kneser_violation_scan", ("pairs_scanned", lambda a, k, r: r.pairs_checked),
     ("self_ms", "pairs_scanned")),
    ("theorems", "weak_kneser_check", None, ("self_ms",)),
    ("theorems", "kneser_check", None, ("self_ms",)),
    ("theorems", "kneser_corollary_check", None, ("self_ms",)),
    ("convolution", "convolve", None, ("calls", "self_ms")),
    ("convolution", "autocorrelation", None, ("calls", "self_ms")),
    ("convolution", "gap_check", None, ("calls", "self_ms")),
    ("schema", "validate_record", None, ("calls", "busy_ms")),
    ("certificates", "run", None, ("self_ms",)),
    ("certificates", "make_record", None, ("self_ms",)),
    ("certificates", "recheck", None, ("self_ms",)),
]

CACHED = (("setalg", "product_mask_table"), ("setalg", "product_size_table"))

# Start-up metrics, measured by the set-up probes rather than by spans.
SETUP_METRICS = [
    ("setup.import_ms", "ms"),
    ("setup.import_numpy_ms", "ms"),
    ("setup.import_jsonschema_ms", "ms"),
    ("setup.import_smalldoubling_ms", "ms"),
    ("cli.build_parser_ms", "ms"),
    ("setup.group_build_ms", "ms"),
]
OVERHEAD_METRICS = [("trace.overhead_ms", "ms"), ("trace.overhead_pct", "%")]


def per_layer_catalogue() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, func, _, quantities in TARGETS:
        for q in quantities:
            unit = "ms" if q.endswith("_ms") else "count"
            out.append((f"{module}.{func}.{q}", unit, "higher" if q == "hits" else "lower"))
    out += [(name, unit, "lower") for name, unit in SETUP_METRICS + OVERHEAD_METRICS]
    return out


def patch_everywhere(original, replacement) -> list:
    """Rebind `original` to `replacement` in every smalldoubling module."""
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "smalldoubling" or mod_name.startswith("smalldoubling.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def unpatch(undo) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, work]
        self._stack: list[int] = []
        self._undo: list = []
        self._originals = {
            f"{m}.{f}": getattr(sys.modules[f"smalldoubling.{m}"], f) for m, f, _, _ in TARGETS
        }
        self.cache_delta = {f"{m}.{f}": [0, 0] for m, f in CACHED}
        self._cache_before: dict = {}

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        self._cache_before = self._cache_info()
        for module, func, work, _ in TARGETS:
            name = f"{module}.{func}"
            original = self._originals[name]
            self._undo += patch_everywhere(original, self._wrap(name, original, work and work[1]))

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []
        after = self._cache_info()
        for key, (hits, misses) in after.items():
            before = self._cache_before[key]
            self.cache_delta[key][0] += hits - before[0]
            self.cache_delta[key][1] += misses - before[1]

    def _cache_info(self) -> dict:
        out = {}
        for module, func in CACHED:
            info = self._originals[f"{module}.{func}"].cache_info()
            out[f"{module}.{func}"] = (info.hits, info.misses)
        return out

    def totals(self) -> dict:
        """Per-layer totals over every span recorded so far."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, float] = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for i, (name, start, end, parent, work) in enumerate(spans):
            dur = end - start
            add(f"{name}.calls", 1)
            add(f"{name}.self_ms", (dur - child_ns[i]) / 1e6)
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                add(f"{name}.busy_ms", dur / 1e6)
            if work:
                add(f"{name}.work", work)
            if name == "setalg.product_mask" and parent >= 0 and (
                spans[parent][0] == "connectivity.connectivity_subgroup_solver"
            ):
                add("connectivity.connectivity_subgroup_solver.subgroups_evaluated", 1)
        for module, func, work, _ in TARGETS:
            name = f"{module}.{func}"
            if work is not None:
                out[f"{name}.{work[0]}"] = out.pop(f"{name}.work", 0)
        for key, (hits, misses) in self.cache_delta.items():
            out[f"{key}.hits"] = hits
            out[f"{key}.misses"] = misses
        return out

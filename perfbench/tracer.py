"""Outside-in tracer for the nnpoly package.

Every public function defined in an `nnpoly.*` module is wrapped once and the
wrapper is bound at every module-global name that held the original (for
example `paths.mat_pow` and `witness.poly_eval_matrix` as well as the
`linalg` originals), so calls made inside the package are seen too.  No
source file of the package is touched.

Three kinds of wrapper keep the cost and the memory bounded:

- COUNT_ONLY functions run once per path; a timing wrapper would cost more
  than they do.  They are counted, and their time stays in the self time of
  the nearest timed caller.
- `linalg` functions are timed and aggregated (calls, self time), split into
  `exact` and `float` by the scalar type of their first matrix argument.
- Every other public function is timed, aggregated and also kept as a span
  (id, name, start, end, parent id); these are the coarse calls.

INLINE functions are left unwrapped: entrywise helpers and per-path steps
that no metric reports, run millions of times inside the kernels above.
Their time is the self time of the function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import time
from collections import Counter

COUNT_ONLY = {"paths.phi", "paths.monomial_value",
              "paths.enumerate_monomials"}  # a generator: the call does no work
INLINE = {
    "linalg.order_of", "linalg.identity", "linalg.mat_add", "linalg.mat_scale",
    "linalg.is_nonneg", "linalg.poly_eval", "linalg.cyclic_shift",
    "linalg.parse_scalar", "linalg.format_scalar",
    "paths.path_from_index", "paths.min_cycle_length", "paths.first_cycle",
    "paths.psi", "families.mu",
}
CENSUS = {"paths.partition_stats", "paths.exact_nu", "paths.all_nu",
          "paths.build_certificate"}


def scalar_kind(args):
    """'float' or 'exact', from the first matrix among the arguments."""
    for a in args:
        if type(a) is list:  # the common case, tested first: this runs per call
            if a and type(a[0]) is list and a[0]:
                return "float" if isinstance(a[0][0], (float, complex)) else "exact"
            continue
        dtype = getattr(a, "dtype", None)
        if dtype is not None and getattr(a, "ndim", 0) >= 2:
            return "float" if dtype.kind in "fc" else "exact"
    return "float" if any(isinstance(a, float) for a in args) else "exact"


def scalar_mults(args):
    """m^3 per m x m product (times the batch size of a stacked array)."""
    for a in args:
        if isinstance(a, list) and a and isinstance(a[0], list):
            return len(a) ** 3
        if getattr(a, "ndim", 0) >= 2:
            return math.prod(a.shape[:-2]) * a.shape[-1] ** 3
    return 0


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = Counter()
        self.scalar_mults = Counter()
        self.census_by_n = Counter()
        self.found = 0
        self.spans = []
        self._stack = []  # [start, child_s] per open timed call
        self._span_ids = []  # ids of open spans
        self.wrapped = set()

    # -- wrappers ------------------------------------------------------------

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, key, fn, split, span):
        counts, self_s, stack = self.counts, self.self_s, self._stack
        spans, span_ids, clock = self.spans, self._span_ids, time.perf_counter
        is_mat_mul = key == "linalg.mat_mul"
        is_census = key in CENSUS
        is_search = key == "witness.search_witness"

        names = {kind: f"{key}.{kind}" for kind in ("exact", "float")}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = names[scalar_kind(args)] if split else key
            if span:
                sid = len(spans) + len(span_ids)
                parent = span_ids[-1] if span_ids else None
                span_ids.append(sid)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                if stack:
                    stack[-1][1] += dur
                counts[name] += 1
                self_s[name] += dur - frame[1]
                if span:
                    span_ids.pop()
                    spans.append((sid, name, frame[0], end, parent))
            if is_mat_mul:
                self.scalar_mults[name] += scalar_mults(args)
            elif is_census:
                self.census_by_n[args[0] if args else kwargs.get("n")] += 1
            elif is_search and result is not None:
                self.found += 1
            return result

        return wrapper

    def install(self):
        """Wrap every public function of every nnpoly module, in place."""
        import nnpoly

        modules = [nnpoly] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(nnpoly.__path__, "nnpoly.")
        ]
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.split(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    key = f"{layer}.{name}"
                    if key in INLINE:
                        continue
                    if key in COUNT_ONLY:
                        wrappers[obj] = self._counted(key, obj)
                    else:
                        in_split = layer == "linalg"
                        wrappers[obj] = self._timed(key, obj, in_split, not in_split)
                    self.wrapped.add(key)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
        return self

    # -- reporting -----------------------------------------------------------

    def layer_self_s(self, layer, kind=None):
        prefix = layer + "."
        return sum(
            v for k, v in self.self_s.items()
            if k.startswith(prefix) and (kind is None or k.endswith("." + kind))
        )

    def spans_json(self):
        return [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
            for sid, name, start, end, parent in sorted(self.spans)
        ]


def _fn_metrics(t, key, kinds=("",)):
    names = [key + k for k in kinds]
    return sum(t.counts[n] for n in names), sum(t.self_s[n] for n in names)


def layer_metrics(t, wall_s):
    """Per-layer metrics of one traced pass: {name: (value, unit)} and the
    reported function names that no longer exist in the package."""
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    census = [_fn_metrics(t, k) for k in sorted(CENSUS)]
    put("paths.census.calls", sum(c for c, _ in census), "count")
    put("paths.census.self_s", sum(s for _, s in census), "s")
    put("paths.census.repeat_max", max(t.census_by_n.values(), default=0), "count")
    put("paths.phi.calls", t.counts["paths.phi"], "count")
    put("paths.monomial_value.calls", t.counts["paths.monomial_value"], "count")
    for fn in ("numeric_decomposition_check", "verify_certificate_on_matrix"):
        calls, self_s = _fn_metrics(t, "paths." + fn)
        put(f"paths.{fn}.calls", calls, "count")
        put(f"paths.{fn}.self_s", self_s, "s")
    for fn in ("mat_mul", "mat_pow", "poly_eval_matrix"):
        for kind in ("exact", "float"):
            calls, self_s = _fn_metrics(t, f"linalg.{fn}.{kind}")
            put(f"linalg.{fn}.{kind}.calls", calls, "count")
            put(f"linalg.{fn}.{kind}.self_s", self_s, "s")
    calls, self_s = _fn_metrics(t, "linalg.min_entry", (".exact", ".float"))
    put("linalg.min_entry.calls", calls, "count")
    put("linalg.min_entry.self_s", self_s, "s")
    for kind in ("exact", "float"):
        # m^3 per m x m product: computed from the operand order, not measured
        put(f"linalg.mat_mul.{kind}.scalar_mults", t.scalar_mults[f"linalg.mat_mul.{kind}"],
            "mults_computed")
    calls, self_s = _fn_metrics(t, "witness.search_witness")
    put("witness.search_witness.calls", calls, "count")
    put("witness.search_witness.self_s", self_s, "s")
    put("witness.search_witness.found_ratio", t.found / calls if calls else 0.0, "ratio")
    for fn in ("bracket_optimal_a", "sample_pa_membership", "certified_cap"):
        put(f"bracket.{fn}.self_s", t.self_s[f"bracket.{fn}"], "s")
    put("cli.main.self_s", t.self_s["cli.main"], "s")
    for layer in ("cli", "families", "paths", "witness", "bracket"):
        put(f"{layer}.self_s", t.layer_self_s(layer), "s")
    for kind in ("exact", "float"):
        put(f"linalg.{kind}.self_s", t.layer_self_s("linalg", kind), "s")
    put("traced_wall_s", wall_s, "s")
    put("share.paths", t.layer_self_s("paths") / wall_s, "ratio")
    put("share.linalg_exact", t.layer_self_s("linalg", "exact") / wall_s, "ratio")
    put("share.linalg_float_witness",
        (t.layer_self_s("linalg", "float") + t.layer_self_s("witness")) / wall_s, "ratio")

    reported = CENSUS | {
        "paths.phi", "paths.monomial_value", "paths.numeric_decomposition_check",
        "paths.verify_certificate_on_matrix", "linalg.mat_mul", "linalg.mat_pow",
        "linalg.poly_eval_matrix", "linalg.min_entry", "witness.search_witness",
        "bracket.bracket_optimal_a", "bracket.sample_pa_membership",
        "bracket.certified_cap", "cli.main",
    }
    return out, sorted(reported - t.wrapped)

"""Spans around the public functions of each `mreg` layer, from outside it.

`Tracer.install` wraps the functions in `TRACED` and rebinds every name in
the `mreg` package that refers to one of them, so calls between modules
(`resolution` calling `kernel_generators`, `localcoh` calling
`kernel_of_map`, ...) are recorded too.  A span is
`[name, start, end, parent index, operation id, output size]`; spans stay
in memory and are written out when the run ends.  `reduce_vec` runs too
often for a span per call and is only counted.

`layer_metrics` turns the spans of a traced run into the per-layer metrics.
Counts come from the first pass, whose inputs the seed fixes, so they
repeat exactly; times are medians over the traced passes.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from collections import defaultdict

TRACED = {
    "groebner": ("buchberger", "prune_to_minimal_generators", "kernel_generators",
                 "kernel_of_map", "ideal_intersection", "graded_piece_dimension"),
    "resolution": ("minimal_free_resolution", "minimalize_presentation"),
    "localcoh": ("ext_modules", "a_invariants_hochster", "reduced_homology_ranks"),
    "regularity": ("degree_bound_set", "minimal_coarsening_set", "regnum_module"),
    "grading": ("enumerate_bounded_region", "positive_coarsening_candidates",
                "find_positive_coarsening_vector"),
    "points": ("point_ideal", "hilbert_function_points"),
    "linalg": ("matrix_rank",),
    "problems": ("load_problem",),
}
COUNTED = {"groebner": ("reduce_vec",)}
OUTPUT_SIZE = {
    "groebner.buchberger": lambda ret: len(ret[0]),
    "grading.enumerate_bounded_region": lambda ret: len(ret.bases),
    "resolution.minimal_free_resolution": lambda ret: sum(len(s) for s in ret.shifts),
}

NAME, START, END, PARENT, OP, SIZE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict = defaultdict(int)  # (operation id, name) -> calls
        self.op = None

    def _span(self, name, fn):
        spans, stack, size = self.spans, self.stack, OUTPUT_SIZE.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                ret = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(ret)
            return ret

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.op, name)] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        import mreg.cli  # noqa: F401  (its imported names are rebound too)

        modules = [m for n, m in list(sys.modules.items()) if n == "mreg" or n.startswith("mreg.")]
        for table, make in ((TRACED, self._span), (COUNTED, self._counter)):
            for modname, names in table.items():
                home = sys.modules[f"mreg.{modname}"]
                for fname in names:
                    orig = getattr(home, fname)
                    wrapped = make(f"{modname}.{fname}", orig)
                    for m in modules:
                        for attr, val in list(vars(m).items()):
                            if val is orig:
                                setattr(m, attr, wrapped)

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": [[op, name, c] for (op, name), c in self.counts.items()]}

    def absorb(self, dumped: dict):
        """Append spans recorded in another process under the current operation."""
        base = len(self.spans)
        for rec in dumped["spans"]:
            rec = list(rec)
            rec[PARENT] = rec[PARENT] + base if rec[PARENT] >= 0 else -1
            rec[OP] = self.op
            self.spans.append(rec)
        for _, name, c in dumped["counts"]:
            self.counts[(self.op, name)] += c


# -- per-layer metrics ----------------------------------------------------------------

# metric name -> (unit, statistic, span or counter name)
SPAN_METRICS = {
    "groebner.buchberger.calls": ("count", "calls", "groebner.buchberger"),
    "groebner.buchberger.self_s": ("s", "self_s", "groebner.buchberger"),
    "groebner.buchberger.basis_out": ("count", "size", "groebner.buchberger"),
    "groebner.prune_to_minimal_generators.calls": ("count", "calls", "groebner.prune_to_minimal_generators"),
    "groebner.prune_to_minimal_generators.self_s": ("s", "self_s", "groebner.prune_to_minimal_generators"),
    "groebner.kernel_generators.self_s": ("s", "self_s", "groebner.kernel_generators"),
    "groebner.kernel_of_map.self_s": ("s", "self_s", "groebner.kernel_of_map"),
    "groebner.reduce_vec.calls": ("count", "counted", "groebner.reduce_vec"),
    "groebner.ideal_intersection.s": ("s", "s", "groebner.ideal_intersection"),
    "groebner.graded_piece_dimension.s": ("s", "s", "groebner.graded_piece_dimension"),
    "resolution.minimal_free_resolution.s": ("s", "s", "resolution.minimal_free_resolution"),
    "resolution.level1_s": ("s", "level", 1),
    "resolution.level2_s": ("s", "level", 2),
    "resolution.level3_s": ("s", "level", 3),
    "resolution.minimalize_presentation.s": ("s", "s", "resolution.minimalize_presentation"),
    "resolution.ranks_total": ("count", "size", "resolution.minimal_free_resolution"),
    "localcoh.ext_modules.self_s": ("s", "self_s", "localcoh.ext_modules"),
    "localcoh.ext_modules.hit_ratio": ("ratio", "hit_ratio", "localcoh.ext_modules"),
    "localcoh.a_invariants_hochster.s": ("s", "s", "localcoh.a_invariants_hochster"),
    "localcoh.reduced_homology_ranks.calls": ("count", "calls", "localcoh.reduced_homology_ranks"),
    "regularity.degree_bound_set.calls": ("count", "calls", "regularity.degree_bound_set"),
    "regularity.degree_bound_set.self_s": ("s", "self_s", "regularity.degree_bound_set"),
    "regularity.minimal_coarsening_set.self_s": ("s", "self_s", "regularity.minimal_coarsening_set"),
    "regularity.regnum_module.calls": ("count", "calls", "regularity.regnum_module"),
    "grading.enumerate_bounded_region.calls": ("count", "calls", "grading.enumerate_bounded_region"),
    "grading.enumerate_bounded_region.s": ("s", "s", "grading.enumerate_bounded_region"),
    "grading.enumerate_bounded_region.points_out": ("count", "size", "grading.enumerate_bounded_region"),
    "grading.positive_coarsening_candidates.s": ("s", "s", "grading.positive_coarsening_candidates"),
    "grading.find_positive_coarsening_vector.s": ("s", "s", "grading.find_positive_coarsening_vector"),
    "points.point_ideal.s": ("s", "s", "points.point_ideal"),
    "points.hilbert_function_points.calls": ("count", "calls", "points.hilbert_function_points"),
    "linalg.matrix_rank.calls": ("count", "calls", "linalg.matrix_rank"),
    "linalg.matrix_rank.s": ("s", "s", "linalg.matrix_rank"),
    "problems.load_problem.s": ("s", "s", "problems.load_problem"),
}
EXACT_STATS = ("calls", "counted", "size", "hit_ratio")


def pass_statistics(spans, counts, k: int) -> dict:
    """Every statistic of SPAN_METRICS over the operations of pass k."""
    idx = [i for i, rec in enumerate(spans) if rec[OP] is not None and rec[OP][0] == k]
    child_time = defaultdict(float)
    has_kernel_child = set()
    level_seen = defaultdict(int)
    out = defaultdict(float)
    for i in idx:
        rec = spans[i]
        dur = rec[END] - rec[START]
        p = rec[PARENT]
        if p >= 0:
            child_time[p] += dur
            parent = spans[p]
            if rec[NAME] == "groebner.kernel_of_map":
                has_kernel_child.add(p)
            if rec[NAME] == "groebner.kernel_generators" and parent[NAME] == "resolution.minimal_free_resolution":
                level_seen[p] += 1
                out[("level", level_seen[p])] += dur
    for i in idx:
        rec = spans[i]
        name, dur = rec[NAME], rec[END] - rec[START]
        out[("calls", name)] += 1
        out[("self_s", name)] += dur - child_time[i]
        if rec[SIZE] is not None:
            out[("size", name)] += rec[SIZE]
        p = rec[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:  # outermost span of its name: inclusive time without double counting
            out[("s", name)] += dur
    ext = "localcoh.ext_modules"
    ext_spans = [i for i in idx if spans[i][NAME] == ext]
    out[("hit_ratio", ext)] = (
        sum(i not in has_kernel_child for i in ext_spans) / len(ext_spans) if ext_spans else 0.0
    )
    for (op, name), c in counts.items():
        if op is not None and op[0] == k:
            out[("counted", name)] += c
    return out


def layer_metrics(spans, counts, passes) -> dict:
    """Per-layer metric values: exact statistics from pass 0, times as medians."""
    stats = [pass_statistics(spans, counts, k) for k in passes]
    out = {}
    for metric, (unit, stat, key) in SPAN_METRICS.items():
        values = [s[(stat, key)] for s in stats]
        if stat in EXACT_STATS:
            out[metric] = (values[0] if stat == "hit_ratio" else int(values[0]), unit)
        else:
            out[metric] = (statistics.median(values), unit)
    return out


# -- arithmetic microbenchmarks ------------------------------------------------------------

def _per_call_ns(fn, args, repeats=7):
    """Median over repeats of the time per call, looping over prepared arguments."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for a in args:
            fn(*a)
        times.append((time.perf_counter_ns() - t0) / len(args))
    return statistics.median(times)


MICRO_METRICS = ("poly.gf_mul_ns", "poly.gf_inv_ns", "poly.qq_mul_ns", "poly.order_key_ns")


def microbenchmarks(n=20000) -> dict:
    from mreg.poly import DEFAULT_FIELD, QQ, TermOrder
    from fractions import Fraction

    rng = random.Random(0)
    K = DEFAULT_FIELD
    gf = [(rng.randrange(1, K.p), rng.randrange(1, K.p)) for _ in range(n)]
    qq = [(Fraction(rng.randrange(-99, 100), rng.randrange(1, 99)),
           Fraction(rng.randrange(-99, 100), rng.randrange(1, 99))) for _ in range(n)]
    order = TermOrder((1, 1, 2, 2))
    monos = [(tuple(rng.randrange(6) for _ in range(4)),) for _ in range(n)]
    return {
        "poly.gf_mul_ns": (_per_call_ns(K.mul, gf), "ns"),
        "poly.gf_inv_ns": (_per_call_ns(K.inv, [(a,) for a, _ in gf]), "ns"),
        "poly.qq_mul_ns": (_per_call_ns(QQ.mul, qq), "ns"),
        "poly.order_key_ns": (_per_call_ns(order.key, monos), "ns"),
    }

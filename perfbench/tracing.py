"""Spans and counters recorded from outside nlhodge, around its public calls.

`install` replaces each traced function or method with a wrapper that records
a span (name, start, end, parent) and, where a hook is given, counters read
from the call's arguments or result. Functions are patched in every nlhodge
module that holds them, so names a module took in with `from .x import f`
are traced too. The high-frequency TupleSet lookups only bump a counter:
timing each of their ~2 M calls would slow the gluing workload by about a
third.

Self time of a span is its duration minus the time its child spans cover;
`layer_metrics` sums self times into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

ROOT = "pass"


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> Counter:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_tuples(rec, args, kwargs, res):
    rec.counts["neighborhoods.tuples"] += res.size


def _count_coboundary(rec, args, kwargs, res):
    rec.counts["cochains.coboundary_calls"] += 1
    rec.counts["cochains.coboundary_nnz"] += res.matrix.nnz


def _count_laplacian(rec, args, kwargs, res):
    rec.counts["hodge.laplacian_dense_bytes"] += res.nbytes


def _count_eigensolve(hodge):
    def hook(rec, args, kwargs, res):
        m = _arg(args, kwargs, 0, "complex_").dim(_arg(args, kwargs, 1, "p"))
        if m:
            branch = "dense" if m <= hodge.DENSE_EIG_CUTOFF else "sparse"
            rec.counts[f"hodge.eig_{branch}_calls"] += 1
        rec.counts["hodge.flagged"] += int(res.flagged)

    return hook


def _count_rank(rec, args, kwargs, res):
    rows, cols = _arg(args, kwargs, 0, "matrix").shape
    rec.counts["cohomology.rank_calls"] += 1
    rec.counts["cohomology.rank_dense_bytes"] += rows * cols * 8


def _count_slice(rec, args, kwargs, res):
    rec.counts["covers.intersections"] += 1


def _count_mv(rec, args, kwargs, res):
    rec.counts["covers.mv_crosscheck_ran"] += int(res.crosscheck != "skipped")


def _count_solve(rec, args, kwargs, res):
    problem = _arg(args, kwargs, 0, "problem")
    rec.counts["capacity.solves"] += 1
    rec.counts["capacity.free_points"] += problem.space.n - problem.clamp.size


def _traced(nl):
    """(owner, attribute, hook) for every call that records a span.

    The span is named '<module>.<attribute>'; `SELF_TIME` maps span names to
    the per-layer time metrics.
    """
    return [
        (nl.space.MetricMeasureSpace, "__post_init__", None),
        (nl.space, "load_distance_matrix", None),
        (nl.neighborhoods, "enumerate_tuples", _count_tuples),
        (nl.kernels, "assemble_weights", None),
        (nl.cochains, "build_coboundary", _count_coboundary),
        (nl.hodge, "build_weighted_complex", None),
        (nl.hodge, "hodge_laplacian", _count_laplacian),
        (nl.hodge, "harmonic_dimension", _count_eigensolve(nl.hodge)),
        (nl.hodge, "hodge_report", None),
        (nl.cohomology, "exact_betti", None),
        (nl.cohomology, "rank_exact", _count_rank),
        (nl.covers, "default_cover", None),
        (nl.covers, "restrict_complex", None),
        (nl.covers, "build_slice_and_psi", _count_slice),
        (nl.covers.HomotopyOperator, "psi_matrix", None),
        (nl.covers, "homotopy_identity_residual", None),
        (nl.covers, "poincare_suite", None),
        (nl.covers, "mayer_vietoris_check", _count_mv),
        (nl.covers, "cech_nerve_betti", None),
        (nl.capacity, "build_capacity_problem", None),
        (nl.capacity, "capacity", _count_solve),
        (nl.cli, "main", None),
    ]


def _counted(nl):
    """(owner, attribute, counter) for calls that are counted, not timed."""
    return [
        (nl.neighborhoods.TupleSet, "index_of", "neighborhoods.lookups"),
        (nl.neighborhoods.TupleSet, "contains", "neighborhoods.lookups"),
        (nl.kernels, "kernel_matrix", "kernels.kernel_matrix_calls"),
    ]


SELF_TIME = {
    "space.validate_s": ["space.MetricMeasureSpace.__post_init__"],
    "space.load_s": ["space.load_distance_matrix"],
    "neighborhoods.enumerate_s": ["neighborhoods.enumerate_tuples"],
    "kernels.masses_s": ["kernels.assemble_weights"],
    "cochains.coboundary_s": ["cochains.build_coboundary"],
    "hodge.build_complex_s": ["hodge.build_weighted_complex"],
    "hodge.laplacian_s": ["hodge.hodge_laplacian"],
    "hodge.eigensolve_s": ["hodge.harmonic_dimension"],
    "hodge.report_s": ["hodge.hodge_report"],
    "cohomology.betti_s": ["cohomology.exact_betti"],
    "cohomology.rank_s": ["cohomology.rank_exact"],
    "covers.cover_s": ["covers.default_cover"],
    "covers.restrict_s": ["covers.restrict_complex"],
    "covers.slice_psi_s": ["covers.build_slice_and_psi", "covers.HomotopyOperator.psi_matrix"],
    "covers.homotopy_residual_s": ["covers.homotopy_identity_residual"],
    "covers.poincare_s": ["covers.poincare_suite"],
    "covers.mv_s": ["covers.mayer_vietoris_check"],
    "covers.nerve_s": ["covers.cech_nerve_betti"],
    "capacity.problem_s": ["capacity.build_capacity_problem"],
    "capacity.solve_s": ["capacity.capacity"],
    "cli.self_s": ["cli.main"],
    "trace.unattributed_s": [ROOT],
}

COUNTS = [
    "neighborhoods.tuples",
    "neighborhoods.lookups",
    "kernels.kernel_matrix_calls",
    "cochains.coboundary_calls",
    "cochains.coboundary_nnz",
    "hodge.eig_dense_calls",
    "hodge.eig_sparse_calls",
    "hodge.flagged",
    "hodge.laplacian_dense_bytes",
    "cohomology.rank_calls",
    "cohomology.rank_dense_bytes",
    "covers.intersections",
    "covers.mv_crosscheck_ran",
    "capacity.solves",
    "capacity.free_points",
]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "B" if metric.endswith("_bytes") else "count"


def _span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def _span_wrapper(fn, rec: Recorder, name: str, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            res = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            hook(rec, args, kwargs, res)
        return res

    return wrapper


def _count_wrapper(fn, counts: Counter, key: str):
    @functools.wraps(fn)
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)

    return wrapper


def install(nl, rec: Recorder):
    """Patch nlhodge for tracing into `rec`; returns a function that undoes it."""
    modules = [m for m in vars(nl).values() if getattr(m, "__name__", "").startswith("nlhodge.")]
    undo = []

    def patch(owner, attr, wrapper):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            homes = [(owner, attr)]
        else:
            # every module binding of the function, including from-imports
            homes = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
        for home, key in homes:
            setattr(home, key, wrapper)
            undo.append((home, key, original))

    for owner, attr, hook in _traced(nl):
        name = _span_name(owner, attr)
        patch(owner, attr, _span_wrapper(getattr(owner, attr), rec, name, hook))
    for owner, attr, key in _counted(nl):
        patch(owner, attr, _count_wrapper(getattr(owner, attr), rec.counts, key))

    def uninstall():
        for home, key, original in reversed(undo):
            setattr(home, key, original)

    return uninstall


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    selfs = rec.self_times()
    unmapped = set(selfs) - {s for spans in SELF_TIME.values() for s in spans}
    if unmapped:
        raise RuntimeError(f"spans with no layer metric: {sorted(unmapped)}")
    out = {metric: sum((selfs[s] for s in spans), 0.0) for metric, spans in SELF_TIME.items()}
    out.update({key: rec.counts[key] for key in COUNTS})
    return out

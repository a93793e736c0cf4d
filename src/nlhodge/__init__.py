"""Nonlocal cochain calculus and weighted Hodge theory on metric measure spaces.

Submodules stay import-light at the top level so the CLI can pin BLAS thread
pools before numpy loads; import what you need from the submodules, or rely
on the lazy attribute forwarding below for the common entry points.
"""

import os

__version__ = "0.1.0"

_FORWARD = {
    "MetricMeasureSpace": "space",
    "gen_circle": "space",
    "gen_interval": "space",
    "gen_two_components": "space",
    "gen_punctured_interval": "space",
    "gen_sphere": "space",
    "load_distance_matrix": "space",
    "full_system": "neighborhoods",
    "rips_system": "neighborhoods",
    "hausdorff_system": "neighborhoods",
    "enumerate_tuples": "neighborhoods",
    "fractional_kernel": "kernels",
    "constant_kernel": "kernels",
    "truncated_fractional_kernel": "kernels",
    "assemble_weights": "kernels",
    "Cochain": "cochains",
    "alt_project": "cochains",
    "build_coboundary": "cochains",
    "build_weighted_complex": "hodge",
    "hodge_report": "hodge",
    "hodge_decompose": "hodge",
    "exact_betti": "cohomology",
    "compare_numeric_exact": "cohomology",
    "default_cover": "covers",
    "mayer_vietoris_check": "covers",
    "cech_nerve_betti": "covers",
    "poincare_suite": "covers",
    "derham_recovery_report": "covers",
    "removability_sweep": "capacity",
}

__all__ = sorted(_FORWARD) + ["__version__", "thread_cap"]


def thread_cap() -> int:
    """Most worker threads one stage may run, from NLH_THREADS.

    Unset means every CPU this process may run on (its affinity set, or
    os.cpu_count() where that is unavailable). Anything but a positive
    integer raises ValueError.
    """
    raw = os.environ.get("NLH_THREADS")
    if raw is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:
            return os.cpu_count() or 1
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"NLH_THREADS must be a positive integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"NLH_THREADS must be >= 1, got {cap}")
    return cap


def __getattr__(name):
    try:
        modname = _FORWARD[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{modname}", __name__)
    return getattr(module, name)

"""The benchmark's tracer patches nlhodge functions by name from outside.

A refactor that renames or drops a traced function fails here, in the test
suite, instead of only in a traced benchmark run.
"""

import importlib
import importlib.util
import os
import types

from nlhodge.space import gen_interval
from nlhodge.neighborhoods import hausdorff_system
from nlhodge.kernels import fractional_kernel

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ("space", "neighborhoods", "kernels", "cochains", "hodge", "cohomology",
           "covers", "capacity", "cli")


def load_tracing():
    path = os.path.join(REPO, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_traced_name_and_restores_it():
    tracing = load_tracing()
    nl = types.SimpleNamespace(**{m: importlib.import_module(f"nlhodge.{m}") for m in MODULES})
    names = [(owner, attr) for owner, attr, _ in tracing._traced(nl) + tracing._counted(nl)]
    originals = [getattr(owner, attr) for owner, attr in names]
    homes = list(vars(nl).values()) + [owner for owner, _ in names]

    def snapshot():
        return {(id(home), key): value for home in homes for key, value in vars(home).items()}

    before = snapshot()
    rec = tracing.Recorder()
    uninstall = tracing.install(nl, rec)
    try:
        for (owner, attr), original in zip(names, originals):
            assert getattr(owner, attr) is not original, attr
        # small traced Poincare, Mayer-Vietoris and nerve runs map every span
        # to a layer metric; the nerve enumerates no point tuples
        space = gen_interval(16)
        system = hausdorff_system(0.3)
        cx = nl.hodge.build_weighted_complex(space, system, fractional_kernel(1.0, 0.5), 1)
        cover = nl.covers.default_cover(space, system)
        checks = nl.covers.poincare_suite(cover, cx, 1, 1)
        cert = nl.covers.mayer_vietoris_check(cx, cover, 1, q_max=1)
        tuples = rec.counts["neighborhoods.tuples"]
        nerve = nl.covers.cech_nerve_betti(cover, q_max=1)
        assert rec.counts["neighborhoods.tuples"] == tuples > 0
        assert cert.exact and nerve.betti == (1, 0)
        spans = {name for name, *_ in rec.spans}
        mapped = {span for names in tracing.SELF_TIME.values() for span in names}
        assert {"covers.mayer_vietoris_check", "covers.cech_nerve_betti"} <= spans <= mapped
        metrics = tracing.layer_metrics(rec)
        assert metrics["covers.intersections"] == len(checks) > 0
        assert metrics["covers.mv_s"] > 0 and metrics["covers.nerve_s"] > 0
    finally:
        uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

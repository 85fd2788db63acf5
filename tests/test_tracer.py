"""The benchmark's span tracer must find every name it patches in the package."""

import types
from pathlib import Path

from sbc_lab import cli, core, diagnostics
from sbc_lab.models import gaussian, simplex


def load_tracer():
    """perfbench/tracer.py as a module, read without writing a bytecode cache there."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_tracer_finds_every_patched_name():
    # a renamed function would leave its benchmark span reading zero
    tracer_module = load_tracer()
    originals = (cli.run_sbc, simplex._metropolis_block, simplex.RwmSimplexFamily.sample_batch)
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        assert tracer.missing == []
        assert cli.run_sbc is not originals[0]
    finally:
        tracer.restore()
    assert (cli.run_sbc, simplex._metropolis_block, simplex.RwmSimplexFamily.sample_batch) == originals


def test_tracer_counts_null_lookups_in_the_null_cache(monkeypatch):
    # the benchmark's null_misses, null_hits and null_cache_mb read the cache
    # of sorted null arrays keyed by (S, M)
    monkeypatch.setattr(diagnostics, "_null_cache", {})
    monkeypatch.setattr(diagnostics, "_log_bar_cache", {})
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        assert tracer_module.null_cache_mb() == 0.0
        cold = diagnostics.log_gamma_null_quantile_cached(25, 7)
        assert tracer_module.null_cache_mb() > 0.0
        assert (tracer.counters["null_misses"], tracer.counters["null_hits"]) == (1, 0)
        assert diagnostics.log_gamma_null_quantile_cached(25, 7) == cold
        assert (tracer.counters["null_misses"], tracer.counters["null_hits"]) == (1, 1)
    finally:
        tracer.restore()


def test_tracer_times_evaluation_and_ranking():
    # run_sbc evaluates and ranks each group through the two public steps the
    # tracer wraps, so core.quantities_s and core.rank_s read what they cost
    family = gaussian.make_variant("correct", 3)
    args = (gaussian.GaussianGenerator(3), family, gaussian.quantity_library(3, family))
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        core.run_sbc(*args, S=20, M=9, seed=3)
    finally:
        tracer.restore()
    assert {"core.run_sbc", "core.quantities", "core.rank"} <= set(tracer.names)

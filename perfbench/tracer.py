"""In-memory span tracer for the per-layer run of the sbc-lab benchmark.

``install`` wraps the public functions at each layer boundary of sbc_lab.
The package binds many names at import time (``cli`` does ``from .core
import run_sbc``, ``reports`` does ``from .diagnostics import gamma_result``,
``models.simplex`` does ``from ..core import ess``), so a wrapper replaces
the original under every name of every loaded ``sbc_lab`` module that refers
to it, not only in the defining module. Methods are wrapped on their class.

Each span records its name, start, end and parent. Spans stay in memory;
``layer_metrics`` derives per-layer totals, call counts and self times from
them when the traced run ends. Null-cache misses are counted by reading the
size of ``diagnostics._null_cache`` before and after each lookup, without
changing it.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

__all__ = ["Tracer", "install", "layer_metrics", "LAYER_METRICS"]


class Tracer:
    """Span recorder: parallel lists of name, start, end and parent index."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []

    def patch(self, target, key: str, value) -> None:
        self.patched.append((target, key, getattr(target, key)))
        setattr(target, key, value)

    def restore(self) -> None:
        """Put back every original that ``install`` replaced."""
        for target, key, original in reversed(self.patched):
            setattr(target, key, original)
        self.patched.clear()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        """``fn`` inside a span; ``after(args, kwargs, result)`` updates counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        covered = [0.0] * len(durations)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += durations[idx]
        return [d - c for d, c in zip(durations, covered)]

    def summary(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Inclusive time, call count and self time per span name."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        own: dict[str, float] = defaultdict(float)
        for name, start, end, self_s in zip(self.names, self.starts, self.ends, self.self_times()):
            total[name] += end - start
            calls[name] += 1
            own[name] += self_s
        return total, calls, own


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _sbc_modules() -> list:
    return [m for n, m in list(sys.modules.items()) if n == "sbc_lab" or n.startswith("sbc_lab.")]


def _patch_everywhere(tracer: Tracer, original, wrapped) -> None:
    for module in _sbc_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                tracer.patch(module, key, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of sbc_lab; absent targets are listed in ``tracer.missing``."""
    mods = {
        name: importlib.import_module(f"sbc_lab.{name}")
        for name in ("rng", "core", "binomial", "diagnostics", "reports", "plots", "cli",
                     "models.gaussian", "models.simplex")
    }
    counters = tracer.counters
    diagnostics = mods["diagnostics"]

    def after_run_sbc(args, kwargs, run):
        counters["sims_attempted"] += run.S
        counters["sims_failed"] += run.n_failed
        counters["quantity_errors"] += len(run.quantity_errors)

    def after_evolution(args, kwargs, traces):
        if traces:
            counters["evolution_prefixes"] += len(traces[0].n_sims)

    def after_logpost(args, kwargs, result):
        counters["logpost_rows"] += len(result[0])

    def after_write(args, kwargs, result):
        counters["reports_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    functions = [
        ("core", "run_sbc", "core.run_sbc", after_run_sbc),
        ("core", "evaluate_quantities", "core.quantities", None),
        ("core", "compute_rank", "core.rank", None),
        ("core", "ess", "core.ess", None),
        ("rng", "stream", "rng.stream", None),
        ("binomial", "log_binom_pmf", "binomial.pmf", None),
        ("binomial", "log_binom_tables", "binomial.tables", None),
        ("diagnostics", "log_gamma_null_quantile_cached", "diagnostics.null", None),
        ("diagnostics", "evolution_table", "diagnostics.evolution", after_evolution),
        ("diagnostics", "gamma_result", "diagnostics.gamma", None),
        ("diagnostics", "chi_square_uniformity", "diagnostics.chi2", None),
        ("diagnostics", "ecdf_band", "diagnostics.ecdf_band", None),
        ("models.simplex", "_metropolis_block", "models.simplex.metropolis", None),
        ("models.simplex", "_log_posterior_batch", "models.simplex.logpost", after_logpost),
        ("reports", "build_report", "reports.build_report", None),
        ("reports", "write_ranks_csv", "reports.write", after_write),
        ("reports", "write_report_json", "reports.write", after_write),
        ("reports", "write_evolution_csv", "reports.write", after_write),
        ("plots", "svg_rank_histogram", "plots.svg", None),
        ("plots", "svg_ecdf_difference", "plots.svg", None),
        ("plots", "svg_evolution", "plots.svg", None),
    ]
    for mod, attr, span, after in functions:
        original = getattr(mods[mod], attr, None)
        if original is None:
            tracer.missing.append(f"{mod}.{attr}")
            continue
        wrapped = tracer.wrap(original, span, after)
        if attr == "log_gamma_null_quantile_cached":
            wrapped = _count_null_lookups(diagnostics, wrapped, counters)
        _patch_everywhere(tracer, original, wrapped)

    gaussian, simplex = mods["models.gaussian"], mods["models.simplex"]
    variant_classes = {type(gaussian.make_variant(v, 3)) for v in gaussian.VARIANT_NAMES}
    methods = [(cls, "sample", "models.gaussian.sample") for cls in variant_classes]
    methods += [
        (gaussian.GaussianGenerator, "generate", "core.generate"),
        (simplex.SimplexGenerator, "generate", "core.generate"),
        (simplex.RwmSimplexFamily, "sample_batch", "models.simplex.sample_batch"),
    ]
    for cls, attr, span in methods:
        original = cls.__dict__.get(attr)
        if original is None:
            tracer.missing.append(f"{cls.__qualname__}.{attr}")
            continue
        tracer.patch(cls, attr, tracer.wrap(original, span))


def _count_null_lookups(diagnostics, wrapped, counters):
    @functools.wraps(wrapped)
    def counted(*args, **kwargs):
        cache = getattr(diagnostics, "_null_cache", None)
        before = len(cache) if cache is not None else 0
        result = wrapped(*args, **kwargs)
        if cache is not None:
            counters["null_misses" if len(cache) > before else "null_hits"] += 1
        return result

    return counted


def null_cache_mb() -> float:
    """Bytes held by the process-wide null cache, in MB (0 if it is gone)."""
    cache = getattr(importlib.import_module("sbc_lab.diagnostics"), "_null_cache", None) or {}
    return sum(getattr(v, "nbytes", 0) for v in cache.values()) / 1e6


# name, unit, better, table (inclusive time, calls or self time per span name,
# or a counter), and the keys summed from it
LAYER_METRICS = (
    ("diagnostics.null_s", "s", "lower", "time", "diagnostics.null"),
    ("diagnostics.null_misses", "count", "lower", "count", "null_misses"),
    ("diagnostics.null_hits", "count", "higher", "count", "null_hits"),
    ("diagnostics.null_cache_mb", "MB", "lower", "count", "null_cache_mb"),
    ("diagnostics.evolution_s", "s", "lower", "time", "diagnostics.evolution"),
    ("diagnostics.evolution_prefixes", "count", "lower", "count", "evolution_prefixes"),
    ("binomial.pmf_calls", "count", "lower", "calls", "binomial.pmf"),
    ("binomial.pmf_s", "s", "lower", "time", "binomial.pmf"),
    ("binomial.tables_calls", "count", "lower", "calls", "binomial.tables"),
    ("binomial.tables_s", "s", "lower", "time", "binomial.tables"),
    ("diagnostics.gamma_s", "s", "lower", "time", "diagnostics.gamma"),
    ("diagnostics.chi2_s", "s", "lower", "time", "diagnostics.chi2"),
    ("diagnostics.ecdf_band_s", "s", "lower", "time", "diagnostics.ecdf_band"),
    ("models.simplex.sample_batch_calls", "count", "lower", "calls",
     "models.simplex.sample_batch"),
    ("models.simplex.sample_batch_s", "s", "lower", "time", "models.simplex.sample_batch"),
    ("models.simplex.metropolis_blocks", "count", "lower", "calls", "models.simplex.metropolis"),
    ("models.simplex.metropolis_s", "s", "lower", "time", "models.simplex.metropolis"),
    ("models.simplex.logpost_calls", "count", "lower", "calls", "models.simplex.logpost"),
    ("models.simplex.logpost_rows", "count", "lower", "count", "logpost_rows"),
    ("models.simplex.logpost_s", "s", "lower", "time", "models.simplex.logpost"),
    ("core.ess_calls", "count", "lower", "calls", "core.ess"),
    ("core.ess_s", "s", "lower", "time", "core.ess"),
    ("core.run_sbc_s", "s", "lower", "time", "core.run_sbc"),
    ("core.self_s", "s", "lower", "self", "core.run_sbc"),
    ("core.generate_s", "s", "lower", "time", "core.generate"),
    ("core.sample_s", "s", "lower", "time",
     ("models.gaussian.sample", "models.simplex.sample_batch")),
    ("core.quantities_s", "s", "lower", "time", "core.quantities"),
    ("core.rank_s", "s", "lower", "time", "core.rank"),
    ("core.sims_attempted", "count", "higher", "count", "sims_attempted"),
    ("core.sims_failed", "count", "lower", "count", "sims_failed"),
    ("core.quantity_errors", "count", "lower", "count", "quantity_errors"),
    ("rng.streams", "count", "lower", "calls", "rng.stream"),
    ("rng.stream_s", "s", "lower", "time", "rng.stream"),
    ("models.gaussian.sample_calls", "count", "lower", "calls", "models.gaussian.sample"),
    ("models.gaussian.sample_s", "s", "lower", "time", "models.gaussian.sample"),
    ("reports.build_report_s", "s", "lower", "time", "reports.build_report"),
    ("reports.write_s", "s", "lower", "time", "reports.write"),
    ("reports.bytes", "bytes", "lower", "count", "reports_bytes"),
    ("plots.svg_s", "s", "lower", "time", "plots.svg"),
    ("plots.files", "count", "lower", "calls", "plots.svg"),
    ("cli.self_s", "s", "lower", "self", "cli.main"),
)


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every per-layer metric of one traced run, as {name: {value, unit}}."""
    total, calls, own = tracer.summary()
    counters = defaultdict(float, tracer.counters)
    counters["null_cache_mb"] = null_cache_mb()
    tables = {"time": total, "calls": calls, "self": own, "count": counters}
    metrics = {}
    for name, unit, _, table, keys in LAYER_METRICS:
        keys = (keys,) if isinstance(keys, str) else keys
        metrics[name] = {"value": float(sum(tables[table][k] for k in keys)), "unit": unit}
    return metrics

"""The benchmark's span tracer must find every name it patches in the package."""

import types
from pathlib import Path

from sbc_lab import cli
from sbc_lab.models import simplex


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

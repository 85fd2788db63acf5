"""Child-process side of the sbc-lab benchmark.

``run.py`` starts each mode in a fresh interpreter, so process-wide state
(the null-calibration cache, the binomial table cache) starts empty and the
process's peak RSS belongs to the workload alone. The last line printed is
one JSON object.

    worker.py setup --model gaussian|simplex
        import sbc_lab and build the generator, family and quantity library
    worker.py cli [--trace|--pace] -- ARGV...
        call sbc_lab.cli.main(ARGV) in-process and time it
    worker.py warm --seed N --seconds T --sims S --out DIR [--trace]
        the multi-seed Gaussian loop of the acceptance suite, null cache warm

Timed units (set-up, ``cli --pace`` and the untraced warm repeats) are
paced as pace.py describes; traced runs are not.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

# gauss-seeds-warm: the variants of the acceptance suite's Gaussian batches
# that run at S=1000, with its M, n and evolution step.
WARM_VARIANTS = ("correct", "prior-only", "small-bias", "non-monotonic")
WARM_M, WARM_N, WARM_STEP = 100, 3, 10
MIN_REPS = 3


def more_reps(done: int, elapsed: float, seconds: float) -> bool:
    """Repeat at least MIN_REPS times, then while one more average repeat fits in ``seconds``."""
    if done < MIN_REPS:
        return True
    return elapsed + elapsed / done <= seconds


def warm_seed(seed: int, rep: int) -> int:
    """Seed of repeat ``rep``: two seeds alternate, so each recurs."""
    return 2 * seed + rep % 2


def cmd_setup(args) -> dict:
    # numpy is loaded with the pacing kernel, before the clock starts.
    from pace import Paced

    with Paced() as unit:
        from sbc_lab import cli  # noqa: F401 - the import is part of what is timed
        from sbc_lab.models import gaussian, simplex

        if args.model == "gaussian":
            family = gaussian.make_variant("correct", WARM_N)
            gaussian.GaussianGenerator(WARM_N)
            gaussian.quantity_library(WARM_N, family)
        else:
            simplex.SimplexGenerator()
            simplex.RwmSimplexFamily("min")
            simplex.quantity_library()
    return unit.record()


def _traced(args):
    if not args.trace:
        return None
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    return tracer


def _trace_fields(tracer, wall_s: float) -> dict:
    from tracer import layer_metrics

    return {
        "metrics": layer_metrics(tracer),
        "self_sum_s": sum(tracer.self_times()),
        "spans": len(tracer.names),
        "missing": tracer.missing,
        "traced_wall_s": wall_s,
    }


def cmd_cli(args) -> dict:
    if args.pace:
        return _paced_cli(args.argv)
    from sbc_lab import cli

    tracer = _traced(args)
    main = cli.main if tracer is None else tracer.wrap(cli.main, "cli.main")
    start = perf_counter()
    code = main(args.argv)
    wall = perf_counter() - start
    sys.stdout.flush()
    out = {"wall_s": wall, "exit_code": code}
    if tracer is not None:
        out.update(_trace_fields(tracer, wall))
    return out


def _paced_cli(argv: list[str]) -> dict:
    """Import sbc_lab.cli and run main(argv) as one paced unit.

    An exception escaping main counts as exit code 1, as it would for the
    sbc-lab command.
    """
    from pace import Paced

    with Paced() as unit:
        try:
            from sbc_lab import cli

            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    sys.stdout.flush()
    return {**unit.record(), "exit_code": code}


def _experiment(variant: str, seed: int, S: int):
    from sbc_lab import core, diagnostics, reports
    from sbc_lab.models import gaussian

    family = gaussian.make_variant(variant, WARM_N)
    quantities = gaussian.quantity_library(WARM_N, family)
    run = core.run_sbc(gaussian.GaussianGenerator(WARM_N), family, quantities, S=S, M=WARM_M, seed=seed)
    ranks = {q.name: run.ranks(q.name) for q in quantities}
    diagnostics.evolution_table(ranks, WARM_M, step=WARM_STEP)
    report = reports.build_report(run, metadata={"variant": variant, "seed": seed})
    return run, report


def _repeat(seed: int, S: int) -> tuple[float, list]:
    start = perf_counter()
    results = [(variant, *_experiment(variant, seed, S)) for variant in WARM_VARIANTS]
    return perf_counter() - start, results


def cmd_warm(args) -> dict:
    # Bound before any tracing is installed, so writing the checked outputs
    # stays outside the traced layers.
    from sbc_lab.reports import write_ranks_csv, write_report_json

    out_dir = Path(args.out)

    def save(tag: str, seed: int, results) -> list[dict]:
        saved = []
        for variant, run, report in results:
            path = out_dir / f"{tag}-{variant}"
            path.mkdir(parents=True, exist_ok=True)
            write_ranks_csv(run, path / "ranks.csv")
            write_report_json(report, path / "report.json")
            saved.append({"dir": str(path), "key": f"{seed}/{variant}", "variant": variant, "S": args.sims})
        return saved

    # Untimed warm-up at a seed no repeat uses: it fills the null cache.
    _experiment("correct", warm_seed(args.seed, 0) + 2, args.sims)
    if args.trace:
        # Untraced, traced, untraced at one seed: the mean of the untraced
        # pair cancels a steady drift in machine speed.
        seed = warm_seed(args.seed, 0)
        before, results = _repeat(seed, args.sims)
        outputs = save("untraced-before", seed, results)
        tracer = _traced(args)
        root = tracer.open("bench.repeat")
        start = perf_counter()
        _, results = _repeat(seed, args.sims)
        wall = perf_counter() - start
        tracer.close(root)
        tracer.restore()
        outputs += save("traced", seed, results)
        after, results = _repeat(seed, args.sims)
        outputs += save("untraced-after", seed, results)
        out = {"untraced_wall_s": (before + after) / 2, "outputs": outputs}
        out.update(_trace_fields(tracer, wall))
        return out
    from pace import Paced

    units, outputs = [], []
    start = perf_counter()
    while more_reps(len(units), perf_counter() - start, args.seconds):
        seed = warm_seed(args.seed, len(units))
        with Paced() as unit:
            _, results = _repeat(seed, args.sims)
        outputs += save(f"rep{len(units)}", seed, results)
        units.append(unit.record())
    return {"units": units, "outputs": outputs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--model", choices=("gaussian", "simplex"), required=True)
    setup.set_defaults(func=cmd_setup)
    cli = sub.add_parser("cli")
    cli.add_argument("--trace", action="store_true")
    cli.add_argument("--pace", action="store_true", help="time main as one paced unit (pace.py)")
    cli.add_argument("argv", nargs=argparse.REMAINDER)
    cli.set_defaults(func=cmd_cli)
    warm = sub.add_parser("warm")
    warm.add_argument("--seed", type=int, required=True)
    warm.add_argument("--seconds", type=float, required=True)
    warm.add_argument("--sims", type=int, required=True)
    warm.add_argument("--out", required=True)
    warm.add_argument("--trace", action="store_true")
    warm.set_defaults(func=cmd_warm)
    args = parser.parse_args(argv)
    if args.mode == "cli" and args.argv[:1] == ["--"]:
        args.argv = args.argv[1:]
    print(json.dumps(args.func(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: run SBC experiments, scan the discrete model, list names.

``run`` executes one experiment configuration and writes the rank table,
uniformity report, evolution trace, and SVG figures into the output
directory; the exit code is 0 when every quantity passes at the 5% level,
2 when any fails, and 1 on configuration or execution errors, including a
run in which no quantity was ranked at all. Flat JSON
config files mirror the flags; explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .core import run_sbc
from .diagnostics import RankSet, ecdf_band, evolution_table
from .models import bernoulli, gaussian, simplex
from .plots import svg_ecdf_difference, svg_evolution, svg_rank_histogram
from .reports import build_report, write_evolution_csv, write_ranks_csv, write_report_json
from .rng import MAX_SEED

__all__ = ["main"]


class UsageError(Exception):
    pass


class _ModelNameError(UsageError):
    """A usage error in the model name: ``main`` lists the valid models after it."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        if message.startswith("argument --model:"):
            raise _ModelNameError(message)
        raise UsageError(message)


@dataclass(frozen=True)
class _Model:
    """How the CLI builds one model. The first variant is the reference one:
    ``list`` shows the quantities of its library."""

    generator: Callable[[int], Any]  # n -> data generator
    variants: tuple[str, ...]
    family: Callable[[str, int], Any]  # (variant, n) -> posterior family
    quantities: Callable[[Any, int], list]  # (family, n) -> quantity library
    thin: int  # default thinning stride


MODELS = {
    "bernoulli": _Model(
        lambda n: bernoulli.BernoulliGenerator(),
        bernoulli.FAMILY_NAMES,
        lambda variant, n: bernoulli.FamilySampler(bernoulli.get_family(variant)),
        lambda family, n: bernoulli.quantity_library(),
        1,
    ),
    "gaussian": _Model(
        gaussian.GaussianGenerator,
        gaussian.VARIANT_NAMES,
        gaussian.make_variant,
        lambda family, n: gaussian.quantity_library(n, family),
        1,
    ),
    "simplex": _Model(
        lambda n: simplex.SimplexGenerator(),
        simplex.VARIANT_NAMES,
        lambda variant, n: simplex.RwmSimplexFamily(variant),
        lambda family, n: simplex.quantity_library(),
        20,
    ),
}


def _build(model: str, variant: str, n: int):
    """Generator, family, full quantity library, and the default thin stride."""
    spec = MODELS[model]
    if variant not in spec.variants:
        raise UsageError(
            f"unknown {model} variant {variant!r}; valid: {', '.join(spec.variants)}"
        )
    generator = spec.generator(n)
    family = spec.family(variant, n)
    return generator, family, spec.quantities(family, n), spec.thin


# The run settings, with the JSON type each takes in a config file.
_RUN_KEYS = {
    **dict.fromkeys(("model", "variant", "quantities", "out"), str),
    **dict.fromkeys(("n", "sims", "draws", "seed", "thin", "step"), int),
    "no_timestamp": bool,
}
_TYPE_NAMES = {str: "a string", int: "an integer", bool: "true or false"}
# The variant defaults to the model's first, its reference one.
_RUN_DEFAULTS = {
    "n": 3,
    "sims": 1000,
    "draws": 100,
    "seed": 1,
    "quantities": "default",
    "step": 10,
    "out": "sbc-out",
    "no_timestamp": False,
}


def _merge_config(args: argparse.Namespace) -> dict:
    settings: dict = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise UsageError("the config file must hold one JSON object")
        unknown = set(loaded) - set(_RUN_KEYS)
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in loaded.items():
            if type(value) is not _RUN_KEYS[key]:  # so a float or a bool is no count
                want = _TYPE_NAMES[_RUN_KEYS[key]]
                raise UsageError(f"config key {key!r} must be {want}, got {json.dumps(value)}")
        settings.update(loaded)
    for key in _RUN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            settings[key] = flag
    for key, value in _RUN_DEFAULTS.items():
        settings.setdefault(key, value)
    if "model" not in settings:
        raise _ModelNameError("--model is required (or provide it in --config)")
    spec = MODELS.get(settings["model"])
    if spec is None:
        raise _ModelNameError(f"unknown model {settings['model']!r}; valid: {', '.join(MODELS)}")
    settings.setdefault("variant", spec.variants[0])
    return settings


def _select_quantities(requested: str, library) -> list:
    available = {q.name: q for q in library}
    if requested == "default":
        return list(library)
    chosen = []
    for name in (part.strip() for part in requested.split(",")):
        if name not in available:
            raise UsageError(
                f"unknown quantity {name!r}; valid: {', '.join(sorted(available))}"
            )
        if available[name] in chosen:
            raise UsageError(f"quantity {name!r} is named twice")
        chosen.append(available[name])
    return chosen


def cmd_run(args: argparse.Namespace) -> int:
    settings = _merge_config(args)
    for key in ("sims", "draws", "step", "thin"):
        if settings.get(key) is not None and settings[key] < 1:
            raise UsageError(f"--{key} must be at least 1, got {settings[key]}")
    if not 0 <= settings["seed"] <= MAX_SEED:
        raise UsageError(f"--seed must be from 0 to {MAX_SEED}, got {settings['seed']}")
    model = settings["model"]
    generator, family, library, default_thin = _build(model, settings["variant"], settings["n"])
    thin = settings.get("thin", default_thin)
    quantities = _select_quantities(settings["quantities"], library)
    out_dir = Path(settings["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    S, M, seed = settings["sims"], settings["draws"], settings["seed"]
    run = run_sbc(generator, family, quantities, S=S, M=M, seed=seed, thin_stride=thin)
    # the report keeps a quantity that failed in some simulations, but the
    # evolution trace needs the same prefixes for every quantity
    names = run.quantity_names()
    complete = [q for q in names if run.ranked(q).all()]
    # traced first: its one pass down the calibration draw fills the null of
    # every prefix and ends on the (S, M) table, which the report reuses
    traces = evolution_table({q: run.ranks(q) for q in complete}, M, step=settings["step"])

    write_ranks_csv(run, out_dir / "ranks.csv")
    metadata = {
        "model": model,
        "variant": settings["variant"],
        "n": settings["n"] if model == "gaussian" else None,
        "S_requested": S,
        "M": M,
        "seed": seed,
        "thin_stride": thin,
    }
    report = build_report(run, metadata=metadata)
    write_report_json(report, out_dir / "report.json")

    for name in dict.fromkeys(q for _, q, _ in run.quantity_errors):
        messages = [m for _, q, m in run.quantity_errors if q == name]
        warning = f"quantity {name} failed in {len(messages)} simulations; first: {messages[0]}"
        print(f"warning: {warning}", file=sys.stderr)
    failed_in: dict[str, list[int]] = {}
    for index, message in run.failures:
        failed_in.setdefault(message, []).append(index)
    for message, indices in failed_in.items():
        warning = f"{len(indices)} simulations failed (first: simulation {indices[0]}): {message}"
        print(f"warning: {warning}", file=sys.stderr)
    write_evolution_csv(traces, out_dir / "evolution.csv")
    if not names:
        print("error: no quantity was ranked in any simulation", file=sys.stderr)
        return 1

    stamp = not bool(settings.get("no_timestamp"))
    if traces:
        svg_evolution(traces, out_dir / "evolution.svg", title=f"{model}/{settings['variant']}", timestamp=stamp)
    else:
        warning = "no quantity was ranked in every simulation; evolution.svg not written"
        print(f"warning: {warning}", file=sys.stderr)
    band = None
    for name in names:
        rank_set = RankSet.from_run(run, name)
        if band is None or band.S != rank_set.S:
            band = ecdf_band(rank_set.S, M)
        svg_rank_histogram(rank_set, out_dir / f"hist_{name}.svg", quantity=name, timestamp=stamp)
        svg_ecdf_difference(
            rank_set, band, out_dir / f"ecdf_{name}.svg", quantity=name, timestamp=stamp
        )

    all_pass = all(entry["pass_5pct"] for entry in report["quantities"])
    failed = [e["quantity"] for e in report["quantities"] if not e["pass_5pct"]]
    print(f"{model}/{settings['variant']}: S={S} M={M} seed={seed} failures={run.n_failed}")
    for entry in report["quantities"]:
        verdict = "pass" if entry["pass_5pct"] else "FAIL"
        print(f"  {entry['quantity']:<18} log_ratio={entry['log_ratio']:+.3f}  {verdict}")
    if failed:
        print(f"uniformity rejected at 5% for: {', '.join(failed)}")
    return 0 if all_pass else 2


def cmd_scan_discrete(args: argparse.Namespace) -> int:
    if args.resolution < 100:
        raise UsageError(f"--resolution must be at least 100, got {args.resolution}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    passing, values, residuals = bernoulli.discrete_sbc_scan(grid_resolution=args.resolution)
    with open(out_dir / "scan.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("a,b,residual\n")
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                fh.write(f"{float(a)!r},{float(b)!r},{float(residuals[i, j])!r}\n")
    print(f"grid {len(values)}x{len(values)}, passing points: {len(passing)}")
    for a, b in passing:
        print(f"  a={a:.6f} b={b:.6f}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    for model in sorted(MODELS):
        spec = MODELS[model]
        reference = spec.family(spec.variants[0], _RUN_DEFAULTS["n"])
        names = (q.name for q in spec.quantities(reference, _RUN_DEFAULTS["n"]))
        print(model)
        print(f"  variants: {', '.join(sorted(spec.variants))}")
        print(f"  quantities: {', '.join(sorted(names))}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="sbc-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one SBC experiment")
    run_p.add_argument("--model", choices=sorted(MODELS))
    run_p.add_argument("--variant")
    run_p.add_argument("--n", type=int, help="gaussian data points per simulation")
    run_p.add_argument("--sims", type=int, help="number of simulations S")
    run_p.add_argument("--draws", type=int, help="posterior draws per simulation M")
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--thin", type=int, help="thinning stride for correlated samplers")
    run_p.add_argument("--quantities", help='comma-separated names or "default"')
    run_p.add_argument("--step", type=int, help="evolution trace step")
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--config", help="flat JSON config file; flags override")
    run_p.add_argument("--no-timestamp", dest="no_timestamp", action="store_true", default=None)
    run_p.set_defaults(func=cmd_run)

    scan_p = sub.add_parser("scan-discrete", help="scan the two-point model for SBC solutions")
    scan_p.add_argument("--resolution", type=int, default=200)
    scan_p.add_argument("--out", default="sbc-out")
    scan_p.set_defaults(func=cmd_scan_discrete)

    list_p = sub.add_parser("list", help="list models, variants, and quantities")
    list_p.set_defaults(func=cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, _ModelNameError):
            print("valid models: " + ", ".join(sorted(MODELS)), file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

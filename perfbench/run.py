"""The sbc-lab benchmark: three workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout (the directory holding ``src/sbc_lab``):

    python3 perfbench/run.py --workload gauss-cli-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics, with every time paced to the machine's speed (see pace.py);
``--trace 1`` runs it untraced, traced and untraced again and prints the
per-layer metrics of the traced repeat (see tracer.py). The last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the machine and
configuration. Every output of every timed or traced run is checked
(``check_output``); a failed check counts as a failed operation and makes
``correct`` false. Why each workload exists, and what each layer metric
should move, is in PREDICTIONS.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import more_reps

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT_NAME = ".perfbench_out"
SETUP_PROBES = 3
RUN_BUDGET_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# name: (model for the set-up probe, S, S under --tiny, sbc-lab argv or None)
# None marks the in-process warm loop of worker.py.
WORKLOADS = {
    "gauss-cli-cold": (
        "gaussian", 1000, 40,
        ["run", "--model", "gaussian", "--variant", "correct", "--sims", "{S}", "--draws", "100"],
    ),
    "gauss-seeds-warm": ("gaussian", 1000, 40, None),
    "simplex-rwm": (
        "simplex", 512, 8,
        ["run", "--model", "simplex", "--variant", "min", "--sims", "{S}", "--draws", "100",
         "--thin", "20", "--step", "{S}"],
    ),
}


class Deadline:
    """Timeouts for child processes so that one run ends within its budget."""

    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        return max(1.0, self.end - perf_counter())


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    # The workloads are defined with no sampler thread count set (one thread).
    env.pop("SBC_LAB_THREADS", None)
    return env


def worker_json(cmd: list[str], env: dict, deadline: Deadline, log: Path) -> dict:
    """Run one worker.py mode in a fresh interpreter; return its last stdout line as JSON."""
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.run([sys.executable, str(WORKER), *cmd], env=env, stdout=subprocess.PIPE,
                              stderr=fh, text=True, timeout=deadline.left())
    if proc.returncode != 0:
        raise RuntimeError(f"worker {cmd[0]} exited with {proc.returncode}; see {log}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_output(out_dir: Path) -> tuple[list[str], dict | None]:
    """Problems with one run's outputs, and its report.

    Each ``gamma`` in report.json must equal ``log_gamma_statistic``
    recomputed from ``read_ranks_csv(ranks.csv)`` to 1e-9 relative. No
    report bytes are compared against a stored file.
    """
    from sbc_lab.diagnostics import RankSet, log_gamma_statistic
    from sbc_lab.reports import read_ranks_csv

    try:
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        ranks, max_rank = read_ranks_csv(out_dir / "ranks.csv")
    except (OSError, ValueError) as exc:
        return [f"{out_dir.name}: unreadable output: {exc}"], None
    problems = []
    if not report.get("quantities"):
        problems.append(f"{out_dir.name}: report lists no quantities")
    for entry in report.get("quantities", []):
        name = entry["quantity"]
        if name not in ranks:
            problems.append(f"{out_dir.name}: {name} missing from ranks.csv")
            continue
        expected = math.exp(log_gamma_statistic(RankSet(ranks[name], max_rank)))
        if not math.isclose(entry["gamma"], expected, rel_tol=1e-9, abs_tol=0.0):
            problems.append(f"{out_dir.name}: {name} gamma {entry['gamma']!r} != {expected!r}")
    return problems, report


def check_runs(runs: list[dict]) -> tuple[list[str], int, int, int]:
    """Check every run; return problems, checks made, sims attempted, failed operations.

    A run is ``{"dir", "key", "S"}`` plus optional ``exit_code`` and
    ``must_reject``. Runs sharing a key (same seed and configuration) must
    write byte-identical ranks.csv files.
    """
    problems: list[str] = []
    checks = attempted = failed = 0
    digests: dict[str, set[str]] = {}
    for run in runs:
        out_dir = Path(run["dir"])
        attempted += run["S"]
        found = []
        if "exit_code" in run:
            checks += 1
            if run["exit_code"] not in (0, 2):
                found.append(f"{out_dir.name}: exit code {run['exit_code']}")
        checks += 1
        run_problems, report = check_output(out_dir)
        found += run_problems
        if report is not None:
            failed += int(report.get("failures", 0)) + int(report.get("quantity_errors", 0))
            digests.setdefault(run["key"], set()).add(sha256(out_dir / "ranks.csv"))
            if run.get("must_reject"):
                checks += 1
                if all(e["pass_5pct"] for e in report["quantities"]):
                    found.append(f"{out_dir.name}: prior-only rejected no quantity")
        failed += bool(found)
        problems += found
    for key, seen in digests.items():
        checks += 1
        if len(seen) != 1:
            problems.append(f"ranks.csv differs between repeats of {key}")
            failed += 1
    return problems, checks, attempted, failed


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_config(root: Path, args, env: dict) -> dict:
    def version(pkg: str) -> str | None:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "sbc_lab_threads_env": os.environ.get("SBC_LAB_THREADS"),
        "sbc_lab_threads_effective": int(env.get("SBC_LAB_THREADS") or 1),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "git_commit": git_commit(root),
    }


def cli_argv(template: list[str], S: int, seed: int, out_dir: Path) -> list[str]:
    return [a.replace("{S}", str(S)) for a in template] + ["--seed", str(seed), "--out", str(out_dir)]


def warm_runs(outputs: list[dict]) -> list[dict]:
    return [{**o, "must_reject": o["variant"] == "prior-only"} for o in outputs]


def timed_run(name: str, args, out: Path, env: dict, deadline: Deadline) -> dict:
    """Tracing off: set-up probes, then repeats of the workload for ``--seconds``.

    Each probe and each repeat is one unit timed in its worker with the
    pacing kernel ticking inside it (pace.py); the time metrics are medians
    of the paced unit times.
    """
    model, S, tiny_S, template = WORKLOADS[name]
    S = tiny_S if args.tiny else S
    setup = [worker_json(["setup", "--model", model], env, deadline, out / f"setup{i}.log")
             for i in range(SETUP_PROBES)]
    if template is None:
        got = worker_json(["warm", "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--sims", str(S), "--out", str(out)], env, deadline, out / "warm.log")
        units = got["units"]
        sims_per_rep = S * len(got["outputs"]) / len(units)
        runs = warm_runs(got["outputs"])
    else:
        units, runs = [], []
        start = perf_counter()
        while more_reps(len(units), perf_counter() - start, args.seconds):
            rep_dir = out / f"rep{len(units)}"
            unit = worker_json(["cli", "--pace", "--", *cli_argv(template, S, args.seed, rep_dir)],
                               env, deadline, out / f"rep{len(units)}.log")
            units.append(unit)
            runs.append({"dir": str(rep_dir), "key": str(args.seed), "S": S,
                         "exit_code": unit["exit_code"]})
        sims_per_rep = S
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    problems, checks, attempted, failed = check_runs(runs)
    wall_s = statistics.median(u["paced"] for u in units)
    metrics = {
        "sims_per_s": (sims_per_rep / wall_s, "1/s"),
        "wall_s": (wall_s, "s"),
        "setup_s": (statistics.median(u["paced"] for u in setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    detail = {
        "unpaced": {"wall_s": statistics.median(u["work"] for u in units),
                    "setup_s": statistics.median(u["work"] for u in setup)},
        "units": units,
        "setup_units": setup,
    }
    return _result(problems, checks, attempted, failed, metrics, detail)


def traced_run(name: str, args, out: Path, env: dict, deadline: Deadline) -> dict:
    """Untraced, traced and untraced repeats; per-layer metrics from the traced one."""
    _, S, tiny_S, template = WORKLOADS[name]
    S = tiny_S if args.tiny else S
    if template is None:
        got = worker_json(["warm", "--trace", "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--sims", str(S), "--out", str(out)], env, deadline, out / "warm.log")
        untraced_wall = got["untraced_wall_s"]
        runs = warm_runs(got["outputs"])
    else:
        # Untraced, traced, untraced: the mean of the untraced pair cancels a
        # steady drift in machine speed.
        runs, results = [], {}
        for tag in ("untraced-before", "traced", "untraced-after"):
            run_dir = out / tag
            flags = ["--trace"] if tag == "traced" else []
            results[tag] = worker_json(
                ["cli", *flags, "--", *cli_argv(template, S, args.seed, run_dir)],
                env, deadline, out / f"{tag}.log",
            )
            runs.append({"dir": str(run_dir), "key": str(args.seed), "S": S,
                         "exit_code": results[tag]["exit_code"]})
        got = results["traced"]
        untraced = (results["untraced-before"], results["untraced-after"])
        untraced_wall = (untraced[0]["wall_s"] + untraced[1]["wall_s"]) / 2
    problems, checks, attempted, failed = check_runs(runs)
    wall = got["traced_wall_s"]
    overhead = wall - untraced_wall
    checks += 1
    if abs(wall - got["self_sum_s"]) > max(abs(overhead), 1e-3):
        problems.append(f"self times sum to {got['self_sum_s']!r} s, traced wall is {wall!r} s")
        failed += 1
    metrics = {k: (v["value"], v["unit"]) for k, v in got["metrics"].items()}
    metrics.update({
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.spans": (got["spans"], "count"),
    })
    detail = {"self_sum_s": got["self_sum_s"], "missing_targets": got["missing"]}
    return _result(problems, checks, attempted, failed, metrics, detail)


def _result(problems, checks, attempted, failed, metrics, detail) -> dict:
    return {
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        },
        "problems": problems,
        "checks": checks,
        **detail,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="tiny S, for selfcheck.py")
    args = parser.parse_args(argv)

    deadline = Deadline(RUN_BUDGET_S)
    root = Path.cwd()
    package = root / "src" / "sbc_lab" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from the root of an sbc-lab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import sbc_lab

    if Path(sbc_lab.__file__).resolve() != package.resolve():
        print(f"error: sbc_lab imported from {sbc_lab.__file__}, not {package}", file=sys.stderr)
        return 2

    out = root / OUT_NAME / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env(root)
    run = traced_run if args.trace else timed_run
    record = run(args.workload, args, out, env, deadline)
    record["config"] = machine_config(root, args, env)
    (out / f"record-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("config " + json.dumps(record["config"], sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Quick self-check of the benchmark at tiny S (about two minutes).

    python3 perfbench/selfcheck.py      # from the root of an sbc-lab checkout

For each workload it runs ``run.py --tiny`` with tracing off and on, and
asserts that the last line is the result object with exactly the contract's
keys, that every metric BENCHMARK.json names for that mode is printed with
its unit, and that the run is correct with its correctness checks made. It
then shows that a check bites (a tampered report.json is caught) and that the
benchmark refuses to run in a directory that lacks the program. Exits 0 when
everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench_out" / "selfcheck"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def check_workload(name: str, spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench("--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
        assert proc.returncode == 0, f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True and result["failed"] == 0, (name, trace, proc.stderr)
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[key]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == expected, f"{name} trace={trace}: {printed} != {expected}"
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        record = json.loads(
            (ROOT / ".perfbench_out" / name / f"record-seed3-trace{trace}.json").read_text()
        )
        assert record["checks"] >= 3 and not record["problems"], record["problems"]
        if trace == 0:
            units = record["units"] + record["setup_units"]
            assert all(u["ticks"] >= 1 and u["paced"] > 0 for u in units), "every timed unit is paced"
        print(f"ok  {name:17s} trace={trace}  metrics={len(printed)}  checks={record['checks']}")


def check_tamper_is_caught() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from run import check_output

    source = ROOT / ".perfbench_out" / "gauss-cli-cold" / "traced"
    tampered = SCRATCH / "tampered"
    shutil.copytree(source, tampered)
    report_path = tampered / "report.json"
    report = json.loads(report_path.read_text())
    assert not check_output(tampered)[0], "untampered copy must pass"
    report["quantities"][0]["gamma"] *= 1.0 + 1e-6
    report_path.write_text(json.dumps(report))
    problems, _ = check_output(tampered)
    assert problems, "a gamma off by 1e-6 relative must fail the check"
    print(f"ok  tampered report caught: {problems[0]}")


def check_refuses_without_program() -> None:
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "gauss-cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0, "must fail where the program is missing"
    assert '"correct"' not in proc.stdout, "must print no result where the program is missing"
    print(f"ok  refuses without the program (exit {proc.returncode})")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    for workload in spec["workloads"]:
        check_workload(workload["name"], spec)
    check_tamper_is_caught()
    check_refuses_without_program()
    shutil.rmtree(SCRATCH)
    return 0


if __name__ == "__main__":
    sys.exit(main())

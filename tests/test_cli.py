import ast
import csv
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sbc_lab
from sbc_lab import cli
from sbc_lab.cli import main
from sbc_lab.core import SamplerError, run_sbc
from sbc_lab.core import TestQuantity as Quantity
from sbc_lab.diagnostics import (
    RankSet,
    chi_square_uniformity,
    default_chi2_bins,
    ecdf_band,
    gamma_result,
)
from sbc_lab.models import gaussian
from sbc_lab.reports import build_report, read_ranks_csv


def run_cli(*argv):
    return main(list(argv))


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


BASE = [
    "run",
    "--model",
    "gaussian",
    "--variant",
    "correct",
    "--sims",
    "120",
    "--draws",
    "50",
    "--seed",
    "7",
    "--step",
    "40",
]


class TestRunOutputs:
    def test_reruns_are_byte_identical_with_timestamp_disabled(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli(*BASE, "--out", str(a), "--no-timestamp") in (0, 2)
        assert run_cli(*BASE, "--out", str(b), "--no-timestamp") in (0, 2)
        for name in ("ranks.csv", "report.json", "evolution.csv", "evolution.svg", "hist_mu[1].svg"):
            assert read(a / name) == read(b / name), name

    def test_timestamp_is_the_only_svg_difference(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(*BASE, "--out", str(a))
        run_cli(*BASE, "--out", str(b))
        assert read(a / "ranks.csv") == read(b / "ranks.csv")
        assert read(a / "report.json") == read(b / "report.json")
        strip = lambda text: re.sub(r"<!-- generated [^>]* -->", "", text)
        assert strip(read(a / "evolution.svg")) == strip(read(b / "evolution.svg"))

    def test_report_numbers_recomputable_from_rank_csv(self, tmp_path):
        out = tmp_path / "out"
        run_cli(*BASE, "--out", str(out), "--no-timestamp")
        report = json.loads(read(out / "report.json"))
        ranks, max_rank = read_ranks_csv(out / "ranks.csv")
        for entry in report["quantities"]:
            rank_set = RankSet(ranks[entry["quantity"]], max_rank)
            res = gamma_result(rank_set, quantity=entry["quantity"])
            chi2 = chi_square_uniformity(
                rank_set, default_chi2_bins(rank_set.S, rank_set.max_rank)
            )
            assert entry["S"] == rank_set.S
            assert entry["gamma"] == res.gamma
            assert entry["gamma_bar"] == res.gamma_bar
            assert entry["log_ratio"] == res.log_ratio
            assert entry["chi2_p"] == chi2.p_value
            assert entry["pass_5pct"] == (res.log_ratio >= 0.0)

    def test_report_takes_one_chi2_bin_per_rank_from_five_simulations_a_bin(self):
        # from S = 5(M+1) on, every rank value is its own chi-square cell
        M = 9
        assert default_chi2_bins(5 * (M + 1), M) == M + 1
        assert default_chi2_bins(5 * (M + 1) - 1, M) == M
        family = gaussian.make_variant("correct", 3)
        quantities = gaussian.quantity_library(3, family)
        run = run_sbc(gaussian.GaussianGenerator(3), family, quantities, S=5 * (M + 1), M=M, seed=7)
        coarser = 0
        for entry in build_report(run)["quantities"]:
            rank_set = RankSet.from_run(run, entry["quantity"])
            assert rank_set.S == 5 * (M + 1)
            assert entry["chi2_p"] == chi_square_uniformity(rank_set, n_bins=M + 1).p_value
            coarser += entry["chi2_p"] != chi_square_uniformity(rank_set, n_bins=M).p_value
        assert coarser > 0

    @pytest.mark.parametrize("variant", ["correct", "prior-only"])
    def test_report_and_trace_read_one_threshold(self, variant, tmp_path):
        # the verdict, the last prefix of the trace and the band all compare
        # against the one 5% threshold of the cached null
        out = tmp_path / "out"
        argv = list(BASE)
        argv[argv.index("--variant") + 1] = variant
        run_cli(*argv, "--out", str(out), "--no-timestamp")
        report = json.loads(read(out / "report.json"))
        with open(out / "evolution.csv", encoding="utf-8", newline="") as fh:
            last = {row["quantity"]: row for row in csv.DictReader(fh)}
        ranked_in_all = report["S_requested"] - report["failures"]
        complete = [e for e in report["quantities"] if e["S"] == ranked_in_all]
        assert last and [e["quantity"] for e in complete] == list(last)
        for entry in complete:
            assert last[entry["quantity"]]["n_sims"] == str(entry["S"])
            assert last[entry["quantity"]]["log_ratio"] == repr(entry["log_ratio"])
        for entry in report["quantities"]:
            assert entry["gamma_bar"] == ecdf_band(entry["S"], entry["M"]).pointwise_level

    def test_svg_desc_values_match_rank_csv(self, tmp_path):
        out = tmp_path / "out"
        run_cli(*BASE, "--out", str(out), "--no-timestamp")
        ranks, max_rank = read_ranks_csv(out / "ranks.csv")
        svg = read(out / "hist_mu[1].svg")
        counts = re.search(r"counts=([\d. ]+) band_lo", svg).group(1).split()
        edges = re.search(r"edges=([\d. ]+) counts", svg).group(1).split()
        edges = np.asarray([float(v) for v in edges], dtype=int)
        observed = np.add.reduceat(np.bincount(ranks["mu[1]"], minlength=max_rank + 1), edges[:-1])
        np.testing.assert_array_equal(observed, [int(float(c)) for c in counts])

    def test_evolution_csv_schema(self, tmp_path):
        out = tmp_path / "out"
        run_cli(*BASE, "--out", str(out), "--no-timestamp")
        lines = read(out / "evolution.csv").splitlines()
        assert lines[0] == "n_sims,quantity,log_ratio"
        last = lines[-1].split(",")
        assert last[0] == "120"

    def test_quantity_subset(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(*BASE, "--quantities", "mu[1],sum", "--out", str(out), "--no-timestamp")
        assert code in (0, 2)
        report = json.loads(read(out / "report.json"))
        assert [e["quantity"] for e in report["quantities"]] == ["mu[1]", "sum"]


class TestExitCodes:
    def test_correct_posterior_passes(self, tmp_path):
        code = run_cli(
            "run", "--model", "gaussian", "--variant", "correct",
            "--sims", "150", "--draws", "50", "--seed", "1", "--step", "50",
            "--out", str(tmp_path / "ok"), "--no-timestamp",
        )
        assert code == 0

    def test_prior_only_fails_on_likelihood(self, tmp_path):
        out = tmp_path / "bad"
        code = run_cli(
            "run", "--model", "gaussian", "--variant", "prior-only",
            "--sims", "100", "--draws", "50", "--seed", "7", "--step", "25",
            "--out", str(out), "--no-timestamp",
        )
        assert code == 2
        report = json.loads(read(out / "report.json"))
        entry = {e["quantity"]: e for e in report["quantities"]}["mvn_log_lik"]
        assert entry["log_ratio"] < 0.0

    def test_quantity_failing_in_some_simulations(self, tmp_path, monkeypatch, capsys):
        def flaky(draws, ys):
            if any(y[0, 0] >= 1.0 for y in ys):
                raise ValueError("no value for this dataset")
            return draws[..., 0]

        spec = cli.MODELS["gaussian"]
        with_flaky = lambda family, n: [*spec.quantities(family, n), Quantity("flaky", flaky)]
        monkeypatch.setitem(cli.MODELS, "gaussian-flaky", dataclasses.replace(spec, quantities=with_flaky))
        out = tmp_path / "out"
        argv = ["--model", "gaussian-flaky", "--out", str(out), "--no-timestamp"]
        assert run_cli(*BASE, *argv) in (0, 2)
        ranks, max_rank = read_ranks_csv(out / "ranks.csv")
        n_errors = 120 - ranks["flaky"].size
        assert 0 < n_errors < 120 and ranks["mu[1]"].size == 120
        err = capsys.readouterr().err
        assert err == (
            f"warning: quantity flaky failed in {n_errors} simulations; "
            "first: ValueError: no value for this dataset\n"
        )
        report = json.loads(read(out / "report.json"))
        assert report["quantity_errors"] == n_errors
        entry = next(e for e in report["quantities"] if e["quantity"] == "flaky")
        res = gamma_result(RankSet(ranks["flaky"], max_rank), quantity="flaky")
        assert (entry["S"], entry["gamma"]) == (120 - n_errors, res.gamma)
        traced = {row.split(",")[1] for row in read(out / "evolution.csv").splitlines()[1:]}
        assert traced == set(ranks) - {"flaky"}
        assert (out / "hist_flaky.svg").exists()

    def test_nan_draws_cost_their_simulations(self, tmp_path, monkeypatch, capsys):
        def nan_family(variant, n):
            family = gaussian.make_variant(variant, n)

            class NanDraws:
                name = family.name

                def sample_batch(self, ys, M, streams, thin=1):
                    out = family.sample_batch(ys, M, streams, thin)
                    for y, draws in zip(ys, out):
                        if y[0, 0] > 2.0 or always_nan:
                            draws[0, :] = np.nan
                    return out

            return NanDraws()

        spec = cli.MODELS["gaussian"]
        monkeypatch.setitem(cli.MODELS, "gaussian-nan", dataclasses.replace(spec, family=nan_family))
        argv = [*BASE, "--model", "gaussian-nan", "--sims", "200", "--no-timestamp"]
        always_nan = False
        out = tmp_path / "some"
        assert run_cli(*argv, "--out", str(out)) == 0
        report = json.loads(read(out / "report.json"))
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"warning: {report['failures']} simulations failed \(first: simulation \d+\): "
            r"SamplerError: family returned NaN in 1 of 50 draws\n",
            err,
        ), err
        ranks, _ = read_ranks_csv(out / "ranks.csv")
        assert 0 < report["failures"] < 200 and report["quantity_errors"] == 0
        assert all(r.size == 200 - report["failures"] for r in ranks.values())
        assert (out / "evolution.svg").exists()

        always_nan = True
        out = tmp_path / "all"
        assert run_cli(*argv, "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "warning: 200 simulations failed (first: simulation 0): "
            "SamplerError: family returned NaN in 1 of 50 draws\n"
            "error: no quantity was ranked in any simulation\n"
        )
        assert json.loads(read(out / "report.json"))["failures"] == 200
        assert not (out / "evolution.svg").exists()

    def test_failed_simulations_are_reported_by_message(self, tmp_path, monkeypatch, capsys):
        def failing_family(variant, n):
            family = gaussian.make_variant(variant, n)

            class Failing:
                name = family.name

                def sample_batch(self, ys, M, streams, thin=1):
                    if any(y[0, 0] > 1.0 for y in ys):
                        raise SamplerError("too high")
                    if any(y[0, 0] < -1.0 for y in ys):
                        raise FloatingPointError("too low")
                    return family.sample_batch(ys, M, streams, thin)

            return Failing()

        runs = []

        def keep_run(*args, **kwargs):
            runs.append(run_sbc(*args, **kwargs))
            return runs[-1]

        spec = cli.MODELS["gaussian"]
        failing = dataclasses.replace(spec, family=failing_family)
        monkeypatch.setitem(cli.MODELS, "gaussian-failing", failing)
        monkeypatch.setattr(cli, "run_sbc", keep_run)
        out = tmp_path / "out"
        argv = ["--model", "gaussian-failing", "--out", str(out), "--no-timestamp"]
        assert run_cli(*BASE, *argv) in (0, 2)
        [run] = runs
        ranked = {int(line.split(",")[0]) for line in read(out / "ranks.csv").splitlines()[1:]}
        assert sorted(i for i, _ in run.failures) == sorted(set(range(120)) - ranked)
        high = [i for i, m in run.failures if m == "SamplerError: too high"]
        low = [i for i, m in run.failures if m == "FloatingPointError: too low"]
        assert high and low and len(high) + len(low) == len(run.failures)
        lines = [
            f"warning: {len(high)} simulations failed (first: simulation {high[0]}): "
            "SamplerError: too high",
            f"warning: {len(low)} simulations failed (first: simulation {low[0]}): "
            "FloatingPointError: too low",
        ]
        # one line per message, in the order of their first failures
        assert capsys.readouterr().err.splitlines() == (lines if high[0] < low[0] else lines[::-1])
        assert json.loads(read(out / "report.json"))["failures"] == len(run.failures)

    def test_no_complete_quantity_skips_the_evolution_figure(self, tmp_path, monkeypatch, capsys):
        def low(draws, ys):
            return draws[..., 0] + np.array([np.nan if y[0, 0] < -1.0 else 0.0 for y in ys])[:, None]

        def high(draws, ys):
            if any(y[0, 0] > 1.0 for y in ys):
                raise ValueError("too high")
            return draws[..., 1]

        spec = cli.MODELS["gaussian"]
        two = lambda family, n: [Quantity("low", low), Quantity("high", high)]
        monkeypatch.setitem(cli.MODELS, "gaussian-two", dataclasses.replace(spec, quantities=two))
        out = tmp_path / "out"
        assert run_cli(*BASE, "--model", "gaussian-two", "--out", str(out), "--no-timestamp") in (0, 2)
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "warning: no quantity was ranked in every simulation; evolution.svg not written"
        assert [e["quantity"] for e in json.loads(read(out / "report.json"))["quantities"]] == ["low", "high"]
        assert read(out / "evolution.csv") == "n_sims,quantity,log_ratio\n"
        assert not (out / "evolution.svg").exists()
        assert (out / "hist_low.svg").exists() and (out / "ecdf_high.svg").exists()

    def test_unknown_model_is_usage_error(self, capsys):
        assert run_cli("run", "--model", "nosuch") == 1
        assert "valid models" in capsys.readouterr().err

    def test_model_list_only_for_model_mistakes(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": "nosuch"}))
        for argv, listed in (
            (["run", "--model", "gaussian", "--sims", "0"], False),
            (["run", "--model", "gaussian", "--variant", "bogus"], False),
            (["run", "--model", "gaussian", "--sims", "abc"], False),
            (["run"], True),
            (["run", "--config", str(config)], True),
        ):
            assert run_cli(*argv, "--out", str(tmp_path / "out")) == 1
            assert ("valid models" in capsys.readouterr().err) == listed, argv

    @pytest.mark.parametrize("flag", ["--sims", "--draws", "--step", "--thin"])
    def test_counts_below_one_rejected_before_running(self, flag, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--model", "gaussian", "--sims", "20", "--draws", "5", "--step", "5", "--thin", "1"]
        argv[argv.index(flag) + 1] = "0"
        assert run_cli(*argv, "--out", str(out)) == 1
        assert f"error: {flag} must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    def test_seed_outside_64_bits_rejected_before_running(self, seed, tmp_path, capsys):
        # -1 and 2^64 + 1 used to run seeds 2^64 - 1 and 1 under another name
        out = tmp_path / "out"
        argv = ["run", "--model", "gaussian", "--sims", "20", "--draws", "5", "--out", str(out)]
        assert run_cli(*argv, "--seed", str(seed)) == 1
        want = f"error: --seed must be from 0 to {2**64 - 1}, got {seed}"
        assert want in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "gaussian", "seed": seed, "out": str(out)}))
        assert run_cli("run", "--config", str(cfg)) == 1
        assert want in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seeds_at_both_ends_run(self, seed, tmp_path):
        out = tmp_path / "out"
        argv = ["--sims", "30", "--draws", "9", "--step", "10", "--seed", str(seed)]
        assert run_cli(*BASE, *argv, "--out", str(out), "--no-timestamp") in (0, 2)
        assert json.loads(read(out / "report.json"))["seed"] == seed

    def test_variant_defaults_to_the_models_first(self, tmp_path):
        # the simplex model has no "correct" variant; its reference is "min"
        out = tmp_path / "out"
        argv = ["run", "--model", "simplex", "--sims", "12", "--draws", "10", "--step", "6"]
        assert run_cli(*argv, "--out", str(out), "--no-timestamp") == 0
        assert json.loads(read(out / "report.json"))["variant"] == "min"

    def test_unknown_variant_and_quantity(self, tmp_path):
        assert run_cli("run", "--model", "gaussian", "--variant", "bogus") == 1
        assert (
            run_cli(*BASE, "--quantities", "nope", "--out", str(tmp_path / "x")) == 1
        )

    def test_quantity_named_twice_rejected_before_running(self, tmp_path, capsys):
        # a repeated name would write its ranks twice, and ranks.csv would read
        # back as one quantity with 2 S ranks
        out = tmp_path / "out"
        assert run_cli(*BASE, "--quantities", "mu[1], sum,mu[1]", "--out", str(out)) == 1
        assert "error: quantity 'mu[1]' is named twice" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "gaussian", "quantities": "sum,sum", "out": str(out)}))
        assert run_cli("run", "--config", str(cfg)) == 1
        assert "error: quantity 'sum' is named twice" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": "gaussian",
                    "variant": "correct",
                    "sims": 80,
                    "draws": 30,
                    "seed": 3,
                    "step": 40,
                    "no_timestamp": True,
                    "out": str(tmp_path / "from-config"),
                }
            )
        )
        code = run_cli("run", "--config", str(cfg), "--seed", "5")
        assert code in (0, 2)
        report = json.loads(read(tmp_path / "from-config" / "report.json"))
        assert report["seed"] == 5  # flag wins
        assert report["S_requested"] == 80

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "gaussian", "simulations": 10}))
        assert run_cli("run", "--config", str(cfg)) == 1


    @pytest.mark.parametrize(
        "key,value,want",
        [
            ("sims", 20.9, "an integer"),
            ("sims", True, "an integer"),
            ("n", 3.0, "an integer"),
            ("draws", "5", "an integer"),
            ("seed", None, "an integer"),
            ("thin", 1.5, "an integer"),
            ("step", False, "an integer"),
            ("model", ["gaussian"], "a string"),
            ("variant", 1, "a string"),
            ("quantities", ["mu[1]"], "a string"),
            ("out", 7, "a string"),
            ("no_timestamp", 1, "true or false"),
        ],
    )
    def test_value_of_the_wrong_type_rejected_before_running(
        self, key, value, want, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)  # so that a relative "out" would land here
        cfg = tmp_path / "cfg.json"
        config = {"model": "gaussian", "sims": 20, "draws": 5, "out": "out", key: value}
        cfg.write_text(json.dumps(config))
        assert run_cli("run", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert f"error: config key {key!r} must be {want}, got {json.dumps(value)}" in err
        assert "valid models" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_config_must_be_an_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([["model", "gaussian"]]))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out")) == 1
        assert "error: the config file must hold one JSON object" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_flags_are_the_config_keys(self, tmp_path, capsys):
        # every flag of `run --help` but --help and --config is a config key,
        # "_" for "-", and the config file takes each of those keys
        with pytest.raises(SystemExit) as exited:
            run_cli("run", "--help")
        assert exited.value.code == 0
        flags = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE))
        keys = {flag[2:].replace("-", "_") for flag in flags - {"--config"}}
        assert "--config" in flags and keys == set(cli._RUN_SETTINGS)
        cfg = tmp_path / "cfg.json"
        for key in sorted(keys):
            cfg.write_text(json.dumps({"model": "gaussian", key: []}))
            assert run_cli("run", "--config", str(cfg)) == 1
            assert f"error: config key {key!r} must be " in capsys.readouterr().err

def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second to import, more than a default
    # Gaussian run; the package needs only scipy.special
    code = "import sys, sbc_lab, sbc_lab.cli; sys.exit('scipy.stats' in sys.modules)"
    src = str(Path(sbc_lab.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "scipy.stats was imported"
    # nor does any module import it inside a function, where only a call would load it
    for path in sorted(Path(sbc_lab.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not any(re.match(r"scipy\.stats\b", name) for name in names), path.name


class TestOtherCommands:
    def test_list_is_stable_and_sorted(self, capsys):
        assert run_cli("list") == 0
        out = capsys.readouterr().out
        assert out.index("bernoulli") < out.index("gaussian") < out.index("simplex")
        assert "correct, phi-A, phi-B, phi-C" in out
        assert "gamma, min, softmax-bad, softmax-fixed" in out

    def test_scan_resolution_below_100_rejected_before_running(self, tmp_path, capsys):
        out = tmp_path / "scan"
        assert run_cli("scan-discrete", "--resolution", "50", "--out", str(out)) == 1
        assert "error: --resolution must be at least 100, got 50" in capsys.readouterr().err
        assert not out.exists()

    def test_scan_discrete(self, tmp_path, capsys):
        out = tmp_path / "scan"
        assert run_cli("scan-discrete", "--resolution", "120", "--out", str(out)) == 0
        text = capsys.readouterr().out
        assert "passing points: 2" in text
        lines = read(out / "scan.csv").splitlines()
        assert lines[0] == "a,b,residual"
        assert len(lines) == 1 + 121 * 121
        assert all(np.isfinite(float(v)) for v in lines[1].split(","))

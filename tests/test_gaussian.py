import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtr, ndtri

from sbc_lab import core
from sbc_lab.cli import main
from sbc_lab.core import run_sbc
from sbc_lab.diagnostics import RankSet, chi_square_uniformity, evolution_table
from sbc_lab.models import gaussian
from sbc_lab.rng import stream


class TestGenerator:
    def test_prior_moments(self):
        gen = gaussian.GaussianGenerator(n=3)
        rng = stream(1, 0)
        mus = np.array([gen.generate(rng)[0] for _ in range(100_000)])
        assert np.all(np.abs(mus.mean(axis=0)) < 0.02)
        corr = np.corrcoef(mus[:, 0], mus[:, 1])[0, 1]
        assert abs(corr - 0.8) < 0.01

    def test_data_mean_covariance_matches_conjugacy(self):
        # marginal cov of ybar is Sigma + Sigma/n
        n = 3
        gen = gaussian.GaussianGenerator(n=n)
        rng = stream(2, 0)
        ybars = np.array([gen.generate(rng)[1].mean(axis=0) for _ in range(100_000)])
        expected = gaussian.SIGMA * (1.0 + 1.0 / n)
        observed = np.cov(ybars.T)
        np.testing.assert_allclose(observed, expected, rtol=0.03)

    @pytest.mark.parametrize("n", [0, -2])
    def test_no_data_points_rejected(self, n, tmp_path, capsys):
        with pytest.raises(ValueError, match="n must be at least 1"):
            gaussian.GaussianGenerator(n=n)
        out = tmp_path / "out"
        argv = ["run", "--model", "gaussian", "--n", str(n), "--sims", "20", "--out", str(out)]
        assert main(argv) == 1
        assert "n must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestBatchForms:
    @given(
        variant=st.sampled_from(gaussian.VARIANT_NAMES),
        n=st.sampled_from([1, 2, 3, 20]),
        g=st.integers(min_value=1, max_value=40),
        M=st.integers(min_value=1, max_value=60),
        key=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_evaluator_bit_for_bit(self, variant, n, g, M, key):
        generator, family = gaussian.GaussianGenerator(n), gaussian.make_variant(variant, n)
        rng = stream(key, 0)
        sims = [generator.generate(rng) for _ in range(g)]
        datasets = [y for _, y in sims]
        with np.errstate(invalid="ignore"):  # ignore-first at n=1 has no data left: NaN
            draws = np.stack([np.vstack([mu, family.sample(y, M, rng)]) for mu, y in sims])
        batched = [q for q in gaussian.quantity_library(n, family) if q.batch is not None]
        assert len(batched) == (9 if n == 1 else 10) + (family.log_density is not None)
        for q in batched:
            got = q.batch(draws, datasets)
            expected = np.stack([q.evaluator(draws[r], datasets[r]) for r in range(g)])
            assert got.shape == (g, M + 1), q.name
            assert got.tobytes() == expected.tobytes(), q.name


    @pytest.mark.parametrize("M", [1, 2])
    @pytest.mark.parametrize("n", [1, 3])
    def test_few_draws_give_the_ranks_of_groups_of_one(self, M, n, monkeypatch):
        # at one or two draws per simulation a group's quadratic forms have few
        # rows per simulation; each row's value is the same however many rows it
        # is taken with, so the values and ranks are those of groups of one
        family = gaussian.make_variant("correct", n)
        args = (gaussian.GaussianGenerator(n), family, gaussian.quantity_library(n, family))
        grouped = run_sbc(*args, S=300, M=M, seed=5)
        monkeypatch.setattr(core, "_GROUP_BYTES", 1)
        alone = run_sbc(*args, S=300, M=M, seed=5)
        for table in ("rank", "n_less", "n_equals", "evaluated"):
            assert getattr(grouped, table).tolist() == getattr(alone, table).tolist(), table
        rng = stream(M, n)
        sims = [args[0].generate(rng) for _ in range(300)]
        draws = np.stack([np.vstack([mu, family.sample(y, M, rng)]) for mu, y in sims])
        values, _ = core.evaluate_quantities(draws, [y for _, y in sims], args[2])
        for r in range(300):
            one, _ = core.evaluate_quantities(draws[r : r + 1], [sims[r][1]], args[2])
            assert one.tobytes() == values[r : r + 1].tobytes()

def one_simulation_draws(family, y, M, rng):
    """The per-simulation formula that ``sample_batch`` replaced: its oracle."""
    mean = family._mean(y)
    sd = 1.0 / np.sqrt(family.n + 1)
    if family.name == "independent-marginals":
        return mean[None, :] + sd * rng.standard_normal((M, 2))
    if family.name == "small-bias":
        mean = mean + gaussian._BIAS_SD * rng.standard_normal(2)
    draws = mean[None, :] + np.sqrt(family.scale) * rng.standard_normal((M, 2)) @ gaussian._CHOL.T
    if family.name == "non-monotonic":
        u = ndtr((draws - mean[None, :]) / sd)
        w = u * u if gaussian.grand_mean_positive(y) else u * (2.0 - u)
        return mean[None, :] + sd * ndtri(w)
    return draws


class TestSampleBatch:
    @staticmethod
    def check_against_oracle(variant, n, g, M, key):
        generator, family = gaussian.GaussianGenerator(n), gaussian.make_variant(variant, n)
        rng = stream(key, 0)
        ys = [generator.generate(rng)[1] for _ in range(g)]
        batch_streams = [stream(key, 1 + r) for r in range(g)]
        oracle_streams = [stream(key, 1 + r) for r in range(g)]
        got = family.sample_batch(ys, M, batch_streams)
        expected = np.stack([one_simulation_draws(family, y, M, s) for y, s in zip(ys, oracle_streams)])
        assert got.shape == (g, M, 2)
        assert got.tobytes() == expected.tobytes()
        # each stream is left where one simulation's call leaves it
        for a, b in zip(batch_streams, oracle_streams):
            assert a.standard_normal() == b.standard_normal()
        assert family.sample(ys[-1], M, stream(key, g)).tobytes() == got[-1].tobytes()

    @given(
        variant=st.sampled_from(gaussian.VARIANT_NAMES),
        n=st.sampled_from([1, 2, 3, 20]),
        g=st.integers(min_value=1, max_value=40),
        M=st.integers(min_value=1, max_value=60),
        key=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=120, deadline=None)
    def test_rows_equal_the_per_simulation_formula(self, variant, n, g, M, key):
        self.check_against_oracle(variant, n, g, M, key)

    @pytest.mark.parametrize("variant", gaussian.VARIANT_NAMES)
    def test_rows_equal_the_per_simulation_formula_at_g1000(self, variant):
        self.check_against_oracle(variant, 3, 1000, 100, 17)

    @pytest.mark.parametrize("variant", ["small-bias", "non-monotonic"])
    def test_lockstep_group_size_leaves_the_run_unchanged(self, variant, monkeypatch):
        family = gaussian.make_variant(variant, 3)
        quantities = gaussian.quantity_library(3, family)
        S, M = 40, 20
        runs = []
        for group in (1, 7, S):
            # run_sbc samples groups of _LOCKSTEP_BYTES // (8 * M * thin * 2) simulations
            monkeypatch.setattr(core, "_LOCKSTEP_BYTES", group * 8 * M * 2)
            runs.append(run_sbc(gaussian.GaussianGenerator(3), family, quantities, S=S, M=M, seed=23))
        for run in runs[1:]:
            for field in ("sim_index", "n_less", "n_equals", "rank", "evaluated"):
                assert getattr(run, field).tobytes() == getattr(runs[0], field).tobytes(), field
            assert (run.failures, run.quantity_errors) == (runs[0].failures, runs[0].quantity_errors)


class TestVariantSamplers:
    def test_correct_posterior_moments(self):
        y = np.ones((3, 2))
        fam = gaussian.make_variant("correct", n=3)
        draws = fam.sample(y, 200_000, stream(3, 0))
        np.testing.assert_allclose(draws.mean(axis=0), [0.75, 0.75], atol=0.01)
        np.testing.assert_allclose(np.cov(draws.T), gaussian.SIGMA / 4.0, atol=0.01)

    def test_ignore_first_uses_remaining_points(self):
        # first point arbitrary, y2 = y3 = 0 -> mean 0, cov Sigma/3
        y = np.array([[17.0, -4.0], [0.0, 0.0], [0.0, 0.0]])
        fam = gaussian.make_variant("ignore-first", n=3)
        draws = fam.sample(y, 200_000, stream(4, 0))
        np.testing.assert_allclose(draws.mean(axis=0), [0.0, 0.0], atol=0.01)
        np.testing.assert_allclose(np.cov(draws.T), gaussian.SIGMA / 3.0, atol=0.01)

    def test_ignore_first_with_one_point_is_the_prior(self):
        # no data left after the first point: the same draws and density as prior-only
        y = np.array([[17.0, -4.0]])
        fam = gaussian.make_variant("ignore-first", n=1)
        prior = gaussian.make_variant("prior-only", n=1)
        draws = fam.sample(y, 50, stream(4, 1))
        assert draws.tobytes() == prior.sample(y, 50, stream(4, 1)).tobytes()
        assert fam.log_density(draws, y).tobytes() == prior.log_density(draws, y).tobytes()

    def test_prior_only_ignores_data(self):
        fam = gaussian.make_variant("prior-only", n=3)
        a = fam.sample(np.zeros((3, 2)), 50, stream(5, 1))
        b = fam.sample(np.full((3, 2), 9.9), 50, stream(5, 1))
        np.testing.assert_array_equal(a, b)

    def test_independent_marginals_have_correct_marginals_no_correlation(self):
        y = np.ones((3, 2))
        fam = gaussian.make_variant("independent-marginals", n=3)
        draws = fam.sample(y, 200_000, stream(6, 0))
        np.testing.assert_allclose(draws.mean(axis=0), [0.75, 0.75], atol=0.01)
        np.testing.assert_allclose(draws.var(axis=0), [0.25, 0.25], atol=0.01)
        assert abs(np.corrcoef(draws.T)[0, 1]) < 0.01

    def test_small_bias_shifts_whole_simulation(self):
        y = np.zeros((3, 2))
        fam = gaussian.make_variant("small-bias", n=3)
        means = np.array([fam.sample(y, 4000, stream(7, i)).mean(axis=0) for i in range(2000)])
        # per-sim mean is bias + noise; bias sd 0.3 dominates 0.5/sqrt(4000)
        assert abs(means[:, 0].std() - 0.3) < 0.02

    @pytest.mark.parametrize("sign,invert", [(1.0, np.sqrt), (-1.0, lambda t: 1.0 - np.sqrt(1.0 - t))])
    def test_non_monotonic_marginals_follow_warped_cdf(self, sign, invert):
        # by construction F(theta') = w(u) with u uniform, so invert(F(theta'))
        # must be uniform within each data region
        n = 3
        y = sign * np.abs(stream(8, 0).standard_normal((n, 2)))
        fam = gaussian.make_variant("non-monotonic", n=n)
        draws = fam.sample(y, 50_000, stream(8, 1))
        mean = n * y.mean(axis=0) / (n + 1)
        sd = 1.0 / np.sqrt(n + 1)
        t = stats.norm.cdf((draws[:, 0] - mean[0]) / sd)
        u = invert(t)
        assert stats.kstest(u, "uniform").pvalue > 1e-3

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            gaussian.make_variant("nosuch", n=3)

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("variant", gaussian.VARIANT_NAMES)
    def test_no_data_points_rejected(self, variant, n):
        # the generator's bound: no variant's mean or scale is defined at n < 1
        with pytest.raises(ValueError, match=f"^n must be at least 1, got {n}$"):
            gaussian.make_variant(variant, n=n)


class TestQuadraticForm:
    @given(
        N=st.integers(min_value=1, max_value=5000),
        log_scale=st.floats(min_value=-3.0, max_value=3.0),
        zero=st.sampled_from([0.0, -0.0]),
        layout=st.sampled_from(["draws", "data", "density"]),
        key=st.integers(min_value=0, max_value=2**32),
    )
    @example(N=1, log_scale=0.0, zero=-0.0, layout="draws", key=0)
    @example(N=2, log_scale=0.0, zero=-0.0, layout="data", key=0)
    @example(N=3, log_scale=0.0, zero=-0.0, layout="density", key=0)
    @settings(max_examples=200, deadline=None)
    def test_equals_einsum_bit_for_bit(self, N, log_scale, zero, layout, key):
        # rows of N differences, a tenth of their entries exact zeros of one sign,
        # laid out as _log_lik (N draws of one point, or one draw of N points)
        # or log_density (N draws of one dataset) lays them out; einsum orders
        # the terms otherwise below three rows, so it is the oracle from three on
        rng = stream(key, N)
        values = rng.standard_normal((N, 2)) * 10.0**log_scale
        values[rng.random((N, 2)) < 0.1] = zero
        if layout == "draws":
            diff = np.zeros((1, 1, 2))[:, None, :, :] - values[None, :, None, :]
        elif layout == "data":
            diff = values[None, :, :][:, None, :, :] - np.zeros((1, 1, 2))[:, :, None, :]
        else:
            diff = values - np.zeros(2)[None, :]
        rows = diff.reshape(-1, 2)
        quad = gaussian._quadratic_form(rows)
        if N >= 3:
            expected = np.einsum("ni,ij,nj->n", rows, gaussian._SIGMA_INV, rows)
            assert quad.tobytes() == expected.tobytes()
        # a row taken alone has the bits it has among all N: every row up to
        # N = 3, and the first three, the middle and the last beyond
        for n in {min(n, N - 1) for n in (0, 1, 2, N // 2, N - 1)}:
            assert gaussian._quadratic_form(rows[n : n + 1]).tobytes() == quad[n : n + 1].tobytes()


class TestQuantities:
    def test_joint_log_lik_matches_scipy(self):
        n = 4
        rng = stream(9, 0)
        y = rng.standard_normal((n, 2))
        draws = rng.standard_normal((6, 2))
        lib = {q.name: q for q in gaussian.quantity_library(n)}
        ours = lib["mvn_log_lik"].evaluator(draws, y)
        ref = np.array(
            [sum(stats.multivariate_normal.logpdf(yk, d, gaussian.SIGMA) for yk in y) for d in draws]
        )
        np.testing.assert_allclose(ours, ref, rtol=1e-10)

    def test_log_lik_closed_form_at_origin(self):
        lib = {q.name: q for q in gaussian.quantity_library(1)}
        val = lib["mvn_log_lik"].evaluator(np.zeros((1, 2)), np.zeros((1, 2)))[0]
        assert val == pytest.approx(-np.log(2 * np.pi) - 0.5 * np.log(0.36))

    def test_drop_quantity_branches(self):
        lib = {q.name: q for q in gaussian.quantity_library(3)}
        got = lib["drop_mu1"].evaluator(np.array([[1.5, 0.0], [0.5, 0.0]]), None)
        np.testing.assert_allclose(got, [-3.5, 0.5])

    def test_density_ratio_on_correct_is_exactly_one(self):
        fam = gaussian.make_variant("correct", n=3)
        lib = {q.name: q for q in gaussian.quantity_library(3, fam)}
        rng = stream(10, 0)
        y = rng.standard_normal((3, 2))
        draws = rng.standard_normal((50, 2))
        np.testing.assert_array_equal(lib["density_ratio"].evaluator(draws, y), np.ones(50))

    def test_pointwise_log_lik_only_for_existing_points(self, tmp_path, capsys):
        def pointwise(n):
            return [q.name for q in gaussian.quantity_library(n) if q.name.startswith("mvn_log_lik[")]

        assert pointwise(1) == ["mvn_log_lik[1]"]
        assert pointwise(2) == pointwise(3) == ["mvn_log_lik[1]", "mvn_log_lik[2]"]
        out = tmp_path / "out"
        argv = ["run", "--model", "gaussian", "--n", "1", "--sims", "50", "--draws", "20"]
        assert main([*argv, "--out", str(out)]) in (0, 2)
        assert capsys.readouterr().err == ""
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["quantity_errors"] == 0
        names = [q.name for q in gaussian.quantity_library(1, gaussian.make_variant("correct", 1))]
        assert [e["quantity"] for e in report["quantities"]] == names

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["correct", "prior-only", "ignore-first", "independent-marginals"])
    def test_log_density_matches_scipy(self, variant, n):
        # each variant's own mean and covariance, on one simulation and on a group
        fam = gaussian.make_variant(variant, n)
        rng = stream(11, n)
        ys = rng.standard_normal((4, n, 2))
        draws = rng.standard_normal((4, 7, 2))

        def moments(y):
            if variant == "prior-only" or (variant == "ignore-first" and n == 1):
                return np.zeros(2), gaussian.SIGMA
            if variant == "ignore-first":
                return y[1:].sum(axis=0) / n, gaussian.SIGMA / n
            cov = np.eye(2) if variant == "independent-marginals" else gaussian.SIGMA
            return y.sum(axis=0) / (n + 1), cov / (n + 1)

        ref = np.stack([stats.multivariate_normal.logpdf(d, *moments(y)) for d, y in zip(draws, ys)])
        np.testing.assert_allclose(fam.log_density(draws[0], ys[0]), ref[0], rtol=1e-12)
        np.testing.assert_allclose(fam.log_density(draws, ys), ref, rtol=1e-12)

    def test_density_ratio_absent_without_closed_form(self):
        fam = gaussian.make_variant("small-bias", n=3)
        names = [q.name for q in gaussian.quantity_library(3, fam)]
        assert "density_ratio" not in names


class TestSbcSmoke:
    """Small-scale pass/fail checks; the full case studies live in the acceptance suite."""

    def test_correct_variant_passes_chi2(self):
        n = 3
        fam = gaussian.make_variant("correct", n=n)
        run = run_sbc(
            gaussian.GaussianGenerator(n), fam, gaussian.quantity_library(n, fam), S=2000, M=20, seed=12
        )
        for name in ("mu[1]", "mvn_log_lik", "density_ratio"):
            res = chi_square_uniformity(RankSet.from_run(run, name), n_bins=21)
            assert res.p_value > 1e-3, name

    def test_prior_only_likelihood_fails_fast_but_mu_passes(self):
        n = 3
        fam = gaussian.make_variant("prior-only", n=n)
        run = run_sbc(gaussian.GaussianGenerator(n), fam, gaussian.quantity_library(n, fam), S=400, M=100, seed=13)
        traces = {
            t.quantity: t
            for t in evolution_table(
                {q: run.ranks(q) for q in ("mu[1]", "mvn_log_lik")}, 100, step=10
            )
        }
        assert traces["mvn_log_lik"].first_rejection() <= 50
        assert traces["mu[1]"].final_log_ratio >= 0.0

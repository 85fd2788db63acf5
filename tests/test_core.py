import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbc_lab.core import TestQuantity as Quantity
from sbc_lab.core import (
    InvalidQuantityError,
    SamplerError,
    SimulationRecord,
    compute_rank,
    ess,
    evaluate_quantities,
    run_sbc,
)
from sbc_lab.rng import stream


class TestComputeRank:
    def test_no_ties_direct_count(self):
        stat = compute_rank(2.5, np.array([1.0, 2.0, 3.0]), stream(0, 0))
        assert (stat.n_less, stat.n_equals, stat.rank) == (2, 0, 2)

    def test_all_tied_rank_spreads_uniformly(self):
        seen = {compute_rank(1.0, np.array([1.0, 1.0, 1.0]), stream(0, i)).rank for i in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_partial_ties(self):
        stat = compute_rank(5.0, np.array([5.0, 5.0, 1.0]), stream(3, 1))
        assert stat.n_less == 1 and stat.n_equals == 2
        assert stat.rank in {1, 2, 3}

    def test_tie_uniformity_frequencies(self):
        # fixed inputs with 4 tied values: each rank lands with freq 1/5 +- 0.01
        values = np.array([0.0, 7.0, 7.0, 7.0, 7.0, 9.0])
        rng = stream(42, 0)
        n_rep = 100_000
        counts = np.zeros(7, dtype=int)
        for _ in range(n_rep):
            counts[compute_rank(7.0, values, rng).rank] += 1
        freqs = counts[1:6] / n_rep
        assert np.all(np.abs(freqs - 0.2) < 0.01)
        assert counts[0] == 0 and counts[6] == 0

    def test_infinities_participate_in_ordering_and_ties(self):
        stat = compute_rank(-np.inf, np.array([-np.inf, 0.0, np.inf]), stream(1, 1))
        assert stat.n_less == 0 and stat.n_equals == 1

    def test_nan_rejected(self):
        with pytest.raises(InvalidQuantityError):
            compute_rank(np.nan, np.array([1.0]), stream(0, 0))
        with pytest.raises(InvalidQuantityError):
            compute_rank(0.0, np.array([np.nan, 1.0]), stream(0, 0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_rank(0.0, np.array([]), stream(0, 0))

    @given(
        values=st.lists(st.sampled_from([k * 0.5 for k in range(-40, 41)]), min_size=1, max_size=30),
        prior=st.sampled_from([k * 0.5 for k in range(-40, 41)]),
        scale=st.sampled_from([0.5, 1.0, 2.0, 4.0]),
        shift=st.sampled_from([k * 0.5 for k in range(-20, 21)]),
        key=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_strictly_increasing_transform_preserves_rank(self, values, prior, scale, shift, key):
        # half-integer grid and power-of-two scales keep the transform exact,
        # so orderings and ties are preserved bit-for-bit
        arr = np.asarray(values)
        a = compute_rank(prior, arr, stream(key, 0))
        b = compute_rank(scale * prior + shift, scale * arr + shift, stream(key, 0))
        assert (a.n_less, a.n_equals, a.rank) == (b.n_less, b.n_equals, b.rank)

    @given(
        values=st.lists(
            st.sampled_from([k * 0.5 for k in range(-40, 41)]), min_size=1, max_size=30, unique=True
        ),
        key=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_transform_flips_rank(self, values, key):
        arr = np.asarray(values)
        prior = 0.25  # off-grid: never tied
        a = compute_rank(prior, arr, stream(key, 0))
        b = compute_rank(-prior, -arr, stream(key, 0))
        assert b.rank == len(values) - a.rank


class TestEvaluateQuantities:
    def _record(self):
        return SimulationRecord(
            sim_index=0,
            prior_draw=np.array([0.3, -1.0]),
            data=None,
            posterior_draws=np.array([[1.0, 2.0], [3.0, 4.0]]),
            variant_name="toy",
            seed_info=(0, 0),
        )

    def test_projection_and_sum(self):
        quantities = [
            Quantity("first", lambda draws, data: draws[:, 0]),
            Quantity("total", lambda draws, data: draws.sum(axis=1)),
        ]
        values, errors = evaluate_quantities(self._record(), quantities)
        assert errors == {}
        assert values["first"][0] == pytest.approx(0.3)
        assert values["total"][0] == pytest.approx(-0.7)
        np.testing.assert_allclose(values["first"][1], [1.0, 3.0])
        np.testing.assert_allclose(values["total"][1], [3.0, 7.0])

    def test_failure_isolated_per_quantity(self):
        def boom(draws, data):
            raise RuntimeError("broken evaluator")

        quantities = [
            Quantity("bad", boom),
            Quantity("good", lambda draws, data: draws[:, 1]),
        ]
        values, errors = evaluate_quantities(self._record(), quantities)
        assert "bad" in errors and "good" in values


class _ToyGenerator:
    def generate(self, rng):
        theta = rng.normal(size=1)
        data = float(theta[0] + rng.normal())
        return theta, data


class _ToyFamily:
    name = "toy-correct"

    def sample(self, data, M, rng, thin):
        # correct posterior for x ~ N(theta, 1), theta ~ N(0, 1)
        return rng.normal(loc=data / 2.0, scale=np.sqrt(0.5), size=(M, 1))


class _ToyBatchedFamily(_ToyFamily):
    def sample_batch(self, datas, M, streams, thin):
        return [self.sample(d, M, rng, thin) for d, rng in zip(datas, streams)]


class _FlakyFamily(_ToyFamily):
    name = "toy-flaky"

    def sample(self, data, M, rng, thin):
        if data > 1.0:
            raise SamplerError("refused to fit")
        return super().sample(data, M, rng, thin)


class _PickyBatchedFamily(_ToyBatchedFamily):
    """Raises a non-SamplerError for large data, so any group holding one fails."""

    name = "toy-picky"

    def sample(self, data, M, rng, thin):
        if data > 1.5:
            raise KeyError(f"no fit for {data:.3f}")
        return super().sample(data, M, rng, thin)


class _MisshapenBatchedFamily(_ToyBatchedFamily):
    name = "toy-misshapen"

    def sample(self, data, M, rng, thin):
        draws = super().sample(data, M, rng, thin)
        return draws[:-1] if data > 1.5 else draws


_QS = [Quantity("theta", lambda draws, data: draws[:, 0])]


class TestRunSbc:
    def test_deterministic_across_repeats_and_threads(self):
        runs = [
            run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=40, M=17, seed=99, n_jobs=j)
            for j in (1, 1, 4)
        ]
        tables = [[(s.quantity, s.rank, s.n_less, s.n_equals) for row in r.rank_rows for s in row] for r in runs]
        assert tables[0] == tables[1] == tables[2]

    def test_batched_path_matches_per_sim_path(self):
        a = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=25, M=9, seed=5)
        b = run_sbc(_ToyGenerator(), _ToyBatchedFamily(), _QS, S=25, M=9, seed=5, n_jobs=3)
        assert [s.rank for row in a.rank_rows for s in row] == [
            s.rank for row in b.rank_rows for s in row
        ]

    def test_failures_excluded_and_counted(self):
        run = run_sbc(_ToyGenerator(), _FlakyFamily(), _QS, S=60, M=5, seed=31)
        assert run.n_failed > 0
        assert len(run.records) == 60 - run.n_failed
        failed = {i for i, _ in run.failures}
        assert all(rec.sim_index not in failed for rec in run.records)
        # ranks only from surviving simulations
        assert run.ranks("theta").size == len(run.records)

    @pytest.mark.parametrize("family", [_PickyBatchedFamily(), _MisshapenBatchedFamily()])
    @pytest.mark.parametrize("n_jobs", [1, 3])
    def test_batched_failures_cost_one_simulation(self, family, n_jobs):
        reference = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=40, M=9, seed=12)
        run = run_sbc(_ToyGenerator(), family, _QS, S=40, M=9, seed=12, n_jobs=n_jobs)
        bad = [rec.sim_index for rec in reference.records if rec.data > 1.5]
        assert 0 < len(bad) < 40
        assert [i for i, _ in run.failures] == bad
        expected_type = "KeyError" if isinstance(family, _PickyBatchedFamily) else "ValueError"
        assert all(message.startswith(expected_type + ": ") for _, message in run.failures)
        ranks = {rec.sim_index: row[0].rank for rec, row in reference.results()}
        assert [row[0].rank for row in run.rank_rows] == [
            ranks[rec.sim_index] for rec in run.records
        ]

    def test_correct_toy_posterior_rank_moments(self):
        run = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=3000, M=9, seed=7)
        ranks = run.ranks("theta")
        # uniform{0..9} has mean 4.5, sd ~2.87; allow 4 sigma of the mean
        assert abs(ranks.mean() - 4.5) < 4 * 2.872 / np.sqrt(ranks.size)

    def test_thread_env_var_does_not_change_results(self, monkeypatch):
        monkeypatch.setenv("SBC_LAB_THREADS", "4")
        a = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=30, M=11, seed=17)
        monkeypatch.delenv("SBC_LAB_THREADS")
        b = run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=30, M=11, seed=17)
        assert [s.rank for row in a.rank_rows for s in row] == [
            s.rank for row in b.rank_rows for s in row
        ]

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=0, M=3, seed=0)
        with pytest.raises(ValueError):
            run_sbc(_ToyGenerator(), _ToyFamily(), _QS, S=3, M=0, seed=0)


class TestEss:
    def test_independent_chain(self):
        x = stream(11, 0).standard_normal(10_000)
        out = ess(x)
        assert not out.degenerate
        assert 8000 <= out.ess <= 10_500

    def test_constant_chain_degenerate(self):
        out = ess(np.ones(500))
        assert out.degenerate and out.ess == 0.0

    def test_ar1_chain_matches_analytic_ess(self):
        rng = stream(123, 0)
        n, rho = 20_000, 0.9
        eps = rng.standard_normal(n)
        x = np.empty(n)
        x[0] = eps[0]
        for t in range(1, n):
            x[t] = rho * x[t - 1] + np.sqrt(1 - rho**2) * eps[t]
        expected = n * (1 - rho) / (1 + rho)
        out = ess(x)
        assert abs(out.ess - expected) / expected < 0.30

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError):
            ess(np.arange(5.0))

    def test_cap_at_1_05_n(self):
        # strongly antithetic chain has tau < 1; estimate must stay capped
        x = np.tile([1.0, -1.0], 500) + 0.01 * stream(4, 2).standard_normal(1000)
        assert ess(x).ess <= 1050.0

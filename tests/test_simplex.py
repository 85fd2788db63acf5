import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbc_lab.core import run_sbc
from sbc_lab.diagnostics import evolution_table
from sbc_lab.models import simplex as sx
from sbc_lab.rng import stream


def finite_difference_log_det(fn, point, h=1e-6):
    """log |det J| of fn at point by central differences; fn maps R^d -> R^d."""
    d = point.size
    J = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        J[:, j] = (fn(point + e) - fn(point - e)) / (2.0 * h)
    sign, logdet = np.linalg.slogdet(J)
    assert sign > 0 or not np.isnan(logdet)
    return logdet


class TestMinTransform:
    def test_two_element_hand_case(self):
        t = sx.transform_min(np.array([0.5]))
        np.testing.assert_allclose(t.x, [0.25, 0.75])
        assert t.log_jacobian == pytest.approx(np.log(0.5))

    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_output_in_ordered_simplex(self, K):
        rng = stream(1, K)
        for _ in range(50):
            t = sx.transform_min(rng.uniform(0.01, 0.99, K - 1))
            assert t.x.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(t.x) > 0.0)
            assert t.x[0] > 0.0

    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_log_jacobian_matches_finite_differences(self, K):
        rng = stream(2, K)
        for _ in range(100):
            u = rng.uniform(0.05, 0.95, K - 1)
            numeric = finite_difference_log_det(lambda v: sx.transform_min(v).x[: K - 1], u)
            assert sx.transform_min(u).log_jacobian == pytest.approx(numeric, abs=1e-6)

    def test_boundary_rejected(self):
        with pytest.raises(sx.DomainError):
            sx.transform_min(np.array([0.0, 0.5]))
        with pytest.raises(sx.DomainError):
            sx.transform_min(np.array([0.5, 1.0]))


class TestSoftmaxTransform:
    def test_fixed_and_bad_differ_by_exactly_log_s(self):
        rng = stream(3, 0)
        for _ in range(50):
            v = np.cumsum(rng.uniform(0.05, 1.0, 3))
            s = 1.0 + np.exp(v).sum()
            bad = sx.transform_softmax(v, fixed=False)
            good = sx.transform_softmax(v, fixed=True)
            np.testing.assert_array_equal(bad.x, good.x)
            assert bad.log_jacobian - good.log_jacobian == pytest.approx(np.log(s), rel=1e-12)

    @pytest.mark.parametrize("K", [3, 4, 5])
    def test_fixed_jacobian_matches_finite_differences_and_bad_does_not(self, K):
        rng = stream(4, K)
        for _ in range(100):
            v = np.cumsum(rng.uniform(0.05, 0.8, K - 1))
            numeric = finite_difference_log_det(
                lambda w: sx.transform_softmax(w, fixed=True).x[1:], v
            )
            assert sx.transform_softmax(v, fixed=True).log_jacobian == pytest.approx(
                numeric, abs=1e-6
            )
            gap = sx.transform_softmax(v, fixed=False).log_jacobian - numeric
            s = 1.0 + np.exp(v).sum()
            assert gap == pytest.approx(np.log(s), abs=1e-6)

    def test_ordering_and_domain(self):
        t = sx.transform_softmax(np.array([0.1, 0.2, 0.3]), fixed=True)
        assert np.all(np.diff(t.x) > 0.0)
        with pytest.raises(sx.DomainError):
            sx.transform_softmax(np.array([0.0]), fixed=True)  # v=0 gives x1 = x2
        with pytest.raises(sx.DomainError):
            sx.transform_softmax(np.array([0.3, 0.2]), fixed=True)


class TestGammaTransform:
    def test_normalization(self):
        np.testing.assert_allclose(
            sx.transform_gamma(np.array([1.0, 2.0, 3.0, 4.0])), [0.1, 0.2, 0.3, 0.4]
        )

    def test_ordered_gamma_matches_sorted_dirichlet(self):
        rng = stream(5, 0)
        n = 100_000
        w = np.sort(rng.gamma(2.0, 1.0, size=(n, 4)), axis=1)
        ours = w / w.sum(axis=1, keepdims=True)
        ref = np.sort(rng.dirichlet(sx.ALPHA, size=n), axis=1)
        np.testing.assert_allclose(ours.mean(axis=0), ref.mean(axis=0), rtol=0.01)

    def test_ties_rejected(self):
        with pytest.raises(sx.DomainError):
            sx.transform_gamma(np.array([1.0, 1.0, 2.0, 3.0]))


class TestLogPosterior:
    def test_base_logit_jacobian_matches_finite_differences(self):
        from scipy.special import expit

        rng = stream(6, 0)
        for _ in range(20):
            z = rng.normal(size=3)
            numeric = finite_difference_log_det(lambda t: expit(t), z)
            analytic = np.log(expit(z) * (1.0 - expit(z))).sum()
            assert analytic == pytest.approx(numeric, abs=1e-6)

    def test_positive_ordered_jacobian_is_sum_of_z(self):
        rng = stream(6, 1)
        for _ in range(20):
            z = rng.normal(size=4)
            numeric = finite_difference_log_det(lambda t: np.cumsum(np.exp(t)), z)
            assert z.sum() == pytest.approx(numeric, abs=1e-6)

    def test_min_variant_finite_everywhere(self):
        rng = stream(7, 0)
        y = np.array([2, 3, 2, 3])
        for _ in range(50):
            lp = sx.log_posterior("min", rng.normal(scale=3.0, size=3), y)
            assert np.isfinite(lp)

    def test_gamma_target_not_a_function_of_x_alone(self):
        # two w with the same normalized x but different scale
        y = np.array([1, 2, 3, 4])
        z1 = np.log(np.array([1.0, 1.0, 1.0, 1.0]))  # w = (1,2,3,4)
        z2 = np.log(np.array([2.0, 2.0, 2.0, 2.0]))  # w = (2,4,6,8), same x
        lp1, x1 = sx._log_posterior_batch("gamma", z1[None, :], y[None, :].astype(float))
        lp2, x2 = sx._log_posterior_batch("gamma", z2[None, :], y[None, :].astype(float))
        np.testing.assert_allclose(x1, x2, atol=1e-12)
        assert lp1[0] != lp2[0]

    def test_overflow_maps_to_minus_inf(self):
        assert sx.log_posterior("gamma", np.full(4, 800.0), np.array([1, 2, 3, 4])) == -np.inf

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            sx.log_posterior("nosuch", np.zeros(3), np.array([1, 2, 3, 4]))


def standard_normal(shift=0.0):
    """``log_density_for`` of a standard-normal target, the same for every chain."""

    def log_density_for(idx):
        return lambda zs: -0.5 * (zs * zs).sum(axis=1) + shift

    return log_density_for


def record_blocks(monkeypatch):
    """Wrap ``_metropolis_block``: each call appends (chains, T, accepts) to the list returned."""
    calls = []
    original = sx._metropolis_block

    def recording(log_density_batch, state, streams, T, *rest, **kwargs):
        keep, accepts = original(log_density_batch, state, streams, T, *rest, **kwargs)
        calls.append((len(streams), T, accepts.copy()))
        return keep, accepts

    monkeypatch.setattr(sx, "_metropolis_block", recording)
    return calls


class TestRwmSampler:
    def test_standard_normal_2d_target(self, monkeypatch):
        blocks = record_blocks(monkeypatch)
        [draws] = sx._thinned_chains(standard_normal(), 2, 5000, 2, [stream(8, 0)])
        assert abs(draws[:, 0].mean()) < 0.05 and abs(draws[:, 1].mean()) < 0.05
        assert abs(draws[:, 0].var() - 1.0) < 0.1
        # one block: the base chain already met the ESS target
        [(_, T, accepts)] = blocks
        assert 0.15 < accepts[0] / (T - sx._WARMUP) < 0.55

    def test_acceptance_uses_only_density_difference(self, monkeypatch):
        # an unnormalized target (constant log shift) must sample the same law
        blocks = record_blocks(monkeypatch)
        [a] = sx._thinned_chains(standard_normal(), 2, 4000, 2, [stream(9, 0)])
        [b] = sx._thinned_chains(standard_normal(123.0), 2, 4000, 2, [stream(9, 0)])
        (_, T, acc_a), (_, _, acc_b) = blocks
        kept = T - sx._WARMUP
        assert acc_a[0] / kept == pytest.approx(acc_b[0] / kept, abs=0.02)
        np.testing.assert_allclose(a.mean(axis=0), b.mean(axis=0), atol=0.08)
        np.testing.assert_allclose(a.var(axis=0), b.var(axis=0), atol=0.12)

    def test_infinite_init_rejected(self):
        def nowhere(idx):
            return lambda zs: np.full(len(zs), -np.inf)

        with np.errstate(invalid="ignore"):
            out = sx._thinned_chains(nowhere, 2, 50, 1, [stream(10, 0)])
        assert isinstance(out[0], sx.SamplerError)
        assert str(out[0]) == "zero acceptance after warmup"

    def test_extensions_until_the_ess_target(self, monkeypatch):
        # thin=1 makes the base block too short for the target: only chains
        # still short are extended, and one still short after the last
        # extension fails
        blocks = record_blocks(monkeypatch)
        B, M = 8, 100
        out = sx._thinned_chains(standard_normal(), 2, M, 1, [stream(33, i) for i in range(B)])
        assert blocks[0][:2] == (B, sx._WARMUP + M)
        assert all(T == M for _, T, _ in blocks[1:]) and len(blocks) <= 1 + sx._MAX_EXTENSIONS
        chains = [n for n, _, _ in blocks]
        assert chains == sorted(chains, reverse=True) and chains[-1] < B
        assert any(isinstance(o, sx.SamplerError) for o in out)
        for o in out:
            if isinstance(o, sx.SamplerError):
                assert len(blocks) == 1 + sx._MAX_EXTENSIONS
                assert str(o) == "min ESS below 100 after 9 chain extensions"
            else:
                assert o.shape == (M, 2)

    def test_blocked_noise_matches_one_shot_draws(self):
        # Frozen kernel (warmup=0, identity proposal): the reference draws each
        # chain's T x dim normals and then its T uniforms in one call each, and
        # a second block continues from where the first left the stream.
        def target(zs):
            return -0.5 * (zs * zs).sum(axis=1)

        B, dim, lengths = 3, 2, (2 * sx._NOISE_BLOCK + 37, sx._NOISE_BLOCK + 5)
        z0 = np.zeros((B, dim))
        state = sx._ChainState(z0, target(z0))
        streams = [stream(40, i) for i in range(B)]
        blocked = [sx._metropolis_block(target, state, streams, T, 0)[0] for T in lengths]

        ref_streams = [stream(40, i) for i in range(B)]
        z, lp = z0.copy(), target(z0)
        step = np.exp(np.full(B, np.log(sx._INIT_STEP)))[:, None]
        for T, got in zip(lengths, blocked):
            normals = np.stack([r.standard_normal((T, dim)) for r in ref_streams])
            uniforms = np.stack([r.uniform(size=T) for r in ref_streams])
            expected = np.empty((B, T, dim))
            for t in range(T):
                prop = z + step * normals[:, t]
                lp_prop = target(prop)
                take = uniforms[:, t] < np.exp(np.minimum(0.0, lp_prop - lp))
                z = np.where(take[:, None], prop, z)
                lp = np.where(take, lp_prop, lp)
                expected[:, t] = z
            np.testing.assert_array_equal(got, expected)

    def test_cholesky_failure_is_per_chain(self):
        good = np.array([[4.0, 2.0], [2.0, 3.0]])
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        previous = np.stack([np.eye(2), 2.0 * np.eye(2)])
        out = sx._cholesky_rows(previous, np.stack([good, bad]))
        np.testing.assert_array_equal(out[0], np.linalg.cholesky(good))
        np.testing.assert_array_equal(out[1], previous[1])


class TestBatchedFamily:
    def test_batch_grouping_does_not_change_results(self):
        gen = sx.SimplexGenerator()
        datas = [gen.generate(stream(11, i))[1] for i in range(6)]
        fam = sx.RwmSimplexFamily("min")
        streams_a = [stream(12, i) for i in range(6)]
        all_at_once = fam.sample_batch(datas, 50, streams_a, 20)
        [one_alone] = fam.sample_batch([datas[3]], 50, [stream(12, 3)], 20)
        np.testing.assert_array_equal(all_at_once[3], one_alone)

    def test_grouping_holds_through_extensions_and_noise_blocks(self, monkeypatch):
        M, thin = 40, 5
        assert (sx._WARMUP + M * thin) % sx._NOISE_BLOCK != 0
        assert (M * thin) % sx._NOISE_BLOCK != 0
        fam = sx.RwmSimplexFamily("min")
        gen = sx.SimplexGenerator()
        datas = [gen.generate(stream(31, i))[1] for i in range(6)]
        blocks = record_blocks(monkeypatch)
        grouped = fam.sample_batch(datas, M, [stream(32, i) for i in range(6)], thin)
        assert len(blocks) >= 3  # the base block and at least two extensions
        assert any(isinstance(g, np.ndarray) for g in grouped)
        for i in range(6):
            alone = fam.sample_batch([datas[i]], M, [stream(32, i)], thin)[0]
            if isinstance(grouped[i], sx.SamplerError):
                assert isinstance(alone, sx.SamplerError) and str(alone) == str(grouped[i])
            else:
                np.testing.assert_array_equal(grouped[i], alone)

    def test_ess_target_met_or_flagged(self):
        gen = sx.SimplexGenerator()
        datas = [gen.generate(stream(13, i))[1] for i in range(24)]
        fam = sx.RwmSimplexFamily("softmax-fixed")
        out = fam.sample_batch(datas, 100, [stream(14, i) for i in range(24)], 20)
        assert all(isinstance(o, np.ndarray) for o in out)

    def test_run_records_a_failed_chain_as_its_message(self, monkeypatch):
        # the failed chains sample_batch returns are listed under their own type
        monkeypatch.setattr(sx, "_MIN_ESS", 1e9)
        monkeypatch.setattr(sx, "_MAX_EXTENSIONS", 0)
        fam = sx.RwmSimplexFamily("min")
        run = run_sbc(sx.SimplexGenerator(), fam, sx.quantity_library(), S=3, M=20, seed=11, thin_stride=2)
        message = "SamplerError: min ESS below 1e+09 after 0 chain extensions"
        assert run.failures == [(i, message) for i in range(3)]
        assert run.sim_index.size == 0

    def test_short_chains_fail_as_sampler_errors_in_one_call(self, monkeypatch):
        # M * thin < 10 is too short for ess: such chains are extended, and
        # even ten blocks cannot reach the target, so each chain fails on its
        # own instead of the group's call raising
        calls = []
        fam = sx.RwmSimplexFamily("min")
        sample_batch = fam.sample_batch
        monkeypatch.setattr(fam, "sample_batch", lambda *args: calls.append(1) or sample_batch(*args))
        run = run_sbc(sx.SimplexGenerator(), fam, sx.quantity_library(), S=6, M=5, seed=3)
        assert len(calls) == 1
        assert [i for i, _ in run.failures] == list(range(6))
        assert all(message.startswith("SamplerError: ") for _, message in run.failures)
        assert f"SamplerError: min ESS below 100 after {sx._MAX_EXTENSIONS} chain extensions" in {
            message for _, message in run.failures
        }


class TestQuantities:
    def test_log_prior_and_log_lik_match_scipy(self):
        from scipy import stats

        rng = stream(34, 0)
        draws = np.sort(rng.dirichlet(sx.ALPHA, size=200), axis=1)
        library = {q.name: q.kernel for q in sx.quantity_library()}
        for y in (np.array([0, 0, 0, 10]), np.array([1, 2, 3, 4]), np.array([3, 0, 5, 2])):
            log_prior, log_lik = (library[name](draws[None], [y])[0] for name in ("log_prior", "log_lik"))
            np.testing.assert_allclose(log_prior, stats.dirichlet.logpdf(draws.T, sx.ALPHA), rtol=1e-12)
            np.testing.assert_allclose(log_lik, stats.multinomial.logpmf(y, sx.N_TRIALS, draws), rtol=1e-12)

    @given(
        g=st.integers(min_value=1, max_value=40),
        M=st.integers(min_value=1, max_value=60),
        key=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_group_equals_groups_of_one_bit_for_bit(self, g, M, key):
        rng = stream(key, 0)
        draws = np.sort(rng.dirichlet(sx.ALPHA, size=(g, M + 1)), axis=-1)
        datasets = [rng.multinomial(sx.N_TRIALS, x) for x in draws[:, 0]]
        for q in sx.quantity_library():
            got = q.kernel(draws, datasets)
            expected = np.concatenate([q.kernel(draws[r : r + 1], [datasets[r]]) for r in range(g)])
            assert got.shape == (g, M + 1), q.name
            assert got.tobytes() == expected.tobytes(), q.name


class TestGeneratorAndExactSampler:
    def test_counts_sum_and_ordering(self):
        gen = sx.SimplexGenerator()
        rng = stream(15, 0)
        for _ in range(200):
            x, y = gen.generate(rng)
            assert y.sum() == sx.N_TRIALS
            assert np.all(np.diff(x) > 0.0)
            assert x.sum() == pytest.approx(1.0)

    def test_top_component_mean_matches_sorted_dirichlet(self):
        gen = sx.SimplexGenerator()
        rng = stream(16, 0)
        xs = np.array([gen.generate(rng)[0] for _ in range(100_000)])
        ref = np.sort(stream(17, 0).dirichlet(sx.ALPHA, size=100_000), axis=1)
        assert abs(xs[:, 3].mean() - ref[:, 3].mean()) < 0.01 * ref[:, 3].mean()

    def test_exact_sampler_ranks_pass_chi_square(self):
        from sbc_lab.diagnostics import RankSet, chi_square_uniformity

        run = run_sbc(
            sx.SimplexGenerator(),
            sx.ExactOrderedDirichletFamily(),
            sx.quantity_library(),
            S=2000,
            M=20,
            seed=808,
        )
        assert run.n_failed == 0
        for name in ("x[1]", "x[4]", "log_lik", "log_prior"):
            res = chi_square_uniformity(RankSet.from_run(run, name), n_bins=21)
            assert res.p_value > 1e-3, name

    def test_exact_sampler_matches_restricted_posterior_moments(self):
        # oracle: rejection from the unordered Dirichlet posterior
        y = np.array([1, 2, 3, 4])
        fam = sx.ExactOrderedDirichletFamily()
        [draws] = fam.sample_batch([y], 20_000, [stream(18, 0)])
        assert np.all(np.diff(draws, axis=1) > 0.0)
        rng = stream(19, 0)
        ref = rng.dirichlet(sx.ALPHA + y, size=400_000)
        ref = ref[np.all(np.diff(ref, axis=1) > 0.0, axis=1)]
        np.testing.assert_allclose(draws.mean(axis=0), ref.mean(axis=0), rtol=0.02)


    def test_exact_sampler_returns_the_error_of_an_improbable_dataset_in_place(self):
        # all ten counts on the smallest component leave the ordered region
        # too improbable; the other dataset of the group keeps its draws
        fam = sx.ExactOrderedDirichletFamily()
        y = np.array([1, 2, 3, 4])
        out = fam.sample_batch([np.array([10, 0, 0, 0]), y], 20, [stream(20, 0), stream(20, 1)])
        assert isinstance(out[0], sx.SamplerError)
        assert str(out[0]) == "ordered region too improbable for rejection sampling"
        [alone] = fam.sample_batch([y], 20, [stream(20, 1)])
        assert out[1].tobytes() == alone.tobytes()


class TestSbcSmoke:
    """Reduced-size pass/fail reproduction; full scale lives in the acceptance suite."""

    def test_broken_jacobian_detected_and_exact_sampler_passes(self):
        qs = [q.name for q in sx.quantity_library()]
        bad = run_sbc(
            sx.SimplexGenerator(),
            sx.RwmSimplexFamily("softmax-bad"),
            sx.quantity_library(),
            S=150,
            M=100,
            seed=20,
            thin_stride=20,
        )
        traces = {
            t.quantity: t
            for t in evolution_table({q: bad.ranks(q) for q in qs}, 100, step=25)
        }
        assert (
            traces["x[1]"].first_rejection() is not None
            or traces["log_prior"].first_rejection() is not None
        )
        exact = run_sbc(
            sx.SimplexGenerator(),
            sx.ExactOrderedDirichletFamily(),
            sx.quantity_library(),
            S=150,
            M=100,
            seed=21,
        )
        for t in evolution_table({q: exact.ranks(q) for q in qs}, 100, step=150):
            assert t.final_log_ratio >= 0.0, t.quantity

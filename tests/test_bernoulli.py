import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sbc_lab.models import bernoulli as bm
from sbc_lab.rng import stream


GRID = (np.arange(512) + 0.5) / 512


def sample_rank_cdf_prediction(family, M):
    """Predicted CDF of the M-draw rank of theta under this family.

    Conditional on y the prior draw sits at true-posterior quantile t, and
    the count of family draws below it is Binomial(M, Phi(F^-1(t | y) | y)).
    Averaging the binomial CDF over t (Gauss-Legendre) and over the two
    equally likely observations gives P(rank <= i) for i = 0..M.
    """
    nodes, weights = np.polynomial.legendre.leggauss(2048)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    out = np.zeros(M + 1)
    for y in (0, 1):
        p = family.cdf_at(bm.CORRECT.quantile(t, y), y)
        cdf = stats.binom.cdf(np.arange(M + 1)[:, None], M, p[None, :])
        out += 0.5 * (cdf * w[None, :]).sum(axis=1)
    return out


class TestFamilies:
    @pytest.mark.parametrize("name", bm.FAMILY_NAMES)
    @pytest.mark.parametrize("y", [0, 1])
    def test_quantile_cdf_roundtrip(self, name, y):
        fam = bm.get_family(name)
        theta = fam.quantile_at(GRID, y)
        assert np.all(np.diff(theta) >= -1e-12)
        assert theta.min() >= 0.0 and theta.max() <= 1.0
        np.testing.assert_allclose(fam.cdf_at(theta, y), GRID, atol=1e-9)

    def test_bisection_inversion_matches_closed_form(self):
        fam = bm.get_family("phi-C")
        blind = bm.QuantileFamily(name="blind", quantile=fam.quantile)
        s = np.array([0.1, 0.37, 0.5, 0.82])
        np.testing.assert_allclose(blind.cdf_at(s, 0), fam.cdf_at(s, 0), atol=1e-9)
        np.testing.assert_allclose(blind.cdf_at(s, 1), fam.cdf_at(s, 1), atol=1e-9)

    def test_sampling_matches_cdf(self):
        fam = bm.get_family("correct")
        draws = fam.sample(0, 100_000, stream(1, 0))
        assert stats.kstest(draws, lambda s: fam.cdf_at(s, 0)).pvalue > 1e-3

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            bm.get_family("phi-Z")


class TestQValue:
    @pytest.mark.parametrize("quantity", bm.QUANTITY_NAMES)
    @pytest.mark.parametrize("y", [0, 1])
    def test_correct_family_gives_identity(self, quantity, y):
        q = bm.q_value(bm.CORRECT, quantity, GRID, y)
        np.testing.assert_allclose(q, GRID, atol=1e-12)

    @pytest.mark.parametrize("name", bm.FAMILY_NAMES)
    def test_likelihood_equals_theta_given_one(self, name):
        fam = bm.get_family(name)
        np.testing.assert_array_equal(
            bm.q_value(fam, "likelihood", GRID, 1), bm.q_value(fam, "theta", GRID, 1)
        )

    @pytest.mark.parametrize("y", [0, 1])
    def test_q_nondecreasing(self, y):
        for name in bm.FAMILY_NAMES:
            fam = bm.get_family(name)
            for quantity in bm.QUANTITY_NAMES:
                q = bm.q_value(fam, quantity, GRID, y)
                assert np.all(np.diff(q) >= -1e-9), (name, quantity)

    @pytest.mark.parametrize("name,y", [("phi-C", 0), ("phi-C", 1), ("phi-B", 0)])
    def test_clamped_q_matches_rank_simulation(self, name, y):
        # independent oracle: simulate the continuous rank
        # r = C_phi(f(theta)) - U * D_phi(f(theta)) with theta from the true posterior
        fam = bm.get_family(name)
        rng = stream(7, y)
        t = rng.uniform(size=200_000)
        theta = np.sqrt(t) if y == 1 else 1.0 - np.sqrt(1.0 - t)  # true posterior draws
        v = np.minimum(theta, 0.5)
        h = float(fam.cdf_at(np.array(0.5), y))
        c = np.where(v < 0.5, fam.cdf_at(v, y), 1.0)
        d = np.where(v == 0.5, 1.0 - h, 0.0)
        r = c - rng.uniform(size=t.size) * d
        xs = np.array([0.05, 0.2, 0.4, float(h) - 1e-3, float(h) + 1e-3, 0.7, 0.9])
        xs = np.clip(xs, 0.0, 1.0)
        empirical = np.array([(r <= x).mean() for x in xs])
        predicted = bm.q_value(fam, "theta_clamped", xs, y)
        np.testing.assert_allclose(empirical, predicted, atol=0.005)

    def test_wrapped_q_matches_rank_simulation(self):
        fam = bm.get_family("phi-B")
        y = 1
        rng = stream(8, 0)
        t = rng.uniform(size=200_000)
        theta = np.sqrt(t)
        v = np.where(theta < 0.5, theta, theta - 1.0)
        h = float(fam.cdf_at(np.array(0.5), y))
        c = np.where(v < 0.0, fam.cdf_at(v + 1.0, y) - h, 1.0 - h + fam.cdf_at(v, y))
        xs = np.linspace(0.05, 0.95, 7)
        empirical = np.array([(c <= x).mean() for x in xs])
        predicted = bm.q_value(fam, "theta_wrapped", xs, y)
        np.testing.assert_allclose(empirical, predicted, atol=0.005)


class TestResiduals:
    @pytest.mark.parametrize("quantity", bm.QUANTITY_NAMES)
    def test_correct_family_passes_everything(self, quantity):
        assert bm.sbc_residual(bm.CORRECT, quantity) < 1e-10

    def test_phi_b_passes_theta_fails_wrapped(self):
        assert bm.sbc_residual(bm.PHI_B, "theta") < 1e-10
        assert bm.sbc_residual(bm.PHI_B, "theta_wrapped") > 0.01

    def test_phi_c_fails_theta(self):
        assert bm.sbc_residual(bm.PHI_C, "theta") > 0.01

    def test_phi_a_fails_theta_but_data_averaged_posterior_is_correct(self):
        assert bm.sbc_residual(bm.PHI_A, "theta") > 0.05
        theta = np.linspace(0.01, 0.99, 199)
        avg = 0.5 * (bm.PHI_A.pdf(theta, 0) + bm.PHI_A.pdf(theta, 1))
        np.testing.assert_allclose(avg, np.ones_like(theta), atol=1e-12)

    def test_grid_size_floor(self):
        with pytest.raises(ValueError):
            bm.sbc_residual(bm.CORRECT, "theta", grid_size=50)


class TestCompanionConstruction:
    def test_correct_family_is_fixed_point(self):
        x = GRID
        out = bm.solve_companion_quantile(lambda v: 1.0 - np.sqrt(1.0 - v), x)
        np.testing.assert_allclose(out, np.sqrt(x), atol=1e-12)

    def test_piecewise_linear_input_reproduces_phi_b_lower_branch(self):
        x = np.linspace(0.0, 0.74, 100)
        out = bm.solve_companion_quantile(lambda v: (2.0 / 3.0) * v, x)
        np.testing.assert_allclose(out, np.sqrt(6.0 * x + 4.0 * x**2) / 3.0, atol=1e-12)

    def test_constructed_family_reproduces_known_passing_family(self):
        def phi_b_zero(v):
            v = np.asarray(v, dtype=float)
            return np.where(v < 0.75, (2.0 / 3.0) * v, 0.5 + 2.0 * (v - 0.75))

        fam = bm.build_companion_family(phi_b_zero, name="rebuilt")
        assert bm.sbc_residual(fam, "theta") < 1e-8
        np.testing.assert_allclose(
            fam.quantile_at(GRID, 1), bm.PHI_B.quantile_at(GRID, 1), atol=1e-10
        )

    def test_lower_envelope_violation_detected(self):
        with pytest.raises(bm.RadicandConditionError):
            bm.build_companion_family(lambda v: np.sqrt(v))

    def test_upper_envelope_violation_detected(self):
        # valid near 0 but too low near 1: companion would leave [0, 1]
        with pytest.raises(bm.RadicandConditionError):
            bm.build_companion_family(lambda v: (2.0 / 3.0) * np.asarray(v, dtype=float))

    def test_non_monotone_companion_detected(self):
        ramp = lambda v: np.clip(4.0 * (v - 0.4), 0.0, 1.0)
        with pytest.raises(bm.MonotonicityConditionError):
            bm.build_companion_family(ramp)

    def test_dual_family_passes_both_quantities_and_pins_midpoint(self):
        mid = 1.0 - np.sqrt(2.0) / 2.0

        def lower(v):
            v = np.asarray(v, dtype=float)
            base = 1.0 - np.sqrt(1.0 - v)
            return base + 0.05 * v * (1.0 - 2.0 * v)

        assert abs(float(lower(np.array(0.5))) - mid) < 1e-12
        fam = bm.build_dual_passing_family(lower)
        assert bm.sbc_residual(fam, "theta") < 1e-8
        assert bm.sbc_residual(fam, "likelihood") < 1e-8
        assert abs(float(fam.quantile_at(np.array(0.5), 0)) - mid) < 1e-8

    def test_dual_family_requires_pinned_midpoint(self):
        with pytest.raises(ValueError):
            bm.build_dual_passing_family(lambda v: 0.4 * v)


class TestDiscreteModel:
    def test_q_matches_rank_simulation(self):
        # two-atom oracle: simulate ranks for an arbitrary (a, b) family
        a, y = 0.37, 0
        rng = stream(9, 0)
        true_first = 2.0 / 3.0
        theta_first = rng.uniform(size=300_000) < true_first
        c = np.where(theta_first, a, 1.0)
        d = np.where(theta_first, a, 1.0 - a)
        r = c - rng.uniform(size=theta_first.size) * d
        xs = np.linspace(0.01, 0.99, 9)
        empirical = np.array([(r <= x).mean() for x in xs])
        np.testing.assert_allclose(empirical, bm.discrete_q(a, xs, y), atol=0.005)

    def test_known_solutions_pass(self):
        assert bm.discrete_sbc_residual(0.5, 0.5) < 1e-12
        assert bm.discrete_sbc_residual(2.0 / 3.0, 1.0 / 3.0) < 1e-12

    def test_scan_finds_exactly_the_two_solutions(self):
        passing, values, residuals = bm.discrete_sbc_scan(grid_resolution=200)
        assert set(passing) == {(0.5, 0.5), (2.0 / 3.0, 1.0 / 3.0)}
        # nothing near-but-off the solutions passes
        step = values[1] - values[0]
        assert step <= 2.0 / 200.0
        assert residuals.shape == (len(values), len(values))

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            bm.discrete_sbc_scan(grid_resolution=50)


class TestQCurveCsv:
    def test_schema_and_identity_for_correct_family(self, tmp_path):
        path = tmp_path / "q_curve.csv"
        bm.write_q_curve_csv(bm.CORRECT, "theta", path, grid_size=128)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,q0,q1,avg"
        assert len(lines) == 129
        x, q0, q1, avg = (float(v) for v in lines[40].split(","))
        assert avg == pytest.approx(x, abs=1e-12)
        assert 0.5 * (q0 + q1) == pytest.approx(avg)


class TestSampleSbc:
    def test_correct_family_ranks_pass_chi_square(self):
        from sbc_lab.core import run_sbc
        from sbc_lab.diagnostics import RankSet, chi_square_uniformity

        run = run_sbc(
            bm.BernoulliGenerator(),
            bm.FamilySampler(bm.CORRECT),
            bm.quantity_library(),
            S=2000,
            M=20,
            seed=606,
        )
        for name in ("theta", "likelihood", "theta_clamped"):
            res = chi_square_uniformity(RankSet.from_run(run, name), n_bins=21)
            assert res.p_value > 1e-3, name


class TestQuantityLibrary:
    @given(
        g=st.integers(min_value=1, max_value=40),
        M=st.integers(min_value=1, max_value=60),
        key=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_group_equals_groups_of_one_bit_for_bit(self, g, M, key):
        rng = stream(key, 0)
        draws = rng.uniform(size=(g, M + 1, 1))
        draws[rng.uniform(size=(g, M + 1)) < 0.1] = 0.5  # the wrap's and the clamp's edge
        datasets = [int(y) for y in rng.integers(0, 2, size=g)]
        for q in bm.quantity_library():
            got = q.kernel(draws, datasets)
            expected = np.concatenate([q.kernel(draws[r : r + 1], [datasets[r]]) for r in range(g)])
            assert got.shape == (g, M + 1), q.name
            assert got.tobytes() == expected.tobytes(), q.name

class TestSamplePrediction:
    def test_correct_family_prediction_is_uniform(self):
        pred = sample_rank_cdf_prediction(bm.CORRECT, M=10)
        np.testing.assert_allclose(pred, (np.arange(11) + 1) / 11.0, atol=1e-6)

    def test_phi_c_prediction_deviates_from_uniform(self):
        pred = sample_rank_cdf_prediction(bm.PHI_C, M=10)
        assert np.max(np.abs(pred - (np.arange(11) + 1) / 11.0)) > 0.01

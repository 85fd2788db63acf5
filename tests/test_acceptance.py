"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one [acceptance] PASS/FAIL line. Statistical criteria run
on fixed seeds, so the whole suite is deterministic. The gaussian batches
(20 seeds x 1000 simulations) and the simplex batch (10 seeds, MCMC) are
the slow parts; everything is shared through module-scoped fixtures.
"""

import numpy as np
import pytest

from sbc_lab.core import run_sbc
from sbc_lab.diagnostics import (
    RankSet,
    chi_square_uniformity,
    evolution_table,
    gamma_result,
    gamma_statistic,
    log_gamma_statistic,
    split_ranks,
)
from sbc_lab.models import bernoulli as bm
from sbc_lab.models import gaussian, simplex
from sbc_lab.rng import stream
from test_bernoulli import sample_rank_cdf_prediction
from test_diagnostics import brute_force_gamma, gamma_null_quantile

SEEDS20 = [1000 + k for k in range(20)]
SEEDS10 = [500 + k for k in range(10)]
M = 100
STEP = 10


def check(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion}: {detail}"


def frac(values) -> float:
    values = list(values)
    return sum(values) / len(values)


# ---------------------------------------------------------------------------
# shared gaussian batches


def _sustained_onset(trace) -> float:
    """First prefix length from which the trace stays in rejection, else inf."""
    negative = trace.log_ratio < 0.0
    if not negative[-1]:
        return np.inf
    idx = len(negative) - 1
    while idx > 0 and negative[idx - 1]:
        idx -= 1
    return float(trace.n_sims[idx])


def _gaussian_batch(variant: str, seeds, S: int, n: int = 3):
    """Per-seed evolution summaries, pooled ranks, and sustained-rejection onsets."""
    family = gaussian.make_variant(variant, n)
    quantities = gaussian.quantity_library(n, family)
    names = [q.name for q in quantities]
    per_seed = []
    onsets = []
    pooled = {name: [] for name in names}
    for seed in seeds:
        run = run_sbc(gaussian.GaussianGenerator(n), family, quantities, S=S, M=M, seed=seed)
        ranks = {name: run.ranks(name) for name in names}
        traces = {t.quantity: t for t in evolution_table(ranks, M, step=STEP)}
        per_seed.append(
            {
                name: (traces[name].first_rejection(), traces[name].final_log_ratio)
                for name in names
            }
        )
        onsets.append({name: _sustained_onset(traces[name]) for name in names})
        for name in names:
            pooled[name].append(ranks[name])
    pooled = {name: np.concatenate(chunks) for name, chunks in pooled.items()}
    return per_seed, pooled, onsets


def fails_within(summary, name, horizon) -> bool:
    first = summary[name][0]
    return first is not None and first <= horizon


def passes_final(summary, name) -> bool:
    return summary[name][1] >= 0.0


@pytest.fixture(scope="module")
def correct_batch():
    return _gaussian_batch("correct", SEEDS20, S=1000)


@pytest.fixture(scope="module")
def prior_only_batch():
    return _gaussian_batch("prior-only", SEEDS20, S=1000)


@pytest.fixture(scope="module")
def ignore_first_n3_batch():
    return _gaussian_batch("ignore-first", SEEDS20, S=1000, n=3)


@pytest.fixture(scope="module")
def ignore_first_n20_batch():
    return _gaussian_batch("ignore-first", SEEDS20, S=1000, n=20)


@pytest.fixture(scope="module")
def independent_batch():
    return _gaussian_batch("independent-marginals", SEEDS20, S=1000)


@pytest.fixture(scope="module")
def non_monotonic_batch():
    return _gaussian_batch("non-monotonic", SEEDS20, S=500)


@pytest.fixture(scope="module")
def small_bias_batch():
    return _gaussian_batch("small-bias", SEEDS20, S=1000)


def test_c01_correct_posterior_calibration(correct_batch):
    per_seed, pooled, _ = correct_batch
    names = list(pooled)
    pass_rates = {name: frac(passes_final(s, name) for s in per_seed) for name in names}
    chi2_ps = {
        name: chi_square_uniformity(RankSet(pooled[name], M), n_bins=M + 1).p_value
        for name in names
    }
    ok = all(rate >= 0.90 for rate in pass_rates.values()) and all(
        p > 1e-3 for p in chi2_ps.values()
    )
    worst = min(pass_rates, key=pass_rates.get)
    check(
        "1 correct-posterior calibration",
        ok,
        f"worst pass rate {pass_rates[worst]:.2f} ({worst}); min chi2 p {min(chi2_ps.values()):.2e}",
    )


def test_c02_prior_only_detection(prior_only_batch):
    per_seed, _, _ = prior_only_batch
    detect = {
        name: frac(fails_within(s, name, 100) for s in per_seed)
        for name in ("mvn_log_lik", "mvn_log_lik[1]", "mvn_log_lik[2]")
    }
    keep = {
        name: frac(passes_final(s, name) for s in per_seed)
        for name in ("mu[1]", "mu[2]", "sum", "diff", "product")
    }
    ok = all(rate >= 0.90 for rate in detect.values()) and all(
        rate >= 0.90 for rate in keep.values()
    )
    check(
        "2 prior-only detection",
        ok,
        f"likelihood detection within 100: {min(detect.values()):.2f}; "
        f"parameter pass rate: {min(keep.values()):.2f}",
    )


def test_c03_split_non_uniformity():
    n = 3
    family = gaussian.make_variant("prior-only", n)
    quantities = gaussian.quantity_library(n, family)
    run = run_sbc(gaussian.GaussianGenerator(n), family, quantities, S=1000, M=M, seed=4242)
    pos, neg = split_ranks(run, lambda y: float(np.mean(y)) > 0.0, "mu[1]")
    assert max(pos.S, neg.S) <= 580  # each half rejects with about 500 simulations
    res_pos = gamma_result(pos, "mu[1]/mean-positive")
    res_neg = gamma_result(neg, "mu[1]/mean-negative")
    res_all = gamma_result(RankSet.from_run(run, "mu[1]"), "mu[1]")
    ok = res_pos.log_ratio < 0.0 and res_neg.log_ratio < 0.0 and res_all.log_ratio >= 0.0
    check(
        "3 split non-uniformity",
        ok,
        f"halves log_ratio {res_pos.log_ratio:.1f}/{res_neg.log_ratio:.1f}, "
        f"unsplit {res_all.log_ratio:.2f}",
    )


def test_c04_ignored_datapoint_sensitivity(ignore_first_n3_batch, ignore_first_n20_batch):
    per_seed3, _, _ = ignore_first_n3_batch
    detect3 = {
        name: frac(fails_within(s, name, 100) for s in per_seed3)
        for name in ("mvn_log_lik", "mvn_log_lik[1]")
    }
    keep3 = frac(passes_final(s, "mvn_log_lik[2]") for s in per_seed3)

    def horizon(s, name):
        first = s[name][0]
        return first if first is not None else np.inf

    ordering3 = frac(
        horizon(s, "mvn_log_lik[1]") <= horizon(s, "mvn_log_lik") for s in per_seed3
    )
    per_seed20, _, _ = ignore_first_n20_batch
    detect20 = frac(fails_within(s, "mvn_log_lik[1]", 1000) for s in per_seed20)
    # the n=20 variant is genuinely (if negligibly) off for mu, so the pass
    # rate sits below the exactly-calibrated 95%; hold it to the 80% bar
    keep20 = min(
        frac(passes_final(s, name) for s in per_seed20) for name in ("mu[1]", "mu[2]")
    )
    ok = (
        all(rate >= 0.90 for rate in detect3.values())
        and keep3 >= 0.90
        and ordering3 >= 0.70
        and detect20 >= 0.90
        and keep20 >= 0.80
    )
    check(
        "4 ignored-datapoint sensitivity",
        ok,
        f"n=3 detect {min(detect3.values()):.2f} keep[2] {keep3:.2f} ordering {ordering3:.2f}; "
        f"n=20 detect[1] {detect20:.2f} mu pass {keep20:.2f}",
    )


def test_c05_correlation_structure_detection(independent_batch):
    per_seed, _, _ = independent_batch
    keep = min(
        frac(passes_final(s, name) for s in per_seed) for name in ("mu[1]", "mu[2]")
    )
    lik = frac(fails_within(s, "mvn_log_lik", 200) for s in per_seed)
    derived = {
        name: frac(fails_within(s, name, 1000) for s in per_seed)
        for name in ("diff", "product", "sum")
    }
    ok = keep >= 0.80 and lik >= 0.80 and all(rate >= 0.80 for rate in derived.values())
    check(
        "5 correlation-structure detection",
        ok,
        f"mu pass {keep:.2f}; joint lik within 200 {lik:.2f}; "
        f"derived within 1000 {min(derived.values()):.2f}",
    )


def test_c06_non_monotonic_counterexample(non_monotonic_batch):
    # NOTE: the drop_mu1 clause is expected to fail. With the maximal valid
    # warp exponent (squaring; anything stronger breaks monotonicity of the
    # compensating branch), the asymptotic ECDF violation seen by drop_mu1
    # is about 0.049 (vs 0.080 for abs_mu1), which yields a measured
    # per-seed detection probability of only ~0.75 by 500 simulations
    # (200-seed study), so a >= 90%-of-seeds bar at S=500 is not reachable.
    per_seed, _, _ = non_monotonic_batch
    keep = min(
        frac(passes_final(s, name) for s in per_seed) for name in ("mu[1]", "mu[2]")
    )
    detect_abs = frac(fails_within(s, "abs_mu1", 500) for s in per_seed)
    detect_drop = frac(fails_within(s, "drop_mu1", 500) for s in per_seed)
    n = 3
    family = gaussian.make_variant("non-monotonic", n)
    quantities = gaussian.quantity_library(n, family)
    run = run_sbc(gaussian.GaussianGenerator(n), family, quantities, S=500, M=M, seed=777)
    pos, neg = split_ranks(run, gaussian.grand_mean_positive, "mu[1]")
    res_pos = gamma_result(pos, "mu[1]/warp-region")
    res_neg = gamma_result(neg, "mu[1]/other-region")
    res_all = gamma_result(RankSet.from_run(run, "mu[1]"), "mu[1]")
    ok = (
        keep >= 0.90
        and detect_abs >= 0.90
        and detect_drop >= 0.90
        and res_pos.log_ratio < 0.0
        and res_neg.log_ratio < 0.0
        and res_all.log_ratio >= 0.0
    )
    check(
        "6 non-monotonic counterexample",
        ok,
        f"mu pass {keep:.2f}; abs within 500 {detect_abs:.2f}; drop within 500 "
        f"{detect_drop:.2f} (known shortfall); split halves "
        f"{res_pos.log_ratio:.1f}/{res_neg.log_ratio:.1f} unsplit {res_all.log_ratio:.2f}",
    )


def test_c07_small_bias_precision(small_bias_batch):
    per_seed, _, onsets = small_bias_batch
    names = list(per_seed[0])
    detect = {name: frac(fails_within(s, name, 1000) for s in per_seed) for name in names}
    # "fails no later than" compares the onset of sustained rejection: the
    # first crossing alone is dominated by transient dips at tiny prefixes
    # (every quantity is genuinely miscalibrated here, so early noise
    # crossings recover and would turn the comparison into a coin flip)
    early = min(
        frac(o[name] <= o["mu[1]"] for o in onsets) for name in ("mvn_log_lik", "diff")
    )
    ok = all(rate >= 0.90 for rate in detect.values()) and early >= 0.70
    worst = min(detect, key=detect.get)
    check(
        "7 small-bias precision",
        ok,
        f"worst detection by 1000: {detect[worst]:.2f} ({worst}); sustained-onset ordering {early:.2f}",
    )


def test_c08_density_ratio_completeness(prior_only_batch):
    per_seed, _, _ = prior_only_batch
    detect = frac(fails_within(s, "density_ratio", 200) for s in per_seed)
    n = 3
    family = gaussian.make_variant("correct", n)
    ratio_only = [q for q in gaussian.quantity_library(n, family) if q.name == "density_ratio"]
    run = run_sbc(gaussian.GaussianGenerator(n), family, ratio_only, S=2000, M=M, seed=31337)
    ranked = run.evaluated
    all_tied = bool(np.all(run.n_less[ranked] == 0) and np.all(run.n_equals[ranked] == M))
    chi2 = chi_square_uniformity(RankSet.from_run(run, "density_ratio"), n_bins=M + 1)
    ok = detect >= 0.90 and all_tied and chi2.p_value > 1e-3
    check(
        "8 density-ratio completeness",
        ok,
        f"prior-only detection within 200: {detect:.2f}; correct-variant all-tied={all_tied} "
        f"chi2 p {chi2.p_value:.3f}",
    )


def test_c09_analytic_bernoulli_suite():
    correct_ok = all(
        bm.sbc_residual(bm.CORRECT, q) < 1e-10 for q in bm.QUANTITY_NAMES
    )
    counterexamples_ok = (
        bm.sbc_residual(bm.PHI_A, "theta") > 1e-2
        and bm.sbc_residual(bm.PHI_C, "theta") > 1e-2
        and bm.sbc_residual(bm.PHI_B, "theta") < 1e-10
        and bm.sbc_residual(bm.PHI_B, "theta_wrapped") > 1e-2
    )
    mid = 1.0 - np.sqrt(2.0) / 2.0

    def lower(v):
        v = np.asarray(v, dtype=float)
        return 1.0 - np.sqrt(1.0 - v) + 0.05 * v * (1.0 - 2.0 * v)

    dual = bm.build_dual_passing_family(lower)
    dual_ok = (
        bm.sbc_residual(dual, "theta") < 1e-8
        and bm.sbc_residual(dual, "likelihood") < 1e-8
        and abs(float(dual.quantile_at(np.array(0.5), 0)) - mid) < 1e-8
    )
    passing, _, _ = bm.discrete_sbc_scan(grid_resolution=200)
    scan_ok = set(passing) == {(0.5, 0.5), (2.0 / 3.0, 1.0 / 3.0)}
    ok = correct_ok and counterexamples_ok and dual_ok and scan_ok
    check(
        "9 analytic two-point suite",
        ok,
        f"correct {correct_ok}, counterexamples {counterexamples_ok}, "
        f"dual-construction {dual_ok}, discrete scan {scan_ok}",
    )


def test_c10_sample_continuous_bridge():
    S, M_small = 5000, 10
    family = bm.FamilySampler(bm.PHI_C)
    quantities = [q for q in bm.quantity_library() if q.name == "theta"]
    run = run_sbc(bm.BernoulliGenerator(), family, quantities, S=S, M=M_small, seed=2718)
    ranks = run.ranks("theta")
    predicted = sample_rank_cdf_prediction(bm.PHI_C, M_small)
    worst_sigma = 0.0
    for i in range(M_small):
        empirical = float(np.mean(ranks <= i))
        se = np.sqrt(predicted[i] * (1.0 - predicted[i]) / S)
        worst_sigma = max(worst_sigma, abs(empirical - predicted[i]) / se)
    ok = worst_sigma <= 3.0
    check("10 sample-continuous bridge", ok, f"max |empirical-predicted| = {worst_sigma:.2f} se")


def test_c11_gamma_machinery():
    rng = np.random.default_rng(90210)
    worst_rel = 0.0
    for _ in range(1000):
        M_r = int(rng.integers(1, 51))
        S_r = int(rng.integers(1, 201))
        ranks = rng.integers(0, M_r + 1, size=S_r)
        mine = gamma_statistic(RankSet(ranks, M_r))
        oracle = brute_force_gamma(ranks, M_r)
        worst_rel = max(worst_rel, abs(mine - oracle) / oracle)
    S_n, M_n = 500, 100
    log_bar = np.log(gamma_null_quantile(S_n, M_n, 0.05, 5000, stream(424242, 0)))
    trials = 1000
    rng2 = stream(424242, 1)
    hits = sum(
        log_gamma_statistic(RankSet(rng2.integers(0, M_n + 1, size=S_n), M_n)) < log_bar
        for _ in range(trials)
    )
    rate = hits / trials
    ok = worst_rel <= 1e-12 and abs(rate - 0.05) <= 0.02
    check(
        "11 gamma machinery",
        ok,
        f"max oracle rel err {worst_rel:.2e}; null rejection rate {rate:.3f}",
    )


def test_c12_simplex_case_study():
    qs = [q.name for q in simplex.quantity_library()]
    names_pass = ("min", "gamma", "softmax-fixed")
    pass_rates = {}
    for variant in names_pass:
        finals = []
        for seed in SEEDS10:
            run = run_sbc(
                simplex.SimplexGenerator(),
                simplex.RwmSimplexFamily(variant),
                simplex.quantity_library(),
                S=300,
                M=M,
                seed=seed,
                thin_stride=20,
            )
            traces = evolution_table({q: run.ranks(q) for q in qs}, M, step=STEP)
            finals.append({t.quantity: t.final_log_ratio for t in traces})
        pass_rates[variant] = {
            q: frac(f[q] >= 0.0 for f in finals) for q in qs
        }
    detect = []
    for seed in SEEDS10:
        run = run_sbc(
            simplex.SimplexGenerator(),
            simplex.RwmSimplexFamily("softmax-bad"),
            simplex.quantity_library(),
            S=1000,
            M=M,
            seed=seed,
            thin_stride=20,
        )
        traces = {
            t.quantity: t
            for t in evolution_table({q: run.ranks(q) for q in ("x[1]", "log_prior")}, M, step=STEP)
        }
        hit = any(
            traces[q].first_rejection() is not None and traces[q].first_rejection() <= 1000
            for q in ("x[1]", "log_prior")
        )
        detect.append(hit)
    detect_rate = frac(detect)

    rng = np.random.default_rng(5150)
    fd_ok = True
    log_s_ok = True
    from test_simplex import finite_difference_log_det

    for _ in range(25):
        u = rng.uniform(0.05, 0.95, 3)
        numeric = finite_difference_log_det(lambda w: simplex.transform_min(w).x[:3], u)
        fd_ok &= abs(simplex.transform_min(u).log_jacobian - numeric) < 1e-6
        v = np.cumsum(rng.uniform(0.05, 0.8, 3))
        numeric = finite_difference_log_det(
            lambda w: simplex.transform_softmax(w, fixed=True).x[1:], v
        )
        fd_ok &= abs(simplex.transform_softmax(v, fixed=True).log_jacobian - numeric) < 1e-6
        s = 1.0 + np.exp(v).sum()
        gap = simplex.transform_softmax(v, fixed=False).log_jacobian - numeric
        log_s_ok &= abs(gap - np.log(s)) < 1e-6

    worst = min(min(rates.values()) for rates in pass_rates.values())
    ok = worst >= 0.90 and detect_rate >= 0.90 and fd_ok and log_s_ok
    check(
        "12 simplex case study",
        ok,
        f"worst variant/quantity pass rate {worst:.2f}; softmax-bad detection {detect_rate:.2f}; "
        f"jacobian FD {fd_ok}; bad-offset==log s {log_s_ok}",
    )

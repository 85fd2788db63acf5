import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sbc_lab import diagnostics
from sbc_lab.binomial import log_binom_tables, log_binom_tail_checkpoints, log_binom_tail_minima
from sbc_lab.cli import main
from sbc_lab.core import run_sbc
from sbc_lab.diagnostics import (
    _N_MC,
    _NULL_STREAM,
    NULL_CALIBRATION_SEED,
    RankSet,
    _check_max_rank,
    _log_gammas_for_matrix,
    _null_cache,
    _null_least,
    _null_rows,
    _rank_counts,
    _TailStore,
    _z_points,
    chi_square_uniformity,
    ecdf_band,
    evolution_table,
    evolution_trace,
    gamma_result,
    gamma_statistic,
    log_gamma_null_quantile_cached,
    log_gamma_statistic,
)
from sbc_lab.models import gaussian
from sbc_lab.reports import read_ranks_csv
from sbc_lab.rng import stream


def brute_force_gamma(ranks, M):
    """Direct linear-space summation of binomial CDFs over all i."""
    S = len(ranks)
    combs = [math.comb(S, k) for k in range(S + 1)]
    best = np.inf
    for i in range(1, M + 2):
        z = i / (M + 1)
        R = int(np.count_nonzero(np.asarray(ranks) < i))
        terms = np.array([combs[k] * z**k * (1 - z) ** (S - k) for k in range(S + 1)])
        cdf = terms[: R + 1].sum()
        upper = terms[R:].sum()  # P(X >= R) = 1 - Bin(R - 1)
        best = min(best, cdf, upper)
    return 2.0 * best


def _check_null_args(level: float, n_mc: int) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly between 0 and 1")
    if n_mc < 1000:
        raise ValueError("n_mc must be at least 1000")


def gamma_null_quantile(
    S: int, M: int, level: float, n_mc: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo quantile of gamma under uniform ranks, deterministic given rng.

    An estimator independent of the cached threshold, which is fixed at
    level 0.05 and 5 000 replicates: it keeps ``level`` and ``n_mc`` so that
    the cache can be checked against fresh draws of any size (c11 among them).
    """
    _check_null_args(level, n_mc)
    if S < 1:
        raise ValueError("S must be at least 1")
    _check_max_rank(M)
    ranks = rng.integers(0, M + 1, size=(n_mc, S))
    log_gammas = _log_gammas_for_matrix(ranks, M)
    return float(np.exp(np.quantile(log_gammas, level)))


def whole_table(S, M):
    """The whole (M+1, S+1) table of tail minima at every point, from the built rows.

    Row i - 1 is the tail minima at z_i. The rows with z_i <= 1/2 are built;
    each row with z_i > 1/2 is the row of its mirror z_{M+1-i} = 1 - z_i
    reversed, and the z = 1 row is the point mass at S, with the bits a
    build gives it.
    """
    half = (M + 1) // 2
    built = log_binom_tail_minima(S, _z_points(M)[:half])
    table = np.empty((M + 1, S + 1))
    table[:half] = built
    table[half:M] = built[: M - half][::-1, ::-1]
    table[M] = -np.inf
    table[M, S] = 0.0
    return table


def exact_null_cdf(S, M, x, strict=False):
    """Exact P(log gamma <= x), or P(log gamma < x) if strict, under uniform ranks.

    Säilynoja, Bürkner & Vehtari (arXiv:2103.10522): given R_{i-1} = r the
    next ECDF count R_i - r is Binomial(S - r, 1 / (M + 2 - i)). A dynamic
    program over r, kept inside the counts where every point's
    log 2 + tail[i, R_i] stays above x (at or above, if strict), gives the
    probability that gamma clears x. The tail rows are the package's table
    definition, from the full tables: a row with z_i > 1/2 is the row of its
    mirror z_{M+1-i} = 1 - z_i, reversed.
    """
    log_cdf, log_ge = log_binom_tables(S, np.arange(1, M + 2) / (M + 1))
    minima = np.minimum(log_cdf, log_ge[:, : S + 1])
    mirrored = np.arange((M + 1) // 2, M)
    minima[mirrored] = minima[M - 1 - mirrored, ::-1]
    tail = math.log(2.0) + minima
    inside = tail >= x if strict else tail > x
    r = np.arange(S + 1)
    p = np.zeros(S + 1)
    p[0] = 1.0
    for i in range(1, M + 2):
        # step[r, r'] = P(R_i = r' | R_{i-1} = r)
        step = stats.binom.pmf(r[None, :] - r[:, None], S - r[:, None], 1.0 / (M + 2 - i))
        p = (p @ step) * inside[i - 1]
    return 1.0 - p.sum()


def null_rows_and_tie(S, M):
    """The (5000, S) null calibration replicates and the one whose gamma is nearest
    the cached 5% quantile (at S=90, M=100 it is the quantile itself)."""
    null_ranks = np.concatenate(list(_null_rows(S, M))).T
    log_bar = log_gamma_null_quantile_cached(S, M)
    log_gammas = np.array([log_gamma_statistic(RankSet(r, M)) for r in null_ranks])
    return null_ranks, null_ranks[np.argmin(np.abs(log_gammas - log_bar))]


class TestRankSet:
    def test_non_integral_ranks_rejected(self):
        for ranks in ([0.5, 1.7, 2.2], [0.0, 1.0, 2.5], [np.nan, 1.0], [np.inf]):
            with pytest.raises(ValueError, match="ranks must be integers"):
                RankSet(np.array(ranks), 2)

    def test_no_rank_besides_zero_rejected(self):
        # with M = 0 every rank set is uniform: gamma would be 2 and pass, chi-square nan
        with pytest.raises(ValueError, match="M must be at least 1"):
            RankSet(np.zeros(5, dtype=int), 0)
        ranks = np.zeros(5, dtype=int)
        for call in (
            lambda: evolution_table({"a": ranks}, 0),
            lambda: evolution_trace(ranks, 0),
            lambda: ecdf_band(5, 0),
            lambda: log_gamma_null_quantile_cached(5, 0),
            lambda: gamma_null_quantile(5, 0, 0.05, 1000, stream(0, 0)),
        ):
            with pytest.raises(ValueError, match="M must be at least 1"):
                call()

    @pytest.mark.parametrize(
        "ranks", [np.array([[0, 1, 2], [3, 4, 5]]), np.array(3)], ids=["2-D", "0-D"]
    )
    def test_ranks_that_are_not_1d_rejected(self, ranks):
        # the statistics would read a 2-D table as its flat ranks, and a 0-D rank as one
        with pytest.raises(ValueError, match=re.escape(f"ranks must be a 1-D array, got shape {ranks.shape}")):
            RankSet(ranks, 5)

    def test_integral_ranks_of_any_dtype_accepted(self):
        for ranks in ([0, 1, 2], np.array([0.0, 1.0, 2.0]), np.array([], dtype=float)):
            rank_set = RankSet(np.asarray(ranks), 2)
            assert rank_set.ranks.dtype == int
            assert rank_set.ranks.tolist() == np.asarray(ranks).tolist()


class TestGammaStatistic:
    def test_all_zero_ranks(self):
        # S=10, M=1: the i=1 point has R=10, z=1/2, upper tail 2^-10
        assert gamma_statistic(RankSet(np.zeros(10, dtype=int), 1)) == pytest.approx(2.0**-9)

    def test_single_rank(self):
        assert gamma_statistic(RankSet(np.array([0]), 1)) == pytest.approx(1.0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            M = int(rng.integers(1, 51))
            S = int(rng.integers(1, 201))
            ranks = rng.integers(0, M + 1, size=S)
            mine = gamma_statistic(RankSet(ranks, M))
            oracle = brute_force_gamma(ranks, M)
            assert abs(mine - oracle) <= 1e-12 * oracle

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        ranks = rng.integers(0, 21, size=300)
        a = log_gamma_statistic(RankSet(ranks, 20))
        b = log_gamma_statistic(RankSet(rng.permutation(ranks), 20))
        assert a == b

    def test_extreme_case_stays_finite_in_log_space(self):
        lg = log_gamma_statistic(RankSet(np.zeros(2000, dtype=int), 100))
        assert np.isfinite(lg) and lg < -2000.0  # gamma itself would underflow

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 60).flatmap(
            lambda M: st.tuples(st.just(M), st.lists(st.integers(0, M), min_size=1, max_size=400))
        )
    )
    def test_rank_reversal_invariance(self, case):
        # r -> M - r reflects the ECDF; the binomial tails swap, so gamma stays
        M, ranks = case
        ranks = np.asarray(ranks)
        a = log_gamma_statistic(RankSet(ranks, M))
        b = log_gamma_statistic(RankSet(M - ranks, M))
        assert abs(a - b) <= 1e-12

    def test_gamma_in_range(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            ranks = rng.integers(0, 11, size=40)
            g = gamma_statistic(RankSet(ranks, 10))
            assert 0.0 < g <= 2.0


class TestNullQuantile:
    def test_quantile_monotone_in_level(self):
        rng1, rng2 = stream(3, 1), stream(3, 1)
        q05 = gamma_null_quantile(200, 20, 0.05, 2000, rng1)
        q50 = gamma_null_quantile(200, 20, 0.50, 2000, rng2)
        assert q05 <= q50

    def test_mc_stability_across_seeds(self):
        a = gamma_null_quantile(1000, 100, 0.05, 5000, stream(1, 0))
        b = gamma_null_quantile(1000, 100, 0.05, 5000, stream(2, 0))
        assert abs(a - b) / max(a, b) < 0.15

    def test_null_calibration(self):
        # P(gamma < gamma_bar(0.05)) = 0.05 +- 0.02 under uniform ranks
        S, M = 500, 100
        log_bar = log_gamma_null_quantile_cached(S, M)
        rng = stream(77, 0)
        hits = 0
        trials = 1000
        for _ in range(trials):
            ranks = rng.integers(0, M + 1, size=S)
            hits += log_gamma_statistic(RankSet(ranks, M)) < log_bar
        assert abs(hits / trials - 0.05) < 0.02

    def test_gamma_result_fields(self):
        ranks = stream(9, 9).integers(0, 101, size=400)
        res = gamma_result(RankSet(ranks, 100), quantity="theta")
        assert res.S == 400 and res.M == 100
        assert res.log_ratio == pytest.approx(res.log_gamma - res.log_gamma_bar)
        assert res.gamma == pytest.approx(np.exp(res.log_gamma))

    def test_n_mc_floor(self):
        with pytest.raises(ValueError):
            gamma_null_quantile(10, 5, 0.05, 100, stream(0, 0))
        with pytest.raises(ValueError):
            log_gamma_null_quantile_cached(0, 10)

    def test_threshold_is_the_5pct_quantile_of_the_sorted_null(self):
        # computed once where the null is filled, and read alike by the
        # report's gamma, a trace ending at S and the band
        S, M = 37, 20
        _null_cache.clear()
        log_bar = log_gamma_null_quantile_cached(S, M)
        log_null = _null_cache[(S, M)]
        assert log_null.shape == (5000,)
        assert np.array_equal(log_null, np.sort(log_null))
        assert log_bar == float(np.quantile(log_null, 0.05))
        ranks = stream(9, 4).integers(0, M + 1, size=S)
        log_gamma = log_gamma_statistic(RankSet(ranks, M))
        assert gamma_result(RankSet(ranks, M)).log_gamma_bar == log_bar
        assert evolution_trace(ranks, M, step=S).log_ratio.tolist() == [log_gamma - log_bar]
        assert ecdf_band(S, M).pointwise_level == float(np.exp(log_bar))

    def test_no_simulations_rejected(self):
        # no rank set can fall below the threshold of a null without simulations
        with pytest.raises(ValueError, match="S must be at least 1"):
            gamma_null_quantile(0, 10, 0.05, 1000, stream(0, 0))

    def test_tie_at_threshold_passes(self):
        # a null draw whose gamma is the 5% quantile itself must not reject:
        # the statistic and the threshold come from the same kernel
        S, M = 90, 100
        _, row = null_rows_and_tie(S, M)
        res = gamma_result(RankSet(row, M))
        assert res.log_ratio == 0.0
        assert not res.rejects
        trace = evolution_trace(row, M, step=30)
        assert trace.n_sims[-1] == S
        assert trace.final_log_ratio == 0.0

    def test_exact_small_s_oracle(self):
        # the cached 5% quantile against the exact null cdf, within 4 MC sigma
        S, M = 40, 9
        log_bar = log_gamma_null_quantile_cached(S, M)
        sigma = math.sqrt(0.05 * 0.95 / 5000)
        assert exact_null_cdf(S, M, log_bar, strict=True) - 4 * sigma <= 0.05
        assert 0.05 <= exact_null_cdf(S, M, log_bar) + 4 * sigma

    def test_exact_oracle_matches_enumeration(self):
        # S=3, M=2: all 27 rank triples are equally likely
        S, M = 3, 2
        grid = np.stack(np.meshgrid(*[np.arange(M + 1)] * S, indexing="ij"), -1).reshape(-1, S)
        log_gammas = np.array([log_gamma_statistic(RankSet(r, M)) for r in grid])
        for x in np.unique(log_gammas):
            assert exact_null_cdf(S, M, x) == pytest.approx(np.mean(log_gammas <= x), abs=1e-12)
            assert exact_null_cdf(S, M, x, strict=True) == pytest.approx(
                np.mean(log_gammas < x), abs=1e-12
            )


class TestEvolution:
    def test_prefix_grid_and_final_consistency(self):
        ranks = stream(21, 4).integers(0, 51, size=205)
        trace = evolution_trace(ranks, 50, quantity="q", step=20)
        assert trace.n_sims[0] == 20
        assert trace.n_sims[-1] == 205  # S always included
        for n, log_ratio in zip(trace.n_sims, trace.log_ratio):
            fresh = log_gamma_statistic(RankSet(ranks[:n], 50)) - log_gamma_null_quantile_cached(n, 50)
            assert log_ratio == fresh

    def test_multi_quantity_table_matches_single(self):
        rng = stream(33, 0)
        table = {
            "a": rng.integers(0, 21, size=120),
            "b": rng.integers(0, 21, size=120),
        }
        joint = evolution_table(table, 20, step=30)
        single = evolution_trace(table["b"], 20, quantity="b", step=30)
        np.testing.assert_allclose(joint[1].log_ratio, single.log_ratio)

    def test_degenerate_ranks_reject_quickly(self):
        trace = evolution_trace(np.zeros(100, dtype=int), 100, step=10)
        assert trace.first_rejection() is not None
        assert trace.first_rejection() <= 20
        with pytest.raises(ValueError):
            evolution_trace(np.zeros(0, dtype=int), 100, step=10)
        with pytest.raises(ValueError):
            evolution_table({"a": np.full(10, 101), "b": np.zeros(10, dtype=int)}, 100)

    def test_non_integral_ranks_rejected(self):
        ranks = stream(21, 5).integers(0, 50, size=40)
        for bad in (ranks + 0.7, np.where(ranks == ranks[3], np.nan, ranks)):
            with pytest.raises(ValueError, match="ranks must be integers"):
                evolution_table({"a": ranks, "b": bad}, 50, step=20)
        # integral floats are ranks
        assert evolution_table({"a": ranks.astype(float)}, 50, step=20)[0].log_ratio.tolist() == (
            evolution_table({"a": ranks}, 50, step=20)[0].log_ratio.tolist()
        )

    def test_ranks_that_are_not_1d_rejected(self):
        # else a (2, 2) array would be traced as one quantity's four ranks
        with pytest.raises(ValueError, match=r"ranks must be a 1-D array, got shape \(2, 2\)"):
            evolution_table({"a": np.array([[1, 2], [3, 4]])}, 5)

    def test_prefix_pass_matches_standalone_null(self):
        # the null of prefix n is the first n calibration rows, whether it is
        # filled on its own or by an evolution pass; 63, 64, 65 straddle a row block
        M, sizes = 100, (1, 63, 64, 65, 370)
        blocks = np.concatenate(list(_null_rows(370, M)))
        rng = stream(NULL_CALIBRATION_SEED, _NULL_STREAM + (M << 32) + 5000)
        assert np.array_equal(blocks, rng.integers(0, M + 1, size=(370, 5000)))
        standalone = {}
        for n in sizes:
            _null_cache.clear()
            standalone[n] = (log_gamma_null_quantile_cached(n, M), _null_cache[(n, M)])
        ranks = stream(41, 2).integers(0, M + 1, size=370)
        for n in sizes:
            _null_cache.clear()
            evolution_table({"q": ranks[:n]}, M, step=37)
            assert np.array_equal(_null_cache[(n, M)], standalone[n][1])
            assert log_gamma_null_quantile_cached(n, M) == standalone[n][0]

    def test_fill_order_gives_identical_files(self, tmp_path):
        # report first (the CLI order) or evolution first (a warm loop)
        argv = ["run", "--model", "gaussian", "--sims", "130", "--draws", "50", "--seed", "3"]
        argv += ["--step", "20", "--no-timestamp", "--out"]
        _null_cache.clear()
        main(argv + [str(tmp_path / "a")])
        ranks, M = read_ranks_csv(tmp_path / "a" / "ranks.csv")
        _null_cache.clear()
        evolution_table(ranks, M, step=20)
        main(argv + [str(tmp_path / "b")])
        for name in ("report.json", "evolution.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestNullPass:
    """The null pass holds one int32 count matrix and reads its table a row at a time."""

    @pytest.mark.parametrize("M", [1, 2, 100, 1000, 65535])
    def test_int32_calibration_draw_equals_the_int64_draw(self, M):
        key = _NULL_STREAM + (M << 32) + _N_MC
        narrow, wide = stream(NULL_CALIBRATION_SEED, key), stream(NULL_CALIBRATION_SEED, key)
        for rows in (1, 64, 7):
            drawn = narrow.integers(0, M + 1, size=(rows, _N_MC), dtype=np.int32)
            assert drawn.dtype == np.int32
            assert np.array_equal(drawn, wide.integers(0, M + 1, size=(rows, _N_MC)))
            assert repr(narrow.bit_generator.state) == repr(wide.bit_generator.state)
        rows = np.concatenate(list(_null_rows(72, M)))
        assert rows.dtype == np.int32
        rng = stream(NULL_CALIBRATION_SEED, key)
        assert np.array_equal(rows, rng.integers(0, M + 1, size=(72, _N_MC)))

    @pytest.mark.parametrize("M", [1, 7, 8, 16, 17, 100])  # even and odd, one built row to 50
    def test_take_loop_equals_a_whole_table_take(self, M):
        S, B = 60, 300
        R = np.sort(stream(S, M).integers(0, S + 1, size=(M + 1, B)), axis=0)
        R[:, :2] = [0, S]  # the ends of every row
        R[M] = S  # every count matrix ends at S
        whole = np.take(whole_table(S, M), R + np.arange(0, (M + 1) * (S + 1), S + 1)[:, None])
        whole = whole.min(axis=0)
        store = _TailStore(1 << 30)
        table = store.current(S, M)
        # the one gather of the current table, whatever the dtype of the counts
        assert store.least(R.astype(np.int32), S, M).tobytes() == whole.tobytes()
        # the null pass: running sums of int32 counts per rank value, up from
        # rank 0 and down from rank M, one take per point
        counts = np.diff(R, axis=0, prepend=0).astype(np.int32)
        given_counts = counts.copy()
        assert _null_least(table, counts).tobytes() == whole.tobytes()
        assert np.array_equal(counts, given_counts)
        given = R.copy()
        assert store.least(given, S, M).tobytes() == whole.tobytes()
        assert np.array_equal(given, R)  # the gather leaves R as it is

    @pytest.mark.parametrize("n", [1, 9, 57])
    @pytest.mark.parametrize("M", [1, 2, 7, 20])
    def test_null_equals_the_whole_table_minimum_of_the_one_shot_draw(self, n, M, monkeypatch):
        # an oracle that shares no lookup code with the pass: ECDF counts by
        # comparison, every point of the whole table, and one fancy index
        monkeypatch.setattr(diagnostics, "_tails", _TailStore(diagnostics._CHECKPOINT_BYTES))
        monkeypatch.delitem(_null_cache, (n, M), raising=False)
        rng = stream(NULL_CALIBRATION_SEED, _NULL_STREAM + (M << 32) + _N_MC)
        draw = rng.integers(0, M + 1, size=(n, _N_MC))
        R = (draw[None] < np.arange(1, M + 2)[:, None, None]).sum(axis=1)
        entries = whole_table(n, M)[np.arange(M + 1)[:, None], R]
        expected = np.sort(diagnostics._LOG2 + entries.min(axis=0))
        log_gamma_null_quantile_cached(n, M)
        assert _null_cache[(n, M)].tobytes() == expected.tobytes()

    def test_a_cold_null_holds_no_int64_matrix_per_point(self, monkeypatch):
        # one (M+1) x _N_MC int64 matrix, 40 MB at M = 1000, plus the table's
        # build: a pass with int64 counts, or with their running sums as a
        # second matrix, peaks above it
        S, M = 300, 1000
        monkeypatch.setattr(diagnostics, "_tails", _TailStore(diagnostics._CHECKPOINT_BYTES))
        monkeypatch.delitem(_null_cache, (S, M), raising=False)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            _TailStore(diagnostics._CHECKPOINT_BYTES).current(S, M)
            build = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            log_gamma_null_quantile_cached(S, M)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak < (M + 1) * _N_MC * 8 + build


def exact_log_minima(S, i, M):
    """log min(P(X <= k), P(X >= k)), X ~ Bin(S, i / (M + 1)), k = 0..S, summed at 60 digits."""
    with mpmath.workdps(60):
        z = mpmath.mpf(i) / (M + 1)
        terms = [(1 - z) ** S]
        for k in range(S):
            terms.append(terms[-1] * (S - k) / (k + 1) * z / (1 - z))
        lower = np.cumsum(np.array(terms, dtype=object))
        upper = np.cumsum(np.array(terms[::-1], dtype=object))[::-1]
        return np.array([float(mpmath.log(min(a, b))) for a, b in zip(lower, upper)])


class TestMirroredTable:
    """Only the rows with z_i <= 1/2 are built: the point z_{M+1-i} = 1 - z_i reads row
    i - 1 at its suffix count S - R[M - i], and the z = 1 point is never read."""

    @pytest.mark.parametrize("M", [1, 2, 99, 100])
    @pytest.mark.parametrize("S", [1, 7, 1000])
    def test_the_table_is_the_built_rows(self, S, M):
        table = _TailStore(1 << 30).current(S, M)
        direct = log_binom_tail_minima(S, _z_points(M))
        half = (M + 1) // 2
        assert table.shape == (half, S + 1)
        assert table.tobytes() == direct[:half].tobytes()
        # the oracle's mirrored rows are built rows reversed, and its z = 1
        # row is the point mass the direct build gives
        whole = whole_table(S, M)
        for i in range(half + 1, M + 1):  # z_i > 1/2, 1-based
            assert whole[i - 1].tobytes() == table[M - i, ::-1].tobytes()
        assert whole[M].tobytes() == direct[M].tobytes()
        assert whole[M, S] == 0.0 and np.all(np.isneginf(whole[M, :S]))
        # every entry of the table is below the z = 1 point's entry at S
        assert table.max() < 0.0

    @pytest.mark.parametrize("M", [1, 2, 5, 100])
    @pytest.mark.parametrize("S", [1, 7, 100, 1000])
    def test_checkpoint_lookups_into_mirrored_rows_equal_the_table(self, S, M):
        _, checkpoints = log_binom_tail_checkpoints(
            S, _z_points(M)[: (M + 1) // 2], diagnostics._CHECKPOINT_EVERY
        )
        rng = stream(S, M)
        counts = np.concatenate(
            [np.tile([0, S], (M + 1, 1)), rng.integers(0, S + 1, size=(M + 1, 6))], axis=1
        )
        counts[:, 2:4] = rng.binomial(S, _z_points(M)[:, None], size=(M + 1, 2))
        # the points z_i <= 1/2, then their mirrors from z_M down: each half
        # reads rows 0, 1, ..., the mirrors at S - k
        half = (M + 1) // 2
        points = np.concatenate([np.arange(half), np.arange(M - 1, half - 1, -1)])
        lookups = counts[points]
        lookups[half:] = S - lookups[half:]
        got = checkpoints.entries(lookups, np.arange(M) % half)
        expected = np.take_along_axis(whole_table(S, M)[points], counts[points], axis=1)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("M", [1, 2, 5, 100])
    @pytest.mark.parametrize("S", [100, 1000])
    def test_resumed_least_reads_mirrored_rows_at_suffix_counts(self, S, M):
        store = _TailStore(1 << 30)
        store.current(S, M)
        store.current(S + 1, M)
        R = np.sort(stream(S, M).integers(0, S + 1, size=(M + 1, 4)), axis=0)
        R[M] = S  # R[M] = #{ranks < M + 1}: every count matrix ends at S
        expected = whole_table(S, M)[np.arange(M + 1)[:, None], R].min(axis=0)
        assert store.least(R.copy(), S, M).tobytes() == expected.tobytes()
        assert store.key == (S + 1, M)  # resumed, not built

    @pytest.mark.parametrize("M", [1, 2, 7, 8, 100])
    def test_least_equals_the_least_of_all_rows(self, M):
        # the kernel never reads the z = 1 row, and no bit moves for it: on
        # rank sets of every shape, both the take path and the resumed path
        # equal the least entry over all M + 1 rows of the whole table
        S, B = 200, 20
        rng = stream(S, M + 1)
        ranks = rng.integers(0, M + 1, size=(B, S))
        ranks[0], ranks[1] = 0, M  # every count at one end
        ranks[2] = np.minimum(((M + 1) * rng.beta(0.5, 1.0, size=S)).astype(int), M)
        R = _rank_counts(ranks, M)
        assert np.all(R[M] == S)
        expected = whole_table(S, M)[np.arange(M + 1)[:, None], R].min(axis=0)
        store = _TailStore(1 << 30)
        store.current(S, M)
        assert store.least(R, S, M).tobytes() == expected.tobytes()  # take
        store.current(S + 1, M)
        assert B * diagnostics._CHECKPOINT_EVERY <= S + 1
        assert store.least(R, S, M).tobytes() == expected.tobytes()  # resumed
        assert store.key == (S + 1, M)

    @pytest.mark.parametrize("S", [10, 1000, 5000])
    def test_deep_tails_of_mirrored_rows_match_mpmath(self, S):
        # both a mirrored row and the direct build at the same z carry the
        # gammaln cancellation in log C(S, k); the mirror's largest error must
        # stay within twice the direct build's
        M = 100
        table = _TailStore(1 << 30).current(S, M)
        direct = log_binom_tail_minima(S, _z_points(M))
        rng = stream(S, 0)
        mirror_err, direct_err = [], []
        for i in (52, 75, 100):  # z_i > 1/2, 1-based: read at row M - i, count S - k
            exact = exact_log_minima(S, i, M)
            ks = np.r_[0, S, rng.integers(0, S + 1, size=20)]
            mirror_err.append(np.abs(table[M - i, S - ks] - exact[ks]) / np.abs(exact[ks]))
            direct_err.append(np.abs(direct[i - 1, ks] - exact[ks]) / np.abs(exact[ks]))
        mirror_err, direct_err = np.concatenate(mirror_err), np.concatenate(direct_err)
        assert mirror_err.max() <= 2 * direct_err.max()
        assert mirror_err.max() < 1e-11


class TestTailStore:
    @pytest.mark.parametrize("variant", ["correct", "prior-only"])
    def test_warm_trace_equals_cold_bit_for_bit(self, variant, monkeypatch):
        family = gaussian.make_variant(variant, 3)
        quantities = gaussian.quantity_library(3, family)
        run = run_sbc(gaussian.GaussianGenerator(3), family, quantities, S=400, M=50, seed=11)
        ranks = {q: run.ranks(q) for q in run.quantity_names()}
        sets = [RankSet(r, 50) for r in ranks.values()]
        monkeypatch.setattr(diagnostics, "_tails", _TailStore(diagnostics._CHECKPOINT_BYTES))
        _null_cache.clear()
        cold = evolution_table(ranks, 50, step=10)
        cold_gammas = [log_gamma_statistic(r) for r in sets]
        # other tables in between, so that no table of this trace is current
        evolution_table({"x": stream(5, 0).integers(0, 21, size=77)}, 20, step=7)
        ecdf_band(123, 50)
        built = []
        build = diagnostics.log_binom_tail_checkpoints
        monkeypatch.setattr(
            diagnostics,
            "log_binom_tail_checkpoints",
            lambda n, p, every: built.append(n) or build(n, p, every),
        )
        warm = evolution_table(ranks, 50, step=10)
        assert [log_gamma_statistic(r) for r in sets] == cold_gammas
        for a, b in zip(cold, warm):
            assert a.log_ratio.tobytes() == b.log_ratio.tobytes()
        # only prefixes too short to be worth resuming for len(ranks) lookups are built
        every = diagnostics._CHECKPOINT_EVERY
        assert built == [n for n in cold[0].n_sims if len(ranks) * every > n + 1]
        assert built[-1] < 400

    @pytest.mark.parametrize("S", [1000, 1500])
    def test_a_warm_trace_of_eleven_quantities_resumes_from_n_43(self, S, monkeypatch):
        # the warm loop over seeds and variants: eleven quantities at M = 100,
        # step 10, after a trace that left every table's checkpoints in the
        # default store (those of the 150 prefixes at S = 1500, about 12.8 MB)
        ranks = dict(enumerate(stream(21, 0).integers(0, 101, size=(11, S))))
        monkeypatch.setattr(diagnostics, "_tails", _TailStore(diagnostics._CHECKPOINT_BYTES))
        cold = evolution_table(ranks, 100, step=10)
        lengths = list(range(10, S + 1, 10))
        assert list(diagnostics._tails.checkpoints) == [(n, 100) for n in lengths]
        built = []
        build = diagnostics.log_binom_tail_checkpoints
        monkeypatch.setattr(
            diagnostics,
            "log_binom_tail_checkpoints",
            lambda n, p, every: built.append(n) or build(n, p, every),
        )
        warm = evolution_table(ranks, 100, step=10)
        for a, b in zip(cold, warm):
            assert a.log_ratio.tobytes() == b.log_ratio.tobytes()
        every = diagnostics._CHECKPOINT_EVERY
        assert built == [n for n in lengths if 11 * every > n + 1]
        assert built == list(range(10, 41, 10))  # spacing 4: B * 4 <= n + 1 from n = 43 on

    def test_a_warm_trace_over_the_budget_resumes_from_what_was_kept(self, monkeypatch):
        # the 100 prefix tables' checkpoints, about 5.9 MB, exceed a 1 MiB store:
        # a second trace resumes from the prefixes the first one kept, where
        # dropping the oldest rebuilt every table
        ranks = dict(enumerate(stream(22, 0).integers(0, 101, size=(11, 1000))))
        monkeypatch.setattr(diagnostics, "_tails", _TailStore(1 << 20))
        cold = evolution_table(ranks, 100, step=10)
        kept = set(diagnostics._tails.checkpoints)
        assert 0 < len(kept) < 100
        built = []
        build = diagnostics.log_binom_tail_checkpoints
        monkeypatch.setattr(
            diagnostics,
            "log_binom_tail_checkpoints",
            lambda n, p, every: built.append(n) or build(n, p, every),
        )
        warm = evolution_table(ranks, 100, step=10)
        for a, b in zip(cold, warm):
            assert a.log_ratio.tobytes() == b.log_ratio.tobytes()
        every = diagnostics._CHECKPOINT_EVERY
        lengths = range(10, 1001, 10)
        assert built == [n for n in lengths if (n, 100) not in kept or 11 * every > n + 1]

    @pytest.mark.parametrize("M", [1, 2, 99, 100])
    def test_a_cold_build_takes_the_points_up_to_one_half(self, M, monkeypatch):
        given = []
        build = diagnostics.log_binom_tail_checkpoints
        monkeypatch.setattr(
            diagnostics,
            "log_binom_tail_checkpoints",
            lambda n, p, every: given.append(p) or build(n, p, every),
        )
        store = _TailStore(1 << 30)
        table = store.current(300, M)
        assert table.shape == (math.ceil(M / 2), 301)
        assert len(given) == 1 and given[0].tolist() == _z_points(M)[: math.ceil(M / 2)].tolist()
        assert np.all(given[0] <= 0.5)
        assert store.checkpoints[(300, M)].lo.shape == (math.ceil(M / 2),)

    def test_a_cold_build_holds_only_the_built_rows(self):
        # the build returns the (50, 20001) rows with z_i <= 1/2 and holds no
        # whole (101, 20001) table: its peak was 3.16 times the rows' bytes
        # with one, and is 2.29 times without
        S, M = 20000, 100
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            table = _TailStore(diagnostics._CHECKPOINT_BYTES).current(S, M)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        rows = 50 * 20001 * 8
        assert peak < 2.6 * rows
        assert table.shape == (50, 20001) and table.nbytes == rows

    def test_a_table_built_again_keeps_its_checkpoints(self):
        store = _TailStore(1 << 30)
        store.current(100, 20)
        kept = store.checkpoints[(100, 20)]
        store.current(200, 20)
        counts = stream(3, 0).integers(0, 101, size=(21, 30))  # 30 * 4 > 101: too many to resume
        counts[20] = 100  # every count matrix ends at S
        expected = whole_table(100, 20)[np.arange(21)[:, None], counts].min(axis=0)
        assert store.least(counts.copy(), 100, 20).tobytes() == expected.tobytes()
        assert store.key == (100, 20)
        assert list(store.checkpoints) == [(100, 20), (200, 20)]
        assert store.checkpoints[(100, 20)] is kept
        assert store.nbytes == sum(c.nbytes for c in store.checkpoints.values())

    def test_a_build_without_checkpoints_keeps_nothing(self, monkeypatch):
        # a build with a row that fails its proof returns no checkpoints
        build = diagnostics.log_binom_tail_checkpoints
        monkeypatch.setattr(
            diagnostics,
            "log_binom_tail_checkpoints",
            lambda n, p, every: (build(n, p, every)[0], None),
        )
        store = _TailStore(1 << 30)
        store.current(100, 20)
        store.current(200, 20)
        counts = stream(3, 0).integers(0, 101, size=(21, 3))  # few enough to resume, if kept
        counts[20] = 100  # every count matrix ends at S
        expected = whole_table(100, 20)[np.arange(21)[:, None], counts].min(axis=0)
        assert store.least(counts.copy(), 100, 20).tobytes() == expected.tobytes()
        assert store.key == (100, 20)
        assert not store.checkpoints and store.nbytes == 0

    def test_checkpoints_outlive_a_table_too_large_to_keep(self, monkeypatch):
        # the (3000, 100) table, about 1.2 MB, exceeds the budget that its
        # checkpoints fit in; building it again must not drop them
        store = _TailStore(1 << 20)
        store.current(3000, 100)
        kept = store.checkpoints[(3000, 100)]
        store.current(200, 100)
        width = 3001 // diagnostics._CHECKPOINT_EVERY + 1  # too many to resume
        counts = stream(4, 0).integers(0, 3001, size=(101, width))
        counts[100] = 3000  # every count matrix ends at S
        least = store.least(counts.copy(), 3000, 100)
        assert store.key == (3000, 100)
        assert store.checkpoints[(3000, 100)] is kept
        assert store.nbytes == sum(c.nbytes for c in store.checkpoints.values()) <= store.budget
        expected = whole_table(3000, 100)[np.arange(101), counts[:, 0]].min()
        assert least[0] == expected
        store.current(200, 100)
        built = []
        build = diagnostics.log_binom_tail_checkpoints
        monkeypatch.setattr(
            diagnostics,
            "log_binom_tail_checkpoints",
            lambda n, p, every: built.append(n) or build(n, p, every),
        )
        assert store.least(counts[:, :1].copy(), 3000, 100).tolist() == [expected]
        assert built == []

    def test_bytes_stay_within_the_budget(self):
        store = _TailStore(100_000)
        for S in range(100, 1001, 100):
            store.current(S, 100)
            assert store.nbytes == sum(c.nbytes for c in store.checkpoints.values())
            assert store.nbytes <= store.budget
        assert 0 < len(store.checkpoints) < 10
        # the first that fit, in build order; the next did not fit
        kept = len(store.checkpoints)
        assert list(store.checkpoints) == [(S, 100) for S in range(100, 100 * kept + 1, 100)]
        spare = _TailStore(1 << 30)
        spare.current(100 * (kept + 1), 100)
        assert store.nbytes + spare.nbytes > store.budget

    def test_the_first_checkpoints_that_fit_are_kept(self):
        store = _TailStore(1 << 30)
        for S in (300, 400, 500):
            store.current(S, 20)
        size = {S: store.checkpoints[(S, 20)].nbytes for S in (300, 400, 500)}
        store.budget = sum(size.values())
        # a resumed lookup reorders nothing
        counts = np.full((21, 1), 150)
        counts[20] = 300  # every count matrix ends at S
        store.least(counts, 300, 20)
        assert list(store.checkpoints) == [(300, 20), (400, 20), (500, 20)]
        # a full store keeps no new checkpoints, and drops none it has
        store.current(600, 20)
        assert list(store.checkpoints) == [(300, 20), (400, 20), (500, 20)]
        assert store.nbytes == sum(c.nbytes for c in store.checkpoints.values()) <= store.budget
        # checkpoints larger than the whole budget are not kept, and evict nothing
        kept = list(store.checkpoints)
        store.budget = store.nbytes
        store.current(5000, 20)
        assert list(store.checkpoints) == kept


class TestEcdfBand:
    def test_band_contains_diagonal(self):
        band = ecdf_band(400, 20)
        z = np.arange(1, 22) / 21.0
        diag = 400 * z
        assert np.all(band.lower <= diag) and np.all(diag <= band.upper)

    def test_self_consistent_coverage(self):
        S, M = 300, 20
        band = ecdf_band(S, M)
        rng = stream(55, 0)
        trials = 1000
        inside = sum(
            band.contains(RankSet(rng.integers(0, M + 1, size=S), M)) for _ in range(trials)
        )
        assert abs(inside / trials - 0.95) < 0.03

    def test_band_pinned_at_s1000_m100(self):
        # the band is the acceptance region of the 5% gamma test at the CLI's
        # default size: its level is the report's gamma_bar
        band = ecdf_band(1000, 100)
        ranks = stream(3, 3).integers(0, 101, size=1000)
        assert band.pointwise_level == gamma_result(RankSet(ranks, 100)).gamma_bar
        # 0.0028254968713009557 before the rows with z > 1/2 became their
        # mirrors reversed; the counts in the band did not move
        assert band.pointwise_level == 0.002825496871301111
        assert band.lower.tolist() == [
            2, 8, 15, 22, 30, 38, 47, 55, 63, 72, 81, 89, 98, 107, 116, 125, 134, 143, 152,
            161, 170, 180, 189, 198, 207, 217, 226, 236, 245, 254, 264, 273, 283, 292, 302,
            312, 321, 331, 340, 350, 360, 370, 379, 389, 399, 409, 418, 428, 438, 448, 458,
            468, 478, 487, 497, 507, 517, 527, 537, 547, 558, 568, 578, 588, 598, 608, 618,
            629, 639, 649, 659, 670, 680, 690, 701, 711, 722, 732, 742, 753, 764, 774, 785,
            796, 806, 817, 828, 839, 850, 861, 872, 883, 894, 906, 917, 929, 941, 953, 966,
            980, 1000,
        ]  # fmt: skip
        assert band.upper.tolist() == [
            20, 34, 47, 59, 71, 83, 94, 106, 117, 128, 139, 150, 161, 172, 183, 194, 204, 215,
            226, 236, 247, 258, 268, 278, 289, 299, 310, 320, 330, 341, 351, 361, 371, 382,
            392, 402, 412, 422, 432, 442, 453, 463, 473, 483, 493, 503, 513, 522, 532, 542,
            552, 562, 572, 582, 591, 601, 611, 621, 630, 640, 650, 660, 669, 679, 688, 698,
            708, 717, 727, 736, 746, 755, 764, 774, 783, 793, 802, 811, 820, 830, 839, 848,
            857, 866, 875, 884, 893, 902, 911, 919, 928, 937, 945, 953, 962, 970, 978, 985,
            992, 998, 1000,
        ]  # fmt: skip

    @pytest.mark.parametrize(
        "S, M", [(1, 1), (10, 7), (57, 9), (100, 16), (300, 20), (1000, 100)]
    )
    def test_band_equals_the_whole_table_comparison(self, S, M):
        # ceil(M/2) built rows, from one to 50, even and odd in number
        band = ecdf_band(S, M)
        inside = diagnostics._LOG2 + whole_table(S, M) >= log_gamma_null_quantile_cached(S, M)
        assert band.lower.tobytes() == inside.argmax(axis=1).tobytes()
        assert band.upper.tobytes() == (S - inside[:, ::-1].argmax(axis=1)).tobytes()

    @pytest.mark.parametrize("S", [1, 57, 300])
    @pytest.mark.parametrize("M", [1, 2, 7, 100])
    def test_band_is_reflection_symmetric(self, S, M):
        # the point z_{M+1-i} = 1 - z_i takes the interval of z_i reflected,
        # k -> S - k, and the z = 1 point takes S alone
        band = ecdf_band(S, M)
        assert band.lower[:M].tobytes() == (S - band.upper[M - 1 :: -1]).tobytes()
        assert band.upper[:M].tobytes() == (S - band.lower[M - 1 :: -1]).tobytes()
        assert band.lower[M] == band.upper[M] == S

    def test_band_keeps_the_rounding_of_gamma(self, monkeypatch):
        # a threshold one ulp above log 2 + entry: the test rejects a rank set
        # whose least entry that is, though entry >= log_bar - log 2 holds,
        # so the entry's count lies outside the band
        S, M, i = 300, 20, 5
        table = whole_table(S, M)
        log2 = diagnostics._LOG2
        rising = table[i, : table[i].argmax()]
        log_bars = np.nextafter(log2 + rising, np.inf)
        k = np.flatnonzero(log_bars - log2 <= rising)[-1]
        monkeypatch.setattr(diagnostics, "log_gamma_null_quantile_cached", lambda S, M: log_bars[k])
        band = ecdf_band(S, M)
        assert band.lower[i] > k
        inside = log2 + table >= log_bars[k]
        assert band.lower.tobytes() == inside.argmax(axis=1).tobytes()
        assert band.upper.tobytes() == (S - inside[:, ::-1].argmax(axis=1)).tobytes()

    def test_band_of_a_current_table_holds_no_whole_table_temporary(self, monkeypatch):
        # one (M+1) x (S+1) float64 array is 8 MB here, and a boolean mask of
        # the whole table 1 MB; comparing the table whole peaked at 9.0 MB
        S, M = 1000, 1000
        monkeypatch.setattr(diagnostics, "_tails", _TailStore(diagnostics._CHECKPOINT_BYTES))
        expected = ecdf_band(S, M)  # fills the null and makes the table current
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            band = ecdf_band(S, M)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert band.lower.tobytes() == expected.lower.tobytes()
        assert band.upper.tobytes() == expected.upper.tobytes()
        assert peak < (M + 1) * (S + 1)

    def test_band_is_the_gamma_acceptance_region(self):
        # band.contains and the 5% gamma verdict agree on every rank set:
        # uniform and skewed sets, null calibration rows, and a tie at the threshold
        rng = stream(61, 0)
        cases = []
        for S, M, n in ((1000, 100, 1500), (200, 20, 800), (57, 9, 800)):
            for _ in range(n):
                cases.append((rng.integers(0, M + 1, size=S), M))
            for a in (0.85, 0.95, 1.1):
                for _ in range(n // 10):
                    skewed = ((M + 1) * rng.beta(a, 1.0, size=S)).astype(int)
                    cases.append((np.minimum(skewed, M), M))
        null_ranks, tie = null_rows_and_tie(90, 100)
        assert gamma_result(RankSet(tie, 100)).log_ratio == 0.0
        cases += [(row, 100) for row in null_ranks[:2000]] + [(tie, 100)]
        bands = {}
        disagree = rejected = 0
        for ranks, M in cases:
            rank_set = RankSet(ranks, M)
            key = (rank_set.S, M)
            if key not in bands:
                bands[key] = ecdf_band(*key)
            rejects = gamma_result(rank_set).rejects
            rejected += rejects
            disagree += bands[key].contains(rank_set) == rejects
        assert rejected > 200  # the boundary is exercised from both sides
        assert disagree == 0

    def test_contains_rejects_a_rank_set_of_another_size(self):
        band = ecdf_band(100, 10)
        with pytest.raises(ValueError, match=r"\(50, 10\).*\(100, 10\)"):
            band.contains(RankSet(np.zeros(50, dtype=int), 10))
        with pytest.raises(ValueError, match=r"\(100, 5\).*\(100, 10\)"):
            band.contains(RankSet(np.zeros(100, dtype=int), 5))
        assert not band.contains(RankSet(np.zeros(100, dtype=int), 10))


def scipy_chisquare(rank_set, n_bins):
    """scipy.stats.chisquare on the cells of chi_square_uniformity."""
    M = rank_set.max_rank
    n_bins = int(min(n_bins, M + 1))
    base, extra = divmod(M + 1, n_bins)
    sizes = np.full(n_bins, base, dtype=int)
    sizes[:extra] += 1
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    observed = np.add.reduceat(np.bincount(rank_set.ranks, minlength=M + 1), starts).astype(float)
    return stats.chisquare(observed, f_exp=rank_set.S * sizes / (M + 1))


class TestChiSquare:
    @given(
        S=st.integers(min_value=1, max_value=3000),
        M=st.integers(min_value=1, max_value=250),
        n_bins=st.integers(min_value=2, max_value=300),
        skew=st.sampled_from([1.0, 0.9, 3.0]),
        key=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_scipy_chisquare_bit_for_bit(self, S, M, n_bins, skew, key):
        # expected counts below 5 included
        draws = stream(key, 0).beta(skew, 1.0, size=S)
        rank_set = RankSet(np.minimum(((M + 1) * draws).astype(int), M), M)
        res = chi_square_uniformity(rank_set, n_bins=n_bins)
        statistic, p_value = scipy_chisquare(rank_set, n_bins)
        assert np.float64(res.statistic).tobytes() == np.float64(statistic).tobytes()
        assert np.float64(res.p_value).tobytes() == np.float64(p_value).tobytes()

    def test_equals_scipy_chisquare_at_low_expected(self):
        for ranks, M, n_bins in (([0, 0, 3], 3, 2), ([0], 1, 5), (list(range(10)), 9, 10)):
            rank_set = RankSet(np.array(ranks), M)
            res = chi_square_uniformity(rank_set, n_bins=n_bins)
            expected = np.array(scipy_chisquare(rank_set, n_bins))
            assert np.array([res.statistic, res.p_value]).tobytes() == expected.tobytes()
            assert res.low_expected

    @pytest.mark.parametrize("n_bins", [1, 0, -3])
    def test_fewer_than_two_bins_rejected(self, n_bins):
        # one bin has no degree of freedom: the test would return p NaN
        with pytest.raises(ValueError, match=f"n_bins must be at least 2, got {n_bins}"):
            chi_square_uniformity(RankSet(np.arange(10), 9), n_bins=n_bins)

    def test_balanced_ranks_give_p_one(self):
        ranks = np.repeat(np.arange(10), 5)  # 5 in each of 10 cells
        res = chi_square_uniformity(RankSet(ranks, 9), n_bins=10)
        assert res.statistic == pytest.approx(0.0)
        assert res.p_value == pytest.approx(1.0)

    def test_single_cell_pileup(self):
        res = chi_square_uniformity(RankSet(np.zeros(100, dtype=int), 99), n_bins=10)
        assert res.p_value < 1e-15

    def test_low_expected_flag(self):
        res = chi_square_uniformity(RankSet(np.arange(10), 9), n_bins=10)
        assert res.low_expected

    def test_p_value_uniform_under_null(self):
        rng = stream(14, 3)
        pvals = []
        for _ in range(400):
            ranks = rng.integers(0, 100, size=1000)
            pvals.append(chi_square_uniformity(RankSet(ranks, 99), n_bins=20).p_value)
        assert stats.kstest(pvals, "uniform").pvalue > 0.01

    def test_uneven_cells_still_calibrated(self):
        # M+1 = 101 split into 20 cells of width 6 and 5
        rng = stream(15, 3)
        pvals = []
        for _ in range(300):
            ranks = rng.integers(0, 101, size=2000)
            pvals.append(chi_square_uniformity(RankSet(ranks, 100), n_bins=20).p_value)
        assert stats.kstest(pvals, "uniform").pvalue > 0.01

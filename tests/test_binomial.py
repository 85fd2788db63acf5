import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sbc_lab.binomial import (
    log_binom_pmf,
    log_binom_tables,
    log_binom_tail_checkpoints,
    log_binom_tail_minima,
)


def test_pmf_matches_scipy_in_safe_range():
    p = np.array([0.05, 0.3, 0.5, 0.77])
    ours = log_binom_pmf(40, p)
    ref = stats.binom.logpmf(np.arange(41)[None, :], 40, p[:, None])
    np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=1e-12)


def test_tables_match_scipy_in_safe_range():
    p = np.array([0.2, 0.5, 0.9])
    log_cdf, log_ge = log_binom_tables(30, p)
    k = np.arange(31)
    ref_cdf = stats.binom.logcdf(k[None, :], 30, p[:, None])
    np.testing.assert_allclose(log_cdf, ref_cdf, rtol=1e-10, atol=1e-10)
    # P(X >= r) = P(X > r - 1)
    ref_ge = stats.binom.logsf(k[None, :] - 1, 30, p[:, None])
    np.testing.assert_allclose(log_ge[:, :31], ref_ge, rtol=1e-9, atol=1e-9)
    assert np.all(log_ge[:, 0] == 0.0)
    assert np.all(np.isneginf(log_ge[:, -1]))


def test_extreme_tail_against_mpmath():
    # far below double underflow; compare against 60-digit summation
    n, p, k = 1000, 0.5, 100
    log_cdf, _ = log_binom_tables(n, np.array([p]))
    with mpmath.workdps(60):
        exact = mpmath.mpf(0)
        for j in range(k + 1):
            exact += mpmath.binomial(n, j) * mpmath.mpf(p) ** j * (1 - mpmath.mpf(p)) ** (n - j)
        expected = float(mpmath.log(exact))
    assert abs(log_cdf[0, k] - expected) < 1e-9 * abs(expected)


def test_degenerate_probabilities():
    log_cdf, log_ge = log_binom_tables(5, np.array([0.0, 1.0]))
    assert log_cdf[0, 0] == 0.0  # p=0: all mass at k=0
    assert np.all(log_cdf[0, :] == 0.0)
    assert np.isneginf(log_cdf[1, 4])  # p=1: no mass below k=n
    assert log_cdf[1, 5] == 0.0
    assert log_ge[1, 5] == 0.0


def test_rejects_bad_probability():
    with pytest.raises(ValueError):
        log_binom_pmf(4, np.array([1.5]))


@pytest.mark.parametrize("M", [1, 2, 5, 20, 100, 250])
def test_tail_minima_equal_full_tables_bit_for_bit(M):
    grids = [np.arange(1, M + 2) / (M + 1), np.array([0.0, 0.3, 1.0])]
    for n in [*range(1, 65), 99, 100, 101, 370, 1000, 4000]:
        for p in grids:
            log_cdf, log_ge = log_binom_tables(n, p)
            expected = np.minimum(log_cdf, log_ge[:, : n + 1])
            got = log_binom_tail_minima(n, p)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes(), (n, p.size)


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(st.integers(1, 64), st.sampled_from([99, 100, 370, 1000])),
    M=st.sampled_from([1, 2, 5, 100, 250]),
    every=st.integers(1, 40),
    past_n=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_checkpoint_lookups_equal_the_table_bit_for_bit(n, M, every, past_n, seed):
    # the z grid ends in the point mass z = 1; p = 0 is the other point mass
    p = np.concatenate([[0.0], np.arange(1, M + 2) / (M + 1)])
    every = n + every if past_n else every
    table = log_binom_tail_minima(n, p)
    built, checkpoints = log_binom_tail_checkpoints(n, p, every)
    assert built.tobytes() == table.tobytes()
    rng = np.random.default_rng(seed)
    # the ends, uniform counts (mostly deep in one tail) and binomial counts
    # (mostly inside the window where both tails are read)
    counts = np.concatenate(
        [
            np.tile([0, n], (p.size, 1)),
            rng.integers(0, n + 1, size=(p.size, 4)),
            rng.binomial(n, p[:, None], size=(p.size, 4)),
        ],
        axis=1,
    )
    got = checkpoints.entries(counts)
    assert got.tobytes() == np.take_along_axis(table, counts, axis=1).tobytes()


def test_checkpoints_keep_a_grid_and_a_window():
    n, every = 1000, 16
    p = np.arange(1, 102) / 101
    table, checkpoints = log_binom_tail_checkpoints(n, p, every)
    # columns 0, 16, ..., 992 and the last column, 1000
    assert checkpoints.grid.shape == (101, 64)
    assert checkpoints.grid[:, :-1].tobytes() == table[:, ::every].tobytes()
    assert checkpoints.grid[:, -1].tobytes() == table[:, n].tobytes()
    assert checkpoints.window.shape == (101, 5)
    assert checkpoints.nbytes < table.nbytes / 10


def test_checkpoint_bytes_count_every_array():
    _, checkpoints = log_binom_tail_checkpoints(100, np.arange(1, 22) / 21, 16)
    arrays = []
    for field in dataclasses.fields(checkpoints):
        value = getattr(checkpoints, field.name)
        arrays += value if isinstance(value, tuple) else [value]
    assert checkpoints.nbytes == sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))

"""Exact binomial tail probabilities in log space.

The gamma diagnostic takes minima of binomial CDF values that can be far
below the smallest positive double (events like "all ranks in one cell"),
so every probability here is represented by its natural log and obtained by
direct log-space summation of probability mass terms, exact to float
rounding.

Memory, not accuracy, bounds the size: the gamma diagnostic keeps one
(M+1) x (S+1) float64 table per (S, M), about 0.8 GB at S=10^6 and M=100.
:func:`log_binom_tail_minima` accumulates its two tails in place of two
copies of the pmf, in blocks of columns across all rows, so the build holds
two full (M+1) x (S+1) arrays plus boolean masks of an eighth of that size:
measured with tracemalloc, about 2.3 such arrays at its peak (about 1.8 GB
at S=10^6 and M=100), of which the one returned is kept. The full-table
reference :func:`log_binom_tables` holds about four at once.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

__all__ = ["log_binom_pmf", "log_binom_tables", "log_binom_tail_minima"]

# Columns per accumulate call of :func:`log_binom_tail_minima`: a row joins
# a block only if its tail reaches it, so narrow blocks waste little work
# and wide ones make few numpy calls.
_TAIL_BLOCK = 64


def log_binom_pmf(n: int, p: np.ndarray) -> np.ndarray:
    """Log pmf of Binomial(n, p_j) at every k.

    Parameters
    ----------
    n : number of trials.
    p : success probabilities, shape (J,), each in [0, 1].

    Returns
    -------
    Array of shape (J, n + 1) with entry [j, k] = log P(X = k | n, p_j).
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    k = np.arange(n + 1, dtype=float)
    log_comb = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_p = np.log(p)[:, None]
        log_q = np.log1p(-p)[:, None]
        out = log_comb[None, :] + k[None, :] * log_p + (n - k)[None, :] * log_q
    # patch the 0 * log(0) = nan cases: p in {0, 1} are point masses
    zero = p == 0.0
    one = p == 1.0
    if np.any(zero):
        out[zero, :] = -np.inf
        out[zero, 0] = 0.0
    if np.any(one):
        out[one, :] = -np.inf
        out[one, n] = 0.0
    return out


def log_binom_tables(n: int, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative and upper-tail log probabilities for Binomial(n, p_j).

    Returns
    -------
    log_cdf : shape (J, n + 1), [j, k] = log P(X <= k).
    log_ge  : shape (J, n + 2), [j, r] = log P(X >= r) for r = 0..n+1,
              so ``log_ge[:, 0] == 0`` and ``log_ge[:, n + 1] == -inf``.
    """
    lpmf = log_binom_pmf(n, p)
    log_cdf = np.logaddexp.accumulate(lpmf, axis=1)
    # force exact 0.0 at the full sum to absorb accumulated rounding
    log_cdf[:, -1] = 0.0
    rev = np.logaddexp.accumulate(lpmf[:, ::-1], axis=1)[:, ::-1]
    log_ge = np.concatenate(
        [np.zeros((lpmf.shape[0], 1)), rev[:, 1:], np.full((lpmf.shape[0], 1), -np.inf)],
        axis=1,
    )
    log_ge[:, 0] = 0.0
    return log_cdf, log_ge



def log_binom_tail_minima(n: int, p: np.ndarray) -> np.ndarray:
    """[j, k] = min(log P(X <= k), log P(X >= k)) for X ~ Binomial(n, p_j), k = 0..n.

    Equal bit for bit to ``np.minimum(log_cdf, log_ge[:, :n + 1])`` of
    :func:`log_binom_tables`, for about half the work. Row j's lower tail is
    accumulated only up to about hi_j = floor(n p_j) + 2 and its upper tail
    only down to about lo_j = floor(n p_j) - 2, in blocks of columns; as each
    tail is a sequential sum, every entry kept has the full table's bits.
    Outside [lo_j, hi_j] the minimum is one tail: the lower tail rises and
    the upper tail falls in k, also in floating point, so
    ``cdf[lo_j] <= ge[lo_j]`` and ``ge[hi_j] <= cdf[hi_j]`` prove it. Both are
    checked; a row failing the check is built from the full tables.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    cdf = log_binom_pmf(n, p)  # each tail is accumulated in place of the pmf
    ge = cdf.copy()
    mid = np.floor(n * p).astype(np.int64)
    lo, hi = np.maximum(mid - 2, 0), np.minimum(mid + 2, n)
    rev = ge[:, ::-1]  # column c is k = n - c
    for start in range(0, n + 1, _TAIL_BLOCK):
        # columns from start - 1 on, so that a row's block continues its sum
        lower = np.flatnonzero(hi >= start)
        if lower.size:
            block = cdf[lower[0] :, max(start - 1, 0) : start + _TAIL_BLOCK]
            np.logaddexp.accumulate(block, axis=1, out=block)
        upper = np.flatnonzero(lo <= n - start)
        if upper.size:
            block = rev[: upper[-1] + 1, max(start - 1, 0) : start + _TAIL_BLOCK]
            np.logaddexp.accumulate(block, axis=1, out=block)
    # the forced ends of log_binom_tables
    cdf[:, n] = 0.0
    ge[:, 0] = 0.0
    rows = np.arange(cdf.shape[0])
    proven = (cdf[rows, lo] <= ge[rows, lo]) & (ge[rows, hi] <= cdf[rows, hi])
    k = np.arange(n + 1)
    np.copyto(cdf, ge, where=k > hi[:, None])
    np.minimum(cdf, ge, out=cdf, where=(k >= lo[:, None]) & (k <= hi[:, None]))
    if not proven.all():
        log_cdf, log_ge = log_binom_tables(n, p[~proven])
        cdf[~proven] = np.minimum(log_cdf, log_ge[:, : n + 1])
    return cdf

"""Exact binomial tail probabilities in log space.

The gamma diagnostic takes minima of binomial CDF values that can be far
below the smallest positive double (events like "all ranks in one cell"),
so every probability here is represented by its natural log and obtained by
direct log-space summation of probability mass terms, exact to float
rounding.

Memory, not accuracy, bounds the size: the gamma diagnostic keeps one
(M+1) x (S+1) float64 table per (S, M), about 0.8 GB at S=10^6 and M=100,
and building it holds about four such arrays at once (3.2 GB there).
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

__all__ = ["log_binom_pmf", "log_binom_tables"]


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

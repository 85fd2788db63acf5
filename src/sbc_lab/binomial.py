"""Exact binomial tail probabilities in log space.

The gamma diagnostic takes minima of binomial CDF values that can be far
below the smallest positive double (events like "all ranks in one cell"),
so every probability here is represented by its natural log and obtained by
direct log-space summation of probability mass terms, exact to float
rounding.

Memory, not accuracy, bounds the size: a table of tail minima is
(M+1) x (S+1) float64, about 0.8 GB at S=10^6 and M=100.
:func:`log_binom_tail_checkpoints` accumulates its two tails in place of two
copies of the pmf, in blocks of columns across all rows, so the build holds
two full (M+1) x (S+1) arrays plus boolean masks of an eighth of that size:
measured with tracemalloc, about 2.3 such arrays at its peak (about 1.8 GB
at S=10^6 and M=100), of which the one returned is kept. The full-table
reference :func:`log_binom_tables` holds about four at once.

The build also returns :class:`TailCheckpoints`: every ``every``-th column
of the finished table and five entries of each row around its middle, with
the pmf terms. That is about an ``every``-th of the table: 67 kB at S=1000,
M=100 and every=16, against 0.81 MB. The gamma diagnostic keeps one table,
the current one, and reads it with ``take``. It keeps the checkpoints of
many, and answers a lookup into any of those by resuming one tail for at
most every - 1 terms, bit for bit (:meth:`TailCheckpoints.entries`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = [
    "TailCheckpoints",
    "log_binom_pmf",
    "log_binom_tables",
    "log_binom_tail_checkpoints",
    "log_binom_tail_minima",
]

# Columns per accumulate call of :func:`log_binom_tail_checkpoints`: a row joins
# a block only if its tail reaches it, so narrow blocks waste little work
# and wide ones make few numpy calls.
_TAIL_BLOCK = 64


def _log_pmf_terms(n: int, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log C(n, k) for k = 0..n, and log p_j and log(1 - p_j): the terms of :func:`_log_pmf`."""
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("probabilities must lie in [0, 1]")
    k = np.arange(n + 1, dtype=float)
    log_comb = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
    with np.errstate(divide="ignore"):
        return log_comb, np.log(p), np.log1p(-p)


def _log_pmf(n: int, k, log_comb, log_p, log_q) -> np.ndarray:
    """log C(n, k) + k log p + (n - k) log(1 - p), broadcast.

    The one pmf expression: the tail build and the checkpoint lookups both
    evaluate it, in this order, so a term recomputed for a lookup has the
    bits the build summed. Rows with p in {0, 1} come out nan where 0 * log 0
    appears; :func:`log_binom_pmf` patches them.
    """
    with np.errstate(invalid="ignore"):
        return log_comb + k * log_p + (n - k) * log_q


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
    return _patched_pmf(n, p, *_log_pmf_terms(n, p))


def _patched_pmf(n: int, p: np.ndarray, log_comb, log_p, log_q) -> np.ndarray:
    """:func:`log_binom_pmf` from its terms."""
    out = _log_pmf(n, np.arange(n + 1, dtype=float), log_comb, log_p[:, None], log_q[:, None])
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
    :func:`log_binom_tables`, for about half the work: the table of
    :func:`log_binom_tail_checkpoints`, without its checkpoints.
    """
    return log_binom_tail_checkpoints(n, p, n + 1)[0]


def log_binom_tail_checkpoints(
    n: int, p: np.ndarray, every: int
) -> tuple[np.ndarray, TailCheckpoints | None]:
    """The table of :func:`log_binom_tail_minima` and its tails' checkpoints.

    Row j's lower tail is accumulated only up to about hi_j = floor(n p_j) + 2
    and its upper tail only down to about lo_j = floor(n p_j) - 2, in blocks
    of columns; as each tail is a sequential sum, every entry kept has the
    full table's bits. Outside [lo_j, hi_j] the minimum is one tail: the
    lower tail rises and the upper tail falls in k, also in floating point, so
    ``cdf[lo_j] <= ge[lo_j]`` and ``ge[hi_j] <= cdf[hi_j]`` prove it. Both are
    checked; a row failing the check is built from the full tables, and the
    build then returns no checkpoints.

    Otherwise every ``every``-th column of the table and each row's entries
    at lo_j..lo_j + 4 are kept as :class:`TailCheckpoints`, with the pmf
    terms, so that any entry can be recomputed later without the table.
    """
    if every < 1:
        raise ValueError("every must be at least 1")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    terms = _log_pmf_terms(n, p)
    cdf = _patched_pmf(n, p, *terms)  # each tail is accumulated in place of the pmf
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
        return cdf, None
    checkpoints = TailCheckpoints(
        n=n,
        every=every,
        terms=terms,
        lo=lo,
        hi=hi,
        grid=cdf[:, np.minimum(np.arange(-(-n // every) + 1) * every, n)],
        window=cdf[rows[:, None], np.minimum(lo[:, None] + np.arange(5), n)],  # hi_j <= lo_j + 4
    )
    return cdf, checkpoints


@dataclass(frozen=True)
class TailCheckpoints:
    """Every ``every``-th column of a tail-minima table, and its window around each row's middle.

    ``grid[j, i]`` is table[j, min(i every, n)] and ``window[j, i]`` is
    table[j, min(lo_j + i, n)]. Inside [lo_j, hi_j] a lookup reads the
    window. Below lo_j the table is the lower tail log P(X <= k): a lookup
    resumes it upward from the grid column at or below k. Above hi_j it is
    the upper tail log P(X >= k), resumed downward from the grid column at or
    above k. A resume adds at most every - 1 pmf terms, the same float
    operations in the same order as the build, so :meth:`entries` returns
    the table's bits; it never adds the k = 0 or k = n term, where a point
    mass has 0 * log 0.
    """

    n: int
    every: int
    terms: tuple[np.ndarray, np.ndarray, np.ndarray]  # log C(n, k), log p, log q
    lo: np.ndarray
    hi: np.ndarray
    grid: np.ndarray
    window: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (*self.terms, self.lo, self.hi, self.grid, self.window))

    def entries(self, counts: np.ndarray) -> np.ndarray:
        """``table[j, counts[j, b]]`` for a (J, B) matrix of counts in 0..n."""
        rows = np.broadcast_to(np.arange(counts.shape[0])[:, None], counts.shape).ravel()
        k = counts.ravel()
        lo, hi = self.lo[rows], self.hi[rows]
        # the window's entry inside [lo_j, hi_j]; one below or above is replaced
        out = self.window[rows, np.clip(k - lo, 0, self.window.shape[1] - 1)]
        below, above = k < lo, k > hi
        if below.any():
            col = k[below] // self.every
            base = col * self.every
            start = self.grid[rows[below], col]
            out[below] = self._resume(rows[below], base, k[below] - base, 1, start)
        if above.any():
            col = -(-k[above] // self.every)
            base = np.minimum(col * self.every, self.n)
            start = self.grid[rows[above], col]
            out[above] = self._resume(rows[above], base, base - k[above], -1, start)
        return out.reshape(counts.shape)

    def _resume(self, rows, base, offset, direction, start) -> np.ndarray:
        """The tail at base + direction * offset, summed on from its value ``start`` at base.

        Lookups are ordered by the number of terms they add, most first, so
        step j updates a leading run of them, each by the build's own
        ``logaddexp(running sum, pmf term)``.
        """
        order = np.argsort(-offset, kind="stable")
        rows, base, offset, total = rows[order], base[order], offset[order], start[order]
        steps = np.arange(1, offset[0] + 1)
        cols = np.clip(base + direction * steps[:, None], 0, self.n)  # (step, lookup)
        log_comb, log_p, log_q = self.terms
        terms = _log_pmf(self.n, cols, log_comb[cols], log_p[rows], log_q[rows])
        for term, m in zip(terms, np.searchsorted(-offset, -steps, side="right")):
            np.logaddexp(total[:m], term[:m], out=total[:m])
        out = np.empty_like(total)
        out[order] = total
        return out

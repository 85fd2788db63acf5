"""Uniformity diagnostics on SBC rank sets.

The workhorse is the gamma statistic: twice the most extreme pointwise
binomial tail probability of the rank ECDF against the uniform reference.
Its null distribution (uniform ranks) is estimated by Monte Carlo from a
fixed calibration stream and cached, so the reported threshold is
reproducible across runs and shared across seeds, quantities and variants.
The test has one configuration: gamma against the 5 % quantile of its null.
There is one prefix-consistent calibration draw per M, at 5 000 draws: the
null for S simulations is its first S rows, so one pass down the draw, a
block of rows at a time, fills the null of every prefix of an evolution
trace, with its threshold.
All gamma arithmetic happens in log space through one kernel: one table of
binomial tail minima per (S, M) (see :mod:`sbc_lab.binomial`) indexed by rank
counts, read whole or resumed bit for bit from its stored tail checkpoints.
The observed gamma, the null draws and every prefix of the evolution trace go
through it, so a statistic that ties its threshold compares equal bit for
bit. The simultaneous ECDF band is the acceptance region of that same
test: the counts whose table entries clear the null quantile.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np
from scipy.special import chdtrc

from .binomial import TailCheckpoints, log_binom_tail_checkpoints
from .core import SbcRun
from .rng import stream

__all__ = [
    "NULL_CALIBRATION_SEED",
    "RankSet",
    "GammaResult",
    "EvolutionTrace",
    "EcdfBand",
    "ChiSquareResult",
    "gamma_statistic",
    "log_gamma_statistic",
    "gamma_null_quantile",
    "log_gamma_null_quantile_cached",
    "gamma_result",
    "evolution_table",
    "evolution_trace",
    "ecdf_band",
    "split_ranks",
    "chi_square_uniformity",
]

# Seed of the dedicated stream namespace behind the cached null quantiles.
# A constant (rather than the experiment seed) keeps report files
# byte-reproducible and lets every run share one null table per (S, M).
NULL_CALIBRATION_SEED = 0x5BC1AB

# The one configuration of the gamma test: its level, and the null
# replicates its threshold is the quantile of.
_LEVEL = 0.05
_N_MC = 5000

# Stream id under NULL_CALIBRATION_SEED of the null draw for M:
# 2**63 + (M << 32) + _N_MC.
_NULL_STREAM = 1 << 63

# Rows per calibration draw call: the draws hold O(_ROW_BLOCK * width) ranks
# in memory at any S.
_ROW_BLOCK = 64

_LOG2 = float(np.log(2.0))


@dataclass(frozen=True)
class RankSet:
    """Multiset of ranks on {0..max_rank} from one quantity."""

    ranks: np.ndarray
    max_rank: int

    def __post_init__(self) -> None:
        ranks = _integer_ranks(self.ranks)
        object.__setattr__(self, "ranks", ranks)
        if ranks.size and (ranks.min() < 0 or ranks.max() > self.max_rank):
            raise ValueError("ranks must lie in [0, max_rank]")

    @property
    def S(self) -> int:
        return int(self.ranks.size)

    @classmethod
    def from_run(cls, run: SbcRun, quantity: str) -> "RankSet":
        return cls(ranks=run.ranks(quantity), max_rank=run.M)

    def ecdf_counts(self) -> np.ndarray:
        """R[i-1] = #{ranks < i} for i = 1..M+1."""
        return _rank_counts(self.ranks[None, :], self.max_rank)[:, 0]


@dataclass(frozen=True)
class GammaResult:
    quantity: str
    S: int
    M: int
    gamma: float
    gamma_bar: float
    log_gamma: float
    log_gamma_bar: float

    @property
    def log_ratio(self) -> float:
        return self.log_gamma - self.log_gamma_bar

    @property
    def rejects(self) -> bool:
        return self.log_ratio < 0.0


@dataclass(frozen=True)
class EvolutionTrace:
    """log(gamma/gamma_bar) recomputed on growing simulation prefixes."""

    quantity: str
    n_sims: np.ndarray
    log_ratio: np.ndarray

    def first_rejection(self) -> int | None:
        """Smallest prefix length with log_ratio < 0, or None."""
        below = np.nonzero(self.log_ratio < 0.0)[0]
        return int(self.n_sims[below[0]]) if below.size else None

    @property
    def final_log_ratio(self) -> float:
        return float(self.log_ratio[-1])


def _integer_ranks(given) -> np.ndarray:
    """``given`` as an int array, or ValueError if any value is not an integer."""
    given = np.asarray(given)
    with np.errstate(invalid="ignore"):  # NaN and inf fail the check below
        ranks = given.astype(int)
    if not np.array_equal(ranks, given):
        raise ValueError("ranks must be integers")
    return ranks


def _rank_counts(ranks: np.ndarray, M: int) -> np.ndarray:
    """R[i-1, b] = #{ranks[b] < i} for i = 1..M+1, per row b of a (B, S) rank matrix."""
    B = ranks.shape[0]
    counts = np.bincount((ranks * B + np.arange(B)[:, None]).ravel(), minlength=(M + 1) * B)
    return np.cumsum(counts.reshape(M + 1, B), axis=0)


def _z_points(M: int) -> np.ndarray:
    return np.arange(1, M + 2, dtype=float) / (M + 1)


# Counts between two checkpoints of a tail: a lookup resumed from them adds
# at most this many pmf terms. At 16, the warm evolution trace of eleven
# quantities at S=1000, M=100, step 10 took 0.13 s by resuming, against 0.33 s
# for building its 100 tables.
_CHECKPOINT_EVERY = 16

# Bytes of checkpoints kept. The 100 prefix tables of a trace at S=1000,
# M=100 need about 3.8 MB, so two such traces fit; at large S the budget
# drops the oldest, down to none when one table's checkpoints exceed it.
_CHECKPOINT_BYTES = 8 << 20

# Table rows gathered per ``take`` of a full-table lookup: all 101 rows at
# once made a 4 MB temporary at M=100 and B = _N_MC = 5000, the peak of a
# null pass; eight rows make 320 kB, in the same time.
_TAKE_ROWS = 8


class _TailStore:
    """The current tail-minima table, and the tail checkpoints of recent ones.

    The table last built is current and is read with ``take``. Each build
    also leaves its :class:`~sbc_lab.binomial.TailCheckpoints` in
    ``checkpoints``, least recently used first, within ``budget`` bytes; a
    table that is no longer current is then read by resuming its tails from
    them, bit for bit, rather than built again. A table built again, as its
    lookups were too many to resume, keeps the checkpoints it has, which
    have the same bits, and they become the most recently used. A build
    that returns no checkpoints keeps nothing.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.key: tuple[int, int] | None = None
        self.table = np.empty((0, 0))
        self.checkpoints: OrderedDict[tuple[int, int], TailCheckpoints] = OrderedDict()
        self.nbytes = 0

    def current(self, S: int, M: int) -> np.ndarray:
        """[i, k] = min(log P(X <= k), log P(X >= k)) for X ~ Bin(S, z_i), k = 0..S."""
        key = (S, M)
        if self.key != key:
            table, checkpoints = log_binom_tail_checkpoints(S, _z_points(M), _CHECKPOINT_EVERY)
            table.flags.writeable = False
            if key in self.checkpoints:
                self.checkpoints.move_to_end(key)
            elif checkpoints is not None and checkpoints.nbytes <= self.budget:
                self.checkpoints[key] = checkpoints
                self.nbytes += checkpoints.nbytes
                while self.nbytes > self.budget:
                    self.nbytes -= self.checkpoints.popitem(last=False)[1].nbytes
            self.key, self.table = key, table
        return self.table

    def least(self, R: np.ndarray, S: int, M: int) -> np.ndarray:
        """min over i of table[i, R[i, b]], for an (M+1, B) count matrix R of the (S, M) table.

        The current table is read with ``take``. Otherwise the stored
        checkpoints serve when the columns are few: a lookup resumes one tail
        for up to _CHECKPOINT_EVERY terms, about the work of that many table
        entries, so B * _CHECKPOINT_EVERY <= S + 1 resumes and a wider R (the
        null pass's B = _N_MC) builds the table. With ``take``, R is
        overwritten with flat table indices, which saves an (M+1, B)
        temporary.
        """
        key = (S, M)
        kept = self.checkpoints.get(key)
        if self.key != key and kept is not None and R.shape[1] * _CHECKPOINT_EVERY <= S + 1:
            self.checkpoints.move_to_end(key)
            return kept.entries(R).min(axis=0)
        table = self.current(S, M)
        R += np.arange(0, (M + 1) * (S + 1), S + 1)[:, None]
        least = np.full(R.shape[1], np.inf)
        for start in range(0, M + 1, _TAKE_ROWS):
            np.minimum(least, np.take(table, R[start : start + _TAKE_ROWS]).min(axis=0), out=least)
        return least


_tails = _TailStore(_CHECKPOINT_BYTES)


def _log_gammas_from_counts(R: np.ndarray, S: int, M: int) -> np.ndarray:
    """Log gamma of each column of an (M+1, B) matrix of ECDF counts of S ranks.

    The counts are point-major: row i holds every rank set's count at point
    i + 1, so each row reads one row of the table. R may be overwritten.
    """
    return _LOG2 + _tails.least(R, S, M)


def _log_gammas_for_matrix(ranks: np.ndarray, M: int) -> np.ndarray:
    """Log gamma of each row of an (B, S) rank matrix."""
    return _log_gammas_from_counts(_rank_counts(ranks, M), ranks.shape[1], M)


def log_gamma_statistic(rank_set: RankSet) -> float:
    """Log of the gamma statistic, exact even when gamma underflows."""
    if rank_set.S < 1:
        raise ValueError("rank set must contain at least one rank")
    return float(_log_gammas_for_matrix(rank_set.ranks[None, :], rank_set.max_rank)[0])


def gamma_statistic(rank_set: RankSet) -> float:
    """Likelihood of the most extreme ECDF point under uniform ranks.

    2 * min over i in {1..M+1} of min(Bin(R_i | S, z_i), 1 - Bin(R_i - 1 | S, z_i))
    with z_i = i / (M + 1) and R_i the count of ranks below i. May underflow
    to 0.0 in extreme cases; use :func:`log_gamma_statistic` then.
    """
    return float(np.exp(log_gamma_statistic(rank_set)))


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
    the cache can be checked against fresh draws of any size.
    """
    _check_null_args(level, n_mc)
    if S < 1:
        raise ValueError("S must be at least 1")
    ranks = rng.integers(0, M + 1, size=(n_mc, S))
    log_gammas = _log_gammas_for_matrix(ranks, M)
    return float(np.exp(np.quantile(log_gammas, level)))


# Sorted null log gammas per (S, M), and their _LEVEL quantile log gamma_bar,
# filled together.
_null_cache: dict[tuple[int, int], np.ndarray] = {}
_log_bar_cache: dict[tuple[int, int], float] = {}


def _null_rows(n: int, M: int):
    """First n rows of the calibration draw for M, in row blocks.

    Row s holds simulation s of each of the _N_MC null replicates (columns).
    Successive draws from one generator continue its sequence, so the blocks
    stacked are bit for bit the one-shot ``integers(0, M + 1, size=(n, _N_MC))``.
    """
    rng = stream(NULL_CALIBRATION_SEED, _NULL_STREAM + (M << 32) + _N_MC)
    for start in range(0, n, _ROW_BLOCK):
        yield rng.integers(0, M + 1, size=(min(_ROW_BLOCK, n - start), _N_MC))


def _prefix_nulls(lengths: list[int], M: int):
    """Yield (n, log gamma_bar) for each ascending prefix length n.

    A missing null is filled in the same pass: the rows of the calibration
    draw are added block by block to running point-major (M+1, _N_MC) rank
    counts, whose running sum down the points gives the ECDF counts at each
    missing n. The sorted null and its _LEVEL quantile are stored together.
    A fill reads every count through the (n, M) table itself, built here
    unless current, so when a filled n is yielded the caller's own kernel
    call at n reads that table too. A hit builds nothing: the caller's call
    then resumes from the checkpoints of an earlier build, and builds the
    table only when none are stored or it has too many rank sets to resume
    (see ``_TailStore.least``).
    """
    blocks = _null_rows(lengths[-1], M)  # lazy: opens the stream on the first miss
    block = np.empty((0, _N_MC), dtype=np.int64)
    counted = 0
    counts = None  # allocated on the first miss: hits, the warm path, need none
    for n in lengths:
        key = (n, M)
        if key not in _null_cache:
            if counts is None:
                # counts[v, b]: rank v among the counted rows of replicate b
                counts = np.zeros((M + 1, _N_MC), dtype=np.int64)
                replicate = np.arange(_N_MC)
                R = np.empty_like(counts)
            while counted < n:
                if not len(block):
                    block = next(blocks)
                take = min(n - counted, len(block))
                np.add.at(counts.reshape(-1), block[:take] * _N_MC + replicate, 1)
                block = block[take:]
                counted += take
            # a running add per point: cumsum(axis=0) walks the columns
            R[0] = counts[0]
            for i in range(1, M + 1):
                np.add(R[i - 1], counts[i], out=R[i])
            log_null = np.sort(_log_gammas_from_counts(R, n, M))
            _log_bar_cache[key] = float(np.quantile(log_null, _LEVEL))
            _null_cache[key] = log_null
        yield n, _log_bar_cache[key]


def log_gamma_null_quantile_cached(S: int, M: int) -> float:
    """Log of the 5 % null quantile from the fixed calibration stream, cached."""
    if S < 1:
        raise ValueError("S must be at least 1")
    [(_, log_bar)] = _prefix_nulls([S], M)
    return log_bar


def gamma_result(rank_set: RankSet, quantity: str = "") -> GammaResult:
    """Gamma statistic of a rank set with its cached null threshold."""
    log_gamma = log_gamma_statistic(rank_set)
    log_bar = log_gamma_null_quantile_cached(rank_set.S, rank_set.max_rank)
    return GammaResult(
        quantity=quantity,
        S=rank_set.S,
        M=rank_set.max_rank,
        gamma=float(np.exp(log_gamma)),
        gamma_bar=float(np.exp(log_bar)),
        log_gamma=log_gamma,
        log_gamma_bar=log_bar,
    )


def _prefix_lengths(S: int, step: int) -> list[int]:
    lengths = list(range(step, S + 1, step))
    if not lengths or lengths[-1] != S:
        lengths.append(S)
    return lengths


def evolution_table(
    ranks_by_quantity: Mapping[str, np.ndarray], M: int, step: int = 10
) -> list[EvolutionTrace]:
    """Evolution traces for several quantities over shared prefixes.

    For each prefix length the observed log gamma is compared against the
    cached null quantile for that prefix size; log_ratio < 0 means rejection
    of uniformity at 5 %. Prefix lengths run step, 2*step, ..., S with
    S always included. The quantities are stacked into one (Q, S) rank
    matrix, so each prefix is one kernel call on tables shared by all of
    them; prefer this over per-quantity calls for wide rank tables.

    A prefix whose null is filled by this call reads the table the fill
    built. A prefix whose null was cached reads its table's stored
    checkpoints (see ``_TailStore``), so a trace over cached nulls, as in a
    loop over seeds or variants, builds a table again only where the
    checkpoints were never kept or were dropped for the byte budget, and
    for short prefixes, where a build costs less than resuming every
    quantity's lookups.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    names = list(ranks_by_quantity)
    if not names:
        return []
    rows = [_integer_ranks(ranks_by_quantity[q]) for q in names]
    S = rows[0].size
    if any(r.size != S for r in rows):
        raise ValueError("all quantities must have the same number of ranks")
    if S < 1:
        raise ValueError("rank arrays must contain at least one rank")
    ranks = np.stack(rows)
    if ranks.min() < 0 or ranks.max() > M:
        raise ValueError("ranks must lie in [0, M]")
    lengths = _prefix_lengths(S, step)
    log_ratio = np.empty((len(names), len(lengths)))
    for j, (n, log_bar) in enumerate(_prefix_nulls(lengths, M)):
        log_ratio[:, j] = _log_gammas_for_matrix(ranks[:, :n], M) - log_bar
    n_sims = np.asarray(lengths, dtype=int)
    return [
        EvolutionTrace(quantity=q, n_sims=n_sims, log_ratio=log_ratio[i])
        for i, q in enumerate(names)
    ]


def evolution_trace(
    ranks: np.ndarray, M: int, quantity: str = "", step: int = 10
) -> EvolutionTrace:
    """Evolution trace of one quantity; see :func:`evolution_table`."""
    return evolution_table({quantity: ranks}, M, step=step)[0]


@dataclass(frozen=True)
class EcdfBand:
    """Simultaneous bounds on rank ECDF counts at i = 1..M+1.

    The band is the acceptance region of the 5 % gamma test: ``contains``
    holds exactly when gamma does not reject. ``pointwise_level`` is that
    test's threshold gamma_bar.
    """

    S: int
    M: int
    pointwise_level: float
    lower: np.ndarray
    upper: np.ndarray

    def contains(self, rank_set: RankSet) -> bool:
        if (rank_set.S, rank_set.max_rank) != (self.S, self.M):
            got = f"({rank_set.S}, {rank_set.max_rank})"
            raise ValueError(f"rank set has (S, M) = {got}, the band ({self.S}, {self.M})")
        R = rank_set.ecdf_counts()
        return bool(np.all(R >= self.lower) and np.all(R <= self.upper))


def ecdf_band(S: int, M: int) -> EcdfBand:
    """Simultaneous band for uniform rank ECDF counts: the gamma acceptance region.

    Count k is inside at point i when log 2 + table[i, k] >= log gamma_bar,
    with gamma_bar the cached 5 % null quantile. Gamma is log 2 plus the
    least table entry over the points, so a rank set lies in the band
    exactly when gamma does not reject it. Each table row rises and then
    falls in k, so the counts inside form an interval.
    """
    log_bar = log_gamma_null_quantile_cached(S, M)
    inside = _LOG2 + _tails.current(S, M) >= log_bar
    return EcdfBand(
        S=S,
        M=M,
        pointwise_level=float(np.exp(log_bar)),
        lower=inside.argmax(axis=1),
        upper=S - inside[:, ::-1].argmax(axis=1),
    )


def split_ranks(
    run: SbcRun, predicate: Callable[[Any], bool], quantity: str
) -> tuple[RankSet, RankSet]:
    """Partition one quantity's ranks by a predicate on the dataset.

    Returns (ranks where predicate holds, ranks where it does not). Either
    part may be empty; gamma and chi-square evaluation then must be skipped
    for that part by the caller.
    """
    hit = np.array([bool(predicate(data)) for data in run.data], dtype=bool)[run.ranked(quantity)]
    ranks = run.ranks(quantity)
    return RankSet(ranks=ranks[hit], max_rank=run.M), RankSet(ranks=ranks[~hit], max_rank=run.M)


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    p_value: float
    dof: int
    low_expected: bool


def chi_square_uniformity(rank_set: RankSet, n_bins: int | None = None) -> ChiSquareResult:
    """Chi-square test of the ranks against uniform{0..M}.

    Cells are contiguous, as equal as possible in width over the M+1 rank
    values (equal-probability cells). ``low_expected`` flags any expected
    cell count below 5.
    """
    M = rank_set.max_rank
    S = rank_set.S
    if S < 1:
        raise ValueError("rank set must contain at least one rank")
    if n_bins is None:
        n_bins = default_chi2_bins(S, M)
    n_bins = int(min(max(n_bins, 1), M + 1))
    base, extra = divmod(M + 1, n_bins)
    sizes = np.full(n_bins, base, dtype=int)
    sizes[:extra] += 1
    edges = np.concatenate([[0], np.cumsum(sizes)])
    counts = np.bincount(rank_set.ranks, minlength=M + 1)
    observed = np.add.reduceat(counts, edges[:-1]).astype(float)
    expected = S * sizes / (M + 1)
    # the arithmetic of scipy.stats.chisquare, without importing scipy.stats
    statistic = ((observed - expected) ** 2 / expected).sum()
    return ChiSquareResult(
        statistic=float(statistic),
        p_value=float(chdtrc(n_bins - 1, statistic)),
        dof=n_bins - 1,
        low_expected=bool(np.any(expected < 5.0)),
    )


def default_chi2_bins(S: int, M: int) -> int:
    """Finest equal-probability binning keeping expected counts at 5 or more."""
    if S >= 5 * (M + 1):
        return M + 1
    return max(2, min(M + 1, S // 5))

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
trace, with its threshold. The pass holds one (M+1) x 5 000 int32 matrix of
rank counts, and reads the table in blocks of points: a block's running
sums are its counts, looked up and folded into each replicate's least
entry before the next block is summed.
All gamma arithmetic happens in log space through one kernel: one table of
binomial tail minima per (S, M) (see :mod:`sbc_lab.binomial`) indexed by rank
counts, read with ``take`` or resumed bit for bit from its stored tail
checkpoints. The table has rows only for the ceil(M/2) points z_i <= 1/2.
The grid z_i = i/(M+1) is symmetric, and Bin(S, 1 - z) at count k is
Bin(S, z) at S - k, so the point z_{M+1-i} reads row i - 1 at its suffix
count #{ranks >= M+1-i}, which is S - R_{M+1-i}. The z = 1 point is never
read: its count is always S, where its entry is 0, and every entry of the
table is below 0, so it lowers no minimum.
The observed gamma, the null draws and every prefix of the evolution trace go
through it, so a statistic that ties its threshold compares equal bit for
bit. The simultaneous ECDF band is the acceptance region of that same
test: the counts whose table entries clear the null quantile.
"""

from __future__ import annotations

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

# Rows per calibration draw call: the draws hold O(_ROW_BLOCK * width) int32
# ranks in memory at any S, and are added to one (M+1, _N_MC) int32 count
# matrix, the only array of the null pass that grows with M.
_ROW_BLOCK = 64

_LOG2 = float(np.log(2.0))


@dataclass(frozen=True)
class RankSet:
    """Multiset of ranks on {0..max_rank} from one quantity."""

    ranks: np.ndarray
    max_rank: int

    def __post_init__(self) -> None:
        _check_max_rank(self.max_rank)
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


def _check_max_rank(M: int) -> None:
    """ValueError unless M >= 1: with no rank but 0, every rank set is uniform and gamma is 2."""
    if M < 1:
        raise ValueError("M must be at least 1")


def _integer_ranks(given) -> np.ndarray:
    """``given`` as a 1-D int array, or ValueError if it is not one of integers."""
    given = np.asarray(given)
    if given.ndim != 1:
        raise ValueError(f"ranks must be a 1-D array, got shape {given.shape}")
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
# at most this many - 1 pmf terms, and a trace of B quantities resumes from
# n = B * _CHECKPOINT_EVERY - 1 on (see _TailStore.least). At 8, the warm
# evolution trace of eleven quantities at S=1000, M=100, step 10 builds 8
# short tables and took 0.05-0.06 s, against 0.09 s at 16 (17 tables) and
# 0.22-0.24 s for building all 100 tables.
_CHECKPOINT_EVERY = 8

# Bytes of checkpoints kept. The 100 prefix tables of a trace at S=1000,
# M=100 need about 3.3 MB (62 kB for the 50 built rows at S=1000), so two
# such traces fit; a longer trace keeps its first prefixes up to the budget,
# and none when one table's checkpoints exceed it.
_CHECKPOINT_BYTES = 8 << 20

# Rows per block of a table lookup (see _take_least): a block's counts become
# flat indices and one ``take``. Half the rows at once would make a 2 MB
# temporary at M=100 and B = _N_MC = 5000; eight rows make 320 kB, in the
# same time. The null pass also forms its running sums one block at a time,
# so it holds no (M+1, _N_MC) matrix of ECDF counts.
_TAKE_ROWS = 8


class _TailStore:
    """The current tail-minima table, and the tail checkpoints of the tables that fit.

    The table last built is current and is read with ``take``. Each build
    leaves its :class:`~sbc_lab.binomial.TailCheckpoints` in ``checkpoints``
    if they fit in what is left of ``budget`` bytes; a table that is no
    longer current is then read by resuming its tails from them, bit for
    bit, rather than built again. Nothing kept is dropped or reordered: a
    warm evolution trace scans its prefix sizes in the same order every
    time, so the first checkpoints that fit are the ones each later scan
    resumes from, where dropping the oldest would drop each one just before
    a scan reads it. A table built again, as its lookups were too many to
    resume, keeps the checkpoints it has, which have the same bits. A build
    that returns no checkpoints keeps nothing.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.key: tuple[int, int] | None = None
        self.table = np.empty((0, 0))
        self.checkpoints: dict[tuple[int, int], TailCheckpoints] = {}
        self.nbytes = 0

    def current(self, S: int, M: int) -> np.ndarray:
        """The (ceil(M/2), S+1) table of the points z_i <= 1/2, built unless it is current."""
        key = (S, M)
        if self.key != key:
            z = _z_points(M)[: (M + 1) // 2]
            table, checkpoints = log_binom_tail_checkpoints(S, z, _CHECKPOINT_EVERY)
            table.flags.writeable = False
            fits = checkpoints is not None and self.nbytes + checkpoints.nbytes <= self.budget
            if fits and key not in self.checkpoints:
                self.checkpoints[key] = checkpoints
                self.nbytes += checkpoints.nbytes
            self.key, self.table = key, table
        return self.table

    def least(self, R: np.ndarray, S: int, M: int) -> np.ndarray:
        """The least table entry over the points, per column of an (M+1, B) count matrix R.

        The points z_i <= 1/2 read their rows at R[:half]. The point
        z_{M+1-i}, for i up to floor(M/2), reads row i - 1 at S - R[M - i],
        its suffix count #{ranks >= M+1-i}. The z = 1 point is not read: its
        count R[M] is S, where its entry is 0, and every table entry is below 0.

        The current table is read with ``take``, in point blocks (see
        :func:`_take_least`). Otherwise the stored checkpoints serve when the
        columns are few: a lookup resumes one tail for up to
        _CHECKPOINT_EVERY terms, about the work of that many table entries,
        so B * _CHECKPOINT_EVERY <= S + 1 resumes and a wider R builds the
        table. R is left as it is. The null pass does not come here: it
        reads its table through :func:`_take_least` directly.
        """
        key = (S, M)
        half = (M + 1) // 2
        lower, upper = R[:half], S - R[M - 1 : half - 1 : -1]
        kept = self.checkpoints.get(key)
        if self.key != key and kept is not None and R.shape[1] * _CHECKPOINT_EVERY <= S + 1:
            # one call for both halves, which read rows 0, 1, ... each
            return kept.entries(np.concatenate([lower, upper]), np.arange(M) % half).min(axis=0)
        halves = [
            [h[i : i + _TAKE_ROWS] for i in range(0, len(h), _TAKE_ROWS)] for h in (lower, upper)
        ]
        return _take_least(self.current(S, M), halves, R.shape[1])


def _take_least(table: np.ndarray, halves, width: int) -> np.ndarray:
    """The least table entry that the counts of both halves read, per column.

    ``halves`` holds two iterables of (rows, width) count blocks: the counts
    at the points z_i <= 1/2 and the suffix counts at their mirrors, each
    in row order from table row 0, up to _TAKE_ROWS rows at a time. Each
    block is turned into intp flat indices of the table, so its entries are
    one ``take``, whatever the dtype of the counts.
    """
    row_start = np.arange(0, table.size, table.shape[1], dtype=np.intp)[:, None]
    least = np.full(width, np.inf)
    for blocks in halves:
        start = 0
        for block in blocks:
            flat = block + row_start[start : start + len(block)]
            np.minimum(least, np.take(table, flat).min(axis=0), out=least)
            start += len(block)
    return least


_tails = _TailStore(_CHECKPOINT_BYTES)


def _log_gammas_for_matrix(ranks: np.ndarray, M: int) -> np.ndarray:
    """Log gamma of each row of an (B, S) rank matrix.

    Its ECDF counts are point-major, (M+1, B): row i holds every rank set's
    count at point i + 1, so each row reads one row of the table.
    """
    return _LOG2 + _tails.least(_rank_counts(ranks, M), ranks.shape[1], M)


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
    _check_max_rank(M)
    ranks = rng.integers(0, M + 1, size=(n_mc, S))
    log_gammas = _log_gammas_for_matrix(ranks, M)
    return float(np.exp(np.quantile(log_gammas, level)))


# Sorted null log gammas per (S, M), and their _LEVEL quantile log gamma_bar,
# filled together.
_null_cache: dict[tuple[int, int], np.ndarray] = {}
_log_bar_cache: dict[tuple[int, int], float] = {}


def _null_rows(n: int, M: int):
    """First n rows of the calibration draw for M, in int32 row blocks.

    Row s holds simulation s of each of the _N_MC null replicates (columns).
    Successive draws from one generator continue its sequence, so the blocks
    stacked are bit for bit the one-shot ``integers(0, M + 1, size=(n, _N_MC))``;
    below 2**32 an int32 draw takes the same values as the int64 one, and
    leaves the stream in the same state.
    """
    rng = stream(NULL_CALIBRATION_SEED, _NULL_STREAM + (M << 32) + _N_MC)
    for start in range(0, n, _ROW_BLOCK):
        yield rng.integers(0, M + 1, size=(min(_ROW_BLOCK, n - start), _N_MC), dtype=np.int32)


def _running_sums(counts: np.ndarray):
    """The running sums of ``counts`` down its rows, _TAKE_ROWS rows at a time."""
    total = np.zeros(counts.shape[1], dtype=counts.dtype)
    for start in range(0, len(counts), _TAKE_ROWS):
        rows = counts[start : start + _TAKE_ROWS]
        block = np.empty_like(rows)
        for i, row in enumerate(rows):
            # a running add per point: cumsum(axis=0) walks the columns
            total = np.add(total, row, out=block[i])
        yield block


def _prefix_nulls(lengths: list[int], M: int):
    """Yield (n, log gamma_bar) for each ascending prefix length n.

    A missing null is filled in the same pass: the rows of the calibration
    draw are added block by block to one running point-major (M+1, _N_MC)
    int32 matrix of rank counts. At each missing n, its running sums,
    taken _TAKE_ROWS ranks at a time, give the ECDF counts at the points
    z_i <= 1/2 when summed up from rank 0, and the suffix counts that their
    mirrors read when summed down from rank M. Each block is read from the
    (n, M) table and folded into the least entry of each replicate (see
    :func:`_take_least`), so no (M+1, _N_MC) matrix of ECDF counts is held.
    The sorted null and its _LEVEL quantile are stored together. A fill
    builds the (n, M) table unless it is current, so when a filled n is
    yielded the caller's own kernel call at n reads that table too. A hit
    builds nothing: the caller's call then resumes from the checkpoints of
    an earlier build, and builds the table only when none are stored or it
    has too many rank sets to resume (see ``_TailStore.least``).
    """
    blocks = _null_rows(lengths[-1], M)  # lazy: opens the stream on the first miss
    block = np.empty((0, _N_MC), dtype=np.int32)
    counted = 0
    counts = None  # allocated on the first miss: hits, the warm path, need none
    for n in lengths:
        key = (n, M)
        if key not in _null_cache:
            if counts is None:
                # counts[v, b]: rank v among the counted rows of replicate b
                counts = np.zeros((M + 1, _N_MC), dtype=np.int32)
                replicate = np.arange(_N_MC)
            while counted < n:
                if not len(block):
                    block = next(blocks)
                take = min(n - counted, len(block))
                # intp, as block * _N_MC overflows int32 once M exceeds about 429 000
                flat = np.multiply(block[:take], _N_MC, dtype=np.intp)
                flat += replicate
                # an int32 one: a Python 1 sends add.at down a slow path
                np.add.at(counts.reshape(-1), flat, np.int32(1))
                block = block[take:]
                counted += take
            # the suffix counts of the mirrored points are running sums down from rank M
            half = (M + 1) // 2
            sums = (_running_sums(counts[:half]), _running_sums(counts[:half:-1]))
            least = _take_least(_tails.current(n, M), sums, _N_MC)
            log_null = np.sort(_LOG2 + least)
            _log_bar_cache[key] = float(np.quantile(log_null, _LEVEL))
            _null_cache[key] = log_null
        yield n, _log_bar_cache[key]


def log_gamma_null_quantile_cached(S: int, M: int) -> float:
    """Log of the 5 % null quantile from the fixed calibration stream, cached."""
    if S < 1:
        raise ValueError("S must be at least 1")
    _check_max_rank(M)
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
    checkpoints were not kept, as they did not fit the byte budget, and
    for short prefixes, where a build costs less than resuming every
    quantity's lookups.
    """
    if step < 1:
        raise ValueError("step must be >= 1")
    _check_max_rank(M)
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
    falls in k, so the counts inside form an interval. Only the table's
    rows, the points z_i <= 1/2, are compared: the point z_{M+1-i} reads
    row i - 1 at S - k, so its interval is that of z_i reflected, and the
    z = 1 point's is [S, S].
    """
    log_bar = log_gamma_null_quantile_cached(S, M)  # rejects S < 1 and M < 1
    table = _tails.current(S, M)
    half = len(table)
    lower = np.empty(M + 1, dtype=np.intp)
    upper = np.empty(M + 1, dtype=np.intp)
    # _TAKE_ROWS rows at a time, so no temporary the size of the table
    for start in range(0, half, _TAKE_ROWS):
        inside = _LOG2 + table[start : start + _TAKE_ROWS] >= log_bar
        lower[start : start + len(inside)] = inside.argmax(axis=1)
        upper[start : start + len(inside)] = S - inside[:, ::-1].argmax(axis=1)
    lower[half:M] = S - upper[: M - half][::-1]
    upper[half:M] = S - lower[: M - half][::-1]
    lower[M] = upper[M] = S
    return EcdfBand(S=S, M=M, pointwise_level=float(np.exp(log_bar)), lower=lower, upper=upper)


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
    values (equal-probability cells); ``n_bins`` is capped at M+1, and below
    2 (no degree of freedom) raises ``ValueError``. ``low_expected`` flags
    any expected cell count below 5.
    """
    M = rank_set.max_rank
    S = rank_set.S
    if S < 1:
        raise ValueError("rank set must contain at least one rank")
    if n_bins is None:
        n_bins = default_chi2_bins(S, M)
    if n_bins < 2:
        raise ValueError(f"n_bins must be at least 2, got {n_bins}")
    n_bins = int(min(n_bins, M + 1))
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

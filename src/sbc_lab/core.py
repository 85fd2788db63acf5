"""Core SBC machinery: rank statistics, test quantities, the simulation harness.

A single simulation draws a parameter from the prior, generates a dataset,
asks the posterior family under test for M draws, and reduces everything to
one rank per test quantity: the number of posterior draws whose quantity
value falls below the prior draw's value, with ties shared out uniformly at
random. A calibrated sampler makes every rank uniform on {0..M}.

A run keeps its ranks as one columnar table, one row per successful
simulation and one column per quantity; it keeps no posterior draws.
Quantities are evaluated and ranked one group of successful simulations at a
time: the group's prior and posterior draws are stacked into one
(g, M+1, dim) array, each quantity's kernel is called once on the group,
and the whole (g, Q, M+1) block is ranked at once. These two steps are the
public :func:`evaluate_quantities` and :func:`compute_rank`, and sampling is
one ``sample_batch`` call a group; a single simulation is a group of one.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .rng import MAX_SEED, generation_stream, posterior_stream, tiebreak_stream

__all__ = [
    "TestQuantity",
    "SbcRun",
    "SamplerError",
    "InvalidQuantityError",
    "compute_rank",
    "evaluate_quantities",
    "run_sbc",
    "ess",
    "EssResult",
]


class SamplerError(RuntimeError):
    """Posterior sampling failed for one dataset (e.g. nonconvergence)."""


class InvalidQuantityError(ValueError):
    """A test quantity produced NaN or a wrong shape: a broken kernel or sampler."""


@dataclass(frozen=True)
class TestQuantity:
    """Named scalar function of (parameters, data), written as one group kernel.

    ``kernel(draws, datasets)`` maps a (g, N, dim) array of parameter vectors
    plus the sequence of the g datasets to a (g, N) array of values. Row r
    must depend only on ``draws[r]`` and ``datasets[r]``, computed the same
    way whatever g, so ranks never depend on the grouping; a single
    simulation is a group of one. Values of +/-inf are legal (they order and
    tie like any other value); NaN is not.
    """

    name: str
    kernel: Callable[[np.ndarray, Sequence[Any]], np.ndarray]


def _kernel_values(q: TestQuantity, draws: np.ndarray, datasets: Sequence[Any]) -> np.ndarray:
    """``q``'s (g, N) values on a group of draws; another shape raises InvalidQuantityError."""
    out = np.asarray(q.kernel(draws, datasets), dtype=float)
    if out.shape != draws.shape[:2]:
        raise InvalidQuantityError(
            f"quantity {q.name!r} returned shape {out.shape}, expected {draws.shape[:2]}"
        )
    return out


def evaluate_quantities(
    draws: np.ndarray, datasets: Sequence[Any], quantities: Sequence[TestQuantity]
) -> tuple[np.ndarray, dict[tuple[int, int], str]]:
    """Every quantity on a group's stacked (g, N, dim) draws: values (g, Q, N) and errors.

    ``errors[r, j]`` is the message of quantity j failing in simulation r of
    the group (it raised, returned the wrong shape or gave NaN); that cell's
    values are all NaN. Each kernel is called once on the whole group; if
    that call raises or returns another shape than (g, N), the kernel runs
    on each simulation as a group of one, so one bad simulation costs only
    its own cell. Draws that are not 3-D, or ``datasets`` not of length g,
    raise ``ValueError``.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 3 or len(datasets) != len(draws):
        raise ValueError(f"need (g, N, dim) draws and g datasets, got {draws.shape} and {len(datasets)}")
    g, N = draws.shape[:2]
    values = np.empty((g, len(quantities), N))
    errors: dict[tuple[int, int], str] = {}
    for j, q in enumerate(quantities):
        try:
            values[:, j] = _kernel_values(q, draws, datasets)
        except Exception:  # noqa: BLE001 - the groups of one below record the failure
            for r in range(g):
                try:
                    values[r, j] = _kernel_values(q, draws[r : r + 1], [datasets[r]])[0]
                except Exception as exc:  # noqa: BLE001 - per-quantity isolation is the contract
                    errors[r, j] = f"{type(exc).__name__}: {exc}"
                    values[r, j] = np.nan
    for r, j in zip(*np.nonzero(np.isnan(values).any(axis=2))):
        name = quantities[j].name
        errors.setdefault((r, j), f"InvalidQuantityError: NaN in rank inputs for quantity {name!r}")
        values[r, j] = np.nan
    return values, errors


def compute_rank(
    values: np.ndarray, tie_rng: Callable[[int], np.random.Generator]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(n_less, n_equals, rank)``, each (g, Q), of a (g, Q, M+1) block of values.

    ``values[r, j, 0]`` is the prior value of quantity j in simulation r and
    ``values[r, j, 1:]`` its M posterior values. ``n_less`` counts strictly
    smaller posterior values, ``n_equals`` exact ties, and ``rank`` adds the
    tie share k, uniform on {0..n_equals}. A cell of all NaN (a quantity not
    evaluated there) counts 0 and draws no share; a cell with NaN in only
    some of its values raises :class:`InvalidQuantityError`. Simulation r's
    tie shares come from one ``tie_rng(r).integers(0, n_equals + 1)`` call
    over its evaluated quantities, which gives the values and the stream
    state of one scalar call per quantity in order; ``tie_rng`` is called
    only for a simulation with a tie, as a range of one value draws nothing.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[2] < 2:
        raise ValueError(f"values must be a (g, Q, M+1) block with M >= 1, got {values.shape}")
    nan = np.count_nonzero(np.isnan(values), axis=2)
    mixed = np.argwhere((nan > 0) & (nan < values.shape[2]))
    if mixed.size:
        r, j = mixed[0]
        raise InvalidQuantityError(f"NaN in some but not all values of cell ({r}, {j})")
    prior = values[:, :, :1]
    n_less = np.count_nonzero(values[:, :, 1:] < prior, axis=2)
    n_equals = np.count_nonzero(values[:, :, 1:] == prior, axis=2)
    rank = n_less.copy()
    for r in np.flatnonzero(n_equals.any(axis=1)):
        evaluated = nan[r] == 0
        rank[r, evaluated] += tie_rng(r).integers(0, n_equals[r, evaluated] + 1)
    return n_less, n_equals, rank


@dataclass
class SbcRun:
    """Outcome of an SBC experiment: a columnar rank table and failure bookkeeping.

    Row r of ``n_less``, ``n_equals`` and ``rank`` (each (n_ok, Q) integers,
    columns in the order of ``quantities``) belongs to simulation
    ``sim_index[r]`` with dataset ``data[r]``. ``evaluated`` is False where
    that quantity failed in that simulation (see ``quantity_errors``); those
    cells hold 0. Every rank lies in {0..M}.
    """

    variant_name: str
    S: int
    M: int
    seed: int
    thin_stride: int
    quantities: list[str]
    sim_index: np.ndarray
    data: list[Any]
    n_less: np.ndarray
    n_equals: np.ndarray
    rank: np.ndarray
    evaluated: np.ndarray
    failures: list[tuple[int, str]]
    quantity_errors: list[tuple[int, str, str]]

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def quantity_names(self) -> list[str]:
        """Quantities ranked in at least one simulation, in library order."""
        return [q for q, ok in zip(self.quantities, self.evaluated.any(axis=0)) if ok]

    def ranked(self, quantity: str) -> np.ndarray:
        """Boolean mask over the rows: where ``quantity`` has a rank."""
        return self.evaluated[:, self.quantities.index(quantity)]

    def ranks(self, quantity: str) -> np.ndarray:
        """Ranks of one quantity across successful simulations, by sim index."""
        return self.rank[self.ranked(quantity), self.quantities.index(quantity)]


# Memory budget for the kept chains of one sampled group: M * thin_stride
# float64 parameter vectors per simulation. At M=100, thin=20 and four
# parameters it gives 524 chains per group; the Gaussian family's (M, 2)
# draws at M=100 give 20 971 simulations per group.
_LOCKSTEP_BYTES = 32 << 20

# Memory budget for one group of the evaluation and ranking loop: the
# stacked (g, M+1, dim) draws plus the (g, Q, M+1) quantity values, in
# float64. At M=100, two parameters and eleven quantities it gives 199
# simulations per group.
_GROUP_BYTES = 2 << 20


def _checked_draws(got: Any, shape: tuple[int, int]) -> np.ndarray | str:
    """Posterior draws as a float array of ``shape``, or the message of the failure to record."""
    if isinstance(got, Exception):
        return f"{type(got).__name__}: {got}"
    try:
        post = np.asarray(got, dtype=float)
    except (TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if post.shape != shape:
        return f"ValueError: family returned draws of shape {post.shape}, expected {shape}"
    nan = np.isnan(post)
    if nan.any():
        return f"SamplerError: family returned NaN in {nan.any(axis=1).sum()} of {shape[0]} draws"
    return post


def run_sbc(
    generator: Any,
    posterior_family: Any,
    quantities: Sequence[TestQuantity],
    S: int,
    M: int,
    seed: int,
    thin_stride: int = 1,
) -> SbcRun:
    """Run S independent SBC simulations against one posterior family, serially.

    Simulation ``i`` consumes up to three dedicated streams derived from
    ``seed`` (generation, posterior sampling, and tie-breaking, opened only
    when some quantity ties), so the output is bitwise identical for a fixed
    seed whatever the grouping; ``generate(rng)`` is a function of the stream
    alone. The family's one method, ``sample_batch(datasets, M, streams,
    thin)``, returns per dataset its (M, dim) draws, from its stream alone, or
    the exception that failed it; a family without it raises TypeError. Groups
    sized by ``_LOCKSTEP_BYTES`` are generated and sampled by one call each,
    or as groups of one if that call raises or miscounts; a group that holds
    one simulation is already a group of one, and is sampled once. A simulation whose
    sampling fails (raised, returned or misshapen) or whose draws hold NaN is
    left out of the rank table and listed in ``failures`` with the exception
    type and message, kept as that string where the failure is caught. A
    group's successful simulations are evaluated and ranked in groups sized by
    ``_GROUP_BYTES`` before the next group is generated, so a run holds one
    group's draws (see :class:`TestQuantity` for the kernel contract); a
    quantity that raises, has the wrong shape or gives NaN is left unranked in
    that simulation and listed in ``quantity_errors``. ``seed`` must be from 0
    to :data:`~sbc_lab.rng.MAX_SEED`: any other would run the streams of a
    seed in that range.
    """
    if S < 1 or M < 1 or thin_stride < 1:
        raise ValueError("S, M and thin_stride must all be >= 1")
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be from 0 to {MAX_SEED}, got {seed}")
    sample_batch = getattr(posterior_family, "sample_batch", None)
    if sample_batch is None:
        raise TypeError(f"posterior family {type(posterior_family).__name__} has no sample_batch")
    names = [q.name for q in quantities]
    dim = np.size(generator.generate(generation_stream(seed, 0))[0])  # simulation 0 sizes groups
    chunk = max(1, _LOCKSTEP_BYTES // (8 * M * thin_stride * dim))
    group = max(1, _GROUP_BYTES // (8 * (M + 1) * (dim + len(names))))
    ok: list[int] = []
    data: list[Any] = []
    failures: list[tuple[int, str]] = []
    quantity_errors: list[tuple[int, str, str]] = []
    empty = np.zeros((0, len(names)), dtype=int)
    blocks = [(empty, empty, empty, empty.astype(bool))]  # (n_less, n_equals, rank, evaluated)
    for lo in range(0, S, chunk):
        sampled = range(lo, min(lo + chunk, S))
        out = good = priors = datasets = thetas = draws = stacked = values = None  # frees the last group
        priors, datasets = zip(*(generator.generate(generation_stream(seed, i)) for i in sampled))
        if len(sampled) > 1:  # a group of one is sampled once, below
            streams = [posterior_stream(seed, i) for i in sampled]
            with suppress(Exception):  # a group whose call raises is sampled below
                out = [
                    _checked_draws(got, (M, dim))
                    for got in sample_batch(list(datasets), M, streams, thin_stride)
                ]
        if out is None or len(out) != len(sampled):
            # each simulation owns its stream, so a group of one isolates a
            # failure and gives the other simulations their results from the group
            out = []
            for i, dataset in zip(sampled, datasets):
                try:
                    (got,) = sample_batch([dataset], M, [posterior_stream(seed, i)], thin_stride)
                    out.append(_checked_draws(got, (M, dim)))
                except Exception as exc:  # noqa: BLE001 - one failing simulation must not end the run
                    out.append(f"{type(exc).__name__}: {exc}")
        failures.extend((i, got) for i, got in zip(sampled, out) if isinstance(got, str))
        good = [sim for sim in zip(sampled, priors, datasets, out) if not isinstance(sim[3], str)]
        for start in range(0, len(good), group):
            sims, thetas, datas, draws = zip(*good[start : start + group])
            stacked = np.empty((len(sims), M + 1, dim))
            stacked[:, 0] = thetas
            stacked[:, 1:] = draws
            values, errors = evaluate_quantities(stacked, list(datas), quantities)
            n_less, n_equals, rank = compute_rank(values, lambda r: tiebreak_stream(seed, sims[r]))
            blocks.append((n_less, n_equals, rank, ~np.isnan(values[:, :, 0])))
            quantity_errors.extend((sims[r], names[j], m) for (r, j), m in sorted(errors.items()))
            ok.extend(sims)
            data.extend(datas)
    n_less, n_equals, rank, evaluated = (np.concatenate(column) for column in zip(*blocks))
    return SbcRun(
        variant_name=getattr(posterior_family, "name", type(posterior_family).__name__),
        S=S,
        M=M,
        seed=seed,
        thin_stride=thin_stride,
        quantities=names,
        sim_index=np.asarray(ok, dtype=int),
        data=data,
        n_less=n_less,
        n_equals=n_equals,
        rank=rank,
        evaluated=evaluated,
        failures=failures,
        quantity_errors=quantity_errors,
    )


@dataclass(frozen=True)
class EssResult:
    ess: float
    degenerate: bool


def ess(chain: Sequence[float]) -> EssResult:
    """Effective sample size via the initial monotone sequence estimator.

    Autocorrelations are estimated by FFT; consecutive pairs are summed,
    truncated at the first nonpositive pair and forced nonincreasing before
    summation. The estimate is capped at 1.05x the chain length. A constant
    chain returns 0 with the degenerate flag set.
    """
    x = np.asarray(chain, dtype=float)
    if x.ndim != 1:
        raise ValueError("ess expects a single one-dimensional chain")
    n = x.size
    if n < 10:
        raise ValueError("chain must have length >= 10")
    x = x - x.mean()
    var0 = float(np.dot(x, x)) / n
    if var0 == 0.0 or not np.isfinite(var0):
        return EssResult(0.0, True)
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[:n].real / n
    rho = acov / acov[0]
    n_pairs = n // 2
    pair = rho[0 : 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
    positive = np.nonzero(pair <= 0.0)[0]
    cutoff = int(positive[0]) if positive.size else n_pairs
    kept = pair[: max(cutoff, 1)]
    kept = np.minimum.accumulate(kept)
    tau = 2.0 * float(np.sum(kept)) - 1.0
    tau = max(tau, 1.0 / 1.05)
    return EssResult(min(n / tau, 1.05 * n), False)

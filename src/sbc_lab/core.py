"""Core SBC machinery: rank statistics, test quantities, the simulation harness.

A single simulation draws a parameter from the prior, generates a dataset,
asks the posterior family under test for M draws, and reduces everything to
one rank per test quantity: the number of posterior draws whose quantity
value falls below the prior draw's value, with ties shared out uniformly at
random. A calibrated sampler makes every rank uniform on {0..M}.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .rng import generation_stream, posterior_stream, tiebreak_stream

__all__ = [
    "TestQuantity",
    "RankStatistic",
    "SimulationRecord",
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
    """A test quantity produced NaN, which signals a broken evaluator or sampler."""


@dataclass(frozen=True)
class TestQuantity:
    """Named scalar function of (parameters, data).

    ``evaluator`` is vectorized over draws: it maps an (N, dim) array of
    parameter vectors plus the dataset to an (N,) array of values. Values of
    +/-inf are legal (they order and tie like any other value); NaN is not.
    """

    name: str
    evaluator: Callable[[np.ndarray, Any], np.ndarray]

    def __call__(self, theta: np.ndarray, data: Any) -> float:
        return float(self.evaluator(np.asarray(theta, float)[None, :], data)[0])


@dataclass(frozen=True)
class RankStatistic:
    quantity: str
    n_less: int
    n_equals: int
    k: int
    max_rank: int

    @property
    def rank(self) -> int:
        return self.n_less + self.k

    def __post_init__(self) -> None:
        if not (0 <= self.k <= self.n_equals):
            raise ValueError("tie share k must lie in [0, n_equals]")
        if self.n_less + self.n_equals > self.max_rank:
            raise ValueError("n_less + n_equals cannot exceed the draw count")


@dataclass(frozen=True)
class SimulationRecord:
    """One SBC simulation: prior draw, dataset, posterior draws, provenance."""

    sim_index: int
    prior_draw: np.ndarray
    data: Any
    posterior_draws: np.ndarray
    variant_name: str
    seed_info: tuple[int, int]


def compute_rank(
    prior_value: float,
    posterior_values: np.ndarray,
    rng: np.random.Generator,
    quantity: str = "",
) -> RankStatistic:
    """Rank of ``prior_value`` within ``posterior_values`` with random tie-breaking.

    ``n_less`` counts strictly smaller posterior values, ``n_equals`` counts
    exact ties, and the tie share ``k`` is drawn uniformly on {0..n_equals}
    from ``rng``. Exactly one integer is drawn per call even when there are
    no ties, so streams stay aligned across transformed quantities.
    """
    values = np.asarray(posterior_values, dtype=float)
    if values.size == 0:
        raise ValueError("posterior_values must be non-empty")
    if np.isnan(prior_value) or np.isnan(values).any():
        raise InvalidQuantityError(f"NaN in rank inputs for quantity {quantity!r}")
    n_less = int(np.count_nonzero(values < prior_value))
    n_equals = int(np.count_nonzero(values == prior_value))
    k = int(rng.integers(0, n_equals + 1))
    return RankStatistic(
        quantity=quantity,
        n_less=n_less,
        n_equals=n_equals,
        k=k,
        max_rank=int(values.size),
    )


def evaluate_quantities(
    record: SimulationRecord, quantities: Sequence[TestQuantity]
) -> tuple[dict[str, tuple[float, np.ndarray]], dict[str, str]]:
    """Evaluate every quantity on the prior draw and on each posterior draw.

    Returns ``(values, errors)``: ``values[name] = (prior_value, posterior_values)``
    with posterior order preserved; a failing evaluator lands in ``errors``
    without affecting the other quantities.
    """
    stacked = np.vstack([np.asarray(record.prior_draw, float)[None, :], record.posterior_draws])
    values: dict[str, tuple[float, np.ndarray]] = {}
    errors: dict[str, str] = {}
    for q in quantities:
        try:
            out = np.asarray(q.evaluator(stacked, record.data), dtype=float)
            if out.shape != (stacked.shape[0],):
                raise InvalidQuantityError(
                    f"evaluator {q.name!r} returned shape {out.shape}, expected ({stacked.shape[0]},)"
                )
            values[q.name] = (float(out[0]), out[1:])
        except Exception as exc:  # noqa: BLE001 - per-quantity isolation is the contract
            errors[q.name] = f"{type(exc).__name__}: {exc}"
    return values, errors


@dataclass
class SbcRun:
    """Outcome of an SBC experiment: records, ranks, and failure bookkeeping."""

    variant_name: str
    S: int
    M: int
    seed: int
    thin_stride: int
    records: list[SimulationRecord] = field(default_factory=list)
    rank_rows: list[list[RankStatistic]] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    quantity_errors: list[tuple[int, str, str]] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def quantity_names(self) -> list[str]:
        names: list[str] = []
        for row in self.rank_rows:
            for stat in row:
                if stat.quantity not in names:
                    names.append(stat.quantity)
        return names

    def ranks(self, quantity: str) -> np.ndarray:
        """Ranks of one quantity across successful simulations, by sim index."""
        out = [s.rank for row in self.rank_rows for s in row if s.quantity == quantity]
        return np.asarray(out, dtype=int)

    def results(self) -> list[tuple[SimulationRecord, list[RankStatistic]]]:
        return list(zip(self.records, self.rank_rows))


def _resolve_jobs(n_jobs: int | None) -> int:
    if n_jobs is not None:
        return max(1, int(n_jobs))
    env = os.environ.get("SBC_LAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


# Memory budget for the kept chains of one lockstep group of a batched
# family: M * thin_stride float64 parameter vectors per simulation. At
# M=100, thin=20 and four parameters it gives 524 chains per group.
_LOCKSTEP_BYTES = 32 << 20


def _checked_draws(got: Any, shape: tuple[int, int]) -> Any:
    """Posterior draws as a float array of ``shape``, or the exception to record."""
    if isinstance(got, Exception):
        return got
    try:
        post = np.asarray(got, dtype=float)
    except (TypeError, ValueError) as exc:
        return exc
    if post.shape != shape:
        return ValueError(f"family returned draws of shape {post.shape}, expected {shape}")
    return post


def run_sbc(
    generator: Any,
    posterior_family: Any,
    quantities: Sequence[TestQuantity],
    S: int,
    M: int,
    seed: int,
    thin_stride: int = 1,
    n_jobs: int | None = None,
) -> SbcRun:
    """Run S independent SBC simulations against one posterior family.

    Simulation ``i`` consumes three dedicated streams derived from ``seed``
    (generation, posterior sampling, tie-breaking), so the output is bitwise
    identical for a fixed seed regardless of thread count or schedule.
    A family with ``sample_batch`` samples simulations in lockstep groups
    sized by ``_LOCKSTEP_BYTES``; a group whose call raises is rerun one
    simulation at a time through ``sample``. Simulations whose sampling
    raises (:class:`SamplerError` or anything else) or returns draws of the
    wrong shape are excluded from the rank table and listed in ``failures``
    with the exception type and message.
    """
    if S < 1 or M < 1 or thin_stride < 1:
        raise ValueError("S, M and thin_stride must all be >= 1")
    run = SbcRun(
        variant_name=getattr(posterior_family, "name", type(posterior_family).__name__),
        S=S,
        M=M,
        seed=seed,
        thin_stride=thin_stride,
    )

    priors: list[np.ndarray] = []
    datasets: list[Any] = []
    for i in range(S):
        theta, data = generator.generate(generation_stream(seed, i))
        priors.append(np.asarray(theta, dtype=float))
        datasets.append(data)

    def _sample_one(i: int) -> Any:
        try:
            return posterior_family.sample(datasets[i], M, posterior_stream(seed, i), thin_stride)
        except Exception as exc:  # noqa: BLE001 - one failing simulation must not end the run
            return exc

    jobs = _resolve_jobs(n_jobs)
    if hasattr(posterior_family, "sample_batch"):
        # lockstep groups as large as the kept-chain budget allows, and at
        # least one group per worker thread
        chain_bytes = 8 * M * thin_stride * priors[0].size
        chunk = min(max(1, _LOCKSTEP_BYTES // chain_bytes), -(-S // jobs))
        spans = [(lo, min(lo + chunk, S)) for lo in range(0, S, chunk)]

        def _run_span(span: tuple[int, int]) -> list[Any]:
            lo, hi = span
            streams = [posterior_stream(seed, i) for i in range(lo, hi)]
            try:
                out = list(posterior_family.sample_batch(datasets[lo:hi], M, streams, thin_stride))
                if len(out) != hi - lo:
                    raise ValueError(f"sample_batch gave {len(out)} results for {hi - lo} datasets")
            except Exception:  # noqa: BLE001 - rerun the group one simulation at a time
                # each simulation owns its stream, so the rerun isolates the failure
                # and gives the other simulations their results from the group
                out = [_sample_one(i) for i in range(lo, hi)]
            return out

        if jobs > 1 and len(spans) > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                draws = [d for out in pool.map(_run_span, spans) for d in out]
        else:
            draws = [d for span in spans for d in _run_span(span)]
    elif jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            draws = list(pool.map(_sample_one, range(S)))
    else:
        draws = [_sample_one(i) for i in range(S)]

    for i in range(S):
        got = _checked_draws(draws[i], (M, priors[i].size))
        if isinstance(got, Exception):
            run.failures.append((i, f"{type(got).__name__}: {got}"))
            continue
        record = SimulationRecord(
            sim_index=i,
            prior_draw=priors[i],
            data=datasets[i],
            posterior_draws=got,
            variant_name=run.variant_name,
            seed_info=(seed, i),
        )
        values, errors = evaluate_quantities(record, quantities)
        for name, message in errors.items():
            run.quantity_errors.append((i, name, message))
        tie_rng = tiebreak_stream(seed, i)
        row = []
        for q in quantities:
            if q.name not in values:
                continue
            prior_value, post_values = values[q.name]
            row.append(compute_rank(prior_value, post_values, tie_rng, quantity=q.name))
        run.records.append(record)
        run.rank_rows.append(row)
    return run


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

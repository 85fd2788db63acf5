"""Bivariate normal conjugate model with one correct and five broken posteriors.

The model draws a 2-vector mean from MVN(0, Sigma) with unit variances and
correlation 0.8, then n observations from MVN(mean, Sigma). The correct
posterior is MVN(n * ybar / (n + 1), Sigma / (n + 1)). The broken variants
each embody one classic failure mode: ignoring all data, ignoring one data
point, dropping the posterior correlation, adding a small per-fit bias, and
a marginal-preserving non-monotone warp that only data-dependent or
non-monotone test quantities can see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from ..core import TestQuantity

__all__ = [
    "SIGMA",
    "GaussianGenerator",
    "make_variant",
    "quantity_library",
    "VARIANT_NAMES",
    "grand_mean_positive",
    "component_mean_positive",
]

SIGMA = np.array([[1.0, 0.8], [0.8, 1.0]])
_CHOL = np.linalg.cholesky(SIGMA)
_SIGMA_INV = np.linalg.inv(SIGMA)
_LOGDET = float(np.linalg.slogdet(SIGMA)[1])
_LOG2PI = float(np.log(2.0 * np.pi))

VARIANT_NAMES = (
    "correct",
    "prior-only",
    "ignore-first",
    "independent-marginals",
    "small-bias",
    "non-monotonic",
)


@dataclass(frozen=True)
class GaussianGenerator:
    """Prior and observation sampler; data is an (n, 2) matrix."""

    n: int = 3

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")

    def generate(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        mu = _CHOL @ rng.standard_normal(2)
        y = mu[None, :] + rng.standard_normal((self.n, 2)) @ _CHOL.T
        return mu, y


def _mvn_draws(rng: np.random.Generator, mean: np.ndarray, scale: float, M: int) -> np.ndarray:
    """M draws from MVN(mean, scale * Sigma)."""
    return mean[None, :] + np.sqrt(scale) * rng.standard_normal((M, 2)) @ _CHOL.T


def _mvn_log_density(draws: np.ndarray, mean: np.ndarray, scale: float) -> np.ndarray:
    """Log density of MVN(mean, scale * Sigma) at each draw."""
    diff = draws - mean[None, :]
    quad = np.einsum("ni,ij,nj->n", diff, _SIGMA_INV, diff) / scale
    return -_LOG2PI - 0.5 * (_LOGDET + 2.0 * np.log(scale)) - 0.5 * quad


def _correct_mean(y: np.ndarray, n: int) -> np.ndarray:
    return n * y.mean(axis=0) / (n + 1.0)


class CorrectPosterior:
    name = "correct"

    def __init__(self, n: int):
        self.n = n

    def sample(self, y, M, rng, thin=1):
        return _mvn_draws(rng, _correct_mean(y, self.n), 1.0 / (self.n + 1), M)

    def log_density(self, draws, y):
        return _mvn_log_density(draws, _correct_mean(y, self.n), 1.0 / (self.n + 1))


class PriorOnlyPosterior:
    """Ignores the data entirely and samples from the prior."""

    name = "prior-only"

    def __init__(self, n: int):
        self.n = n

    def sample(self, y, M, rng, thin=1):
        return _mvn_draws(rng, np.zeros(2), 1.0, M)

    def log_density(self, draws, y):
        return _mvn_log_density(draws, np.zeros(2), 1.0)


class IgnoreFirstPosterior:
    """Correct-form posterior computed on y_2..y_n only."""

    name = "ignore-first"

    def __init__(self, n: int):
        self.n = n

    def _mean(self, y):
        if self.n == 1:  # no data left: the posterior is the prior
            return np.zeros(2)
        rest = y[1:]
        return (self.n - 1) * rest.mean(axis=0) / self.n

    def sample(self, y, M, rng, thin=1):
        return _mvn_draws(rng, self._mean(y), 1.0 / self.n, M)

    def log_density(self, draws, y):
        return _mvn_log_density(draws, self._mean(y), 1.0 / self.n)


class IndependentMarginalsPosterior:
    """Correct marginals but no posterior correlation."""

    name = "independent-marginals"

    def __init__(self, n: int):
        self.n = n

    def sample(self, y, M, rng, thin=1):
        mean = _correct_mean(y, self.n)
        sd = 1.0 / np.sqrt(self.n + 1)
        return mean[None, :] + sd * rng.standard_normal((M, 2))

    def log_density(self, draws, y):
        mean = _correct_mean(y, self.n)
        var = 1.0 / (self.n + 1)
        return (
            -_LOG2PI
            - np.log(var)
            - 0.5 * ((draws - mean[None, :]) ** 2).sum(axis=1) / var
        )


class SmallBiasPosterior:
    """Correct draws shifted by one bias vector drawn per simulation."""

    name = "small-bias"

    def __init__(self, n: int, sd: float = 0.3):
        self.n = n
        self.sd = sd

    def sample(self, y, M, rng, thin=1):
        bias = self.sd * rng.standard_normal(2)
        return _mvn_draws(rng, _correct_mean(y, self.n) + bias, 1.0 / (self.n + 1), M)


class NonMonotonicPosterior:
    """Marginal-CDF warp of the correct posterior, keyed on the data region.

    Each component of a correct draw is pushed through its correct marginal
    posterior normal CDF, warped by u**2 when the grand mean of y is positive
    and by 2u - u**2 otherwise (ties resolve to the second branch), and
    mapped back through the quantile function. The two warps average to the
    identity over the data space, so projections of the mean pass SBC while
    non-monotone quantities do not.
    """

    name = "non-monotonic"

    def __init__(self, n: int):
        self.n = n

    def sample(self, y, M, rng, thin=1):
        mean = _correct_mean(y, self.n)
        sd = 1.0 / np.sqrt(self.n + 1)
        draws = _mvn_draws(rng, mean, 1.0 / (self.n + 1), M)
        u = ndtr((draws - mean[None, :]) / sd)
        w = u * u if grand_mean_positive(y) else u * (2.0 - u)
        return mean[None, :] + sd * ndtri(w)


def make_variant(name: str, n: int, bias_sd: float = 0.3):
    """Posterior family for one variant name."""
    if name == "correct":
        return CorrectPosterior(n)
    if name == "prior-only":
        return PriorOnlyPosterior(n)
    if name == "ignore-first":
        return IgnoreFirstPosterior(n)
    if name == "independent-marginals":
        return IndependentMarginalsPosterior(n)
    if name == "small-bias":
        return SmallBiasPosterior(n, sd=bias_sd)
    if name == "non-monotonic":
        return NonMonotonicPosterior(n)
    raise ValueError(f"unknown gaussian variant {name!r}; known: {', '.join(VARIANT_NAMES)}")


def grand_mean_positive(y: np.ndarray) -> bool:
    """Sign predicate on the mean over all entries of the data matrix."""
    return float(np.mean(y)) > 0.0


def component_mean_positive(component: int):
    """Sign predicate on the mean of one data column (0-based)."""

    def predicate(y: np.ndarray) -> bool:
        return float(np.mean(y[:, component])) > 0.0

    return predicate


def _joint_log_lik(draws: np.ndarray, y: np.ndarray) -> np.ndarray:
    diff = y[None, :, :] - draws[:, None, :]
    quad = np.einsum("nki,ij,nkj->nk", diff, _SIGMA_INV, diff)
    return y.shape[0] * (-_LOG2PI - 0.5 * _LOGDET) - 0.5 * quad.sum(axis=1)


def _pointwise_log_lik(draws: np.ndarray, y_k: np.ndarray) -> np.ndarray:
    diff = y_k[None, :] - draws
    quad = np.einsum("ni,ij,nj->n", diff, _SIGMA_INV, diff)
    return -_LOG2PI - 0.5 * _LOGDET - 0.5 * quad


# Batch forms over a group's (g, N, 2) draws. Each runs its per-draw kernel's
# arithmetic on the group's rows laid end to end, the same operations in the
# same order, so every value equals the per-draw one bit for bit. One
# exception: einsum orders the terms of a quadratic form differently when it
# has fewer than three rows, so a simulation that small is evaluated alone.
_EINSUM_MIN_ROWS = 3


def _joint_log_lik_batch(draws: np.ndarray, ys) -> np.ndarray:
    y = np.stack(ys)
    if draws.shape[1] * y.shape[1] < _EINSUM_MIN_ROWS:
        return np.stack([_joint_log_lik(d, y_r) for d, y_r in zip(draws, y)])
    diff = (y[:, None, :, :] - draws[:, :, None, :]).reshape(-1, *y.shape[1:])
    quad = np.einsum("nki,ij,nkj->nk", diff, _SIGMA_INV, diff)
    out = y.shape[1] * (-_LOG2PI - 0.5 * _LOGDET) - 0.5 * quad.sum(axis=1)
    return out.reshape(draws.shape[:2])


def _pointwise_log_lik_batch(draws: np.ndarray, ys, k: int) -> np.ndarray:
    y_k = np.stack([y[k] for y in ys])
    if draws.shape[1] < _EINSUM_MIN_ROWS:
        return np.stack([_pointwise_log_lik(d, y) for d, y in zip(draws, y_k)])
    diff = (y_k[:, None, :] - draws).reshape(-1, 2)
    quad = np.einsum("ni,ij,nj->n", diff, _SIGMA_INV, diff)
    return (-_LOG2PI - 0.5 * _LOGDET - 0.5 * quad).reshape(draws.shape[:2])


def _of_draws(name: str, f) -> TestQuantity:
    """Quantity of the draws alone; ``f`` is elementwise over the last axis, so
    it serves a (N, 2) simulation and a (g, N, 2) group alike."""
    return TestQuantity(name, lambda d, y: f(d), batch=lambda d, ys: f(d))


def quantity_library(n: int, variant=None) -> list[TestQuantity]:
    """Test quantities for the bivariate model.

    All but ``density_ratio`` have batch forms. ``density_ratio`` (correct
    posterior density over the variant's density) is included only when the
    variant exposes a closed-form ``log_density``; requesting it for a
    density-free variant is an error handled upstream.
    """
    quantities = [
        _of_draws("mu[1]", lambda d: d[..., 0]),
        _of_draws("mu[2]", lambda d: d[..., 1]),
        _of_draws("sum", lambda d: d[..., 0] + d[..., 1]),
        _of_draws("diff", lambda d: d[..., 0] - d[..., 1]),
        _of_draws("product", lambda d: d[..., 0] * d[..., 1]),
        TestQuantity("mvn_log_lik", _joint_log_lik, batch=_joint_log_lik_batch),
        *(  # pointwise log-likelihoods of the first two data points that exist
            TestQuantity(
                f"mvn_log_lik[{k + 1}]",
                lambda d, y, k=k: _pointwise_log_lik(d, y[k]),
                batch=lambda d, ys, k=k: _pointwise_log_lik_batch(d, ys, k),
            )
            for k in range(min(n, 2))
        ),
        _of_draws("abs_mu1", lambda d: np.abs(d[..., 0])),
        _of_draws("drop_mu1", lambda d: np.where(d[..., 0] < 1.0, d[..., 0], d[..., 0] - 5.0)),
    ]
    if variant is not None and hasattr(variant, "log_density"):
        correct = CorrectPosterior(n)

        def ratio(d, y):
            return np.exp(correct.log_density(d, y) - variant.log_density(d, y))

        quantities.append(TestQuantity("density_ratio", ratio))
    return quantities

"""Bivariate normal conjugate model with one posterior class of six variants.

The model draws a 2-vector mean from MVN(0, Sigma) with unit variances and
correlation 0.8, then n observations from MVN(mean, Sigma). The correct
posterior is MVN(n * ybar / (n + 1), Sigma / (n + 1)). The five broken
variants each embody one classic failure mode: ignoring all data, ignoring
one data point, dropping the posterior correlation, adding a small per-fit
bias, and a marginal-preserving non-monotone warp that only data-dependent
or non-monotone test quantities can see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from ..core import TestQuantity

__all__ = [
    "SIGMA",
    "GaussianGenerator",
    "GaussianPosterior",
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


_BIAS_SD = 0.3  # sd of small-bias's per-simulation shift


class GaussianPosterior:
    """Posterior family of one variant, with its mean of the data and scale.

    correct: MVN(n * ybar / (n + 1), Sigma / (n + 1)). prior-only: MVN(0,
    Sigma). ignore-first: the correct form on y_2..y_n, MVN((n - 1) *
    mean(y_2..y_n) / n, Sigma / n) (the prior at n = 1, with no data left).
    independent-marginals: the correct mean with I / (n + 1). small-bias: the
    correct draws shifted by one N(0, 0.3^2 I) vector per simulation.
    non-monotonic: each component of a correct draw is pushed through its
    marginal normal CDF, warped by u**2 when the grand mean of y is positive
    and by 2u - u**2 otherwise (ties take the second branch), and mapped
    back; the two warps average to the identity over the data space, so
    projections of the mean pass SBC while non-monotone quantities do not.

    ``log_density`` is None for small-bias and non-monotonic: they have no
    closed form.
    """

    def __init__(self, name: str, n: int):
        if name not in VARIANT_NAMES:
            known = ", ".join(VARIANT_NAMES)
            raise ValueError(f"unknown gaussian variant {name!r}; known: {known}")
        self.name = name
        self.n = n
        if name == "prior-only":
            self.scale = 1.0
        elif name == "ignore-first":
            self.scale = 1.0 / n
        else:
            self.scale = 1.0 / (n + 1)
        if name in ("small-bias", "non-monotonic"):
            self.log_density = None

    def _mean(self, y: np.ndarray) -> np.ndarray:
        """Posterior mean, (..., 2), of the (..., n, 2) data."""
        if self.name == "prior-only" or (self.name == "ignore-first" and self.n == 1):
            return np.zeros(2)
        if self.name == "ignore-first":
            return (self.n - 1) * y[..., 1:, :].mean(axis=-2) / self.n
        return self.n * y.mean(axis=-2) / (self.n + 1.0)

    def sample(self, y, M, rng, thin=1):
        return self.sample_batch([y], M, [rng], thin)[0]

    def sample_batch(self, ys, M, streams, thin=1):
        """(g, M, 2) draws for g datasets, row r from ``streams[r]`` alone.

        Each stream gives its simulation's normals in the order of one
        ``sample`` call (small-bias's shift first), and the group's arithmetic
        runs elementwise, with one (M, 2) @ (2, 2) product per simulation, so
        row r is bit for bit what ``sample(ys[r], M, streams[r])`` returns
        whatever the grouping. ``thin`` is ignored: the draws are independent.
        """
        g = len(streams)
        y = np.stack(ys)
        mean = self._mean(y)[..., None, :]
        z = np.empty((g, M, 2))
        shift = np.empty((g, 1, 2))
        for r, rng in enumerate(streams):
            if self.name == "small-bias":
                rng.standard_normal(out=shift[r, 0])
            rng.standard_normal(out=z[r])
        # The correct marginal sd, 1 / sqrt(n + 1), and the MVN draw's
        # sqrt(1 / (n + 1)) differ in the last bit for some n (2, 5, 7, ...);
        # tests/test_golden.py pins each variant's draws with its own.
        sd = 1.0 / np.sqrt(self.n + 1)
        if self.name == "independent-marginals":
            return mean + sd * z
        if self.name == "small-bias":
            mean = mean + _BIAS_SD * shift
        draws = mean + np.sqrt(self.scale) * z @ _CHOL.T
        if self.name == "non-monotonic":
            u = ndtr((draws - mean) / sd)
            # grand_mean_positive of each dataset, as one reduction per row
            positive = y.reshape(g, -1).mean(axis=1)[:, None, None] > 0.0
            w = np.where(positive, u * u, u * (2.0 - u))
            return mean + sd * ndtri(w)
        return draws

    def log_density(self, draws: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Log density at each draw, elementwise over the leading axes: (N, 2)
        draws of one (n, 2) dataset give (N,), (g, N, 2) draws of (g, n, 2)
        data give (g, N)."""
        diff = draws - self._mean(y)[..., None, :]
        if self.name == "independent-marginals":
            return -_LOG2PI - np.log(self.scale) - 0.5 * (diff**2).sum(axis=-1) / self.scale
        rows = diff.reshape(-1, 2)
        quad = np.einsum("ni,ij,nj->n", rows, _SIGMA_INV, rows) / self.scale
        out = -_LOG2PI - 0.5 * (_LOGDET + 2.0 * np.log(self.scale)) - 0.5 * quad
        return out.reshape(diff.shape[:-1])


make_variant = GaussianPosterior


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
    """Test quantities for the bivariate model, each with a batch form.

    ``density_ratio`` (correct posterior density over the variant's density)
    is included only when the variant has a closed-form ``log_density``;
    requesting it for a density-free variant is an error handled upstream.
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
    if getattr(variant, "log_density", None) is not None:
        correct = GaussianPosterior("correct", n)

        def ratio(d, y):
            return np.exp(correct.log_density(d, y) - variant.log_density(d, y))

        def ratio_batch(d, ys):
            if d.shape[1] < _EINSUM_MIN_ROWS:
                return np.stack([ratio(d_r, y) for d_r, y in zip(d, ys)])
            return ratio(d, np.stack(ys))

        quantities.append(TestQuantity("density_ratio", ratio, batch=ratio_batch))
    return quantities

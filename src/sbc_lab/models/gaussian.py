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
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
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
        """A group of one, which ``run_sbc`` never calls: kept for the benchmark tracer and the golden pin."""
        return self.sample_batch([y], M, [rng], thin)[0]

    def sample_batch(self, ys, M, streams, thin=1):
        """(g, M, 2) draws for g datasets, row r from ``streams[r]`` alone.

        Each stream gives its simulation's normals (small-bias's shift first),
        and the group's arithmetic runs elementwise, with one (M, 2) @ (2, 2)
        product per simulation, so row r has the bits of its group of one
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
        # Scaled and shifted in place: elementwise the arithmetic of
        # mean + sqrt(scale) * z @ _CHOL.T, so the same bits, with at most two
        # (g, M, 2) arrays alive.
        if self.name == "independent-marginals":
            z *= sd
            z += mean
            return z
        if self.name == "small-bias":
            mean = mean + _BIAS_SD * shift
        z *= np.sqrt(self.scale)
        draws = z @ _CHOL.T
        draws += mean
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
        quad = _quadratic_form(diff.reshape(-1, 2)) / self.scale
        out = -_LOG2PI - 0.5 * (_LOGDET + 2.0 * np.log(self.scale)) - 0.5 * quad
        return out.reshape(diff.shape[:-1])


make_variant = GaussianPosterior


def grand_mean_positive(y: np.ndarray) -> bool:
    """Sign predicate on the mean over all entries of the data matrix."""
    return float(np.mean(y)) > 0.0


def _log_lik(draws: np.ndarray, ys) -> np.ndarray:
    """MVN log likelihood of all points of each dataset at each draw of its row."""
    y = np.stack(ys)
    diff = (y[:, None, :, :] - draws[:, :, None, :]).reshape(-1, 2)
    quad = _quadratic_form(diff).reshape(-1, y.shape[1])
    out = y.shape[1] * (-_LOG2PI - 0.5 * _LOGDET) - 0.5 * quad.sum(axis=1)
    return out.reshape(draws.shape[:2])


def _quadratic_form(rows: np.ndarray) -> np.ndarray:
    """rows[n] @ _SIGMA_INV @ rows[n] for each row of an (N, 2) array.

    The terms rows[n, i] * _SIGMA_INV[i, j] * rows[n, j] are added to zero
    in the order (0, 0), (0, 1), (1, 0), (1, 1), elementwise, so a row's
    value does not depend on the rows it is computed with, and a group
    kernel meets the contract of :class:`~sbc_lab.core.TestQuantity`.
    From three rows on this is ``einsum("ni,ij,nj->n")``'s order and bits,
    in less than half its time.
    """
    quad = np.zeros(len(rows))
    for i in range(2):
        for j in range(2):
            quad += rows[:, i] * _SIGMA_INV[i, j] * rows[:, j]
    return quad


def quantity_library(n: int, variant=None) -> list[TestQuantity]:
    """Test quantities for the bivariate model, each one group kernel.

    ``density_ratio`` (correct posterior density over the variant's density)
    is included only when the variant has a closed-form ``log_density``;
    requesting it for a density-free variant is an error handled upstream.
    """
    quantities = [
        TestQuantity("mu[1]", lambda d, ys: d[..., 0]),
        TestQuantity("mu[2]", lambda d, ys: d[..., 1]),
        TestQuantity("sum", lambda d, ys: d[..., 0] + d[..., 1]),
        TestQuantity("diff", lambda d, ys: d[..., 0] - d[..., 1]),
        TestQuantity("product", lambda d, ys: d[..., 0] * d[..., 1]),
        TestQuantity("mvn_log_lik", _log_lik),
        *(  # pointwise log-likelihoods of the first two data points that exist
            TestQuantity(
                f"mvn_log_lik[{k + 1}]",
                lambda d, ys, k=k: _log_lik(d, [y[k : k + 1] for y in ys]),
            )
            for k in range(min(n, 2))
        ),
        TestQuantity("abs_mu1", lambda d, ys: np.abs(d[..., 0])),
        TestQuantity(
            "drop_mu1", lambda d, ys: np.where(d[..., 0] < 1.0, d[..., 0], d[..., 0] - 5.0)
        ),
    ]
    if getattr(variant, "log_density", None) is not None:
        correct = GaussianPosterior("correct", n)

        def ratio(d, ys):
            y = np.stack(ys)
            return np.exp(correct.log_density(d, y) - variant.log_density(d, y))

        quantities.append(TestQuantity("density_ratio", ratio))
    return quantities

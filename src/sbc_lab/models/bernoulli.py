"""Uniform-prior Bernoulli model with exact continuous-SBC evaluation.

The model has a uniform prior on the success probability and a single binary
observation, so the correct posterior densities are 2(1-theta) given y=0 and
2*theta given y=1. Posterior families are supplied through their quantile
functions, which both samples the family and drives the exact continuous
rank CDF q(x | y): a family passes SBC for a quantity exactly when the
average of q over the two observations is the identity. Four fixed test
quantities are covered (projection, likelihood, a non-monotone bijection,
and a clamp that creates ties), plus the two-point discrete model where the
posterior family reduces to two atom masses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import TestQuantity

__all__ = [
    "QuantileFamily",
    "FAMILY_NAMES",
    "get_family",
    "QUANTITY_NAMES",
    "q_value",
    "sbc_residual",
    "solve_companion_quantile",
    "build_companion_family",
    "build_dual_passing_family",
    "RadicandConditionError",
    "MonotonicityConditionError",
    "discrete_q",
    "discrete_sbc_residual",
    "discrete_sbc_scan",
    "BernoulliGenerator",
    "FamilySampler",
    "quantity_library",
    "sample_rank_cdf_prediction",
]


# Width of the bracket at which the bisection inversion of a quantile stops.
_INVERT_TOL = 1e-10

# Points of the grid on which a constructed family is checked.
_PROBE_SIZE = 4096

# Largest sup-norm residual of a discrete family counted as passing SBC.
_SCAN_THRESHOLD = 1e-6

# Gauss-Legendre nodes of the sample rank CDF prediction.
_N_NODES = 2048


class RadicandConditionError(ValueError):
    """The chosen quantile function drives the companion radicand negative."""


class MonotonicityConditionError(ValueError):
    """The implied companion quantile function is not nondecreasing."""


@dataclass(frozen=True)
class QuantileFamily:
    """Posterior family on [0, 1] given through per-observation quantile functions.

    ``quantile(x, y)`` must be nondecreasing in x with values in [0, 1].
    ``cdf`` and ``pdf`` are optional closed forms; a missing CDF is obtained
    by bisection inversion of the quantile function to 1e-10.
    """

    name: str
    quantile: Callable[[np.ndarray, int], np.ndarray]
    cdf: Callable[[np.ndarray, int], np.ndarray] | None = None
    pdf: Callable[[np.ndarray, int], np.ndarray] | None = None

    def quantile_at(self, x: np.ndarray, y: int) -> np.ndarray:
        return np.asarray(self.quantile(np.asarray(x, dtype=float), y), dtype=float)

    def cdf_at(self, s: np.ndarray, y: int) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.cdf is not None:
            return np.clip(np.asarray(self.cdf(s, y), dtype=float), 0.0, 1.0)
        return np.vectorize(lambda v: self._invert_quantile(v, y))(s)

    def _invert_quantile(self, s: float, y: int) -> float:
        lo, hi = 0.0, 1.0
        if self.quantile_at(np.array(0.0), y) > s:
            return 0.0
        while hi - lo > _INVERT_TOL:
            mid = 0.5 * (lo + hi)
            if float(self.quantile_at(np.array(mid), y)) <= s:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def sample(self, y: int, M: int, rng: np.random.Generator) -> np.ndarray:
        return self.quantile_at(rng.uniform(size=M), y)


def _sqrt(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.clip(x, 0.0, None))


CORRECT = QuantileFamily(
    name="correct",
    quantile=lambda x, y: _sqrt(x) if y == 1 else 1.0 - _sqrt(1.0 - x),
    cdf=lambda s, y: s**2 if y == 1 else 2.0 * s - s**2,
    pdf=lambda t, y: 2.0 * t if y == 1 else 2.0 - 2.0 * t,
)

# mirror image of the correct posterior, the correct one given the other
# observation: right data-averaged posterior, wrong conditional-on-data posterior
PHI_A = QuantileFamily(
    name="phi-A",
    quantile=lambda x, y: CORRECT.quantile(x, 1 - y),
    cdf=lambda s, y: CORRECT.cdf(s, 1 - y),
    pdf=lambda t, y: CORRECT.pdf(t, 1 - y),
)


def _phi_b_quantile(x: np.ndarray, y: int) -> np.ndarray:
    if y == 0:
        return np.where(x < 0.75, (2.0 / 3.0) * x, 0.5 + 2.0 * (x - 0.75))
    return np.where(
        x < 0.75,
        (1.0 / 3.0) * _sqrt(6.0 * x + 4.0 * x**2),
        _sqrt(3.0 - 6.0 * x + 4.0 * x**2),
    )


def _phi_b_cdf(s: np.ndarray, y: int) -> np.ndarray:
    if y == 0:
        return np.where(s < 0.5, 1.5 * s, 0.75 + 0.5 * (s - 0.5))
    return np.where(
        s < np.sqrt(3.0) / 2.0,
        0.75 * (_sqrt(1.0 + 4.0 * s**2) - 1.0),
        0.25 * (3.0 + _sqrt(4.0 * s**2 - 3.0)),
    )


PHI_B = QuantileFamily(name="phi-B", quantile=_phi_b_quantile, cdf=_phi_b_cdf)

# equal mixture of prior and correct posterior
PHI_C = QuantileFamily(
    name="phi-C",
    quantile=lambda x, y: (-0.5 + 0.5 * _sqrt(1.0 + 8.0 * x))
    if y == 1
    else (1.5 - 0.5 * _sqrt(9.0 - 8.0 * x)),
    cdf=lambda s, y: 0.5 * (s + s**2) if y == 1 else 0.5 * (3.0 * s - s**2),
    pdf=lambda t, y: (0.5 + t) if y == 1 else (1.5 - t),
)

FAMILY_NAMES = ("correct", "phi-A", "phi-B", "phi-C")
_FAMILIES = {f.name: f for f in (CORRECT, PHI_A, PHI_B, PHI_C)}


def get_family(name: str) -> QuantileFamily:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(
            f"unknown bernoulli family {name!r}; known: {', '.join(FAMILY_NAMES)}"
        ) from None


# ---------------------------------------------------------------------------
# true-posterior CDFs of the four quantities

QUANTITY_NAMES = ("theta", "likelihood", "theta_wrapped", "theta_clamped")


def _true_cdf_theta(s: np.ndarray, y: int) -> np.ndarray:
    return CORRECT.cdf(np.clip(s, 0.0, 1.0), y)


def _true_cdf_wrapped(s: np.ndarray, y: int) -> np.ndarray:
    s = np.clip(s, -0.5, 0.5)
    if y == 0:
        return np.where(s < 0.0, 0.25 - s**2, 0.25 + 2.0 * s - s**2)
    return np.where(s < 0.0, 0.75 + 2.0 * s + s**2, 0.75 + s**2)


_CLAMP_TIE_MASS = {0: 0.25, 1: 0.75}  # posterior mass at the clamped point 1/2


def q_value(family: QuantileFamily, quantity: str, x: np.ndarray, y: int) -> np.ndarray:
    """Exact continuous rank CDF q(x | y) of the family for one quantity.

    For tie-free quantities this is the true quantity CDF composed with the
    fitted quantile; the clamped quantity has an atom at 1/2 and uses the
    tie form: on the tied segment q is linear with slope D_f / D_phi.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any((x < 0.0) | (x > 1.0)):
        raise ValueError("x must lie in [0, 1]")
    if quantity == "theta":
        return _true_cdf_theta(family.quantile_at(x, y), y)
    if quantity == "likelihood":
        # the value is theta when y=1 and 1 - theta when y=0; both have the
        # CDF of theta given y=1
        s = family.quantile_at(x, 1) if y == 1 else 1.0 - family.quantile_at(1.0 - x, 0)
        return _true_cdf_theta(s, 1)
    if quantity == "theta_wrapped":
        h = float(family.cdf_at(np.array(0.5), y))
        s = np.where(
            x < 1.0 - h,
            family.quantile_at(np.minimum(x + h, 1.0), y) - 1.0,
            family.quantile_at(np.clip(x - 1.0 + h, 0.0, 1.0), y),
        )
        return _true_cdf_wrapped(s, y)
    if quantity == "theta_clamped":
        h = float(family.cdf_at(np.array(0.5), y))
        below = _true_cdf_theta(np.minimum(family.quantile_at(x, y), 0.5), y)
        if h >= 1.0:
            return below
        tied = 1.0 + _CLAMP_TIE_MASS[y] * (x - 1.0) / (1.0 - h)
        return np.where(x < h, below, tied)
    raise ValueError(f"unknown quantity {quantity!r}; known: {', '.join(QUANTITY_NAMES)}")


def sbc_residual(family: QuantileFamily, quantity: str, grid_size: int = 512) -> float:
    """Sup-norm violation of the SBC identity over an interior uniform grid.

    The identity averaged over both observations is (q(x|0) + q(x|1))/2 = x;
    grid points sit at half-offsets so branch boundaries of the piecewise
    closed forms are never hit exactly. Residuals below 1e-8 count as passing.
    """
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    x = (np.arange(grid_size) + 0.5) / grid_size
    avg = 0.5 * (q_value(family, quantity, x, 0) + q_value(family, quantity, x, 1))
    return float(np.max(np.abs(avg - x)))


# ---------------------------------------------------------------------------
# constructing families that pass SBC

def solve_companion_quantile(
    phi_inv_0: Callable[[np.ndarray], np.ndarray], x: np.ndarray
) -> np.ndarray:
    """The unique y=1 quantile making (phi_inv_0, result) pass SBC for theta.

    Raises :class:`RadicandConditionError` when phi_inv_0 violates the
    validity envelope (the square root argument goes negative).
    """
    x = np.asarray(x, dtype=float)
    radicand = 2.0 * x + (np.asarray(phi_inv_0(x), dtype=float) - 1.0) ** 2 - 1.0
    if np.any(radicand < -1e-12):
        worst = float(np.min(radicand))
        raise RadicandConditionError(
            f"negative radicand (min {worst:.3e}): the y=0 quantile exceeds the lower envelope"
        )
    if np.any(radicand > 1.0 + 1e-9):
        worst = float(np.max(radicand))
        raise RadicandConditionError(
            f"companion quantile would exceed 1 (radicand max {worst:.3e}): "
            "the y=0 quantile undercuts the upper envelope"
        )
    return _sqrt(np.minimum(radicand, 1.0))


def build_companion_family(
    phi_inv_0: Callable[[np.ndarray], np.ndarray], name: str = "constructed"
) -> QuantileFamily:
    """Family from a y=0 quantile with the y=1 side solved to pass SBC for theta.

    Validates on a probe grid: the radicand must stay nonnegative and the
    implied y=1 quantile must be nondecreasing.
    """
    probe = np.linspace(0.0, 1.0, _PROBE_SIZE)
    values = solve_companion_quantile(phi_inv_0, probe)
    if np.any(np.diff(values) < -1e-10):
        raise MonotonicityConditionError(
            "implied y=1 quantile decreases on the probe grid"
        )
    base0 = np.asarray(phi_inv_0(probe), dtype=float)
    if np.any(np.diff(base0) < -1e-10):
        raise MonotonicityConditionError("y=0 quantile decreases on the probe grid")

    def quantile(x: np.ndarray, y: int) -> np.ndarray:
        if y == 0:
            return np.asarray(phi_inv_0(np.asarray(x, dtype=float)), dtype=float)
        return solve_companion_quantile(phi_inv_0, x)

    return QuantileFamily(name=name, quantile=quantile)


def build_dual_passing_family(
    lower_half: Callable[[np.ndarray], np.ndarray],
    name: str = "dual-constructed",
) -> QuantileFamily:
    """Family passing SBC for both theta and the likelihood quantity.

    ``lower_half`` fixes the y=0 quantile on [0, 1/2] and must hit the pinned
    midpoint 1 - sqrt(2)/2 at x = 1/2; the upper half of the y=0 quantile and
    the whole y=1 quantile are then forced by the two SBC identities.
    """
    mid = float(lower_half(np.array(0.5)))
    if abs(mid - (1.0 - np.sqrt(2.0) / 2.0)) > 1e-9:
        raise ValueError("lower_half(1/2) must equal 1 - sqrt(2)/2")

    def phi_inv_0(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        low = np.asarray(lower_half(np.minimum(x, 0.5)), dtype=float)
        mirrored = np.asarray(lower_half(np.minimum(1.0 - x, 0.5)), dtype=float)
        high = 1.0 - _sqrt(1.0 - (mirrored - 1.0) ** 2)
        return np.where(x <= 0.5, low, high)

    return build_companion_family(phi_inv_0, name=name)


# ---------------------------------------------------------------------------
# discrete two-point model: theta in {1/3, 2/3}, uniform prior

_TRUE_FIRST_MASS = {0: 2.0 / 3.0, 1: 1.0 / 3.0}  # correct posterior mass at 1/3


def discrete_q(first_mass: np.ndarray, x: np.ndarray, y: int) -> np.ndarray:
    """q(x | y) for the two-atom family with the given mass at the lower atom.

    Both atoms carry ties, so the rank CDF is piecewise linear: on each atom
    the slope is the ratio of true to fitted atom mass.
    """
    p = np.asarray(first_mass, dtype=float)
    x = np.asarray(x, dtype=float)
    t = _TRUE_FIRST_MASS[y]
    p_b, x_b = np.broadcast_arrays(p, x)
    on_first = x_b <= p_b
    with np.errstate(divide="ignore", invalid="ignore"):
        q_first = np.where(p_b > 0.0, t * x_b / p_b, t)
        q_second = np.where(p_b < 1.0, 1.0 + (1.0 - t) * (x_b - 1.0) / (1.0 - p_b), 1.0)
    return np.where(on_first, q_first, q_second)


def discrete_sbc_residual(a: np.ndarray, b: np.ndarray, grid_size: int = 401) -> np.ndarray:
    """Sup-norm SBC violation for atom masses (a | y=0) and (b | y=1)."""
    x = np.linspace(0.0, 1.0, grid_size)
    q0 = discrete_q(np.asarray(a, dtype=float)[..., None], x, 0)
    q1 = discrete_q(np.asarray(b, dtype=float)[..., None], x, 1)
    return np.max(np.abs(0.5 * (q0 + q1) - x), axis=-1)


def discrete_sbc_scan(
    grid_resolution: int = 200,
) -> tuple[list[tuple[float, float]], np.ndarray, np.ndarray]:
    """Scan the (a, b) unit square for families passing discrete SBC.

    The grid step is snapped to a multiple of 1/6 of the axis so the two
    exact solutions, the prior (1/2, 1/2) and the correct posterior
    (2/3, 1/3), are representable grid points. Returns the passing points,
    the grid values, and the full residual matrix.
    """
    if grid_resolution < 100:
        raise ValueError("grid_resolution must be at least 100 per axis")
    cells = 6 * max(1, round(grid_resolution / 6))
    values = np.arange(cells + 1) / cells
    residuals = np.empty((cells + 1, cells + 1))
    for i, a in enumerate(values):
        residuals[i, :] = discrete_sbc_residual(np.full(values.shape, a), values)
    hits = np.argwhere(residuals < _SCAN_THRESHOLD)
    passing = [(float(values[i]), float(values[j])) for i, j in hits]
    return passing, values, residuals


# ---------------------------------------------------------------------------
# sample-SBC interface for run_sbc

@dataclass(frozen=True)
class BernoulliGenerator:
    """Uniform prior draw and one Bernoulli observation; data is the bit."""

    def generate(self, rng: np.random.Generator) -> tuple[np.ndarray, int]:
        theta = rng.uniform()
        y = int(rng.uniform() < theta)
        return np.array([theta]), y


@dataclass(frozen=True)
class FamilySampler:
    """Adapter running a quantile family as a posterior sampler."""

    family: QuantileFamily

    @property
    def name(self) -> str:
        return self.family.name

    def sample_batch(self, datas, M: int, streams, thin: int = 1) -> list[np.ndarray]:
        return [self.family.sample(int(y), M, rng)[:, None] for y, rng in zip(datas, streams)]


def quantity_library() -> list[TestQuantity]:
    def likelihood(d, ys):
        return np.where(np.equal(ys, 1)[:, None], d[..., 0], 1.0 - d[..., 0])

    return [
        TestQuantity("theta", lambda d, ys: d[..., 0]),
        TestQuantity("likelihood", likelihood),
        TestQuantity(
            "theta_wrapped", lambda d, ys: np.where(d[..., 0] < 0.5, d[..., 0], d[..., 0] - 1.0)
        ),
        TestQuantity("theta_clamped", lambda d, ys: np.minimum(d[..., 0], 0.5)),
    ]


def write_q_curve_csv(
    family: QuantileFamily, quantity: str, path, grid_size: int = 512
) -> None:
    """Per-observation rank CDF curves as ``x,q0,q1,avg`` rows for plotting."""
    x = (np.arange(grid_size) + 0.5) / grid_size
    q0 = q_value(family, quantity, x, 0)
    q1 = q_value(family, quantity, x, 1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,q0,q1,avg\n")
        for xi, a, b in zip(x, q0, q1):
            fh.write(f"{float(xi)!r},{float(a)!r},{float(b)!r},{float(0.5 * (a + b))!r}\n")


def sample_rank_cdf_prediction(family: QuantileFamily, M: int) -> np.ndarray:
    """Predicted CDF of the M-draw rank of theta under this family.

    Conditional on y the prior draw sits at true-posterior quantile t, and
    the count of family draws below it is Binomial(M, Phi(F^-1(t | y) | y)).
    Averaging the binomial CDF over t (Gauss-Legendre) and over the two
    equally likely observations gives P(rank <= i) for i = 0..M.
    """
    # imported here: scipy.stats costs about a second to import, and only
    # this prediction, which the run path never calls, uses it
    from scipy import stats

    nodes, weights = np.polynomial.legendre.leggauss(_N_NODES)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    out = np.zeros(M + 1)
    for y in (0, 1):
        p = family.cdf_at(CORRECT.quantile(t, y), y)
        cdf = stats.binom.cdf(np.arange(M + 1)[:, None], M, p[None, :])
        out += 0.5 * (cdf * w[None, :]).sum(axis=1)
    return out

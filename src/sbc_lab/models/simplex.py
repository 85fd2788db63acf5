"""Ordered-simplex case study: constrained transforms, MCMC, and the test model.

The model places a symmetric Dirichlet(2, 2, 2, 2) prior on a strictly
increasing simplex of dimension 4 and observes 10 multinomial counts. Three
transform variants build the ordered simplex from unconstrained primitives:
a recursive bounded-vector construction ("min"), a softmax of a positive
ordered vector whose published Jacobian determinant carries a deliberate
off-by-one error in the exponent ("softmax-bad", with "softmax-fixed" the
corrected version), and normalization of a positive ordered gamma vector
("gamma", no Jacobian needed). Sampling is done with an adaptive
random-walk Metropolis sampler that advances a group of simulations' chains
in lockstep, one vectorised step per iteration; an exact rejection sampler
for the ordered Dirichlet posterior provides an MCMC-free cross-check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit, gammaln

from ..core import SamplerError, TestQuantity, ess
from ..rng import copy_stream

__all__ = [
    "ALPHA",
    "N_TRIALS",
    "DomainError",
    "TransformResult",
    "transform_min",
    "transform_softmax",
    "transform_gamma",
    "log_posterior",
    "RwmSimplexFamily",
    "ExactOrderedDirichletFamily",
    "SimplexGenerator",
    "quantity_library",
    "VARIANT_NAMES",
]

ALPHA = np.array([2.0, 2.0, 2.0, 2.0])
N_TRIALS = 10
VARIANT_NAMES = ("min", "softmax-bad", "softmax-fixed", "gamma")

_LOG_DIRICHLET_NORM = float(gammaln(ALPHA.sum()) - gammaln(ALPHA).sum())
_ALPHA_MINUS_1 = ALPHA - 1.0

# Iterations of proposal noise drawn per chain at a time; the noise buffers
# of a lockstep group hold B x _NOISE_BLOCK x (dim + 1) floats whatever the
# chain length.
_NOISE_BLOCK = 128

# Adaptive random-walk Metropolis tuning (Haario et al. 2001): warmup
# iterations, the initial proposal scale and the acceptance rate the scale
# adapts toward; then the minimum effective sample size a kept chain must
# reach, and the most frozen-kernel extension blocks it may run to reach it.
_WARMUP = 2000
_INIT_STEP = 0.5
_TARGET_ACCEPT = 0.3
_MIN_ESS = 100.0
_MAX_EXTENSIONS = 9


class DomainError(ValueError):
    """Input outside the transform's open domain."""


@dataclass(frozen=True)
class TransformResult:
    x: np.ndarray
    log_jacobian: float


def transform_min(u: np.ndarray) -> TransformResult:
    """Ordered simplex from a bounded vector via the recursive construction.

    Starting with b=0 and remaining mass r=1, element i takes b + r*u_i/(K+1-i)
    and shrinks the remainder by (1 - u_i); the last element absorbs what is
    left. The Jacobian is triangular, so log|det J| = sum_i log(r_i/(K+1-i)).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise DomainError("u must be a vector of length K-1 >= 1")
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise DomainError("all entries of u must lie strictly in (0, 1)")
    x, log_jac = _min_columns(u[:, None], 1.0 - u[:, None])
    return TransformResult(x=x[:, 0], log_jacobian=float(log_jac[0]))


@functools.cache
def _log_denoms(K: int) -> tuple[float, ...]:
    """log(K + 1 - i) for the steps i = 1..K-1 of the bounded-vector recursion."""
    return tuple(np.log(d) for d in range(K, 1, -1))


def _min_columns(u: np.ndarray, one_minus_u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bounded-vector recursion on (K-1, B) columns of u and 1 - u:
    the (K, B) ordered simplex and the (B,) log-Jacobians."""
    K = u.shape[0] + 1
    log_denoms = _log_denoms(K)
    x = np.empty((K, u.shape[1]))
    x[0] = u[0] / K
    log_jac = -log_denoms[0]
    r = one_minus_u[0]
    for i in range(1, K - 1):
        x[i] = x[i - 1] + r * u[i] / (K - i)
        log_jac = log_jac + (np.log(r) - log_denoms[i])
        r = r * one_minus_u[i]
    x[K - 1] = x[K - 2] + r
    if K == 2:  # no step ran, so the one term is still a scalar
        log_jac = np.full(u.shape[1], log_jac)
    return x, log_jac


def transform_softmax(v: np.ndarray, fixed: bool) -> TransformResult:
    """Ordered simplex via softmax of (0, v) for a positive ordered vector v.

    With s = 1 + sum(exp(v)) the simplex is (1/s, exp(v_1)/s, ...). The
    log-Jacobian is sum(v) - (K-1)*log(s) for the published determinant and
    sum(v) - K*log(s) for the corrected one; ``fixed`` selects which.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DomainError("v must be a vector of length K-1 >= 1")
    if v[0] <= 0.0 or np.any(np.diff(v) <= 0.0):
        raise DomainError("v must be strictly positive and strictly increasing")
    x, log_jac = _softmax_columns(v[:, None], fixed)
    return TransformResult(x=x[:, 0], log_jacobian=float(log_jac[0]))


def _softmax_columns(v: np.ndarray, fixed: bool) -> tuple[np.ndarray, np.ndarray]:
    """The softmax of (0, v) on (K-1, B) columns of v: the (K, B) ordered
    simplex and the (B,) log-Jacobians, not finite where s overflows."""
    K = v.shape[0] + 1
    ev = np.exp(v)
    s = 1.0 + ev.sum(axis=0)
    x = np.concatenate([1.0 / s[None, :], ev / s], axis=0)
    exponent = K if fixed else K - 1
    return x, v.sum(axis=0) - exponent * np.log(s)


def transform_gamma(w: np.ndarray) -> np.ndarray:
    """Ordered simplex by normalizing a positive ordered vector; no Jacobian.

    Normalized ordered gamma variates are ordered Dirichlet variates, so the
    prior is placed on w directly and the map itself needs no adjustment.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 2:
        raise DomainError("w must be a vector of length K >= 2")
    if w[0] <= 0.0 or np.any(np.diff(w) <= 0.0):
        raise DomainError("w must be strictly positive and strictly increasing")
    return w / w.sum()


def unconstrained_dim(variant: str) -> int:
    if variant not in VARIANT_NAMES:
        raise ValueError(f"unknown simplex variant {variant!r}; known: {', '.join(VARIANT_NAMES)}")
    return 4 if variant == "gamma" else 3


def _multinomial_norm(ys: np.ndarray) -> np.ndarray:
    """Per-row multinomial normaliser log(n!) - sum(log(y_k!)) of count rows."""
    return gammaln(ys.sum(axis=1) + 1.0) - gammaln(ys + 1.0).sum(axis=1)


def _log_posterior_batch(
    variant: str, z: np.ndarray, ys: np.ndarray, norm: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized posterior log density over rows of z, with the implied x.

    ``z`` and ``ys`` are 2-D float arrays, one row per chain; ``norm`` is
    each row's multinomial normaliser (computed from ``ys`` when omitted),
    constant along a chain. Rows that overflow or leave the domain get -inf
    (rejected by the sampler). Overflow is expected here, so callers run the
    kernel under ``np.errstate`` ignoring over, divide and invalid.

    The work runs on transposed, contiguous (dim, B) copies: a sum over the
    few components is then a left-to-right sum of contiguous rows, the same
    values row-wise ``sum(axis=1)`` gives on small rows, without its
    per-row loop.
    """
    if norm is None:
        norm = _multinomial_norm(ys)
    zt = np.ascontiguousarray(z.T)
    yt = np.ascontiguousarray(ys.T)
    if variant == "min":
        # A u on the boundary {0, 1} makes ``base`` -inf and no term is +inf,
        # so the finiteness mask below rejects it.
        u = expit(zt)
        one_minus_u = 1.0 - u
        base = np.log(u * one_minus_u).sum(axis=0)
        x, log_jac = _min_columns(u, one_minus_u)
        log_x = np.log(x)
        lp = base + log_jac + (_log_prior(log_x) + _log_lik(log_x, yt, norm))
    else:  # a positive ordered vector: the cumsum of exp(z)
        ez = np.exp(zt)
        v = np.cumsum(ez, axis=0)
        ok = np.all(np.isfinite(v), axis=0) & np.all(ez > 0.0, axis=0)
        base = zt.sum(axis=0)
        if variant == "gamma":
            # the prior is on v itself, summed where softmax sums its Jacobian
            x = v / v.sum(axis=0)
            log_jac = (_ALPHA_MINUS_1[:, None] * np.log(v) - v).sum(axis=0)
            model = _log_lik(np.log(x), yt, norm)
        else:
            x, log_jac = _softmax_columns(v, variant == "softmax-fixed")
            ok &= np.isfinite(log_jac)  # not finite where s overflowed
            log_x = np.log(x)
            model = _log_prior(log_x) + _log_lik(log_x, yt, norm)
        lp = np.where(ok, base + log_jac + model, -np.inf)
    lp = np.where(np.isfinite(lp), lp, -np.inf)
    return lp, x.T


def _log_prior(log_x: np.ndarray) -> np.ndarray:
    """Dirichlet(ALPHA) log density of (K, B) columns, given their log x."""
    return _LOG_DIRICHLET_NORM + (_ALPHA_MINUS_1[:, None] * log_x).sum(axis=0)


def _log_lik(log_x: np.ndarray, yt: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """Multinomial log probability of the (K, B) count columns ``yt`` under
    the (K, B) columns of x, given their log x and the counts' normalisers."""
    return norm + (yt * log_x).sum(axis=0)


def _log_x_columns(draws: np.ndarray) -> np.ndarray:
    """log x of a group's (g, N, K) simplex draws, as contiguous (K, g * N) columns."""
    g, N, K = draws.shape
    return np.log(np.ascontiguousarray(draws.reshape(g * N, K).T))


def log_posterior(variant: str, z: np.ndarray, y: np.ndarray) -> float:
    """Posterior log density of the embedded model on the unconstrained scale.

    Adds the base-transform log-Jacobian (logit for the bounded vector,
    log-gap for positive ordered vectors), the variant's own log-Jacobian,
    and the model terms. Overflow maps to -inf so the sampler rejects.
    """
    unconstrained_dim(variant)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lp, _ = _log_posterior_batch(
            variant, np.asarray(z, float)[None, :], np.asarray(y, float)[None, :]
        )
    return float(lp[0])


class _ChainState:
    """Per-chain sampler state: position, step scale, proposal Cholesky."""

    def __init__(self, z0: np.ndarray, lp: np.ndarray):
        B, dim = z0.shape
        self.z = z0.copy()
        self.lp = lp
        self.log_step = np.full(B, np.log(_INIT_STEP))
        self.chol = np.tile(np.eye(dim), (B, 1, 1))

    def select(self, idx: np.ndarray) -> "_ChainState":
        out = object.__new__(_ChainState)
        out.z = self.z[idx]
        out.lp = self.lp[idx]
        out.log_step = self.log_step[idx]
        out.chol = self.chol[idx]
        return out


def _cholesky_rows(chol: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Cholesky factors of a stack of covariances, one per chain.

    A chain whose matrix is not positive definite keeps its factor from
    ``chol``; the others are refactored whatever the rest of the group holds.
    """
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        out = chol.copy()
        for b in range(cov.shape[0]):
            try:
                out[b] = np.linalg.cholesky(cov[b])
            except np.linalg.LinAlgError:
                pass
        return out


def _metropolis_block(
    log_density_batch,
    state: _ChainState,
    streams: Sequence[np.random.Generator],
    T: int,
    warmup: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance B chains through T iterations, in lockstep.

    Chain b draws its proposal noise from ``streams[b]``: T x dim standard
    normals, then T uniforms, the same values one call for each would give,
    but _NOISE_BLOCK iterations at a time. A copy of the stream yields the
    normals; the stream itself, advanced past them, yields the uniforms and
    ends where the one-shot draws would leave it, so a later block continues
    from there.

    The first ``warmup`` iterations adapt the global step scale toward the
    target acceptance and, from a quarter of the warmup onward, a per-chain
    proposal covariance (through its Cholesky factor). Iterations after
    ``warmup`` run with the kernel frozen and are returned, as a
    (B, T - warmup, dim) array, along with the per-chain acceptance counts.
    Pass warmup=0 to extend a frozen chain.
    """
    B, dim = state.z.shape
    normal_streams = []
    for rng in streams:
        normal_streams.append(copy_stream(rng))
        rng.standard_normal((T, dim))
    normals = np.empty((B, _NOISE_BLOCK, dim))
    uniforms = np.empty((B, _NOISE_BLOCK))
    states = np.empty((_NOISE_BLOCK, B, dim))  # this block's positions, by iteration
    keep = np.empty((B, T - warmup, dim))
    accepts = np.zeros(B, dtype=int)
    adapt_from = warmup // 4
    mean = state.z.copy()
    cov_acc = np.zeros((B, dim, dim))
    count = 0
    with np.errstate(over="ignore"):
        for t0 in range(0, T, _NOISE_BLOCK):
            L = min(_NOISE_BLOCK, T - t0)
            for b in range(B):
                normal_streams[b].standard_normal(out=normals[b, :L])
                streams[b].random(out=uniforms[b, :L])  # the values uniform() gives
            for t in range(t0, t0 + L):
                k = t - t0
                if t <= warmup:  # the step scale is frozen after warmup
                    step = np.exp(state.log_step)[:, None]
                direction = np.einsum("bij,bj->bi", state.chol, normals[:, k])
                prop = state.z + step * direction
                lp_prop = log_density_batch(prop)
                alpha = np.exp(np.minimum(0.0, lp_prop - state.lp))
                alpha = np.where(np.isfinite(lp_prop), alpha, 0.0)
                take = uniforms[:, k] < alpha
                state.z = np.where(take[:, None], prop, state.z)
                state.lp = np.where(take, lp_prop, state.lp)
                if t < warmup:
                    state.log_step += (t + 1.0) ** (-0.6) * (alpha - _TARGET_ACCEPT)
                    if t >= adapt_from:
                        count += 1
                        delta = state.z - mean
                        mean += delta / count
                        cov_acc += np.einsum("bi,bj->bij", state.z - mean, delta)
                        if count >= 20 * dim and count % 100 == 0:
                            state.chol = _cholesky_rows(
                                state.chol, cov_acc / count + 1e-8 * np.eye(dim)
                            )
                else:
                    states[k] = state.z
                    accepts += take
            lo = max(t0, warmup)
            if lo < t0 + L:
                keep[:, lo - warmup : t0 + L - warmup] = states[lo - t0 : L].transpose(1, 0, 2)
    return keep, accepts


def _ess_below(chain: np.ndarray, floor: float) -> bool:
    """Whether some column of a (T, dim) chain has an effective sample size below ``floor``.

    The columns are estimated in order, up to the first below the floor.
    """
    if chain.shape[0] < 10:  # too short for ess to estimate: below the target, so extended
        return True
    return any(ess(chain[:, d]).ess < floor for d in range(chain.shape[1]))


def _thinned_chains(log_density_for, dim, M, thin, streams):
    """Adaptive Metropolis for one lockstep group of chains.

    Chain b draws from ``streams[b]`` and targets the log density that
    ``log_density_for(idx)`` returns for the chains ``idx``, an index array
    into the group: a function of their (len(idx), dim) positions. Every
    chain starts at the origin, adapts through ``_WARMUP`` iterations and
    then runs a base block of M * thin iterations with the kernel frozen.
    Chains whose minimum effective sample size is still below ``_MIN_ESS``
    are extended by blocks of the same length, at most ``_MAX_EXTENSIONS``,
    and the M draws are re-thinned evenly over the whole kept chain. Returns,
    per chain, its (M, dim) draws or a :class:`SamplerError`: for zero
    post-warmup acceptance, or for missing the target after the last
    extension.

    Each chain's kept iterations stay in the blocks they were run in
    (``segments``) and are joined only for one chain at a time, so a group
    holds its base block plus the extension blocks, never a second copy of
    them.
    """
    B = len(streams)
    block = M * thin
    log_density = log_density_for(np.arange(B))
    z0 = np.zeros((B, dim))
    state = _ChainState(z0, log_density(z0))
    keep, accepts = _metropolis_block(log_density, state, streams, _WARMUP + block, _WARMUP)
    segments = [[row] for row in keep]

    def chain(b: int) -> np.ndarray:
        return segments[b][0] if len(segments[b]) == 1 else np.concatenate(segments[b])

    failed: dict[int, SamplerError] = {}
    for b in range(B):
        if accepts[b] == 0:
            failed[b] = SamplerError("zero acceptance after warmup")
    pending = [b for b in range(B) if b not in failed and _ess_below(chain(b), _MIN_ESS)]
    for _ in range(_MAX_EXTENSIONS):
        if not pending:
            break
        idx = np.asarray(pending)
        sub = state.select(idx)
        kept, _ = _metropolis_block(
            log_density_for(idx), sub, [streams[b] for b in pending], block, warmup=0
        )
        state.z[idx] = sub.z
        state.lp[idx] = sub.lp
        for j, b in enumerate(pending):
            segments[b].append(kept[j])
        pending = [b for b in pending if _ess_below(chain(b), _MIN_ESS)]
    for b in pending:
        failed[b] = SamplerError(
            f"min ESS below {_MIN_ESS:g} after {_MAX_EXTENSIONS} chain extensions"
        )
    out: list[np.ndarray | SamplerError] = []
    for b in range(B):
        if b in failed:
            out.append(failed[b])
            continue
        kept_chain = chain(b)
        stride = kept_chain.shape[0] // M
        # a copy, so that the group's kept chains are freed on return
        out.append(kept_chain[stride - 1 :: stride][:M].copy())
    return out


class RwmSimplexFamily:
    """Posterior family sampling the embedded model by adaptive RWM.

    Batched across simulations: every simulation keeps its own stream,
    proposal noise is drawn per simulation in fixed-size blocks, and chains
    step in lockstep (:func:`_thinned_chains`), so results do not depend on
    how simulations are grouped. The thinning stride ``thin`` is the one
    setting; the sampler's tuning is fixed. A chain that fails is returned
    as its :class:`SamplerError`, and is excluded upstream.
    """

    def __init__(self, variant: str):
        self.variant = variant
        self.dim = unconstrained_dim(variant)
        self.name = variant

    def sample_batch(self, datas, M, streams, thin):
        ys = np.asarray(datas, dtype=float)
        norm = _multinomial_norm(ys)

        def log_density_for(idx: np.ndarray):
            rows, row_norm = ys[idx], norm[idx]
            return lambda zs: _log_posterior_batch(self.variant, zs, rows, row_norm)[0]

        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = _thinned_chains(log_density_for, self.dim, M, thin, list(streams))
            done = [b for b, o in enumerate(out) if not isinstance(o, SamplerError)]
            if done:
                # one kernel call maps the picks of every chain to the simplex
                _, xs = _log_posterior_batch(
                    self.variant,
                    np.concatenate([out[b] for b in done]),
                    np.repeat(ys[done], M, axis=0),
                    np.repeat(norm[done], M),
                )
                xs = np.ascontiguousarray(xs)
                for j, b in enumerate(done):
                    out[b] = xs[j * M : (j + 1) * M]
        return out


def _ordered_posterior(y, M, rng):
    """M ordered posterior draws, 512 proposals at a time, or a SamplerError after 400 blocks."""
    alpha_post = ALPHA + np.asarray(y, dtype=float)
    kept, filled = [], 0
    for _ in range(400):
        draws = rng.dirichlet(alpha_post, size=512)
        kept.append(draws[np.all(np.diff(draws, axis=1) > 0.0, axis=1)])
        filled += len(kept[-1])
        if filled >= M:
            return np.concatenate(kept)[:M]
    return SamplerError("ordered region too improbable for rejection sampling")


class ExactOrderedDirichletFamily:
    """Exact posterior draws by rejection: Dirichlet(alpha + y) kept if ordered.

    The model's posterior is the Dirichlet(alpha + y) density restricted to
    the strictly increasing region, so rejection from the unordered
    posterior is exact. An ordered region too improbable for it gives a SamplerError.
    """

    name = "exact-min"

    def sample_batch(self, datas, M, streams, thin=1):
        return [_ordered_posterior(y, M, rng) for y, rng in zip(datas, streams)]


@dataclass(frozen=True)
class SimplexGenerator:
    """Sorted symmetric-Dirichlet prior draw plus multinomial counts."""

    def generate(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        while True:
            x = np.sort(rng.dirichlet(ALPHA))
            if np.all(np.diff(x) > 0.0):
                break
        y = rng.multinomial(N_TRIALS, x)
        return x, y


def quantity_library() -> list[TestQuantity]:
    """The four components, and the model's own log likelihood and log prior."""

    def log_lik(draws, ys):
        N = draws.shape[1]
        counts = np.asarray(ys, dtype=float)
        yt, norm = np.repeat(counts.T, N, axis=1), np.repeat(_multinomial_norm(counts), N)
        return _log_lik(_log_x_columns(draws), yt, norm).reshape(draws.shape[:2])

    def log_prior(draws, ys):
        return _log_prior(_log_x_columns(draws)).reshape(draws.shape[:2])

    return [
        *(TestQuantity(f"x[{i + 1}]", lambda d, ys, i=i: d[..., i]) for i in range(4)),
        TestQuantity("log_lik", log_lik),
        TestQuantity("log_prior", log_prior),
    ]

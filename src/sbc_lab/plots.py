"""Hand-rolled SVG emitters for rank diagnostics.

The rendering is deliberately minimal; what matters is that every number
behind a drawn element equals the corresponding report/CSV value. Each
figure embeds its source values in a ``<desc>`` element so the agreement is
machine-checkable. Output is byte-deterministic except for an optional
generation-timestamp comment.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from scipy.special import bdtr, bdtrik

from .diagnostics import EcdfBand, EvolutionTrace, RankSet

__all__ = ["svg_rank_histogram", "svg_ecdf_difference", "svg_evolution"]

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 20, 36, 46

_PALETTE = (
    "#1b6ca8",
    "#c2452d",
    "#3a7d44",
    "#8d5fd3",
    "#c07f00",
    "#2a9d8f",
    "#b23a77",
    "#5c5c5c",
    "#70a288",
    "#9b2226",
    "#456990",
)


def _escape(text: str) -> str:
    """``text`` as XML character data: ``&``, ``<`` and ``>`` escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _open_svg(title: str, timestamp: bool) -> list[str]:
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
    ]
    if timestamp:
        parts.append(f"<!-- generated {datetime.now(timezone.utc).isoformat()} -->")
    parts.append(f'<title>{_escape(title)}</title>')
    parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    return parts


def _axes(parts: list[str], x_label: str, y_label: str, title: str) -> None:
    parts.append(
        f'<g stroke="black" stroke-width="1"><line x1="{_ML}" y1="{_H - _MB}" '
        f'x2="{_W - _MR}" y2="{_H - _MB}"/><line x1="{_ML}" y1="{_MT}" '
        f'x2="{_ML}" y2="{_H - _MB}"/></g>'
    )
    parts.append(f'<text x="{_W / 2:.1f}" y="{_H - 10}" text-anchor="middle">{x_label}</text>')
    parts.append(
        f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_H / 2:.1f})">{y_label}</text>'
    )
    parts.append(
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="14">{_escape(title)}</text>'
    )


def _xmap(frac: np.ndarray) -> np.ndarray:
    return _ML + frac * (_W - _ML - _MR)


def _ymap(value: np.ndarray, lo: float, hi: float) -> np.ndarray:
    span = hi - lo if hi > lo else 1.0
    return (_H - _MB) - (value - lo) / span * (_H - _MT - _MB)


def _hline(y: float, color: str) -> str:
    """A dashed reference line across the plot at height ``y``."""
    return (
        f'<line x1="{_ML}" y1="{y:.2f}" x2="{_W - _MR}" y2="{y:.2f}" '
        f'stroke="{color}" stroke-dasharray="5,4"/>'
    )


def _points(xs, ys) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def _fmt(values) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(values).ravel())


def _write(parts: list[str], path: str | Path) -> None:
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def histogram_bin_counts(rank_set: RankSet, n_bins: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Bin ranks into equal-width cells over {0..M}; returns (edges, counts)."""
    M = rank_set.max_rank
    if n_bins is None:
        n_bins = min(M + 1, 20)
    n_bins = int(min(max(n_bins, 1), M + 1))
    edges = np.round(np.linspace(0, M + 1, n_bins + 1)).astype(int)
    counts = np.add.reduceat(np.bincount(rank_set.ranks, minlength=M + 1), edges[:-1])
    return edges, counts


def _binom_quantile(q: float, n: int, p: np.ndarray) -> np.ndarray:
    """Least k with P(X <= k) >= q for X ~ Binomial(n, p), as floats.

    ``scipy.stats.binom.ppf(q, n, p)`` from ``scipy.special`` alone: the
    continuous inverse ``bdtrik`` rounded up is the answer or one past it.
    The tests pin the two equal at the band's q = 0.025 and 0.975.
    """
    v = np.ceil(bdtrik(q, n, p))
    below = np.maximum(v - 1, 0)
    return np.where(bdtr(below, n, p) >= q, below, v)


def svg_rank_histogram(
    rank_set: RankSet,
    path: str | Path,
    quantity: str = "",
    n_bins: int | None = None,
    timestamp: bool = True,
) -> None:
    """Rank histogram with a pointwise 95% band for per-bin counts under uniformity."""
    edges, counts = histogram_bin_counts(rank_set, n_bins)
    M, S = rank_set.max_rank, rank_set.S
    probs = np.diff(edges) / (M + 1)
    lo = _binom_quantile(0.025, S, probs)
    hi = _binom_quantile(0.975, S, probs)
    top = max(float(counts.max()), float(hi.max()), 1.0) * 1.1
    parts = _open_svg(f"rank histogram: {quantity}", timestamp)
    parts.append(
        "<desc>"
        f"quantity={_escape(quantity)} S={S} M={M} edges={_fmt(edges)} counts={_fmt(counts)} "
        f"band_lo={_fmt(lo)} band_hi={_fmt(hi)}"
        "</desc>"
    )
    _axes(parts, "rank", "count", f"{quantity} (S={S}, M={M})")
    xs = _xmap(edges / (M + 1))
    for x0, x1, yb, yt in zip(xs[:-1], xs[1:], _ymap(lo, 0.0, top), _ymap(hi, 0.0, top)):
        parts.append(
            f'<rect x="{x0:.2f}" y="{yt:.2f}" width="{x1 - x0:.2f}" '
            f'height="{yb - yt:.2f}" fill="#cfe3f0"/>'
        )
    for x0, x1, y in zip(xs[:-1], xs[1:], _ymap(counts, 0.0, top)):
        parts.append(
            f'<rect x="{x0 + 1:.2f}" y="{y:.2f}" width="{max(x1 - x0 - 2, 1):.2f}" '
            f'height="{_H - _MB - y:.2f}" fill="{_PALETTE[0]}" fill-opacity="0.75"/>'
        )
    parts.append(_hline(_ymap(S / len(counts), 0.0, top), "#555555"))
    _write(parts, path)


def svg_ecdf_difference(
    rank_set: RankSet,
    band: EcdfBand,
    path: str | Path,
    quantity: str = "",
    timestamp: bool = True,
) -> None:
    """Rank ECDF counts minus the uniform expectation, with a simultaneous band."""
    M, S = rank_set.max_rank, rank_set.S
    z = np.arange(1, M + 2) / (M + 1)
    R = rank_set.ecdf_counts()  # the counts EcdfBand.contains tests
    expect = S * z
    dev = R - expect
    blo = band.lower - expect
    bhi = band.upper - expect
    lo = float(min(dev.min(), blo.min())) * 1.1 - 1.0
    hi = float(max(dev.max(), bhi.max())) * 1.1 + 1.0
    parts = _open_svg(f"ecdf difference: {quantity}", timestamp)
    parts.append(
        "<desc>"
        f"quantity={_escape(quantity)} S={S} M={M} R={_fmt(R)} band_lower={_fmt(band.lower)} "
        f"band_upper={_fmt(band.upper)}"
        "</desc>"
    )
    _axes(parts, "rank fraction", "ECDF count - expected", f"{quantity} (S={S}, M={M})")
    xs = _xmap(z)
    poly = _points(xs, _ymap(bhi, lo, hi)) + " " + _points(xs[::-1], _ymap(blo, lo, hi)[::-1])
    parts.append(f'<polygon points="{poly}" fill="#cfe3f0"/>')
    parts.append(_hline(_ymap(0.0, lo, hi), "#555555"))
    line = _points(xs, _ymap(dev, lo, hi))
    parts.append(f'<polyline points="{line}" fill="none" stroke="{_PALETTE[1]}" stroke-width="1.5"/>')
    _write(parts, path)


def svg_evolution(
    traces: list[EvolutionTrace], path: str | Path, title: str = "", timestamp: bool = True
) -> None:
    """log(gamma/gamma_bar) against cumulative simulations, one line per quantity."""
    if not traces:
        raise ValueError("need at least one trace")
    all_vals = np.concatenate([t.log_ratio for t in traces])
    lo = float(min(all_vals.min(), -1.0)) * 1.05
    hi = float(max(all_vals.max(), 1.0)) * 1.05
    n_max = max(int(t.n_sims[-1]) for t in traces)
    parts = _open_svg(f"evolution: {title}", timestamp)
    desc = " ".join(
        f"{_escape(t.quantity)}:[{_fmt(t.log_ratio)}]" for t in traces
    )
    parts.append(f"<desc>n_max={n_max} {desc}</desc>")
    _axes(parts, "simulations", "log(gamma/gamma_bar)", title)
    parts.append(_hline(_ymap(0.0, lo, hi), "#777777"))
    for k, trace in enumerate(traces):
        color = _PALETTE[k % len(_PALETTE)]
        line = _points(_xmap(trace.n_sims / n_max), _ymap(trace.log_ratio, lo, hi))
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 150}" y="{_MT + 14 * (k + 1)}" fill="{color}">'
            f"{_escape(trace.quantity)}</text>"
        )
    _write(parts, path)

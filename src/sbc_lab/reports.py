"""Rank tables, uniformity reports, and evolution traces as files.

All emitters are byte-deterministic: fixed column order, LF line endings,
repr-based float formatting, and null thresholds from the fixed calibration
stream (one draw per M, at 5 000 draws), so re-running an identical
configuration reproduces identical files.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .core import SbcRun
from .diagnostics import (
    EvolutionTrace,
    RankSet,
    chi_square_uniformity,
    default_chi2_bins,
    gamma_result,
)

__all__ = [
    "write_ranks_csv",
    "read_ranks_csv",
    "build_report",
    "write_report_json",
    "write_evolution_csv",
]

RANKS_HEADER = ["sim_index", "quantity", "rank", "max_rank", "n_less", "n_equals"]


def write_ranks_csv(run: SbcRun, path: str | Path) -> None:
    """One row per simulation x quantity; header mandatory, UTF-8, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RANKS_HEADER)
        rows, cols = np.nonzero(run.evaluated)  # by simulation, then quantity
        for i, j, rank, n_less, n_equals in zip(
            run.sim_index[rows].tolist(),
            cols.tolist(),
            run.rank[rows, cols].tolist(),
            run.n_less[rows, cols].tolist(),
            run.n_equals[rows, cols].tolist(),
        ):
            writer.writerow([i, run.quantities[j], rank, run.M, n_less, n_equals])


def read_ranks_csv(path: str | Path) -> tuple[dict[str, np.ndarray], int]:
    """Ranks per quantity (ordered as written) and the shared max rank."""
    by_quantity: dict[str, list[int]] = {}
    max_rank = 0
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RANKS_HEADER:
            raise ValueError(f"unexpected rank table header: {reader.fieldnames}")
        for row in reader:
            by_quantity.setdefault(row["quantity"], []).append(int(row["rank"]))
            max_rank = max(max_rank, int(row["max_rank"]))
    return {q: np.asarray(r, dtype=int) for q, r in by_quantity.items()}, max_rank


def build_report(run: SbcRun, metadata: Mapping[str, object] | None = None) -> dict:
    """Uniformity report: per-quantity gamma facts plus run provenance.

    ``pass_5pct`` is log(gamma / gamma_bar) >= 0 at the full simulation
    count; every numeric field is recomputable from the rank table.
    """
    report: dict = dict(metadata or {})
    report.setdefault("variant", run.variant_name)
    report.setdefault("S_requested", run.S)
    report.setdefault("M", run.M)
    report.setdefault("seed", run.seed)
    report.setdefault("thin_stride", run.thin_stride)
    report["failures"] = run.n_failed
    report["quantity_errors"] = len(run.quantity_errors)
    entries = []
    for name in run.quantity_names():
        rank_set = RankSet.from_run(run, name)
        res = gamma_result(rank_set, quantity=name)
        chi2 = chi_square_uniformity(rank_set, default_chi2_bins(rank_set.S, rank_set.max_rank))
        entries.append(
            {
                "quantity": name,
                "S": rank_set.S,
                "M": rank_set.max_rank,
                "gamma": res.gamma,
                "gamma_bar": res.gamma_bar,
                "log_ratio": res.log_ratio,
                "chi2_p": chi2.p_value,
                "pass_5pct": bool(res.log_ratio >= 0.0),
            }
        )
    report["quantities"] = entries
    return report


def write_report_json(report: Mapping[str, object], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report, fh, indent=2, separators=(",", ": "))
        fh.write("\n")


def write_evolution_csv(traces: Iterable[EvolutionTrace], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n_sims", "quantity", "log_ratio"])
        for trace in traces:
            for n, value in zip(trace.n_sims, trace.log_ratio):
                writer.writerow([int(n), trace.quantity, repr(float(value))])

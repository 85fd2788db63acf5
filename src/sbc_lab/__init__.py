"""sbc-lab: simulation-based calibration checking for Bayesian posterior samplers."""

from .core import (
    EssResult,
    InvalidQuantityError,
    SamplerError,
    SbcRun,
    TestQuantity,
    compute_rank,
    ess,
    evaluate_quantities,
    group_quantity,
    run_sbc,
)
from .diagnostics import (
    ChiSquareResult,
    EcdfBand,
    EvolutionTrace,
    GammaResult,
    RankSet,
    chi_square_uniformity,
    ecdf_band,
    evolution_table,
    evolution_trace,
    gamma_null_quantile,
    gamma_result,
    gamma_statistic,
    log_gamma_statistic,
    split_ranks,
)

__all__ = [
    "TestQuantity",
    "group_quantity",
    "SbcRun",
    "SamplerError",
    "InvalidQuantityError",
    "EssResult",
    "compute_rank",
    "evaluate_quantities",
    "run_sbc",
    "ess",
    "RankSet",
    "GammaResult",
    "EvolutionTrace",
    "EcdfBand",
    "ChiSquareResult",
    "gamma_statistic",
    "log_gamma_statistic",
    "gamma_null_quantile",
    "gamma_result",
    "evolution_table",
    "evolution_trace",
    "ecdf_band",
    "split_ranks",
    "chi_square_uniformity",
]

__version__ = "0.1.0"

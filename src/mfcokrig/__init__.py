"""Multifidelity emulation with autoregressive cokriging.

The package links computer-model runs at several fidelity levels through a
recursive autoregressive structure, estimates correlation range parameters
by maximizing an integrated posterior under objective priors, and returns
closed-form predictive means, variances, and joint samples at every level.

Quick start::

    import numpy as np
    import mfcokrig as mk

    data = mk.assemble([(X_low, y_low), (X_high, y_high)])
    spec = mk.KernelSpec(family=mk.MATERN, shape=2.5, dims=X_low.shape[1])
    prior = mk.PriorSpec(kind=mk.REFERENCE)
    result = mk.fit(data, spec, prior, mk.OptimOptions(seed=0))
    model = mk.CokrigingModel(data, result)
    pred = model.predict(X_query)

Correlation kernels are vectorized NumPy; numpy and scipy are the only
dependencies.
"""

from .bench import (
    BOREHOLE_BOX,
    BOREHOLE_DIM,
    BenchmarkReport,
    BoreholeInput,
    borehole_high,
    borehole_low,
    lhs_design,
    run_borehole_benchmark,
    scale_to_box,
)
from .estimate import (
    PLUGIN,
    POSTERIOR,
    CokrigingData,
    FitResult,
    LevelFit,
    OptimOptions,
    assemble,
    concentrated_restricted_likelihood,
    fit,
    fit_level,
    objective,
)
from .exceptions import (
    BenchmarkError,
    ConfigError,
    DegenerateDataError,
    DesignRankError,
    DomainError,
    DuplicateRowError,
    EstimationError,
    InvalidArgumentError,
    MfcokrigError,
    NestingError,
    PriorEvaluationError,
    SingularCorrelationError,
    VarianceUndefinedError,
)
from .gp import (
    LevelData,
    constant_basis,
    integrated_log_likelihood,
    location_scale_estimates,
    tail_probe,
)
from .kernels import (
    MATERN,
    POWER_EXPONENTIAL,
    KernelSpec,
    RangeParams,
    corr1d,
    corr_matrix,
    corr_matrix_deriv,
    cross_corr,
)
from .modelio import load_level_csv, load_model, save_model, write_level_csv
from .optim import OptimResult, nelder_mead_max
from .predict import CokrigingModel, Prediction, build_model
from .priors import (
    FLAT,
    INVERSE_RANGE,
    JEFFREYS1,
    JEFFREYS2,
    JOINTLY_ROBUST,
    PRIOR_KINDS,
    REFERENCE,
    PriorSpec,
    fisher_info_jeffreys,
    fisher_info_reference,
    jr_defaults,
    log_prior,
)

__version__ = "0.1.0"

__all__ = [
    "BOREHOLE_BOX",
    "BOREHOLE_DIM",
    "BenchmarkReport",
    "BoreholeInput",
    "borehole_high",
    "borehole_low",
    "lhs_design",
    "run_borehole_benchmark",
    "scale_to_box",
    "PLUGIN",
    "POSTERIOR",
    "CokrigingData",
    "FitResult",
    "LevelFit",
    "OptimOptions",
    "assemble",
    "concentrated_restricted_likelihood",
    "fit",
    "fit_level",
    "objective",
    "BenchmarkError",
    "ConfigError",
    "DegenerateDataError",
    "DesignRankError",
    "DomainError",
    "DuplicateRowError",
    "EstimationError",
    "InvalidArgumentError",
    "MfcokrigError",
    "NestingError",
    "PriorEvaluationError",
    "SingularCorrelationError",
    "VarianceUndefinedError",
    "LevelData",
    "constant_basis",
    "integrated_log_likelihood",
    "location_scale_estimates",
    "tail_probe",
    "MATERN",
    "POWER_EXPONENTIAL",
    "KernelSpec",
    "RangeParams",
    "corr1d",
    "corr_matrix",
    "corr_matrix_deriv",
    "cross_corr",
    "load_level_csv",
    "load_model",
    "save_model",
    "write_level_csv",
    "OptimResult",
    "nelder_mead_max",
    "CokrigingModel",
    "Prediction",
    "build_model",
    "FLAT",
    "INVERSE_RANGE",
    "JEFFREYS1",
    "JEFFREYS2",
    "JOINTLY_ROBUST",
    "PRIOR_KINDS",
    "REFERENCE",
    "PriorSpec",
    "fisher_info_jeffreys",
    "fisher_info_reference",
    "jr_defaults",
    "log_prior",
    "__version__",
]

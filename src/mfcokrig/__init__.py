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

The names in ``__all__`` are the public API; names reached only through
a submodule are internal.  Correlation kernels are vectorized NumPy; numpy
and scipy are the only dependencies.
"""

from .bench import (
    BenchmarkReport,
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
    fit,
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
from .kernels import MATERN, POWER_EXPONENTIAL, KernelSpec
from .modelio import load_level_csv, load_model, save_model, write_level_csv
from .predict import CokrigingModel, Prediction
from .priors import (
    FLAT,
    INVERSE_RANGE,
    JEFFREYS1,
    JEFFREYS2,
    JOINTLY_ROBUST,
    PRIOR_KINDS,
    REFERENCE,
    PriorSpec,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkReport",
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
    "fit",
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
    "MATERN",
    "POWER_EXPONENTIAL",
    "KernelSpec",
    "load_level_csv",
    "load_model",
    "save_model",
    "write_level_csv",
    "CokrigingModel",
    "Prediction",
    "FLAT",
    "INVERSE_RANGE",
    "JEFFREYS1",
    "JEFFREYS2",
    "JOINTLY_ROBUST",
    "PRIOR_KINDS",
    "REFERENCE",
    "PriorSpec",
    "__version__",
]

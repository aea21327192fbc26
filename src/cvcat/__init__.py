"""cvcat: exact Gaussian-polynomial simulation of squeezed cat-state protocols."""

from .errors import CapacityError, DomainError, EngineError, UsageError
from .gausspoly import (
    DEGREE_CAP,
    GaussianMomentSpec,
    GaussPolyState,
    GaussTerm,
    beam_splitter,
    condition_x,
    dilate,
    fidelity,
    gaussian_moment_integral,
    hermite_gauss,
    inner_product,
    multiply,
    norm_squared,
    project_p,
    relabel,
    superpose,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DomainError",
    "EngineError",
    "UsageError",
    "DEGREE_CAP",
    "GaussianMomentSpec",
    "GaussPolyState",
    "GaussTerm",
    "beam_splitter",
    "condition_x",
    "dilate",
    "fidelity",
    "gaussian_moment_integral",
    "hermite_gauss",
    "inner_product",
    "multiply",
    "norm_squared",
    "project_p",
    "relabel",
    "superpose",
    "__version__",
]

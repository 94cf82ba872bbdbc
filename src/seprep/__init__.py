"""Low-rank separated surrogate models fit by regularized alternating least squares."""

from .basis import BasisSpec, Family, eval_basis_batch, gauss_quadrature
from .model import (
    SampleSet,
    SeparatedModel,
    empirical_norm,
    evaluate_batch,
    load_model,
    mean,
    model_from_dict,
    model_to_dict,
    moment,
    save_model,
    second_moment,
    standard_deviation,
)
from .als import FitConfig, FitDiagnostics, fit_fixed
from .regularize import RegularizationState
from .selection import SelectionReport, select_model
from . import errors, problems

__version__ = "0.1.0"

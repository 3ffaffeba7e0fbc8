"""Recourse-robustness laboratory.

Train paired classifiers on shifted data, generate recourses against the first
model, measure how the second model invalidates them, and verify the closed-form
invalidation bounds by simulation.
"""

__version__ = "0.1.0"

from .dataset import (
    Dataset,
    FeatureSchema,
    FeatureSpec,
    ShiftSpec,
    load_csv,
    split,
    synth_base,
    synth_shift,
)
from .models import (
    ModelSpec,
    TrainedModel,
    accuracy,
    cross_val_accuracy,
    linear_model,
    parallel_perturb,
    train,
)
from .recourse import (
    CostFn,
    RecourseRecord,
    RecourseSet,
    Scm,
    ScmVariable,
    batch_recourse,
    default_chain_scm,
    fit_local_linear,
)
from .shiftlab import (
    CsvSource,
    ExperimentConfig,
    InvalidationReport,
    Seeds,
    cost_invalidation_check,
    run_pipeline,
    sensitivity_sweep,
)
from .theory import (
    BoundCheck,
    bound_continuous,
    bound_ordinal,
    fit_rho,
    invalidation_bound,
    verify_bound,
)

__all__ = [
    "Dataset", "FeatureSchema", "FeatureSpec", "ShiftSpec",
    "load_csv", "split", "synth_base", "synth_shift",
    "ModelSpec", "TrainedModel", "accuracy", "cross_val_accuracy",
    "linear_model", "parallel_perturb", "train",
    "CostFn", "RecourseRecord", "RecourseSet", "Scm", "ScmVariable",
    "batch_recourse", "default_chain_scm", "fit_local_linear",
    "CsvSource", "ExperimentConfig", "InvalidationReport", "Seeds",
    "cost_invalidation_check", "run_pipeline",
    "sensitivity_sweep",
    "BoundCheck", "bound_continuous", "bound_ordinal",
    "fit_rho", "invalidation_bound", "verify_bound",
]

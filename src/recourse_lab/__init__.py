"""Recourse-robustness laboratory.

Train paired classifiers on shifted data, generate recourses against the first
model, measure how the second model invalidates them, and verify the closed-form
invalidation bounds by simulation.

Public names load their module, and with it NumPy, on first use, so importing
the package alone loads neither.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "dataset": ("Dataset", "FeatureSchema", "FeatureSpec", "ShiftSpec",
                "load_csv", "split", "synth_base", "synth_shift"),
    "models": ("ModelSpec", "TrainedModel", "accuracy", "cross_val_accuracy",
               "linear_model", "parallel_perturb", "train"),
    "recourse": ("CostFn", "RecourseRecord", "RecourseSet", "Scm", "ScmVariable",
                 "batch_recourse", "default_chain_scm", "fit_local_linear"),
    "shiftlab": ("CsvSource", "ExperimentConfig", "InvalidationReport", "Seeds",
                 "cost_invalidation_check", "run_pipeline", "sensitivity_sweep"),
    "theory": ("BoundCheck", "bound_continuous", "bound_ordinal",
               "fit_rho", "invalidation_bound", "verify_bound"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""Closed-form invalidation bounds and their Monte-Carlo verification.

For a linear model whose boundary is translated by delta_m along its normal,
recourses produced by the constant-stop-rate walk are invalidated with
probability exactly 1 - exp(-rho * delta_m) on continuous data and
1 - (1 - rho)^delta_m on unit grids. For nonlinear models those expressions
are lower bounds, which verify_bound checks empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import InsufficientSampleError, UnsupportedModelError
from .models import TrainedModel, parallel_perturb
from .recourse import _markov_batch
from .util import derive_seed

BOUND_KINDS = ("continuous", "ordinal")


def bound_continuous(rho: float, delta_m: float) -> float:
    """Invalidation probability 1 - exp(-rho * delta_m) for continuous data."""
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be positive, got {rho}")
    if not (math.isfinite(delta_m) and delta_m >= 0):
        raise ValueError(f"delta_m must be nonnegative, got {delta_m}")
    return 1.0 - math.exp(-rho * delta_m)


def bound_ordinal(rho: float, delta_m) -> float:
    """Invalidation probability 1 - (1 - rho)^delta_m for unit-grid data."""
    if not (math.isfinite(rho) and 0.0 < rho <= 1.0):
        raise ValueError(f"rho must lie in (0, 1] for ordinal data, got {rho}")
    steps = _as_step_count(delta_m)
    return 1.0 - (1.0 - rho) ** steps


def _as_step_count(delta_m) -> int:
    if isinstance(delta_m, float) and not delta_m.is_integer():
        raise ValueError(f"ordinal delta_m must be a whole number of steps, got {delta_m}")
    steps = int(delta_m)
    if steps < 0:
        raise ValueError(f"delta_m must be nonnegative, got {delta_m}")
    return steps


def invalidation_bound(kind: str, rho: float, delta_m) -> float:
    """The closed form of `kind` ("continuous" or "ordinal"), its arguments checked."""
    if kind not in BOUND_KINDS:
        raise ValueError(f"kind must be one of {BOUND_KINDS}, got {kind!r}")
    if kind == "continuous":
        return bound_continuous(rho, delta_m)
    return bound_ordinal(rho, delta_m)


def fit_rho(values, kind: str) -> float:
    """Maximum-likelihood stop-rate estimate: 1 / mean.

    Continuous inputs are crossing depths (> 0); ordinal inputs are step
    counts (>= 1), for which 1 / mean is the geometric-parameter MLE.
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"kind must be one of {BOUND_KINDS}, got {kind!r}")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one observation")
    if not np.all(np.isfinite(arr)):
        raise ValueError("observations must be finite")
    if kind == "continuous" and not np.all(arr > 0):
        raise ValueError("continuous distances must be positive")
    if kind == "ordinal" and not np.all(arr >= 1):
        raise ValueError("ordinal step counts must be at least 1")
    return float(1.0 / arr.mean())


@dataclass(frozen=True)
class BoundCheck:
    rho: float
    delta_m: float
    kind: str
    empirical_q: float
    theoretical_q: float
    abs_gap: float
    n: int


def _data_kind(data: Dataset) -> str:
    if all(k in ("ordinal", "binary") for k in data.schema.kinds):
        return "ordinal"
    return "continuous"


def _comparison_perturb(model: TrainedModel, delta_m: float, data: Dataset) -> TrainedModel:
    """Approximate parallel shift for a nonlinear model.

    The output bias drops by delta_m times the mean gradient norm measured at
    boundary-adjacent data (smallest |decision value| rows), which moves the
    boundary by about delta_m along its local normal. Only the direction of the
    resulting inequality is meaningful.
    """
    if model.is_linear:
        raise UnsupportedModelError("use parallel_perturb for linear models")
    f = model.decision_values(data.X)
    take = max(50, data.n // 10)
    near = np.argsort(np.abs(f))[:take]
    grads = model.input_gradient(data.X[near])
    mean_norm = float(np.linalg.norm(grads, axis=1).mean())
    layers = list(model.layers)
    W, b = layers[-1]
    layers[-1] = (W, b - delta_m * mean_norm)
    return TrainedModel(model.spec, model.schema, tuple(layers))


def verify_bound(
    m1: TrainedModel,
    data: Dataset,
    rho: float,
    delta_m: float,
    n_trials: int,
    seed: int,
    step: float | None = None,
    max_steps: int = 50_000,
) -> BoundCheck:
    """Monte-Carlo invalidation of walk recourses against the closed form.

    Walk starts are drawn (with replacement) from the model's negatives; the
    updated model is the exact parallel translation for linear kinds and the
    bias-shift approximation otherwise, where only empirical >= theoretical
    is claimed. On the linear path a walker retires once the translated model
    accepts it, i.e. once m1's decision value reaches delta_m * ||w||: every
    later step raises that value, so its verdict is settled. rho and delta_m
    are checked before any walk.
    """
    kind = _data_kind(data)
    theoretical = invalidation_bound(kind if m1.is_linear else "continuous", rho, delta_m)
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    neg = np.flatnonzero(m1.predict(data.X) == -1)
    if neg.size < 100:
        raise InsufficientSampleError(
            f"need at least 100 negatively classified points, got {neg.size}"
        )
    rng = np.random.default_rng(derive_seed(seed, "verify-starts"))
    starts = data.X[rng.choice(neg, size=n_trials, replace=True)]

    if m1.is_linear:
        m2 = parallel_perturb(m1, delta_m)
        settle_at = delta_m * float(np.linalg.norm(m1.weight_vector))
    else:
        m2, settle_at = _comparison_perturb(m1, delta_m, data), None
    if step is None:
        step = 1.0 if kind == "ordinal" else float(np.clip(0.02 / rho, 1e-3, 0.05))
    finals, _ = _markov_batch(
        m1, starts, step, rho, derive_seed(seed, "verify-walk"), max_steps, settle_at=settle_at
    )
    kept = [pt for pt in finals if pt is not None]
    if len(kept) < n_trials:
        raise InsufficientSampleError(
            f"{n_trials - len(kept)} of {n_trials} walks failed "
            "(walk budget exhausted or walker stalled at a grid bound)"
        )
    points = np.stack(kept)

    empirical = float(np.mean(m2.predict(points) == -1))
    return BoundCheck(
        rho=rho,
        delta_m=delta_m,
        kind=kind,
        empirical_q=empirical,
        theoretical_q=theoretical,
        abs_gap=abs(empirical - theoretical),
        n=points.shape[0],
    )

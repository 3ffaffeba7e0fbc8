"""Closed-form invalidation bounds and their Monte-Carlo verification.

For a linear model whose boundary is translated by delta_m along its normal,
recourses produced by the constant-stop-rate walk are invalidated with
probability exactly 1 - exp(-rho * delta_m) on continuous data and
1 - (1 - rho)^delta_m on unit grids. For nonlinear models those expressions
are lower bounds, which verify_bound checks empirically. The walk itself,
_markov_batch, lives here too; recourse's `markov` method runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, _snap_to_schema
from .errors import InsufficientSampleError, SearchError
from .models import TrainedModel, parallel_perturb
from .util import derive_seed, row_norms

BOUND_KINDS = ("continuous", "ordinal")

_VERIFY_MAX_STEPS = 50_000


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


def _markov_batch(
    model: TrainedModel,
    X: np.ndarray,
    step: float,
    rho: float,
    u: np.ndarray,
    max_steps: int,
    settle_at: float | None = None,
):
    """Vectorized stochastic boundary-crossing walk.

    Each walker climbs the normalized decision-value gradient, zeroed on the
    non-actionable features so that they never move, in increments of
    `step` (snapped to the grid for ordinal/binary features). Once it first
    reaches a +1 point it takes K more steps, K = floor(ln u / ln(1 - p)) with
    p = min(1, rho * step) and u its entry of `u`, in (0, 1]. So
    P(K >= k) = (1 - p)^k, as if it stopped with probability p before every
    further step; rho is a stop rate per unit of distance walked, which for
    unit grids equals a per-step probability. A p so small that the quotient
    overflows gives K = inf: such a walker never stops by itself. Nothing is
    drawn here, so a walk depends on its own start and u alone.

    With `settle_at`, a walker also stops, keeping its point, as soon as its
    decision value reaches settle_at (checked at the start and after every
    step). A caller that only needs to know whether the final point clears
    that level may pass it when no later step can lower the value again, as
    on a linear model, whose parallel translation by delta_m accepts exactly
    the points at or above delta_m * ||w||.

    On a linear model with no grid feature every step adds the same vector,
    so each walk's end point is computed in closed form (_straight_walks);
    any other model or schema steps every walker in turn (_stepped_walks).

    Returns (list of points or None, iterations array); a walker keeps its
    point when it crossed and did not fail, a budget stop included.

    The callers check step > 0, rho > 0 and max_steps >= 1: method_params
    for the `markov` method, and verify_bound through invalidation_bound and
    its own step and budget.
    """
    straight = model.is_linear and not model.schema.grid_mask().any()
    walks = _straight_walks if straight else _stepped_walks
    return walks(model, X, step, _steps_past_crossing(u, rho, step), max_steps, settle_at)


def _steps_past_crossing(u: np.ndarray, rho: float, step: float) -> np.ndarray:
    """Each walker's K = floor(ln u / ln(1 - p)), p = min(1, rho * step)."""
    # p = 1 gives ln 0 = -inf, so K = 0; a tiny p overflows the quotient to K = inf
    with np.errstate(divide="ignore", over="ignore"):
        return np.floor(np.log(u) / np.log1p(-min(1.0, rho * step)))


def _stepped_walks(model, X, step, stop_after, max_steps, settle_at):
    """The walks of _markov_batch, one step of every live walker at a time;
    stop_after holds each walker's K (_steps_past_crossing)."""
    n = len(X)
    schema = model.schema
    grid = schema.grid_mask()
    fixed = np.flatnonzero(~schema.actionable_mask())
    z = X.copy()
    f = model.decision_values(z)
    crossed = f >= 0.0
    done = crossed.copy()  # already-valid starts return themselves
    if settle_at is not None:
        done |= f >= settle_at
    failed = np.zeros(n, dtype=bool)
    past = np.zeros(n)  # steps taken from past the boundary
    iters = np.zeros(n, dtype=int)

    for _ in range(max_steps):
        # a walker stops once it has taken its K steps past the boundary
        rows = np.flatnonzero(~(done | failed | (crossed & (past >= stop_after))))
        if not rows.size:
            break
        zr = z.take(rows, axis=0)  # several times faster than z[rows] for short rows
        g = model.input_gradient(zr)
        if fixed.size:
            g[:, fixed] = 0.0
        norms = row_norms(g)
        flat = norms <= 1e-12
        if flat.any():
            failed[rows[flat]] = True
            rows, zr, g, norms = rows[~flat], zr[~flat], g[~flat], norms[~flat]
            if rows.size == 0:
                continue
        direction = g / norms[:, None]
        proposal = zr + step * direction
        if grid.any():
            proposal = _snap_to_schema(schema, proposal)
            stalled = np.all(proposal == zr, axis=1)
            if stalled.any():
                # force one grid unit along the steepest grid coordinate
                sub = np.flatnonzero(stalled)
                dir_grid = np.where(grid, direction[sub], 0.0)
                j = np.abs(dir_grid).argmax(axis=1)
                bump = proposal[sub]
                bump[np.arange(sub.size), j] += np.sign(dir_grid[np.arange(sub.size), j])
                proposal[sub] = _snap_to_schema(schema, bump)
                still = np.all(proposal[sub] == zr[sub], axis=1)
                failed[rows[sub[still]]] = True
        if not np.all(np.isfinite(proposal)):
            raise SearchError("walk produced a non-finite point")
        z[rows] = proposal
        iters[rows] += 1
        past[rows] += crossed[rows]
        f = model.decision_values(proposal)
        crossed[rows] |= f >= 0.0
        if settle_at is not None:
            done[rows] |= f >= settle_at

    finals = [z[i].copy() if crossed[i] and not failed[i] else None for i in range(n)]
    return finals, iters


def _straight_walks(model, X, step, stop_after, max_steps, settle_at):
    """The walks of _stepped_walks on a linear model with no grid feature, in
    closed form.

    Every step adds the same s = step * w_A / ||w_A||, w_A being w with its
    non-actionable entries zeroed, computed as the loop computes its
    direction, so k steps from x end at x + k * s. A walker first valid
    after k* steps, and settled after k_s, takes min(k* + K, k_s, max_steps)
    steps; one valid or settled at the start takes none. It keeps its point
    when k* is within that count. A zero w_A fails every other walker, with
    no step taken.
    """
    f0 = model.decision_values(X)
    w = np.where(model.schema.actionable_mask(), model.weight_vector, 0.0)
    norm = row_norms(w[None, :])[0]
    done = f0 >= 0.0
    if settle_at is not None:
        done |= f0 >= settle_at
    steps = np.zeros(len(X), dtype=int)
    found = f0 >= 0.0
    if norm > 1e-12 and not done.all():
        s = step * (w / norm)
        first = _first_reaching(model, X, f0, s, 0.0, max_steps)
        ends = first + stop_after
        if settle_at is not None:
            ends = np.minimum(ends, _first_reaching(model, X, f0, s, settle_at, max_steps))
        steps[~done] = np.minimum(ends, max_steps)[~done]
        found = first <= steps
    Z = X.copy()
    moved = np.flatnonzero(steps)
    if moved.size:
        Z[moved] += steps[moved, None] * s
        if not np.all(np.isfinite(Z[moved])):
            raise SearchError("walk produced a non-finite point")
    return [Z[i].copy() if found[i] else None for i in range(len(X))], steps


def _first_reaching(model, X, f0, s, level, max_steps):
    """Per row, the first k with a decision value of at least `level` at
    x + k * s, as a float; max_steps + 1 stands for any k past max_steps.

    The linear estimate can be off by one in either direction once rounded,
    so it is checked at k and at k - 1 against the model itself.
    """
    with np.errstate(divide="ignore", over="ignore"):
        k = np.clip(np.ceil((level - f0) / float(model.weight_vector @ s)), 0.0, max_steps + 1.0)
    rows = np.flatnonzero((k >= 1) & (k <= max_steps))
    while rows.size:  # short of the level at k: one more step
        rows = rows[model.decision_values(X[rows] + k[rows, None] * s) < level]
        k[rows] += 1
        rows = rows[k[rows] <= max_steps]
    rows = np.flatnonzero(k >= 1)
    while rows.size:  # at the level one step earlier already
        rows = rows[model.decision_values(X[rows] + (k[rows, None] - 1) * s) >= level]
        k[rows] -= 1
        rows = rows[k[rows] >= 1]
    return k


@dataclass(frozen=True)
class BoundCheck:
    rho: float
    delta_m: float
    kind: str
    empirical_q: float
    theoretical_q: float
    n: int

    @property
    def abs_gap(self) -> float:
        return abs(self.empirical_q - self.theoretical_q)


def _comparison_perturb(model: TrainedModel, delta_m: float, data: Dataset) -> TrainedModel:
    """Approximate parallel shift for a nonlinear model.

    The output bias drops by delta_m times the mean gradient norm measured at
    boundary-adjacent data (smallest |decision value| rows), which moves the
    boundary by about delta_m along its local normal. Only the direction of the
    resulting inequality is meaningful.
    """
    f = model.decision_values(data.X)
    take = max(50, data.n // 10)
    near = np.argsort(np.abs(f))[:take]
    grads = model.input_gradient(data.X[near])
    mean_norm = float(row_norms(grads).mean())
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
) -> BoundCheck:
    """Monte-Carlo invalidation of walk recourses against the closed form.

    The data is ordinal when every feature lies on a grid (ordinal or binary),
    and continuous otherwise. Walkers step 1 on the ordinal grid and
    0.02 / rho, clipped to [0.001, 0.05], on continuous data, for at most
    _VERIFY_MAX_STEPS steps each. If any walker fails, by that budget or by
    stalling at a grid bound, InsufficientSampleError says how many did.

    Walk starts are drawn (with replacement) from the model's negatives; the
    updated model is the exact parallel translation for linear kinds and the
    bias-shift approximation otherwise, where only empirical >= theoretical
    is claimed. On the linear path a walker retires once the translated model
    accepts it, i.e. once m1's decision value reaches delta_m * ||w||: every
    later step raises that value, so its verdict is settled. rho and delta_m
    are checked before any walk.

    Walkers move only the actionable features, so they climb the decision
    value at ||w_A|| per unit distance, w_A being w on those features, not
    at ||w||. With a non-actionable feature the closed form is then only a
    lower bound.
    """
    kind = "ordinal" if data.schema.grid_mask().all() else "continuous"
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
    step = 1.0 if kind == "ordinal" else float(np.clip(0.02 / rho, 1e-3, 0.05))
    u = 1.0 - np.random.default_rng(derive_seed(seed, "verify-walk")).random(n_trials)
    finals, _ = _markov_batch(m1, starts, step, rho, u, _VERIFY_MAX_STEPS, settle_at=settle_at)
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
        n=points.shape[0],
    )

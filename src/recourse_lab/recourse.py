"""Recourse generators and their bookkeeping.

Four search strategies produce points the model classifies +1:

  cfe    - gradient descent on a penalized distance objective, with the penalty
           weight grown geometrically until a valid point appears
  ar     - best-first search over per-feature percentile actions, exact on the
           grid, run against a (possibly surrogate) linear model
  markov - a boundary-crossing walk that keeps stepping past the boundary with a
           constant per-step stop probability, so crossing depths follow an
           exponential (continuous grids) or geometric (integer grids) law
  causal - enumeration of interventions on a linear-Gaussian structural model,
           with downstream effects propagated under abducted noise
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, FeatureSchema
from .errors import (
    DataValidationError,
    SchemaMismatchError,
    SearchError,
    SurrogateFitError,
)
from .models import (
    TrainedModel,
    linear_model,
    numeric_gradient_batch,
)
from .util import derive_seed

COST_NORMS = ("L1", "L2")
RECOURSE_METHODS = ("cfe", "ar", "causal", "markov")

DECILE_PERCENTILES = tuple(range(10, 100, 10))

CFE_DEFAULTS = {
    "lambda_init": 0.1,
    "lambda_growth": 10.0,
    "lambda_steps": 6,
    "inner_iters": 1000,
    "step_size": 0.01,
    "tolerance": 1e-6,
    "margin_target": 1e-4,
}

AR_DEFAULTS = {
    "grid_percentiles": DECILE_PERCENTILES,
    "max_changed_features": 3,
    "n_samples": 1000,
    "kernel_width": 0.75,
}

MARKOV_DEFAULTS = {
    "step": 0.05,
    "rho": 1.0,
    "max_steps": 10_000,
}

CAUSAL_DEFAULTS = {
    "grid_percentiles": DECILE_PERCENTILES,
    "max_intervened": 2,
}

_DIFF_H = 1e-4  # numeric-gradient step used inside the searches


@dataclass(frozen=True)
class CostFn:
    """L1 or L2 distance between an origin and its recourse."""

    norm: str = "L2"

    def __post_init__(self):
        if self.norm not in COST_NORMS:
            raise ValueError(f"norm must be one of {COST_NORMS}, got {self.norm!r}")

    def __call__(self, a, b) -> float:
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.norm == "L1":
            return float(np.abs(diff).sum())
        return float(np.linalg.norm(diff))

    def pairwise(self, A, B) -> np.ndarray:
        diff = np.asarray(A, dtype=float) - np.asarray(B, dtype=float)
        if self.norm == "L1":
            return np.abs(diff).sum(axis=1)
        return np.linalg.norm(diff, axis=1)

    def gradient(self, A, B) -> np.ndarray:
        """Subgradient of cost(A_i, B_i) with respect to A_i, rowwise."""
        diff = np.asarray(A, dtype=float) - np.asarray(B, dtype=float)
        if self.norm == "L1":
            return np.sign(diff)
        norms = np.linalg.norm(diff, axis=1, keepdims=True)
        safe = np.where(norms > 1e-12, norms, 1.0)
        return np.where(norms > 1e-12, diff / safe, 0.0)


@dataclass(frozen=True, eq=False)
class RecourseRecord:
    origin: np.ndarray
    recourse: np.ndarray
    cost: float
    method: str
    iterations: int
    boundary_distance: float | None = None

    def __post_init__(self):
        origin = np.array(self.origin, dtype=float)
        recourse = np.array(self.recourse, dtype=float)
        origin.flags.writeable = False
        recourse.flags.writeable = False
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "recourse", recourse)
        if self.method not in RECOURSE_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not (math.isfinite(self.cost) and self.cost >= 0.0):
            raise ValueError(f"cost must be finite and nonnegative, got {self.cost}")


@dataclass(frozen=True, eq=False)
class RecourseSet:
    """Successful records for one model, plus the count of points with no recourse."""

    records: tuple[RecourseRecord, ...]
    model: TrainedModel
    not_found: int = 0

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if self.not_found < 0:
            raise ValueError("not_found must be nonnegative")
        if self.records:
            preds = self.model.predict(self.recourse_matrix())
            if not np.all(preds == 1):
                bad = int(np.argmax(preds != 1))
                raise DataValidationError(
                    f"record {bad} is not classified +1 by the reference model"
                )

    @property
    def size(self) -> int:
        return len(self.records)

    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records])

    def recourse_matrix(self) -> np.ndarray:
        d = self.model.schema.n_features
        if not self.records:
            return np.empty((0, d))
        return np.stack([r.recourse for r in self.records])


def _snap_to_schema(schema: FeatureSchema, Z: np.ndarray) -> np.ndarray:
    """Round grid features to their grids and clip everything to bounds."""
    out = np.array(Z, dtype=float)
    grid = schema.grid_mask()
    if grid.any():
        out[:, grid] = np.round(out[:, grid])
    lo, hi = schema.lower_bounds(), schema.upper_bounds()
    np.clip(out, lo, hi, out=out)
    binary = np.array([f.kind == "binary" for f in schema.features])
    if binary.any():
        out[:, binary] = np.clip(np.round(out[:, binary]), 0.0, 1.0)
    return out


def _boundary_distance(model: TrainedModel, x: np.ndarray) -> float | None:
    if not model.is_linear:
        return None
    w = model.weight_vector
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        return None
    return float((w @ x + model.bias) / norm)


_B1, _B2 = 0.9, 0.999


def _cfe_batch(model: TrainedModel, X: np.ndarray, cost: CostFn, p: dict):
    """Vectorized penalized-distance descent over a batch of origins.

    Per point, each penalty-weight stage runs adaptive first-order descent until
    the iterate stops moving (or inner_iters elapse). The stage's converged
    iterate is snapped to the schema and accepted if the model still says +1;
    when end-of-stage oscillation leaves it on the wrong side, the cheapest
    valid iterate seen so far stands in. Points with no accepted candidate get
    their penalty weight grown and continue from where they stopped.

    Returns (list of recourse vectors or None, iterations array).
    """
    n, d = X.shape
    schema = model.schema
    margin = p["margin_target"]
    lam = np.full(n, p["lambda_init"])
    z = X.copy()

    done = np.zeros(n, dtype=bool)
    final = [None] * n
    iters = np.zeros(n, dtype=int)

    seen_z = np.zeros_like(X)
    seen_cost = np.full(n, np.inf)
    has_seen = np.zeros(n, dtype=bool)

    f0 = model.decision_values(X)
    for i in np.flatnonzero(f0 >= 0.0):
        final[i] = X[i].copy()
        done[i] = True

    def remember_valid(rows, f):
        rows = rows[f >= 0.0]
        if rows.size:
            c = cost.pairwise(z[rows], X[rows])
            better = c < seen_cost[rows]
            rows = rows[better]
            seen_cost[rows] = c[better]
            seen_z[rows] = z[rows]
            has_seen[rows] = True

    def accept(rows, points):
        ok = model.decision_values(points) >= 0.0
        for r, point, good in zip(rows, points, ok):
            if good:
                final[r] = point
                done[r] = True

    for _stage in range(p["lambda_steps"] + 1):
        active = ~done
        if not active.any():
            break
        m_adam = np.zeros((n, d))
        v_adam = np.zeros((n, d))
        t_adam = np.zeros(n, dtype=int)
        frozen = np.zeros(n, dtype=bool)
        for _it in range(p["inner_iters"]):
            live = active & ~frozen
            if not live.any():
                break
            zl = z[live]
            f = model.decision_values(zl)
            remember_valid(np.flatnonzero(live), f)
            grad_f = numeric_gradient_batch(model, zl, _DIFF_H)
            gap = np.maximum(0.0, margin - f)
            g = (
                lam[live, None] * (-2.0 * gap[:, None]) * grad_f
                + cost.gradient(zl, X[live])
            )
            if not np.all(np.isfinite(g)):
                raise SearchError("non-finite search gradient")
            t_adam[live] += 1
            ml = _B1 * m_adam[live] + (1 - _B1) * g
            vl = _B2 * v_adam[live] + (1 - _B2) * g * g
            m_adam[live] = ml
            v_adam[live] = vl
            tl = t_adam[live][:, None].astype(float)
            mhat = ml / (1.0 - _B1 ** tl)
            vhat = vl / (1.0 - _B2 ** tl)
            step = p["step_size"] * mhat / (np.sqrt(vhat) + 1e-8)
            z[live] = zl - step
            iters[live] += 1
            frozen[live] |= np.abs(step).max(axis=1) < p["tolerance"]
        rows = np.flatnonzero(active)
        remember_valid(rows, model.decision_values(z[rows]))

        # converged iterate first, cheapest valid iterate as the fallback
        accept(rows, _snap_to_schema(schema, z[rows]))
        rows = np.flatnonzero(active & ~done & has_seen)
        if rows.size:
            accept(rows, _snap_to_schema(schema, seen_z[rows]))
        lam[~done] *= p["lambda_growth"]

    return final, iters


def cfe_search(model: TrainedModel, x, cost: CostFn, **params) -> RecourseRecord | None:
    """Gradient counterfactual search for one point; None when the schedule fails.

    Accepts overrides of CFE_DEFAULTS, i.e. lambda_init, lambda_growth,
    lambda_steps, inner_iters, step_size, tolerance, margin_target.
    """
    p = _merged(CFE_DEFAULTS, params)
    x = np.asarray(x, dtype=float)
    finals, iters = _cfe_batch(model, x[None, :], cost, p)
    if finals[0] is None:
        return None
    return RecourseRecord(
        origin=x,
        recourse=finals[0],
        cost=cost(x, finals[0]),
        method="cfe",
        iterations=int(iters[0]),
        boundary_distance=_boundary_distance(model, finals[0]),
    )


def _merged(defaults: dict, overrides: dict) -> dict:
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ValueError(f"unknown parameter(s): {sorted(unknown)}")
    out = dict(defaults)
    out.update(overrides)
    return out


def fit_local_linear(
    model: TrainedModel,
    x,
    n_samples: int = 1000,
    kernel_width: float = 0.75,
    seed: int = 0,
) -> TrainedModel:
    """Weighted least-squares linear surrogate of the decision value around x.

    Perturbations are drawn from an isotropic normal with the kernel width as
    scale and weighted by exp(-||z - x||^2 / kernel_width^2).
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    if n_samples < 10 * d:
        raise ValueError(f"need at least 10 * {d} samples, got {n_samples}")
    if not kernel_width > 0:
        raise ValueError("kernel_width must be positive")
    rng = np.random.default_rng(seed)
    Z = x + kernel_width * rng.standard_normal((n_samples, d))
    scaled = ((Z - x) ** 2).sum(axis=1) / kernel_width**2
    if not np.all(np.isfinite(scaled)):
        raise SurrogateFitError("kernel weights are not finite")
    weights = np.exp(-scaled)
    targets = model.decision_values(Z)
    design = np.column_stack([Z, np.ones(n_samples)])
    sw = np.sqrt(weights)[:, None]
    try:
        beta, _, rank, _ = np.linalg.lstsq(sw * design, sw[:, 0] * targets, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise SurrogateFitError(f"weighted least squares failed: {exc}") from None
    if rank < d + 1:
        raise SurrogateFitError("degenerate weighted design around the query point")
    return linear_model(beta[:d], beta[d], model.schema)


def _percentile_grid(column: np.ndarray, percentiles) -> np.ndarray:
    """Empirical values at the requested percentiles (nearest-rank, deduplicated)."""
    vals = np.percentile(column, list(percentiles), method="nearest")
    return np.unique(vals)


def ar_search(
    model: TrainedModel,
    x,
    data: Dataset,
    cost: CostFn,
    grid_percentiles=DECILE_PERCENTILES,
    max_changed_features: int = 3,
) -> RecourseRecord | None:
    """Minimum-cost combination of percentile actions over actionable features.

    Best-first over partial assignments ordered by a cost lower bound, which is
    exact for both norms (monotone keys), so the first valid point popped is the
    grid optimum. Validity is judged by the supplied linear model.
    """
    if not model.is_linear:
        raise ValueError("ar_search requires a linear model (fit a surrogate first)")
    x = np.asarray(x, dtype=float)
    actionable = model.schema.actionable_indices()
    if not actionable:
        raise ValueError("schema has no actionable features")
    if max_changed_features < 1:
        raise ValueError("max_changed_features must be at least 1")

    grids = {j: _percentile_grid(data.X[:, j], grid_percentiles) for j in actionable}

    def key(delta: float) -> float:
        return abs(delta) if cost.norm == "L1" else delta * delta

    # heap entries: (cost key, tiebreak, changes as ((feature, value), ...))
    counter = itertools.count()
    heap = [(0.0, next(counter), ())]
    popped = 0
    while heap:
        k, _, changes = heapq.heappop(heap)
        popped += 1
        point = x.copy()
        for j, v in changes:
            point[j] = v
        if model.decision_value(point) >= 0.0:
            return RecourseRecord(
                origin=x,
                recourse=point,
                cost=cost(x, point),
                method="ar",
                iterations=popped,
                boundary_distance=_boundary_distance(model, point),
            )
        if len(changes) >= max_changed_features:
            continue
        last = changes[-1][0] if changes else -1
        for j in actionable:
            if j <= last:
                continue
            for v in grids[j]:
                if v == x[j]:
                    continue
                heapq.heappush(
                    heap, (k + key(v - x[j]), next(counter), changes + ((j, float(v)),))
                )
    return None


def _markov_batch(
    model: TrainedModel,
    X: np.ndarray,
    step: float,
    rho: float,
    seed: int,
    max_steps: int,
    settle: TrainedModel | None = None,
):
    """Vectorized stochastic boundary-crossing walk.

    Each walker climbs the normalized decision-value gradient in increments of
    `step` (snapped to the grid for ordinal/binary features). Once a walker first
    reaches a +1 point it draws, before every further step, a uniform variate and
    stops with probability min(1, rho * step); rho is a stop rate per unit of
    distance walked, which for unit grids equals a per-step probability.

    With `settle`, a walker also stops, keeping its point, as soon as `settle`
    accepts it (checked at the start and after every step). A caller that only
    needs the verdict of `settle` on the final point may pass it when no later
    step can take an accepted walker back out, as for a linear model and its
    parallel translation.

    Returns (list of points or None, iterations array).
    """
    if not step > 0:
        raise ValueError("step must be positive")
    if not rho > 0:
        raise ValueError("rho must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    p_stop = min(1.0, rho * step)
    rng = np.random.default_rng(seed)

    n, d = X.shape
    schema = model.schema
    grid = schema.grid_mask()
    z = X.copy()
    crossed = model.decision_values(z) >= 0.0
    done = crossed.copy()  # already-valid starts return themselves
    if settle is not None:
        done |= settle.decision_values(z) >= 0.0
    failed = np.zeros(n, dtype=bool)
    iters = np.zeros(n, dtype=int)

    linear_dir = None
    if model.is_linear:
        w = model.weight_vector
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            failed[:] = ~done
            done[:] = True
        else:
            linear_dir = w / norm

    for _ in range(max_steps):
        active = ~done & ~failed
        if not active.any():
            break
        # stop draws happen before the next step, only for walkers past the boundary
        drawing = active & crossed
        if drawing.any():
            stops = rng.uniform(size=int(drawing.sum())) < p_stop
            rows = np.flatnonzero(drawing)[stops]
            done[rows] = True
            active[rows] = False
            if not active.any():
                continue
        rows = np.flatnonzero(active)
        if linear_dir is not None:
            direction = np.broadcast_to(linear_dir, (rows.size, d))
        else:
            g = numeric_gradient_batch(model, z[rows], _DIFF_H)
            norms = np.linalg.norm(g, axis=1, keepdims=True)
            flat = norms[:, 0] <= 1e-12
            if flat.any():
                failed[rows[flat]] = True
                rows = rows[~flat]
                if rows.size == 0:
                    continue
                g = g[~flat]
                norms = norms[~flat]
            direction = g / norms
        proposal = z[rows] + step * direction
        if grid.any():
            proposal = _snap_to_schema(schema, proposal)
            stalled = np.all(proposal == z[rows], axis=1)
            if stalled.any():
                # force one grid unit along the steepest grid coordinate
                sub = np.flatnonzero(stalled)
                dir_grid = np.where(grid, direction[sub], 0.0)
                j = np.abs(dir_grid).argmax(axis=1)
                bump = proposal[sub]
                bump[np.arange(sub.size), j] += np.sign(dir_grid[np.arange(sub.size), j])
                proposal[sub] = _snap_to_schema(schema, bump)
                still = np.all(proposal[sub] == z[rows][sub], axis=1)
                failed[rows[sub[still]]] = True
        if not np.all(np.isfinite(proposal)):
            raise SearchError("walk produced a non-finite point")
        z[rows] = proposal
        iters[rows] += 1
        crossed[rows] |= model.decision_values(z[rows]) >= 0.0
        if settle is not None:
            done[rows] |= settle.decision_values(z[rows]) >= 0.0

    unfinished = ~done & ~failed
    failed |= unfinished & ~crossed
    # walkers stopped by the budget while already past the boundary keep their point
    done |= unfinished & crossed

    finals = [z[i].copy() if done[i] and not failed[i] else None for i in range(n)]
    return finals, iters


def markov_search(
    model: TrainedModel,
    x,
    step: float,
    rho: float,
    seed: int,
    max_steps: int = MARKOV_DEFAULTS["max_steps"],
) -> RecourseRecord | None:
    """Stochastic boundary-crossing walk for one point; None if the budget runs out."""
    x = np.asarray(x, dtype=float)
    finals, iters = _markov_batch(model, x[None, :], step, rho, seed, max_steps)
    if finals[0] is None:
        return None
    cost = CostFn("L2")
    return RecourseRecord(
        origin=x,
        recourse=finals[0],
        cost=cost(x, finals[0]),
        method="markov",
        iterations=int(iters[0]),
        boundary_distance=_boundary_distance(model, finals[0]),
    )


@dataclass(frozen=True)
class ScmVariable:
    """One structural equation: value = sum(coeff * parent) + noise."""

    name: str
    parents: tuple[tuple[int, float], ...] = ()
    noise_std: float = 1.0
    intervenable: bool = True

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple((int(i), float(c)) for i, c in self.parents))
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")


@dataclass(frozen=True)
class Scm:
    """Linear-Gaussian structural model over topologically ordered variables."""

    variables: tuple[ScmVariable, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        for i, var in enumerate(self.variables):
            for parent, _ in var.parents:
                if not 0 <= parent < i:
                    raise ValueError(
                        f"variable {var.name!r} references parent index {parent}; "
                        "equations may only use earlier variables"
                    )

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    def intervenable_indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.variables) if v.intervenable)

    def sample(self, n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        X = np.zeros((n, self.n_variables))
        for i, var in enumerate(self.variables):
            noise = var.noise_std * rng.standard_normal(n)
            X[:, i] = noise
            for parent, coeff in var.parents:
                X[:, i] += coeff * X[:, parent]
        return X

    def abduct(self, x) -> np.ndarray:
        """Residual noises that reproduce x exactly under the structural equations."""
        x = np.asarray(x, dtype=float)
        u = np.zeros(self.n_variables)
        for i, var in enumerate(self.variables):
            u[i] = x[i] - sum(coeff * x[parent] for parent, coeff in var.parents)
        return u

    def propagate(self, x, interventions: dict[int, float]) -> np.ndarray:
        """Apply interventions and recompute descendants with abducted noises fixed."""
        x = np.asarray(x, dtype=float)
        u = self.abduct(x)
        out = np.zeros(self.n_variables)
        for i, var in enumerate(self.variables):
            if i in interventions:
                out[i] = interventions[i]
            else:
                out[i] = u[i] + sum(coeff * out[parent] for parent, coeff in var.parents)
        return out


def default_chain_scm(names=("x0", "x1", "x2")) -> Scm:
    """Three-variable chain with coefficients 0.8 and 0.5 and unit noises."""
    if len(names) != 3:
        raise ValueError("default chain is defined for exactly 3 variables")
    return Scm((
        ScmVariable(names[0]),
        ScmVariable(names[1], parents=((0, 0.8),)),
        ScmVariable(names[2], parents=((1, 0.5),)),
    ))


def causal_recourse(
    scm: Scm,
    model: TrainedModel,
    x,
    cost: CostFn,
    grid_percentiles=DECILE_PERCENTILES,
    max_intervened: int = 2,
    data: Dataset | None = None,
    grid_samples: int = 1000,
    seed: int = 0,
) -> RecourseRecord | None:
    """Cheapest grid intervention whose propagated point the model accepts.

    Grids hold empirical percentiles of `data` when given, otherwise of a seeded
    sample from the structural model itself. Cost is measured between x and the
    full post-intervention vector. Enumeration is exhaustive over interventions
    touching at most max_intervened variables.
    """
    if scm.n_variables != model.schema.n_features:
        raise SchemaMismatchError(
            f"SCM has {scm.n_variables} variables but the schema has "
            f"{model.schema.n_features} features"
        )
    x = np.asarray(x, dtype=float)
    if model.predict(x) == 1:
        return RecourseRecord(
            origin=x, recourse=x.copy(), cost=0.0, method="causal", iterations=0,
            boundary_distance=_boundary_distance(model, x),
        )
    source = data.X if data is not None else scm.sample(grid_samples, derive_seed(seed, "scm-grid"))
    targets = scm.intervenable_indices()
    if not targets:
        raise ValueError("SCM has no intervenable variables")
    grids = {j: _percentile_grid(source[:, j], grid_percentiles) for j in targets}

    best = None
    best_cost = np.inf
    evaluated = 0
    for r in range(1, max_intervened + 1):
        for combo in itertools.combinations(targets, r):
            for values in itertools.product(*(grids[j] for j in combo)):
                interventions = {
                    j: float(v) for j, v in zip(combo, values) if v != x[j]
                }
                if len(interventions) != len(combo):
                    continue  # no-op component; covered by a smaller combo
                candidate = scm.propagate(x, interventions)
                evaluated += 1
                if model.predict(candidate) != 1:
                    continue
                c = cost(x, candidate)
                if c < best_cost - 1e-12:
                    best, best_cost = candidate, c
    if best is None:
        return None
    return RecourseRecord(
        origin=x,
        recourse=best,
        cost=best_cost,
        method="causal",
        iterations=evaluated,
        boundary_distance=_boundary_distance(model, best),
    )


def batch_recourse(
    model: TrainedModel,
    data: Dataset,
    method: str,
    cost: CostFn,
    params: dict | None = None,
    seed: int = 0,
    scm: Scm | None = None,
) -> RecourseSet:
    """Run one generator over every point the model classifies -1.

    Successes land in the returned set's records (input order); per-point
    failures are counted in not_found, never raised. Every record is re-checked
    against the true model, so surrogate-driven methods cannot leak invalid
    points into the set.
    """
    if not model.schema.compatible_with(data.schema):
        raise SchemaMismatchError("model and data schemas are incompatible")
    if method not in RECOURSE_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {RECOURSE_METHODS}")
    params = dict(params or {})

    neg_idx = np.flatnonzero(model.predict(data.X) == -1)
    X_neg = data.X[neg_idx]

    proposals: list[tuple[np.ndarray, int] | None] = []
    if method == "cfe":
        p = _merged(CFE_DEFAULTS, params)
        finals, iters = _cfe_batch(model, X_neg, cost, p)
        proposals = [
            (pt, int(it)) if pt is not None else None
            for pt, it in zip(finals, iters)
        ]
    elif method == "markov":
        p = _merged(MARKOV_DEFAULTS, params)
        finals, iters = _markov_batch(
            model, X_neg, p["step"], p["rho"], derive_seed(seed, "markov-batch"), p["max_steps"]
        )
        proposals = [
            (pt, int(it)) if pt is not None else None
            for pt, it in zip(finals, iters)
        ]
    elif method == "ar":
        p = _merged(AR_DEFAULTS, params)
        for i, x in zip(neg_idx, X_neg):
            if model.is_linear:
                surrogate = model
            else:
                try:
                    surrogate = fit_local_linear(
                        model, x,
                        n_samples=p["n_samples"],
                        kernel_width=p["kernel_width"],
                        seed=derive_seed(seed, "surrogate", int(i)),
                    )
                except SurrogateFitError:
                    proposals.append(None)
                    continue
            rec = ar_search(
                surrogate, x, data, cost,
                grid_percentiles=p["grid_percentiles"],
                max_changed_features=p["max_changed_features"],
            )
            proposals.append((rec.recourse, rec.iterations) if rec is not None else None)
    else:  # causal
        p = _merged(CAUSAL_DEFAULTS, params)
        the_scm = scm
        if the_scm is None:
            if data.schema.n_features != 3:
                raise ValueError("no SCM given and the default chain needs 3 features")
            the_scm = default_chain_scm(data.schema.names)
        for i, x in zip(neg_idx, X_neg):
            rec = causal_recourse(
                the_scm, model, x, cost,
                grid_percentiles=p["grid_percentiles"],
                max_intervened=p["max_intervened"],
                data=data,
                seed=derive_seed(seed, "causal", int(i)),
            )
            proposals.append((rec.recourse, rec.iterations) if rec is not None else None)

    records = []
    not_found = 0
    for x, prop in zip(X_neg, proposals):
        if prop is None:
            not_found += 1
            continue
        point, iters = prop
        if model.predict(point) != 1:  # surrogate or snapping may have lied
            not_found += 1
            continue
        records.append(RecourseRecord(
            origin=x,
            recourse=point,
            cost=cost(x, point),
            method=method,
            iterations=iters,
            boundary_distance=_boundary_distance(model, point),
        ))
    return RecourseSet(tuple(records), model, not_found)

"""Recourse generators and their bookkeeping.

Four search strategies produce points the model classifies +1:

  cfe    - gradient descent on a penalized distance objective, with the penalty
           weight grown geometrically until a valid point appears
  ar     - cheapest combination of per-feature percentile actions: the grid
           enumeration shared with causal, over an SCM with no parents, run
           against a (possibly surrogate) linear model
  markov - a boundary-crossing walk that keeps stepping past the boundary with a
           constant per-step stop probability, so crossing depths follow an
           exponential (continuous grids) or geometric (integer grids) law
  causal - the grid enumeration of interventions on a linear structural model,
           with downstream effects propagated under abducted noise; blocks of
           origins share one propagation and one model call
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, FeatureSchema, _snap_to_schema
from .errors import (
    DataValidationError,
    SchemaMismatchError,
    SearchError,
    SurrogateFitError,
)
from .models import _ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS, TrainedModel, linear_model
from .theory import _markov_batch
from .util import derive_seed, is_number, row_norms

COST_NORMS = ("L1", "L2")

DECILE_PERCENTILES = tuple(range(10, 100, 10))


@dataclass(frozen=True)
class CostFn:
    """L1 or L2 distance between an origin and its recourse."""

    norm: str = "L2"

    def __post_init__(self):
        if self.norm not in COST_NORMS:
            raise ValueError(f"norm: must be one of {COST_NORMS}, got {self.norm!r}")

    def __call__(self, a, b) -> float:
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        if self.norm == "L1":
            return float(np.abs(diff).sum())
        return float(np.linalg.norm(diff))

    def pairwise(self, A, B) -> np.ndarray:
        diff = np.asarray(A, dtype=float) - np.asarray(B, dtype=float)
        if self.norm == "L1":
            return np.abs(diff).sum(axis=1)
        return row_norms(diff)

    def costs_and_subgradient(self, diff):
        """Rowwise costs of diff = A - B and their subgradients with respect to A."""
        if self.norm == "L1":
            return np.abs(diff).sum(axis=1), np.sign(diff)
        norms = row_norms(diff)
        nonzero = norms[:, None] > 1e-12
        return norms, np.divide(diff, norms[:, None], out=np.zeros_like(diff), where=nonzero)


class RecourseRecord(NamedTuple):
    origin: np.ndarray
    recourse: np.ndarray
    cost: float
    iterations: int


@dataclass(frozen=True, eq=False)
class RecourseSet:
    """The recourses found for one model, one row each, as read-only columns
    (origins and points (m, d), costs and iterations (m,)), plus the count of
    searched points with no recourse. Construction checks each column's
    shape, the costs, not_found and that the model accepts every point."""

    model: TrainedModel
    origins: np.ndarray
    points: np.ndarray
    costs: np.ndarray
    iterations: np.ndarray
    not_found: int = 0

    def __post_init__(self):
        m, d = len(self.points), self.model.schema.n_features
        for name, shape in (("points", (m, d)), ("origins", (m, d)),
                            ("costs", (m,)), ("iterations", (m,))):
            column = np.array(getattr(self, name), dtype=int if name == "iterations" else float)
            if column.shape != shape:
                raise SchemaMismatchError(f"{name}: expected shape {shape}, got {column.shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if not np.all(np.isfinite(self.costs) & (self.costs >= 0.0)):
            raise ValueError("costs: must be finite and nonnegative")
        if self.not_found < 0:
            raise ValueError(f"not_found: must be nonnegative, got {self.not_found}")
        rejected = np.flatnonzero(self.model.predict(self.points) != 1) if m else []
        if len(rejected):
            raise DataValidationError(
                f"record {rejected[0]} is not classified +1 by the reference model")

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def records(self) -> tuple[RecourseRecord, ...]:
        """The rows, with Python-number costs and iterations. Nothing in the
        package reads them; tests and perfbench's tracer do."""
        return tuple(map(RecourseRecord, self.origins, self.points,
                         self.costs.tolist(), self.iterations.tolist()))


# the largest CFE gradient entry whose square, so (1 - b2) g g and v / bias2, is finite
_G_MAX = math.sqrt(sys.float_info.max)


def _cfe_batch(model, data, rows, cost, p, seed, scm):
    """Vectorized penalized-distance descent from the origins data.X[rows].

    Per point, each penalty-weight stage runs adaptive first-order descent until
    the iterate stops moving (or inner_iters elapse). The stage's converged
    iterate is snapped to the schema and accepted if the model still says +1;
    when end-of-stage oscillation leaves it on the wrong side, the cheapest
    valid iterate seen so far stands in. Points with no accepted candidate get
    their penalty weight grown and continue from where they stopped.

    A stage descends on contiguous copies of its live rows, in row order, and
    drops rows from them as they freeze, with one index and a take per array,
    so no step gathers or scatters state. The live rows' best valid cost so
    far is one of those copies. Each step makes one decision_values call and
    takes the costs and their subgradient from one difference to the origins;
    the Adam moments and the step are updated in place, in the order of their
    textbook expressions, so every bit is theirs. Rows only leave a stage, so
    its live rows share one step count, one bias correction and one penalty
    weight.

    The input gradient is zeroed on the non-actionable features, so their
    cost subgradient stays 0 too and no iterate moves them.

    A NaN gradient entry, or one whose square would overflow the second
    moment, raises SearchError, with no NumPy warning.

    Returns (list of recourse vectors or None, iterations array).
    """
    X = data.X[rows]
    n, d = X.shape
    schema = model.schema
    fixed = np.flatnonzero(~schema.actionable_mask())
    margin = p["margin_target"]
    step_size = p["step_size"]
    lam = p["lambda_init"]
    z = X.copy()
    # Adam bias corrections per step, as array powers (Python's float ** may differ in the last bit)
    bias1, bias2 = (1.0 - b ** np.arange(1.0, p["inner_iters"] + 1.0)
                    for b in (_ADAM_BETA1, _ADAM_BETA2))

    done = np.zeros(n, dtype=bool)
    final = np.empty_like(X)
    iters = np.zeros(n, dtype=int)

    # a row's cheapest valid iterate; its cost stays inf until it has one
    seen_z = np.zeros_like(X)
    seen_cost = np.full(n, np.inf)

    def remember(rows, zr, c):
        seen_cost[rows] = c
        seen_z[rows] = zr

    def accept(rows, points):
        ok = model.decision_values(points) >= 0.0
        final[rows[ok]] = points[ok]
        done[rows[ok]] = True

    for _stage in range(p["lambda_steps"] + 1):
        active = np.flatnonzero(~done)
        if not active.size:
            break
        idx, zl, Xl, seenl = active, z[active], X[active], seen_cost[active]
        m_adam, v_adam = np.zeros((idx.size, d)), np.zeros((idx.size, d))
        step, work = np.empty((idx.size, d)), np.empty((idx.size, d))
        for t in range(p["inner_iters"]):
            if not idx.size:
                break
            f = model.decision_values(zl)
            c, sub = cost.costs_and_subgradient(np.subtract(zl, Xl, out=work))
            better = (f >= 0.0) & (c < seenl)
            if better.any():
                seenl[better] = c[better]
                remember(idx[better], zl[better], c[better])
            gap = np.maximum(0.0, margin - f)
            grad = model.input_gradient(zl)
            if fixed.size:
                grad[:, fixed] = 0.0
            # an overflow or NaN here fails the bound check
            with np.errstate(over="ignore", invalid="ignore"):
                g = (lam * (-2.0 * gap))[:, None] * grad
                g += sub
                if not np.abs(g).max() <= _G_MAX:
                    raise SearchError("non-finite search gradient")
            # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g
            m_adam *= _ADAM_BETA1
            m_adam += np.multiply(g, 1 - _ADAM_BETA1, out=work)
            v_adam *= _ADAM_BETA2
            np.multiply(g, 1 - _ADAM_BETA2, out=work)
            v_adam += np.multiply(work, g, out=work)
            # step = step_size * (m / bias1) / (sqrt(v / bias2) + eps)
            np.sqrt(np.divide(v_adam, bias2[t], out=work), out=work)
            work += _ADAM_EPS
            np.divide(m_adam, bias1[t], out=step)
            step *= step_size
            step /= work
            zl -= step
            # a running max over columns: exact, and far cheaper than a row reduction
            frozen = functools.reduce(np.maximum, np.abs(step, out=work).T) < p["tolerance"]
            if frozen.any():
                z[idx[frozen]] = zl[frozen]
                iters[idx[frozen]] += t + 1
                keep = np.flatnonzero(~frozen)
                idx, zl, Xl, seenl, m_adam, v_adam = (
                    a.take(keep, axis=0) for a in (idx, zl, Xl, seenl, m_adam, v_adam))
                step, work = np.empty_like(zl), np.empty_like(zl)
        z[idx] = zl
        iters[idx] += p["inner_iters"]  # rows still live ran every step
        za = z[active]
        f, c = model.decision_values(za), cost.pairwise(za, X[active])
        better = (f >= 0.0) & (c < seen_cost[active])
        remember(active[better], za[better], c[better])

        # converged iterate first, cheapest valid iterate as the fallback
        accept(active, _snap_to_schema(schema, za))
        rows = active[~done[active] & (seen_cost[active] < np.inf)]
        if rows.size:
            accept(rows, _snap_to_schema(schema, seen_z[rows]))
        lam *= p["lambda_growth"]

    return [point if ok else None for point, ok in zip(final, done)], iters


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
    """Empirical values at the requested percentiles (nearest-rank,
    deduplicated), in ascending order; none for an empty column.

    Sorting the few values and keeping each that differs from the one before
    it gives np.unique's array, and np.unique would load numpy.ma."""
    if not column.size:
        return column
    vals = np.sort(np.percentile(column, list(percentiles), method="nearest"))
    return vals[np.concatenate(([True], vals[1:] != vals[:-1]))]


def _walk_batch(model, data, rows, cost, p, seed, scm):
    """_markov_batch from the origins data.X[rows]. Each walker's u comes from
    one stream over the data's rows, taken at its row, so a walk does not
    depend on which other rows share its batch."""
    u = 1.0 - np.random.default_rng(derive_seed(seed, "markov")).random(data.n)[rows]
    return _markov_batch(model, data.X[rows], p["step"], p["rho"], u, p["max_steps"])


@dataclass(frozen=True)
class ScmVariable:
    """One structural equation: value = sum(coeff * parent) + noise."""

    name: str
    parents: tuple[tuple[int, float], ...] = ()
    intervenable: bool = True

    def __post_init__(self):
        object.__setattr__(self, "parents", tuple((int(i), float(c)) for i, c in self.parents))
        for i, c in self.parents:
            if not math.isfinite(c):
                raise ValueError(
                    f"variable {self.name!r}: coefficient of parent {i} must be finite, got {c}")


@dataclass(frozen=True)
class Scm:
    """Linear structural model over topologically ordered variables."""

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

    def propagate(self, X, values, mask) -> np.ndarray:
        """Intervention row k (values[k] where mask[k] holds) applied to origin
        X[k]. Each other variable is its abducted noise X[k, i] - sum(coeff *
        X[k, parent]) plus its sum(coeff * parent) on the new row. Each sum
        runs in the parents' listed order from Python's int 0 (as from a zero
        array: 0 + -0.0 is 0.0), so no row's bits depend on another row."""
        X = np.asarray(X, dtype=float)
        out = np.empty(np.shape(values))
        for i, var in enumerate(self.variables):
            noise = X[:, i] - sum(coeff * X[:, parent] for parent, coeff in var.parents)
            total = sum(coeff * out[:, parent] for parent, coeff in var.parents)
            out[:, i] = np.where(mask[:, i], values[:, i], noise + total)
        return out


def default_chain_scm(names=("x0", "x1", "x2")) -> Scm:
    """Three-variable chain x0 -> x1 -> x2 with coefficients 0.8 and 0.5."""
    if len(names) != 3:
        raise ValueError("default chain is defined for exactly 3 variables")
    return Scm((
        ScmVariable(names[0]),
        ScmVariable(names[1], parents=((0, 0.8),)),
        ScmVariable(names[2], parents=((1, 0.5),)),
    ))


def _intervention_targets(scm: Scm, schema: FeatureSchema) -> tuple[int, ...]:
    """The variables a causal search may set: intervenable in `scm` and actionable in `schema`."""
    return tuple(
        i for i, (var, f) in enumerate(zip(scm.variables, schema.features))
        if var.intervenable and f.actionable
    )


def _causal_scm(scm: Scm | None, schema: FeatureSchema) -> Scm:
    """The SCM a causal search over `schema` uses: `scm`, or the default chain
    when it is None. Raises, naming `scm`, unless it has one variable per
    feature and at least one of them both intervenable and actionable."""
    if scm is None:
        if schema.n_features != 3:
            raise ValueError(
                f"scm: no scm given and the default causal chain needs 3 features, "
                f"got {schema.n_features}"
            )
        scm = default_chain_scm(schema.names)
    elif scm.n_variables != schema.n_features:
        raise SchemaMismatchError(
            f"scm: has {scm.n_variables} variables but the schema has "
            f"{schema.n_features} features"
        )
    if not _intervention_targets(scm, schema):
        raise ValueError("scm: has no variable that is both intervenable and actionable")
    return scm


def _intervention_rows(scm: Scm, schema: FeatureSchema, data: Dataset, percentiles,
                       max_intervened: int):
    """Every grid intervention on 1..max_intervened of the variables that
    `_intervention_targets` names, as (values, mask) rows, in order of size,
    then variables, then grid values."""
    targets = _intervention_targets(scm, schema)
    grids = {j: _percentile_grid(data.X[:, j], percentiles) for j in targets}
    combos = [list(combo) for r in range(1, max_intervened + 1)
              for combo in itertools.combinations(targets, r)]
    sizes = [math.prod(len(grids[j]) for j in combo) for combo in combos]
    values = np.zeros((sum(sizes), scm.n_variables))
    mask = np.zeros(values.shape, dtype=bool)
    start = 0
    for combo, size in zip(combos, sizes):
        # a combination's rows are the product of its grids, the last variable's fastest
        rows = slice(start, start + size)
        for j, column in zip(combo, np.meshgrid(*(grids[j] for j in combo), indexing="ij")):
            values[rows, j] = column.ravel()
        mask[rows, combo] = True
        start += size
    return values, mask


def _kept_candidate(costs: np.ndarray, best_cost: float = np.inf) -> int | None:
    """The index that a scan of costs in order keeps when a later cost
    replaces the kept one only if it is lower by more than 1e-12, starting
    from a kept cost of best_cost; None if no cost replaces it.

    Each step jumps straight to the next replacement. This is not an argmin
    with a tolerance: costs 1, 1 - 0.6e-12, 1 - 1.2e-12 keep index 2.
    """
    best, start = None, 0
    while start < len(costs):
        cheaper = costs[start:] < best_cost - 1e-12
        j = int(cheaper.argmax())
        if not cheaper[j]:
            break
        best = start + j
        best_cost, start = costs[best], best + 1
    return best


# the most candidate rows one enumeration call scores: a bound on its memory
_CAUSAL_BLOCK_ROWS = 1024


def _enumerate(model, X, values, mask, cost, scm):
    """The cheapest candidate the model accepts from each origin X[k]: every
    intervention row (values, mask) that changes X[k], propagated by `scm` and
    costed against the full propagated point. Returns (point or None per
    origin, iterations array); an origin's iterations are its candidate count,
    and ties within 1e-12 go to its earliest accepted candidate.

    Blocks of origins with at most _CAUSAL_BLOCK_ROWS candidates, listed origin
    by origin, share one propagation, model call and cost call. A block with
    more, which is one origin, is scored in chunks of at most
    _CAUSAL_BLOCK_ROWS interventions, and its kept cost carries from chunk to
    chunk."""
    points, iters = [None] * len(X), np.zeros(len(X), dtype=int)
    size = max(1, _CAUSAL_BLOCK_ROWS // max(1, len(values)))
    for start in range(0, len(X), size):
        block = X[start:start + size]
        kept_cost = np.full(len(block), np.inf)
        for lo in range(0, len(values), _CAUSAL_BLOCK_ROWS):
            chunk = slice(lo, lo + _CAUSAL_BLOCK_ROWS)
            # a component that sets a variable to its current value is covered by a smaller combo
            keep = ~np.any(mask[chunk] & (values[chunk] == block[:, None]), axis=2)
            iters[start:start + len(block)] += keep.sum(axis=1)
            origin, action = np.nonzero(keep)
            if not origin.size:
                continue
            base = block[origin]
            candidates = scm.propagate(base, values[chunk][action], mask[chunk][action])
            accepted = model.decision_values(candidates) >= 0.0
            costs = cost.pairwise(base, candidates)
            for k in range(origin[0], origin[-1] + 1):
                ok = np.flatnonzero(accepted & (origin == k))
                best = _kept_candidate(costs[ok], kept_cost[k])
                if best is not None:
                    kept_cost[k] = costs[ok[best]]
                    # a copy, so the point does not keep the chunk's candidates alive
                    points[start + k] = candidates[ok[best]].copy()
    return points, iters


def _causal_batch(model, data, rows, cost, p, seed, scm):
    """_enumerate's cheapest grid intervention on at most max_intervened
    variables from each origin data.X[rows]. Grids (the data's empirical
    percentiles) and intervention rows are built once; the default chain
    stands in for a missing scm."""
    scm = _causal_scm(scm, model.schema)
    values, mask = _intervention_rows(scm, model.schema, data, p["grid_percentiles"],
                                      p["max_intervened"])
    return _enumerate(model, data.X[rows], values, mask, cost, scm)


def _ar_batch(model, data, rows, cost, p, seed, scm):
    """Cheapest grid action on at most max_changed_features actionable features
    from each origin data.X[rows]: _enumerate over an SCM with no parents, whose
    propagation only writes the action. A nonlinear model is searched one
    origin at a time against a local linear surrogate (seeded per row); a
    failed fit finds nothing."""
    schema = model.schema
    if not schema.actionable_mask().any():
        raise ValueError("schema has no actionable features")
    scm = Scm(tuple(ScmVariable(name) for name in schema.names))
    values, mask = _intervention_rows(scm, schema, data, p["grid_percentiles"],
                                      p["max_changed_features"])
    X = data.X[rows]
    if model.is_linear:
        return _enumerate(model, X, values, mask, cost, scm)
    points, iters = [None] * len(rows), np.zeros(len(rows), dtype=int)
    for k, i in enumerate(rows):
        try:
            surrogate = fit_local_linear(model, X[k], p["n_samples"], p["kernel_width"],
                                         derive_seed(seed, "surrogate", int(i)))
        except SurrogateFitError:
            continue
        found, counts = _enumerate(surrogate, X[k:k + 1], values, mask, cost, scm)
        points[k], iters[k] = found[0], counts[0]
    return points, iters


# name -> (parameter defaults, batch kernel). A kernel takes
# (model, data, rows, cost, params, seed, scm) and returns one point or None
# per origin data.X[rows], plus an iterations array. ar and causal share the
# grid enumeration `_enumerate`; their iterations are candidate counts.
_METHODS = {
    "cfe": ({
        "lambda_init": 0.1,
        "lambda_growth": 10.0,
        "lambda_steps": 6,
        "inner_iters": 1000,
        "step_size": 0.01,
        "tolerance": 1e-6,
        "margin_target": 1e-4,
    }, _cfe_batch),
    "ar": ({
        "grid_percentiles": DECILE_PERCENTILES,
        "max_changed_features": 3,
        "n_samples": 1000,
        "kernel_width": 0.75,
    }, _ar_batch),
    "causal": ({
        "grid_percentiles": DECILE_PERCENTILES,
        "max_intervened": 2,
    }, _causal_batch),
    "markov": ({
        "step": 0.05,
        "rho": 1.0,
        "max_steps": 10_000,
    }, _walk_batch),
}
RECOURSE_METHODS = tuple(_METHODS)

_MAY_BE_ZERO = ("lambda_steps", "margin_target")


def method_params(method: str, params: dict | None = None) -> dict:
    """The method's defaults updated by `params`, each value checked.

    A value must have its default's type: an integer, a number (returned as a
    float), or a nonempty list of percentiles in [0, 100] (returned as a
    tuple). Numbers must be finite, integers at least 1 and other numbers
    positive; lambda_steps and margin_target may also be 0. Unknown names
    and bad values raise ValueError whose message starts with the argument
    it concerns: `method: ` or `params.<name>: `.
    """
    if method not in _METHODS:
        raise ValueError(f"method: unknown method {method!r}; expected one of {RECOURSE_METHODS}")
    defaults = _METHODS[method][0]
    merged = dict(defaults)
    for name, value in (params or {}).items():
        if name not in defaults:
            raise ValueError(f"params.{name}: unknown parameter for {method}")
        merged[name] = _checked_param(name, value, defaults[name])
    return merged


def _checked_param(name: str, value, default):
    if isinstance(default, tuple):
        if isinstance(value, (list, tuple)) and value and all(
            is_number(v) and 0 <= v <= 100 for v in value
        ):
            return tuple(value)
        raise ValueError(f"params.{name}: must be a nonempty list of numbers in [0, 100], got {value!r}")
    kind = numbers.Integral if isinstance(default, int) else numbers.Real
    if is_number(value, kind) and (value > 0 or (value == 0 and name in _MAY_BE_ZERO)):
        return type(default)(value)
    what = "an integer" if kind is numbers.Integral else "a number"
    raise ValueError(
        f"params.{name}: must be {what} {'>= 0' if name in _MAY_BE_ZERO else '> 0'}, got {value!r}"
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

    Successes land in the returned set's rows (input order); per-point
    failures are counted in not_found, never raised. Every proposal is
    re-checked against the true model, so surrogate-driven methods cannot leak
    invalid points into the set.
    """
    if not model.schema.compatible_with(data.schema):
        raise SchemaMismatchError("model and data schemas are incompatible")
    p = method_params(method, params)
    rows = np.flatnonzero(model.predict(data.X) == -1)
    points, iters = _METHODS[method][1](model, data, rows, cost, p, seed, scm)

    found = np.flatnonzero([point is not None for point in points])
    proposed = np.reshape([points[k] for k in found], (found.size, data.schema.n_features))
    # surrogates and snapping may propose points the true model rejects
    valid = model.predict(proposed) == 1
    found, proposed = found[valid], proposed[valid]
    origins = data.X[rows[found]]
    # the per-row cost: report.json pins its 1-D norm, which pairwise's differs from in the last bit
    costs = [cost(x, z) for x, z in zip(origins, proposed)]
    return RecourseSet(model, origins, proposed, costs, iters[found], len(points) - found.size)

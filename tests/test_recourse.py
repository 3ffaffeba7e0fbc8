import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

import recourse_lab as rl
from recourse_lab import recourse
from recourse_lab.dataset import _snap_to_schema
from recourse_lab.errors import DataValidationError, SchemaMismatchError, SearchError
from recourse_lab.models import _ADAM_BETA1 as _B1
from recourse_lab.models import _ADAM_BETA2 as _B2
from recourse_lab.recourse import (
    _METHODS,
    DECILE_PERCENTILES,
    _CAUSAL_BLOCK_ROWS,
    _ar_batch,
    _causal_batch,
    _cfe_batch,
    _enumerate,
    _intervention_rows,
    _kept_candidate,
    _percentile_grid,
    method_params,
)
from recourse_lab.theory import _markov_batch
from recourse_lab.util import derive_seed, row_norms


def schema2():
    return rl.synth_base(2, 0).schema


def depth(model, rec) -> float:
    """Signed distance of a record's recourse past a linear model's boundary."""
    w = model.weight_vector
    return float((w @ rec.recourse + model.bias) / float(np.linalg.norm(w)))


def search_one(model, x, method, params=None, seed=0, cost=rl.CostFn("L2"), grid_rows=()):
    """batch_recourse from x alone: the record for x, or None.

    AR takes its grids from the columns of the data, here x and `grid_rows`;
    those must be rows the model accepts, so that x is the only origin.
    """
    X = np.vstack([np.asarray(x, dtype=float), np.reshape(grid_rows, (-1, len(x)))])
    data = rl.Dataset(model.schema, X, model.predict(X))
    cf = rl.batch_recourse(model, data, method, cost, params=params, seed=seed)
    assert cf.size + cf.not_found == 1
    return cf.records[0] if cf.records else None


def sample_scm(scm, n, seed):
    """Draws of the structural equations with standard normal noises."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, scm.n_variables))
    for i, var in enumerate(scm.variables):
        X[:, i] = rng.standard_normal(n)
        for parent, coeff in var.parents:
            X[:, i] += coeff * X[:, parent]
    return X


@pytest.fixture(scope="module")
def mlp1500():
    data = rl.synth_base(1500, 4)
    return data, rl.train(rl.ModelSpec.mlp(epochs=20, seed=1), data)


@pytest.fixture(scope="module")
def readme_m1():
    """The README run's first training sample and its model."""
    d1 = rl.synth_shift(rl.ShiftSpec("target_shift", 0.0, 5000, 101))
    train, _ = rl.split(d1, 0.1, derive_seed(0, "d1-split"))
    spec = rl.ModelSpec.logistic(learning_rate=0.5, epochs=300, l2_penalty=1e-4, seed=1)
    return train, rl.train(spec, train)


def one_origin_block_calls(X, values, mask, block_rows):
    """The model calls _enumerate makes when each origin X[k] is a block of its
    own: one per chunk of block_rows interventions that keeps a candidate."""
    keep = ~np.any(mask & (values == X[:, None]), axis=2)
    return sum(int(keep[:, lo:lo + block_rows].any(axis=1).sum())
               for lo in range(0, len(values), block_rows))


def count_decision_calls(monkeypatch):
    """Patch TrainedModel.decision_values to log the rows of every call; return the log."""
    calls = []
    scores = rl.TrainedModel.decision_values

    def counting(self, X):
        calls.append(len(X))
        return scores(self, X)

    monkeypatch.setattr(rl.TrainedModel, "decision_values", counting)
    return calls


def propagate_one(scm, x, interventions):
    """Scm.propagate for a single {variable index: value} intervention on x."""
    values = np.zeros((1, scm.n_variables))
    mask = np.zeros((1, scm.n_variables), dtype=bool)
    for j, v in interventions.items():
        values[0, j], mask[0, j] = v, True
    return scm.propagate(np.asarray(x, dtype=float)[None], values, mask)[0]


def per_origin_propagate(scm, x, values, mask):
    """The causal search's propagation as it was before origins were batched:
    the noises abducted from the one origin x with Python sums, then every
    variable summed from a zero array in the parents' order."""
    u = np.zeros(scm.n_variables)
    for i, var in enumerate(scm.variables):
        u[i] = x[i] - sum(coeff * x[parent] for parent, coeff in var.parents)
    out = np.empty(np.shape(values))
    for i, var in enumerate(scm.variables):
        total = np.zeros(len(out))
        for parent, coeff in var.parents:
            total = total + coeff * out[:, parent]
        out[:, i] = np.where(mask[:, i], values[:, i], u[i] + total)
    return out


def reference_propagate(scm, x, interventions):
    """The structural equations evaluated one variable at a time (independent oracle)."""
    u = np.array([x[i] - sum(c * x[p] for p, c in var.parents) for i, var in enumerate(scm.variables)])
    out = np.zeros(scm.n_variables)
    for i, var in enumerate(scm.variables):
        if i in interventions:
            out[i] = interventions[i]
        else:
            out[i] = u[i] + sum(coeff * out[parent] for parent, coeff in var.parents)
    return out


def cost_gradient(cost, A, B):
    """Subgradient of cost(A_i, B_i) with respect to A_i, rowwise, as the
    masked kernel computed it."""
    diff = np.asarray(A, dtype=float) - np.asarray(B, dtype=float)
    if cost.norm == "L1":
        return np.sign(diff)
    norms = np.linalg.norm(diff, axis=1, keepdims=True)
    safe = np.where(norms > 1e-12, norms, 1.0)
    return np.where(norms > 1e-12, diff / safe, 0.0)


def masked_cfe_batch(model, data, rows, cost, p, seed, scm):
    """The CFE kernel as it was before stage compaction: every inner iteration
    gathers and scatters the live rows' state through a boolean mask."""
    X = data.X[rows]
    n, d = X.shape
    margin = p["margin_target"]
    lam = np.full(n, p["lambda_init"])
    z = X.copy()
    done = np.zeros(n, dtype=bool)
    final = [None] * n
    iters = np.zeros(n, dtype=int)
    seen_z = np.zeros_like(X)
    seen_cost = np.full(n, np.inf)
    has_seen = np.zeros(n, dtype=bool)

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
            grad_f = model.input_gradient(zl)
            gap = np.maximum(0.0, margin - f)
            g = lam[live, None] * (-2.0 * gap[:, None]) * grad_f + cost_gradient(cost, zl, X[live])
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
        accept(rows, _snap_to_schema(model.schema, z[rows]))
        rows = np.flatnonzero(active & ~done & has_seen)
        if rows.size:
            accept(rows, _snap_to_schema(model.schema, seen_z[rows]))
        lam[~done] *= p["lambda_growth"]

    return final, iters


def brute_force_ar(model, x, grids, cost, max_changed):
    """Least cost over every combination of grid actions from x on at most
    max_changed features, or inf when none is valid (independent oracle)."""
    points = []
    for r in range(max_changed + 1):
        for combo in itertools.combinations(grids, r):
            for values in itertools.product(*(grids[j] for j in combo)):
                point = x.copy()
                point[list(combo)] = values
                points.append(point)
    P = np.array(points)
    return min(cost.pairwise(P[model.predict(P) == 1], x), default=np.inf)


class TestCostFn:
    def test_norm_values(self):
        a, b = np.array([1.0, -1.0]), np.array([0.0, 1.0])
        assert rl.CostFn("L1")(a, b) == pytest.approx(3.0)
        assert rl.CostFn("L2")(a, b) == pytest.approx(np.sqrt(5.0))

    def test_unknown_norm(self):
        with pytest.raises(ValueError):
            rl.CostFn("L0")

    def test_row_norms_bit_equal_linalg_norm(self):
        # L2 costs and the walk's step direction use row_norms for np.linalg.norm;
        # below 8 columns it sums in its own order, from 8 on it calls add.reduce
        rng = np.random.default_rng(4)
        for d in range(1, 13):
            diff = rng.standard_normal((1001, d)) * 10.0 ** rng.uniform(-8, 8, (1001, d))
            assert np.array_equal(row_norms(diff), np.linalg.norm(diff, axis=1)), d

    @given(
        st.lists(st.floats(-50, 50).map(lambda v: round(v, 6)), min_size=3, max_size=3),
        st.lists(st.floats(-50, 50).map(lambda v: round(v, 6)), min_size=3, max_size=3),
    )
    @settings(max_examples=50, deadline=None)
    def test_metric_properties(self, a, b):
        a, b = np.array(a), np.array(b)
        for fn in (rl.CostFn("L1"), rl.CostFn("L2")):
            assert fn(a, a) == 0.0
            assert fn(a, b) == pytest.approx(fn(b, a))
            if not np.array_equal(a, b):
                assert fn(a, b) > 0.0


class TestCfeSearch:
    def test_projection_oracle_on_linear_model(self):
        # minimal L2 recourse is the orthogonal projection onto the boundary
        m = rl.linear_model([1.0, 0.0], 0.0, schema2())
        rec = search_one(m, [-2.0, 0.0], "cfe")
        assert rec is not None
        assert rec.cost == pytest.approx(2.0, abs=0.05)
        assert 0.0 <= rec.recourse[0] <= 0.05
        assert abs(rec.recourse[1]) <= 0.05
        assert m.predict(rec.recourse) == 1

    def test_constant_negative_model_not_found(self):
        m = rl.linear_model([0.0, 0.0], -1.0, schema2())
        assert search_one(m, np.zeros(2), "cfe") is None

    def test_ordinal_rounding_revalidated(self):
        schema = rl.FeatureSchema(
            (rl.FeatureSpec("o", kind="ordinal", lower=0, upper=10),
             rl.FeatureSpec("c")),
        )
        m = rl.linear_model([1.0, 0.0], -2.5, schema, kind="logistic_regression")
        rec = search_one(m, [0.0, 0.0], "cfe")
        assert rec is not None
        assert rec.recourse[0] == np.round(rec.recourse[0])
        assert m.predict(rec.recourse) == 1

    def test_bounds_clamped(self):
        schema = rl.FeatureSchema(
            (rl.FeatureSpec("a", lower=-1.0, upper=1.0),
             rl.FeatureSpec("b", lower=-1.0, upper=1.0)),
        )
        m = rl.linear_model([1.0, 1.0], -0.5, schema)
        rec = search_one(m, [-0.5, -0.5], "cfe")
        assert rec is not None
        assert np.all(rec.recourse <= 1.0) and np.all(rec.recourse >= -1.0)

    def test_unknown_parameter_rejected(self):
        m = rl.linear_model([1.0, 0.0], 0.0, schema2())
        with pytest.raises(ValueError, match="momentum"):
            search_one(m, [-1.0, 0.0], "cfe", params={"momentum": 0.9})

    def test_near_optimality_sample(self, logistic10k, synth10k):
        w, b = logistic10k.weight_vector, logistic10k.bias
        norm = np.linalg.norm(w)
        neg = synth10k.X[logistic10k.predict(synth10k.X) == -1][:200]
        cf = rl.batch_recourse(logistic10k, rl.Dataset(synth10k.schema, neg, np.full(len(neg), -1)),
                               "cfe", rl.CostFn("L2"))
        proj = np.abs(neg @ w + b) / norm
        ratio = cf.costs / proj
        assert np.mean(ratio <= 1.10) >= 0.95

    def test_stationary_point_on_readme_config(self, readme_m1):
        # Wachter et al. 2017: on a linear model with L2 cost the penalized
        # objective lam * (margin - f)^2 + ||z - x|| has its optimum on the line
        # along w from x, where f = margin - 1 / (2 * lam * ||w||). The README
        # run accepts at lam = 1; the cheapest-valid-iterate fallback keeps a
        # few points off the optimum (0.0193 at most when measured).
        train, m1 = readme_m1
        margin, lam = 0.2, 1.0
        cf = rl.batch_recourse(m1, train, "cfe", rl.CostFn("L2"),
                               params={"margin_target": margin}, seed=2)
        w, norm = m1.weight_vector, np.linalg.norm(m1.weight_vector)
        origins = cf.origins
        f_opt = margin - 1.0 / (2.0 * lam * norm)
        along = (f_opt - m1.decision_values(origins)) / norm
        optimum = origins + along[:, None] * (w / norm)
        dist = np.linalg.norm(cf.points - optimum, axis=1)
        assert cf.size == 2325
        assert dist.max() <= 0.03
        assert np.median(dist) <= 1e-3

    def test_depths_sit_at_boundary(self):
        # Every CFE recourse ends just past the boundary whatever its origin, which
        # is why acceptance criterion 5 cannot use CFE: parallel updates invalidate
        # by depth alone. 0.02 is about two Adam steps of 0.01 per coordinate in 2-D.
        data = rl.synth_base(2000, 300)
        model = rl.train(rl.ModelSpec.logistic(seed=0), data)
        cf = rl.batch_recourse(model, data, "cfe", rl.CostFn("L2"))
        depths = np.array([depth(model, r) for r in cf.records])
        assert cf.size > 0
        assert np.all((depths >= 0.0) & (depths <= 0.02))


class TestCfeCompaction:
    """The compacted kernel equals the masked one bit for bit: same points, same iterations."""

    def assert_same_search(self, model, data, rows, cost, p=None):
        p = method_params("cfe", p)
        points, iters = _cfe_batch(model, data, rows, cost, p, 0, None)
        ref_points, ref_iters = masked_cfe_batch(model, data, rows, cost, p, 0, None)
        assert np.array_equal(iters, ref_iters)
        assert [pt is None for pt in points] == [pt is None for pt in ref_points]
        assert all(pt is None or np.array_equal(pt, ref) for pt, ref in zip(points, ref_points))
        return points

    @pytest.mark.parametrize("norm", ["L1", "L2"])
    @pytest.mark.parametrize("kind", ["logistic_regression", "linear_svm", "mlp"])
    def test_matches_masked_loop(self, kind, norm, mlp1500):
        if kind == "mlp":
            data, model = mlp1500
        else:
            data = rl.synth_base(1000, 7)
            spec = rl.ModelSpec.logistic(epochs=100) if kind == "logistic_regression" \
                else rl.ModelSpec.svm(epochs=100)
            model = rl.train(spec, data)
        rows = np.flatnonzero(model.predict(data.X) == -1)[:60]
        points = self.assert_same_search(model, data, rows, rl.CostFn(norm))
        assert any(pt is not None for pt in points)

    def test_rows_accepting_at_different_stages(self):
        # a few rows accept at the first penalty weight, the rest only after it grows
        data = rl.synth_base(1000, 7)
        model = rl.train(rl.ModelSpec.logistic(epochs=100), data)
        rows = np.flatnonzero(model.predict(data.X) == -1)[:150]
        cost = rl.CostFn("L2")
        points = self.assert_same_search(model, data, rows, cost, {"margin_target": 0.2})
        first, _ = _cfe_batch(model, data, rows, cost,
                              method_params("cfe", {"margin_target": 0.2, "lambda_steps": 0}),
                              0, None)
        accepted_first = sum(pt is not None for pt in first)
        assert 0 < accepted_first < sum(pt is not None for pt in points)

    @pytest.mark.parametrize("norm", ["L1", "L2"])
    def test_nine_feature_linear_model(self, norm):
        # row norms over 9 columns sum in blocks, not one column at a time
        schema = rl.FeatureSchema(tuple(rl.FeatureSpec(f"x{j}") for j in range(9)))
        rng = np.random.default_rng(11)
        X = rng.standard_normal((300, 9))
        model = rl.linear_model(rng.uniform(-1.0, 1.0, 9), -1.0, schema)
        data = rl.Dataset(schema, X, model.predict(X))
        rows = np.flatnonzero(data.y == -1)[:60]
        points = self.assert_same_search(model, data, rows, rl.CostFn(norm))
        assert any(pt is not None for pt in points)

    def test_readme_config(self, readme_m1):
        train, m1 = readme_m1
        rows = np.flatnonzero(m1.predict(train.X) == -1)[:300]
        points = self.assert_same_search(m1, train, rows, rl.CostFn("L2"), {"margin_target": 0.2})
        assert sum(pt is not None for pt in points) == 300

    def test_ordinal_and_binary_schema(self):
        schema = rl.FeatureSchema((
            rl.FeatureSpec("level", kind="ordinal", lower=0, upper=10),
            rl.FeatureSpec("flag", kind="binary"),
            rl.FeatureSpec("score", lower=-3.0, upper=3.0),
        ))
        rng = np.random.default_rng(5)
        X = np.column_stack([
            rng.integers(0, 11, 200), rng.integers(0, 2, 200), rng.uniform(-3.0, 3.0, 200),
        ]).astype(float)
        model = rl.linear_model([0.4, 1.0, 0.5], -3.0, schema)
        data = rl.Dataset(schema, X, model.predict(X))
        rows = np.flatnonzero(data.y == -1)[:40]
        for norm in ("L1", "L2"):
            points = self.assert_same_search(model, data, rows, rl.CostFn(norm),
                                             {"inner_iters": 300})
            assert any(pt is not None for pt in points)


class TestLocalLinearSurrogate:
    def test_recovers_linear_target(self):
        m = rl.linear_model([1.0, 1.0], 0.25, schema2())
        surr = rl.fit_local_linear(m, np.array([0.3, -0.2]), seed=1)
        w = surr.weight_vector
        cosine = w @ np.array([1.0, 1.0]) / (np.linalg.norm(w) * np.sqrt(2.0))
        assert cosine >= 0.99

    def test_flat_target_gives_zero_weights(self):
        m = rl.linear_model([0.0, 0.0], 0.7, schema2())
        surr = rl.fit_local_linear(m, np.zeros(2), seed=2)
        assert np.all(np.abs(surr.weight_vector) <= 1e-6)
        assert surr.bias == pytest.approx(0.7, abs=1e-6)

    def test_deterministic(self):
        data = rl.synth_base(2000, 3)
        m = rl.train(rl.ModelSpec.mlp(epochs=10, seed=1), data)
        a = rl.fit_local_linear(m, np.array([0.5, 0.5]), seed=9)
        b = rl.fit_local_linear(m, np.array([0.5, 0.5]), seed=9)
        assert np.array_equal(a.weight_vector, b.weight_vector) and a.bias == b.bias

    def test_sample_count_precondition(self):
        m = rl.linear_model([1.0, 0.0], 0.0, schema2())
        with pytest.raises(ValueError):
            rl.fit_local_linear(m, np.zeros(2), n_samples=5)

    def test_degenerate_design_rejected(self):
        from recourse_lab.errors import SurrogateFitError

        m = rl.linear_model([1.0, 0.0], 0.0, schema2())
        # a vanishing kernel width collapses every perturbation onto the query,
        # leaving a rank-deficient design
        with pytest.raises(SurrogateFitError):
            rl.fit_local_linear(m, np.array([1.0, 2.0]), kernel_width=1e-150, seed=0)


class TestArSearch:
    def test_fixed_grid_example(self):
        # grid {-1, 0, 0.25, 0.75, 1.5} for feature a; a = 0.25 is cheaper but
        # rejected, so the cheapest valid action is a = 0.75 (a = 0 is no action)
        schema = rl.FeatureSchema(
            (rl.FeatureSpec("a"), rl.FeatureSpec("b", actionable=False)),
        )
        m = rl.linear_model([1.0, 1.0], -0.5, schema)
        rows = np.column_stack([[-1.0, 0.25, 0.75, 1.5], np.full(4, 10.0)])
        rec = search_one(m, np.zeros(2), "ar", {"grid_percentiles": [0, 25, 50, 75, 100]},
                         cost=rl.CostFn("L1"), grid_rows=rows)
        assert rec is not None
        assert rec.cost == pytest.approx(0.75)
        assert rec.recourse[0] == 0.75 and rec.recourse[1] == 0.0

    def test_no_actionable_features_rejected(self):
        schema = rl.FeatureSchema(
            (rl.FeatureSpec("a", actionable=False), rl.FeatureSpec("b", actionable=False)),
        )
        m = rl.linear_model([1.0, 1.0], -5.0, schema)
        with pytest.raises(ValueError):
            search_one(m, np.zeros(2), "ar", cost=rl.CostFn("L1"))

    def test_not_found_when_grid_insufficient(self):
        m = rl.linear_model([1.0, 1.0], -100.0, schema2())
        data = rl.synth_base(200, 1)
        cf = rl.batch_recourse(m, data, "ar", rl.CostFn("L1"))
        assert cf.size == 0 and cf.not_found == data.n

    @pytest.mark.parametrize("norm", ["L1", "L2"])
    def test_matches_exhaustive_oracle(self, norm):
        rng = np.random.default_rng(17)
        cost = rl.CostFn(norm)
        solvable = 0
        for d, max_changed in itertools.product((2, 3, 4), (1, 2, 3)):
            schema = rl.FeatureSchema(tuple(rl.FeatureSpec(f"f{j}") for j in range(d)))
            m = rl.linear_model(rng.standard_normal(d), rng.standard_normal() - 0.5, schema)
            X = rng.standard_normal((60, d))
            data = rl.Dataset(schema, X, m.predict(X))
            cf = rl.batch_recourse(m, data, "ar", cost, params={"max_changed_features": max_changed})
            records = {r.origin.tobytes(): r for r in cf.records}
            grids = {j: _percentile_grid(X[:, j], DECILE_PERCENTILES) for j in range(d)}
            for x in X[m.predict(X) == -1]:
                best = brute_force_ar(m, x, grids, cost, max_changed)
                rec = records.pop(x.tobytes(), None)
                if best == np.inf:
                    assert rec is None
                    continue
                solvable += 1
                assert abs(rec.cost - best) <= 1e-12
                assert rec.iterations == count_changing_actions(grids, x, max_changed)
            assert records == {}
        assert solvable >= 100

    @pytest.mark.parametrize("norm", ["L1", "L2"])
    def test_matches_exhaustive_oracle_on_ordinal_ties(self, norm):
        # equal weights on integer grids: many origins have several cheapest points
        schema = rl.FeatureSchema(tuple(
            rl.FeatureSpec(f"o{j}", kind="ordinal", lower=0, upper=10) for j in range(3)))
        X = np.random.default_rng(23).integers(0, 11, (500, 3)).astype(float)
        m = rl.linear_model([1.0, 1.0, 1.0], -20.0, schema)
        data = rl.Dataset(schema, X, m.predict(X))
        cost = rl.CostFn(norm)
        cf = rl.batch_recourse(m, data, "ar", cost)
        assert cf.size == int(np.sum(data.y == -1)) > 300
        grids = {j: _percentile_grid(X[:, j], DECILE_PERCENTILES) for j in range(3)}
        for rec in cf.records:
            assert rec.cost == brute_force_ar(m, rec.origin, grids, cost, 3)
            assert rec.iterations == count_changing_actions(grids, rec.origin, 3)

    @pytest.mark.parametrize("norm", ["L1", "L2"])
    def test_never_proposes_the_origin(self, chain_models, norm):
        # a surrogate may accept an origin that the MLP rejects; no candidate is the origin
        data, fits = chain_models
        model = fits["mlp"]
        rows = np.flatnonzero(model.predict(data.X) == -1)
        points, _ = _ar_batch(model, data, rows, rl.CostFn(norm), method_params("ar"), 0, None)
        assert sum(pt is not None for pt in points) > 200
        assert not any(pt is not None and np.array_equal(pt, data.X[i])
                       for pt, i in zip(points, rows))


def count_changing_actions(grids, x, max_changed):
    """The grid combinations on 1..max_changed features whose every action changes x."""
    actions = [int(np.sum(grid != x[j])) for j, grid in grids.items()]
    return sum(math.prod(combo) for r in range(1, max_changed + 1)
               for combo in itertools.combinations(actions, r))


class TestMarkovSearch:
    def test_immediate_stop_at_unit_rate(self):
        # rho * step = 1: the walk halts at the first valid point
        m = rl.linear_model([1.0, 0.0], 0.0, schema2())
        rec = search_one(m, [-2.3, 0.0], "markov", {"step": 1.0, "rho": 1.0}, seed=4)
        assert rec is not None
        assert 0.0 <= depth(m, rec) <= 1.0

    def test_deterministic_per_seed(self):
        m = rl.linear_model([1.0, 1.0], -0.5, schema2())
        a = search_one(m, [-1.0, -1.0], "markov", {"step": 0.05, "rho": 0.5}, seed=11)
        b = search_one(m, [-1.0, -1.0], "markov", {"step": 0.05, "rho": 0.5}, seed=11)
        assert np.array_equal(a.recourse, b.recourse)
        assert a.iterations == b.iterations

    def test_mean_depth_matches_exponential(self, logistic10k, synth10k):
        # Monte-Carlo oracle: stop rate 2 per unit distance gives mean depth 1/2
        neg = synth10k.X[logistic10k.predict(synth10k.X) == -1][:5000]
        data = rl.Dataset(synth10k.schema, neg, np.full(len(neg), -1))
        cf = rl.batch_recourse(logistic10k, data, "markov", rl.CostFn("L2"),
                               params={"step": 0.01, "rho": 2.0}, seed=5)
        depths = np.array([depth(logistic10k, r) for r in cf.records])
        assert abs(depths.mean() - 0.5) <= 0.025

    @pytest.mark.parametrize("step, rho", [(0.05, 1.0), (0.01, 4.0)])
    def test_crossed_depth_law(self, logistic10k, synth10k, step, rho):
        # On a linear model a walker first crosses at step * U past the boundary,
        # U ~ Uniform(0, 1), then takes K ~ Geometric(rho * step) failures more
        # steps of length step along the normal before it stops.
        neg = synth10k.X[logistic10k.predict(synth10k.X) == -1]
        data = rl.Dataset(synth10k.schema, neg, np.full(len(neg), -1))
        cf = rl.batch_recourse(logistic10k, data, "markov", rl.CostFn("L2"),
                               params={"step": step, "rho": rho}, seed=13)
        depths = np.array([depth(logistic10k, r) for r in cf.records])

        def law(rate):
            rng = np.random.default_rng(21)
            n = 20_000
            return step * rng.uniform(size=n) + step * (rng.geometric(rate * step, size=n) - 1)

        assert cf.size == len(neg)
        assert ks_2samp(depths, law(rho)).pvalue > 0.01
        # control: a stop rate 25% higher is told apart at the same alpha
        assert ks_2samp(depths, law(1.25 * rho)).pvalue < 0.01

    def test_settle_on_the_model_stops_at_first_crossing(self, logistic10k, synth10k):
        # settle_at=0 retires each walker where it first crosses, which is where
        # a stop probability of one (rho * step = 2) halts it
        X = synth10k.X[logistic10k.predict(synth10k.X) == -1][:400]
        step, u = 0.05, 1.0 - np.random.default_rng(9).random(400)
        settled, settled_iters = _markov_batch(logistic10k, X, step, 0.01, u, 5000,
                                               settle_at=0.0)
        first, first_iters = _markov_batch(logistic10k, X, step, 2.0 / step, u, 5000)
        assert np.array_equal(settled_iters, first_iters)
        assert all(a is not None and np.array_equal(a, b) for a, b in zip(settled, first))

    def test_budget_exhaustion_returns_none(self):
        m = rl.linear_model([1.0, 0.0], -100.0, schema2())
        assert search_one(m, np.zeros(2), "markov", {"step": 0.01, "max_steps": 10}) is None

    def test_validity_of_result(self):
        m = rl.linear_model([1.0, 2.0], -1.0, schema2())
        rec = search_one(m, [-3.0, 0.0], "markov", {"step": 0.05, "rho": 0.8}, seed=7)
        assert m.predict(rec.recourse) == 1

    def test_mlp_walk_finds_a_valid_point(self, mlp1500):
        data, mlp = mlp1500
        neg = data.X[mlp.predict(data.X) == -1][0]
        rec = search_one(mlp, neg, "markov", {"step": 0.05, "rho": 1.0}, seed=3)
        assert rec is not None
        assert mlp.predict(rec.recourse) == 1

    def test_zero_weight_model_finds_nothing(self):
        # a flat decision value gives no direction to climb, so no walker takes a step
        m = rl.linear_model([0.0, 0.0], -1.0, schema2())
        X = np.random.default_rng(6).standard_normal((20, 2))
        finals, iters = _markov_batch(m, X, 0.05, 1.0, np.ones(20), 100)
        assert all(point is None for point in finals)
        assert np.array_equal(iters, np.zeros(20, dtype=int))
        assert search_one(m, X[0], "markov") is None

    def test_parameter_validation(self):
        m = rl.linear_model([1.0, 0.0], 0.0, schema2())
        with pytest.raises(ValueError, match="step"):
            search_one(m, [-1.0, 0.0], "markov", {"step": 0.0, "rho": 1.0})
        with pytest.raises(ValueError, match="rho"):
            search_one(m, [-1.0, 0.0], "markov", {"step": 0.1, "rho": -1.0})


class TestScm:
    def chain(self):
        return rl.default_chain_scm()

    def test_abduction_and_propagation(self):
        # two-variable fragment: x1 = 0.5 * x0 + u1, abducted u1 = 0.2
        scm = rl.Scm((
            rl.ScmVariable("x1"),
            rl.ScmVariable("x2", parents=((0, 0.5),)),
        ))
        x = np.array([-1.0, -0.3])           # u2 = -0.3 - 0.5*(-1) = 0.2
        # setting x1 to 0 leaves x2 at its abducted noise
        assert propagate_one(scm, x, {0: 0.0})[1] == pytest.approx(0.2)
        out = propagate_one(scm, x, {0: 1.0})
        assert out[0] == 1.0
        assert out[1] == pytest.approx(0.7)  # 0.5 * 1 + 0.2

    def test_sink_intervention_leaves_upstream(self):
        scm = rl.Scm((
            rl.ScmVariable("x1"),
            rl.ScmVariable("x2", parents=((0, 0.5),)),
        ))
        x = np.array([0.4, 1.0])
        out = propagate_one(scm, x, {1: 5.0})
        assert out[0] == 0.4 and out[1] == 5.0

    def test_ancestors_never_change(self):
        scm = self.chain()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal(3)
            out = propagate_one(scm, x, {1: float(rng.standard_normal())})
            assert out[0] == x[0]

    def test_forward_reference_rejected(self):
        with pytest.raises(ValueError):
            rl.Scm((rl.ScmVariable("a", parents=((1, 0.5),)), rl.ScmVariable("b")))

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, coeff):
        with pytest.raises(ValueError, match="variable 'x1': coefficient of parent 0 must be finite"):
            rl.ScmVariable("x1", parents=((0, coeff),))

    def test_propagate_matches_structural_equations(self):
        # random DAGs with up to three parents per variable; one-row and batch calls alike
        rng = np.random.default_rng(31)
        for _ in range(40):
            d = int(rng.integers(2, 7))
            scm = rl.Scm(tuple(
                rl.ScmVariable(f"v{i}", parents=tuple(
                    (int(p), float(rng.normal())) for p in
                    rng.choice(i, size=min(i, int(rng.integers(0, 4))), replace=False)
                ))
                for i in range(d)
            ))
            x = rng.normal(size=d)
            rows = [
                {int(j): float(rng.normal()) for j in rng.choice(d, size=int(rng.integers(0, d + 1)),
                                                                 replace=False)}
                for _ in range(8)
            ]
            values = np.zeros((len(rows), d))
            mask = np.zeros((len(rows), d), dtype=bool)
            for k, iv in enumerate(rows):
                for j, v in iv.items():
                    values[k, j], mask[k, j] = v, True
            batch = scm.propagate(np.repeat(x[None], len(rows), axis=0), values, mask)
            for k, iv in enumerate(rows):
                expected = reference_propagate(scm, x, iv)
                assert np.array_equal(propagate_one(scm, x, iv), expected)
                assert np.array_equal(batch[k], expected)


    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mixed_origins_match_one_origin_calls(self, data):
        # small chains with up to three extra parents, so that the order of a
        # sum shows in its bits; origins, grid values and coefficients are
        # +-0.0, +-1e16 or in [-10, 10], and some grid values equal the origin's
        pool = st.one_of(st.sampled_from([-0.0, 0.0, 1e16, -1e16]), st.floats(-10.0, 10.0))
        d = data.draw(st.integers(2, 6))
        scm = rl.Scm(tuple(
            rl.ScmVariable(f"v{i}", parents=tuple(
                (p, data.draw(pool)) for p in sorted(
                    {i - 1, *data.draw(st.lists(st.integers(0, i - 1), max_size=3))})
            ) if i else ())
            for i in range(d)
        ))
        origins = np.array(data.draw(st.lists(st.lists(pool, min_size=d, max_size=d),
                                              min_size=1, max_size=4)))
        n = data.draw(st.integers(1, 12))
        origin = np.array(data.draw(st.lists(st.integers(0, len(origins) - 1),
                                             min_size=n, max_size=n)))
        mask = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=d, max_size=d),
                                           min_size=n, max_size=n)))
        values = np.array([[origins[o, j] if data.draw(st.booleans()) else data.draw(pool)
                            for j in range(d)] for o in origin])
        batch = scm.propagate(origins[origin], values, mask)
        for k, o in enumerate(origin):
            one = scm.propagate(origins[[o]], values[[k]], mask[[k]])[0]
            # bytes, so that -0.0 and 0.0 differ
            assert batch[k].tobytes() == one.tobytes()
            old = per_origin_propagate(scm, origins[o], values[[k]], mask[[k]])[0]
            assert batch[k].tobytes() == old.tobytes()


def causal_by_origin(model, data, scm):
    """Causal records of batch_recourse over all of data, keyed by origin bytes."""
    cf = rl.batch_recourse(model, data, "causal", rl.CostFn("L2"), scm=scm)
    return {r.origin.tobytes(): r for r in cf.records}


# costs within and just past the 1e-12 tie margin of each other
TIE_COSTS = [1.0, 1.0 - 0.6e-12, 1.0 - 1.2e-12, 1.0 - 1e-11, 0.5, np.inf]


class TestCausalRecourse:
    def setup_case(self):
        scm = rl.Scm((
            rl.ScmVariable("x0"),
            rl.ScmVariable("x1", parents=((0, 0.5),)),
        ))
        schema = rl.FeatureSchema((rl.FeatureSpec("x0"), rl.FeatureSpec("x1")))
        model = rl.linear_model([0.2, 1.0], -0.4, schema)
        return scm, schema, model

    def test_matches_exhaustive_oracle(self):
        scm, schema, model = self.setup_case()
        rng = np.random.default_rng(8)
        sample = sample_scm(scm, 400, 12)
        data = rl.Dataset(schema, sample, np.where(model.predict(sample) == 1, 1, -1))
        records = causal_by_origin(model, data, scm)
        checked = 0
        for _ in range(15):
            x = sample[rng.integers(0, 400)]
            if model.predict(x) == 1:
                continue
            rec = records.get(x.tobytes())
            # oracle: enumerate every grid intervention directly
            best = np.inf
            grids = {j: _percentile_grid(data.X[:, j], DECILE_PERCENTILES) for j in (0, 1)}
            for r in range(1, 3):
                for combo in itertools.combinations((0, 1), r):
                    for values in itertools.product(*(grids[j] for j in combo)):
                        iv = {j: float(v) for j, v in zip(combo, values) if v != x[j]}
                        if len(iv) != len(combo):
                            continue
                        cand = reference_propagate(scm, x, iv)
                        if model.predict(cand) == 1:
                            best = min(best, rl.CostFn("L2")(x, cand))
            if rec is None:
                assert best == np.inf
            else:
                checked += 1
                assert rec.cost == pytest.approx(best, abs=1e-9)
        assert checked >= 3

    def test_downstream_effects_counted_in_cost(self):
        scm, schema, model = self.setup_case()
        x = np.array([-1.0, -0.3])
        sample = np.vstack([sample_scm(scm, 400, 12), x])
        data = rl.Dataset(schema, sample, model.predict(sample))
        rec = causal_by_origin(model, data, scm).get(x.tobytes())
        assert rec is not None
        assert rec.cost == pytest.approx(rl.CostFn("L2")(x, rec.recourse), abs=1e-9)

    def test_schema_alignment(self):
        scm = rl.default_chain_scm()
        model = rl.linear_model([1.0, 0.0], 0.0, schema2())

        data = rl.synth_base(50, 0)
        with pytest.raises(SchemaMismatchError):
            rl.batch_recourse(model, data, "causal", rl.CostFn("L2"), scm=scm)

    def test_non_actionable_root_never_changes(self):
        # x0 is the default chain's root, so only an intervention on it can move it
        schema = rl.FeatureSchema((rl.FeatureSpec("x0", actionable=False),
                                   rl.FeatureSpec("x1"), rl.FeatureSpec("x2")))
        X = np.random.default_rng(5).standard_normal((1500, 3))
        data = rl.Dataset(schema, X, np.where(X.sum(axis=1) >= 0.0, 1, -1))
        model = rl.train(rl.ModelSpec.logistic(epochs=100), data)
        cf = rl.batch_recourse(model, data, "causal", rl.CostFn("L2"))
        assert cf.size > 100
        assert all(r.recourse[0] == r.origin[0] for r in cf.records)

    def test_no_actionable_intervenable_variable_names_scm(self):
        scm = rl.Scm((rl.ScmVariable("x0"), rl.ScmVariable("x1", intervenable=False)))
        schema = rl.FeatureSchema((rl.FeatureSpec("x0", actionable=False), rl.FeatureSpec("x1")))
        model = rl.linear_model([1.0, 1.0], 0.0, schema)
        data = rl.Dataset(schema, -np.ones((4, 2)), -np.ones(4))
        with pytest.raises(ValueError, match="^scm: "):
            rl.batch_recourse(model, data, "causal", rl.CostFn("L2"), scm=scm)

    @pytest.mark.parametrize("costs, want", [
        ([1.0, 1.0 - 0.6e-12, 1.0 - 1.2e-12], 2),  # two steps within 1e-12 add up past it
        ([1.0, 1.0 - 1.2e-12, 1.0 - 0.6e-12], 1),
        ([2.0, 2.0, 2.0], 0),
        ([np.inf, np.inf], None),
        ([np.inf, 3.0, np.inf, 3.0 - 2e-12, 1.0, 1.0], 4),
        ([np.nan, 5.0, np.nan, 4.0], 3),
        ([0.0], 0),
        ([], None),
    ])
    def test_kept_candidate_matches_scan(self, costs, want):
        assert reference_kept_candidate(costs) == want
        assert _kept_candidate(np.array(costs)) == want
        # from a kept cost carried over from an earlier chunk
        for kept in (5.0, 3.0, 1.0 + 1e-12, 1.0, 1.0 - 0.6e-12, 0.0):
            assert _kept_candidate(np.array(costs), kept) == reference_kept_candidate(costs, kept)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(TIE_COSTS), max_size=30), st.sampled_from(TIE_COSTS))
    def test_kept_candidate_matches_scan_on_ties(self, costs, kept):
        assert _kept_candidate(np.array(costs)) == reference_kept_candidate(costs)
        assert _kept_candidate(np.array(costs), kept) == reference_kept_candidate(costs, kept)

    def test_kept_candidate_carries_across_chunks(self):
        # chunks scanned one after another, each from the last one's kept cost,
        # keep what one scan over all the costs keeps
        rng = np.random.default_rng(8)
        for _ in range(200):
            costs = rng.choice(TIE_COSTS, size=int(rng.integers(0, 40)))
            cuts = np.sort(rng.integers(0, len(costs) + 1, size=3))
            best, kept = None, np.inf
            for lo, hi in zip([0, *cuts], [*cuts, len(costs)]):
                j = _kept_candidate(costs[lo:hi], kept)
                if j is not None:
                    best, kept = lo + j, costs[lo + j]
            assert best == reference_kept_candidate(costs.tolist())

    def test_enumeration_calls_stay_within_the_block_bound(self, monkeypatch):
        # 5 ordinal features and 3 changes give up to 8 145 candidates per origin,
        # with exact cost ties between chunks
        schema = rl.FeatureSchema(tuple(
            rl.FeatureSpec(f"o{j}", kind="ordinal", lower=0, upper=10) for j in range(5)))
        X = np.random.default_rng(29).integers(0, 11, (300, 5)).astype(float)
        model = rl.linear_model(np.ones(5), -30.0, schema)
        data = rl.Dataset(schema, X, model.predict(X))
        rows = np.flatnonzero(data.y == -1)[:12]
        p = method_params("ar")
        values, mask = _intervention_rows(rl.Scm(tuple(rl.ScmVariable(n) for n in schema.names)),
                                          schema, data, p["grid_percentiles"],
                                          p["max_changed_features"])
        calls = count_decision_calls(monkeypatch)
        for norm in ("L1", "L2"):
            monkeypatch.setattr(recourse, "_CAUSAL_BLOCK_ROWS", 10**6)
            want, _ = _ar_batch(model, data, rows, rl.CostFn(norm), p, 0, None)
            monkeypatch.setattr(recourse, "_CAUSAL_BLOCK_ROWS", _CAUSAL_BLOCK_ROWS)
            calls.clear()
            points, iters = _ar_batch(model, data, rows, rl.CostFn(norm), p, 0, None)
            assert iters.min() > _CAUSAL_BLOCK_ROWS and sum(calls) == iters.sum()
            assert max(calls) <= _CAUSAL_BLOCK_ROWS
            assert len(calls) == one_origin_block_calls(data.X[rows], values, mask,
                                                        _CAUSAL_BLOCK_ROWS)
            assert all(pt is not None for pt in points)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(points, want, strict=True))


def reference_kept_candidate(costs, best_cost=np.inf):
    """The causal search's tie rule as a plain scan from a kept cost of
    best_cost: a later candidate wins only if it is cheaper by more than 1e-12."""
    best = None
    for k, c in enumerate(costs):
        if c < best_cost - 1e-12:
            best, best_cost = k, c
    return best


def reference_intervention_rows(scm, schema, data, percentiles, max_intervened):
    """_intervention_rows built from a list of every (combination, grid values) pair."""
    targets = [i for i, (var, f) in enumerate(zip(scm.variables, schema.features))
               if var.intervenable and f.actionable]
    grids = {j: _percentile_grid(data.X[:, j], percentiles) for j in targets}
    actions = [
        (list(combo), chosen)
        for r in range(1, max_intervened + 1)
        for combo in itertools.combinations(targets, r)
        for chosen in itertools.product(*(grids[j] for j in combo))
    ]
    values = np.zeros((len(actions), scm.n_variables))
    mask = np.zeros(values.shape, dtype=bool)
    for k, (combo, chosen) in enumerate(actions):
        values[k, combo] = chosen
        mask[k, combo] = True
    return values, mask


class TestPercentileGrid:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("percentiles", [
        DECILE_PERCENTILES, (0, 25, 50, 75, 100), (90, 10, 50, 10, 90), (50,),
        (100, 0, 62.5, 100, 12.5, 0, 37.5),
    ])
    def test_equals_unique_of_percentiles(self, seed, percentiles):
        # ties, repeats and both signs of zero, which np.unique keeps in sorted order
        rng = np.random.default_rng(seed)
        columns = [
            column
            for n in range(1, 51)
            for column in (
                rng.standard_normal(n),
                rng.integers(-3, 4, n).astype(float),
                np.where(rng.random(n) < 0.5, 0.0, -0.0),
                np.where(rng.random(n) < 0.6, rng.choice([-0.0, 0.0], n), rng.integers(-2, 3, n)),
                np.full(n, 2.5),
            )
        ]
        for column in columns:
            got = _percentile_grid(column, percentiles)
            want = np.unique(np.percentile(column, list(percentiles), method="nearest"))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), column

    def test_empty_column_gives_no_values(self):
        assert _percentile_grid(np.empty(0), DECILE_PERCENTILES).size == 0


class TestInterventionRows:
    @pytest.mark.parametrize("max_intervened", [1, 2, 3, 4])
    def test_matches_list_reference(self, max_intervened):
        # x1 is not actionable, x3 not intervenable, and x2 is ordinal on 0..2,
        # so its grid has 3 values where the others have 9
        schema = rl.FeatureSchema((
            rl.FeatureSpec("x0"), rl.FeatureSpec("x1", actionable=False),
            rl.FeatureSpec("x2", kind="ordinal", lower=0, upper=2),
            rl.FeatureSpec("x3"), rl.FeatureSpec("x4"),
        ))
        rng = np.random.default_rng(19)
        X = rng.standard_normal((300, 5))
        X[:, 2] = rng.integers(0, 3, 300)
        scm = rl.Scm((rl.ScmVariable("x0"), rl.ScmVariable("x1", parents=((0, 0.5),)),
                      rl.ScmVariable("x2"), rl.ScmVariable("x3", intervenable=False),
                      rl.ScmVariable("x4", parents=((2, 1.0),))))
        data = rl.Dataset(schema, X, np.ones(300, dtype=int))
        got = _intervention_rows(scm, schema, data, DECILE_PERCENTILES, max_intervened)
        want = reference_intervention_rows(scm, schema, data, DECILE_PERCENTILES, max_intervened)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_memory_stays_near_the_arrays(self):
        # a parentless SCM, d = 10, k = 3 and 9 grid values: 91 215 rows
        schema = rl.FeatureSchema(tuple(rl.FeatureSpec(f"x{i}") for i in range(10)))
        X = np.random.default_rng(4).standard_normal((200, 10))
        data = rl.Dataset(schema, X, np.ones(200, dtype=int))
        scm = rl.Scm(tuple(rl.ScmVariable(name) for name in schema.names))
        want = reference_intervention_rows(scm, schema, data, DECILE_PERCENTILES, 3)
        tracemalloc.start()
        try:
            got = _intervention_rows(scm, schema, data, DECILE_PERCENTILES, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[0].shape == (91215, 10)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))
        assert peak <= 1.5 * sum(a.nbytes for a in got)

    def test_enumeration_memory_stays_within_the_block_bound(self):
        # 91 215 interventions on a parentless SCM, so each origin is a block of
        # its own whose candidates would fill 3.2 MB of masks and indices at once
        schema = rl.FeatureSchema(tuple(rl.FeatureSpec(f"x{i}") for i in range(10)))
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 10))
        data = rl.Dataset(schema, X, np.where(X[:, 0] > 0, 1, -1))
        model = rl.linear_model(rng.standard_normal(10), 3.0, schema)
        scm = rl.Scm(tuple(rl.ScmVariable(name) for name in schema.names))
        values, mask = _intervention_rows(scm, schema, data, DECILE_PERCENTILES, 3)
        tracemalloc.start()
        try:
            points, iters = _enumerate(model, X[:5], values, mask, rl.CostFn("L2"), scm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        # the points and counts of the enumeration that held an origin's candidates at once
        assert iters.tolist() == [88217, 91215, 85292, 88217, 91215]
        digest = hashlib.sha256()
        for point in points:
            digest.update(point.tobytes())
        digest.update(iters.astype(np.int64).tobytes())
        assert digest.hexdigest() == (
            "ad0d0ceb510d5e352b95744a148c42573447f6aecfde280500a7c97c53f4e7fc")


@pytest.fixture(scope="module")
def chain_models():
    """A sample of the default chain SCM under a curved label rule, and LR,
    SVM and MLP fits to it."""
    scm = rl.default_chain_scm()
    schema = rl.FeatureSchema(tuple(rl.FeatureSpec(n) for n in ("x0", "x1", "x2")))
    X = sample_scm(scm, 600, 9)
    y = np.where(X[:, 0] + 0.5 * X[:, 1] + 0.4 * X[:, 2] ** 2 - 0.5 >= 0.0, 1, -1)
    data = rl.Dataset(schema, X, y)
    specs = (rl.ModelSpec.logistic(epochs=100), rl.ModelSpec.svm(epochs=100),
             rl.ModelSpec.mlp(hidden_layers=(8,), epochs=20, seed=1))
    return data, {spec.kind: rl.train(spec, data) for spec in specs}


class TestBatchInvariance:
    """A kernel gives an origin the same point and iteration count, bit for bit,
    whatever other origins share its batch and in whatever order. A walk takes
    its stop variate at its data row, so markov is held to this too."""

    @pytest.mark.parametrize("kind", ["logistic_regression", "linear_svm", "mlp"])
    @pytest.mark.parametrize("method", ["cfe", "ar", "causal", "markov"])
    def test_subset_matches_full_run(self, chain_models, method, kind):
        data, fits = chain_models
        model = fits[kind]
        rows = np.flatnonzero(model.predict(data.X) == -1)[:30]
        p = method_params(method)
        kernel = _METHODS[method][1]
        points, iters = kernel(model, data, rows, rl.CostFn("L2"), p, 3, None)
        assert sum(pt is not None for pt in points) >= 10
        pick = np.random.default_rng(4).permutation(rows.size)[:12]
        sub_points, sub_iters = kernel(model, data, rows[pick], rl.CostFn("L2"), p, 3, None)
        assert np.array_equal(sub_iters, iters[pick])
        for got, k in zip(sub_points, pick):
            want = points[k]
            assert (got is None and want is None) or np.array_equal(got, want), rows[k]


@pytest.fixture(scope="module")
def fixed_x0_models():
    """600 normal rows labelled by the sign of their sum, with x0
    non-actionable, and LR, SVM and MLP fits to them."""
    schema = rl.FeatureSchema((rl.FeatureSpec("x0", actionable=False),
                               rl.FeatureSpec("x1"), rl.FeatureSpec("x2")))
    X = np.random.default_rng(5).standard_normal((600, 3))
    data = rl.Dataset(schema, X, np.where(X.sum(axis=1) >= 0.0, 1, -1))
    specs = (rl.ModelSpec.logistic(epochs=100), rl.ModelSpec.svm(epochs=100),
             rl.ModelSpec.mlp(hidden_layers=(8,), epochs=20, seed=1))
    return data, {spec.kind: rl.train(spec, data) for spec in specs}


class TestActionability:
    @pytest.mark.parametrize("norm", ["L1", "L2"])
    @pytest.mark.parametrize("kind", ["logistic_regression", "linear_svm", "mlp"])
    @pytest.mark.parametrize("method", list(_METHODS))
    def test_non_actionable_feature_never_changes(self, fixed_x0_models, method, kind, norm):
        data, fits = fixed_x0_models
        cf = rl.batch_recourse(fits[kind], data, method, rl.CostFn(norm))
        assert cf.size >= 50
        assert np.array_equal(cf.points[:, 0], cf.origins[:, 0])


class TestBatchRecourse:
    @pytest.mark.parametrize("method", list(_METHODS))
    def test_empty_data_is_an_empty_set(self, method):
        schema = rl.FeatureSchema(tuple(rl.FeatureSpec(f"x{j}") for j in range(3)))
        model = rl.linear_model([1.0, 1.0, 1.0], 0.0, schema)
        data = rl.Dataset(schema, np.empty((0, 3)), np.empty(0))
        cf = rl.batch_recourse(model, data, method, rl.CostFn("L2"))
        assert cf.size == cf.not_found == 0
        assert cf.points.shape == cf.origins.shape == (0, 3)

    def test_empty_data_still_checks_the_scm(self):
        schema = rl.FeatureSchema(tuple(rl.FeatureSpec(f"x{j}") for j in range(3)))
        model = rl.linear_model([1.0, 1.0, 1.0], 0.0, schema)
        data = rl.Dataset(schema, np.empty((0, 3)), np.empty(0))
        scm = rl.Scm((rl.ScmVariable("x0"), rl.ScmVariable("x1")))
        with pytest.raises(SchemaMismatchError, match="^scm: "):
            rl.batch_recourse(model, data, "causal", rl.CostFn("L2"), scm=scm)

    def test_accounting_identity(self, logistic10k, synth10k):
        sub = synth10k.subset(np.arange(600))
        cf = rl.batch_recourse(logistic10k, sub, "markov", rl.CostFn("L2"),
                               params={"step": 0.05, "rho": 0.5}, seed=1)
        negatives = int(np.sum(logistic10k.predict(sub.X) == -1))
        assert cf.size + cf.not_found == negatives

    def test_every_record_valid(self, logistic10k, synth10k):
        sub = synth10k.subset(np.arange(400))
        for method, params in (("cfe", {}), ("markov", {"step": 0.05, "rho": 1.0})):
            cf = rl.batch_recourse(logistic10k, sub, method, rl.CostFn("L2"), params=params)
            assert np.all(logistic10k.predict(cf.points) == 1)

    def test_no_negatives_is_empty(self):
        data = rl.synth_base(200, 1)
        always_yes = rl.linear_model([0.0, 0.0], 1.0, data.schema)
        cf = rl.batch_recourse(always_yes, data, "cfe", rl.CostFn("L2"))
        assert cf.size == 0 and cf.not_found == 0

    def test_ar_on_nonlinear_model_rechecks_truth(self):
        data = rl.synth_base(1500, 6)
        mlp = rl.train(rl.ModelSpec.mlp(epochs=25, seed=3), data)
        sub = data.subset(np.arange(80))
        cf = rl.batch_recourse(mlp, sub, "ar", rl.CostFn("L1"), seed=2)
        if cf.size:
            assert np.all(mlp.predict(cf.points) == 1)
        negatives = int(np.sum(mlp.predict(sub.X) == -1))
        assert cf.size + cf.not_found == negatives

    def test_causal_batch_uses_default_chain(self):
        scm = rl.default_chain_scm()
        schema = rl.FeatureSchema(tuple(rl.FeatureSpec(n) for n in ("x0", "x1", "x2")))
        sample = sample_scm(scm, 300, 2)
        w = np.array([0.3, 0.4, 1.0])
        labels = np.where(sample @ w - 0.6 >= 0, 1, -1)
        data = rl.Dataset(schema, sample, labels)
        model = rl.linear_model(w, -0.6, schema)
        cf = rl.batch_recourse(model, data.subset(np.arange(60)), "causal", rl.CostFn("L2"))
        assert cf.size + cf.not_found == int(np.sum(model.predict(data.X[:60]) == -1))
        if cf.size:
            assert np.all(model.predict(cf.points) == 1)

    def test_causal_scores_each_origin_in_one_call(self, monkeypatch):
        scm = rl.default_chain_scm()
        schema = rl.FeatureSchema(tuple(rl.FeatureSpec(n) for n in ("x0", "x1", "x2")))
        sample = sample_scm(scm, 200, 4)
        model = rl.linear_model([0.3, 0.4, 1.0], -0.6, schema)
        data = rl.Dataset(schema, sample, model.predict(sample))
        calls = count_decision_calls(monkeypatch)
        cf = rl.batch_recourse(model, data, "causal", rl.CostFn("L2"))
        negatives = cf.size + cf.not_found
        assert negatives > 50 and cf.size > 0
        # the scan for negatives, one call per origin, the recheck, RecourseSet's check
        assert len(calls) <= negatives + 3

    @pytest.mark.parametrize("kind", ["logistic_regression", "mlp"])
    @pytest.mark.parametrize("block_rows", [1, 100, 300, 600, 1024, 10**6])
    def test_causal_scores_each_block_in_one_call(self, chain_models, monkeypatch, kind,
                                                  block_rows):
        # below 270 rows a block is one origin, whose candidates go in chunks of block_rows
        data, fits = chain_models
        model = fits[kind]
        rows = np.flatnonzero(model.predict(data.X) == -1)
        p = method_params("causal")
        want_points, want_iters = _causal_batch(model, data, rows, rl.CostFn("L2"), p, 0, None)
        monkeypatch.setattr(recourse, "_CAUSAL_BLOCK_ROWS", block_rows)
        calls = count_decision_calls(monkeypatch)
        points, iters = _causal_batch(model, data, rows, rl.CostFn("L2"), p, 0, None)
        # 270 interventions on the default chain's three variables
        per_block = max(1, block_rows // 270)
        if block_rows >= 270:
            assert len(calls) == math.ceil(rows.size / per_block)
        else:
            values, mask = _intervention_rows(rl.default_chain_scm(), data.schema, data,
                                              p["grid_percentiles"], p["max_intervened"])
            assert len(calls) == one_origin_block_calls(data.X[rows], values, mask, block_rows)
        assert max(calls) <= block_rows
        assert sum(calls) == iters.sum() > 0
        assert np.array_equal(iters, want_iters)
        for got, want in zip(points, want_points, strict=True):
            assert (got is None and want is None) or got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rare", [0, 4])
    def test_causal_origin_with_no_candidate(self, rare):
        # x1 is not intervenable, so only x0 can be set, and its grid is its
        # one common value: an origin there has no intervention left
        scm = rl.Scm((rl.ScmVariable("x0"), rl.ScmVariable("x1", intervenable=False)))
        schema = rl.FeatureSchema((rl.FeatureSpec("x0"), rl.FeatureSpec("x1")))
        rng = np.random.default_rng(7)
        X = np.column_stack([np.where(np.arange(200) < rare, 2.0, 0.0), rng.standard_normal(200)])
        model = rl.linear_model([-1.0, 1.0], 1.5, schema)
        data = rl.Dataset(schema, X, model.predict(X))
        rows = np.flatnonzero(model.predict(X) == -1)
        assert rows.size > 10 and np.sum(X[rows, 0] == 2.0) == rare
        points, iters = _causal_batch(model, data, rows, rl.CostFn("L2"),
                                      method_params("causal"), 0, scm)
        common = X[rows, 0] == 0.0
        assert all(points[k] is None for k in np.flatnonzero(common))
        assert np.array_equal(iters, np.where(common, 0, 1))
        # each x0 = 2 negative has x1 >= -1.5 here, so x0 := 0 is accepted
        assert all(points[k] is not None for k in np.flatnonzero(~common))
        cf = rl.batch_recourse(model, data, "causal", rl.CostFn("L2"), scm=scm)
        assert (cf.size, cf.not_found) == (int(np.sum(~common)), int(np.sum(common)))

    def test_cfe_scores_once_per_inner_iteration(self, monkeypatch, mlp1500):
        # input gradients cost no decision_values call; a lambda stage adds at most
        # three: its last iterate, its snapped point and the fallback iterate
        data, mlp = mlp1500
        linear = rl.linear_model([1.0, 2.0], -1.0, data.schema)
        p = method_params("cfe")
        calls = count_decision_calls(monkeypatch)
        for model in (linear, mlp):
            for i in np.flatnonzero(model.predict(data.X) == -1)[:5]:
                calls.clear()
                _, iters = _cfe_batch(model, data, np.array([i]), rl.CostFn("L2"), p, 0, None)
                assert iters[0] > 10
                assert iters[0] + 2 <= len(calls) <= iters[0] + 3 * (p["lambda_steps"] + 1)

    def test_mlp_walk_scores_once_per_step(self, monkeypatch, mlp1500):
        data, mlp = mlp1500
        X = data.X[mlp.predict(data.X) == -1][:50]
        calls = count_decision_calls(monkeypatch)
        _, iters = _markov_batch(mlp, X, 0.05, 1.0, 1.0 - np.random.default_rng(3).random(50),
                                 10_000)
        # the start, then one call for each step of the longest walk
        assert iters.max() > 10
        assert len(calls) == 1 + iters.max()

    def test_unknown_method(self, logistic10k, synth10k):
        with pytest.raises(ValueError):
            rl.batch_recourse(logistic10k, synth10k, "genetic", rl.CostFn("L2"))

    def test_cost_bookkeeping(self, logistic10k, synth10k):
        sub = synth10k.subset(np.arange(300))
        cost = rl.CostFn("L2")
        cf = rl.batch_recourse(logistic10k, sub, "cfe", cost)
        for rec in cf.records:
            assert rec.cost == pytest.approx(cost(rec.origin, rec.recourse), abs=1e-9)

    def test_determinism(self, logistic10k, synth10k):
        sub = synth10k.subset(np.arange(200))
        a = rl.batch_recourse(logistic10k, sub, "markov", rl.CostFn("L2"),
                              params={"step": 0.05, "rho": 0.5}, seed=9)
        b = rl.batch_recourse(logistic10k, sub, "markov", rl.CostFn("L2"),
                              params={"step": 0.05, "rho": 0.5}, seed=9)
        assert a.size == b.size
        assert np.array_equal(a.points, b.points)


def one_row_set(**changes):
    """A valid one-row RecourseSet on x0 >= 0, with `changes` to its arguments."""
    args = dict(origins=[[-1.0, 0.0]], points=[[0.5, 0.0]], costs=[1.5], iterations=[3])
    args.update(changes)
    return rl.RecourseSet(rl.linear_model([1.0, 0.0], 0.0, schema2()), **args)


class TestRecourseSet:
    def test_invalid_record_rejected(self):
        with pytest.raises(DataValidationError, match="record 1 "):
            one_row_set(origins=[[-1.0, 0.0]] * 2, points=[[0.5, 0.0], [-0.5, 0.0]],
                        costs=[1.5, 0.5], iterations=[3, 1])

    @pytest.mark.parametrize("column, value", [
        ("origins", [[-1.0, 0.0, 0.0, 0.0, 0.0]]),
        ("points", [[0.5, 0.0, 0.0]]),
        ("points", [0.5, 0.0]),
        ("origins", [[-1.0, 0.0]] * 2),
        ("costs", [1.5, 1.5]),
        ("iterations", []),
    ])
    def test_column_shapes_checked(self, column, value):
        with pytest.raises(SchemaMismatchError, match=f"^{column}: expected shape"):
            one_row_set(**{column: value})

    @pytest.mark.parametrize("changes, match", [
        ({"costs": [math.nan]}, "^costs: "),
        ({"costs": [-0.5]}, "^costs: "),
        ({"costs": [math.inf]}, "^costs: "),
        ({"not_found": -1}, "^not_found: "),
    ])
    def test_bad_values_rejected(self, changes, match):
        with pytest.raises(ValueError, match=match):
            one_row_set(**changes)

    def test_columns_are_read_only_copies(self):
        origins = np.array([[-1.0, 0.0]])
        cf = one_row_set(origins=origins)
        origins[0, 0] = -2.0
        assert cf.origins[0, 0] == -1.0
        for column in (cf.origins, cf.points, cf.costs, cf.iterations):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0

    def test_records_are_rows_of_python_numbers(self):
        # perfbench's tracer JSON-dumps the sum of the rows' iterations
        (rec,) = one_row_set().records
        assert type(rec.cost) is float and type(rec.iterations) is int
        assert rec.cost == 1.5 and rec.iterations == 3
        assert np.array_equal(rec.origin, [-1.0, 0.0]) and np.array_equal(rec.recourse, [0.5, 0.0])

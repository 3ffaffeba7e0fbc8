"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import itertools
import json
import time

import numpy as np
from scipy import stats as sps

import recourse_lab as rl
from recourse_lab.cli import main as cli_main
from recourse_lab.recourse import DECILE_PERCENTILES, _percentile_grid


def linear_depths(model, cf) -> np.ndarray:
    """Signed distance of each recourse past a linear model's boundary."""
    w = model.weight_vector
    return np.array([float((w @ r.recourse + model.bias) / float(np.linalg.norm(w)))
                     for r in cf.records])


def verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. Bound exactness, continuous


def test_criterion_01_bound_exactness_continuous():
    started = time.monotonic()
    data = rl.synth_base(10000, 7)
    model = rl.train(rl.ModelSpec.logistic(), data)
    gaps = {}
    for dm in (0.1, 0.25, 0.5):
        check = rl.verify_bound(model, data, rho=2.0, delta_m=dm, n_trials=5000, seed=11)
        gaps[dm] = (check.empirical_q, check.theoretical_q, check.abs_gap)
    elapsed = time.monotonic() - started
    ok = all(g[2] <= 0.03 for g in gaps.values()) and elapsed <= 60.0
    detail = ", ".join(
        f"dm={dm}: |{e:.4f}-{t:.4f}|={g:.4f}" for dm, (e, t, g) in gaps.items()
    ) + f"; {elapsed:.1f}s"
    assert verdict(1, "bound exactness, continuous", ok, detail)


# ---------------------------------------------------------------------------
# 2. Bound exactness, ordinal


def test_criterion_02_bound_exactness_ordinal(ordinal_setup):
    model, data = ordinal_setup
    check = rl.verify_bound(model, data, rho=0.5, delta_m=2, n_trials=5000, seed=9)
    ok = abs(check.empirical_q - 0.75) <= 0.03 and check.n >= 5000
    detail = f"empirical {check.empirical_q:.4f} vs 0.75, n={check.n}"
    assert verdict(2, "bound exactness, ordinal", ok, detail)


# ---------------------------------------------------------------------------
# 3. Distribution law of walk depths


def test_criterion_03_distribution_law(logistic10k, synth10k, ordinal_setup):
    neg = synth10k.X[logistic10k.predict(synth10k.X) == -1][:5000]
    cont_data = rl.Dataset(synth10k.schema, neg, np.full(len(neg), -1))
    cf = rl.batch_recourse(logistic10k, cont_data, "markov", rl.CostFn("L2"),
                           params={"step": 0.01, "rho": 2.0}, seed=21)
    depths = linear_depths(logistic10k, cf)[:5000]
    rho_hat = rl.fit_rho(depths, "continuous")
    ks_cont = sps.kstest(depths, sps.expon(scale=1.0 / rho_hat).cdf).statistic
    ok_cont = ks_cont <= 0.05 and abs(rho_hat / 2.0 - 1.0) <= 0.05 and len(depths) == 5000

    model, data = ordinal_setup
    big = data.subset(np.tile(np.arange(data.n), 1)[:5000])
    cf2 = rl.batch_recourse(model, big, "markov", rl.CostFn("L2"),
                            params={"step": 1.0, "rho": 0.5}, seed=22)
    counts = np.array([round(d + 0.5) for d in linear_depths(model, cf2)])[:5000]
    p_hat = rl.fit_rho(counts, "ordinal")
    ks_ord = max(
        abs(float(np.mean(counts <= k)) - sps.geom(p_hat).cdf(k))
        for k in range(1, int(counts.max()) + 1)
    )
    ok_ord = ks_ord <= 0.05 and abs(p_hat / 0.5 - 1.0) <= 0.05

    ok = ok_cont and ok_ord
    detail = (f"exponential: rho_hat={rho_hat:.3f} KS={ks_cont:.4f}; "
              f"geometric: p_hat={p_hat:.3f} KS={ks_ord:.4f}")
    assert verdict(3, "walk depth distribution law", ok, detail)


# ---------------------------------------------------------------------------
# 4. Nonlinear empirical invalidation dominates the linear closed form


def test_criterion_04_linear_is_lower_bound(curved_mlp_setup):
    model, data = curved_mlp_setup
    margins = {}
    for dm in (0.1, 0.25, 0.5):
        check = rl.verify_bound(model, data, rho=2.0, delta_m=dm, n_trials=5000, seed=13)
        margins[dm] = check.empirical_q - check.theoretical_q
    ok = all(m >= -0.02 for m in margins.values())
    detail = ", ".join(f"dm={dm}: emp-bound={m:+.4f}" for dm, m in margins.items())
    assert verdict(4, "linear bound is a lower bound for the MLP", ok, detail)


# ---------------------------------------------------------------------------
# 5. Cost vs invalidation tradeoff for constant-stop-rate gradient walks


def test_criterion_05_cost_invalidation_tradeoff():
    wins = 0
    pooled_costs, pooled_rates = [], []
    for exp in range(20):
        data = rl.synth_base(2000, 300 + exp)
        model = rl.train(rl.ModelSpec.logistic(seed=exp), data)
        # Not CFE: under parallel updates invalidation depends only on depth past
        # the boundary, and CFE's depth does not depend on the origin (or the cost).
        cf = rl.batch_recourse(model, data, "markov", rl.CostFn("L2"),
                               params={"step": 0.05, "rho": 1.0}, seed=500 + exp)
        rng = np.random.default_rng(700 + exp)
        draws = [rl.parallel_perturb(model, d)
                 for d in np.abs(rng.normal(0.0, 0.2, size=50))]
        stats = rl.cost_invalidation_check(cf, draws)
        if stats.quartile_rates[0] > stats.quartile_rates[3]:
            wins += 1
        invalid = np.stack([m2.predict(cf.points) == -1 for m2 in draws], axis=1)
        pooled_costs.extend(cf.costs)
        pooled_rates.extend(invalid.mean(axis=1))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pooled = sps.spearmanr(pooled_costs, pooled_rates).statistic
    ok = wins >= 18 and (not np.isnan(pooled)) and pooled <= -0.2
    detail = (f"strict quartile wins {wins}/20 (need >= 18), "
              f"pooled spearman {pooled:.4f} (need <= -0.2)")
    assert verdict(5, "cost-invalidation tradeoff for constant-stop-rate gradient walks",
                   ok, detail)


# ---------------------------------------------------------------------------
# 6. Sensitivity monotonicity


def test_criterion_06_sensitivity_monotonicity():
    base = rl.ExperimentConfig(
        d1_source=rl.ShiftSpec("target_shift", 0.0, 5000, 101),
        d2_source=rl.ShiftSpec("target_shift", 0.0, 5000, 202),
        model_spec=rl.ModelSpec.logistic(),
        method="cfe",
        # validity margin 0.2 keeps the zero-shift floor below retraining noise
        method_params={"margin_target": 0.2},
        seeds=rl.Seeds(0, 1, 2),
    )
    alphas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    points = rl.sensitivity_sweep("target_shift", alphas, base)
    curve = [p.invalidation_pct for p in points]
    floor_ok = curve[0] <= 5.0
    mono_ok = all(curve[i + 1] >= curve[i] - 2.0 for i in range(len(curve) - 1))
    ok = floor_ok and mono_ok
    detail = "curve " + ", ".join(f"{a:.1f}:{v:.1f}%" for a, v in zip(alphas, curve))
    assert verdict(6, "invalidation grows with target shift", ok, detail)


# ---------------------------------------------------------------------------
# 7. Recourse validity invariant and accounting identity


def test_criterion_07_validity_and_accounting(logistic10k, synth10k):
    sub = synth10k.subset(np.arange(800))
    negatives = int(np.sum(logistic10k.predict(sub.X) == -1))
    all_valid, all_accounted = True, True
    sizes = {}
    for method, params in (
        ("cfe", {}),
        ("markov", {"step": 0.05, "rho": 1.0}),
        ("ar", {}),
    ):
        cf = rl.batch_recourse(logistic10k, sub, method, rl.CostFn("L2"),
                               params=params, seed=41)
        if cf.size:
            all_valid &= bool(np.all(logistic10k.predict(cf.points) == 1))
        all_accounted &= (cf.size + cf.not_found == negatives)
        sizes[method] = (cf.size, cf.not_found)
    ok = all_valid and all_accounted
    detail = f"negatives={negatives}, per-method (found, missing): {sizes}"
    assert verdict(7, "validity invariant and accounting", ok, detail)


# ---------------------------------------------------------------------------
# 8. Gradient recourse optimality against the projection oracle


def test_criterion_08_cfe_optimality(logistic10k, synth10k):
    rng = np.random.default_rng(55)
    neg_all = synth10k.X[logistic10k.predict(synth10k.X) == -1]
    pick = rng.choice(len(neg_all), size=500, replace=False)
    pts = neg_all[pick]
    data = rl.Dataset(synth10k.schema, pts, np.full(500, -1))
    cf = rl.batch_recourse(logistic10k, data, "cfe", rl.CostFn("L2"), seed=8)
    w, b = logistic10k.weight_vector, logistic10k.bias
    proj = np.abs(cf.origins @ w + b) / np.linalg.norm(w)
    ratio = cf.costs / proj
    frac = float(np.mean(ratio <= 1.10))
    ok = frac >= 0.95 and cf.size == 500
    detail = f"{frac:.1%} of 500 recourses within 1.10x of the projection distance"
    assert verdict(8, "gradient recourse near-optimality", ok, detail)


# ---------------------------------------------------------------------------
# 9. Grid search equals exhaustive enumeration


def test_criterion_09_ar_oracle_equivalence():
    rng = np.random.default_rng(99)
    schema = rl.FeatureSchema(tuple(rl.FeatureSpec(f"f{j}") for j in range(4)))
    cost = rl.CostFn("L1")
    solvable, agreements, models_checked = 0, 0, 0
    while models_checked < 100:
        w = rng.standard_normal(4)
        b = rng.standard_normal() - 0.5
        model = rl.linear_model(w, b, schema)
        X = rng.standard_normal((120, 4))
        x = rng.standard_normal(4)
        if model.predict(x) == 1:
            continue
        models_checked += 1
        # AR's grids come from the searched data's columns: x and the rows the
        # model accepts, which leaves x the only origin
        grid_X = np.vstack([x, X[model.predict(X) == 1]])
        cf = rl.batch_recourse(model, rl.Dataset(schema, grid_X, model.predict(grid_X)), "ar",
                               cost, params={"max_changed_features": 3})
        assert cf.size + cf.not_found == 1
        rec = cf.records[0] if cf.records else None
        grids = {j: _percentile_grid(grid_X[:, j], DECILE_PERCENTILES) for j in range(4)}
        best = np.inf
        for r in range(1, 4):
            for combo in itertools.combinations(range(4), r):
                for values in itertools.product(*(grids[j] for j in combo)):
                    point = x.copy()
                    for j, v in zip(combo, values):
                        point[j] = v
                    if model.predict(point) == 1:
                        best = min(best, cost(x, point))
        if best < np.inf:
            solvable += 1
            if rec is not None and abs(rec.cost - best) <= 1e-9:
                agreements += 1
        else:
            agreements += rec is None
    ok = solvable > 0 and agreements == models_checked
    detail = f"{agreements}/{models_checked} agreements, {solvable} solvable cases"
    assert verdict(9, "grid search equals exhaustive minimum", ok, detail)


# ---------------------------------------------------------------------------
# 10. Gradient fidelity


def test_criterion_10_gradient_fidelity():
    data = rl.synth_base(3000, 1)
    model = rl.train(rl.ModelSpec.mlp(hidden_layers=(10, 10, 5), epochs=30, seed=2), data)

    def backprop(x):
        z = np.asarray(x, dtype=float)
        preacts = []
        for W, b in model.layers[:-1]:
            a = z @ W + b
            preacts.append(a)
            z = np.maximum(a, 0.0)
        W, _ = model.layers[-1]
        g = W[:, 0]
        for (Wl, _), a in zip(reversed(model.layers[:-1]), reversed(preacts)):
            g = Wl @ (g * (a > 0.0))
        return g

    def central_difference(m, x, h=1e-4):
        e = h * np.eye(len(x))
        return (m.decision_values(x + e) - m.decision_values(x - e)) / (2 * h)

    rng = np.random.default_rng(0)
    pts = rng.standard_normal((100, 2)) * 2
    grads = model.input_gradient(pts)
    worst = 0.0
    for x, g in zip(pts, grads):
        for ref in (backprop(x), central_difference(model, x)):
            worst = max(worst, np.linalg.norm(g - ref) / max(np.linalg.norm(ref), 1e-12))

    linear = rl.linear_model([3.0, -2.0], 0.5, data.schema)
    x = np.array([0.1, 0.2])
    dev = max(
        np.max(np.abs(linear.input_gradient(x[None, :])[0] - [3.0, -2.0])),
        np.max(np.abs(central_difference(linear, x) - [3.0, -2.0])),
    )
    ok = worst <= 1e-4 and dev <= 1e-10
    detail = f"MLP worst relative error {worst:.2e}; linear deviation {dev:.2e}"
    assert verdict(10, "input gradient fidelity", ok, detail)


# ---------------------------------------------------------------------------
# 11. Report fidelity


def test_criterion_11_report_fidelity(tmp_path):
    doc = {
        "d1_source": {"synthetic": {"scenario": "target_shift", "alpha": 0.0,
                                    "n": 1000, "seed": 61}},
        "d2_source": {"synthetic": {"scenario": "target_shift", "alpha": 0.2,
                                    "n": 1000, "seed": 62}},
        "model": {"kind": "logistic_regression", "learning_rate": 0.5,
                  "epochs": 120, "l2_penalty": 1e-4},
        "recourse": {"method": "cfe", "params": {}},
        "cost": {"norm": "L2"},
        "holdout_fraction": 0.1,
        "seeds": {"data": 0, "model": 1, "recourse": 2},
        "cv_folds": 5,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = cli_main(["run", "--config", str(cfg), "--out", str(out)])
    header = (out / "report.csv").read_text().splitlines()[0]
    columns_ok = header == "Algorithm,Model,M1 acc,M2 acc,CF1 Size,Invalidation %"

    # an exhausted walk budget finds nothing: CF1 Size 0 must print NAN
    doc["recourse"] = {"method": "markov",
                       "params": {"step": 0.001, "rho": 1.0, "max_steps": 1}}
    cfg.write_text(json.dumps(doc))
    out2 = tmp_path / "out2"
    code2 = cli_main(["run", "--config", str(cfg), "--out", str(out2)])
    row = (out2 / "report.csv").read_text().splitlines()[1].split(",")
    nan_ok = row[4] == "0" and row[5] == "NAN"

    ok = code == 0 and code2 == 0 and columns_ok and nan_ok
    detail = f"columns {'ok' if columns_ok else header}; empty CF1 row prints NAN: {nan_ok}"
    assert verdict(11, "report fidelity", ok, detail)

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recourse_lab as rl
from recourse_lab import theory
from recourse_lab.errors import InsufficientSampleError


class TestClosedForms:
    def test_zero_perturbation_is_zero(self):
        for rho in (0.3, 1.0, 7.5):
            assert rl.bound_continuous(rho, 0.0) == 0.0
        for rho in (0.2, 0.5, 1.0):
            assert rl.bound_ordinal(rho, 0) == 0.0

    def test_continuous_point_value(self):
        assert rl.bound_continuous(2.0, 0.25) == pytest.approx(0.39347, abs=1e-5)

    def test_continuous_log_two_identity(self):
        assert rl.bound_continuous(1.0, math.log(2.0)) == pytest.approx(0.5)

    def test_ordinal_single_step(self):
        assert rl.bound_ordinal(0.5, 1) == pytest.approx(0.5)

    def test_ordinal_two_steps(self):
        assert rl.bound_ordinal(0.5, 2) == pytest.approx(0.75)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rl.bound_continuous(0.0, 1.0)
        with pytest.raises(ValueError):
            rl.bound_continuous(-2.0, 1.0)
        with pytest.raises(ValueError):
            rl.bound_continuous(1.0, -0.1)
        with pytest.raises(ValueError):
            rl.bound_ordinal(1.5, 2)
        with pytest.raises(ValueError):
            rl.bound_ordinal(0.5, 1.5)

    @given(st.floats(0.05, 5.0), st.floats(0.0, 3.0), st.floats(0.01, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_continuous_monotonicity(self, rho, dm, bump):
        q = rl.bound_continuous(rho, dm)
        assert 0.0 <= q < 1.0
        assert rl.bound_continuous(rho, dm + bump) > q
        assert rl.bound_continuous(rho + bump, dm + 1e-6) > rl.bound_continuous(rho, dm + 1e-6) - 1e-15

    @given(st.floats(0.05, 0.95), st.integers(0, 20))
    @settings(max_examples=50, deadline=None)
    def test_ordinal_monotonicity(self, rho, dm):
        q = rl.bound_ordinal(rho, dm)
        assert 0.0 <= q <= 1.0
        if q < 1.0 - 1e-12:  # below float saturation the increase is strict
            assert rl.bound_ordinal(rho, dm + 1) > q
        else:
            assert rl.bound_ordinal(rho, dm + 1) >= q

    def test_saturation(self):
        assert rl.bound_continuous(10.0, 50.0) == pytest.approx(1.0)
        assert rl.bound_ordinal(1.0, 1) == 1.0


class TestBoundInput:
    """invalidation_bound's checks of its inputs, and its dispatch on kind."""

    def test_ordinal_requires_unit_interval_rate(self):
        with pytest.raises(ValueError):
            rl.invalidation_bound("ordinal", 2.0, 1)

    def test_ordinal_requires_integer_steps(self):
        with pytest.raises(ValueError):
            rl.invalidation_bound("ordinal", 0.5, 1.5)

    def test_value_dispatch(self):
        assert rl.invalidation_bound("continuous", 2.0, 0.25) == pytest.approx(0.39347, abs=1e-5)
        assert rl.invalidation_bound("ordinal", 0.5, 2) == pytest.approx(0.75)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            rl.invalidation_bound("categorical", 0.5, 1)


class TestFitRho:
    def test_mle_formula(self):
        assert rl.fit_rho([0.25, 0.75], "continuous") == pytest.approx(2.0)

    def test_recovers_exponential_rate(self):
        # seeded sampling oracle
        rng = np.random.default_rng(77)
        draws = rng.exponential(scale=1.0 / 3.0, size=5000)
        assert rl.fit_rho(draws, "continuous") == pytest.approx(3.0, abs=0.15)

    def test_recovers_geometric_parameter(self):
        rng = np.random.default_rng(78)
        draws = rng.geometric(p=0.4, size=5000)
        assert rl.fit_rho(draws, "ordinal") == pytest.approx(0.4, abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rl.fit_rho([], "continuous")

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            rl.fit_rho([0.5, -0.1], "continuous")
        with pytest.raises(ValueError):
            rl.fit_rho([0.5], "ordinal")


class TestVerifyBound:
    def test_zero_perturbation_exact_zero(self, logistic10k, synth10k):
        check = rl.verify_bound(logistic10k, synth10k, rho=2.0, delta_m=0.0,
                                n_trials=500, seed=3)
        assert check.empirical_q == 0.0 and check.theoretical_q == 0.0

    def test_linear_exactness_smoke(self, logistic10k, synth10k):
        check = rl.verify_bound(logistic10k, synth10k, rho=2.0, delta_m=0.25,
                                n_trials=2000, seed=5)
        assert check.abs_gap <= 0.03
        assert check.kind == "continuous"

    def test_insufficient_negatives(self):
        data = rl.synth_base(120, 0)
        model = rl.linear_model([0.0, 1.0], 100.0, data.schema)  # almost all +1
        with pytest.raises(InsufficientSampleError):
            rl.verify_bound(model, data, 1.0, 0.1, 100, 0)

    def test_every_walk_failing_is_named(self):
        # the grid ends at 10, below the boundary at 30.5, so every walker stalls
        schema = rl.FeatureSchema((rl.FeatureSpec("level", kind="ordinal", lower=0, upper=10),))
        model = rl.linear_model([1.0], -30.5, schema)
        values = np.tile(np.arange(11.0), 20)[:, None]
        data = rl.Dataset(schema, values, np.full(values.shape[0], -1))
        with pytest.raises(InsufficientSampleError, match="200 of 200 walks failed"):
            rl.verify_bound(model, data, 1.0, 1, 200, 0)

    def test_ordinal_kind_detected(self, ordinal_setup):
        model, data = ordinal_setup
        check = rl.verify_bound(model, data, rho=0.5, delta_m=2, n_trials=800, seed=1)
        assert check.kind == "ordinal"
        assert check.theoretical_q == pytest.approx(0.75)

    def test_small_rate_within_tolerance(self, logistic10k, synth10k):
        check = rl.verify_bound(logistic10k, synth10k, rho=0.02, delta_m=2.5,
                                n_trials=2000, seed=6)
        q = 1.0 - math.exp(-0.02 * 2.5)
        assert abs(check.empirical_q - q) <= 4.0 * math.sqrt(q * (1.0 - q) / 2000) + 0.03

    def test_inputs_checked_before_walking(self, logistic10k, synth10k, ordinal_setup,
                                           monkeypatch):
        def no_walk(*args, **kwargs):
            raise AssertionError("walked before checking rho and delta_m")

        monkeypatch.setattr(theory, "_markov_batch", no_walk)
        with pytest.raises(ValueError, match="delta_m"):
            rl.verify_bound(logistic10k, synth10k, 0.01, math.inf, 2000, 0)
        with pytest.raises(ValueError, match="delta_m"):
            rl.verify_bound(logistic10k, synth10k, 0.01, math.nan, 2000, 0)
        model, data = ordinal_setup
        with pytest.raises(ValueError, match="rho"):
            rl.verify_bound(model, data, 1.5, 2, 100, 0)
        with pytest.raises(ValueError, match="whole number"):
            rl.verify_bound(model, data, 0.5, 1.5, 100, 0)


def straight_model(actionable=(True, True, True)):
    """A linear model on three continuous features: its walks are straight lines."""
    schema = rl.FeatureSchema(tuple(rl.FeatureSpec(f"x{j}", actionable=a)
                                    for j, a in enumerate(actionable)))
    return rl.linear_model([0.8, -0.5, 0.3], -2.5, schema)


class TestStraightWalks:
    @pytest.mark.parametrize("settle_at", [None, 0.5])
    def test_closed_form_matches_the_stepped_loop(self, settle_at):
        # on a linear model with no grid feature every walk is a straight line,
        # so its end point has a closed form; the loop is its oracle. Far starts
        # run out of the budget, and rho 1e-6 walks on until the budget or the
        # settle level ends the walk. With x0 fixed, walks run along w less
        # its x0 entry.
        rng = np.random.default_rng(5)
        step, max_steps, n = 0.02, 1500, 900
        for model, rho in itertools.product(
                (straight_model(), straight_model((False, True, True))),
                (1e-6, 0.01, 0.5, 1.0, 2.0, 32.0)):
            X = rng.normal(0.0, 3.0, (n, 3)) * rng.choice([1.0, 12.0], p=[0.9, 0.1], size=(n, 1))
            u = 1.0 - rng.random(n)
            stop_after = theory._steps_past_crossing(u, rho, step)
            loop_points, loop_iters = theory._stepped_walks(model, X, step, stop_after, max_steps,
                                                            settle_at)
            points, iters = theory._straight_walks(model, X, step, stop_after, max_steps, settle_at)
            assert np.array_equal(iters, loop_iters), rho
            assert [p is None for p in points] == [p is None for p in loop_points], rho
            found = [i for i, p in enumerate(points) if p is not None]
            ends, loop_ends = (np.stack([pts[i] for i in found]) for pts in (points, loop_points))
            assert np.abs(ends - loop_ends).max() <= 1e-8, rho
            assert np.all(model.predict(ends) == 1), rho
            assert 0 < len(found) < n, rho
            if not model.schema.features[0].actionable:
                assert np.array_equal(ends[:, 0], X[found, 0]), rho
            # _markov_batch takes this path for such a model
            batch_points, batch_iters = theory._markov_batch(model, X, step, rho, u, max_steps,
                                                             settle_at=settle_at)
            assert np.array_equal(batch_iters, iters)
            assert all(np.array_equal(a, b) for a, b in zip(batch_points, points) if a is not None)

    @pytest.mark.parametrize("level", [0.0, 0.3])
    def test_first_step_at_a_level_is_exact_at_knife_edges(self, level):
        # starts a whole number of steps before the level put the linear
        # estimate one off in either direction, once rounded; a scan over every
        # step count is the definition
        model = straight_model()
        w, rng, max_steps = model.weight_vector, np.random.default_rng(1), 60
        s = 0.02 * (w / np.linalg.norm(w))
        C = rng.normal(0.0, 3.0, (3000, 3))
        C -= ((model.decision_values(C) - level) / (w @ w))[:, None] * w
        X = C - rng.integers(0, max_steps + 3, 3000)[:, None] * s
        f0 = model.decision_values(X)
        first = theory._first_reaching(model, X, f0, s, level, max_steps)
        scan = np.full(3000, max_steps + 1.0)
        for k in range(max_steps, -1, -1):
            scan[model.decision_values(X + k * s) >= level] = k
        assert np.array_equal(first, scan)
        estimate = np.clip(np.ceil((level - f0) / (w @ s)), 0, max_steps + 1)
        assert np.any(estimate < scan) and np.any(estimate > scan)

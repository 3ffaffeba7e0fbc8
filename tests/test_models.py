import itertools
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recourse_lab as rl
from recourse_lab import models
from recourse_lab.models import train_many
from recourse_lab.errors import (
    DivergenceError,
    SchemaMismatchError,
    TrainingError,
    UnsupportedModelError,
)
from recourse_lab.util import derive_seed, sigmoid


def schema2():
    return rl.synth_base(2, 0).schema


def backprop_input_gradient(model, x):
    """Analytic input gradient of the decision value (independent oracle)."""
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


def central_difference(model, X, h=1e-4):
    """Central-difference input gradient, one coordinate at a time (independent oracle)."""
    X = np.asarray(X, dtype=float)
    grad = np.empty_like(X)
    for j in range(X.shape[1]):
        e = np.zeros(X.shape[1])
        e[j] = h
        grad[:, j] = (model.decision_values(X + e) - model.decision_values(X - e)) / (2 * h)
    return grad


def relu_masks(model, X):
    """Which hidden units are active at each row of X, all layers side by side."""
    Z = np.asarray(X, dtype=float)
    masks = []
    for W, b in model.layers[:-1]:
        A = Z @ W + b
        masks.append(A > 0.0)
        Z = np.maximum(A, 0.0)
    return np.hstack(masks)


def masked_sigmoid(z):
    """Reference sigmoid: one exp per sign class, scattered through a mask."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_train_linear(spec, data):
    """Reference linear loop: n x d gradient temporary and the full loss every epoch.

    Returns the weights and bias, or the DivergenceError message.
    """
    hinge = spec.kind == "linear_svm"
    X = data.X
    y = data.y.astype(float)
    w = np.zeros(X.shape[1])
    b = 0.0
    for epoch in range(spec.epochs):
        with np.errstate(over="ignore", invalid="ignore"):
            margin = y * (X @ w + b)
            if hinge:
                loss = np.mean(np.maximum(0.0, 1.0 - margin)) + spec.l2_penalty * (w @ w)
                coeff = y * ((1.0 - margin) > 0.0)
            else:
                loss = np.mean(np.logaddexp(0.0, -margin)) + spec.l2_penalty * (w @ w)
                coeff = y * masked_sigmoid(-margin)
        if not np.isfinite(loss):
            return f"non-finite loss at epoch {epoch}"
        with np.errstate(over="ignore", invalid="ignore"):
            gw = -(X * coeff[:, None]).mean(axis=0) + 2.0 * spec.l2_penalty * w
            gb = -coeff.mean()
            w = w - spec.learning_rate * gw
            b = b - spec.learning_rate * gb
    return np.r_[w, b]


def reference_mlp_epochs(spec, data):
    """Reference MLP loop: separate tensors and one Adam update per tensor.

    Yields the layers and the logits of the whole sample after every epoch.
    """
    X = data.X
    y = data.y.astype(float)
    n = X.shape[0]
    rng = np.random.default_rng(spec.seed)
    dims = [X.shape[1], *spec.hidden_layers, 1]
    params = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.append([rng.uniform(-limit, limit, size=(fan_in, fan_out)), np.zeros(fan_out)])
    m_state = [[np.zeros_like(W), np.zeros_like(b)] for W, b in params]
    v_state = [[np.zeros_like(W), np.zeros_like(b)] for W, b in params]
    rng = np.random.default_rng(derive_seed(spec.seed, "mlp-batches"))
    step = 0
    for _ in range(spec.epochs):
        order = rng.permutation(n)
        for start in range(0, n, 128):
            idx = order[start:start + 128]
            xb, yb = X[idx], y[idx]
            acts = [xb]
            for W, b in params[:-1]:
                acts.append(np.maximum(acts[-1] @ W + b, 0.0))
            logits = (acts[-1] @ params[-1][0] + params[-1][1])[:, 0]
            delta = ((-yb * masked_sigmoid(-yb * logits)) / len(idx))[:, None]
            grads = [None] * len(params)
            for li in range(len(params) - 1, -1, -1):
                W = params[li][0]
                grads[li] = (acts[li].T @ delta + 2.0 * spec.l2_penalty * W, delta.sum(axis=0))
                if li > 0:
                    delta = (delta @ W.T) * (acts[li] > 0.0)
            step += 1
            c1 = 1.0 - 0.9 ** step
            c2 = 1.0 - 0.999 ** step
            for li, pair in enumerate(grads):
                for slot, g in enumerate(pair):
                    m_state[li][slot] = 0.9 * m_state[li][slot] + (1 - 0.9) * g
                    v_state[li][slot] = 0.999 * v_state[li][slot] + (1 - 0.999) * g * g
                    upd = (m_state[li][slot] / c1) / (np.sqrt(v_state[li][slot] / c2) + 1e-8)
                    params[li][slot] = params[li][slot] - spec.learning_rate * upd
        Z = X
        for W, b in params[:-1]:
            Z = np.maximum(Z @ W + b, 0.0)
        yield params, (Z @ params[-1][0] + params[-1][1])[:, 0]


def reference_train_mlp(spec, data):
    """The layers reference_mlp_epochs ends with, or the DivergenceError
    message at the first epoch whose full loss is not finite."""
    y = data.y.astype(float)
    for epoch, (params, logits) in enumerate(reference_mlp_epochs(spec, data)):
        if not np.isfinite(np.mean(np.logaddexp(0.0, -y * logits))):
            return f"non-finite loss at epoch {epoch}"
    return params


def divergence_message(fit, *args):
    """The DivergenceError message of fit(*args), or None if it returns."""
    try:
        fit(*args)
    except DivergenceError as exc:
        return str(exc)
    return None


def mlp_overflow_cases(spec, data):
    """Which hard cases of the divergence check the reference fit meets: an
    epoch whose loss is finite although some |logit| exceeds float max / (2 (n + 1)),
    so any bound on |logit| does too, and how the first non-finite loss comes."""
    y = data.y.astype(float)
    cap = sys.float_info.max / (2.0 * (data.n + 1))
    cases = set()
    for params, logits in reference_mlp_epochs(spec, data):
        if not np.isfinite(np.mean(np.logaddexp(0.0, -y * logits))):
            finite = all(np.all(np.isfinite(t)) for layer in params for t in layer)
            cases.add("finite weights, non-finite loss" if finite else "non-finite weights")
            break
        if np.max(np.abs(logits)) > cap:
            cases.add("logits above the cap, finite loss")
    return cases


class TestTrainingOracles:
    """The training loops against test-local copies of their plain forms."""

    def test_sigmoid_bit_equal(self):
        z = np.concatenate([
            np.linspace(-800.0, 800.0, 20001), np.geomspace(1e-300, 800.0, 2000),
            -np.geomspace(1e-300, 800.0, 2000), [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324],
        ])
        got, want = sigmoid(z), masked_sigmoid(z)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.isnan(sigmoid(np.nan))
        assert np.all(np.isnan(sigmoid(np.array([np.nan, -np.nan]))))

    @pytest.mark.parametrize("spec", [
        rl.ModelSpec.mlp(epochs=6, seed=2),
        rl.ModelSpec.mlp(hidden_layers=(10, 10, 5), learning_rate=1e-2, epochs=4,
                         l2_penalty=1e-2, seed=7),
        # width-1 hidden layers back-propagate a width-1 delta
        rl.ModelSpec.mlp(hidden_layers=(1,), learning_rate=1e-2, epochs=5, seed=4),
        rl.ModelSpec.mlp(hidden_layers=(3, 1), learning_rate=1e-2, epochs=5, seed=5),
    ], ids=["16-16", "10-10-5", "1", "3-1"])
    def test_mlp_weights_equal(self, spec):
        data = rl.synth_base(1080, 3)
        model = rl.train(spec, data)
        want = reference_train_mlp(spec, data)
        for (W, b), (W0, b0) in zip(model.layers, want, strict=True):
            assert np.array_equal(W, W0) and np.array_equal(b, b0)

    @pytest.mark.parametrize("spec", [rl.ModelSpec.logistic(), rl.ModelSpec.svm()],
                             ids=["logistic", "svm"])
    def test_linear_weights_agree(self, spec):
        data = rl.synth_base(4500, 1)
        model = rl.train(spec, data)
        got = np.r_[model.weight_vector, model.bias]
        np.testing.assert_allclose(got, reference_train_linear(spec, data), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spec, want", [
        (rl.ModelSpec.logistic(),
         ["0x1.1ab3e94c158d9p+2", "0x1.165a33b50e713p+2", "0x1.028a5dec4b19dp-6"]),
        (rl.ModelSpec.svm(),
         ["0x1.21584a09d20d6p+1", "0x1.1b585a135ef38p+1", "0x1.3e36b450a54bfp-7"]),
    ], ids=["logistic", "svm"])
    def test_linear_weights_pinned(self, spec, want):
        # w0, w1 and b to the last bit
        model = rl.train(spec, rl.synth_base(4500, 1))
        assert [float(v).hex() for v in np.r_[model.weight_vector, model.bias]] == want

    def test_divergence_epoch_matches(self):
        data = rl.synth_base(300, 1)
        # features of 1e100 make the same fit diverge at an earlier epoch
        scaled = rl.Dataset(data.schema, data.X * 1e100, data.y)
        epochs, seen = set(), set()
        for kind in ("logistic_regression", "linear_svm"):
            for lr in (1.0, 1e5, 1e50, 1e100, 1e150, 1e160, 1e200, 1e300):
                for l2 in (0.0, 1e-4, 1.0, 1e3):
                    spec = rl.ModelSpec(kind, learning_rate=lr, epochs=40, l2_penalty=l2)
                    want = reference_train_linear(spec, data)
                    if isinstance(want, str):
                        with pytest.raises(DivergenceError) as info:
                            rl.train(spec, data)
                        assert str(info.value) == want, (kind, lr, l2)
                        epochs.add(int(want.rsplit(" ", 1)[1]))
                    else:
                        rl.train(spec, data)
                    # stacked, the first diverging fit in order names its own epoch
                    wants = {"data": want, "scaled": reference_train_linear(spec, scaled)}
                    wants = {name: w if isinstance(w, str) else None for name, w in wants.items()}
                    for order in (("data", "scaled"), ("scaled", "data")):
                        sets = [{"data": data, "scaled": scaled}[name] for name in order]
                        first = next((wants[name] for name in order if wants[name]), None)
                        assert divergence_message(train_many, spec, sets) == first, (kind, lr, l2)
                    if wants["data"] and wants["scaled"] and wants["data"] != wants["scaled"]:
                        seen.add("a later fit diverges at an earlier epoch")
                    if wants["scaled"] and not wants["data"]:
                        seen.add("only the second fit diverges")
        assert len(epochs) >= 3 and min(epochs) >= 1
        assert seen == {"a later fit diverges at an earlier epoch", "only the second fit diverges"}

    @pytest.mark.parametrize("spec", [
        rl.ModelSpec.logistic(epochs=60, seed=3),
        rl.ModelSpec.svm(epochs=60, seed=3),
        rl.ModelSpec.mlp(hidden_layers=(8,), learning_rate=1e-2, epochs=3, seed=3),
    ], ids=["logistic", "svm", "mlp"])
    def test_stacked_fits_equal_lone_fits(self, spec, monkeypatch):
        # consecutive runs of one row count stack; a size may come back later
        data = rl.synth_base(700, 4)
        sizes = (400, 400, 399, 399, 400)
        sets = [data.subset(np.arange(i, i + size)) for i, size in zip(range(0, 50, 10), sizes)]
        stacked_fits = []
        for name in ("_train_linear", "_train_mlp"):
            real = getattr(models, name)
            monkeypatch.setattr(models, name, lambda spec, group, *args, real=real, **kwargs: (
                stacked_fits.append(len(group)) or real(spec, group, *args, **kwargs)))
        got = train_many(spec, sets)
        assert stacked_fits == [2, 2, 1]
        for model, fit_data in zip(got, sets, strict=True):
            if spec.kind == "mlp":
                wants = [rl.train(spec, fit_data).layers, reference_train_mlp(spec, fit_data)]
            else:
                wants = [rl.train(spec, fit_data).layers]
                np.testing.assert_allclose(np.r_[model.weight_vector, model.bias],
                                           reference_train_linear(spec, fit_data), rtol=1e-12, atol=0)
            for want in wants:
                for (W, b), (W0, b0) in zip(model.layers, want, strict=True):
                    assert np.array_equal(W, W0) and np.array_equal(b, b0)

    # diverging fits overflow on the way to a non-finite loss
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_mlp_divergence_epoch_matches(self):
        base = rl.synth_base(300, 1)
        # features of 1e100 make |X| as large a part of the logits as the weights
        scaled = rl.Dataset(base.schema, base.X * 1e100, base.y)
        seen = set()
        for data, lr, l2 in itertools.product(
            (base, scaled), (1.0, 1e50, 1e100, 3e101, 4e101, 5e101, 1e150, 1e200, 1e300),
            (0.0, 1e-4, 1.0),
        ):
            spec = rl.ModelSpec.mlp(learning_rate=lr, epochs=3, l2_penalty=l2, seed=2)
            _, sets = cv_training_sets(data, 4, spec.seed)
            wants = []
            for fit_data in (data, *sets):
                want = reference_train_mlp(spec, fit_data)
                wants.append(want if isinstance(want, str) else None)
                seen |= mlp_overflow_cases(spec, fit_data)
            lone, folds = wants[0], wants[1:]
            assert divergence_message(rl.train, spec, data) == lone, (lr, l2)
            # the first diverging fold names its own epoch
            first = next((want for want in folds if want), None)
            assert divergence_message(train_many, spec, sets) == first, (lr, l2)
            if first and not folds[0]:
                seen.add("first diverging fold after fold 0")
        assert seen == {"logits above the cap, finite loss", "finite weights, non-finite loss",
                        "non-finite weights", "first diverging fold after fold 0"}

    def test_mlp_divergence_warns_nothing(self):
        # lr 1e300 overflows the first batch step's forward pass
        spec = rl.ModelSpec.mlp(hidden_layers=(4,), learning_rate=1e300, epochs=20, seed=1)
        data = rl.synth_base(400, 0)
        _, sets = cv_training_sets(data, 5, spec.seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fit, arg in ((rl.train, data), (train_many, sets)):
                with pytest.raises(DivergenceError, match="^non-finite loss at epoch 0$"):
                    fit(spec, arg)

    def test_mlp_epoch_runs_no_full_forward_pass(self, monkeypatch):
        calls = []

        def counting_forward(params, X):
            calls.append(X.shape[-2])
            return forward(params, X)

        forward = models._mlp_forward
        monkeypatch.setattr(models, "_mlp_forward", counting_forward)
        spec = rl.ModelSpec.mlp(epochs=5, seed=2)
        rl.train(spec, rl.synth_base(300, 1))
        assert calls == [128, 128, 44] * 5
        calls.clear()
        _, sets = cv_training_sets(rl.synth_base(300, 1), 4, spec.seed)
        train_many(spec, sets)
        assert calls == [128, 97] * 5


# Run in a fresh interpreter under one OpenBLAS kernel: prints the kernel's
# name, or "?" where the library does not say, once train_many on 10 CV folds
# has matched lone `train` calls bit for bit and the test-local references.
KERNEL_CHECK = """
import ctypes, glob, os
import numpy as np
import recourse_lab as rl
from test_models import (cv_training_sets, reference_train_linear, reference_train_mlp,
                         train_many)

data = rl.synth_base(600, 2)
for spec in (rl.ModelSpec.logistic(epochs=50), rl.ModelSpec.svm(epochs=50),
             rl.ModelSpec.mlp(hidden_layers=(4,), learning_rate=1e-2, epochs=2)):
    _, sets = cv_training_sets(data, 10, spec.seed)
    for model, fit_data in zip(train_many(spec, sets), sets, strict=True):
        if spec.kind == "mlp":
            wants = [rl.train(spec, fit_data).layers, reference_train_mlp(spec, fit_data)]
        else:
            wants = [rl.train(spec, fit_data).layers]
            np.testing.assert_allclose(np.r_[model.weight_vector, model.bias],
                                       reference_train_linear(spec, fit_data), rtol=1e-12, atol=0)
        for want in wants:
            for (W, b), (W0, b0) in zip(model.layers, want, strict=True):
                assert np.array_equal(W, W0) and np.array_equal(b, b0), spec.kind
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) if libs else None
if corename is None:
    print("?")
else:
    corename.restype = ctypes.c_char_p
    print(corename().decode())
"""


def openblas_dynamic_arch() -> bool:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


@pytest.mark.skipif(not openblas_dynamic_arch() or platform.machine() not in ("x86_64", "AMD64"),
                    reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH")
def test_stacked_fits_equal_lone_fits_under_every_kernel(fresh_env):
    tests = str(Path(__file__).resolve().parent)
    cores = []
    for coretype in ("Prescott", "Sandybridge", "Haswell", "SkylakeX"):
        env = {**fresh_env, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join((fresh_env["PYTHONPATH"], tests))}
        proc = subprocess.run([sys.executable, "-c", KERNEL_CHECK], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (coretype, proc.stderr)
        cores.append(proc.stdout.strip())
    # a CPU without AVX-512 may run another kernel for SkylakeX, but never
    # the same one for Prescott and Haswell
    assert "?" in cores or len(set(cores)) >= 3, cores


class TestModelSpec:
    def test_mlp_needs_hidden_layers(self):
        with pytest.raises(ValueError):
            rl.ModelSpec("mlp")

    def test_linear_takes_no_hidden_layers(self):
        with pytest.raises(ValueError):
            rl.ModelSpec("logistic_regression", hidden_layers=(4,))

    def test_rate_and_epochs(self):
        with pytest.raises(ValueError):
            rl.ModelSpec("logistic_regression", learning_rate=0.0)
        with pytest.raises(ValueError):
            rl.ModelSpec("logistic_regression", epochs=0)
        with pytest.raises(ValueError):
            rl.ModelSpec("logistic_regression", l2_penalty=-1.0)
        for field in ("learning_rate", "l2_penalty"):
            for value in (np.nan, np.inf):
                with pytest.raises(ValueError, match=field):
                    rl.ModelSpec("logistic_regression", **{field: value})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            rl.ModelSpec("random_forest")


class TestTraining:
    def test_logistic_fits_noise_free_rule(self, synth10k, logistic10k):
        # oracle: labels come from an exact linear rule, so near-perfect
        # training accuracy is attainable
        assert rl.accuracy(logistic10k, synth10k) >= 99.0

    def test_svm_fits_noise_free_rule(self):
        data = rl.synth_base(4000, 3)
        model = rl.train(rl.ModelSpec.svm(), data)
        assert rl.accuracy(model, data) >= 99.0

    def test_mlp_fits_noise_free_rule(self):
        data = rl.synth_base(4000, 3)
        model = rl.train(rl.ModelSpec.mlp(epochs=40, seed=1), data)
        assert rl.accuracy(model, data) >= 98.0

    def test_deterministic_parameters(self):
        data = rl.synth_base(500, 2)
        for spec in (rl.ModelSpec.logistic(epochs=50),
                     rl.ModelSpec.svm(epochs=50),
                     rl.ModelSpec.mlp(epochs=5, seed=3)):
            a, b = rl.train(spec, data), rl.train(spec, data)
            for (Wa, ba), (Wb, bb) in zip(a.layers, b.layers):
                assert np.array_equal(Wa, Wb) and np.array_equal(ba, bb)

    def test_single_class_rejected(self):
        schema = schema2()
        X = np.random.default_rng(0).standard_normal((10, 2))
        data = rl.Dataset(schema, X, np.ones(10, dtype=int))
        with pytest.raises(TrainingError):
            rl.train(rl.ModelSpec.logistic(), data)

    def test_divergence_names_epoch(self):
        from recourse_lab.errors import DivergenceError

        data = rl.synth_base(300, 1)
        # a step this large overflows the penalty term on the first update
        spec = rl.ModelSpec.logistic(learning_rate=1e160, epochs=3)
        with pytest.raises(DivergenceError, match="epoch"):
            rl.train(spec, data)


class TestDecisionGeometry:
    def test_linear_closed_form(self):
        m = rl.linear_model([2.0, 0.0], -1.0, schema2())
        assert m.decision_values(np.array([[1.0, 1.0]]))[0] == pytest.approx(1.0)

    def test_boundary_point(self):
        m = rl.linear_model([1.0, 1.0], 0.0, schema2())
        assert m.decision_values(np.array([[0.0, 0.0]]))[0] == 0.0
        assert m.predict(np.array([0.0, 0.0])) == 1  # ties go positive

    def test_zero_mlp_scores_zero(self):
        spec = rl.ModelSpec.mlp(hidden_layers=(4,), seed=0)
        layers = ((np.zeros((2, 4)), np.zeros(4)), (np.zeros((4, 1)), np.zeros(1)))
        m = rl.TrainedModel(spec, schema2(), layers)
        pts = np.random.default_rng(1).standard_normal((20, 2))
        assert np.all(m.decision_values(pts) == 0.0)

    def test_sign_rule(self):
        m = rl.linear_model([1.0, 1.0], 0.0, schema2())
        assert m.predict(np.array([1.0, 1.0])) == 1
        assert m.predict(np.array([-1.0, -1.0])) == -1

    def test_sign_consistency_property(self, logistic10k):
        pts = np.random.default_rng(3).standard_normal((200, 2)) * 2
        f = logistic10k.decision_values(pts)
        preds = logistic10k.predict(pts)
        assert np.array_equal(preds == 1, f >= 0.0)

    def test_wrong_dimension(self):
        m = rl.linear_model([1.0, 1.0], 0.0, schema2())
        with pytest.raises(SchemaMismatchError):
            m.predict(np.array([1.0]))
        with pytest.raises(SchemaMismatchError):
            m.decision_values(np.array([1.0, 1.0]))

    def test_non_finite_vector(self):
        m = rl.linear_model([1.0, 1.0], 0.0, schema2())
        with pytest.raises(ValueError, match="finite"):
            m.predict(np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch_row_named(self, bad):
        m = rl.linear_model([1.0, 1.0], 0.0, schema2())
        with pytest.raises(ValueError, match="^input vector must be finite$"):
            m.predict([bad, 1.0])
        with pytest.raises(ValueError, match="^input row 0 must be finite$"):
            m.predict([[bad, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="^input row 1 must be finite$"):
            m.predict([[1.0, 1.0], [1.0, bad], [bad, bad]])
        # the shape check comes first
        with pytest.raises(SchemaMismatchError):
            m.predict([[bad, 1.0, 1.0]])

    def test_empty_batch(self):
        m = rl.linear_model([1.0, 1.0], 0.0, schema2())
        labels = m.predict(np.empty((0, 2)))
        assert labels.shape == (0,)
        with pytest.raises(SchemaMismatchError):
            m.predict(np.empty((0, 3)))


@pytest.fixture(scope="module")
def mlp3000():
    return rl.train(rl.ModelSpec.mlp(hidden_layers=(10, 10, 5), epochs=30, seed=2),
                    rl.synth_base(3000, 1))


class TestNumericGradient:
    @pytest.mark.parametrize("kind", ["logistic_regression", "linear_svm"])
    def test_linear_input_gradient_is_weight_vector(self, kind):
        m = rl.linear_model([3.0, -2.0], 0.5, schema2(), kind=kind)
        pts = np.random.default_rng(4).standard_normal((25, 2)) * 3
        g = m.input_gradient(pts)
        assert g.shape == (25, 2)
        assert all(np.array_equal(row, m.weight_vector) for row in g)

    def test_mlp_matches_backprop_oracle(self, mlp3000):
        pts = np.random.default_rng(0).standard_normal((100, 2)) * 2
        grads = mlp3000.input_gradient(pts)
        for x, g in zip(pts, grads):
            ana = backprop_input_gradient(mlp3000, x)
            assert np.linalg.norm(g - ana) <= 1e-12 * max(np.linalg.norm(ana), 1e-12)

    def test_batch_matches_single_rows(self, mlp3000):
        pts = np.random.default_rng(1).standard_normal((40, 2)) * 2
        for method in (mlp3000.input_gradient, mlp3000.decision_values):
            batch = method(pts)
            for x, want in zip(pts, batch):
                assert np.array_equal(method(x[None, :])[0], want)

    def test_matches_central_difference_away_from_kinks(self, mlp3000):
        h = 1e-4
        pts = np.random.default_rng(2).standard_normal((300, 2)) * 2
        # a point is away from every kink when no unit switches within h along any axis
        masks = relu_masks(mlp3000, pts)
        smooth = np.ones(len(pts), dtype=bool)
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            for shifted in (pts + e, pts - e):
                smooth &= np.all(relu_masks(mlp3000, shifted) == masks, axis=1)
        assert smooth.sum() >= 250
        num = central_difference(mlp3000, pts[smooth], h)
        ana = mlp3000.input_gradient(pts[smooth])
        rel = np.linalg.norm(num - ana, axis=1) / np.maximum(np.linalg.norm(ana, axis=1), 1e-12)
        assert rel.max() <= 1e-4

    def test_wrong_shape_raises(self, mlp3000):
        m = rl.linear_model([1.0, 0.0], 0.0, schema2())
        for model in (m, mlp3000):
            for bad in (np.zeros(2), np.zeros((3, 3)), np.zeros((2, 2, 1))):
                with pytest.raises(SchemaMismatchError):
                    model.input_gradient(bad)


class TestParallelPerturb:
    def test_zero_magnitude_is_identity(self, logistic10k):
        pts = np.random.default_rng(5).standard_normal((100, 2))
        m2 = rl.parallel_perturb(logistic10k, 0.0)
        assert np.array_equal(m2.predict(pts), logistic10k.predict(pts))

    def test_flip_geometry(self):
        m = rl.linear_model([1.0, 0.0], 0.0, schema2())
        m2 = rl.parallel_perturb(m, 0.25)
        assert m.predict(np.array([0.1, 0.0])) == 1
        assert m2.predict(np.array([0.1, 0.0])) == -1
        assert m2.predict(np.array([0.3, 0.0])) == 1

    def test_distance_shift_exact(self, logistic10k):
        w = logistic10k.weight_vector
        norm = np.linalg.norm(w)
        m2 = rl.parallel_perturb(logistic10k, 0.25)
        pts = np.random.default_rng(6).standard_normal((100, 2))
        d1 = (pts @ w + logistic10k.bias) / norm
        d2 = (pts @ m2.weight_vector + m2.bias) / norm
        assert np.max(np.abs(d2 - (d1 - 0.25))) <= 1e-12

    @given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_composition(self, a, b):
        m = rl.linear_model([1.5, -0.5], 0.3, schema2())
        two_step = rl.parallel_perturb(rl.parallel_perturb(m, a), b)
        one_step = rl.parallel_perturb(m, a + b)
        assert np.allclose(two_step.bias, one_step.bias, atol=1e-12)
        assert np.array_equal(two_step.weight_vector, one_step.weight_vector)

    def test_zero_weights_rejected(self):
        m = rl.linear_model([0.0, 0.0], -1.0, schema2())
        with pytest.raises(ValueError):
            rl.parallel_perturb(m, 0.1)

    def test_mlp_rejected(self):
        data = rl.synth_base(300, 0)
        m = rl.train(rl.ModelSpec.mlp(hidden_layers=(4,), epochs=2), data)
        with pytest.raises(UnsupportedModelError):
            rl.parallel_perturb(m, 0.1)


class TestCrossVal:
    def test_logistic_high_cv(self, synth10k):
        assert rl.cross_val_accuracy(rl.ModelSpec.logistic(), synth10k, 10) >= 99.0

    def test_constant_predictor_base_rate(self):
        data = rl.synth_base(4000, 8)
        constant = rl.linear_model([0.0, 0.0], -1.0, data.schema)
        assert np.all(constant.predict(data.X) == -1)
        assert rl.accuracy(constant, data) == pytest.approx(50.0, abs=2.0)

    def test_k_validation(self, synth10k):
        with pytest.raises(ValueError):
            rl.cross_val_accuracy(rl.ModelSpec.logistic(), synth10k, 1)

    def test_range(self):
        data = rl.synth_base(300, 2)
        acc = rl.cross_val_accuracy(rl.ModelSpec.logistic(epochs=50), data, 3)
        assert 0.0 <= acc <= 100.0


def cv_training_sets(data, k, seed):
    """The k training sets of cross_val_accuracy's folds, in fold order."""
    rng = np.random.default_rng(derive_seed(seed, "cv-folds", data.n, k))
    folds = np.array_split(rng.permutation(data.n), k)
    return folds, [data.subset(np.setdiff1d(np.arange(data.n), fold)) for fold in folds]


def reference_cross_val(spec, data, k):
    """A loop of `train` calls, one per fold: the mean held-out accuracy, or the
    first failing fold with its exception type and message."""
    folds, sets = cv_training_sets(data, k, spec.seed)
    scores = []
    for i, (fold, fold_data) in enumerate(zip(folds, sets)):
        try:
            model = rl.train(spec, fold_data)
        except TrainingError as exc:
            return i, type(exc), str(exc)
        scores.append(rl.accuracy(model, data.subset(fold)))
    return float(np.mean(scores))


def cross_val_outcome(spec, data, k):
    try:
        return rl.cross_val_accuracy(spec, data, k)
    except TrainingError as exc:
        return type(exc), str(exc)


class TestStackedFolds:
    """MLP folds of one size train as one stacked model, equal to separate fits."""

    @pytest.mark.parametrize("spec", [
        rl.ModelSpec.mlp(epochs=6, seed=2),
        rl.ModelSpec.mlp(hidden_layers=(10, 10, 5), learning_rate=1e-2, epochs=4,
                         l2_penalty=1e-2, seed=7),
    ], ids=["16-16", "10-10-5"])
    @pytest.mark.parametrize("n, k", [(1000, 5), (1003, 5)], ids=["one-size", "two-sizes"])
    def test_weights_equal_separate_fits(self, spec, n, k):
        _, sets = cv_training_sets(rl.synth_base(n, 3), k, spec.seed)
        assert len({fold_data.n for fold_data in sets}) == (1 if n % k == 0 else 2)
        stacked = train_many(spec, sets)
        for model, fold_data in zip(stacked, sets, strict=True):
            for want in (rl.train(spec, fold_data).layers, reference_train_mlp(spec, fold_data)):
                for (W, b), (W0, b0) in zip(model.layers, want, strict=True):
                    assert np.array_equal(W, W0) and np.array_equal(b, b0)

    @pytest.mark.parametrize("spec", [
        rl.ModelSpec.mlp(hidden_layers=(8,), learning_rate=1e-2, epochs=5, seed=4),
        rl.ModelSpec.logistic(epochs=40, seed=4),
    ], ids=["mlp", "logistic"])
    @pytest.mark.parametrize("n, k", [(600, 4), (601, 7)], ids=["one-size", "two-sizes"])
    def test_cross_val_equals_fold_loop(self, spec, n, k):
        data = rl.synth_base(n, 5)
        assert rl.cross_val_accuracy(spec, data, k) == reference_cross_val(spec, data, k)

    # diverging fits overflow on the way to a non-finite loss
    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_first_failing_fold_raises_as_in_fold_loop(self):
        base = rl.synth_base(300, 1)
        # one -1 row: the training set of the fold that holds it has a single class
        lone = rl.Dataset(base.schema, base.X, np.where(np.arange(300) == 17, -1, 1))
        failing = {TrainingError: set(), DivergenceError: set()}
        for data in (base, lone):
            for lr in (1e-2, *np.geomspace(1e101, 1e103, 9)):
                for seed, k in ((2, 4), (3, 7)):
                    spec = rl.ModelSpec.mlp(learning_rate=lr, epochs=2, seed=seed)
                    want = reference_cross_val(spec, data, k)
                    if isinstance(want, tuple):
                        failing[want[1]].add(want[0])
                        want = want[1:]
                    assert cross_val_outcome(spec, data, k) == want, (lr, seed, k)
        # both kinds of failure, at the first fold and at a later one
        assert all(min(folds) == 0 and max(folds) > 0 for folds in failing.values()), failing

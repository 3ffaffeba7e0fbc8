"""From-scratch binary classifiers: logistic regression, linear SVM, and a ReLU MLP.

Every model exposes a signed decision value whose sign is the predicted class
(ties go to +1), exact input gradients, and, for the
linear kinds, an exact parallel translation of the decision boundary.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dataset import Dataset, FeatureSchema
from .errors import (
    DivergenceError,
    SchemaMismatchError,
    TrainingError,
    UnsupportedModelError,
)
from .util import derive_seed, sigmoid

MODEL_KINDS = ("logistic_regression", "linear_svm", "mlp")

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_MLP_BATCH = 128
# a forward pass runs on a multiple of this many rows (see TrainedModel._forward)
_ROW_BLOCK = 4


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    hidden_layers: tuple[int, ...] = ()
    learning_rate: float = 0.1
    epochs: int = 300
    l2_penalty: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(self.hidden_layers))
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind: unknown model kind {self.kind!r}")
        if self.kind == "mlp":
            if not self.hidden_layers:
                raise ValueError("hidden_layers: mlp needs at least one hidden layer")
        elif self.hidden_layers:
            raise ValueError(f"hidden_layers: {self.kind} takes no hidden layers")
        if any(w < 1 for w in self.hidden_layers):
            raise ValueError("hidden_layers: widths must be positive")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate: must be positive and finite")
        if self.epochs < 1:
            raise ValueError("epochs: must be at least 1")
        if not 0 <= self.l2_penalty < math.inf:
            raise ValueError("l2_penalty: must be nonnegative and finite")
        if self.seed < 0:
            raise ValueError(f"seed: must be a nonnegative integer, got {self.seed}")

    @classmethod
    def logistic(cls, learning_rate=0.5, epochs=300, l2_penalty=1e-4, seed=0):
        return cls("logistic_regression", (), learning_rate, epochs, l2_penalty, seed)

    @classmethod
    def svm(cls, learning_rate=0.1, epochs=300, l2_penalty=1e-3, seed=0):
        return cls("linear_svm", (), learning_rate, epochs, l2_penalty, seed)

    @classmethod
    def mlp(cls, hidden_layers=(16, 16), learning_rate=1e-3, epochs=60, l2_penalty=1e-4, seed=0):
        return cls("mlp", tuple(hidden_layers), learning_rate, epochs, l2_penalty, seed)


def _mlp_forward(params, X):
    """(each layer's input, decision values) of (W, b) layers on a batch X,
    or on k stacked batches when every W and b carries a leading k axis."""
    acts = [X]
    Z = X
    for W, b in params[:-1]:
        Z = np.maximum(Z @ W + b, 0.0)
        acts.append(Z)
    W, b = params[-1]
    return acts, (Z @ W + b)[..., 0]


@dataclass(frozen=True, eq=False)
class TrainedModel:
    """Layered weights; a single (d, 1) layer for the linear kinds."""

    spec: ModelSpec
    schema: FeatureSchema
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        frozen = []
        in_dim = self.schema.n_features
        for W, b in self.layers:
            W = np.asarray(W, dtype=float)
            b = np.asarray(b, dtype=float)
            if W.ndim != 2 or b.ndim != 1 or W.shape[1] != b.shape[0] or W.shape[0] != in_dim:
                raise ValueError(f"inconsistent layer shapes W{W.shape} b{b.shape} (in={in_dim})")
            in_dim = W.shape[1]
            W.flags.writeable = False
            b.flags.writeable = False
            frozen.append((W, b))
        if in_dim != 1:
            raise ValueError("final layer must produce a single score")
        expected = len(self.spec.hidden_layers) + 1
        if len(frozen) != expected:
            raise ValueError(f"expected {expected} layers for spec, got {len(frozen)}")
        object.__setattr__(self, "layers", tuple(frozen))

    @property
    def is_linear(self) -> bool:
        return self.spec.kind != "mlp"

    @property
    def weight_vector(self) -> np.ndarray:
        if not self.is_linear:
            raise UnsupportedModelError("weight_vector is defined for linear kinds only")
        return self.layers[0][0][:, 0]

    @property
    def bias(self) -> float:
        if not self.is_linear:
            raise UnsupportedModelError("bias is defined for linear kinds only")
        return float(self.layers[0][1][0])

    def _checked(self, X) -> np.ndarray:
        """X as a float batch, or SchemaMismatchError unless it is (n, n_features)."""
        Z = np.asarray(X, dtype=float)
        if Z.ndim != 2 or Z.shape[1] != self.schema.n_features:
            raise SchemaMismatchError(
                f"expected shape (n, {self.schema.n_features}), got {Z.shape}"
            )
        return Z

    def _forward(self, X):
        """One forward pass over a batch: (each layer's input, decision values).

        The batch is padded with zero rows to a multiple of _ROW_BLOCK rows,
        and callers keep the first len(X) rows, because a row's bits must not
        depend on its batch: BLAS sums a one-row matrix product in another
        order than a longer one, and OpenBLAS's matrix-vector kernel sums the
        rows past the last full block of four in yet another.
        """
        Z = self._checked(X)
        pad = -len(Z) % _ROW_BLOCK
        if pad:
            Z = np.concatenate((Z, np.zeros((pad, Z.shape[1]))))
        return _mlp_forward(self.layers, Z)

    def decision_values(self, X) -> np.ndarray:
        """Signed scores for a batch; pre-sigmoid logit for the MLP."""
        return self._forward(X)[1][:len(X)]

    def input_gradient(self, X) -> np.ndarray:
        """Exact gradient of the decision value with respect to each row of X.

        Every kind is piecewise linear, so no step size is involved: the linear
        kinds give w on every row, with no forward pass, and the MLP
        backpropagates through the ReLU masks of one forward pass, taking
        ReLU'(0) = 0.
        """
        if self.is_linear:
            return self.layers[0][0].T.repeat(len(self._checked(X)), axis=0)
        acts, _ = self._forward(X)
        G = self.layers[-1][0].T.repeat(len(acts[0]), axis=0)
        for (W, _), act in zip(reversed(self.layers[:-1]), reversed(acts[1:])):
            G = (G * (act > 0.0)) @ W.T
        return G[:len(X)]

    def predict(self, x):
        """+1 iff the decision value is >= 0; handles single vectors and batches.
        A non-finite input raises ValueError, after the shape check."""
        x = np.asarray(x, dtype=float)
        batch = x[None] if x.ndim == 1 else x
        f = self.decision_values(batch)  # raises SchemaMismatchError first
        bad = np.flatnonzero(~np.isfinite(batch).all(axis=1))
        if bad.size:
            raise ValueError(f"input row {bad[0]} must be finite" if x.ndim == 2
                             else "input vector must be finite")
        return np.where(f >= 0.0, 1, -1) if x.ndim == 2 else (1 if f[0] >= 0.0 else -1)


def linear_model(weights, bias: float, schema: FeatureSchema, kind: str = "logistic_regression") -> TrainedModel:
    """Hand-built linear classifier (surrogates, perturbation targets, test fixtures)."""
    w = np.asarray(weights, dtype=float)
    if kind == "mlp":
        raise ValueError("linear_model builds linear kinds only")
    spec = ModelSpec(kind=kind, seed=0)
    return TrainedModel(spec, schema, ((w[:, None], np.array([float(bias)])),))


def _check_trainable(data: Dataset) -> None:
    if data.n == 0:
        raise TrainingError("cannot train on an empty dataset")
    # labels are -1 or +1, so one comparison does; np.unique would load numpy.ma
    if np.all(data.y == data.y[0]):
        raise TrainingError(f"training data holds a single class ({int(data.y[0]):+d})")


# overflow to inf is exactly what the divergence check looks for
@np.errstate(over="ignore", invalid="ignore")
def _train_linear(spec: ModelSpec, X: np.ndarray, y: np.ndarray, hinge: bool):
    """k linear fits on stacked (k, n, d) X and (k, n) y, as train_many's
    trainers do. Full-batch gradient descent on the mean hinge (SVM) or
    softplus (LR) loss plus the L2 penalty, with _train_mlp's stacking: per
    fit the BLAS calls of a lone fit, so equal weights bit for bit.

    Each epoch writes its sample-sized arrays into (k, n) buffers made once,
    and takes |margin| once for both the divergence check and the logistic
    term, whose y * sigmoid(-margin) it computes from that |margin| with
    util.sigmoid's arithmetic, bit for bit.
    """
    k, n, d = X.shape
    # each fit's weights as a column, so a stacked product is a batch of matrix-vector calls
    w = np.zeros((k, d, 1))
    b = np.zeros((k, 1))
    # Each hinge or softplus term is at most |margin| + 1, so while every
    # |margin| and the penalty of all fits together stay within this limit
    # every loss is finite and the divergence check need not compute one.
    limit = sys.float_info.max / (2.0 * (n + 1))
    margin, abs_margin, coeff = np.empty((3, k, n))
    mask = np.empty((k, n), dtype=bool)
    diverged = {}  # fit -> first epoch with a non-finite loss
    for epoch in range(spec.epochs):
        # margin = y * (X @ w + b)
        np.matmul(X, w, out=margin[..., None])
        margin += b
        margin *= y
        np.abs(margin, out=abs_margin)
        if not (abs_margin.max() <= limit and spec.l2_penalty * np.vdot(w, w) <= limit):
            terms = np.maximum(0.0, 1.0 - margin) if hinge else np.logaddexp(0.0, -margin)
            penalty = spec.l2_penalty * (w.transpose(0, 2, 1) @ w)[:, 0, 0]
            for fit in np.flatnonzero(~np.isfinite(terms.mean(axis=1) + penalty)):
                diverged.setdefault(int(fit), epoch)
            if 0 in diverged:
                break
        if hinge:
            # coeff = y * ((1 - margin) > 0); 1 - margin > 0 exactly when margin < 1
            np.multiply(y, np.less(margin, 1.0, out=mask), out=coeff)
        else:
            # coeff = y * sigmoid(-margin): e = exp(-|margin|), then 1 / (1 + e)
            # where -margin >= 0 and e / (1 + e) elsewhere
            np.exp(np.negative(abs_margin, out=coeff), out=coeff)
            denominator = np.add(coeff, 1.0, out=abs_margin)
            np.copyto(coeff, 1.0, where=np.less_equal(margin, 0.0, out=mask))
            coeff /= denominator
            coeff *= y
        gw = -(X.transpose(0, 2, 1) @ coeff[..., None]) / n + 2.0 * spec.l2_penalty * w
        gb = -(coeff.sum(axis=1, keepdims=True) / n)
        w = w - spec.learning_rate * gw
        b = b - spec.learning_rate * gb
    return [(w, b)], diverged


def _layer_views(flat: np.ndarray, dims: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """(W, b) per layer as (k, fan_in, fan_out) and (k, 1, fan_out) views into
    the rows of one (k, size) array, in layer order."""
    k = flat.shape[0]
    views = []
    start = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        W = flat[:, start:start + fan_in * fan_out].reshape(k, fan_in, fan_out)
        start += fan_in * fan_out
        views.append((W, flat[:, start:start + fan_out].reshape(k, 1, fan_out)))
        start += fan_out
    return views


# overflow to inf is exactly what the divergence check looks for
@np.errstate(over="ignore", invalid="ignore")
def _train_mlp(spec: ModelSpec, X: np.ndarray, y: np.ndarray):
    """k MLP fits on stacked (k, n, d) X and (k, n) y, as train_many's trainers do.

    Every fit gets the initial weights and batch order of a lone fit, since
    both depend only on spec.seed and the row count, and each stacked matmul
    makes per fit the BLAS call of the lone fit's 2-D product, so the weights
    equal those of separate fits bit for bit.

    Each epoch ends with a divergence check that bounds every fit's |logit|
    from its weights and max|X|, and runs the forward pass over the whole
    sample for the loss only when that bound could overflow.
    """
    k, n, d = X.shape
    # A layer maps |input| <= B to |output| <= B * max_j sum_i |W_ij| + max|b|
    # and ReLU does not grow it. Each softplus term is at most |logit| + 1, so
    # while every layer's bound stays within this cap the loss is finite and
    # the divergence check need not compute it.
    cap = sys.float_info.max / (2.0 * (n + 1))
    x_max = np.abs(X).max(axis=(1, 2))
    dims = [d, *spec.hidden_layers, 1]
    size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    # Weights and gradients are views into two (k, size) arrays, so one Adam
    # update covers every tensor of every fit.
    theta = np.zeros((k, size))
    grad = np.empty((k, size))
    params = _layer_views(theta, dims)
    grads = _layer_views(grad, dims)
    init_rng = np.random.default_rng(spec.seed)
    for W, _ in params:
        limit = np.sqrt(6.0 / (W.shape[1] + W.shape[2]))
        W[...] = init_rng.uniform(-limit, limit, size=W.shape[1:])
    m_state = np.zeros((k, size))
    v_state = np.zeros((k, size))
    work = np.empty((k, size))
    update = np.empty((k, size))
    decay = 2.0 * spec.l2_penalty
    rng = np.random.default_rng(derive_seed(spec.seed, "mlp-batches"))
    diverged = {}  # fit -> first epoch with a non-finite loss
    step = 0
    for epoch in range(spec.epochs):
        order = rng.permutation(n)
        X_epoch, y_epoch = X[:, order], y[:, order]
        for start in range(0, n, _MLP_BATCH):
            xb = X_epoch[:, start:start + _MLP_BATCH]
            yb = y_epoch[:, start:start + _MLP_BATCH]
            acts, logits = _mlp_forward(params, xb)
            # d/dlogit of mean softplus(-y * logit)
            delta = ((-yb * sigmoid(-yb * logits)) / yb.shape[1])[..., None]
            for li in range(len(params) - 1, -1, -1):
                W, _ = params[li]
                gW, gb = grads[li]
                np.add(acts[li].transpose(0, 2, 1) @ delta, decay * W, out=gW)
                delta.sum(axis=1, keepdims=True, out=gb)
                if li > 0:
                    delta = (delta @ W.transpose(0, 2, 1)) * (acts[li] > 0.0)
            step += 1
            c1 = 1.0 - _ADAM_BETA1 ** step
            c2 = 1.0 - _ADAM_BETA2 ** step
            # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g, in place
            m_state *= _ADAM_BETA1
            m_state += np.multiply(grad, 1 - _ADAM_BETA1, out=work)
            v_state *= _ADAM_BETA2
            np.multiply(grad, 1 - _ADAM_BETA2, out=work)
            v_state += np.multiply(work, grad, out=work)
            # theta -= lr * ((m / c1) / (sqrt(v / c2) + eps))
            np.divide(v_state, c2, out=work)
            np.sqrt(work, out=work)
            work += _ADAM_EPS
            np.divide(m_state, c1, out=update)
            update /= work
            update *= spec.learning_rate
            theta -= update
        # inf * 0 makes a NaN bound, which fails the cap as it should
        bound = peak = x_max
        for W, b in params:
            bound = bound * np.abs(W).sum(axis=1).max(axis=1) + np.abs(b).max(axis=(1, 2))
            peak = np.maximum(peak, bound)
        if not np.all(peak <= cap):
            _, logits = _mlp_forward(params, X)
            loss = np.mean(np.logaddexp(0.0, -y * logits), axis=1)
            for fit in np.flatnonzero(~np.isfinite(loss)):
                diverged.setdefault(int(fit), epoch)
        if 0 in diverged:
            break
    return [(W, b[:, 0]) for W, b in params], diverged


def train_many(spec: ModelSpec, sets: list[Dataset]) -> list[TrainedModel]:
    """One model per dataset, or the first error of a loop of `train` calls.

    Consecutive datasets of one row count train as one stacked model: a
    trainer takes their (k, n, d) X and (k, n) y and returns each layer's
    (W, b) with the k fits stacked on a leading axis, and {fit: first epoch
    with a non-finite loss}. A trainer may stop once fit 0 diverges, so the
    first diverging fit in order raises DivergenceError with its own epoch.
    The datasets before the first untrainable one train before its
    TrainingError is raised, so an earlier divergence wins, as it does in
    the loop.
    """
    usable, fault = sets, None
    for i, data in enumerate(sets):
        try:
            _check_trainable(data)
        except TrainingError as exc:
            usable, fault = sets[:i], exc
            break
    fit = _train_mlp if spec.kind == "mlp" else partial(_train_linear, hinge=spec.kind == "linear_svm")
    models = []
    for _, group in itertools.groupby(usable, key=lambda data: data.n):
        group = list(group)
        layers, diverged = fit(spec, np.stack([data.X for data in group]),
                               np.stack([data.y for data in group]).astype(float))
        if diverged:
            raise DivergenceError(f"non-finite loss at epoch {diverged[min(diverged)]}")
        models += [
            TrainedModel(spec, data.schema, tuple((W[i].copy(), b[i].copy()) for W, b in layers))
            for i, data in enumerate(group)
        ]
    if fault is not None:
        raise fault
    return models


def train(spec: ModelSpec, data: Dataset) -> TrainedModel:
    """Fit a model; deterministic given (spec, data)."""
    return train_many(spec, [data])[0]


def parallel_perturb(model: TrainedModel, delta_m: float) -> TrainedModel:
    """Translate a linear boundary by delta_m along its unit normal.

    Positive delta_m shrinks the +1 halfspace: every point's signed boundary
    distance drops by exactly delta_m (bias becomes b - delta_m * ||w||).
    """
    if not model.is_linear:
        raise UnsupportedModelError("parallel_perturb requires a linear model kind")
    w = model.weight_vector
    norm = float(np.linalg.norm(w))
    if norm == 0.0:
        raise ValueError("cannot perturb a zero weight vector")
    W, b = model.layers[0]
    return TrainedModel(model.spec, model.schema, ((W, b - delta_m * norm),))


def accuracy(model: TrainedModel, data: Dataset) -> float:
    """Percent agreement between predictions and labels."""
    if data.n == 0:
        raise ValueError("accuracy of an empty dataset is undefined")
    return 100.0 * float(np.mean(model.predict(data.X) == data.y))


def cross_val_accuracy(spec: ModelSpec, data: Dataset, k: int) -> float:
    """Mean held-out accuracy over k seeded, disjoint, near-equal folds, in [0, 100]."""
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    if data.n < k:
        raise ValueError(f"need at least k={k} rows, got {data.n}")
    rng = np.random.default_rng(derive_seed(spec.seed, "cv-folds", data.n, k))
    folds = np.array_split(rng.permutation(data.n), k)
    sets = []
    for fold in folds:
        mask = np.ones(data.n, dtype=bool)
        mask[fold] = False
        sets.append(data.subset(np.flatnonzero(mask)))
    # array_split gives at most two fold sizes, so at most two stacked fits
    models = train_many(spec, sets)
    return float(np.mean([accuracy(m, data.subset(fold)) for m, fold in zip(models, folds)]))

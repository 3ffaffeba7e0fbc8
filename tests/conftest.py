import os
from pathlib import Path

import numpy as np
import pytest

import recourse_lab as rl

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def fresh_env():
    """Environment for a fresh interpreter that finds this package and sets no
    BLAS thread count, which importing recourse_lab.cli in the test process does."""
    src = str(Path(rl.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


@pytest.fixture(scope="session")
def synth10k():
    return rl.synth_base(10000, 7)


@pytest.fixture(scope="session")
def logistic10k(synth10k):
    return rl.train(rl.ModelSpec.logistic(), synth10k)


@pytest.fixture(scope="session")
def ordinal_setup():
    """Unit-grid feature with the boundary halfway between grid points."""
    schema = rl.FeatureSchema((rl.FeatureSpec("level", kind="ordinal", lower=0, upper=80),))
    model = rl.linear_model([1.0], -30.5, schema)
    rng = np.random.default_rng(5)
    values = rng.integers(0, 31, size=6000)[:, None].astype(float)
    data = rl.Dataset(schema, values, np.full(6000, -1))
    return model, data


@pytest.fixture(scope="session")
def curved_mlp_setup():
    """Quadratic label rule plus an MLP fit to it: a moderately curved boundary."""
    rng = np.random.default_rng(42)
    X = rng.standard_normal((6000, 2))
    y = np.where(X[:, 1] - 0.5 * (X[:, 0] ** 2 - 1.0) >= 0.0, 1, -1)
    data = rl.Dataset(rl.synth_base(2, 0).schema, X, y)
    spec = rl.ModelSpec.mlp(hidden_layers=(16, 16), learning_rate=3e-3, epochs=80, seed=0)
    model = rl.train(spec, data)
    return model, data

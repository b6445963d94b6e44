import os

# Tier-1 figures are taken at 1 BLAS thread, and GEMM bits depend on the
# thread count; set before numpy loads, unless the caller chose a count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def central_difference(fn, arrays, h=1e-5):
    """Gradient of scalar ``fn(*arrays)`` by central differences, per array."""
    grads = []
    for target in arrays:
        g = np.zeros_like(target)
        flat = target.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = fn(*arrays)
            flat[idx] = orig - h
            down = fn(*arrays)
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor=1e-6):
    """Elementwise |a - n| / max(|a|, |n|, floor), reduced to the maximum."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())


@pytest.fixture
def fd_grad():
    return central_difference


@pytest.fixture
def rel_err():
    return max_relative_error


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

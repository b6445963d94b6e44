"""Plain-array numeric helpers with hard domain contracts.

These are the non-differentiable counterparts of the autodiff ops; the
analysis and metrics code calls them directly on numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateStatisticsError, DomainError, ShapeError


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max-subtracted) along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise DomainError("softmax of an empty vector is undefined")
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise DomainError("log_softmax of an empty vector is undefined")
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function; exp only sees -|x|, so it never overflows.

    1/(1+e) with e = exp(-x) for x >= 0, e/(1+e) with e = exp(x) otherwise
    (NaN included, so a NaN keeps its sign bit).
    """
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0.0
    e = np.exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))


def pearson(xs: np.ndarray, ys: np.ndarray) -> float:
    """Sample Pearson correlation coefficient of two equally long lists."""
    xs = np.asarray(xs, dtype=np.float64).ravel()
    ys = np.asarray(ys, dtype=np.float64).ravel()
    if xs.shape != ys.shape:
        raise ShapeError(f"pearson needs equal lengths, got {xs.shape} and {ys.shape}")
    if xs.size < 2:
        raise DegenerateStatisticsError("pearson needs at least 2 points")
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    sx = np.linalg.norm(xc)
    sy = np.linalg.norm(yc)
    if sx == 0.0 or sy == 0.0:
        raise DegenerateStatisticsError("pearson is undefined under zero variance")
    return float(np.dot(xc, yc) / (sx * sy))

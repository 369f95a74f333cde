"""Forecast accuracy metrics: RMSE, Pearson and Szekely distance
correlation, and normalization relative to the AR(1) reference."""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateDistanceVarianceError,
    DegenerateVarianceError,
    EmptyInputError,
    LengthMismatchError,
    ZeroBaselineError,
)


def _pair(actuals, predictions) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actuals, dtype=np.float64)
    p = np.asarray(predictions, dtype=np.float64)
    if a.shape != p.shape or a.ndim != 1:
        raise LengthMismatchError(f"shapes {a.shape} and {p.shape} do not match")
    if a.size == 0:
        raise EmptyInputError("empty metric input")
    return a, p


def rmse(actuals, predictions) -> float:
    """Root of the mean squared difference."""
    a, p = _pair(actuals, predictions)
    d = a - p
    return math.sqrt(float(d @ d) / a.size)


def pearson(actuals, predictions) -> float:
    """Pearson correlation with population (1/T) normalization throughout."""
    a, p = _pair(actuals, predictions)
    if a.size < 2:
        raise DegenerateVarianceError("need at least 2 observations")
    da = a - a.mean()
    dp = p - p.mean()
    saa = float(da @ da)
    spp = float(dp @ dp)
    if saa == 0.0 or spp == 0.0:
        raise DegenerateVarianceError("constant input vector")
    r = float(da @ dp) / math.sqrt(saa * spp)
    return min(1.0, max(-1.0, r))


def distance_correlation(actuals, predictions) -> float:
    """Szekely distance correlation (biased V-statistic), O(T^2).

    Pairwise absolute-difference matrices are double-centered (row, column,
    and grand means removed); squared distance covariance is the mean of
    their elementwise product and the result is
    ``sqrt(dCov^2 / sqrt(dVar^2(X) * dVar^2(Y)))``.
    """
    a, p = _pair(actuals, predictions)
    if a.size < 2:
        raise DegenerateDistanceVarianceError("need at least 2 observations")
    ca = _centered_distances(a)
    cp = _centered_distances(p)
    vaa = float(np.mean(ca * ca))
    vpp = float(np.mean(cp * cp))
    if vaa <= 0.0 or vpp <= 0.0:
        raise DegenerateDistanceVarianceError("zero distance variance")
    vap = max(0.0, float(np.mean(ca * cp)))
    return min(1.0, math.sqrt(vap / math.sqrt(vaa * vpp)))


def _centered_distances(x: np.ndarray) -> np.ndarray:
    d = np.abs(x[:, None] - x[None, :])
    return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()


def relative_rmse(model_rmse: float, ar1_rmse: float) -> float:
    """A model's RMSE divided by the AR(1) RMSE on the same node and horizon."""
    if model_rmse < 0:
        raise ValueError(f"negative rmse {model_rmse}")
    if ar1_rmse <= 0.0:
        raise ZeroBaselineError(f"reference rmse must be positive, got {ar1_rmse}")
    return model_rmse / ar1_rmse

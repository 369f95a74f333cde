"""Forecast accuracy metrics: RMSE, Pearson and Szekely distance
correlation, and normalization relative to the AR(1) reference."""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DegenerateDistanceVarianceError,
    DegenerateVarianceError,
    EmptyInputError,
    InvalidSpecError,
    LengthMismatchError,
    MetricOverflowError,
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


_QUIET = dict(over="ignore", invalid="ignore")


def _finite(*values: float) -> None:
    """Raise :class:`MetricOverflowError` unless every value is finite.
    Each metric computes its sums under ``_QUIET`` and checks them here, so
    that huge finite inputs whose arithmetic overflows give that error,
    not numpy's warnings and an inf, NaN or silently wrong value."""
    if not all(map(math.isfinite, values)):
        raise MetricOverflowError("metric arithmetic overflowed")


def _lifted(x: np.ndarray) -> np.ndarray:
    """``x`` times the power of two that lifts its largest magnitude into
    [1, 2) when that is below 1, else ``x``.  The product is exact, so a
    metric that does not depend on scale keeps its value, and its sums
    cannot underflow."""
    top = float(np.max(np.abs(x)))
    return np.ldexp(x, 1 - math.frexp(top)[1]) if 0.0 < top < 1.0 else x


def rmse(actuals, predictions) -> float:
    """Root of the mean squared difference."""
    a, p = _pair(actuals, predictions)
    with np.errstate(**_QUIET):
        d = a - p
        ss = float(d @ d)
    _finite(ss)
    return math.sqrt(ss / a.size)


def pearson(actuals, predictions) -> float:
    """Pearson correlation with population (1/T) normalization throughout:
    the :func:`correlation` of the two inputs, each :func:`centred`."""
    a, p = _pair(actuals, predictions)
    if a.size < 2:
        raise DegenerateVarianceError("need at least 2 observations")
    return correlation(centred(a), centred(p))


def centred(x: np.ndarray) -> tuple[np.ndarray, float]:
    """A float64 vector :func:`_lifted`, less its mean, and its sum of
    squares: one side of a :func:`correlation`."""
    x = _lifted(x)
    with np.errstate(**_QUIET):
        d = x - x.mean()
        return d, float(d @ d)


def correlation(a: tuple[np.ndarray, float], b: tuple[np.ndarray, float]) -> float:
    """Pearson correlation of two :func:`centred` vectors of one length;
    lifting each keeps tiny inputs from underflowing or changing it."""
    (da, saa), (db, sbb) = a, b
    with np.errstate(**_QUIET):
        sab = float(da @ db)
    _finite(saa, sbb, sab, saa * sbb)
    if saa == 0.0 or sbb == 0.0:
        raise DegenerateVarianceError("constant input vector")
    r = sab / math.sqrt(saa * sbb)
    return min(1.0, max(-1.0, r))


def distance_correlation(actuals, predictions) -> float:
    """Szekely distance correlation (biased V-statistic), O(T^2).

    Pairwise absolute-difference matrices are double-centered (row, column,
    and grand means removed); squared distance covariance is the mean of
    their elementwise product and the result is
    ``sqrt(dCov^2 / sqrt(dVar^2(X) * dVar^2(Y)))``.  Each input is first
    :func:`_lifted`, so tiny inputs neither underflow nor change the value.
    """
    a, p = map(_lifted, _pair(actuals, predictions))
    if a.size < 2:
        raise DegenerateDistanceVarianceError("need at least 2 observations")
    with np.errstate(**_QUIET):
        ca = _centered_distances(a)
        cp = _centered_distances(p)
        vaa = float(np.mean(ca * ca))
        vpp = float(np.mean(cp * cp))
        vap = float(np.mean(ca * cp))
    _finite(vaa, vpp, vap, vaa * vpp)
    if vaa <= 0.0 or vpp <= 0.0:
        raise DegenerateDistanceVarianceError("zero distance variance")
    return min(1.0, math.sqrt(max(0.0, vap) / math.sqrt(vaa * vpp)))


def _centered_distances(x: np.ndarray) -> np.ndarray:
    d = np.abs(x[:, None] - x[None, :])
    return d - d.mean(axis=0, keepdims=True) - d.mean(axis=1, keepdims=True) + d.mean()


def relative_rmse(model_rmse: float, ar1_rmse: float) -> float:
    """A model's RMSE divided by the AR(1) RMSE on the same node and horizon."""
    if model_rmse < 0:
        raise InvalidSpecError(f"negative rmse {model_rmse}")
    if ar1_rmse <= 0.0:
        raise ZeroBaselineError(f"reference rmse must be positive, got {ar1_rmse}")
    ratio = model_rmse / ar1_rmse
    _finite(ratio)
    return ratio

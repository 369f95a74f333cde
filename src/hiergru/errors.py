"""Exception and warning types used throughout the package, and the field
rules of every config, which raise :class:`InvalidSpecError`."""

import math
from dataclasses import MISSING, field, fields


class HiergruError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------- hierarchy

class HierarchyError(HiergruError):
    """Invalid index-tree structure."""


class MissingRootError(HierarchyError):
    pass


class MultipleRootsError(HierarchyError):
    pass


class CycleDetectedError(HierarchyError):
    pass


class UnknownParentError(HierarchyError):
    pass


class NegativeWeightError(HierarchyError):
    pass


class NoChildrenError(HierarchyError):
    pass


class MissingWeightError(HierarchyError):
    pass


# ------------------------------------------------------------------ dataset

class NonPositiveLevelError(HiergruError):
    """Raw index level is zero or negative where a log ratio is required."""


class EmptySeriesError(HiergruError):
    pass


class SeriesGapError(HiergruError):
    """A series has an interior gap in its calendar coverage."""


class InvalidSpecError(HiergruError):
    pass


def _is_int(v) -> bool:
    """An int, and not a bool (JSON true/false load as bools)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _number(test, wanted: str) -> tuple:
    """A rule for an int or a finite float (never a bool) passing ``test``."""
    return (lambda v: (_is_int(v) or isinstance(v, float) and math.isfinite(v))
            and test(v), f"a finite number {wanted}")


# (test, wording) pairs for the config field checks below; each rule checks
# the value's kind as well as its range
_POSITIVE = _number(lambda v: v > 0, "> 0")
_NONNEG = _number(lambda v: v >= 0, ">= 0")
_FRACTION = _number(lambda v: 0 < v <= 1, "in (0, 1]")
_INTEGER = (_is_int, "an integer")
_COUNT = (lambda v: _is_int(v) and v >= 1, "an integer >= 1")
_NONNEG_INT = (lambda v: _is_int(v) and v >= 0, "an integer >= 0")
# a checkpoint header stores rho as a u32
_RHO = (lambda v: _is_int(v) and 1 <= v < 2**32, "an integer from 1 to 2**32 - 1")
# exp(alpha + C) stays finite for every correlation C in [-1, 1]
_ALPHA = _number(lambda v: v <= 708, "<= 708")
_OPTIMIZER = (lambda v: v in ("adam", "sgd"), "'adam' or 'sgd'")


def _check_fields(values: dict, **rules) -> None:
    """Raise :class:`InvalidSpecError` naming the first field, in ``rules``
    order, whose value in ``values`` (a config's ``vars``) fails its rule."""
    for name, (ok, wanted) in rules.items():
        if not ok(values[name]):
            raise InvalidSpecError(f"{name} must be {wanted}, got {values[name]!r}")


def _ruled(rule: tuple, default=MISSING):
    """A dataclass field whose value :func:`_check_ruled` checks by ``rule``;
    without a ``default`` the field is required."""
    return field(default=default, metadata={"rule": rule})


def _check_ruled(config) -> None:
    """A config's ``__post_init__``: :func:`_check_fields` over its fields
    declared with :func:`_ruled`, in declaration order."""
    _check_fields(vars(config), **{
        f.name: f.metadata["rule"] for f in fields(config) if "rule" in f.metadata
    })


# ---------------------------------------------------------------- training

class EmptyInputError(HiergruError):
    pass


class ShapeMismatchError(HiergruError):
    pass


class DivergenceError(HiergruError):
    """Training loss became non-finite.

    Carries, as ``last_params``, the parameter vector at which the loss or
    its gradient first turned non-finite.
    """

    def __init__(self, message, last_params=None):
        super().__init__(message)
        self.last_params = last_params

    def at(self, where: str) -> "DivergenceError":
        """This divergence with ``where`` put before its message."""
        return DivergenceError(f"{where} {self}", self.last_params)


class NoTrainingDataError(HiergruError):
    pass


class MissingPretrainedError(HiergruError):
    pass


class InsufficientHistoryError(HiergruError):
    pass


class WrongLengthError(HiergruError):
    pass


# ------------------------------------------------------------------ metrics

class LengthMismatchError(HiergruError):
    pass


class DegenerateVarianceError(HiergruError):
    pass


class DegenerateDistanceVarianceError(HiergruError):
    pass


class MetricOverflowError(HiergruError):
    """The arithmetic of a metric overflowed, or its inputs are not finite."""


class ZeroBaselineError(HiergruError):
    pass


class MissingBaselineError(HiergruError):
    pass


# ---------------------------------------------------------------- warnings

class SingularDesignWarning(UserWarning):
    """Weight imputation fell back to uniform weights."""


class AllZeroWeightsWarning(UserWarning):
    """A sibling group with zero total weight fell back to uniform shares."""


class InsufficientNeighborsWarning(UserWarning):
    """Fewer correlation neighbors available than requested."""


class NodeSkippedWarning(UserWarning):
    """A node had no training windows and kept its initial parameters."""

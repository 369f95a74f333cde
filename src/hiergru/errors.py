"""Exception and warning types used throughout the package."""


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

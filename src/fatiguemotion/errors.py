"""Exception types shared across the package."""


class FatigueMotionError(Exception):
    """Base class for all package errors."""


class ParameterError(FatigueMotionError, ValueError):
    """An argument is outside its documented domain."""


class DataFormatError(FatigueMotionError, ValueError):
    """A file does not follow the expected schema; message names row/column."""


class DegenerateChannelError(FatigueMotionError, ValueError):
    """A channel or trace is constant where a nonzero range is required."""


class SplitError(FatigueMotionError, ValueError):
    """Dataset too small (or fraction invalid) to split."""


class ShapeError(FatigueMotionError, ValueError):
    """Array/sequence shape does not match the model or joint set."""


class NumericError(FatigueMotionError, RuntimeError):
    """A computation produced NaN/Inf or training diverged."""

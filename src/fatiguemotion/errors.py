"""Exception types shared across the package, and the two file readers
that turn an undecodable file into a DataFormatError naming it."""
import contextlib
import json


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


@contextlib.contextmanager
def open_text(path):
    """``open(path)`` for reading; a byte the text encoding cannot decode
    raises DataFormatError naming ``path``."""
    try:
        with open(path) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not text: {exc}") from None


def read_json(path):
    """The JSON document in ``path``; malformed JSON or an undecodable byte
    raises DataFormatError naming ``path``."""
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from None

"""Exception types shared across the package, and its file boundary. Every
file is read through :func:`open_text` or :func:`read_json` and written
through :func:`create` or :func:`write_json`, which make its directory.
Inside :func:`reading`, an error raised by a file's values names the file,
so every DataFormatError names its file."""
import contextlib
import json
from pathlib import Path


class FatigueMotionError(Exception):
    """Base class for all package errors."""


class ParameterError(FatigueMotionError, ValueError):
    """An argument is outside its documented domain."""


class DataFormatError(FatigueMotionError, ValueError):
    """A file does not follow the expected schema; the message names the file."""


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
    """The JSON document in ``path``; malformed JSON (an integer of more than
    4300 digits included) or an undecodable byte raises DataFormatError
    naming ``path``."""
    with open_text(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except ValueError as exc:
        raise DataFormatError(f"{path}: not valid JSON: {exc}") from None


@contextlib.contextmanager
def reading(source):
    """Around code that checks and builds the values read from ``source`` (a
    file, or a place in one): a package error or a KeyError ("lacks <key>"),
    TypeError, ValueError or OverflowError becomes a DataFormatError naming
    ``source``. A DataFormatError (already named) or NumericError passes."""
    try:
        yield
    except (DataFormatError, NumericError):
        raise
    except KeyError as exc:
        raise DataFormatError(f"{source}: lacks {exc}") from None
    except (FatigueMotionError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{source}: {exc}") from None


def create(path):
    """``open(path, "w")``, after making the directory it goes in."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w")


def write_json(path, doc, **dump_options) -> None:
    """Write ``json.dump(doc, **dump_options)`` and a newline to :func:`create` of ``path``."""
    with create(path) as fh:
        json.dump(doc, fh, **dump_options)
        fh.write("\n")

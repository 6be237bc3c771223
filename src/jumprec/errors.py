"""Exception taxonomy shared across the package.

Three top-level families map onto the CLI exit codes: model-contract
violations (bad orders, incompatible shapes, impossible requests), numeric
failures (rank loss, non-convergent root finding, unresolvable phases), and
plain I/O problems which are left to the standard OSError/ValueError types
and translated at the CLI boundary.  read_json and write_json are the one
reading and the one writing of every JSON record file, and read_int and
read_real the one reading of a record's numbers: a value of the wrong type,
or a real that is not finite, is a ModelError that names its field.
"""

from __future__ import annotations

import json
import math
import numbers

__all__ = [
    "JumprecError",
    "ModelError",
    "NumericError",
    "DetectionError",
    "AmbiguityError",
    "RootFindError",
]


class JumprecError(Exception):
    """Base class for all library-raised errors."""


class ModelError(JumprecError):
    """The request contradicts the model contract (orders, counts, bounds)."""


class NumericError(JumprecError):
    """A numerical procedure failed to reach its guaranteed accuracy."""


class DetectionError(NumericError):
    """Jump detection could not certify the expected number of jumps.

    Attributes
    ----------
    rank : int
        Numerical rank of the detection system that was actually observed.
    expected : int
        Number of jumps the caller asked for.
    """

    def __init__(self, message: str, rank: int, expected: int):
        super().__init__(message)
        self.rank = rank
        self.expected = expected


class AmbiguityError(NumericError):
    """A phase/root could not be disambiguated within the safe radius."""


class RootFindError(NumericError):
    """Polynomial root finding failed to converge or was handed junk."""


def read_int(value, name: str) -> int:
    """value as an int; bools, floats and strings are a ModelError."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ModelError(f"{name} must be an integer, got {name}={value!r}")
    return int(value)


def read_real(value, name: str) -> float:
    """value as a finite float; anything else is a ModelError.

    Bools, strings and other non-numbers are rejected, and so are NaN and
    the infinities, which Python's json reads from NaN, Infinity and 1e999.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ModelError(f"{name} must be a real number, got {name}={value!r}")
    try:
        out = float(value)
    except OverflowError as exc:
        raise ModelError(f"{name} is past the double range") from exc
    if not math.isfinite(out):
        raise ModelError(f"{name} must be finite, got {name}={out!r}")
    return out


def read_json(path):
    """The JSON value in the file at path.

    OSError and json.JSONDecodeError (a ValueError) pass through; the CLI
    maps both to exit 4.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path, record, **fmt) -> None:
    """Write record to path as JSON text and a newline, in one call.

    fmt goes to json.dumps (the reports pass indent=2, sort_keys=True).
    Without indent, json.dumps runs CPython's C encoder, which json.dump
    never does; the bytes are the ones json.dump wrote with the same fmt.
    The text is encoded before the file is opened, so a record that fails
    to encode leaves no partial file.
    """
    text = json.dumps(record, **fmt) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

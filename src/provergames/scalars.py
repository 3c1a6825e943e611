"""Scalar values and table modes.

Every probability table in this package is either exact (``Fraction``
entries, mode ``"rational"``) or double precision (``float`` entries, mode
``"float"``).  Two-prover tables are numpy arrays of ``dtype(mode)``: object
arrays of ``Fraction``s, or float64.  Mixing the two modes in one operation
is an error: exactness claims hold only when everything stays rational, and
quantum-derived tables can never be rational.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

RATIONAL = "rational"
FLOAT = "float"

#: Default normalization slack for float-mode distributions.
FLOAT_SUM_TOL = 1e-12


class ModeError(TypeError):
    """Raised when rational- and float-mode values are mixed."""


def zero(mode):
    return Fraction(0) if mode == RATIONAL else 0.0


def one(mode):
    return Fraction(1) if mode == RATIONAL else 1.0


def dtype(mode):
    return object if mode == RATIONAL else float


def zeros(shape, mode):
    """A table of ``shape`` filled with the zero of ``mode``."""
    return np.full(shape, zero(mode), dtype=dtype(mode))


def total(values, mode, axis=None):
    """Sum of table entries, over ``axis`` or all of them.

    An object sum starts at ``Fraction(0)``, so rational totals are
    ``Fraction``s; a full float total is a Python ``float``.
    """
    s = np.sum(values, axis=axis, initial=zero(mode))
    return float(s) if mode == FLOAT and axis is None else s


def as_python(value):
    """A numpy scalar as the Python scalar it holds (``float64`` becomes
    ``float``); anything else unchanged."""
    return value.item() if isinstance(value, np.generic) else value


def check_mode(mode):
    if mode not in (RATIONAL, FLOAT):
        raise ValueError(f"unknown scalar mode {mode!r}")
    return mode


def scalar_mode(value):
    """Infer the mode of a single scalar."""
    if isinstance(value, (Fraction, int)):
        return RATIONAL
    if isinstance(value, float):
        return FLOAT
    raise ModeError(f"value {value!r} is neither rational nor float")


def require_same_mode(*modes):
    first = modes[0]
    for m in modes[1:]:
        if m != first:
            raise ModeError(f"mixed scalar modes: {first} vs {m}")
    return first


def parse_scalar(text):
    """Parse ``"p/q"`` as an exact Fraction and anything else as a float.

    Integer literals parse as exact rationals too.
    """
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    try:
        return Fraction(int(text))
    except ValueError:
        return float(text)


def format_scalar(value):
    """Render a scalar so that ``parse_scalar`` round-trips it exactly."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return f"{value}/1"
    return repr(float(value))

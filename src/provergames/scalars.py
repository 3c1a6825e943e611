"""Scalar values and table modes.

Every probability table in this package is either exact (``Fraction``
entries, mode ``"rational"``) or double precision (``float`` entries, mode
``"float"``).  Two-prover tables are numpy arrays of ``dtype(mode)``: object
arrays of ``Fraction``s, or float64.  Mixing the two modes in one operation
is an error: exactness claims hold only when everything stays rational, and
quantum-derived tables can never be rational.

Readers that compare, sum or convert a whole rational table do so on its
integer form (``integers``): numerators over one common denominator, the
way a rational matrix is an integer matrix plus a denominator.  Tables are
still stored as ``Fraction``s; ``rationals`` turns numerators back.
"""

from __future__ import annotations

import math
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


#: Entry types of the integer form: Python ints never wrap.
_EXACT_TYPES = {Fraction, int, bool}


def integers(table, terms=1, power=1):
    """``(num, den)`` with ``table == num / den`` entry by entry: integer
    numerators over the lcm ``den`` of the entries' denominators.

    ``num`` is int64 when every sum of ``terms`` products of ``power``
    numbers, each no larger than ``max(|num|, den)``, fits: ``power`` times
    that bound's bit length plus the bit length of ``terms`` below 63,
    decided before any arithmetic.  Otherwise it is an object array of
    Python ints.  Raises ``ModeError`` on an entry that is not a
    ``Fraction`` or a Python int.
    """
    flat = np.asarray(table).ravel().tolist()
    if not set(map(type, flat)) <= _EXACT_TYPES:
        raise ModeError("table holds an entry that is not a Fraction or an int")
    nums = [v.numerator for v in flat]
    dens = [v.denominator for v in flat]
    den = math.lcm(*set(dens))
    num = [n * (den // d) for n, d in zip(nums, dens)]
    try:
        exact = np.array(num, dtype=np.int64)
    except OverflowError:
        exact = None
    if exact is not None:
        bound = max(den, int(exact.max(initial=0)), -int(exact.min(initial=0)))
        if power * bound.bit_length() + terms.bit_length() < 63:
            return exact.reshape(np.shape(table)), den
    return np.array(num, dtype=object).reshape(np.shape(table)), den


def rationals(num, den):
    """The read-only ``Fraction`` table ``num / den``, with one ``Fraction``
    made per distinct numerator."""
    values, inverse = np.unique(num, return_inverse=True)
    fractions = np.array([Fraction(int(v), den) for v in values], dtype=object)
    table = fractions[inverse.reshape(np.shape(num))]
    table.flags.writeable = False
    return table


def floats(table):
    """A rational table as float64, every entry ``float(Fraction)``.

    When every numerator and the denominator are below 2**53 they are exact
    doubles, and their correctly rounded quotient is ``float(Fraction)``
    bit for bit: one array division.  Otherwise, or for a table holding an
    entry that is not rational, entry by entry.
    """
    try:
        num, den = integers(table)
    except ModeError:
        return table.astype(float)
    if (den < 2**53 and num.dtype != object
            and int(np.abs(num).max(initial=0)) < 2**53):
        return num / den
    return table.astype(float)


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

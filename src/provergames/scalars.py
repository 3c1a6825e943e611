"""Scalar values and table modes.

Every probability table in this package is either exact (``Fraction``
entries, mode ``"rational"``) or double precision (``float`` entries, mode
``"float"``).  Two-prover tables are numpy arrays of ``dtype(mode)``: object
arrays of ``Fraction``s, or float64.  Mixing the two modes in one operation
is an error: exactness claims hold only when everything stays rational, and
quantum-derived tables can never be rational.

A rational table also has an integer form (``IntegerForm``): numerators
over one common denominator in lowest terms, the way a rational matrix is
an integer matrix plus a denominator.  Games and strategies keep their
tables' forms: code that computes numerators hands the form in and the
``Fraction`` table is built from it (``rationals``, one ``Fraction`` per
distinct numerator); a table given as ``Fraction``s derives its form once,
on first use.  Readers that compare, sum, convert or write a whole table
read the form.  Integer arrays are int64 or Python ints by one rule,
``int_array``.
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


class IntegerForm:
    """A rational table as integer numerators over one denominator.

    ``num`` is a read-only array and ``den`` a positive Python int with
    ``table == num / den`` entry by entry, in lowest terms: ``den`` is the
    lcm of the entries' reduced denominators, so ``gcd(den, *num) == 1``
    and two tables are equal exactly when their forms are.  ``num`` is
    int64 when every numerator fits, else an object array of Python ints,
    and ``bound`` is ``max(den, max |num|)``, from which ``widen`` decides
    overflow before any arithmetic.  The constructor takes any integer
    numerators over a positive ``den`` and reduces them.
    """

    __slots__ = ("num", "den", "bound")

    def __init__(self, num, den):
        num = int_array(num)
        g = math.gcd(den, *(num.ravel().tolist() if num.dtype == object
                            else [int(np.gcd.reduce(num, axis=None))]))
        if g > 1:
            den //= g
            if num.any():  # else g is den, which may not fit int64
                num = int_array(num // g)
        num.flags.writeable = False
        self.num, self.den = num, den
        self.bound = max(den, int(num.max(initial=0)), -int(num.min(initial=0)))

    @classmethod
    def of(cls, table):
        """The form of a table of ``Fraction``s and ints; ``ModeError`` on
        any other entry."""
        flat = np.asarray(table).ravel().tolist()
        if not set(map(type, flat)) <= _EXACT_TYPES:
            raise ModeError("table holds an entry that is not a Fraction or an int")
        dens = [v.denominator for v in flat]
        den = math.lcm(*set(dens))
        num = int_array([v.numerator * (den // d) for v, d in zip(flat, dens)])
        return cls(num.reshape(np.shape(table)), den)

    def __eq__(self, other):
        if not isinstance(other, IntegerForm):
            return NotImplemented
        return self.den == other.den and np.array_equal(self.num, other.num)

    def widen(self, terms=1, power=1):
        """``num`` for a computation that sums ``terms`` products of
        ``power`` numbers each no larger than ``bound``: as int64 when
        ``power`` times the bit length of ``bound`` plus the bit length of
        ``terms`` is below 63, else as Python ints."""
        if (self.num.dtype != object
                and power * self.bound.bit_length() + terms.bit_length() < 63):
            return self.num
        return self.num.astype(object)

    def floats(self):
        """The table as float64, every entry ``float(Fraction)``.

        When every numerator and the denominator are below 2**53 they are
        exact doubles, and their correctly rounded quotient is
        ``float(Fraction)`` bit for bit: one array division.  Otherwise each
        distinct numerator is divided as a Python int, which rounds
        correctly too.
        """
        if self.bound < 2**53:
            return self.num / self.den
        return map_distinct(lambda v: v / self.den, self.num, float)


def int_array(values):
    """Integers (Python ints, nested or not, or an integer array) as an
    int64 array when every one is below 2**63 in absolute value, else as
    an object array of Python ints.  The bound is symmetric, so negating
    an int64 result cannot wrap."""
    try:
        ints = np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)
    return ints.astype(object) if ints.min(initial=0) == -2**63 else ints


def map_distinct(fn, values, dtype=object):
    """``fn`` of every entry of ``values`` as an array of their shape and
    ``dtype``, called once per distinct entry, on it as a Python scalar."""
    distinct, inverse = np.unique(values, return_inverse=True)
    mapped = np.array([fn(v) for v in distinct.tolist()], dtype=dtype)
    return mapped[inverse.reshape(np.shape(values))]


def rationals(num, den):
    """The read-only ``Fraction`` table ``num / den``, with one ``Fraction``
    made per distinct numerator."""
    table = map_distinct(lambda v: Fraction(v, den), num)
    table.flags.writeable = False
    return table


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

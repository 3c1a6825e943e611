"""Game models, strategy representations, and winning-probability evaluation.

Three game models live here:

* ``TwoProverGame`` -- a verifier samples a question pair, sends one
  question to each isolated prover, and accepts according to a predicate.
* ``MultiRoundGame`` -- a single prover answers a nonadaptive sequence of
  questions round by round.
* ``PcpGame`` -- a single prover commits to a proof string; the verifier
  reads three positions.

Questions and answers are dense 0-based indices everywhere; human-readable
labels are metadata only.  Predicate tables hold scalars in [0, 1]: they are
exactly 0/1 for ordinary games, and strictly fractional entries appear only
where a transform integrates out verifier randomness that is hidden from
both provers (see ``transforms.oracularize_pcp_dummy``) or where several
clauses share a variable triple (``transforms.pcp_from_1in3``).

Every game and strategy holds its tables as read-only numpy arrays:
float64 in float mode, an object array of ``Fraction``s in rational mode.
A rational game or strategy also keeps each table's integer form
(``scalars.IntegerForm``, see ``integer_form``), which its readers
(``validate``, ``==``, ``to_float``, the files, the exact values,
``parallel_repeat`` and ``is_no_signaling``) use instead of the
``Fraction``s.
Index tuples keep the flat lexicographic layout throughout: a multi-round
game's ``pi`` is over Q^r and its ``R`` over Q^r x A^r (``qflat * A**r +
aflat``), a multi-round strategy's round-k table is ``(Q^k * A^(k-1), A)``,
a PCP game lists its triples as a sorted ``(T, 3)`` array with ``pi`` of
shape ``(T,)`` and ``R`` of shape ``(T, A^3)``, and a proof distribution is
either dense over A^Q or weights on an ``(n, Q)`` array of proof strings.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import scalars
from .indexing import digit_table, encode_tuple

DEFAULT_MAX_TABLE = 10_000_000
#: Environment variable overriding the dense-table entry guard.
SIZE_GUARD_ENV = "PROVERGAMES_MAX_TABLE"


class SizeGuardError(ValueError):
    """A requested dense table would exceed the configured entry limit."""


class DimensionError(ValueError):
    """Mismatched table dimensions between a game and a strategy."""


def max_table_entries():
    raw = os.environ.get(SIZE_GUARD_ENV)
    if raw is None:
        return DEFAULT_MAX_TABLE
    try:
        limit = int(raw)
    except ValueError:
        limit = 0  # reported below, like any other non-positive value
    if limit <= 0:
        raise ValueError(f"{SIZE_GUARD_ENV} must be a positive integer, got {raw!r}")
    return limit


def check_table_size(entries, what):
    limit = max_table_entries()
    if entries > limit:
        raise SizeGuardError(
            f"{what} needs {entries} table entries, over the limit {limit} "
            f"(override with {SIZE_GUARD_ENV})"
        )
    return entries


def _table(data, mode):
    """Nested lists, tuples or an array as a read-only table array.

    A float-mode table of floats is float64.  Anything else is an object
    array that keeps each entry as given: the ``Fraction``s of a rational
    table, or entries of the wrong mode and ragged rows, which ``validate``
    then reports.
    """
    if mode == scalars.FLOAT and getattr(data, "dtype", None) == np.float64:
        table = np.array(data)
    else:
        table = np.array(data, dtype=object)
        if mode == scalars.FLOAT and all(isinstance(v, float) for v in table.flat):
            table = table.astype(float)
    table.flags.writeable = False
    return table


def _index_rows(data, width):
    """Rows of integer indices (PCP triples, proof strings) as a read-only
    ``(n, width)`` array."""
    rows = np.array(data, dtype=int)
    if rows.size == 0:
        rows = rows.reshape(0, width)
    rows.flags.writeable = False
    return rows


class _Tables:
    """What every game and strategy model shares: read-only tables of one
    scalar mode that keep their integer forms, and equality on them."""

    #: the tables; in rational mode each may be given as its integer form
    _TABLES = ("pi", "R")
    #: integer index arrays compared before the tables
    _ROWS = ()

    def _set_tables(self):
        """Check the mode and store the ``_TABLES`` as read-only tables.  A
        table given as its ``scalars.IntegerForm``, in rational mode, is
        built from it and the form kept."""
        scalars.check_mode(self.mode)
        object.__setattr__(self, "_forms", {})
        for name in self._TABLES:
            data = getattr(self, name)
            if isinstance(data, scalars.IntegerForm):
                if self.mode != scalars.RATIONAL:
                    raise scalars.ModeError(f"an integer form of {name} in {self.mode} mode")
                self._forms[name] = data
                table = scalars.rationals(data.num, data.den)
            else:
                table = _table(data, self.mode)
            object.__setattr__(self, name, table)

    def integer_form(self, name):
        """The ``scalars.IntegerForm`` of table ``name``: the one the model
        was built with, else derived from the ``Fraction``s on first use and
        kept.  None in float mode and for a table holding an entry that is
        not a ``Fraction`` or an int, which ``validate`` reports."""
        forms = self._forms
        if name not in forms:
            form = None
            if self.mode == scalars.RATIONAL:
                try:
                    form = scalars.IntegerForm.of(getattr(self, name))
                except scalars.ModeError:
                    pass
            forms[name] = form
        return forms[name]

    def exact_forms(self):
        """The integer forms of the ``_TABLES``; ``ModeError`` when one of
        them has none."""
        forms = tuple(map(self.integer_form, self._TABLES))
        if any(form is None for form in forms):
            raise scalars.ModeError("table holds an entry that is not a Fraction or an int")
        return forms

    def _floats(self, name):
        """Table ``name`` as float64, every entry ``float(v)``."""
        form = self.integer_form(name)
        return getattr(self, name).astype(float) if form is None else form.floats()

    def __eq__(self, other):
        """Equal type, shape, mode and ``_ROWS``, then equal tables: two
        with integer forms compare on them, any other pair entry by entry.
        Labels and meta do not count."""
        if type(self) is not type(other):
            return NotImplemented
        return (self.shape == other.shape and self.mode == other.mode
                and all(_same_rows(getattr(self, n), getattr(other, n)) for n in self._ROWS)
                and all(self._same_table(other, n) for n in self._TABLES))

    def _same_table(self, other, name):
        mine, theirs = self.integer_form(name), other.integer_form(name)
        if mine is None or theirs is None:
            return np.array_equal(getattr(self, name), getattr(other, name))
        return mine == theirs


def _same_rows(x, y):
    """Equal arrays, or equal tuples of arrays, entry by entry."""
    if isinstance(x, tuple):
        return len(x) == len(y) and all(map(np.array_equal, x, y))
    return np.array_equal(x, y)


@dataclass(frozen=True, eq=False)
class TwoProverGame(_Tables):
    """The six-tuple (Q1, Q2, A1, A2, R, pi) of a two-prover one-round game.

    ``pi`` is a ``(Q1, Q2)`` array and ``R`` a ``(Q1, Q2, A1, A2)`` array
    with entries in [0, 1]; both are read-only.  The constructor also takes
    nested lists or tuples, or in rational mode a table's integer form.
    """

    q1_count: int
    q2_count: int
    a1_count: int
    a2_count: int
    pi: np.ndarray
    R: np.ndarray
    mode: str = scalars.RATIONAL
    labels: dict | None = field(default=None, compare=False)
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        check_table_size(self.q1_count * self.q2_count
                         * (1 + self.a1_count * self.a2_count),
                         "two-prover game tables")
        self._set_tables()

    @property
    def shape(self):
        return (self.q1_count, self.q2_count, self.a1_count, self.a2_count)

    def support(self):
        return [tuple(p) for p in np.argwhere(self.pi > 0).tolist()]

    def to_float(self):
        if self.mode == scalars.FLOAT:
            return self
        return TwoProverGame(self.q1_count, self.q2_count, self.a1_count,
                             self.a2_count, self._floats("pi"), self._floats("R"),
                             scalars.FLOAT, self.labels, self.meta)


@dataclass(frozen=True, eq=False)
class MultiRoundGame(_Tables):
    """A single-prover game with ``rounds`` nonadaptive questions.

    ``pi`` is a ``(Q^r,)`` array over question tuples (lexicographic index)
    and ``R`` a ``(Q^r * A^r,)`` array with index ``qflat * A**r + aflat``;
    both are read-only, and ``R.reshape((Q,) * r + (A,) * r)`` is the same
    table indexed by components.  The constructor also takes flat lists,
    or in rational mode a table's integer form.
    """

    q_count: int
    a_count: int
    rounds: int
    pi: np.ndarray
    R: np.ndarray
    mode: str = scalars.RATIONAL
    labels: dict | None = field(default=None, compare=False)
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        check_table_size(self.q_count**self.rounds
                         * (1 + self.a_count**self.rounds),
                         "multi-round game tables")
        self._set_tables()

    @property
    def shape(self):
        return (self.q_count, self.a_count, self.rounds)


@dataclass(frozen=True, eq=False)
class PcpGame(_Tables):
    """A three-query PCP game over ``positions`` proof cells.

    ``triples`` is a ``(T, 3)`` integer array of strictly increasing rows,
    sorted and without repeats; ``pi`` is a ``(T,)`` array of their
    probabilities and ``R`` a ``(T, A^3)`` array of their predicate rows
    (lexicographic in (a1, a2, a3)).  All three are read-only; ``pi`` and
    ``R`` may be given as integer forms in rational mode.
    """

    _ROWS = ("triples",)

    positions: int
    alphabet_size: int
    triples: np.ndarray
    pi: np.ndarray
    R: np.ndarray
    mode: str = scalars.RATIONAL
    labels: dict | None = field(default=None, compare=False)
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "triples", _index_rows(self.triples, 3))
        check_table_size(len(self.triples) * (1 + self.alphabet_size**3),
                         "PCP game tables")
        self._set_tables()

    @property
    def shape(self):
        return (self.positions, self.alphabet_size)

    def support(self):
        return [tuple(t) for t in self.triples[self.pi > 0].tolist()]

    def to_float(self):
        if self.mode == scalars.FLOAT:
            return self
        return PcpGame(self.positions, self.alphabet_size, self.triples,
                       self._floats("pi"), self._floats("R"),
                       scalars.FLOAT, self.labels, self.meta)


@dataclass(frozen=True, eq=False)
class BipartiteStrategy(_Tables):
    """Conditional distribution table theta(a1, a2 | q1, q2), a read-only
    ``(Q1, Q2, A1, A2)`` array like ``TwoProverGame.R``; in rational mode
    it may be given as its integer form."""

    _TABLES = ("theta",)

    q1_count: int
    q2_count: int
    a1_count: int
    a2_count: int
    theta: np.ndarray
    mode: str = scalars.RATIONAL

    def __post_init__(self):
        check_table_size(self.q1_count * self.q2_count
                         * self.a1_count * self.a2_count,
                         "conditional strategy table")
        self._set_tables()

    @property
    def shape(self):
        return (self.q1_count, self.q2_count, self.a1_count, self.a2_count)


@dataclass(frozen=True, eq=True)
class DeterministicBipartiteStrategy:
    """A pair of answer function tables, one per prover."""

    f1: tuple  # Q1 -> A1
    f2: tuple  # Q2 -> A2

    def __post_init__(self):
        object.__setattr__(self, "f1", tuple(self.f1))
        object.__setattr__(self, "f2", tuple(self.f2))

    def answer_cells(self):
        """Index of the answer pair of every question pair, for a
        ``(Q1, Q2, A1, A2)`` table."""
        f1, f2 = np.array(self.f1, dtype=int), np.array(self.f2, dtype=int)
        return (np.arange(len(f1))[:, None], np.arange(len(f2))[None, :],
                f1[:, None], f2[None, :])


@dataclass(frozen=True, eq=False)
class MultiRoundStrategy(_Tables):
    """Per-round conditional tables theta_k(a_k | q_1..q_k, a_1..a_{k-1}).

    ``tables[k-1]`` is a read-only ``(Q^k * A^(k-1), A)`` array whose row
    ``qflat * A**(k-1) + aflat`` is the distribution of the round-k answer.
    The round tables compare entry by entry.
    """

    _TABLES = ()
    _ROWS = ("tables",)

    q_count: int
    a_count: int
    rounds: int
    tables: tuple
    mode: str = scalars.RATIONAL

    def __post_init__(self):
        self._set_tables()
        object.__setattr__(self, "tables",
                           tuple(_table(t, self.mode) for t in self.tables))

    @property
    def shape(self):
        return (self.q_count, self.a_count, self.rounds)

    def round_dist(self, k, q_prefix, a_prefix):
        """Distribution over A at round k (1-based) given the conversation."""
        qidx = encode_tuple(q_prefix, self.q_count)
        aidx = encode_tuple(a_prefix, self.a_count) if a_prefix else 0
        return self.tables[k - 1][qidx * self.a_count ** (k - 1) + aidx]

    def round_factors(self):
        """Round k's conditional probability of every full conversation, for
        k = 1..r: ``r`` arrays over Q^r x A^r (flat question and answer
        indices)."""
        nq, na, r = self.q_count, self.a_count, self.rounds
        q = np.arange(nq**r)[:, None]
        a = np.arange(na**r)[None, :]
        return [t[q // nq ** (r - k) * na ** (k - 1) + a // na ** (r - k + 1),
                  a // na ** (r - k) % na]
                for k, t in enumerate(self.tables, 1)]

    def answer_probs(self):
        """Probability of each full answer tuple given each full question
        tuple, ``(Q^r, A^r)``: the product of the round factors in order."""
        p = scalars.one(self.mode)
        for factor in self.round_factors():
            p = p * factor
        return p


@dataclass(frozen=True, eq=False)
class PcpProofDistribution(_Tables):
    """A distribution over proof strings in A^Q.

    Without ``proofs``, ``theta`` is the dense ``(A^Q,)`` table over all
    proofs in lexicographic order (desk scale only).  With ``proofs``, an
    ``(n, Q)`` integer array, ``theta[i]`` is the weight of proof ``i``.
    In rational mode ``theta`` may be given as its integer form.
    """

    _TABLES = ("theta",)
    _ROWS = ("proofs",)

    positions: int
    alphabet_size: int
    theta: np.ndarray
    mode: str = scalars.RATIONAL
    proofs: np.ndarray | None = None

    def __post_init__(self):
        if self.proofs is None:
            check_table_size(self.alphabet_size**self.positions,
                             "dense proof distribution")
        else:
            object.__setattr__(self, "proofs",
                               _index_rows(self.proofs, self.positions))
        self._set_tables()

    @property
    def shape(self):
        return (self.positions, self.alphabet_size)

    @staticmethod
    def point_mass(proof, alphabet_size, mode=scalars.RATIONAL):
        return PcpProofDistribution(len(proof), alphabet_size,
                                    [scalars.one(mode)], mode, [proof])


# ---------------------------------------------------------------------------
# validation


_MODE_TYPES = {scalars.RATIONAL: (Fraction, int), scalars.FLOAT: (float,)}


def _off_one(total, mode):
    """Whether a sum (or an array of sums) misses 1."""
    if mode == scalars.RATIONAL:
        return total != 1
    return abs(total - 1.0) > scalars.FLOAT_SUM_TOL


def _wrong_mode(values, mode):
    """Mask of the entries that are not scalars of ``mode``."""
    if values.dtype != object:
        return np.zeros(values.shape, dtype=bool)
    kinds = _MODE_TYPES[mode]
    return np.frompyfunc(lambda v: not isinstance(v, kinds), 1, 1)(values).astype(bool)


def _check_dist(values, mode, where, report, form=None):
    """Report the negative entries and a sum off 1.  ``form`` is the
    table's ``(num, den)`` from ``_check_mode_entries``; without one the
    entries are compared as they are."""
    num, den = form or (values, None)
    for v in values[num < 0]:
        report.append(f"{where}: negative entry {v}")
    total = (scalars.total(values, mode) if den is None
             else Fraction(int(num.sum()), den))
    if _off_one(total, mode):
        shown = total if mode == scalars.RATIONAL else repr(total)
        report.append(f"{where}: normalization violated, sum = {shown}")


def _check_mode_entries(values, form, mode, where, report):
    """Report the first entry that is not a scalar of ``mode``.

    Returns the table's ``(num, den)`` for the range and sum checks: a
    table with an integer form ``form`` has only rational entries and is
    checked on its numerators, widened for a sum of all of them, so those
    checks make no ``Fraction``; any other table stays as it is, with
    ``den`` None.
    """
    if form is not None:
        return form.widen(terms=values.size), form.den
    wrong = values[_wrong_mode(values, mode)]
    if wrong.size:
        v = wrong[0]
        try:
            scalars.scalar_mode(v)
            report.append(f"{where}: entry {v!r} does not match mode {mode}")
        except scalars.ModeError:
            report.append(f"{where}: entry {v!r} is not a scalar")
    return values, None


def _check_rows(table, axes, mode, where, report):
    """Mode and distribution checks of each distribution over the last
    ``axes`` axes of ``table``, reported under ``where(*index)``.  Only rows
    with a wrong-mode or negative entry, or a sum off 1, can have problems;
    they are reported row by row, in order."""
    axis = tuple(range(table.ndim - axes, table.ndim))
    suspect = ((_wrong_mode(table, mode) | (table < 0)).any(axis=axis)
               | _off_one(scalars.total(table, mode, axis=axis), mode))
    for index in np.argwhere(suspect).tolist():
        _check_mode_entries(table[tuple(index)], None, mode, where(*index), report)
        _check_dist(table[tuple(index)], mode, where(*index), report)


def _outside_unit(num, den):
    """Mask of the entries outside [0, 1] of a table's ``(num, den)``."""
    return (num < 0) | (num > (1 if den is None else den))


def _check_predicate(values, where, report, form):
    bad = values[_outside_unit(*form)]
    if bad.size:
        report.append(f"{where}: predicate range violated by entry {bad[0]}")


def _increasing(triples, positions):
    """Mask of the ``(n, 3)`` rows with 0 <= t0 < t1 < t2 < positions."""
    t = triples
    return (0 <= t[:, 0]) & (t[:, 0] < t[:, 1]) & (t[:, 1] < t[:, 2]) & (t[:, 2] < positions)


def _check_tables(game, report):
    """Mode, distribution and range checks of a game's ``pi`` and ``R``, on
    their integer forms where they have them."""
    form = _check_mode_entries(game.pi, game.integer_form("pi"), game.mode, "pi", report)
    _check_dist(game.pi, game.mode, "pi", report, form)
    num, den = _check_mode_entries(game.R, game.integer_form("R"), game.mode, "R", report)
    if not isinstance(game, PcpGame):
        _check_predicate(game.R, "R", report, (num, den))
        return
    for i in np.flatnonzero(_outside_unit(num, den).any(axis=1)).tolist():
        _check_predicate(game.R[i], f"R[{tuple(game.triples[i].tolist())}]", report,
                         (num[i], den))


def _validate_pcp(game, report):
    if game.positions < 3:
        report.append("a three-query game needs at least 3 positions")
    if game.alphabet_size < 1:
        report.append("alphabet_size must be positive")
    t = game.triples
    if t.ndim != 2 or t.shape[1] != 3:
        report.append("triples must be rows of three positions")
        return
    for row in t[~_increasing(t, game.positions)].tolist():
        report.append(f"pi supported on non-increasing triple {tuple(row)}")
    rows = [tuple(row) for row in t.tolist()]
    for row, n in sorted(Counter(rows).items()):
        if n > 1:
            report.append(f"triple {row} is listed {n} times")
    if rows != sorted(rows):
        report.append("triples are not in sorted order")
    if game.pi.shape != (len(t),):
        report.append("pi length does not match the number of triples")
        return
    if game.R.shape != (len(t), game.alphabet_size**3):
        report.append("R dimensions do not match the triples and A^3")
        return
    _check_tables(game, report)


def validate(obj):
    """Return the list of violated invariants (empty means valid)."""
    report = []
    if isinstance(obj, TwoProverGame):
        for c, n in [(obj.q1_count, "q1_count"), (obj.q2_count, "q2_count"),
                     (obj.a1_count, "a1_count"), (obj.a2_count, "a2_count")]:
            if c < 1:
                report.append(f"{n} must be positive")
        if obj.pi.shape != obj.shape[:2]:
            report.append("pi dimensions do not match question counts")
            return report
        if obj.R.shape != obj.shape:
            report.append("R dimensions do not match counts")
            return report
        _check_tables(obj, report)
    elif isinstance(obj, MultiRoundGame):
        nq, na = obj.q_count**obj.rounds, obj.a_count**obj.rounds
        if obj.q_count < 1 or obj.a_count < 1 or obj.rounds < 1:
            report.append("counts and rounds must be positive")
        if obj.pi.shape != (nq,):
            report.append("pi length does not match Q^r")
            return report
        if obj.R.shape != (nq * na,):
            report.append("R length does not match Q^r * A^r")
            return report
        _check_tables(obj, report)
    elif isinstance(obj, PcpGame):
        _validate_pcp(obj, report)
    elif isinstance(obj, BipartiteStrategy):
        if obj.theta.shape != obj.shape:
            report.append("theta dimensions do not match counts")
            return report
        _check_rows(obj.theta, 2, obj.mode, lambda q1, q2: f"theta[{q1}][{q2}]", report)
    elif isinstance(obj, MultiRoundStrategy):
        if len(obj.tables) != obj.rounds:
            report.append(f"strategy has {len(obj.tables)} round tables, "
                          f"expected {obj.rounds}")
            return report
        for k, table in enumerate(obj.tables, 1):
            if table.shape != (obj.q_count**k * obj.a_count ** (k - 1), obj.a_count):
                report.append(f"round {k} table has wrong length")
                continue
            _check_rows(table, 1, obj.mode, lambda i: f"round {k} entry {i}", report)
    elif isinstance(obj, PcpProofDistribution):
        where = "theta" if obj.proofs is None else "mixture weights"
        if obj.proofs is None and obj.theta.shape != (obj.alphabet_size**obj.positions,):
            report.append("theta length does not match A^Q")
        else:
            form = _check_mode_entries(obj.theta, obj.integer_form("theta"), obj.mode,
                                       where, report)
            _check_dist(obj.theta, obj.mode, where, report, form)
        if obj.proofs is not None and obj.proofs.shape != (len(obj.theta), obj.positions):
            report.append(f"proofs of shape {obj.proofs.shape} are not one row "
                          f"of length {obj.positions} per weight")
        elif obj.proofs is not None:
            bad = (obj.proofs < 0) | (obj.proofs >= obj.alphabet_size)
            for i in np.flatnonzero(bad.any(axis=1)):
                j = int(np.argmax(bad[i]))  # the row's first letter out of range
                report.append(f"proof {i} has letter {obj.proofs[i, j]} at position {j}, "
                              f"outside 0..{obj.alphabet_size - 1}")
    else:
        raise TypeError(f"cannot validate {type(obj).__name__}")
    return report


# ---------------------------------------------------------------------------
# evaluation


def eval_two_prover(game, strategy):
    """Winning probability: sum over pi * theta * R, taken over the nonzero
    entries of R.

    A deterministic strategy reads its answer pair's predicate entry; an
    answer outside the game's answer range is a ``DimensionError``.
    """
    if isinstance(strategy, DeterministicBipartiteStrategy):
        if (len(strategy.f1), len(strategy.f2)) != game.shape[:2]:
            raise DimensionError("strategy table does not match the game")
        for prover, f, a_count in ((1, strategy.f1, game.a1_count),
                                   (2, strategy.f2, game.a2_count)):
            bad = [q for q, a in enumerate(f) if not 0 <= a < a_count]
            if bad:
                raise DimensionError(
                    f"prover {prover} answers {f[bad[0]]} to question {bad[0]}, "
                    f"outside 0..{a_count - 1}")
        return scalars.total(game.pi * game.R[strategy.answer_cells()], game.mode)
    if game.shape != strategy.shape:
        raise DimensionError("strategy table does not match the game")
    scalars.require_same_mode(game.mode, strategy.mode)
    cells = np.nonzero(game.R.astype(bool))
    return scalars.total(game.pi[cells[:2]] * strategy.theta[cells] * game.R[cells],
                         game.mode)


def eval_multi_round(game, strategy):
    """Winning probability of a multi-round strategy: the expectation over
    pi of the induced answer distribution times the predicate."""
    if game.shape != strategy.shape:
        raise DimensionError("strategy does not match the game")
    scalars.require_same_mode(game.mode, strategy.mode)
    R = game.R.reshape(game.pi.size, -1)
    return scalars.total(game.pi[:, None] * strategy.answer_probs() * R, game.mode)


def eval_pcp(game, proof):
    """Winning probability of a proof distribution in a PCP game."""
    if game.shape != proof.shape:
        raise DimensionError("proof does not match the game")
    scalars.require_same_mode(game.mode, proof.mode)
    dist = pcp_triple_distribution(proof, game.triples)
    return scalars.total(game.pi[:, None] * dist * game.R, game.mode)


def pcp_triple_distribution(proof, triples):
    """Marginalize a proof distribution onto three positions.

    ``triples`` is one triple or an ``(n, 3)`` array of them; the result is
    flat over A^3 (lexicographic) per triple.  The proofs' weights are added
    in proof order with one ``np.add.at``.
    """
    t = np.asarray(triples, dtype=int)
    rows = t.reshape(-1, 3)
    ok = _increasing(rows, proof.positions)
    if not ok.all():
        raise DimensionError(f"triple {tuple(rows[~ok][0].tolist())} out of range")
    a = proof.alphabet_size
    strings = (digit_table(a, proof.positions) if proof.proofs is None
               else proof.proofs)
    codes = strings[:, rows] @ np.array([a * a, a, 1])  # [proof][triple]
    out = scalars.zeros((len(rows), a**3), proof.mode)
    np.add.at(out, (np.arange(len(rows)), codes), proof.theta[:, None])
    return out.reshape(t.shape[:-1] + (a**3,))


def is_no_signaling(strategy, tol=None):
    """Check the marginal condition; returns (ok, max violation).

    A strategy is no-signaling when each prover's answer marginal does not
    depend on the other prover's question.  ``tol`` defaults to exact zero
    in rational mode and 1e-9 in float mode.  A rational table is summed on
    the strategy's integer form.
    """
    mode = strategy.mode
    if tol is None:
        tol = scalars.zero(mode) if mode == scalars.RATIONAL else 1e-9
    theta, den = strategy.theta, None
    if mode == scalars.RATIONAL:
        # a violation is the difference of two sums of up to max(A1, A2) entries
        form, = strategy.exact_forms()
        theta, den = form.widen(terms=2 * max(strategy.a1_count, strategy.a2_count)), form.den
    # each prover's marginal, compared with the one at the other prover's
    # first question
    m1 = np.sum(theta, axis=3, initial=0)  # [q1][q2][a1]
    m2 = np.sum(theta, axis=2, initial=0)  # [q1][q2][a2]
    worst = max(abs(m1 - m1[:, :1]).max(initial=0), abs(m2 - m2[:1]).max(initial=0))
    worst = scalars.as_python(worst) if den is None else Fraction(int(worst), den)
    return bool(worst <= tol), worst


def uniform_bipartite(q1_count, q2_count, a1_count, a2_count, mode=scalars.RATIONAL):
    """Uniform answers for every question pair."""
    w = (Fraction(1, a1_count * a2_count) if mode == scalars.RATIONAL
         else 1.0 / (a1_count * a2_count))
    theta = np.full((q1_count, q2_count, a1_count, a2_count), w,
                    dtype=scalars.dtype(mode))
    return BipartiteStrategy(q1_count, q2_count, a1_count, a2_count, theta, mode)

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

Two-prover games and strategies hold read-only numpy arrays (float64 in
float mode, ``Fraction`` objects in rational mode); the single-prover types
hold nested tuples.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import scalars
from .indexing import decode_tuple, encode_tuple, iter_tuples

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


def _freeze(table):
    """Recursively turn nested lists into nested tuples."""
    if isinstance(table, (list, tuple)):
        return tuple(_freeze(x) for x in table)
    return table


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


def _same_tables(a, b, names):
    """Equal shape, mode and table entries; labels and meta do not count."""
    if type(a) is not type(b):
        return NotImplemented
    return (a.shape == b.shape and a.mode == b.mode
            and all(np.array_equal(getattr(a, n), getattr(b, n)) for n in names))


@dataclass(frozen=True, eq=False)
class TwoProverGame:
    """The six-tuple (Q1, Q2, A1, A2, R, pi) of a two-prover one-round game.

    ``pi`` is a ``(Q1, Q2)`` array and ``R`` a ``(Q1, Q2, A1, A2)`` array
    with entries in [0, 1]; both are read-only.  The constructor also takes
    nested lists or tuples.
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
        scalars.check_mode(self.mode)
        check_table_size(self.q1_count * self.q2_count
                         * (1 + self.a1_count * self.a2_count),
                         "two-prover game tables")
        object.__setattr__(self, "pi", _table(self.pi, self.mode))
        object.__setattr__(self, "R", _table(self.R, self.mode))

    def __eq__(self, other):
        return _same_tables(self, other, ("pi", "R"))

    @property
    def shape(self):
        return (self.q1_count, self.q2_count, self.a1_count, self.a2_count)

    def support(self):
        return [tuple(p) for p in np.argwhere(self.pi > 0).tolist()]

    def to_float(self):
        if self.mode == scalars.FLOAT:
            return self
        return TwoProverGame(self.q1_count, self.q2_count, self.a1_count,
                             self.a2_count, self.pi.astype(float),
                             self.R.astype(float), scalars.FLOAT,
                             self.labels, self.meta)


@dataclass(frozen=True, eq=True)
class MultiRoundGame:
    """A single-prover game with ``rounds`` nonadaptive questions.

    ``pi`` is flat over Q^r (lexicographic index), ``R`` is flat over
    Q^r x A^r with index ``qflat * A**r + aflat``.
    """

    q_count: int
    a_count: int
    rounds: int
    pi: tuple
    R: tuple
    mode: str = scalars.RATIONAL
    labels: dict | None = field(default=None, compare=False)
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        scalars.check_mode(self.mode)
        check_table_size(self.q_count**self.rounds
                         * (1 + self.a_count**self.rounds),
                         "multi-round game tables")
        object.__setattr__(self, "pi", _freeze(self.pi))
        object.__setattr__(self, "R", _freeze(self.R))

    def q_tuples(self):
        return iter_tuples(self.q_count, self.rounds)

    def pi_at(self, qtup):
        return self.pi[encode_tuple(qtup, self.q_count)]

    def r_at(self, qtup, atup):
        n = self.a_count**self.rounds
        return self.R[encode_tuple(qtup, self.q_count) * n + encode_tuple(atup, self.a_count)]


@dataclass(frozen=True, eq=True)
class PcpGame:
    """A three-query PCP game over ``positions`` proof cells.

    ``pi`` maps strictly increasing triples to scalars; ``R`` maps each
    support triple to a flat tuple over A^3 (lexicographic in (a1,a2,a3)).
    """

    positions: int
    alphabet_size: int
    pi: tuple  # ((triple, scalar), ...) sorted by triple
    R: tuple  # ((triple, (scalar,) * A**3), ...) sorted by triple
    mode: str = scalars.RATIONAL
    labels: dict | None = field(default=None, compare=False)
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        scalars.check_mode(self.mode)
        object.__setattr__(self, "pi", tuple(sorted((tuple(t), v) for t, v in self.pi)))
        object.__setattr__(self, "R", tuple(sorted((tuple(t), _freeze(v)) for t, v in self.R)))

    def pi_dict(self):
        return dict(self.pi)

    def r_dict(self):
        return dict(self.R)

    def support(self):
        z = scalars.zero(self.mode)
        return [t for t, v in self.pi if v > z]

    def r_at(self, triple, answers):
        return self.r_dict()[triple][encode_tuple(answers, self.alphabet_size)]

    def to_float(self):
        if self.mode == scalars.FLOAT:
            return self
        pi = tuple((t, float(v)) for t, v in self.pi)
        R = tuple((t, tuple(float(x) for x in row)) for t, row in self.R)
        return PcpGame(self.positions, self.alphabet_size, pi, R,
                       scalars.FLOAT, self.labels, self.meta)


@dataclass(frozen=True, eq=False)
class BipartiteStrategy:
    """Conditional distribution table theta(a1, a2 | q1, q2), a read-only
    ``(Q1, Q2, A1, A2)`` array like ``TwoProverGame.R``."""

    q1_count: int
    q2_count: int
    a1_count: int
    a2_count: int
    theta: np.ndarray
    mode: str = scalars.RATIONAL

    def __post_init__(self):
        scalars.check_mode(self.mode)
        check_table_size(self.q1_count * self.q2_count
                         * self.a1_count * self.a2_count,
                         "conditional strategy table")
        object.__setattr__(self, "theta", _table(self.theta, self.mode))

    def __eq__(self, other):
        return _same_tables(self, other, ("theta",))

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

    def embed(self, a1_count, a2_count, mode=scalars.RATIONAL):
        """Point-mass BipartiteStrategy representation."""
        theta = scalars.zeros((len(self.f1), len(self.f2), a1_count, a2_count), mode)
        theta[self.answer_cells()] = scalars.one(mode)
        return BipartiteStrategy(len(self.f1), len(self.f2), a1_count, a2_count,
                                 theta, mode)


@dataclass(frozen=True, eq=True)
class MultiRoundStrategy:
    """Per-round conditional tables theta_k(a_k | q_1..q_k, a_1..a_{k-1}).

    ``tables[k-1]`` is flat over Q^k x A^(k-1) (index
    ``qflat * A**(k-1) + aflat``), each entry a tuple over A.
    """

    q_count: int
    a_count: int
    rounds: int
    tables: tuple
    mode: str = scalars.RATIONAL

    def __post_init__(self):
        scalars.check_mode(self.mode)
        object.__setattr__(self, "tables", _freeze(self.tables))

    def round_dist(self, k, q_prefix, a_prefix):
        """Distribution over A at round k (1-based) given the conversation."""
        qidx = encode_tuple(q_prefix, self.q_count)
        aidx = encode_tuple(a_prefix, self.a_count) if a_prefix else 0
        return self.tables[k - 1][qidx * self.a_count ** (k - 1) + aidx]

    def induced_prob(self, atup, qtup):
        """Probability of the full answer tuple given the full question tuple."""
        p = scalars.one(self.mode)
        for k in range(1, self.rounds + 1):
            p *= self.round_dist(k, qtup[:k], atup[: k - 1])[atup[k - 1]]
            if not p:
                return p
        return p


@dataclass(frozen=True, eq=True)
class PcpProofDistribution:
    """Dense distribution over proof strings A^Q (desk scale only)."""

    positions: int
    alphabet_size: int
    theta: tuple  # flat over A^Q, lexicographic
    mode: str = scalars.RATIONAL

    def __post_init__(self):
        scalars.check_mode(self.mode)
        check_table_size(self.alphabet_size**self.positions,
                         "dense proof distribution")
        object.__setattr__(self, "theta", _freeze(self.theta))

    def prob(self, proof):
        return self.theta[encode_tuple(proof, self.alphabet_size)]

    def items(self):
        for idx, p in enumerate(self.theta):
            yield decode_tuple(idx, self.alphabet_size, self.positions), p


@dataclass(frozen=True, eq=True)
class ProofMixture:
    """Lazy mixture of proof strings: avoids materializing A^Q tables."""

    positions: int
    alphabet_size: int
    parts: tuple  # ((weight, proof tuple), ...)
    mode: str = scalars.RATIONAL

    def __post_init__(self):
        object.__setattr__(self, "parts",
                           tuple((w, tuple(p)) for w, p in self.parts))

    def items(self):
        for w, proof in self.parts:
            yield proof, w

    @staticmethod
    def point_mass(proof, alphabet_size, mode=scalars.RATIONAL):
        return ProofMixture(len(proof), alphabet_size,
                            ((scalars.one(mode), tuple(proof)),), mode)


# ---------------------------------------------------------------------------
# validation


_MODE_TYPES = {scalars.RATIONAL: (Fraction, int), scalars.FLOAT: (float,)}


def _as_array(values):
    if isinstance(values, np.ndarray):
        return values
    return np.array(list(values), dtype=object)


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


def _check_dist(values, mode, where, report):
    values = _as_array(values)
    for v in values[values < 0]:
        report.append(f"{where}: negative entry {v}")
    total = scalars.total(values, mode)
    if _off_one(total, mode):
        shown = total if mode == scalars.RATIONAL else repr(total)
        report.append(f"{where}: normalization violated, sum = {shown}")


def _check_mode_entries(values, mode, where, report):
    values = _as_array(values)
    wrong = values[_wrong_mode(values, mode)]
    if wrong.size:
        v = wrong[0]
        try:
            scalars.scalar_mode(v)
            report.append(f"{where}: entry {v!r} does not match mode {mode}")
        except scalars.ModeError:
            report.append(f"{where}: entry {v!r} is not a scalar")


def _check_predicate(values, where, report):
    values = _as_array(values)
    bad = values[(values < 0) | (values > 1)]
    if bad.size:
        report.append(f"{where}: predicate range violated by entry {bad[0]}")


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
        _check_mode_entries(obj.pi, obj.mode, "pi", report)
        _check_dist(obj.pi, obj.mode, "pi", report)
        _check_mode_entries(obj.R, obj.mode, "R", report)
        _check_predicate(obj.R, "R", report)
    elif isinstance(obj, MultiRoundGame):
        nq, na = obj.q_count**obj.rounds, obj.a_count**obj.rounds
        if obj.q_count < 1 or obj.a_count < 1 or obj.rounds < 1:
            report.append("counts and rounds must be positive")
        if len(obj.pi) != nq:
            report.append("pi length does not match Q^r")
            return report
        if len(obj.R) != nq * na:
            report.append("R length does not match Q^r * A^r")
            return report
        _check_mode_entries(obj.pi, obj.mode, "pi", report)
        _check_dist(obj.pi, obj.mode, "pi", report)
        _check_predicate(obj.R, "R", report)
    elif isinstance(obj, PcpGame):
        if obj.positions < 3:
            report.append("a three-query game needs at least 3 positions")
        for t, _ in obj.pi:
            if not (0 <= t[0] < t[1] < t[2] < obj.positions):
                report.append(f"pi supported on non-increasing triple {t}")
        pi_d, r_d = obj.pi_dict(), obj.r_dict()
        missing = [t for t, v in pi_d.items() if v > scalars.zero(obj.mode) and t not in r_d]
        if missing:
            report.append(f"support triples missing a predicate row: {missing}")
        for t, row in obj.R:
            if len(row) != obj.alphabet_size**3:
                report.append(f"predicate row for {t} has wrong length")
        _check_mode_entries(pi_d.values(), obj.mode, "pi", report)
        _check_dist(pi_d.values(), obj.mode, "pi", report)
        for t, row in obj.R:
            _check_predicate(row, f"R[{t}]", report)
    elif isinstance(obj, BipartiteStrategy):
        theta = obj.theta
        if theta.shape != obj.shape:
            report.append("theta dimensions do not match counts")
            return report
        # only blocks with a wrong-mode or negative entry, or a sum off 1,
        # can have problems; report them block by block, in order
        suspect = ((_wrong_mode(theta, obj.mode) | (theta < 0)).any(axis=(2, 3))
                   | _off_one(scalars.total(theta, obj.mode, axis=(2, 3)), obj.mode))
        for q1, q2 in np.argwhere(suspect).tolist():
            _check_mode_entries(theta[q1, q2], obj.mode, f"theta[{q1}][{q2}]", report)
            _check_dist(theta[q1, q2], obj.mode, f"theta[{q1}][{q2}]", report)
    elif isinstance(obj, MultiRoundStrategy):
        for k in range(1, obj.rounds + 1):
            table = obj.tables[k - 1]
            expect = obj.q_count**k * obj.a_count ** (k - 1)
            if len(table) != expect:
                report.append(f"round {k} table has wrong length")
                continue
            for i, dist in enumerate(table):
                _check_dist(dist, obj.mode, f"round {k} entry {i}", report)
    elif isinstance(obj, PcpProofDistribution):
        if len(obj.theta) != obj.alphabet_size**obj.positions:
            report.append("theta length does not match A^Q")
        else:
            _check_dist(obj.theta, obj.mode, "theta", report)
    elif isinstance(obj, ProofMixture):
        _check_dist([w for w, _ in obj.parts], obj.mode, "mixture weights", report)
        for _, proof in obj.parts:
            if len(proof) != obj.positions:
                report.append(f"proof {proof} has wrong length")
    else:
        raise TypeError(f"cannot validate {type(obj).__name__}")
    return report


# ---------------------------------------------------------------------------
# evaluation


def eval_two_prover(game, strategy):
    """Winning probability: sum over pi * theta * R, taken over the nonzero
    entries of R.

    A deterministic strategy reads its answer pair's predicate entry.
    """
    if isinstance(strategy, DeterministicBipartiteStrategy):
        if (len(strategy.f1), len(strategy.f2)) != game.shape[:2]:
            raise DimensionError("strategy table does not match the game")
        return scalars.total(game.pi * game.R[strategy.answer_cells()], game.mode)
    if game.shape != strategy.shape:
        raise DimensionError("strategy table does not match the game")
    scalars.require_same_mode(game.mode, strategy.mode)
    cells = np.nonzero(game.R.astype(bool))
    return scalars.total(game.pi[cells[:2]] * strategy.theta[cells] * game.R[cells],
                         game.mode)


def eval_multi_round(game, strategy):
    """Winning probability of a multi-round strategy (expectation of
    the product of per-round conditionals times the predicate)."""
    if (game.q_count, game.a_count, game.rounds) != (
            strategy.q_count, strategy.a_count, strategy.rounds):
        raise DimensionError("strategy does not match the game")
    scalars.require_same_mode(game.mode, strategy.mode)
    na = game.a_count**game.rounds
    total = scalars.zero(game.mode)
    for qidx, qtup in enumerate(game.q_tuples()):
        p = game.pi[qidx]
        if not p:
            continue
        base = qidx * na
        acc = scalars.zero(game.mode)
        for aidx, atup in enumerate(iter_tuples(game.a_count, game.rounds)):
            r = game.R[base + aidx]
            if r:
                acc += strategy.induced_prob(atup, qtup) * r
        total += p * acc
    return total


def eval_pcp(game, proof):
    """Winning probability of a proof distribution in a PCP game."""
    if (game.positions, game.alphabet_size) != (proof.positions, proof.alphabet_size):
        raise DimensionError("proof does not match the game")
    scalars.require_same_mode(game.mode, proof.mode)
    r_d = game.r_dict()
    total = scalars.zero(game.mode)
    for triple, p in game.pi:
        if not p:
            continue
        row = r_d[triple]
        dist = pcp_triple_distribution(proof, triple)
        acc = scalars.zero(game.mode)
        for aidx, w in enumerate(dist):
            if w and row[aidx]:
                acc += w * row[aidx]
        total += p * acc
    return total


def pcp_triple_distribution(proof, triple):
    """Marginalize a proof distribution onto three positions.

    Accepts the dense ``PcpProofDistribution`` or the lazy ``ProofMixture``.
    Returns a flat tuple over A^3 (lexicographic).
    """
    q1, q2, q3 = triple
    if not 0 <= q1 < q2 < q3 < proof.positions:
        raise DimensionError(f"triple {triple} out of range")
    a = proof.alphabet_size
    out = [scalars.zero(proof.mode)] * a**3
    for pi_string, w in proof.items():
        if w:
            out[(pi_string[q1] * a + pi_string[q2]) * a + pi_string[q3]] += w
    return tuple(out)


def is_no_signaling(strategy, tol=None):
    """Check the marginal condition; returns (ok, max violation).

    A strategy is no-signaling when each prover's answer marginal does not
    depend on the other prover's question.  ``tol`` defaults to exact zero
    in rational mode and 1e-9 in float mode.
    """
    mode = strategy.mode
    if tol is None:
        tol = scalars.zero(mode) if mode == scalars.RATIONAL else 1e-9
    zero = scalars.zero(mode)
    # each prover's marginal, compared with the one at the other prover's
    # first question
    m1 = scalars.total(strategy.theta, mode, axis=3)  # [q1][q2][a1]
    m2 = scalars.total(strategy.theta, mode, axis=2)  # [q1][q2][a2]
    worst = scalars.as_python(max(abs(m1 - m1[:, :1]).max(initial=zero),
                                  abs(m2 - m2[:1]).max(initial=zero)))
    return bool(worst <= tol), worst


def uniform_bipartite(q1_count, q2_count, a1_count, a2_count, mode=scalars.RATIONAL):
    """Uniform answers for every question pair."""
    w = (Fraction(1, a1_count * a2_count) if mode == scalars.RATIONAL
         else 1.0 / (a1_count * a2_count))
    theta = np.full((q1_count, q2_count, a1_count, a2_count), w,
                    dtype=scalars.dtype(mode))
    return BipartiteStrategy(q1_count, q2_count, a1_count, a2_count, theta, mode)

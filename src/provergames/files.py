"""Text formats for games and formulas.

Game files are line based::

    format_version 1
    kind two_prover_one_round      # or multi_round, pcp3
    mode rational                  # or float
    counts 2 2 2 2                 # per kind, see below
    pi 0 0 1/4                     # index tuple then value; omitted = 0
    accept 0 0 0 0                 # an accepting predicate tuple (value 1)
    rvalue 0 0 0 1 1/2             # alternate dense field for fractional R
    label q1 0 x=0                 # optional
    meta {"kind": "catalog"}       # optional, one JSON line

``counts`` is ``q1 q2 a1 a2`` for two-prover games, ``Q A r`` for
multi-round games, and ``Q A`` for PCP games.  Index tuples follow the same
order (questions then answers, one integer per component, multi-round
tuples written out in full).  Values are exact ``p/q`` rationals or decimal
floats and must match the declared mode.

Formula files: a header ``1in3 <variables> <clauses>`` followed by one
clause per line, three nonzero 1-based signed integers (sign = polarity).
"""

from __future__ import annotations

import json

import numpy as np

from . import scalars
from .games import (MultiRoundGame, PcpGame, TwoProverGame, check_table_size,
                    validate)
from .transforms import OneInThreeFormula

FORMAT_VERSION = 1

KIND_TWO_PROVER = "two_prover_one_round"
KIND_MULTI_ROUND = "multi_round"
KIND_PCP = "pcp3"


class ParseError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_value(text, mode, line_no):
    try:
        value = scalars.parse_scalar(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, f"bad value {text!r}") from None
    if mode == scalars.RATIONAL and isinstance(value, float):
        raise ParseError(line_no, f"float value {text!r} in a rational-mode file")
    if mode == scalars.FLOAT:
        value = float(value)
    return value


def _entries(table):
    """The nonzero entries of a table as ``(index tuple, value)`` pairs, in
    row-major order."""
    cells = np.nonzero(table)
    return list(zip(zip(*(c.tolist() for c in cells)), table[cells]))


def serialize_game(game):
    if isinstance(game, TwoProverGame):
        kind, counts = KIND_TWO_PROVER, game.shape
        pi, rvals = _entries(game.pi), _entries(game.R)
    elif isinstance(game, MultiRoundGame):
        kind, counts = KIND_MULTI_ROUND, game.shape
        q, a, r = counts
        pi = _entries(game.pi.reshape((q,) * r))
        rvals = _entries(game.R.reshape((q,) * r + (a,) * r))
    elif isinstance(game, PcpGame):
        kind, counts = KIND_PCP, game.shape
        a = game.alphabet_size
        triples = [tuple(t) for t in game.triples.tolist()]
        pi = [(triples[t], v) for (t,), v in _entries(game.pi)]
        rvals = [(triples[t] + tuple(answers), v)
                 for (t, *answers), v in _entries(game.R.reshape(-1, a, a, a))]
    else:
        raise TypeError(f"cannot serialize {type(game).__name__}")

    lines = [f"format_version {FORMAT_VERSION}", f"kind {kind}", f"mode {game.mode}",
             "counts " + " ".join(map(str, counts))]
    for idx, v in pi:
        lines.append("pi " + " ".join(map(str, idx)) + " " + scalars.format_scalar(v))
    _predicate_lines(lines, rvals)
    if game.labels:
        for axis, names in sorted(game.labels.items()):
            for i, name in enumerate(names):
                lines.append(f"label {axis} {i} {name}")
    if game.meta is not None:
        lines.append("meta " + json.dumps(game.meta, sort_keys=True))
    return "\n".join(lines) + "\n"


def _predicate_lines(lines, rvals):
    """Append the nonzero predicate entries ``(index tuple, value)``: as
    ``accept`` lines when all of them are 1, else as ``rvalue`` lines."""
    binary = all(v == 1 for _, v in rvals)
    for idx, v in rvals:
        if binary:
            lines.append("accept " + " ".join(map(str, idx)))
        else:
            lines.append("rvalue " + " ".join(map(str, idx)) + " "
                         + scalars.format_scalar(v))


def parse_game(text):
    """Parse and validate a game file; raises ParseError with line numbers
    and ValueError naming the violated invariant."""
    header = {}
    pi_entries = []
    r_entries = []
    labels = {}
    meta = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        token, _, rest = line.partition(" ")
        rest = rest.strip()
        if token in ("format_version", "kind", "mode", "counts"):
            if token in header:
                raise ParseError(line_no, f"duplicate {token} line")
            header[token] = (rest, line_no)
        elif token == "pi":
            pi_entries.append((rest.split(), line_no))
        elif token in ("accept", "rvalue"):
            r_entries.append((token, rest.split(), line_no))
        elif token == "label":
            parts = rest.split(maxsplit=2)
            if len(parts) < 3:
                raise ParseError(line_no, "label needs axis, index, and text")
            try:
                index = int(parts[1])
            except ValueError:
                raise ParseError(line_no, f"label index {parts[1]!r} is not an integer") from None
            if index < 0:
                raise ParseError(line_no, f"label index {index} is negative")
            labels.setdefault(parts[0], {})[index] = parts[2]
        elif token == "meta":
            try:
                meta = json.loads(rest)
            except json.JSONDecodeError as e:
                raise ParseError(line_no, f"bad meta JSON: {e}") from None
        else:
            raise ParseError(line_no, f"unknown directive {token!r}")

    for required in ("format_version", "kind", "counts"):
        if required not in header:
            raise ParseError(1, f"missing {required} line")
    version, line_no = header["format_version"]
    if version != str(FORMAT_VERSION):
        raise ParseError(line_no, f"unsupported format_version {version!r}")
    kind, kind_line = header["kind"]
    mode, mode_line = header.get("mode", (scalars.RATIONAL, 1))
    if mode not in (scalars.RATIONAL, scalars.FLOAT):
        raise ParseError(mode_line, f"unknown mode {mode!r}")
    counts_text, counts_line = header["counts"]
    try:
        counts = [int(c) for c in counts_text.split()]
    except ValueError:
        raise ParseError(counts_line, "counts must be integers") from None

    label_tuples = None
    if labels:
        label_tuples = {axis: [d.get(i, "") for i in range(max(d) + 1)]
                        for axis, d in labels.items()}

    zero, one = scalars.zero(mode), scalars.one(mode)

    def parse_indices(parts, expect, line_no):
        if len(parts) != expect:
            raise ParseError(line_no, f"expected {expect} fields, got {len(parts)}")
        try:
            return [int(p) for p in parts]
        except ValueError:
            raise ParseError(line_no, "indices must be integers") from None

    if kind == KIND_TWO_PROVER:
        if len(counts) != 4:
            raise ParseError(counts_line, "two-prover counts need 4 integers")
        q1, q2, a1, a2 = counts
        check_table_size(q1 * q2 * (1 + a1 * a2), "two-prover game file")
        pi_dims, r_dims = [q1, q2], [q1, q2, a1, a2]
    elif kind == KIND_MULTI_ROUND:
        if len(counts) != 3:
            raise ParseError(counts_line, "multi-round counts need 3 integers")
        q, a, r = counts
        check_table_size(q**r * (1 + a**r), "multi-round game file")
        pi_dims, r_dims = [q] * r, [q] * r + [a] * r
    elif kind == KIND_PCP:
        if len(counts) != 2:
            raise ParseError(counts_line, "pcp3 counts need 2 integers")
        q, a = counts
        pi_dims, r_dims = [q] * 3, [q] * 3 + [a] * 3
    else:
        raise ParseError(kind_line, f"unknown kind {kind!r}")

    # dense tables, or for PCP games maps from index tuples; a later line
    # overrides an earlier one
    if kind == KIND_PCP:
        pi, R = {}, {}
    else:
        pi, R = scalars.zeros(pi_dims, mode), scalars.zeros(r_dims, mode)
    for parts, ln in pi_entries:
        idx = parse_indices(parts[:-1], len(pi_dims), ln)
        _check_range(idx, pi_dims, ln)
        pi[tuple(idx)] = _parse_value(parts[-1], mode, ln)
    for token, parts, ln in r_entries:
        idx = parse_indices(parts if token == "accept" else parts[:-1], len(r_dims), ln)
        _check_range(idx, r_dims, ln)
        R[tuple(idx)] = one if token == "accept" else _parse_value(parts[-1], mode, ln)

    if kind == KIND_TWO_PROVER:
        game = TwoProverGame(q1, q2, a1, a2, pi, R, mode, labels=label_tuples,
                             meta=meta)
    elif kind == KIND_MULTI_ROUND:
        game = MultiRoundGame(q, a, r, pi.ravel(), R.ravel(), mode,
                              labels=label_tuples, meta=meta)
    else:
        # one row per triple named by a pi or a predicate line
        triples = sorted(set(pi) | {idx[:3] for idx in R})
        row_of = {t: i for i, t in enumerate(triples)}
        rows = scalars.zeros((len(triples), a, a, a), mode)
        for idx, v in R.items():
            rows[(row_of[idx[:3]],) + idx[3:]] = v
        game = PcpGame(q, a, triples, [pi.get(t, zero) for t in triples],
                       rows.reshape(len(triples), a**3), mode,
                       labels=label_tuples, meta=meta)

    problems = validate(game)
    if problems:
        raise ValueError("invalid game: " + "; ".join(problems))
    return game


def _check_range(idx, limits, line_no):
    for v, lim in zip(idx, limits):
        if not 0 <= v < lim:
            raise ParseError(line_no, f"index {v} out of range [0, {lim})")


def serialize_formula(formula):
    lines = [f"1in3 {formula.num_vars} {len(formula.clauses)}"]
    for cl in formula.clauses:
        lines.append(" ".join(str((v + 1) if p else -(v + 1)) for v, p in cl))
    return "\n".join(lines) + "\n"


def parse_formula(text):
    lines = [l.strip() for l in text.splitlines()]
    lines = [(i + 1, l) for i, l in enumerate(lines) if l and not l.startswith("#")]
    if not lines:
        raise ParseError(1, "empty formula file")
    ln, header = lines[0]
    parts = header.split()
    if len(parts) != 3 or parts[0] != "1in3":
        raise ParseError(ln, "header must be '1in3 <variables> <clauses>'")
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError(ln, "header counts must be integers") from None
    if len(lines) - 1 != m:
        raise ParseError(ln, f"expected {m} clause lines, found {len(lines) - 1}")
    clauses = []
    for ln, line in lines[1:]:
        lits = line.split()
        if len(lits) != 3:
            raise ParseError(ln, "a clause needs exactly three literals")
        clause = []
        for lit in lits:
            try:
                v = int(lit)
            except ValueError:
                raise ParseError(ln, f"bad literal {lit!r}") from None
            if v == 0 or abs(v) > n:
                raise ParseError(ln, f"literal {v} out of range")
            clause.append((abs(v) - 1, v > 0))
        if len({v for v, _ in clause}) != 3:
            raise ParseError(ln, f"clause {line!r} repeats a variable")
        clauses.append(tuple(clause))
    return OneInThreeFormula(n, tuple(clauses))

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
tuples written out in full); of several lines naming one cell the last one
counts.  Values are exact ``p/q`` rationals or decimal floats and must
match the declared mode.  A rational game is read into, and written from,
the integer forms of its tables (``scalars.IntegerForm``).

Formula files: a header ``1in3 <variables> <clauses>`` followed by one
clause per line, three nonzero 1-based signed integers (sign = polarity).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

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


def _cells(game, name, shape):
    """The nonzero entries of table ``name`` viewed with ``shape``, in
    row-major order: their indices as an ``(n, len(shape))`` array, their
    values as text, and whether every one of them is 1.  A table with an
    integer form is read on it."""
    form = game.integer_form(name)
    if form is None:
        table = getattr(game, name).reshape(shape)
        cells = np.nonzero(table)
        values = table[cells]
        texts = [scalars.format_scalar(v) for v in values]
        ones = all(v == 1 for v in values)
    else:
        num = form.num.reshape(shape)
        cells = np.nonzero(num)
        values = num[cells]
        texts = scalars.map_distinct(lambda v: scalars.format_scalar(Fraction(v, form.den)),
                                     values, str)
        ones = bool((values == form.den).all())
    return np.stack(cells, axis=-1).reshape(-1, len(shape)), texts, ones


def _lines(token, rows, texts=None):
    """One line per index row: ``token``, the row's indices and, with
    ``texts``, its value."""
    form = token + " %d" * rows.shape[1]
    if texts is None:
        return [form % row for row in map(tuple, rows.tolist())]
    form += " %s"
    return [form % (*row, text) for row, text in zip(rows.tolist(), texts)]


def serialize_game(game):
    if isinstance(game, TwoProverGame):
        kind, counts = KIND_TWO_PROVER, game.shape
        pi, rvals = _cells(game, "pi", game.pi.shape), _cells(game, "R", game.R.shape)
    elif isinstance(game, MultiRoundGame):
        kind, counts = KIND_MULTI_ROUND, game.shape
        q, a, r = counts
        pi = _cells(game, "pi", (q,) * r)
        rvals = _cells(game, "R", (q,) * r + (a,) * r)
    elif isinstance(game, PcpGame):
        kind, counts = KIND_PCP, game.shape
        a = game.alphabet_size
        pi, rvals = _cells(game, "pi", game.pi.shape), _cells(game, "R", (-1, a, a, a))
        # the triple of each row in place of its row number
        pi, rvals = ((np.hstack([game.triples[rows[:, 0]], rows[:, 1:]]), texts, ones)
                     for rows, texts, ones in (pi, rvals))
    else:
        raise TypeError(f"cannot serialize {type(game).__name__}")

    lines = [f"format_version {FORMAT_VERSION}", f"kind {kind}", f"mode {game.mode}",
             "counts " + " ".join(map(str, counts))]
    lines += _lines("pi", *pi[:2])
    # predicate entries as accept lines when all of them are 1, else as
    # rvalue lines
    rows, texts, ones = rvals
    lines += _lines("accept", rows) if ones else _lines("rvalue", rows, texts)
    if game.labels:
        for axis, names in sorted(game.labels.items()):
            for i, name in enumerate(names):
                lines.append(f"label {axis} {i} {name}")
    if game.meta is not None:
        lines.append("meta " + json.dumps(game.meta, sort_keys=True))
    return "\n".join(lines) + "\n"


def parse_game(text):
    """Parse and validate a game file; raises ParseError with line numbers
    and ValueError naming the violated invariant."""
    header = {}
    pi_lines = []
    r_lines = []
    labels = {}
    meta = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        token, _, rest = raw.strip().partition(" ")
        if token in ("accept", "rvalue"):
            r_lines.append((token, rest, line_no))
            continue
        if token == "pi":
            pi_lines.append((token, rest, line_no))
            continue
        if not token or token.startswith("#"):
            continue
        rest = rest.strip()
        if token in ("format_version", "kind", "mode", "counts"):
            if token in header:
                raise ParseError(line_no, f"duplicate {token} line")
            header[token] = (rest, line_no)
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
    if min(counts, default=1) < 1:
        raise ParseError(counts_line, f"counts must be positive, got {min(counts)}")

    label_tuples = None
    if labels:
        label_tuples = {axis: [d.get(i, "") for i in range(max(d) + 1)]
                        for axis, d in labels.items()}

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

    # dense tables, allocated before any line is read (PCP games get theirs
    # once the triples are known)
    dtype = np.int64 if mode == scalars.RATIONAL else float
    if kind != KIND_PCP:
        pi, R = np.zeros(pi_dims, dtype), np.zeros(r_dims, dtype)
    pi_idx, *pi_values = _index_lines(pi_lines, pi_dims, mode)
    r_idx, *r_values = _index_lines(r_lines, r_dims, mode)

    if kind == KIND_TWO_PROVER:
        game = TwoProverGame(q1, q2, a1, a2, _fill(pi, _flat(pi_idx, pi_dims), *pi_values),
                             _fill(R, _flat(r_idx, r_dims), *r_values), mode,
                             labels=label_tuples, meta=meta)
    elif kind == KIND_MULTI_ROUND:
        game = MultiRoundGame(q, a, r, _fill(pi.ravel(), _flat(pi_idx, pi_dims), *pi_values),
                              _fill(R.ravel(), _flat(r_idx, r_dims), *r_values), mode,
                              labels=label_tuples, meta=meta)
    else:
        # one row per triple named by a pi or a predicate line, in sorted order
        triples, row = np.unique(np.concatenate([pi_idx, r_idx[:, :3]]), axis=0,
                                 return_inverse=True)
        row = row.reshape(-1)
        pi = np.zeros(len(triples), dtype)
        R = np.zeros((len(triples), a, a, a), dtype).reshape(len(triples), a**3)
        r_flat = row[len(pi_idx):] * a**3 + _flat(r_idx[:, 3:], [a] * 3)
        game = PcpGame(q, a, triples, _fill(pi, row[:len(pi_idx)], *pi_values),
                       _fill(R, r_flat, *r_values), mode, labels=label_tuples, meta=meta)

    problems = validate(game)
    if problems:
        raise ValueError("invalid game: " + "; ".join(problems))
    return game


def _index_lines(lines, dims, mode):
    """The index rows and values of ``pi`` or predicate lines, in file order:
    an ``(n, len(dims))`` int64 array of indices, the distinct values, and
    the position of each line's value among them.

    ``lines`` holds ``(token, rest, line_no)``: an ``accept`` line names a
    cell with value 1, any other line a cell and its value.  Field counts
    and integer indices are checked line by line, ranges on the whole index
    array, and each distinct value is parsed once; the first bad line
    raises its ``ParseError``.
    """
    k = len(dims)
    rows, texts, error = [], [], None
    for token, rest, ln in lines:
        parts = rest.split()
        fields = parts if token == "accept" else parts[:-1]
        if len(fields) != k:
            error = ParseError(ln, f"expected {k} fields, got {len(fields)}")
            break
        try:
            rows.append(list(map(int, fields)))
        except ValueError:
            error = ParseError(ln, "indices must be integers")
            break
        texts.append("1" if token == "accept" else parts[-1])
    n = len(rows)
    idx = scalars.int_array(rows).reshape(n, k)  # out of range is reported below
    outside = ((idx < 0) | (idx >= np.array(dims, dtype=np.int64))).any(axis=1)
    values, bad = {}, set()
    for t in dict.fromkeys(texts):
        try:
            values[t] = _parse_value(t, mode, None)
        except ParseError:
            bad.add(t)
    # the earliest line with an index out of range or a bad value, else
    # the line that stopped the loop
    first_range = int(outside.argmax()) if outside.any() else n
    first_value = next((i for i, t in enumerate(texts) if t in bad), n)
    i = min(first_range, first_value)
    if i < n:
        if first_range == i:
            _check_range(rows[i], dims, lines[i][2])
        _parse_value(texts[i], mode, lines[i][2])
    if error is not None:
        raise error
    position = {t: j for j, t in enumerate(values)}
    return idx, list(values.values()), np.array([position[t] for t in texts], dtype=np.int64)


def _flat(idx, dims):
    """Row-major flat cell of each index row of a ``dims`` table."""
    strides = [math.prod(dims[j + 1:]) for j in range(len(dims))]
    return idx @ np.array(strides, dtype=np.int64)


def _fill(table, flat, values, which):
    """``table``, all zeros, with ``values[which[i]]`` at flat cell
    ``flat[i]``; of several lines naming one cell the last one wins.

    A float table comes back filled.  An int64 table stands for a rational
    one, whose ``Fraction`` values become numerators over their common
    denominator; it comes back as its ``scalars.IntegerForm``.
    """
    last = len(flat) - 1 - np.unique(flat[::-1], return_index=True)[1]
    if table.dtype == float:
        table.flat[flat[last]] = np.array(values, dtype=float)[which[last]]
        return table
    den = math.lcm(*(v.denominator for v in values))
    column = scalars.int_array([v.numerator * (den // v.denominator) for v in values])
    table = table.astype(column.dtype, copy=False)
    table.flat[flat[last]] = column[which[last]]
    return scalars.IntegerForm(table, den)


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

"""Self-contained exact-rational linear programming.

A dense two-phase simplex with fraction-free integer pivoting, on and to
``fractions.Fraction``.  It maximizes ``c . x`` subject to rows
``a . x {<=, ==, >=} b`` and ``x >= 0``; ``solve_lp`` verifies the exact dual
certificate of an optimum before returning, so a failure there is a solver bug.

``LinearProgram`` reads its dense rows once, into integers (``_IntegerRows``):
each row's nonzeros in CSR arrays, scaled with its right-hand side by the lcm
of their denominators (and its slack and artificial columns too, so they stay
unit columns), and the objective's numerators over their own lcm.  One
integer array holds ``D`` times the tableau, ``D`` the basis determinant; a
pivot on ``p = T[r, s]`` is Bareiss's exact update ``(p*T - outer(T[:, s],
T[r])) // D`` of the other rows, then ``D = p`` (Bareiss, Math. Comp. 1968, as
in Avis's ``lrs``).  The array is ``int64`` while every entry is below 2**31,
so no product overflows, and past that an ``object`` array of Python ints
(``LpSolution.stats["promoted"]``).  Pricing is Dantzig's rule, or Bland's
while a run of degenerate pivots lasts, so it terminates; prices carry their
column scales and the ratio test cross-multiplies, so the pivots are those of
the same simplex on ``Fraction``s.  ``check_certificates`` re-checks an
optimum by integer products of the same rows with the point and duals over
common denominators (as exact LP solvers do: Applegate, Cook, Dash and
Espinoza, Oper. Res. Lett. 2007).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count, repeat
from math import lcm
from operator import is_not, not_
from typing import NamedTuple

import numpy as np

from . import scalars

#: The rational type of the LP's inputs and outputs.
_rat = Fraction

MAX_VARS = 5_000
MAX_CONSTRAINTS = 20_000

#: consecutive degenerate pivots before switching to Bland's rule
STALL_LIMIT = 40

#: int64 tableau entries stay below this, so ``p*T`` cannot overflow
_INT64_LIMIT = 2**31

LESS_EQUAL = "<="
EQUAL = "=="
GREATER_EQUAL = ">="
_FLIP = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}
#: how a violated row's two sides compare
_BROKEN = {LESS_EQUAL: ">", GREATER_EQUAL: "<", EQUAL: "!="}

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class LpSizeError(ValueError):
    """The LP exceeds the configured size guard."""


class VerificationError(Exception):
    """A result failed an independent correctness check.

    Raised explicitly rather than by ``assert``, so the check also runs under
    ``python -O``.
    """


def check_lp_size(num_vars, num_constraints):
    """Raise ``LpSizeError`` for an LP over the size guard."""
    if num_vars > MAX_VARS or num_constraints > MAX_CONSTRAINTS:
        raise LpSizeError(
            f"LP size {num_vars} vars x {num_constraints} constraints exceeds "
            f"guard {MAX_VARS} x {MAX_CONSTRAINTS}")


def _top(a):
    """The largest absolute entry of an integer array, as a Python int."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _sums(a, b, groups, size):
    """``out[g]``, the sum of ``a[i] * b[i]`` over the ``i`` in group ``g``:
    in int64 when no sum can reach 2**63, else in Python ints."""
    if _top(a) * _top(b) * len(a) >= 2**63:
        a, b = a.astype(object), b.astype(object)
    out = np.zeros(size, dtype=np.result_type(a, b))
    np.add.at(out, groups, a * b)
    return out


def _read(values, *rhs):
    """A dense row's nonzero indices, then its nonzeros and ``rhs`` over the
    lcm of their denominators; a float, even 0.0, raises.  Entries that are
    the very object of the first zero need no check."""
    zero = next(compress(values, map(not_, values)), None)
    maybe = list(compress(range(len(values)), map(is_not, values, repeat(zero))))
    if any(isinstance(v, float) for v in [zero, *rhs, *(values[j] for j in maybe)]):
        raise scalars.ModeError("linear programs require rational-mode scalars")
    idx = [j for j in maybe if values[j]]
    rats = [_rat(v) for v in [*(values[j] for j in idx), *rhs]]
    f = lcm(*(v.denominator for v in rats))
    return idx, [v.numerator * (f // v.denominator) for v in rats], f


class _IntegerRows(NamedTuple):
    """Row ``i`` times ``scale[i]`` has the entries ``data[indptr[i]:indptr[i
    + 1]]`` in the columns ``indices[...]`` and the right-hand side
    ``rhs[i]``; the objective is ``cost / unit``.  ``data``, ``scale``,
    ``rhs`` and ``cost`` are ``int64`` where their values fit."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    scale: np.ndarray
    rhs: np.ndarray
    relations: np.ndarray
    cost: np.ndarray
    unit: int

    @classmethod
    def read(cls, objective, constraints):
        indptr, indices, data, scale, rhs = [0], [], [], [], []
        for c in constraints:
            idx, ints, f = _read(c.coeffs, c.rhs)
            indices += idx
            data += ints[:-1]
            indptr.append(len(indices))
            scale.append(f)
            rhs.append(ints[-1])
        idx, ints, unit = _read(objective)
        cost = np.zeros(len(objective), dtype=scalars.int_array(ints).dtype)
        cost[idx] = ints
        data, scale, rhs = map(scalars.int_array, (data, scale, rhs))
        return cls(np.array(indptr), np.array(indices, dtype=np.intp), data, scale, rhs,
                   np.array([c.relation for c in constraints], dtype=object), cost, unit)

    def row_of(self):
        """The row of each stored entry."""
        return np.repeat(np.arange(len(self.rhs)), np.diff(self.indptr))


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple
    relation: str
    rhs: object

    def __post_init__(self):
        if self.relation not in _FLIP:
            raise ValueError(f"unknown relation {self.relation!r}")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))


@dataclass(frozen=True)
class LinearProgram:
    """Maximize ``objective . x`` over ``x >= 0`` under the constraints.

    The rows are read once, into ``_rows``; a float entry, even 0.0, raises
    ``scalars.ModeError``."""

    num_vars: int
    objective: tuple
    constraints: tuple
    _rows: _IntegerRows = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(self.objective))
        rows = tuple(self.constraints)
        check_lp_size(self.num_vars, len(rows))
        rows = tuple(c if isinstance(c, Constraint) else Constraint(*c) for c in rows)
        if any(len(c.coeffs) != self.num_vars for c in rows):
            raise ValueError("constraint row length does not match num_vars")
        object.__setattr__(self, "constraints", rows)
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        object.__setattr__(self, "_rows", _IntegerRows.read(self.objective, rows))


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: Fraction | None = None
    x: tuple | None = None
    duals: tuple | None = None
    #: pivots per phase, degenerate pivots, Bland switches, the largest
    #: tableau entry's bit length and whether the tableau was promoted
    stats: dict = field(default_factory=dict, compare=False)


class _Tableau:
    """``D`` times the scaled tableau: constraint rows, then the reduced-cost
    row; the last column is the right-hand side."""

    def __init__(self, T, scale, basis, stats):
        self.T, self.scale, self.basis, self.stats, self.D = T, scale, basis, stats, 1
        stats["promoted"] = T.dtype == object
        self._check(T)

    def _check(self, changed):
        """Track the largest entry ever held; promote once one reaches 2**31."""
        top = _top(changed)
        self.stats["max_bits"] = max(self.stats["max_bits"], top.bit_length())
        if top >= _INT64_LIMIT and self.T.dtype != object:
            self.T = self.T.astype(object)
            self.stats["promoted"] = True

    def set_objective(self, costs):
        """Reduced-cost row for the scaled integer ``costs`` of every column."""
        weights = [costs[j] for j in self.basis]
        dt = np.int64 if (self.T.dtype != object and max(map(abs, costs)) * self.D
                          + sum(map(abs, weights)) * _INT64_LIMIT < 2**63) else object
        row = (self.D * np.array(costs, dtype=dt)
               - np.array(weights, dtype=dt) @ self.T[:-1].astype(dt, copy=False))
        self._check(row)
        self.T[-1] = row

    def pivot(self, r, s):
        """Bareiss update of every row but ``r``: ``outer(T[:, s], T[r])`` is
        nonzero only on ``block``, and off it ``p*T // D`` is exact."""
        T, D = self.T, self.D
        p, prow = T[r, s], T[r].copy()
        rows, cols = np.flatnonzero(T[:, s]), np.flatnonzero(prow)
        rows = rows[rows != r]
        block = np.ix_(rows, cols)
        new = (p * T[block] - np.multiply.outer(T[rows, s], prow[cols])) // D
        if p != D:
            T *= p
            T //= D
            T[r] = prow
        T[block] = new
        if p < 0:  # keep D > 0, so signs in T are the tableau's signs
            np.negative(T, out=T)
        self._check(T if p != D else new)
        self.D = abs(int(p))
        self.basis[r] = s

    def run(self, allowed, phase):
        """Pivot on the first ``allowed`` columns until 'optimal' or 'unbounded'."""
        stalled = 0  # degenerate pivots in a row; Bland's rule after STALL_LIMIT
        while allowed:
            priced = self.T[-1, :allowed] * self.scale[:allowed]
            s = int(np.argmax(priced > 0 if stalled > STALL_LIMIT else priced))
            if not priced[s] > 0:
                break
            # ratio test: smallest b_i / a_i over a_i > 0, ties to the smallest basis index
            rows = np.flatnonzero(self.T[:-1, s] > 0).tolist()
            if not rows:
                return UNBOUNDED
            a, b = self.T[rows, s].tolist(), self.T[rows, -1].tolist()
            k = 0
            for i in range(1, len(rows)):
                d = b[i] * a[k] - b[k] * a[i]
                if d < 0 or (d == 0 and self.basis[rows[i]] < self.basis[rows[k]]):
                    k = i
            self.pivot(rows[k], s)
            self.stats[phase] += 1
            stalled = 0 if b[k] else stalled + 1
            self.stats["degenerate_pivots"] += stalled > 0
            self.stats["bland_switches"] += stalled == STALL_LIMIT + 1
        return OPTIMAL


def solve_lp(lp):
    """Solve the LP exactly; see the module docstring for the contract."""
    n, m, form = lp.num_vars, len(lp.constraints), lp._rows
    stats = dict.fromkeys(("phase1_pivots", "phase2_pivots", "degenerate_pivots",
                           "bland_switches", "max_bits"), 0)

    # normalize rows to nonnegative rhs, remembering flips for the duals
    flipped = form.rhs < 0
    rels = [_FLIP[r] if f else r for r, f in zip(form.relations, flipped)]
    new_col = count(n)
    slack_col = [next(new_col) if rel != EQUAL else -1 for rel in rels]
    first_art = n + m - rels.count(EQUAL)
    art_col = [next(new_col) if rel != LESS_EQUAL else -1 for rel in rels]
    ncols = next(new_col)

    # the form's integer rows, and each row's slack and artificial column,
    # scaled with the row; a row without one writes its 1 to index -1, the
    # right-hand side, which is then set last
    T = np.zeros((m + 1, ncols + 1), dtype=np.result_type(form.data, form.rhs))
    row_of = form.row_of()
    slack, art = np.array(slack_col, dtype=np.intp), np.array(art_col, dtype=np.intp)
    T[row_of, form.indices] = np.where(flipped[row_of], -form.data, form.data)
    T[range(m), slack] = np.where(np.array(rels, dtype=object) == LESS_EQUAL, 1, -1)
    T[range(m), art] = 1
    T[:m, -1] = np.where(flipped, -form.rhs, form.rhs)
    scale = np.ones(ncols + 1, dtype=np.int64 if _top(form.scale) < _INT64_LIMIT
                    else object)
    scale[slack] = scale[art] = form.scale
    basis = [art_col[i] if art_col[i] >= 0 else slack_col[i] for i in range(m)]
    tab = _Tableau(T, scale, basis, stats)

    # phase 1: maximize -sum(artificials), each artificial costing -1/scale
    if first_art < ncols:
        arts = scale[first_art:ncols].tolist()
        unit = lcm(*arts)
        tab.set_objective([0] * first_art + [-unit // f for f in arts] + [0])
        if tab.run(first_art, "phase1_pivots") != OPTIMAL:  # bounded by 0
            raise VerificationError(f"phase 1 of the simplex ended {UNBOUNDED}")
        if any(tab.T[i, -1] and art_col[i] == basis[i] for i in range(m)):
            return LpSolution(INFEASIBLE, stats=stats)
        # drive residual zero-valued artificials out of the basis; the rows
        # that keep one are redundant and dropped
        for i in range(m):
            nonzero = np.flatnonzero(tab.T[i, :first_art])
            if basis[i] == art_col[i] and nonzero.size:
                tab.pivot(i, int(nonzero[0]))
                stats["phase1_pivots"] += 1
        keep = [i for i in range(m) if basis[i] != art_col[i]]
        tab.T, tab.basis = tab.T[keep + [m]], [basis[i] for i in keep]

    # phase 2
    unit, costs = form.unit, form.cost.tolist() + [0] * (ncols + 1 - n)
    tab.set_objective(costs)
    if tab.run(first_art, "phase2_pivots") == UNBOUNDED:
        return LpSolution(UNBOUNDED, stats=stats)

    x, total = [Fraction(0)] * n, 0
    for i, bi in enumerate(tab.basis):
        if bi < n:
            x[bi] = Fraction(int(tab.T[i, -1]), tab.D)
            total += costs[bi] * int(tab.T[i, -1])
    value = Fraction(total, unit * tab.D)

    # duals from reduced costs of the unit columns of each row
    duals = []
    for i in range(m):
        j = slack_col[i] if slack_col[i] >= 0 else art_col[i]
        zc = Fraction(int(tab.T[-1, j]) * int(scale[j]), tab.D * unit)
        y = zc if rels[i] == GREATER_EQUAL else -zc
        duals.append(-y if flipped[i] else y)

    sol = LpSolution(OPTIMAL, value, tuple(x), tuple(duals), stats)
    problems = check_certificates(lp, sol)
    if problems:
        raise VerificationError(f"simplex certificate check failed: {problems}")
    return sol


def check_certificates(lp, sol):
    """Exact verification of an optimal LpSolution; returns defect strings.

    Checks integer products of the LP's integer rows with ``sol.x`` and
    ``sol.duals`` over common denominators; a ``Fraction`` is made only to
    word a defect."""
    if sol.status != OPTIMAL:
        return ["solution is not optimal"]
    form, row_of, value = lp._rows, lp._rows.row_of(), sol.value
    xs, ys = scalars.IntegerForm.of(sol.x), scalars.IntegerForm.of(sol.duals)
    (xs, X), (ys, Y) = (xs.num, xs.den), (ys.num, ys.den)
    issues = ["primal point has a negative coordinate"] if (xs < 0).any() else []
    # row k times scale[k] * X
    lhs = _sums(form.data, xs[form.indices], row_of, len(form.rhs))
    rhs = form.rhs.astype(object) * X
    le, ge = form.relations == LESS_EQUAL, form.relations == GREATER_EQUAL
    broken = np.where(le, lhs > rhs, np.where(ge, lhs < rhs, lhs != rhs))
    for k in np.flatnonzero(broken):
        c = lp.constraints[k]
        lhs_k = Fraction(int(lhs[k]), int(form.scale[k]) * X)
        issues.append(f"constraint {k} violated: {lhs_k} {_BROKEN[c.relation]} {c.rhs}")
    if form.cost.astype(object) @ xs.astype(object) * value.denominator \
            != value.numerator * form.unit * X:
        issues.append("objective at primal point differs from reported value")
    for k in np.flatnonzero((le & (ys < 0)) | (ge & (ys > 0))):
        issues.append(f"dual {k} negative for a <= row" if le[k]
                      else f"dual {k} positive for a >= row")
    # the duals over F * Y, F the lcm of the row scales, weigh the scaled rows
    F = lcm(*form.scale.tolist())
    w = scalars.int_array([y * (F // f) for y, f in zip(ys.tolist(), form.scale.tolist())])
    col = _sums(form.data, w[row_of], form.indices, lp.num_vars)
    for j in np.flatnonzero(col.astype(object) * form.unit < form.cost.astype(object) * (F * Y)):
        issues.append(f"dual infeasible at column {j}: {Fraction(int(col[j]), F * Y)} "
                      f"< {lp.objective[j]}")
    dual_obj = form.rhs.astype(object) @ w.astype(object)
    if dual_obj * value.denominator != value.numerator * F * Y:
        issues.append(f"strong duality violated: dual objective {Fraction(dual_obj, F * Y)}")
    return issues

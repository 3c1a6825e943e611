"""Self-contained exact-rational linear programming.

A dense two-phase simplex with fraction-free integer pivoting, on and to
``fractions.Fraction``.  It maximizes ``c . x`` subject to rows
``a . x {<=, ==, >=} b`` and ``x >= 0``; ``solve_lp`` verifies the exact dual
certificate of an optimum before returning, so a failure there is a solver bug.

Each row is scaled by the lcm of its denominators (its slack and artificial
columns too, so they stay unit columns), the objective by its own.  One
integer array holds ``D`` times that tableau, ``D`` the basis determinant; a
pivot on ``p = T[r, s]`` is Bareiss's exact update ``(p*T - outer(T[:, s],
T[r])) // D`` of the other rows, then ``D = p`` (Bareiss, Math. Comp. 1968, as
in Avis's ``lrs``).  The array is ``int64`` while every entry is below 2**31,
so no product overflows, and past that an ``object`` array of Python ints
(``LpSolution.stats["promoted"]``).  Pricing is Dantzig's rule, or Bland's
while a run of degenerate pivots lasts, so it terminates; prices carry their
column scales and the ratio test cross-multiplies, so the pivots are those of
the same simplex on ``Fraction``s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count, repeat
from math import lcm
from operator import is_not, not_

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


def _nonzeros(values):
    # entries that are the very object of the first zero need no comparison
    zero = next(compress(values, map(not_, values)), None)
    maybe = compress(range(len(values)), map(is_not, values, repeat(zero)))
    idx = tuple(j for j in maybe if values[j])
    return idx, tuple(_rat(values[j]) for j in idx)


def _sparse(lp):
    """``((indices, Fractions), rows)``: the objective's nonzeros, then each
    row's as ``(indices, Fractions, rhs)``.  A float, even 0.0, raises."""
    types = set(map(type, [c.rhs for c in lp.constraints])).union(
        map(type, lp.objective), *(map(type, c.coeffs) for c in lp.constraints))
    if any(issubclass(t, float) for t in types):
        raise scalars.ModeError("linear programs require rational-mode scalars")
    return _nonzeros(lp.objective), tuple(
        _nonzeros(c.coeffs) + (_rat(c.rhs),) for c in lp.constraints)


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
    """Maximize ``objective . x`` over ``x >= 0`` under the constraints."""

    num_vars: int
    objective: tuple
    constraints: tuple

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(self.objective))
        rows = []
        for c in self.constraints:
            if not isinstance(c, Constraint):
                c = Constraint(*c)
            if len(c.coeffs) != self.num_vars:
                raise ValueError("constraint row length does not match num_vars")
            rows.append(c)
        object.__setattr__(self, "constraints", tuple(rows))
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length does not match num_vars")
        if self.num_vars > MAX_VARS or len(rows) > MAX_CONSTRAINTS:
            raise LpSizeError(
                f"LP size {self.num_vars} vars x {len(rows)} constraints exceeds "
                f"guard {MAX_VARS} x {MAX_CONSTRAINTS}")


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
        top = max(int(changed.max()), -int(changed.min())) if changed.size else 0
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
    n, m = lp.num_vars, len(lp.constraints)
    (cidx, cval), rows = _sparse(lp)
    stats = dict.fromkeys(("phase1_pivots", "phase2_pivots", "degenerate_pivots",
                           "bland_switches", "max_bits"), 0)

    # normalize rows to nonnegative rhs, remembering flips for the duals
    flipped = [rhs < 0 for _, _, rhs in rows]
    rels = [_FLIP[c.relation] if f else c.relation for c, f in zip(lp.constraints, flipped)]
    new_col = count(n)
    slack_col = [next(new_col) if rel != EQUAL else -1 for rel in rels]
    first_art = n + m - rels.count(EQUAL)
    art_col = [next(new_col) if rel != LESS_EQUAL else -1 for rel in rels]
    ncols = next(new_col)

    # integer rows, each scaled by the lcm of its denominators; a row without
    # a slack or artificial column writes that column's 1 to index -1, the
    # right-hand side, which is then set last
    scale, ints = [1] * (ncols + 1), []
    for i, (idx, vals, rhs) in enumerate(rows):
        f = lcm(rhs.denominator, *(v.denominator for v in vals))
        ints.append([v.numerator * ((-f if flipped[i] else f) // v.denominator)
                     for v in vals + (rhs,)])
        scale[slack_col[i]] = scale[art_col[i]] = f
    top = max((abs(v) for row in ints for v in row), default=0)
    T = np.zeros((m + 1, ncols + 1), dtype=np.int64 if top < 2**63 else object)
    for i, (idx, _, _) in enumerate(rows):
        T[i, slack_col[i]] = 1 if rels[i] == LESS_EQUAL else -1
        T[i, art_col[i]] = 1
        T[i, list(idx) + [ncols]] = ints[i]
    scale = np.array(scale, dtype=np.int64 if max(scale) < _INT64_LIMIT else object)
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
    unit = lcm(*(v.denominator for v in cval))
    costs = [0] * (ncols + 1)
    for j, v in zip(cidx, cval):
        costs[j] = v.numerator * (unit // v.denominator)
    tab.set_objective(costs)
    if tab.run(first_art, "phase2_pivots") == UNBOUNDED:
        return LpSolution(UNBOUNDED, stats=stats)

    x = [Fraction(0)] * n
    for i, bi in enumerate(tab.basis):
        if bi < n:
            x[bi] = Fraction(int(tab.T[i, -1]), tab.D)
    value = sum((v * x[j] for j, v in zip(cidx, cval) if x[j]), Fraction(0))

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

    Re-reads the LP's nonzero coefficients and sums them in ``Fraction``s."""
    if sol.status != OPTIMAL:
        return ["solution is not optimal"]
    issues = []
    x, y = sol.x, sol.duals
    (cidx, cval), rows = _sparse(lp)
    if any(v < 0 for v in x):
        issues.append("primal point has a negative coordinate")
    for k, (c, (idx, vals, _)) in enumerate(zip(lp.constraints, rows)):
        lhs = sum(a * x[j] for j, a in zip(idx, vals) if x[j])
        if c.relation == LESS_EQUAL and lhs > c.rhs:
            issues.append(f"constraint {k} violated: {lhs} > {c.rhs}")
        elif c.relation == GREATER_EQUAL and lhs < c.rhs:
            issues.append(f"constraint {k} violated: {lhs} < {c.rhs}")
        elif c.relation == EQUAL and lhs != c.rhs:
            issues.append(f"constraint {k} violated: {lhs} != {c.rhs}")
    primal = sum(a * x[j] for j, a in zip(cidx, cval) if x[j])
    if primal != sol.value:
        issues.append("objective at primal point differs from reported value")
    for k, c in enumerate(lp.constraints):
        if c.relation == LESS_EQUAL and y[k] < 0:
            issues.append(f"dual {k} negative for a <= row")
        if c.relation == GREATER_EQUAL and y[k] > 0:
            issues.append(f"dual {k} positive for a >= row")
    col = [0] * lp.num_vars
    for k, (idx, vals, _) in enumerate(rows):
        if y[k]:
            for j, a in zip(idx, vals):
                col[j] += a * y[k]
    for j in range(lp.num_vars):
        if col[j] < lp.objective[j]:
            issues.append(f"dual infeasible at column {j}: {col[j]} < {lp.objective[j]}")
    dual_obj = sum(c.rhs * y[k] for k, c in enumerate(lp.constraints) if c.rhs and y[k])
    if dual_obj != sol.value:
        issues.append(f"strong duality violated: dual objective {dual_obj}")
    return issues

"""Self-contained exact-rational linear programming.

A dense two-phase simplex over exact rationals.  Inputs, the tableau and
outputs are all ``fractions.Fraction``.

The solver maximizes ``c . x`` subject to rows ``a . x {<=, ==, >=} b`` and
``x >= 0``.  Optimal solutions come with an exact dual certificate, and
``solve_lp`` verifies primal feasibility, dual feasibility, and strong
duality before returning; a failure there would be a solver bug, not an
input problem.

Pricing is Dantzig's rule for speed, permanently falling back to Bland's
rule while a run of degenerate pivots lasts, which keeps termination
guaranteed on every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import scalars

#: The tableau's rational type.
_rat = Fraction

MAX_VARS = 5_000
MAX_CONSTRAINTS = 20_000

#: consecutive degenerate pivots before switching to Bland's rule
STALL_LIMIT = 40

LESS_EQUAL = "<="
EQUAL = "=="
GREATER_EQUAL = ">="
_RELATIONS = (LESS_EQUAL, EQUAL, GREATER_EQUAL)

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


def _to_rat(x):
    if isinstance(x, float):
        raise scalars.ModeError("linear programs require rational-mode scalars")
    return _rat(x)


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple
    relation: str
    rhs: object

    def __post_init__(self):
        if self.relation not in _RELATIONS:
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


def _pivot(A, b, zc, basis, row, col):
    prow = A[row]
    piv = prow[col]
    if piv != 1:
        inv = 1 / piv
        prow = [e * inv if e else e for e in prow]
        A[row] = prow
        b[row] = b[row] * inv
    brow = b[row]
    for i in range(len(A)):
        if i == row:
            continue
        f = A[i][col]
        if f:
            arow = A[i]
            A[i] = [x - f * y if y else x for x, y in zip(arow, prow)]
            b[i] = b[i] - f * brow
    f = zc[col]
    if f:
        zc[:] = [x - f * y if y else x for x, y in zip(zc, prow)]
    basis[row] = col


def _run_simplex(A, b, zc, basis, allowed):
    """Iterate to optimality; returns 'optimal' or 'unbounded'.

    ``zc`` holds reduced costs c_j - z_j (entering columns have zc > 0);
    columns outside ``allowed`` never enter.
    """
    zero = _rat(0)
    stalled = 0
    bland = False
    while True:
        col = -1
        if bland:
            for j in allowed:
                if zc[j] > zero:
                    col = j
                    break
        else:
            best = zero
            for j in allowed:
                if zc[j] > best:
                    best = zc[j]
                    col = j
        if col < 0:
            return OPTIMAL
        # ratio test; ties resolved by smallest basis index (Bland-safe)
        row = -1
        best_t = None
        for i in range(len(A)):
            a = A[i][col]
            if a > zero:
                t = b[i] / a
                if best_t is None or t < best_t or (t == best_t and basis[i] < basis[row]):
                    best_t = t
                    row = i
        if row < 0:
            return UNBOUNDED
        degenerate = not b[row]
        _pivot(A, b, zc, basis, row, col)
        if degenerate:
            stalled += 1
            if stalled > STALL_LIMIT:
                bland = True
        else:
            stalled = 0
            bland = False


def solve_lp(lp):
    """Solve the LP exactly; see the module docstring for the contract."""
    n = lp.num_vars
    m = len(lp.constraints)
    obj = [_to_rat(c) for c in lp.objective]
    if m == 0:
        if any(c > 0 for c in obj):
            return LpSolution(UNBOUNDED)
        return LpSolution(OPTIMAL, Fraction(0), (Fraction(0),) * n, ())

    # normalize rows to nonnegative rhs, remembering flips for the duals
    rows, rels, rhs, flipped = [], [], [], []
    for c in lp.constraints:
        coeffs = [_to_rat(v) for v in c.coeffs]
        r = _to_rat(c.rhs)
        rel = c.relation
        if r < 0:
            coeffs = [-v for v in coeffs]
            r = -r
            rel = {LESS_EQUAL: GREATER_EQUAL, GREATER_EQUAL: LESS_EQUAL, EQUAL: EQUAL}[rel]
            flipped.append(True)
        else:
            flipped.append(False)
        rows.append(coeffs)
        rels.append(rel)
        rhs.append(r)

    zero, one_ = _rat(0), _rat(1)
    slack_col = [-1] * m
    art_col = [-1] * m
    ncols = n
    for i, rel in enumerate(rels):
        if rel in (LESS_EQUAL, GREATER_EQUAL):
            slack_col[i] = ncols
            ncols += 1
    for i, rel in enumerate(rels):
        if rel in (EQUAL, GREATER_EQUAL):
            art_col[i] = ncols
            ncols += 1

    A = []
    for i in range(m):
        row = rows[i] + [zero] * (ncols - n)
        if slack_col[i] >= 0:
            row[slack_col[i]] = one_ if rels[i] == LESS_EQUAL else -one_
        if art_col[i] >= 0:
            row[art_col[i]] = one_
        A.append(row)
    b = list(rhs)
    basis = [art_col[i] if art_col[i] >= 0 else slack_col[i] for i in range(m)]

    structural = list(range(n))
    non_artificial = [j for j in range(ncols) if j not in set(c for c in art_col if c >= 0)]

    # phase 1: maximize -sum(artificials); start basis has cost -1 rows
    if any(c >= 0 for c in art_col):
        zc = [zero] * ncols
        for i in range(m):
            if art_col[i] >= 0:
                arow = A[i]
                for j in non_artificial:
                    if arow[j]:
                        zc[j] += arow[j]
        status = _run_simplex(A, b, zc, basis, non_artificial)
        if status != OPTIMAL:  # phase 1 objective is bounded by 0
            raise VerificationError(f"phase 1 of the simplex ended {status}")
        if any(b[i] and art_col[i] == basis[i] for i in range(m)):
            return LpSolution(INFEASIBLE)
        infeas = sum((b[i] for i in range(m) if basis[i] == art_col[i]), zero)
        if infeas:
            return LpSolution(INFEASIBLE)
        # drive residual zero-valued artificials out of the basis
        drop = []
        for i in range(m):
            if art_col[i] >= 0 and basis[i] == art_col[i]:
                for j in non_artificial:
                    if A[i][j]:
                        _pivot(A, b, zc, basis, i, j)
                        break
                else:
                    drop.append(i)  # redundant row
        for i in reversed(drop):
            del A[i], b[i], basis[i]

    # phase 2
    cost = obj + [zero] * (ncols - n)
    zc = list(cost)
    value = zero
    for i, bi in enumerate(basis):
        cb = cost[bi]
        if cb:
            value += cb * b[i]
            arow = A[i]
            for j in range(ncols):
                if arow[j]:
                    zc[j] -= cb * arow[j]
    status = _run_simplex(A, b, zc, basis, non_artificial)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED)

    x = [zero] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = b[i]
    value = sum((obj[j] * x[j] for j in range(n) if x[j]), zero)

    # duals from reduced costs of the unit columns of each row
    duals = []
    for i in range(m):
        if slack_col[i] >= 0:
            y = -zc[slack_col[i]] if rels[i] == LESS_EQUAL else zc[slack_col[i]]
        else:
            y = -zc[art_col[i]]
        duals.append(-y if flipped[i] else y)

    sol = LpSolution(OPTIMAL, value, tuple(x), tuple(duals))
    problems = check_certificates(lp, sol)
    if problems:
        raise VerificationError(f"simplex certificate check failed: {problems}")
    return sol


def check_certificates(lp, sol):
    """Exact verification of an optimal LpSolution; returns defect strings."""
    if sol.status != OPTIMAL:
        return ["solution is not optimal"]
    issues = []
    x = sol.x
    if any(v < 0 for v in x):
        issues.append("primal point has a negative coordinate")
    for k, c in enumerate(lp.constraints):
        lhs = sum(a * v for a, v in zip(c.coeffs, x) if a and v)
        if c.relation == LESS_EQUAL and lhs > c.rhs:
            issues.append(f"constraint {k} violated: {lhs} > {c.rhs}")
        elif c.relation == GREATER_EQUAL and lhs < c.rhs:
            issues.append(f"constraint {k} violated: {lhs} < {c.rhs}")
        elif c.relation == EQUAL and lhs != c.rhs:
            issues.append(f"constraint {k} violated: {lhs} != {c.rhs}")
    primal = sum(a * v for a, v in zip(lp.objective, x) if a and v)
    if primal != sol.value:
        issues.append("objective at primal point differs from reported value")
    y = sol.duals
    for k, c in enumerate(lp.constraints):
        if c.relation == LESS_EQUAL and y[k] < 0:
            issues.append(f"dual {k} negative for a <= row")
        if c.relation == GREATER_EQUAL and y[k] > 0:
            issues.append(f"dual {k} positive for a >= row")
    for j in range(lp.num_vars):
        col = sum(c.coeffs[j] * y[k] for k, c in enumerate(lp.constraints) if c.coeffs[j])
        if col < lp.objective[j]:
            issues.append(f"dual infeasible at column {j}: {col} < {lp.objective[j]}")
    dual_obj = sum(c.rhs * y[k] for k, c in enumerate(lp.constraints) if c.rhs and y[k])
    if dual_obj != sol.value:
        issues.append(f"strong duality violated: dual objective {dual_obj}")
    return issues

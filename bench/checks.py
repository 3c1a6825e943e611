"""Independent correctness checks of one job's results.

They run in ``run.py``, outside the worker that ran the jobs, and share no
code path with what they check: LP values are re-solved by scipy's HiGHS on
a formulation written here, see-saw values are re-evaluated by dense
``np.kron`` contraction, and exact values are re-summed with ``Fraction``.  Each check returns a list of
problems; an empty list means the job is correct.  A check that raises is
itself a problem, so nothing is ever skipped.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import scipy.sparse
from scipy.optimize import linprog

from provergames import quantum

#: tolerances of the float comparisons (the rational ones are exact)
LP_TOL = 1e-9
SEESAW_EVAL_TOL = 1e-9
TRACE_TOL = 1e-12


def ns_value_highs(game):
    """No-signaling value by HiGHS over the full polytope: one conditional
    table per question pair, each normalized, with each prover's answer
    marginal independent of the other prover's question."""
    q1n, q2n, a1n, a2n = game.q1_count, game.q2_count, game.a1_count, game.a2_count
    pi = np.array(game.pi, dtype=float)
    R = np.array(game.R, dtype=float)
    shape = (q1n, q2n, a1n, a2n)
    n = q1n * q2n * a1n * a2n
    var = np.arange(n).reshape(shape)
    entries = []  # (columns with +1, columns with -1, rhs)
    for q1 in range(q1n):
        for q2 in range(q2n):
            entries.append((list(var[q1, q2].ravel()), [], 1.0))
    for q1 in range(q1n):
        for a1 in range(a1n):
            for q2 in range(1, q2n):
                entries.append((list(var[q1, q2, a1]), list(var[q1, 0, a1]), 0.0))
    for q2 in range(q2n):
        for a2 in range(a2n):
            for q1 in range(1, q1n):
                entries.append((list(var[q1, q2, :, a2]), list(var[0, q2, :, a2]), 0.0))
    r_idx, c_idx, v, beq = [], [], [], []
    for r, (pos, neg, rhs) in enumerate(entries):
        r_idx.extend([r] * (len(pos) + len(neg)))
        c_idx.extend(pos + neg)
        v.extend([1.0] * len(pos) + [-1.0] * len(neg))
        beq.append(rhs)
    a_eq = scipy.sparse.csr_matrix((v, (r_idx, c_idx)), shape=(len(entries), n))
    c = -(pi[:, :, None, None] * R).ravel()
    res = linprog(c, A_eq=a_eq, b_eq=beq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the check LP: {res.message}")
    return -res.fun


def exact_value(game, theta):
    """Winning probability of a conditional table, summed with Fractions."""
    total = Fraction(0)
    for q1 in range(game.q1_count):
        for q2 in range(game.q2_count):
            p = game.pi[q1][q2]
            if p:
                total += p * sum(t * r for t_row, r_row in
                                 zip(theta[q1][q2], game.R[q1][q2])
                                 for t, r in zip(t_row, r_row))
    return total


def deterministic_theta(game, det):
    return [[[[Fraction(int(a1 == det.f1[q1] and a2 == det.f2[q2]))
               for a2 in range(game.a2_count)] for a1 in range(game.a1_count)]
             for q2 in range(game.q2_count)] for q1 in range(game.q1_count)]


def classical_value_numpy(game):
    """Classical value in floats: every first-prover table against the
    second prover's best response, vectorized."""
    w = np.array(game.pi, dtype=float)[:, :, None, None] * np.array(game.R, dtype=float)
    f1 = np.array(list(itertools.product(range(game.a1_count), repeat=game.q1_count)))
    picked = w[np.arange(game.q1_count)[None, :], :, f1, :]  # (tables, q1, q2, a2)
    return float(picked.sum(axis=1).max(axis=2).sum(axis=1).max())


def rows_hold(reports):
    """Every row holds; rational rows must carry zero tolerance."""
    problems = []
    for rep in reports:
        for row in rep.rows:
            if isinstance(row.lhs, Fraction) and row.tol != 0:
                problems.append(f"{row.name}: rational row with tolerance {row.tol}")
            if not row.lhs <= row.rhs + row.tol:
                problems.append(f"{row.name}: {row.lhs} > {row.rhs} + {row.tol}")
    return problems


def ns_value_agrees(game, value):
    highs = ns_value_highs(game)
    if abs(float(value) - highs) > LP_TOL:
        return [f"no-signaling value {value} differs from HiGHS {highs!r}"]
    return []


def seesaw_problems(game, result, what):
    """Witness validity, dense re-evaluation, monotone trace, value <= 1."""
    s = result.witness
    problems = [f"{what}: {msg}" for msg in quantum.validate_strategy(s)]
    psi = s.state
    dense = 0.0
    for q1 in range(game.q1_count):
        for q2 in range(game.q2_count):
            p = game.pi[q1][q2]
            if not p:
                continue
            for a1, m in enumerate(s.povms1[q1].elements):
                for a2, n_elem in enumerate(s.povms2[q2].elements):
                    r = game.R[q1][q2][a1][a2]
                    if r:
                        dense += p * r * np.vdot(psi, np.kron(m, n_elem) @ psi).real
    if abs(dense - result.value) > SEESAW_EVAL_TOL:
        problems.append(f"{what}: value {result.value!r} but kron re-evaluation {dense!r}")
    trace = result.extras["objective_trace"]
    drops = [i for i in range(1, len(trace)) if trace[i] < trace[i - 1] - TRACE_TOL]
    if drops:
        problems.append(f"{what}: objective trace drops at step {drops[0]}")
    if result.value > 1 + SEESAW_EVAL_TOL:
        problems.append(f"{what}: value {result.value!r} exceeds 1")
    return problems


def check_ns_exact(inp, out):
    ns = out["ns"]
    problems = rows_hold(out["reports"])
    problems += ns_value_agrees(out["gprime"], ns.value)
    attained = exact_value(out["gprime"], ns.witness.theta)
    if attained != ns.value:
        problems.append(f"LP witness attains {attained}, not {ns.value}")
    return problems


def check_com_float(inp, out):
    problems = rows_hold(out["reports"])
    problems += seesaw_problems(out["gprime_float"], out["seesaw"], "pcp see-saw")
    problems += seesaw_problems(inp.ms_game, out["ms_seesaw"], "magic-square see-saw")
    return problems


def check_tables(inp, out):
    problems = []
    for game, res, what in ((inp.big, out["big"], "big"),
                            (inp.base, out["base_classical"], "base")):
        attained = exact_value(game, deterministic_theta(game, res.witness))
        if attained != res.value:
            problems.append(f"{what} classical witness attains {attained}, not {res.value}")
        brute = classical_value_numpy(game)
        if abs(brute - float(res.value)) > LP_TOL:
            problems.append(f"{what} classical value {res.value} but enumeration {brute!r}")
    w_base, ns_base = out["base_classical"].value, out["base_ns"].value
    if not w_base <= ns_base:
        problems.append(f"classical {w_base} > no-signaling {ns_base}")
    problems += ns_value_agrees(inp.base, ns_base)
    if out["product_value"] != w_base**2:
        problems.append(f"product strategy wins {out['product_value']}, not {w_base**2}")
    if out["validate"]:
        problems.append(f"parsed game invalid: {out['validate'][0]}")
    if out["equal"] is not True:
        problems.append("parse(serialize(G)) differs from G")
    g, gf = out["repeated"], out["repeated_float"]
    if not (np.array_equal(np.array(gf.R), np.array(g.R, dtype=float))
            and np.array_equal(np.array(gf.pi), np.array(g.pi, dtype=float))):
        problems.append("to_float entries differ from float(Fraction)")
    return problems


def check_exact(inp, out):
    return (check_ns_exact(inp.ns, out["ns"])
            + check_tables(inp.tables, out["tables"]))


CHECKS = {"exact": check_exact, "com-float": check_com_float}


def run_check(workload, inp, out):
    """Problems of one job; an exception in a check is a problem too."""
    try:
        return CHECKS[workload](inp, out)
    except Exception as e:  # noqa: BLE001 - a failed check is reported, not raised
        return [f"check could not be computed: {type(e).__name__}: {e}"]

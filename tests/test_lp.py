"""Exact simplex: the contract is exact feasibility and strong duality."""

import dataclasses
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from provergames import scalars, transforms, values
from provergames.lp import (
    LinearProgram,
    LpSizeError,
    check_certificates,
    solve_lp,
)
from provergames.sampling import random_multi_round_game
from oracles import fraction_simplex, lp_vertex_enumeration

F = Fraction


def _lp(n, obj, rows):
    return LinearProgram(n, tuple(F(c) for c in obj),
                         tuple((tuple(F(v) for v in r), rel, F(b))
                               for r, rel, b in rows))


def test_box_maximum():
    sol = solve_lp(_lp(2, (1, 1), [((1, 0), "<=", 1), ((0, 1), "<=", 1)]))
    assert sol.status == "optimal"
    assert sol.value == 2
    assert sol.x == (F(1), F(1))


def test_infeasible():
    sol = solve_lp(_lp(1, (1,), [((1,), "<=", -1)]))
    assert sol.status == "infeasible"


def test_unbounded():
    sol = solve_lp(_lp(2, (1, 0), [((0, 1), "<=", 1)]))
    assert sol.status == "unbounded"


def test_two_constraint_example_against_vertex_oracle():
    lp = _lp(2, (3, 2), [((1, 1), "<=", 4), ((1, 3), "<=", 6)])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == lp_vertex_enumeration(lp)
    assert sol.value == 12


def test_equality_and_geq_mix():
    lp = _lp(2, (1, 2), [((1, 1), "==", 2), ((1, 0), ">=", F(1, 3))])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.value == lp_vertex_enumeration(lp) == F(11, 3)


def test_redundant_equalities():
    lp = _lp(2, (1, 1), [((1, 1), "==", 1), ((2, 2), "==", 2), ((1, 0), "<=", 1)])
    sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.value == 1
    assert check_certificates(lp, sol) == []


def test_beale_cycling_example_terminates():
    lp = _lp(4, (F(3, 4), -150, F(1, 50), -6),
             [((F(1, 4), -60, F(-1, 25), 9), "<=", 0),
              ((F(1, 2), -90, F(-1, 50), 3), "<=", 0),
              ((0, 0, 1, 0), "<=", 1)])
    sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.value == F(1, 20)


def test_random_small_lps_match_vertex_enumeration():
    rng = random.Random(17)
    solved = 0
    for _ in range(60):
        n = rng.choice((2, 3))
        obj = [F(rng.randint(-4, 4)) for _ in range(n)]
        rows = []
        for _ in range(rng.randint(1, 4)):
            coeffs = tuple(F(rng.randint(-3, 3)) for _ in range(n))
            rel = rng.choice(("<=", "==", ">="))
            rows.append((coeffs, rel, F(rng.randint(-2, 4))))
        # bound the feasible region so vertex enumeration is exhaustive
        for i in range(n):
            rows.append((tuple(F(1 if j == i else 0) for j in range(n)),
                         "<=", F(5)))
        lp = LinearProgram(n, tuple(obj), tuple(rows))
        sol = solve_lp(lp)
        oracle = lp_vertex_enumeration(lp)
        if oracle is None:
            assert sol.status == "infeasible"
        else:
            assert sol.status == "optimal"
            assert sol.value == oracle
            assert check_certificates(lp, sol) == []
            solved += 1
    assert solved >= 20


def test_exact_feasibility_of_primal_point():
    lp = _lp(3, (1, 1, 1), [((1, 2, 3), "<=", F(7, 3)), ((3, 1, 1), "<=", 2),
                            ((1, 1, 1), ">=", F(1, 7))])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    for c, (row, rel, rhs) in zip(lp.constraints, [
            ((1, 2, 3), "<=", F(7, 3)), ((3, 1, 1), "<=", 2),
            ((1, 1, 1), ">=", F(1, 7))]):
        lhs = sum(a * v for a, v in zip(c.coeffs, sol.x))
        if rel == "<=":
            assert lhs <= c.rhs
        else:
            assert lhs >= c.rhs
    assert sum(a * v for a, v in zip(lp.objective, sol.x)) == sol.value


def test_duals_certify_optimality():
    lp = _lp(2, (3, 5), [((1, 0), "<=", 4), ((0, 2), "<=", 12),
                         ((3, 2), "<=", 18)])
    sol = solve_lp(lp)
    assert sol.status == "optimal" and sol.value == 36
    dual_obj = sum(c.rhs * y for c, y in zip(lp.constraints, sol.duals))
    assert dual_obj == sol.value


def test_size_guard():
    with pytest.raises(LpSizeError):
        LinearProgram(6000, (F(0),) * 6000, ())


def test_float_rejected():
    with pytest.raises(TypeError):
        solve_lp(LinearProgram(1, (0.5,), ((((F(1),)), "<=", F(1)),)))


def test_no_constraints():
    assert solve_lp(_lp(2, (0, -1), [])).value == 0
    assert solve_lp(_lp(1, (1,), [])).status == "unbounded"


def test_float_zero_coefficient_rejected():
    with pytest.raises(scalars.ModeError):
        solve_lp(LinearProgram(2, (F(1), F(1)), (((F(1), 0.0), "<=", F(1)),)))


def _assert_same_solution(lp):
    """``solve_lp`` against the ``Fraction`` simplex it replaced, field for field."""
    sol, ref = solve_lp(lp), fraction_simplex(lp)
    assert (sol.status, sol.value, sol.x, sol.duals) == (ref.status, ref.value, ref.x, ref.duals)
    if sol.status == "optimal":
        assert check_certificates(lp, sol) == []
    return sol


_entries = st.sampled_from([0, 0, 0, 1, -1, 2, -3, F(1, 2), F(-2, 3), F(5, 7), F(7, 4)])


@st.composite
def linear_programs(draw):
    """Small LPs with mixed relations, negative right-hand sides, fractional
    coefficients and redundant equalities; some infeasible, some unbounded."""
    n = draw(st.integers(1, 4))
    vector = st.lists(_entries, min_size=n, max_size=n).map(lambda v: tuple(map(F, v)))
    rows = draw(st.lists(st.tuples(vector, st.sampled_from(["<=", "==", ">="]),
                                   _entries.map(F)), min_size=1, max_size=5))
    for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        coeffs, _, rhs = rows[k]
        factor = draw(st.sampled_from([F(1), F(-2), F(3, 2)]))
        rows.append((tuple(factor * a for a in coeffs), "==", factor * rhs))
    return LinearProgram(n, draw(vector), tuple(rows))


@settings(max_examples=300, deadline=None)
@given(linear_programs())
def test_random_lps_match_fraction_simplex(lp):
    _assert_same_solution(lp)


def _highs_value(lp):
    """Optimal value of ``lp`` by scipy's HiGHS, as a float."""
    a = np.array([[float(v) for v in c.coeffs] for c in lp.constraints])
    b = np.array([float(c.rhs) for c in lp.constraints])
    rel = np.array([c.relation for c in lp.constraints])
    sign = np.where(rel == ">=", -1.0, 1.0)[:, None]
    ub, eq = rel != "==", rel == "=="
    res = linprog([-float(c) for c in lp.objective], A_ub=(sign * a)[ub],
                  b_ub=(sign[:, 0] * b)[ub], A_eq=a[eq], b_eq=b[eq],
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return -res.fun


@pytest.mark.parametrize("seed", range(4))
def test_no_signaling_lps_match_fraction_simplex_and_highs(monkeypatch, seed):
    game = transforms.oracularize_multi_round(
        random_multi_round_game(random.Random(seed), q=3, a=2, rounds=2))
    programs = []
    monkeypatch.setattr(values, "solve_lp", lambda lp: programs.append(lp) or solve_lp(lp))
    result = values.no_signaling_value(game)
    (lp,) = programs
    sol = _assert_same_solution(lp)
    assert sol.value == result.value
    assert abs(float(sol.value) - _highs_value(lp)) <= 1e-9
    stats = result.extras["lp"]
    assert stats == sol.stats and stats["phase1_pivots"] + stats["phase2_pivots"] > 0
    assert not stats["promoted"] and 0 < stats["max_bits"] < 31


# large coprime coefficients: the first LP's integer data fit int64, and its
# fraction-free entries pass 2**31 while it pivots; the scaled rows of the
# second LP exceed int64 from the start
_LARGE_LPS = [
    _lp(3, (1, 1, 1), [((65521, 3, 7), "<=", 1000003), ((5, 65519, 11), ">=", 99983),
                       ((13, 2, 65497), "<=", 1000033), ((1, 0, 1), "==", 10)]),
    _lp(2, (F(1, 3**40), 1), [((F(2, 3**41), 1), "<=", F(5, 7**25)), ((1, 1), "<=", 9)]),
]


@pytest.mark.parametrize("lp", _LARGE_LPS)
def test_tableau_promotes_to_python_ints_past_int64_safe_range(lp):
    sol = _assert_same_solution(lp)
    assert sol.status == "optimal"
    assert sol.stats["promoted"] and sol.stats["max_bits"] >= 32


def test_a_minus_2_63_coefficient_on_a_flipped_row_does_not_wrap():
    # the first row has a negative right-hand side, so the solver negates it;
    # in int64, -(-2**63) would wrap to -2**63
    lp = _lp(2, (2, 1), [((-2**63, -1), ">=", -2**63), ((1, 1), "<=", 5)])
    assert lp._rows.data.dtype == object
    sol = _assert_same_solution(lp)
    assert sol.status == "optimal"
    assert sol.x == (F(2**63 - 5, 2**63 - 1), F(4 * 2**63, 2**63 - 1))


def test_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    script = ("import sys, provergames\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_beale_cycling_switches_to_bland_like_fraction_simplex():
    lp = _lp(4, (F(3, 4), -150, F(1, 50), -6),
             [((F(1, 4), -60, F(-1, 25), 9), "<=", 0),
              ((F(1, 2), -90, F(-1, 50), 3), "<=", 0),
              ((0, 0, 1, 0), "<=", 1)])
    sol = _assert_same_solution(lp)
    assert sol.stats["bland_switches"] == 1
    assert sol.stats["degenerate_pivots"] > 40


# the LPs of test_duals_certify_optimality and test_equality_and_geq_mix
_LE_ROWS = _lp(2, (3, 5), [((1, 0), "<=", 4), ((0, 2), "<=", 12), ((3, 2), "<=", 18)])
_EQ_GE_ROWS = _lp(2, (1, 2), [((1, 1), "==", 2), ((1, 0), ">=", F(1, 3))])


def _at(values, k, value):
    return values[:k] + (value,) + values[k + 1:]


# each planted defect as (LP, change to its optimal solution, every defect
# the check must name); _LARGE_LPS[1] runs the check on Python ints
_PLANTED = {
    "negative coordinate": (
        _LE_ROWS, lambda s: dataclasses.replace(s, x=(F(-1), F(6))),
        ["primal point has a negative coordinate",
         "objective at primal point differs from reported value"]),
    "violated <= row": (
        _LE_ROWS, lambda s: dataclasses.replace(s, x=(F(4), F(6))),
        ["constraint 2 violated: 24 > 18",
         "objective at primal point differs from reported value"]),
    "violated == row": (
        _EQ_GE_ROWS, lambda s: dataclasses.replace(s, x=(F(1, 3), F(2))),
        ["constraint 0 violated: 7/3 != 2",
         "objective at primal point differs from reported value"]),
    "violated >= row": (
        _EQ_GE_ROWS, lambda s: dataclasses.replace(s, x=(F(0), F(2))),
        ["constraint 1 violated: 0 < 1/3",
         "objective at primal point differs from reported value"]),
    "violated rows, large coefficients": (
        _LARGE_LPS[0], lambda s: dataclasses.replace(s, x=_at(s.x, 0, s.x[0] + 1)),
        ["constraint 0 violated: 1065524 > 1000003",
         "constraint 2 violated: 1000046 > 1000033",
         "constraint 3 violated: 11 != 10",
         "objective at primal point differs from reported value"]),
    "violated rows, Python ints": (
        _LARGE_LPS[1], lambda s: dataclasses.replace(s, x=_at(s.x, 1, s.x[1] + 9)),
        ["constraint 0 violated: 12069617576975684107268/1341068619663964900807"
         " > 5/1341068619663964900807",
         "constraint 1 violated: 24321600135837222146541/2682137239327929801614 > 9",
         "objective at primal point differs from reported value"]),
    "wrong value": (
        _LARGE_LPS[1], lambda s: dataclasses.replace(s, value=s.value + 1),
        ["objective at primal point differs from reported value",
         "strong duality violated: dual objective 15/2682137239327929801614"]),
    "negative dual of a <= row": (
        _LE_ROWS, lambda s: dataclasses.replace(s, duals=_at(s.duals, 0, F(-1))),
        ["dual 0 negative for a <= row", "dual infeasible at column 0: 2 < 3",
         "strong duality violated: dual objective 32"]),
    "positive dual of a >= row": (
        _EQ_GE_ROWS, lambda s: dataclasses.replace(s, duals=_at(s.duals, 1, F(1))),
        ["dual 1 positive for a >= row", "strong duality violated: dual objective 13/3"]),
    "dual-infeasible columns": (
        _LARGE_LPS[1], lambda s: dataclasses.replace(s, duals=(F(0), F(0))),
        ["dual infeasible at column 0: 0 < 1/12157665459056928801",
         "dual infeasible at column 1: 0 < 1",
         "strong duality violated: dual objective 0"]),
    "broken strong duality": (
        _LE_ROWS, lambda s: dataclasses.replace(s, duals=_at(s.duals, 0, F(1))),
        ["strong duality violated: dual objective 40"]),
}


@pytest.mark.parametrize("defect", _PLANTED)
def test_certificate_check_names_each_planted_defect(defect):
    lp, plant, expected = _PLANTED[defect]
    sol = solve_lp(lp)
    assert check_certificates(lp, sol) == []
    assert check_certificates(lp, plant(sol)) == expected


@settings(max_examples=100, deadline=None)
@given(linear_programs())
def test_integer_form_decodes_to_the_dense_rows(lp):
    _assert_form_decodes(lp)


@pytest.mark.parametrize("lp", [_LE_ROWS, _EQ_GE_ROWS, *_LARGE_LPS])
def test_integer_form_of_fixed_lps_decodes_to_the_dense_rows(lp):
    _assert_form_decodes(lp)


def _assert_form_decodes(lp):
    """Each stored row over its scale is the dense row, with no zero kept;
    the scale is the lcm of the row's denominators, and int64 holds every
    array whose values fit."""
    form = lp._rows
    for i, c in enumerate(lp.constraints):
        f = int(form.scale[i])
        assert f == lcm(F(c.rhs).denominator, *(F(a).denominator for a in c.coeffs))
        row = [F(0)] * lp.num_vars
        cut = slice(form.indptr[i], form.indptr[i + 1])
        for j, a in zip(form.indices[cut].tolist(), form.data[cut].tolist()):
            assert a != 0
            row[j] = F(a, f)
        assert row == [F(a) for a in c.coeffs]
        assert F(int(form.rhs[i]), f) == c.rhs
        assert form.relations[i] == c.relation
    assert [F(int(v), form.unit) for v in form.cost] == [F(a) for a in lp.objective]
    for values in (form.data, form.scale, form.rhs, form.cost):
        fits = all(abs(int(v)) < 2**63 for v in values)
        assert (values.dtype == np.int64) == fits


def test_no_signaling_lp_form_decodes_to_its_dense_rows(monkeypatch):
    game = transforms.oracularize_multi_round(
        random_multi_round_game(random.Random(0), q=3, a=2, rounds=2))
    programs = []
    monkeypatch.setattr(values, "solve_lp", lambda lp: programs.append(lp) or solve_lp(lp))
    values.no_signaling_value(game)
    (lp,) = programs
    _assert_form_decodes(lp)
    assert lp._rows.data.dtype == np.int64
    assert set(lp._rows.data.tolist()) == {-1, 1}

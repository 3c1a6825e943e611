"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive (full enumeration, direct summation,
dense linear algebra) and shares no code path with the implementations it
checks.
"""

import itertools
from fractions import Fraction

import numpy as np

from provergames import scalars
from provergames.indexing import encode_tuple, iter_tuples


def brute_classical(game):
    """Max over all deterministic pairs by full product enumeration."""
    best = None
    for f1 in itertools.product(range(game.a1_count), repeat=game.q1_count):
        for f2 in itertools.product(range(game.a2_count), repeat=game.q2_count):
            v = sum(game.pi[q1][q2] * game.R[q1][q2][f1[q1]][f2[q2]]
                    for q1 in range(game.q1_count)
                    for q2 in range(game.q2_count)
                    if game.pi[q1][q2])
            if best is None or v > best:
                best = v
    return best


def brute_multi_round(game):
    """Max over deterministic prover tables f_k(q_1..q_k) (answers are a
    function of the questions seen, which loses no generality)."""
    nq, na, r = game.q_count, game.a_count, game.rounds
    tables = [list(itertools.product(range(na), repeat=nq**k))
              for k in range(1, r + 1)]
    best = None
    for combo in itertools.product(*tables):
        v = scalars.zero(game.mode)
        for qidx, qtup in enumerate(game.q_tuples()):
            if not game.pi[qidx]:
                continue
            answers = tuple(combo[k][encode_tuple(qtup[: k + 1], nq)]
                            for k in range(r))
            v += game.pi[qidx] * game.r_at(qtup, answers)
        if best is None or v > best:
            best = v
    return best


def brute_pcp(game):
    best = None
    r_d = game.r_dict()
    for proof in iter_tuples(game.alphabet_size, game.positions):
        v = scalars.zero(game.mode)
        for t, p in game.pi:
            if p:
                a = game.alphabet_size
                v += p * r_d[t][(proof[t[0]] * a + proof[t[1]]) * a + proof[t[2]]]
        if best is None or v > best:
            best = v
    return best


def best_1in3_fraction(formula):
    """Max fraction of clauses with exactly one true literal."""
    best = Fraction(0)
    for bits in itertools.product((0, 1), repeat=formula.num_vars):
        best = max(best, Fraction(formula.satisfied_count(bits),
                                  len(formula.clauses)))
    return best


def _solve_exact(rows, rhs):
    """Gaussian elimination over Fractions; returns None if singular."""
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def lp_vertex_enumeration(lp):
    """Optimal value over all vertices of a small LP (n <= 3 variables).

    Enumerates every choice of n constraints (rows or nonnegativity bounds)
    made tight, solves exactly, and keeps feasible points.  Returns None if
    no vertex is feasible.
    """
    n = lp.num_vars
    assert n <= 3
    candidates = []
    system = [(tuple(c.coeffs), c.rhs) for c in lp.constraints]
    system += [(tuple(Fraction(1 if j == i else 0) for j in range(n)), Fraction(0))
               for i in range(n)]
    for chosen in itertools.combinations(range(len(system)), n):
        rows = [system[i][0] for i in chosen]
        rhs = [system[i][1] for i in chosen]
        x = _solve_exact(rows, rhs)
        if x is None:
            continue
        if any(v < 0 for v in x):
            continue
        feasible = True
        for c in lp.constraints:
            lhs = sum(a * v for a, v in zip(c.coeffs, x))
            if ((c.relation == "<=" and lhs > c.rhs)
                    or (c.relation == ">=" and lhs < c.rhs)
                    or (c.relation == "==" and lhs != c.rhs)):
                feasible = False
                break
        if feasible:
            candidates.append(sum(c * v for c, v in zip(lp.objective, x)))
    return max(candidates) if candidates else None


def dense_joint_probability(state, m_op, n_op):
    """<psi| M (x) N |psi> via an explicit Kronecker product."""
    op = np.kron(np.asarray(m_op), np.asarray(n_op))
    return float(np.real(np.vdot(state, op @ state)))


def chsh_optimal_qubit_strategy():
    """The explicit optimal CHSH strategy; evaluates to cos^2(pi/8)."""
    from provergames.quantum import Povm, QuantumStrategy

    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def pvm(obs):
        return Povm(((eye + obs) / 2, (eye - obs) / 2), projective=True)

    alice = (pvm(sz), pvm(sx))
    bob = (pvm((sz + sx) / np.sqrt(2)), pvm((sz - sx) / np.sqrt(2)))
    state = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return QuantumStrategy(2, 2, state, alice, bob)


def _naive_split_projector(p_elem, rank, c_diff):
    vals, vecs = np.linalg.eigh(p_elem)
    basis = vecs[:, np.argsort(vals)[::-1][:rank]]
    comp = basis.conj().T @ c_diff @ basis
    w, v = np.linalg.eigh((comp + comp.conj().T) / 2)
    plus = basis @ v[:, w >= 0]
    first = plus @ plus.conj().T
    return first, p_elem - first


def naive_improve_pvm(elems, c_list, sweeps=3):
    """One question's see-saw measurement update, one matrix at a time.

    Sweeps the outcome pairs (a, b) in order; each pair's projector
    P = M_a + M_b is re-split onto the nonnegative eigenspace of the
    compressed C_a - C_b, kept only if sum Tr(M_a C_a) rises by more than
    1e-13.  Rank-0 pairs are skipped; a sweep with no change ends the loop.
    """
    outcomes = len(elems)
    elems = [np.array(e, dtype=complex) for e in elems]
    scores = [float(np.real(np.trace(e @ c))) for e, c in zip(elems, c_list)]
    for _ in range(sweeps):
        changed = False
        for a in range(outcomes):
            for b in range(a + 1, outcomes):
                p = elems[a] + elems[b]
                rank = int(round(float(np.real(np.trace(p)))))
                if rank == 0:
                    continue
                new_a, new_b = _naive_split_projector(p, rank, c_list[a] - c_list[b])
                sa = float(np.real(np.trace(new_a @ c_list[a])))
                sb = float(np.real(np.trace(new_b @ c_list[b])))
                if sa + sb > scores[a] + scores[b] + 1e-13:
                    elems[a], elems[b] = new_a, new_b
                    scores[a], scores[b] = sa, sb
                    changed = True
        if not changed:
            break
    return elems

"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive (full enumeration, direct summation,
dense linear algebra) and shares no code path with the implementations it
checks.
"""

import itertools
from fractions import Fraction

import numpy as np

from provergames import scalars
from provergames.games import BipartiteStrategy
from provergames.indexing import PrefixIndex, decode_tuple, encode_tuple, iter_tuples
from provergames.lp import (
    EQUAL, GREATER_EQUAL, INFEASIBLE, LESS_EQUAL, OPTIMAL, STALL_LIMIT, UNBOUNDED,
    LpSolution, VerificationError, _rat,
)


# ---------------------------------------------------------------------------
# one-tuple-at-a-time accessors of the library's flat tables


def q_tuples(game):
    """A multi-round game's question tuples, in flat-index order."""
    return iter_tuples(game.q_count, game.rounds)


def pi_at(game, qtup):
    return game.pi[encode_tuple(qtup, game.q_count)]


def r_at(game, qtup, atup):
    n = game.a_count**game.rounds
    return game.R[encode_tuple(qtup, game.q_count) * n + encode_tuple(atup, game.a_count)]


def prefix_tuples(index):
    """Every tuple of a ``PrefixIndex``, in index order."""
    for k in range(1, index.max_len + 1):
        yield from iter_tuples(index.base, k)


def prefix_length(index, idx):
    return len(index.decode(idx))


def satisfied_count(formula, assignment):
    """Number of clauses with exactly one true literal."""
    return sum(sum(bool(assignment[v]) == p for v, p in cl) == 1
               for cl in formula.clauses)


def embed(det, a1_count, a2_count, mode=scalars.RATIONAL):
    """A deterministic strategy as a point-mass ``BipartiteStrategy``."""
    theta = scalars.zeros((len(det.f1), len(det.f2), a1_count, a2_count), mode)
    theta[det.answer_cells()] = scalars.one(mode)
    return BipartiteStrategy(len(det.f1), len(det.f2), a1_count, a2_count,
                             theta, mode)


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
        for qidx, qtup in enumerate(q_tuples(game)):
            if not game.pi[qidx]:
                continue
            answers = tuple(combo[k][encode_tuple(qtup[: k + 1], nq)]
                            for k in range(r))
            v += game.pi[qidx] * r_at(game, qtup, answers)
        if best is None or v > best:
            best = v
    return best


def brute_pcp(game):
    best = None
    r_d = dict(zip(map(tuple, game.triples.tolist()), game.R))
    for proof in iter_tuples(game.alphabet_size, game.positions):
        v = scalars.zero(game.mode)
        for t, p in zip(map(tuple, game.triples.tolist()), game.pi):
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
        best = max(best, Fraction(satisfied_count(formula, bits),
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


def _to_rat(x):
    if isinstance(x, float):
        raise scalars.ModeError("linear programs require rational-mode scalars")
    return _rat(x)


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


def fraction_simplex(lp):
    """The dense two-phase simplex on ``Fraction`` lists that ``lp.solve_lp``
    replaced, kept as its differential oracle.

    The same pricing (Dantzig, Bland after ``STALL_LIMIT`` degenerate pivots),
    ratio test, phase 1, drive-out and dual read-out; it returns the solution
    without the certificate gate."""
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

    return LpSolution(OPTIMAL, value, tuple(x), tuple(duals))


def dense_joint_probability(state, m_op, n_op):
    """<psi| M (x) N |psi> via an explicit Kronecker product."""
    op = np.kron(np.asarray(m_op), np.asarray(n_op))
    return float(np.real(np.vdot(state, op @ state)))


def chsh_optimal_qubit_strategy():
    """The explicit optimal CHSH strategy; evaluates to cos^2(pi/8)."""
    from provergames.quantum import QuantumStrategy

    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)

    def pvm(obs):
        return ((eye + obs) / 2, (eye - obs) / 2)

    alice = (pvm(sz), pvm(sx))
    bob = (pvm((sz + sx) / np.sqrt(2)), pvm((sz - sx) / np.sqrt(2)))
    state = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return QuantumStrategy(2, 2, state, alice, bob, projective=True)


def round_robin_layers(outcomes):
    """The circle-method schedule of the outcome pairs, as a list of layers
    of ``(a, b)`` pairs with ``a < b``.

    Written from its closed form: with a bye ``n - 1`` added when the count
    is odd, layer k seats outcome 0 at place 0 and outcome
    1 + (i - 1 - k) mod (n - 1) at place i >= 1, and pairs place i with
    place n - 1 - i.  Pairs with the bye are dropped, and so are layers left
    empty.
    """
    n = outcomes + outcomes % 2
    layers = []
    for k in range(n - 1):
        seat = [0] + [1 + (i - 1 - k) % (n - 1) for i in range(1, n)]
        layer = [tuple(sorted((seat[i], seat[n - 1 - i]))) for i in range(n // 2)]
        layer = [pair for pair in layer if pair[1] < outcomes]
        if layer:
            layers.append(layer)
    return layers


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

    Sweeps the outcome pairs (a, b) in round-robin order
    (``round_robin_layers``); each pair's projector P = M_a + M_b is
    re-split in an eigenbasis of the range of P onto the nonnegative
    eigenspace of the compressed C_a - C_b, kept only if sum Tr(M_a C_a)
    rises by more than 1e-13.  Rank-0 pairs are skipped; a sweep with no
    change ends the loop.
    """
    elems = [np.array(e, dtype=complex) for e in elems]
    scores = [float(np.real(np.trace(e @ c))) for e, c in zip(elems, c_list)]
    pairs = [pair for layer in round_robin_layers(len(elems)) for pair in layer]
    for _ in range(sweeps):
        changed = False
        for a, b in pairs:
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


def _shifted_split(p, c_a, c_b):
    """The library's split of each item: the nonnegative eigenvectors of
    herm(P D P - (1 + |D|_F)(I - P)), D = C_a - C_b."""
    diff = c_a - c_b
    shift = (1 + np.linalg.norm(diff, axis=(1, 2)))[:, None, None]
    h = p @ diff @ p - shift * (np.eye(p.shape[-1]) - p)
    w, v = np.linalg.eigh((h + h.conj().swapaxes(1, 2)) / 2)
    plus = v * (w >= 0)[:, None, :]
    return plus @ plus.conj().swapaxes(1, 2)


def _range_basis_split(p, c_a, c_b):
    """The earlier split: C_a - C_b compressed to the range basis of
    ``eigh(P)``, one ``eigh`` per rank of P."""
    d = p.shape[-1]
    rank = np.rint(np.einsum("qii->q", p).real).astype(int)
    vecs = np.linalg.eigh(p)[1]
    first = np.empty_like(p)
    for r in set(rank.tolist()):
        g = rank == r
        basis = vecs[g, :, d - r:]
        comp = basis.conj().swapaxes(1, 2) @ (c_a[g] - c_b[g]) @ basis
        w, v = np.linalg.eigh((comp + comp.conj().swapaxes(1, 2)) / 2)
        plus = basis @ (v * (w >= 0)[:, None, :])
        first[g] = plus @ plus.conj().swapaxes(1, 2)
    return first


def _pairwise_resplit(m_arr, c_arr, pairs, split, sweeps=3):
    """``values._resplit_pvms`` with the outcome pairs run one at a time in
    the order ``pairs``, each over the stack of questions, split by
    ``split(P, C_a, C_b)``."""
    m_arr = m_arr.copy()
    scores = np.einsum("qaij,qaji->qa", m_arr, c_arr).real
    active = np.ones(m_arr.shape[0], dtype=bool)
    for _ in range(sweeps):
        changed = np.zeros_like(active)
        for a, b in pairs:
            p = m_arr[:, a] + m_arr[:, b]
            qs = np.flatnonzero(active & (np.rint(np.einsum("qii->q", p).real) > 0))
            if qs.size == 0:
                continue
            p, c_a, c_b = p[qs], c_arr[qs, a], c_arr[qs, b]
            first = split(p, c_a, c_b)
            second = p - first
            sa = np.einsum("qij,qji->q", first, c_a).real
            sb = np.einsum("qij,qji->q", second, c_b).real
            take = sa + sb > scores[qs, a] + scores[qs, b] + 1e-13
            hit = qs[take]
            m_arr[hit, a], m_arr[hit, b] = first[take], second[take]
            scores[hit, a], scores[hit, b] = sa[take], sb[take]
            changed[hit] = True
        active &= changed
        if not active.any():
            break
    return m_arr


def _sequential_resplit_pvms(m_arr, c_arr):
    """``values._resplit_pvms`` pair by pair on the round-robin schedule,
    with the library's per-item arithmetic."""
    pairs = [pair for layer in round_robin_layers(m_arr.shape[1]) for pair in layer]
    return _pairwise_resplit(m_arr, c_arr, pairs, _shifted_split)


def _combinations_resplit_pvms(m_arr, c_arr):
    """The earlier re-split, kept as the value reference: the outcome pairs
    in ``itertools.combinations`` order, split in the range basis of P."""
    pairs = itertools.combinations(range(m_arr.shape[1]), 2)
    return _pairwise_resplit(m_arr, c_arr, list(pairs), _range_basis_split)


def sequential_seesaw(game, dims=(2, 2), restarts=10, max_iters=100,
                      seed=0, classical_seed=None, resplit=_sequential_resplit_pvms):
    """``values.entangled_lower_bound`` with the restarts run one after
    another, each measurement half-step re-split pair by pair
    (``_sequential_resplit_pvms``): the library must match it bit for bit.
    With ``resplit=_combinations_resplit_pvms`` it is the earlier see-saw
    (``combinations_seesaw``).

    Returns the same ``ValueResult``; its extras also hold
    ``"restart_iters"``, the iterations each restart ran, so a test can
    show that its restarts stopped at different iterations.
    """
    from provergames import quantum
    from provergames.games import eval_two_prover
    from provergames.values import ValueResult, _game_operator, _objective

    d1, d2 = dims
    piR = game.pi[:, :, None, None] * game.R
    rng = np.random.default_rng(seed)

    starts = []
    if classical_seed is not None:
        starts.append(quantum.deterministic_strategy(
            classical_seed, d1, d2, game.a1_count, game.a2_count))
    starts.extend(quantum.random_strategy(rng, game, d1, d2)
                  for _ in range(restarts))

    best_val, best_strategy, best_trace, restart_values = -1.0, None, None, []
    restart_iters = []
    for s in starts:
        m_arr, n_arr, psi = s.M, s.N, s.state
        trace = []
        prev = -1.0
        for _ in range(max_iters):
            T = _game_operator(piR, m_arr, n_arr)
            vals, vecs = np.linalg.eigh(T)
            psi = vecs[:, -1]
            val = float(vals[-1])
            trace.append(val)

            psi_m = psi.reshape(d1, d2)
            k2 = np.einsum("ij,pakj,lk->pail", psi_m, n_arr, psi_m.conj())
            c1 = np.einsum("qpab,pbil->qail", piR, k2)
            m_arr = resplit(m_arr, c1)
            trace.append(_objective(piR, psi_m, m_arr, n_arr))

            b = np.einsum("ij,qaik,kl->qajl", psi_m.conj(), m_arr, psi_m)
            c2 = np.einsum("qpab,qajl->pblj", piR, b)
            n_arr = resplit(n_arr, c2)
            val = _objective(piR, psi_m, m_arr, n_arr)
            trace.append(val)
            if val - prev < 1e-12:
                break
            prev = val
        restart_values.append(trace[-1])
        restart_iters.append(len(trace) // 3)
        if trace[-1] > best_val:
            best_val = trace[-1]
            best_trace = trace
            best_strategy = quantum.QuantumStrategy(d1, d2, psi, m_arr, n_arr,
                                                    projective=True)

    induced = quantum.to_bipartite_strategy(best_strategy, game)
    reported = eval_two_prover(game, induced)
    return ValueResult(reported, best_strategy, "see-saw", False,
                       extras={"objective_trace": best_trace,
                               "restart_values": restart_values,
                               "restart_iters": restart_iters})


# ---------------------------------------------------------------------------
# nested-loop references for the array-based two-prover tables: each returns
# (pi, R) as nested lists, built one entry at a time


def combinations_seesaw(game, **kwargs):
    """The see-saw before the round-robin schedule, bit for bit: outcome
    pairs in ``itertools.combinations`` order, each split in the range
    basis of ``eigh(P)``.  The value reference for the library's see-saw."""
    return sequential_seesaw(game, resplit=_combinations_resplit_pvms, **kwargs)


def naive_parallel_repeat(game, n):
    """Product questions and answers; each entry a product over the copies."""
    one = scalars.one(game.mode)
    pi = []
    for q1s in iter_tuples(game.q1_count, n):
        row = []
        for q2s in iter_tuples(game.q2_count, n):
            p = one
            for x, y in zip(q1s, q2s):
                p *= game.pi[x][y]
                if not p:
                    break
            row.append(p)
        pi.append(row)
    R = []
    for q1s in iter_tuples(game.q1_count, n):
        row_q1 = []
        for q2s in iter_tuples(game.q2_count, n):
            block = []
            for a1s in iter_tuples(game.a1_count, n):
                entry = []
                for a2s in iter_tuples(game.a2_count, n):
                    v = one
                    for x, y, s, t in zip(q1s, q2s, a1s, a2s):
                        v *= game.R[x][y][s][t]
                        if not v:
                            break
                    entry.append(v)
                block.append(entry)
            row_q1.append(block)
        R.append(row_q1)
    return pi, R


def naive_oracularize_multi_round(game):
    r = game.rounds
    q1_tuples = [q for q in q_tuples(game) if pi_at(game, q)]
    prefixes = sorted({q[:k] for k in range(1, r + 1) for q in q1_tuples},
                      key=lambda p: (len(p), p))
    a_index = PrefixIndex(game.a_count, r)
    inv_r = Fraction(1, r) if game.mode == scalars.RATIONAL else 1.0 / r
    zero = scalars.zero(game.mode)
    a2_tuples = [a_index.decode(i) for i in range(len(a_index))]
    pi = [[pi_at(game, q) * inv_r if q[:len(p)] == p else zero for p in prefixes]
          for q in q1_tuples]
    R = []
    for q in q1_tuples:
        sim = [r_at(game, q, a) for a in iter_tuples(game.a_count, r)]
        row = []
        for p in prefixes:
            k = len(p)
            block = []
            for a1, atup in enumerate(iter_tuples(game.a_count, r)):
                block.append([sim[a1] if (len(a2t) == k and a2t == atup[:k]) else zero
                              for a2t in a2_tuples])
            row.append(block)
        R.append(row)
    return pi, R


def naive_oracularize_pcp(game):
    triples = game.support()
    positions = sorted({q for t in triples for q in t})
    a = game.alphabet_size
    third = Fraction(1, 3) if game.mode == scalars.RATIONAL else 1.0 / 3.0
    zero = scalars.zero(game.mode)
    triples_all = [tuple(t) for t in game.triples.tolist()]
    pi_d, r_d = dict(zip(triples_all, game.pi)), dict(zip(triples_all, game.R))
    pi = [[pi_d[t] * third if pos in t else zero for pos in positions]
          for t in triples]
    R = []
    for t in triples:
        row = []
        for pos in positions:
            j = t.index(pos) if pos in t else None
            block = []
            for a1 in range(a**3):
                a1tup = decode_tuple(a1, a, 3)
                s = r_d[t][a1]
                block.append([s if j is None or a2 == a1tup[j] else zero
                              for a2 in range(a)])
            row.append(block)
        R.append(row)
    return pi, R


def naive_oracularize_pcp_dummy(game):
    from provergames.transforms import pcp_question_marginal

    triples = game.support()
    marg = pcp_question_marginal(game)
    positions = sorted(marg)
    pairs = [(u, v) for i, u in enumerate(positions) for v in positions[i:]]
    a = game.alphabet_size
    third = Fraction(1, 3) if game.mode == scalars.RATIONAL else 1.0 / 3.0
    zero, one = scalars.zero(game.mode), scalars.one(game.mode)
    half = Fraction(1, 2) if game.mode == scalars.RATIONAL else 0.5
    triples_all = [tuple(t) for t in game.triples.tolist()]
    pi_d, r_d = dict(zip(triples_all, game.pi)), dict(zip(triples_all, game.R))
    pi, R = [], []
    for t in triples:
        pi_row, r_row = [], []
        for (u, v) in pairs:
            w_u = third * marg[v] if u in t else zero
            w_v = third * marg[u] if v in t else zero
            w_total = w_u if u == v else w_u + w_v
            pi_row.append(pi_d[t] * w_total)
            ju = t.index(u) if u in t else None
            jv = t.index(v) if v in t else None
            block = []
            for a1 in range(a**3):
                a1tup = decode_tuple(a1, a, 3)
                entry = []
                for a2 in range(a**2):
                    b1, b2 = decode_tuple(a2, a, 2)
                    if u == v:
                        if ju is None:
                            acc = one
                        else:
                            acc = half * ((one if b1 == a1tup[ju] else zero)
                                          + (one if b2 == a1tup[ju] else zero))
                    elif w_total:
                        acc_u = one if (ju is not None and b1 == a1tup[ju]) else zero
                        acc_v = one if (jv is not None and b2 == a1tup[jv]) else zero
                        acc = (w_u * acc_u + w_v * acc_v) / w_total
                    else:
                        acc = one
                    entry.append(r_d[t][a1] * acc)
                block.append(entry)
            r_row.append(block)
        pi.append(pi_row)
        R.append(r_row)
    return pi, R


def naive_classical_value(game):
    """(value, (f1, f2)): enumerate the cheaper prover's tables in
    lexicographic order against the other's best response; ties keep the
    first table and the smallest answer."""
    enumerate_first = (game.a1_count**game.q1_count
                       <= game.a2_count**game.q2_count)
    best = best_pair = None
    if enumerate_first:
        for f1 in itertools.product(range(game.a1_count), repeat=game.q1_count):
            total = scalars.zero(game.mode)
            f2 = []
            for q2 in range(game.q2_count):
                scores = [sum(game.pi[q1][q2] * game.R[q1][q2][f1[q1]][a2]
                              for q1 in range(game.q1_count) if game.pi[q1][q2])
                          for a2 in range(game.a2_count)]
                a2 = max(range(game.a2_count), key=lambda a: (scores[a], -a))
                f2.append(a2)
                total += scores[a2]
            if best is None or total > best:
                best, best_pair = total, (tuple(f1), tuple(f2))
    else:
        for f2 in itertools.product(range(game.a2_count), repeat=game.q2_count):
            total = scalars.zero(game.mode)
            f1 = []
            for q1 in range(game.q1_count):
                scores = [sum(game.pi[q1][q2] * game.R[q1][q2][a1][f2[q2]]
                              for q2 in range(game.q2_count) if game.pi[q1][q2])
                          for a1 in range(game.a1_count)]
                a1 = max(range(game.a1_count), key=lambda a: (scores[a], -a))
                f1.append(a1)
                total += scores[a1]
            if best is None or total > best:
                best, best_pair = total, (tuple(f1), tuple(f2))
    return best, best_pair


# ---------------------------------------------------------------------------
# per-element references for the commuting-operator rounding: one matrix,
# one outcome and one string at a time


def _naive_distance(blocks_a, blocks_b):
    """Trace distance of the states sum_x |x> (x) v_x given their blocks."""
    va = np.concatenate([b.ravel() for b in blocks_a])
    vb = np.concatenate([b.ravel() for b in blocks_b])
    return float(np.sqrt(max(0.0, 1.0 - abs(np.vdot(va, vb)) ** 2)))


def naive_com_tables(tables):
    """``com_decompose``'s d1-d4 and eps, eps_cons, eps_sim recomputed one
    matrix at a time from its averaged measurements, roots and per-triple
    operators: d3 as ``[triple row][coordinate]``, the others as lists."""
    s, a, qn = tables.strategy, tables.alphabet, tables.num_positions
    psi = s.state_matrix()
    pos = tables.positions.tolist()
    pairs = [tuple(p) for p in tables.gprime.meta["pairs"]]
    X, Y, Mbar, Nbar = tables.X, tables.Y, tables.Mbar, tables.Nbar
    rows = list(zip(tables.game_sorted.triples.tolist(), tables.game_sorted.pi.tolist(),
                    tables.game_sorted.R.tolist(), tables.triple_ops))

    def marginal(elems, k, c):  # [x]: the elements whose k-digit answer has digit c = x
        return [sum(e for aidx, e in enumerate(elems) if decode_tuple(aidx, a, k)[c] == x)
                for x in range(a)]

    def n_marginal(q, qt):
        u, v = pos[q], pos[qt]
        return marginal(s.N[pairs.index((min(u, v), max(u, v)))], 2, 0 if u <= v else 1)

    def expect(m_op, n_op):
        return float(np.real(np.vdot(psi, m_op @ psi @ n_op.T)))

    def right(n_ops):
        return [psi @ e.T for e in n_ops]

    def left(q):
        return [x @ psi for x in X[q]]

    return {
        "eps_cons": 1.0 - sum(tables.marginal[q] * expect(Mbar[q][x], Nbar[q][x])
                              for q in range(qn) for x in range(a)),
        "eps_sim": 1.0 - sum(p * r[aidx] * float(np.real(np.vdot(psi, ops[aidx] @ psi)))
                             for _, p, r, ops in rows for aidx in range(a**3)),
        "eps": 1.0 - sum(p / 3.0 * r[aidx]
                         * expect(ops[aidx], Nbar[t[c]][decode_tuple(aidx, a, 3)[c]])
                         for t, p, r, ops in rows for aidx in range(a**3) for c in range(3)),
        "d1": [_naive_distance(left(q), right(Y[q])) for q in range(qn)],
        "d2": [[_naive_distance(left(q), right(n_marginal(q, qt))) for qt in range(qn)]
               for q in range(qn)],
        "d3": [[_naive_distance([m @ psi for m in marginal(ops, 3, c)], right(Y[t[c]]))
                for c in range(3)] for t, _, _, ops in rows],
        "d4": [[_naive_distance([X[q2][x2] @ X[q1][x1] @ psi for x1 in range(a) for x2 in range(a)],
                                [X[q1][x1] @ X[q2][x2] @ psi for x1 in range(a) for x2 in range(a)])
                for q2 in range(qn)] for q1 in range(qn)],
    }


def naive_sequential_masses(X, psi, seq):
    """|| X[seq[-1]][z[-1]] ... X[seq[0]][z[0]] psi ||^2 for each string z,
    lexicographic, one string at a time."""
    masses = []
    for z in iter_tuples(len(X[0]), len(seq)):
        state = psi
        for q, x in zip(seq, z):
            state = X[q][x] @ state
        masses.append(float(np.real(np.vdot(state, state))))
    return masses


def naive_claim_selection_lhs(X, psi, t_list, i):
    """Half the l1 distance between the outcome distributions of the product
    X[t_m] ... X[t_1] psi and of the same product with X[t_i] applied first."""
    moved = [i - 1] + [j for j in range(len(t_list)) if j != i - 1]
    lhs = 0.0
    for z in iter_tuples(len(X[0]), len(t_list)):
        s1 = s2 = psi
        for j, k in zip(range(len(t_list)), moved):
            s1 = X[t_list[j]][z[j]] @ s1
            s2 = X[t_list[k]][z[k]] @ s2
        lhs += abs(float(np.real(np.vdot(s1, s1))) - float(np.real(np.vdot(s2, s2))))
    return lhs / 2.0

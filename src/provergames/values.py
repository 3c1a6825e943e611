"""Game values: exact classical/multi-round/PCP/no-signaling, and an
entangled lower bound via alternating (see-saw) optimization.

Every result carries a witness strategy that re-evaluates to the reported
value (exactly in rational mode, within 1e-9 in float mode).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import quantum, scalars
from .games import (
    BipartiteStrategy,
    DeterministicBipartiteStrategy,
    MultiRoundStrategy,
    check_table_size,
    eval_two_prover,
)
from .indexing import digit_table
from .lp import (EQUAL, OPTIMAL, LinearProgram, VerificationError, check_lp_size,
                 solve_lp)


@dataclass(frozen=True)
class ValueResult:
    value: object
    witness: object
    method: str
    exact: bool
    extras: dict = field(default_factory=dict, compare=False)


#: Entries of the score array of one batch of enumerated function tables in
#: ``classical_value`` (and of enumerated proofs in ``pcp_value``); bounds
#: its memory whatever the game size.
CLASSICAL_BATCH_ENTRIES = 1 << 18


def _scored_tables(game, terms):
    """``(pi, R, den)``: the tables whose products are scored, and what
    turns a score into the value.

    In rational mode they are the numerators of the game's integer forms,
    over the common denominator ``den`` of their products, int64 unless a
    sum of ``terms`` products could overflow; scaling by ``den`` keeps every
    comparison, so the argmaxes and ties are those of the exact weights.
    In float mode they are the tables themselves and ``den`` is None.
    """
    if game.mode == scalars.FLOAT:
        return game.pi, game.R, None
    pi, R = game.exact_forms()
    return pi.widen(terms, power=2), R.widen(terms, power=2), pi.den * R.den


def _value(score, den):
    """A best score as the game value: ``Fraction(score, den)``, or the
    float itself in float mode."""
    return scalars.as_python(score) if den is None else Fraction(int(score), den)


def _total(scores, axis):
    """Sum over ``axis`` of an integer or float score array, started at 0
    like ``scalars.total``, so float sums keep their order."""
    return np.sum(scores, axis=axis, initial=0)


def classical_value(game):
    """Exact optimum over deterministic strategy pairs.

    Enumerates the cheaper prover's function table and computes the other
    prover's best response per question, which is exact because the payoff
    is linear in each prover's table.  Tables are scored in batches, in
    lexicographic order; ties keep the first table and the smallest
    best-response answer.  A rational game is scored on integer weights
    over one denominator (``_scored_tables``).
    """
    cost1 = game.a1_count**game.q1_count
    cost2 = game.a2_count**game.q2_count
    enumerate_first = cost1 <= cost2
    work = min(cost1, cost2) * game.q1_count * game.q2_count * (
        game.a2_count if enumerate_first else game.a1_count)
    check_table_size(work, "classical_value enumeration")

    # weight[q][p][a][b]: q, a belong to the enumerated prover, p, b to the
    # responding one
    pi, R, den = _scored_tables(game, game.q1_count * game.q2_count)
    weight = pi[:, :, None, None] * R
    if not enumerate_first:
        weight = weight.transpose(1, 0, 3, 2)
    q_count, p_count, a_count, b_count = weight.shape
    batch = max(1, CLASSICAL_BATCH_ENTRIES // (q_count * p_count * b_count))
    best = best_f = None
    for start in range(0, a_count**q_count, batch):
        f = digit_table(a_count, q_count, start, min(start + batch, a_count**q_count))
        # scores[table][p][b]: the responder's payoff for answer b to p
        scores = _total(weight[np.arange(q_count), :, f, :], axis=1)
        totals = _total(scores.max(axis=2), axis=1)
        i = int(np.argmax(totals))
        if best is None or totals[i] > best:
            best, best_f, best_scores = totals[i], f[i], scores[i]
    tables = (tuple(best_f.tolist()), tuple(np.argmax(best_scores, axis=1).tolist()))
    witness = DeterministicBipartiteStrategy(*(tables if enumerate_first else tables[::-1]))
    return ValueResult(_value(best, den), witness,
                       "deterministic-enumeration", game.mode == scalars.RATIONAL)


def multi_round_value(game):
    """Exact value by backward induction over conversation prefixes.

    ``level`` holds the unnormalized continuation value of every (question
    prefix, answer prefix) of length k, as a ``(Q^k, A^k)`` array; viewed as
    ``(Q^(k-1), Q, A^(k-1), A)``, one step maximizes over the last answer
    and sums over the last question.  The witness is the deterministic
    strategy of the argmaxes (ties keep the smallest answer).  A rational
    game is scored on integer weights over one denominator
    (``_scored_tables``).
    """
    nq, na, r = game.q_count, game.a_count, game.rounds
    check_table_size(2 * nq**r * na**r, "multi_round_value tables")
    pi, R, den = _scored_tables(game, nq**r)
    level = pi[:, None] * R.reshape(nq**r, na**r)
    tables = []
    for k in range(r - 1, -1, -1):
        block = level.reshape(nq**k, nq, na**k, na)
        best = np.argmax(block, axis=3).ravel()
        table = scalars.zeros((best.size, na), game.mode)
        table[np.arange(best.size), best] = scalars.one(game.mode)
        tables.insert(0, table)
        level = _total(block.max(axis=3), axis=1)
    witness = MultiRoundStrategy(nq, na, r, tables, game.mode)
    return ValueResult(_value(level[0, 0], den), witness, "backward-induction",
                       game.mode == scalars.RATIONAL)


def pcp_value(game):
    """Exact max over deterministic proofs.

    Enumerates A^Q in lexicographic batches of ``digit_table`` rows and
    scores each batch against the support triples at once; ties keep the
    first proof.  A rational game is scored on integer weights over one
    denominator (``_scored_tables``).
    """
    sup = game.pi > 0
    triples = game.triples[sup]
    pi, R, den = _scored_tables(game, len(triples))
    weight = pi[sup][:, None] * R[sup]
    a, n = game.alphabet_size, game.positions
    check_table_size(a**n * max(1, len(triples)), "pcp_value enumeration")
    batch = max(1, CLASSICAL_BATCH_ENTRIES // max(1, len(triples)))
    best = best_proof = None
    for start in range(0, a**n, batch):
        proofs = digit_table(a, n, start, min(start + batch, a**n))
        codes = proofs[:, triples] @ np.array([a * a, a, 1])  # [proof][triple]
        # summed over the triples in order, one proof per column
        totals = _total(weight[np.arange(len(triples))[:, None], codes.T], axis=0)
        i = int(np.argmax(totals))
        if best is None or totals[i] > best:
            best, best_proof = totals[i], proofs[i]
    return ValueResult(_value(best, den), tuple(best_proof.tolist()),
                       "proof-enumeration", game.mode == scalars.RATIONAL)


def no_signaling_value(game):
    """Exact no-signaling value by linear programming.

    Variables are the conditional table on the support of pi plus shared
    per-prover marginal tables; constraints are nonnegativity, per-pair
    normalization, the marginal (no-signaling) equalities, and marginal
    normalization.  The witness extends the LP point to all question pairs
    using the shared marginals (a product completion), so it passes
    ``is_no_signaling`` with violation 0.  ``extras`` holds the LP's duals and
    its solver counts (``"lp"``: ``LpSolution.stats``).
    """
    if game.mode != scalars.RATIONAL:
        raise scalars.ModeError("no_signaling_value requires a rational-mode game")
    q1n, q2n, a1n, a2n = game.shape
    sup = np.nonzero(game.pi > 0)  # the support, in row-major order
    # variable indices: the table on the support, then both marginal tables
    t_var = np.arange(len(sup[0]) * a1n * a2n).reshape(-1, a1n, a2n)
    m1_var = t_var.size + np.arange(q1n * a1n).reshape(q1n, a1n)
    m2_var = m1_var.size + t_var.size + np.arange(q2n * a2n).reshape(q2n, a2n)
    n = t_var.size + m1_var.size + m2_var.size

    # rows: per support pair its normalization, then its a1 and a2 marginal
    # equalities; then each marginal table's normalizations
    pairs, a1s, a2s = len(sup[0]), np.arange(a1n), np.arange(a2n)
    base = (1 + a1n + a2n) * np.arange(pairs)
    m = pairs * (1 + a1n + a2n) + q1n + q2n
    check_lp_size(n, m)
    A = np.zeros((m, n), dtype=np.int8)
    A[base[:, None], t_var.reshape(pairs, a1n * a2n)] = 1
    A[base[:, None, None] + 1 + a1s[:, None], t_var] = 1
    A[base[:, None] + 1 + a1s, m1_var[sup[0]]] = -1
    A[base[:, None, None] + 1 + a1n + a2s, t_var] = 1
    A[base[:, None] + 1 + a1n + a2s, m2_var[sup[1]]] = -1
    A[m - q1n - q2n + np.arange(q1n)[:, None], m1_var] = 1
    A[m - q2n + np.arange(q2n)[:, None], m2_var] = 1
    b = np.zeros(m, dtype=np.int8)
    b[base] = b[m - q1n - q2n:] = 1

    objective = [Fraction(0)] * n
    objective[:t_var.size] = (game.pi[sup][:, None, None] * game.R[sup]).ravel().tolist()
    rows = zip(A.tolist(), itertools.repeat(EQUAL), b.tolist())

    sol = solve_lp(LinearProgram(n, tuple(objective), tuple(rows)))
    if sol.status != OPTIMAL:  # the polytope is nonempty and bounded
        raise VerificationError(f"no-signaling LP ended {sol.status}")

    x = np.array(sol.x, dtype=object)
    table = scalars.zeros(game.shape, scalars.RATIONAL)
    table[sup] = x[t_var]
    m1, m2 = x[m1_var], x[m2_var]
    theta = np.where(game.pi[:, :, None, None] > 0, table,
                     m1[:, None, :, None] * m2[None, :, None, :])
    witness = BipartiteStrategy(*game.shape, theta, scalars.RATIONAL)
    return ValueResult(sol.value, witness, "no-signaling-lp", True,
                       extras={"duals": sol.duals, "lp": sol.stats})


# ---------------------------------------------------------------------------
# see-saw lower bound on the entangled value


def _game_operator(piR, m_arr, n_arr):
    w = np.einsum("qpab,pbjk->qajk", piR, n_arr)
    T = np.einsum("qaik,qajl->ijkl", m_arr, w)
    d = m_arr.shape[2] * n_arr.shape[2]
    T = T.reshape(d, d)
    return (T + T.conj().T) / 2


def _objective(piR, psi_m, m_arr, n_arr):
    k = np.einsum("ij,pakj,lk->pail", psi_m, n_arr, psi_m.conj())
    return float(np.real(np.einsum("qpab,qaik,pbki->", piR, m_arr, k)))


@functools.cache
def _pair_layers(outcomes):
    """The outcome pairs on a round-robin schedule (the circle method):
    ``(a, b)`` read-only index arrays per layer, ``a < b``.  Outcome 0 stays
    put and the others rotate one place per layer, with a bye when A is odd,
    so the pairs of a layer share no outcome and commute: A - 1 layers for
    even A, A for odd A, none for A = 1.
    """
    n = outcomes + outcomes % 2  # outcome n - 1 is the bye when A is odd
    ring, layers = list(range(n)), []
    for _ in range(n - 1):
        pairs = [sorted(p) for p in zip(ring[:n // 2], ring[::-1]) if max(p) < outcomes]
        if pairs:
            layers.append(np.array(pairs).T)
            layers[-1].flags.writeable = False
        ring = ring[:1] + ring[-1:] + ring[1:-1]
    return tuple(layers)


def _resplit_pvms(m_arr, c_arr, sweeps=3):
    """Pairwise projector re-splits of every question's PVM at once.

    ``m_arr`` and ``c_arr`` are ``(Q, A, d, d)``.  For each outcome pair
    (a, b) of the round-robin schedule (``_pair_layers``), each question's
    P = M_a + M_b is split onto the nonnegative eigenspace of D = C_a - C_b
    compressed to the range of P: the eigenvectors with eigenvalue >= 0 of
    herm(P D P - (1 + |D|_F)(I - P)), whose shift puts the kernel of P below
    the compression's spectrum, span M_a, and M_b = P - M_a.  A question
    keeps the split only if sum_a Tr(M_a C_a) rises by more than 1e-13, so
    it never drops; it leaves after a sweep with no change.

    Each layer's (question, pair) items are split by one stacked ``eigh``.
    The pairs of a layer read and write disjoint outcomes and the questions
    are independent, so every item sees exactly the inputs it would see
    pair by pair, and each stacked numpy call computes each item on its own:
    the result is bit-identical to the pair-by-pair order, whatever the
    stack holds.  That is also why questions of several see-saw restarts
    may share one call.
    """
    m_arr = m_arr.copy()
    eye = np.eye(m_arr.shape[-1])
    scores = np.einsum("qaij,qaji->qa", m_arr, c_arr).real
    active = np.ones(m_arr.shape[0], dtype=bool)
    for _ in range(sweeps):
        changed = np.zeros_like(active)
        for a, b in _pair_layers(m_arr.shape[1]):
            p = m_arr[:, a] + m_arr[:, b]
            qs, ls = np.nonzero(active[:, None] & (np.rint(np.einsum("qlii->ql", p).real) > 0))
            if qs.size == 0:
                continue
            qa, qb = a[ls], b[ls]
            p, c_a, c_b = p[qs, ls], c_arr[qs, qa], c_arr[qs, qb]
            diff = c_a - c_b
            h = p @ diff @ p - (1 + np.linalg.norm(diff, axis=(1, 2)))[:, None, None] * (eye - p)
            w, v = np.linalg.eigh((h + h.conj().swapaxes(1, 2)) / 2)
            plus = v * (w >= 0)[:, None, :]
            first = plus @ plus.conj().swapaxes(1, 2)
            second = p - first
            sa = np.einsum("qij,qji->q", first, c_a).real
            sb = np.einsum("qij,qji->q", second, c_b).real
            take = sa + sb > scores[qs, qa] + scores[qs, qb] + 1e-13
            hit, qa, qb = qs[take], qa[take], qb[take]
            m_arr[hit, qa], m_arr[hit, qb] = first[take], second[take]
            scores[hit, qa], scores[hit, qb] = sa[take], sb[take]
            changed[hit] = True
        active &= changed
        if not active.any():
            break
    return m_arr


def entangled_lower_bound(game, dims=(2, 2), restarts=10, max_iters=100,
                          seed=0, classical_seed=None):
    """Lower bound on the entangled value by alternating optimization.

    Each restart alternates three half-steps: the optimal shared state for
    fixed measurements (top eigenvector of the game operator), then each
    prover's measurement update (``_resplit_pvms``: pairwise projector
    re-splits against the answer-conditional operators, the outcome pairs on
    a round-robin schedule).  Every half-step is monotone
    non-decreasing, each restart stops once an iteration gains less than
    1e-12 or after ``max_iters`` iterations, the trace of objectives is
    recorded, and the witness is the restart with the highest final value
    (ties keep the earliest restart).

    The restarts run in lockstep.  Each live restart computes its own state
    and conditional operators, and one ``_resplit_pvms`` call per prover
    re-splits the questions of every live restart as one stack.  Restarts
    share no data, and the re-split computes each question on its own, so
    every restart follows the trajectory it would follow alone, bit for bit.

    ``classical_seed`` optionally adds a restart initialized at a
    deterministic strategy, which pins the result above that strategy's
    value.  Non-convergence is not an error; the best iterate is returned.
    """
    d1, d2 = dims
    if d1 < 1 or d2 < 1:
        raise ValueError("dims must be at least 1")
    check_table_size((d1 * d2)**2, "see-saw game operator")
    if restarts < 1 and classical_seed is None:
        raise ValueError("need at least one restart or a classical seed")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if game.mode != scalars.FLOAT:
        raise scalars.ModeError("entangled_lower_bound requires a float-mode game "
                                "(use game.to_float())")
    piR = game.pi[:, :, None, None] * game.R
    rng = np.random.default_rng(seed)

    starts = []
    if classical_seed is not None:
        starts.append(quantum.deterministic_strategy(
            classical_seed, d1, d2, game.a1_count, game.a2_count))
    starts.extend(quantum.random_strategy(rng, game, d1, d2)
                  for _ in range(restarts))

    # per restart, in start order: its measurements, state and trace
    m = [s.M for s in starts]
    n = [s.N for s in starts]
    psi_m = [None] * len(starts)
    traces = [[] for _ in starts]
    prev = [-1.0] * len(starts)
    live = list(range(len(starts)))
    for _ in range(max_iters):
        if not live:
            break
        c1 = []
        for i in live:
            vals, vecs = np.linalg.eigh(_game_operator(piR, m[i], n[i]))
            psi_m[i] = vecs[:, -1].reshape(d1, d2)
            traces[i].append(float(vals[-1]))
            k2 = np.einsum("ij,pakj,lk->pail", psi_m[i], n[i], psi_m[i].conj())
            c1.append(np.einsum("qpab,pbil->qail", piR, k2))
        stack = _resplit_pvms(np.concatenate([m[i] for i in live]), np.concatenate(c1))
        c2 = []
        for i, m_i in zip(live, np.split(stack, len(live))):
            m[i] = m_i
            traces[i].append(_objective(piR, psi_m[i], m[i], n[i]))
            b = np.einsum("ij,qaik,kl->qajl", psi_m[i].conj(), m[i], psi_m[i])
            c2.append(np.einsum("qpab,qajl->pblj", piR, b))
        stack = _resplit_pvms(np.concatenate([n[i] for i in live]), np.concatenate(c2))
        still = []
        for i, n_i in zip(live, np.split(stack, len(live))):
            n[i] = n_i
            val = _objective(piR, psi_m[i], m[i], n[i])
            traces[i].append(val)
            if val - prev[i] < 1e-12:
                continue
            prev[i] = val
            still.append(i)
        live = still

    restart_values = [trace[-1] for trace in traces]
    best = max(range(len(starts)), key=restart_values.__getitem__)
    best_strategy = quantum.QuantumStrategy(d1, d2, psi_m[best].ravel(), m[best],
                                            n[best], projective=True)
    induced = quantum.to_bipartite_strategy(best_strategy, game)
    reported = eval_two_prover(game, induced)
    return ValueResult(reported, best_strategy, "see-saw", False,
                       extras={"objective_trace": traces[best],
                               "restart_values": restart_values})

"""Strategy rounding and inequality verification.

Two constructions are implemented and instrumented end to end:

* the no-signaling rounding: decompose a no-signaling strategy of an
  oracularized multi-round game into prover marginals, round it to a
  single-prover strategy, build the hybrid families interpolating between
  the rounded strategy and the second prover's behavior, and verify every
  inequality of the chain exactly (rational mode, zero tolerance);

* the commuting-operator rounding: average a projective strategy of a
  dummy-oracularized PCP game into per-position POVMs, take operator square
  roots, round to a proof distribution by sequential application in
  descending-probability order, and verify the distance bounds within 1e-7.

Reports carry measured left-hand sides next to the proven right-hand
sides, so a violation (always an implementation bug) is diagnosable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import quantum, scalars
from .games import (
    BipartiteStrategy,
    MultiRoundGame,
    MultiRoundStrategy,
    PcpGame,
    PcpProofDistribution,
    check_table_size,
    eval_two_prover,
    is_no_signaling,
    pcp_triple_distribution,
)
from .indexing import PrefixIndex, decode_tuple, digit_table, encode_tuple
from .lp import VerificationError
from .transforms import pcp_question_marginal

FLOAT_CLAIM_TOL = 1e-7
CHAIN_TOL = 1e-8

#: Final soundness constant: eps >= (1 - w)^2 * c / Q^2 with
#: c = 1 / (1 + 15 sqrt(2))^2.
COM_SOUNDNESS_CONSTANT = 1.0 / (1.0 + 15.0 * np.sqrt(2.0)) ** 2


@dataclass(frozen=True)
class InequalityRow:
    name: str
    lhs: object
    rhs: object
    tol: object

    @property
    def holds(self):
        return bool(self.lhs <= self.rhs + self.tol)


@dataclass(frozen=True)
class InequalityReport:
    rows: tuple

    @property
    def ok(self):
        return all(r.holds for r in self.rows)

    def failures(self):
        return [r for r in self.rows if not r.holds]


def statistical_difference(p, q):
    """Half the l1 distance between two (sub)distributions."""
    total = abs(p[0] - q[0])
    for x, y in zip(p[1:], q[1:]):
        total += abs(x - y)
    return total / 2


# ---------------------------------------------------------------------------
# no-signaling rounding (oracularized multi-round games)


@dataclass(frozen=True)
class NsMarginalTables:
    """Marginal decomposition of a no-signaling strategy of an oracularized
    multi-round game, plus its failure probabilities."""

    game: MultiRoundGame  # base game reconstructed from the transform
    oracularized: object
    strategy: BipartiteStrategy
    rounds: int
    q_tuples: tuple  # first-prover questions (support of base pi)
    alpha: np.ndarray  # [q index] -> distribution over A^r
    alpha_prefix: dict  # (q index, k) -> array over A^k
    beta: dict  # prefix tuple -> array over A^k
    eps: object
    eps_cons: object
    eps_sim: object
    eps_cons_qk: dict  # (q index, k) -> scalar
    eps_cons_q: dict  # q index -> scalar
    eps_k: dict  # k -> scalar
    mode: str = scalars.RATIONAL


class ShapeError(ValueError):
    """Second prover puts mass on answers of the wrong length."""


def _require_meta(gprime, kind):
    meta = gprime.meta or {}
    if meta.get("kind") != kind:
        raise ValueError(f"expected a game of kind {kind!r}, got {meta.get('kind')!r}")
    return meta


def _questions(meta):
    """The first prover's question tuples of an oracularized multi-round
    game, their flat indices in the base game, and ``[q index][k - 1]``: the
    second prover's question index of each tuple's length-k prefix."""
    q_tuples = [tuple(q) for q in meta["q1_tuples"]]
    probe = {tuple(p): j for j, p in enumerate(meta["q2_prefixes"])}
    probes = np.array([[probe[q[:k]] for k in range(1, meta["rounds"] + 1)]
                       for q in q_tuples])
    qflat = np.array([encode_tuple(q, meta["base_q_count"]) for q in q_tuples])
    return q_tuples, qflat, probes


def reconstruct_multi_round(gprime):
    """Rebuild the base game from an oracularized game's tables.

    The base predicate is read off the full-length consistency pairs; question
    tuples outside the support get probability 0 and a rejecting predicate,
    which no value computation ever weighs.
    """
    meta = _require_meta(gprime, "oracularized_multi_round")
    r, nq, na = meta["rounds"], meta["base_q_count"], meta["base_a_count"]
    q_tuples, qflat, probes = _questions(meta)
    i, full = np.arange(len(q_tuples)), probes[:, -1]
    a = np.arange(na**r)
    pi = scalars.zeros(nq**r, gprime.mode)
    pi[qflat] = gprime.pi[i, full] * r
    R = scalars.zeros((nq**r, na**r), gprime.mode)
    R[qflat] = gprime.R[i[:, None], full[:, None], a, PrefixIndex(na, r).offsets[-1] + a]
    return MultiRoundGame(nq, na, r, pi, R.ravel(), gprime.mode)


def normalize_answer_shape(theta, gprime):
    """Move second-prover mass on wrong-length answers onto the all-zeros
    answer of the probed length.

    This is local post-processing of the second prover's output, so it
    preserves no-signaling exactly, and such answers always fail the
    consistency test, so the value never decreases.
    """
    meta = _require_meta(gprime, "oracularized_multi_round")
    r, na = meta["rounds"], meta["base_a_count"]
    a_index = PrefixIndex(na, r)
    zero = scalars.zero(theta.mode)

    table = theta.theta.copy()
    for j, p in enumerate(meta["q2_prefixes"]):
        # answers of the probed length form one block, starting with (0,) * k
        start = a_index.offsets[len(p) - 1]
        stop = start + na ** len(p)
        block = table[:, j]
        moved = (scalars.total(block[:, :, :start], theta.mode, axis=2)
                 + scalars.total(block[:, :, stop:], theta.mode, axis=2))
        block[:, :, :start] = zero
        block[:, :, stop:] = zero
        block[:, :, start] += moved
    return BipartiteStrategy(theta.q1_count, theta.q2_count, theta.a1_count,
                             theta.a2_count, table, theta.mode)


def ns_decompose(gprime, theta):
    """Decompose a no-signaling strategy into the alpha/beta marginal tables
    and the consistency/simulation failure probabilities.

    Requires rational mode (the whole chain is checked with zero tolerance),
    an exactly no-signaling strategy, and a second prover answering only
    tuples of the probed length (see ``normalize_answer_shape``).
    """
    meta = _require_meta(gprime, "oracularized_multi_round")
    if gprime.mode != scalars.RATIONAL or theta.mode != scalars.RATIONAL:
        raise scalars.ModeError("ns_decompose requires rational mode")
    ok, violation = is_no_signaling(theta, Fraction(0))
    if not ok:
        raise ValueError(f"strategy signals: max marginal discrepancy {violation}")

    r, na = meta["rounds"], meta["base_a_count"]
    rational = scalars.RATIONAL
    prefixes = [tuple(p) for p in meta["q2_prefixes"]]
    q_tuples, qflat, probes = _questions(meta)
    a_index = PrefixIndex(na, r)
    T = theta.theta
    one = Fraction(1)

    probe_len = np.array([len(p) for p in prefixes])[None, :, None, None]
    answer_len = np.array([len(a_index.decode(a2)) for a2 in range(len(a_index))])
    wrong = (gprime.pi != 0)[:, :, None, None] & (answer_len != probe_len) & T.astype(bool)
    if wrong.any():
        _, j, _, a2 = np.argwhere(wrong)[0].tolist()
        a2t = a_index.decode(a2)
        raise ShapeError(f"answer {a2t} has length {len(a2t)}, probe length {len(prefixes[j])}")

    game = reconstruct_multi_round(gprime)
    pi_q = game.pi[qflat]
    n = len(q_tuples)

    # alpha_q from the k=1 pair; no-signaling makes it k-independent, checked
    marg = scalars.total(T[np.arange(n)[:, None], probes], rational, axis=3)  # [q][k - 1][a1]
    varies = (marg != marg[:, :1]).any(axis=(1, 2))
    if varies.any():
        raise ValueError(f"alpha marginal for {q_tuples[int(np.argmax(varies))]} "
                         f"depends on the probe length")
    alpha = marg[:, 0]

    beta, alpha_prefix, cons, win = {}, [], [], []
    for k in range(1, r + 1):
        start = a_index.offsets[k - 1]
        # [q index][a1][a2] over the answers of length k to the k-prefix probe
        block = T[np.arange(n), probes[:, k - 1], :, start:start + na**k]
        seen = scalars.total(block, rational, axis=1)
        # beta from the smallest extension of each prefix; equality checked
        found, first = np.unique(probes[:, k - 1], return_index=True)
        ref = first[np.searchsorted(found, probes[:, k - 1])]
        differs = (seen != seen[ref]).any(axis=1)
        if differs.any():
            p = prefixes[probes[differs, k - 1].min()]
            raise ValueError(f"beta for prefix {p} depends on the question suffix")
        beta.update((prefixes[j], seen[i0]) for j, i0 in zip(found.tolist(), first))
        alpha_prefix.append(scalars.total(alpha.reshape(len(alpha), na**k, -1),
                                          rational, axis=2))
        # the second prover's answer is the first prover's length-k prefix
        agree = np.arange(na**k) == np.arange(na**r)[:, None] // na ** (r - k)
        cons.append(scalars.total(np.where(agree, 0, block), rational, axis=(1, 2)))
        predicate = gprime.R[np.arange(n), probes[:, k - 1], :, start:start + na**k]
        win.append(scalars.total(block * predicate, rational, axis=(1, 2)))
    cons = np.array(cons).T  # [q index][k - 1]

    eps_cons_q = scalars.total(cons, rational, axis=1) / r
    eps_cons = scalars.total(pi_q * eps_cons_q, rational)
    R_q = game.R.reshape(len(game.pi), -1)[qflat]
    eps_sim = scalars.total(pi_q[:, None] * alpha * (one - R_q), rational)
    eps = one - eval_two_prover(gprime, theta)
    eps_k = {k: scalars.total(pi_q * (one - w), rational) for k, w in enumerate(win, 1)}

    if eps != sum(eps_k.values()) / r:
        raise VerificationError(
            f"eps = {eps} is not the mean {sum(eps_k.values()) / r} of the eps_k")
    if eps < eps_cons or eps < eps_sim:
        raise VerificationError(
            f"eps = {eps} is below eps_cons = {eps_cons} or eps_sim = {eps_sim}")
    return NsMarginalTables(
        game, gprime, theta, r, tuple(q_tuples), alpha,
        {(q, k): alpha_prefix[k - 1][q] for q in range(n) for k in range(1, r + 1)},
        beta, eps, eps_cons, eps_sim,
        {(q, k): cons[q, k - 1] for q in range(n) for k in range(1, r + 1)},
        dict(enumerate(eps_cons_q.tolist())), eps_k)


def round_no_signaling(tables):
    """Round to a single-prover strategy: at round k answer with the
    conditional of the second prover's prefix distribution.

    The first-round denominator is 1 by convention; a zero denominator
    yields the uniform distribution over answers, and prefixes outside the
    transformed game's support (never played) are uniform as well.
    """
    g = tables.game
    nq, na, r = g.q_count, g.a_count, tables.rounds
    uniform = Fraction(1, na)
    rounds = []
    for k in range(1, r + 1):
        table = np.full((nq**k, na ** (k - 1), na), uniform, dtype=object)
        prefixes = [p for p in tables.beta if len(p) == k]
        nums = np.array([tables.beta[p] for p in prefixes], dtype=object).reshape(
            len(prefixes), na ** (k - 1), na)
        den = (np.full(nums.shape[:2], Fraction(1), dtype=object) if k == 1
               else scalars.total(nums, scalars.RATIONAL, axis=2))
        played = (den != 0)[..., None]
        table[[encode_tuple(p, nq) for p in prefixes]] = np.where(
            played, nums / np.where(played, den[..., None], 1), uniform)
        rounds.append(table.reshape(-1, na))
    return MultiRoundStrategy(nq, na, r, rounds, scalars.RATIONAL)


@dataclass(frozen=True)
class HybridFamily:
    """The interpolating families h<k> and their winning probabilities p_k.

    h<1> is induced by the rounded strategy; h<r> is the second prover's
    full-length answer distribution; intermediate families are generally not
    induced by any valid strategy and are kept as raw distributions.
    """

    rounds: int
    h: np.ndarray  # [k - 1][q index] -> distribution over A^r
    p: dict  # k -> scalar


def hybrid_family(tables, rounded, game):
    """Build h<k> for k = 1..r and their values p_k.

    h<k> answers the first k rounds with the second prover's prefix
    distribution and the later rounds with the rounded strategy.
    """
    r = tables.rounds
    nq, na = game.q_count, game.a_count
    qflat = np.array([encode_tuple(q, nq) for q in tables.q_tuples])
    factors = [f[qflat] for f in rounded.round_factors()]
    answer = np.arange(na**r)
    h = []
    for k in range(1, r + 1):
        b = np.array([tables.beta[q[:k]] for q in tables.q_tuples], dtype=object)
        v = b[:, answer // na ** (r - k)]
        for f in factors[k:]:
            v = v * f
        h.append(v)
    h = np.array(h)
    weight = game.pi[qflat][:, None] * game.R.reshape(nq**r, na**r)[qflat]
    p = {k: scalars.total(weight * hk, scalars.RATIONAL) for k, hk in enumerate(h, 1)}

    # h<1> must be exactly the family induced by the rounded strategy
    induced = rounded.answer_probs()[qflat]
    off = np.argwhere(h[0] != induced)
    if off.size:
        i, a = off[0].tolist()
        raise VerificationError(
            f"h<1>{tables.q_tuples[i]} at {decode_tuple(a, na, r)} is {h[0][i, a]}, "
            f"not the rounded strategy's {induced[i, a]}")
    if p[r] < 1 - tables.eps_k[r]:
        raise VerificationError(
            f"p_r = {p[r]} is below 1 - eps(r) = {1 - tables.eps_k[r]}")
    return HybridFamily(r, h, p)


def verify_ns_claims(tables, hybrids, lp_optimal=False):
    """Check every inequality of the no-signaling soundness chain exactly.

    Rows: (a) the alpha/beta closeness per (q, k); (b) consecutive hybrid
    closeness per (q, k >= 2); (c) the chain p_r <= p_1 + 2 r eps_cons; and,
    for an LP-optimal strategy, (d) eps >= (1 - w(G)) / (3 r).
    """
    zero = Fraction(0)
    rows = []
    r = tables.rounds
    for i, q in enumerate(tables.q_tuples):
        for k in range(1, r + 1):
            sd = statistical_difference(tables.alpha_prefix[(i, k)],
                                        tables.beta[q[:k]])
            rows.append(InequalityRow(
                f"claim-ab-close[q={q},k={k}]", sd, tables.eps_cons_qk[(i, k)], zero))
    for i, q in enumerate(tables.q_tuples):
        for k in range(2, r + 1):
            sd = statistical_difference(hybrids.h[k - 2][i], hybrids.h[k - 1][i])
            bound = tables.eps_cons_qk[(i, k - 1)] + tables.eps_cons_qk[(i, k)]
            rows.append(InequalityRow(
                f"claim-hybrid[q={q},k={k}]", sd, bound, zero))
    rows.append(InequalityRow("hybrid-chain[p_r - p_1 <= 2r*eps_cons]",
                              hybrids.p[r] - hybrids.p[1],
                              2 * r * tables.eps_cons, zero))
    rows.append(InequalityRow("second-prover-win[1 - eps(r) <= p_r]",
                              1 - tables.eps_k[r], hybrids.p[r], zero))
    if lp_optimal:
        from .values import multi_round_value

        w = multi_round_value(tables.game).value
        rows.append(InequalityRow("lemma-wns[eps >= (1-w)/(3r)]",
                                  (1 - w) / Fraction(3 * r), tables.eps, zero))
    return InequalityReport(tuple(rows))


# ---------------------------------------------------------------------------
# commuting-operator rounding (dummy-oracularized PCP games)


@dataclass(frozen=True)
class ComRoundingTables:
    """Averaged measurements and distance tables of a projective strategy
    for a dummy-oracularized PCP game, in descending-probability labels;
    triple rows ``t`` follow ``game_sorted.triples``."""

    game_sorted: PcpGame  # float mode, positions relabeled
    gprime: object
    strategy: quantum.QuantumStrategy
    order: np.ndarray  # order[new label] = index into the original position list
    positions: np.ndarray  # original position values, new-label order
    marginal: np.ndarray  # (Q,) probe marginal per new label (descending)
    Mbar: np.ndarray  # (Q, A, d1, d1): averaged measurement on factor 1
    Nbar: np.ndarray  # (Q, A, d2, d2): averaged measurement on factor 2
    X: np.ndarray  # psd sqrt of Mbar
    Y: np.ndarray  # psd sqrt of Nbar
    triple_ops: np.ndarray  # (T, A^3, d1, d1): factor-1 PVM of each sorted triple
    d1: np.ndarray  # (Q,)
    d2: np.ndarray  # (Q, Q): [q, qtilde]
    d3: np.ndarray  # (T, 3): [triple, coordinate]
    d4: np.ndarray  # (Q, Q): [q1, q2]
    eps: float
    eps_cons: float
    eps_sim: float
    alphabet: int

    @property
    def num_positions(self):
        return len(self.marginal)


def _coordinate_marginals(ops, a, k):
    """``out[j, c, x]``: the sum of measurement ``j``'s elements whose answer,
    read as ``k`` base-``a`` digits, has digit ``c`` equal to ``x``."""
    digits = ops.reshape(ops.shape[:1] + (a,) * k + ops.shape[2:])
    return np.stack([digits.sum(axis=tuple(1 + o for o in range(k) if o != c))
                     for c in range(k)], axis=1)


def _expect(psi_m, m_ops, n_ops):
    """<psi| M (x) N |psi> for broadcast stacks of M (factor 1) and N (factor 2)."""
    out = m_ops @ psi_m @ n_ops.swapaxes(-1, -2)
    return np.einsum("ij,...ij->...", psi_m.conj(), out).real


def _stack_distance(left, right, batch):
    """Trace distances between the states sum_x |x> (x) v_x whose blocks v_x
    fill every axis after the first ``batch`` (the two sides broadcast)."""
    left, right = np.broadcast_arrays(left, right)
    shape = left.shape[:batch] + (-1,)
    return quantum.pure_state_trace_distance(left.reshape(shape), right.reshape(shape))


def com_decompose(game, gprime, strategy):
    """Build the averaged POVMs, operator square roots, probe marginal, the
    d1..d4 distance tables, and the failure probabilities."""
    meta = _require_meta(gprime, "oracularized_pcp_dummy")
    if not strategy.projective:
        raise ValueError("com_decompose requires projective measurements")
    bad = quantum.validate_strategy(strategy)
    if bad:
        raise ValueError(f"invalid strategy: {bad[0]}")
    a = meta["alphabet"]
    positions_orig = [int(p) for p in meta["positions"]]
    triples_orig = np.array(meta["triples"], dtype=int).reshape(-1, 3)
    pairs = np.array(meta["pairs"], dtype=int).reshape(-1, 2)
    if len(strategy.M) != len(triples_orig) or len(strategy.N) != len(pairs):
        raise ValueError("strategy question counts do not match the game")

    # symmetrization precondition: equal-pair measurements answer diagonally
    n_ops = strategy.N.reshape((len(pairs), a, a) + strategy.N.shape[2:])
    off = ((pairs[:, 0] == pairs[:, 1])[:, None, None] & ~np.eye(a, dtype=bool)
           & (np.abs(n_ops).max(axis=(-2, -1)) > 1e-9))
    if off.any():
        u, v = pairs[np.argwhere(off)[0, 0]]
        raise ValueError(
            f"strategy is not symmetrized: N[{u},{v}] has off-diagonal mass")

    gf = game.to_float()
    sup = gf.pi > 0
    if gf.triples[sup].tolist() != triples_orig.tolist():
        raise ValueError("the game's support triples do not match the oracularized game")
    pi_t = gf.pi[sup]
    marg_exact = pcp_question_marginal(game)
    order = sorted(range(len(positions_orig)),
                   key=lambda i: (-marg_exact[positions_orig[i]], positions_orig[i]))
    positions = np.array([positions_orig[i] for i in order], dtype=int)
    qn = len(positions)
    marginal = np.array([float(marg_exact[p]) for p in positions.tolist()])
    psi_m = strategy.state_matrix()

    # averaged POVMs per new label: Mbar[q] weighs each triple's marginal on
    # q's coordinate by pi(t) / (3 marg(q)); Nbar[q] weighs the pair
    # measurement's marginal on q's coordinate by marg(qtilde)
    hit = triples_orig[None] == positions[:, None, None]  # [q, t, c]
    weight = hit * (pi_t[None, :, None] / marginal[:, None, None] / 3.0)
    Mbar = np.einsum("qtc,tcxij->qxij", weight,
                     _coordinate_marginals(strategy.M, a, 3))
    pair_of = {p: j for j, p in enumerate(map(tuple, pairs.tolist()))}
    pair = [[pair_of[min(u, v), max(u, v)] for v in positions.tolist()]
            for u in positions.tolist()]
    side = (positions[:, None] > positions[None, :]).astype(int)
    n_marg = _coordinate_marginals(strategy.N, a, 2)[np.array(pair), side]  # [q, qt, x]
    Nbar = np.einsum("j,qjxkl->qxkl", marginal, n_marg)
    X = quantum.psd_sqrt(Mbar)
    Y = quantum.psd_sqrt(Nbar)

    eps_cons = 1.0 - marginal @ _expect(psi_m, Mbar, Nbar).sum(axis=1)

    # relabel the game and the per-triple measurements: new coordinate c of
    # triple t reads the original coordinate coord[t][c], and new answer aidx
    # is the original answer oidx[t][aidx]
    new_label = np.empty(game.positions, dtype=int)
    new_label[positions] = np.arange(qn)
    labels = new_label[triples_orig]
    coord = np.argsort(labels, axis=1)
    new = np.take_along_axis(labels, coord, axis=1)
    oidx = (digit_table(a, 3)[:, np.argsort(coord, axis=1)] @ np.array([a * a, a, 1])).T
    rank = np.lexsort(new.T[::-1])
    rows = np.arange(len(new))[:, None]
    triple_ops = strategy.M[rows, oidx][rank]
    game_sorted = PcpGame(qn, a, new[rank], pi_t[rank], gf.R[sup][rows, oidx][rank],
                          scalars.FLOAT, meta={"kind": "relabeled_pcp",
                                               "positions": positions.tolist()})
    tri, pi_s, r_s = game_sorted.triples, game_sorted.pi, game_sorted.R

    direct = np.einsum("ij,taij->ta", psi_m.conj(), triple_ops @ psi_m).real
    eps_sim = 1.0 - pi_s @ (direct * r_s).sum(axis=1)
    # coordinate c of answer x is checked against Nbar of the triple's c-th
    # position at digit c of x
    agree = _expect(psi_m, triple_ops[:, None],
                    Nbar[tri[:, :, None], digit_table(a, 3).T[None]])  # [t, c, x]
    eps = 1.0 - np.einsum("t,tx,tcx->", pi_s / 3.0, r_s, agree)

    # distance tables (sorted labels); X acts on factor 1, Y/N on factor 2
    x_psi = X @ psi_m
    d1 = _stack_distance(x_psi, psi_m @ Y.swapaxes(-1, -2), 1)
    d2 = _stack_distance(x_psi[:, None], psi_m @ n_marg.swapaxes(-1, -2), 2)
    d3 = _stack_distance(_coordinate_marginals(triple_ops, a, 3) @ psi_m,
                         psi_m @ Y[tri].swapaxes(-1, -2), 2)
    # xx[q, x, q', x'] = X_q^x X_q'^x' |psi>; d4 compares the two orders
    xx = X[:, :, None, None] @ X[None, None] @ psi_m
    d4 = _stack_distance(xx.transpose(2, 0, 3, 1, 4, 5), xx.transpose(0, 2, 1, 3, 4, 5), 2)

    return ComRoundingTables(game_sorted, gprime, strategy, np.array(order),
                             positions, marginal, Mbar, Nbar, X, Y, triple_ops,
                             d1, d2, d3, d4, float(eps), float(eps_cons),
                             float(eps_sim), a)


@dataclass(frozen=True)
class RoundedProof:
    """Rounded proof distribution with its pre-normalization deficit."""

    dist: PcpProofDistribution
    raw: np.ndarray  # (A^Q,) masses before normalization
    deficit: float


def _sequential_masses(x_ops, psi_m, seq):
    """theta[z] = || X[seq[-1]]^z[-1] ... X[seq[0]]^z[0] psi ||^2 for every
    string z over the alphabet, lexicographic in z; one batched product per
    entry of ``seq``."""
    states = psi_m[None]
    for q in seq:
        states = (x_ops[q][None] @ states[:, None]).reshape((-1,) + psi_m.shape)
    return np.einsum("zij,zij->z", states.conj(), states).real


def round_com(tables):
    """Round to a proof distribution by sequential application of the
    operator square roots in descending-probability order.

    theta(proof) is the squared norm after applying X_1, X_2, ..., X_Q to
    the shared state.  The raw masses sum to 1 up to numerical drift; the
    returned distribution is renormalized and the deficit reported.
    """
    a, qn = tables.alphabet, tables.num_positions
    psi_m = tables.strategy.state_matrix()
    check_table_size(a**qn * psi_m.size, "round_com state stack")
    raw = _sequential_masses(tables.X, psi_m, range(qn))
    total = float(raw.sum())
    dist = PcpProofDistribution(qn, a, raw / total, scalars.FLOAT)
    return RoundedProof(dist, raw, 1.0 - total)


def aggregate_distance_bound(tables):
    """The per-triple bounds d(q1,q2,q3), one per row of
    ``tables.game_sorted.triples``: for each coordinate q, the moving costs
    below it, 2 sum_{q'<q} d1(q') + sum_{q'<q} d4(q, q'), plus its own
    averaging and simulation distances d1(q) and d3."""
    before = np.tri(tables.num_positions, k=-1)  # before[q, q'] = [q' < q]
    cost = 2 * before @ tables.d1 + (before * tables.d4).sum(axis=1) + tables.d1
    return cost[tables.game_sorted.triples].sum(axis=1) + tables.d3.sum(axis=1)


def verify_com_claims(game, tables, rounded):
    """Check the averaged-measurement bounds, the per-triple statistical
    difference bound, and the final soundness bound, all within 1e-7.

    ``game`` is the original (rational-mode) PCP game, used for the exact
    value in the final bound.
    """
    from .values import pcp_value

    a, qn = tables.alphabet, tables.num_positions
    tol = FLOAT_CLAIM_TOL
    m = tables.marginal
    tri, pi = tables.game_sorted.triples, tables.game_sorted.pi
    rows = [
        InequalityRow("claim-bound-d[E d1^2 <= 2 eps_cons]",
                      float(m @ tables.d1**2), 2 * tables.eps_cons, tol),
        InequalityRow("claim-bound-d[E d2^2 <= 2 eps_cons]",
                      float(m @ tables.d2**2 @ m), 2 * tables.eps_cons, tol),
        InequalityRow("claim-bound-d[E d3^2 <= 2 eps_cons]",
                      float(pi @ (tables.d3**2).sum(axis=1) / 3.0),
                      2 * tables.eps_cons, tol),
        InequalityRow("claim-bound-d[E d4^2 <= 32 eps_cons]",
                      float(m @ tables.d4**2 @ m), 32 * tables.eps_cons, tol),
    ]

    raw = PcpProofDistribution(qn, a, rounded.raw, scalars.FLOAT)
    induced = pcp_triple_distribution(raw, tri)
    out = tables.triple_ops @ tables.strategy.state_matrix()
    direct = np.einsum("taij,taij->ta", out.conj(), out).real
    sd = np.abs(induced - direct).sum(axis=1) / 2
    rows += [InequalityRow(f"aggregate-d-bound[triple={tuple(t)}]", lhs, rhs, tol)
             for t, lhs, rhs in zip(tri.tolist(), sd.tolist(),
                                    aggregate_distance_bound(tables).tolist())]

    w = float(pcp_value(game).value)
    rows.append(InequalityRow(
        "lemma-game[eps >= c (1-w)^2 / Q^2]",
        COM_SOUNDNESS_CONSTANT * (1.0 - w) ** 2 / qn**2,
        tables.eps, tol))
    return InequalityReport(tuple(rows))


def verify_lemma_distance(m_povm, n_povm, phi):
    """The distance chain for mutually commuting POVMs measured on one state:
    D^2 <= 2 (1 - <psi|xi>) <= 2 p, where p is the disagreement probability.

    Returns the three chain quantities after checking the chain within 1e-8.
    """
    if len(m_povm) != len(n_povm) or m_povm.dim != n_povm.dim:
        raise ValueError("POVMs must share outcome set and dimension")
    for povm, name in ((m_povm, "M"), (n_povm, "N")):
        problems = quantum.validate_povm(povm)
        if problems:
            raise ValueError(f"invalid POVM {name}: {problems[0]}")
    m, n = m_povm.elements, n_povm.elements
    if np.max(np.abs(m[:, None] @ n[None] - n[None] @ m[:, None])) > 1e-9:
        raise ValueError("POVMs do not commute")
    phi = np.asarray(phi, dtype=complex).ravel()

    psi = (quantum.psd_sqrt(m) @ phi).ravel()
    xi = (quantum.psd_sqrt(n) @ phi).ravel()
    d2 = quantum.pure_state_trace_distance(psi, xi) ** 2
    gap = 2.0 * (1.0 - float(np.real(np.vdot(psi, xi))))
    p = 1.0 - float(np.einsum("i,ai->", phi.conj(), m @ n @ phi).real)
    chain = (d2, gap, 2.0 * p)
    if not (d2 <= gap + CHAIN_TOL and gap <= 2.0 * p + CHAIN_TOL):
        raise VerificationError(f"distance chain D^2 <= 2(1-<psi|xi>) <= 2p "
                                f"fails: {chain}")
    return chain


def position_commutators(tables):
    """``(Q, Q)``: for each pair of position labels, the largest entry of a
    commutator ``[X[a]^z, X[b]^w]`` over their outcomes.  A selection move
    can change the outcome distribution only where it is nonzero."""
    x = tables.X
    xa, xb = x[:, :, None, None], x[None, None]
    return np.abs(xa @ xb - xb @ xa).max(axis=(1, 3, 4, 5))


def verify_claim_selection(tables, t_list, i):
    """Selection-move bound: pulling the i-th operator (1-based) of a
    product to act first changes the outcome distribution by at most
    2 sum_{j<i} d1(t_j) + sum_{j<i} d4(t_i, t_j).

    ``t_list`` holds position labels in ``0..Q-1``.  Returns (lhs, rhs)
    after checking lhs <= rhs + 1e-7.
    """
    a, qn = tables.alphabet, tables.num_positions
    mm = len(t_list)
    if not 1 <= i <= mm:
        raise ValueError("index out of range")
    t = np.array(t_list, dtype=int)
    outside = (t < 0) | (t >= qn)
    if outside.any():
        raise ValueError(f"t_list entry {t[outside][0]} is outside 0..{qn - 1}")
    psi_m = tables.strategy.state_matrix()
    check_table_size(a**mm * psi_m.size, "claim-selection state stack")

    in_order = _sequential_masses(tables.X, psi_m, t)
    # apply t_i first: the masses come out indexed with z_i as the first
    # digit, which goes back to place i
    moved = _sequential_masses(tables.X, psi_m, np.roll(t[:i], 1).tolist() + t[i:].tolist())
    moved = np.moveaxis(moved.reshape((a,) * mm), 0, i - 1).ravel()
    lhs = float(np.abs(in_order - moved).sum() / 2.0)
    head = t[:i - 1]
    rhs = float(2.0 * tables.d1[head].sum() + tables.d4[t[i - 1], head].sum())
    if not lhs <= rhs + FLOAT_CLAIM_TOL:
        raise VerificationError(f"selection move changes the distribution by "
                                f"{lhs}, over the bound {rhs}")
    return lhs, rhs

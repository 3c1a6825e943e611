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
from .indexing import PrefixIndex, decode_tuple, encode_tuple, iter_tuples
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
    alpha: dict  # q index -> tuple over A^r
    alpha_prefix: dict  # (q index, k) -> tuple over A^k
    beta: dict  # prefix tuple -> tuple over A^k
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


def reconstruct_multi_round(gprime):
    """Rebuild the base game from an oracularized game's tables.

    The base predicate is read off the full-length consistency pairs; question
    tuples outside the support get probability 0 and a rejecting predicate,
    which no value computation ever weighs.
    """
    meta = _require_meta(gprime, "oracularized_multi_round")
    r, nq, na = meta["rounds"], meta["base_q_count"], meta["base_a_count"]
    q_tuples = [tuple(q) for q in meta["q1_tuples"]]
    prefixes = {tuple(p): j for j, p in enumerate(meta["q2_prefixes"])}
    a_index = PrefixIndex(na, r)
    zero = scalars.zero(gprime.mode)

    pi = [zero] * nq**r
    R = [zero] * (nq**r * na**r)
    for i, q in enumerate(q_tuples):
        j = prefixes[q]
        qidx = encode_tuple(q, nq)
        pi[qidx] = gprime.pi[i, j] * r
        base = qidx * na**r
        for aidx, atup in enumerate(iter_tuples(na, r)):
            R[base + aidx] = gprime.R[i, j, aidx, a_index.encode(atup)]
    return MultiRoundGame(nq, na, r, pi, R, gprime.mode)


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

    r, nq, na = meta["rounds"], meta["base_q_count"], meta["base_a_count"]
    q_tuples = [tuple(q) for q in meta["q1_tuples"]]
    prefixes = [tuple(p) for p in meta["q2_prefixes"]]
    prefix_idx = {p: j for j, p in enumerate(prefixes)}
    a_index = PrefixIndex(na, r)
    a_tuples = [a_index.decode(i) for i in range(len(a_index))]
    a_full = list(iter_tuples(na, r))
    zero, one = Fraction(0), Fraction(1)

    for i in range(len(q_tuples)):
        for j, p in enumerate(prefixes):
            if not gprime.pi[i, j]:
                continue
            k = len(p)
            for a1 in range(theta.a1_count):
                for a2, a2t in enumerate(a_tuples):
                    if len(a2t) != k and theta.theta[i, j, a1, a2]:
                        raise ShapeError(
                            f"answer {a2t} has length {len(a2t)}, probe length {k}")

    game = reconstruct_multi_round(gprime)
    pi_of = {q: game.pi_at(q) for q in q_tuples}

    # alpha_q from the k=1 pair; no-signaling makes it k-independent, checked
    alpha = {}
    for i, q in enumerate(q_tuples):
        ref = None
        for k in range(1, r + 1):
            j = prefix_idx[q[:k]]
            marg = tuple(sum(theta.theta[i, j, a1]) for a1 in range(theta.a1_count))
            if ref is None:
                ref = marg
            elif marg != ref:
                raise ValueError(f"alpha marginal for {q} depends on the probe length")
        alpha[i] = ref

    # beta from the lexicographically smallest extension; equality asserted
    beta = {}
    for j, p in enumerate(prefixes):
        k = len(p)
        extensions = [i for i, q in enumerate(q_tuples) if q[:k] == p]
        ref = None
        for i in sorted(extensions, key=lambda i: q_tuples[i]):
            dist = tuple(
                sum(theta.theta[i, j, a1, a_index.encode(a2t)]
                    for a1 in range(theta.a1_count))
                for a2t in iter_tuples(na, k))
            if ref is None:
                ref = dist
            elif dist != ref:
                raise ValueError(f"beta for prefix {p} depends on the question suffix")
        beta[p] = ref

    alpha_prefix = {}
    for i in range(len(q_tuples)):
        for k in range(1, r + 1):
            dist = [zero] * na**k
            for aidx, atup in enumerate(a_full):
                dist[encode_tuple(atup[:k], na)] += alpha[i][aidx]
            alpha_prefix[(i, k)] = tuple(dist)

    eps_cons_qk = {}
    for i, q in enumerate(q_tuples):
        for k in range(1, r + 1):
            j = prefix_idx[q[:k]]
            mass = zero
            for aidx, atup in enumerate(a_full):
                pref = atup[:k]
                for a2t in iter_tuples(na, k):
                    if a2t != pref:
                        mass += theta.theta[i, j, aidx, a_index.encode(a2t)]
            eps_cons_qk[(i, k)] = mass
    eps_cons_q = {i: sum(eps_cons_qk[(i, k)] for k in range(1, r + 1)) / r
                  for i in range(len(q_tuples))}
    eps_cons = sum(pi_of[q] * eps_cons_q[i] for i, q in enumerate(q_tuples))

    eps_sim = sum(
        pi_of[q] * sum(a * (one - game.r_at(q, at))
                       for a, at in zip(alpha[i], a_full))
        for i, q in enumerate(q_tuples))

    eps = one - eval_two_prover(gprime, theta)

    eps_k = {}
    for k in range(1, r + 1):
        fail = zero
        for i, q in enumerate(q_tuples):
            j = prefix_idx[q[:k]]
            win = zero
            for aidx, atup in enumerate(a_full):
                rv = gprime.R[i, j, aidx]
                row = theta.theta[i, j, aidx]
                for a2t in iter_tuples(na, k):
                    a2 = a_index.encode(a2t)
                    if row[a2] and rv[a2]:
                        win += row[a2] * rv[a2]
            fail += pi_of[q] * (one - win)
        eps_k[k] = fail

    if eps != sum(eps_k.values()) / r:
        raise VerificationError(
            f"eps = {eps} is not the mean {sum(eps_k.values()) / r} of the eps_k")
    if eps < eps_cons or eps < eps_sim:
        raise VerificationError(
            f"eps = {eps} is below eps_cons = {eps_cons} or eps_sim = {eps_sim}")
    return NsMarginalTables(game, gprime, theta, r, tuple(q_tuples), alpha,
                            alpha_prefix, beta, eps, eps_cons, eps_sim,
                            eps_cons_qk, eps_cons_q, eps_k)


def round_no_signaling(tables):
    """Round to a single-prover strategy: at round k answer with the
    conditional of the second prover's prefix distribution.

    The first-round denominator is 1 by convention; a zero denominator
    yields the uniform distribution over answers, and prefixes outside the
    transformed game's support (never played) are uniform as well.
    """
    g = tables.game
    nq, na, r = g.q_count, g.a_count, tables.rounds
    uniform = tuple(Fraction(1, na) for _ in range(na))
    rounds = []
    for k in range(1, r + 1):
        table = []
        for qp in iter_tuples(nq, k):
            b = tables.beta.get(qp)
            for ap in iter_tuples(na, k - 1):
                if b is None:
                    table.append(uniform)
                    continue
                nums = [b[encode_tuple(ap + (a,), na)] for a in range(na)]
                den = Fraction(1) if k == 1 else sum(nums)
                if den == 0:
                    table.append(uniform)
                else:
                    table.append(tuple(v / den for v in nums))
        rounds.append(tuple(table))
    return MultiRoundStrategy(nq, na, r, tuple(rounds), scalars.RATIONAL)


@dataclass(frozen=True)
class HybridFamily:
    """The interpolating families h<k> and their winning probabilities p_k.

    h<1> is induced by the rounded strategy; h<r> is the second prover's
    full-length answer distribution; intermediate families are generally not
    induced by any valid strategy and are kept as raw distributions.
    """

    rounds: int
    h: dict  # (k, q index) -> tuple over A^r
    p: dict  # k -> scalar


def hybrid_family(tables, rounded, game):
    """Build h<k> for k = 1..r and their values p_k."""
    r = tables.rounds
    na = game.a_count
    a_full = list(iter_tuples(na, r))
    h = {}
    for i, q in enumerate(tables.q_tuples):
        for k in range(1, r + 1):
            b = tables.beta[q[:k]]
            dist = []
            for atup in a_full:
                v = b[encode_tuple(atup[:k], na)]
                for step in range(k + 1, r + 1):
                    if not v:
                        break
                    v *= rounded.round_dist(step, q[:step], atup[:step - 1])[atup[step - 1]]
                dist.append(v)
            h[(k, i)] = tuple(dist)

    p = {}
    for k in range(1, r + 1):
        total = Fraction(0)
        for i, q in enumerate(tables.q_tuples):
            pq = game.pi_at(q)
            if pq:
                total += pq * sum(v * game.r_at(q, at)
                                  for v, at in zip(h[(k, i)], a_full) if v)
        p[k] = total

    # h<1> must be exactly the family induced by the rounded strategy
    for i, q in enumerate(tables.q_tuples):
        for v, atup in zip(h[(1, i)], a_full):
            if v != rounded.induced_prob(atup, q):
                raise VerificationError(
                    f"h<1>{q} at {atup} is {v}, not the rounded strategy's "
                    f"{rounded.induced_prob(atup, q)}")
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
            sd = statistical_difference(hybrids.h[(k - 1, i)], hybrids.h[(k, i)])
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
    for a dummy-oracularized PCP game, in descending-probability labels."""

    game_sorted: PcpGame  # float mode, positions relabeled
    gprime: object
    strategy: quantum.QuantumStrategy
    order: tuple  # order[new label] = index into the original position list
    positions: tuple  # original position values, new-label order
    marginal: tuple  # probe marginal per new label (descending)
    Mbar: tuple  # [new label][a] -> operator on factor 1
    Nbar: tuple  # [new label][a] -> operator on factor 2
    X: tuple  # psd sqrt of Mbar
    Y: tuple  # psd sqrt of Nbar
    triple_ops: dict  # sorted-label triple -> tuple over A^3 of factor-1 PVM elements
    d1: tuple
    d2: tuple  # [q][qtilde]
    d3: dict  # (sorted-label triple, coordinate) -> float
    d4: tuple  # [q1][q2]
    eps: float
    eps_cons: float
    eps_sim: float
    alphabet: int

    @property
    def num_positions(self):
        return len(self.marginal)


def _stack_distance(blocks_a, blocks_b):
    """Trace distance of sum_i |i> (x) v_i vectors given matrix blocks."""
    va = np.concatenate([b.ravel() for b in blocks_a])
    vb = np.concatenate([b.ravel() for b in blocks_b])
    return quantum.pure_state_trace_distance(va, vb)


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
    triples_orig = [tuple(t) for t in meta["triples"]]
    pairs = [tuple(p) for p in meta["pairs"]]
    pair_idx = {p: j for j, p in enumerate(pairs)}
    if len(strategy.povms1) != len(triples_orig) or len(strategy.povms2) != len(pairs):
        raise ValueError("strategy question counts do not match the game")

    # symmetrization precondition: equal-pair measurements answer diagonally
    for (u, v), povm in zip(pairs, strategy.povms2):
        if u != v:
            continue
        for aidx in range(a * a):
            b1, b2 = decode_tuple(aidx, a, 2)
            if b1 != b2 and np.max(np.abs(povm.elements[aidx])) > 1e-9:
                raise ValueError(
                    f"strategy is not symmetrized: N[{u},{v}] has off-diagonal mass")

    gf = game.to_float()
    pi_d = gf.pi_dict()
    r_d = gf.r_dict()
    marg_exact = pcp_question_marginal(game)
    order = sorted(range(len(positions_orig)),
                   key=lambda i: (-marg_exact[positions_orig[i]], positions_orig[i]))
    positions = tuple(positions_orig[i] for i in order)
    qn = len(positions)
    marginal = tuple(float(marg_exact[p]) for p in positions)

    d1_dim, d2_dim = strategy.d1, strategy.d2
    psi_m = strategy.state_matrix()

    def n_marginal(q, qt):
        """Marginal of the pair measurement on q's coordinate (original labels)."""
        pair = (q, qt) if q <= qt else (qt, q)
        povm = strategy.povms2[pair_idx[pair]]
        coord = 0 if q <= qt else 1
        out = [np.zeros((d2_dim, d2_dim), dtype=complex) for _ in range(a)]
        for aidx in range(a * a):
            b = decode_tuple(aidx, a, 2)
            out[b[coord]] += povm.elements[aidx]
        return out

    def m_marginal(ti, coord):
        """Marginal of triple ti's measurement on one coordinate."""
        povm = strategy.povms1[ti]
        out = [np.zeros((d1_dim, d1_dim), dtype=complex) for _ in range(a)]
        for aidx in range(a**3):
            t = decode_tuple(aidx, a, 3)
            out[t[coord]] += povm.elements[aidx]
        return out

    # averaged POVMs per position, original labels first
    mbar_orig, nbar_orig = {}, {}
    for q in positions_orig:
        acc_m = [np.zeros((d1_dim, d1_dim), dtype=complex) for _ in range(a)]
        for ti, t in enumerate(triples_orig):
            if q in t:
                w = pi_d[t] / float(marg_exact[q]) / 3.0
                for x, e in zip(acc_m, m_marginal(ti, t.index(q))):
                    x += w * e
        mbar_orig[q] = acc_m
        acc_n = [np.zeros((d2_dim, d2_dim), dtype=complex) for _ in range(a)]
        for qt in positions_orig:
            w = float(marg_exact[qt])
            for x, e in zip(acc_n, n_marginal(q, qt)):
                x += w * e
        nbar_orig[q] = acc_n

    Mbar = tuple(tuple(mbar_orig[p]) for p in positions)
    Nbar = tuple(tuple(nbar_orig[p]) for p in positions)
    X = tuple(tuple(quantum.psd_sqrt(e) for e in row) for row in Mbar)
    Y = tuple(tuple(quantum.psd_sqrt(e) for e in row) for row in Nbar)

    def expect(m_op, n_op):
        return float(np.real(np.vdot(psi_m, m_op @ psi_m @ n_op.T)))

    eps_cons = 1.0 - sum(
        marginal[q] * sum(expect(Mbar[q][x], Nbar[q][x]) for x in range(a))
        for q in range(qn))

    # relabel the game and the per-triple measurements
    old_label = {p: i for i, p in enumerate(positions)}  # original value -> new label
    triple_ops = {}
    pi_new, r_new = [], []
    for ti, t in enumerate(triples_orig):
        new = tuple(sorted(old_label[q] for q in t))
        # coordinate c of the new triple reads original position positions[new[c]]
        coord_map = [t.index(positions[new[c]]) for c in range(3)]
        ops = []
        row = []
        src = r_d[t]
        for aidx in range(a**3):
            b = decode_tuple(aidx, a, 3)
            orig = [0, 0, 0]
            for c in range(3):
                orig[coord_map[c]] = b[c]
            oidx = encode_tuple(tuple(orig), a)
            ops.append(strategy.povms1[ti].elements[oidx])
            row.append(src[oidx])
        triple_ops[new] = tuple(ops)
        pi_new.append((new, pi_d[t]))
        r_new.append((new, tuple(row)))
    game_sorted = PcpGame(qn, a, tuple(pi_new), tuple(r_new), scalars.FLOAT,
                          meta={"kind": "relabeled_pcp",
                                "positions": list(positions)})

    eps_sim = 1.0
    for t, p in game_sorted.pi:
        src = game_sorted.r_dict()[t]
        eps_sim -= p * sum(
            float(np.real(np.vdot(psi_m, triple_ops[t][aidx] @ psi_m))) * src[aidx]
            for aidx in range(a**3) if src[aidx])

    win = 0.0
    for t, p in game_sorted.pi:
        src = game_sorted.r_dict()[t]
        for c in range(3):
            nb = Nbar[t[c]]
            for aidx in range(a**3):
                if src[aidx]:
                    b = decode_tuple(aidx, a, 3)
                    win += (p / 3.0) * src[aidx] * expect(triple_ops[t][aidx], nb[b[c]])
    eps = 1.0 - win

    # distance tables (sorted labels); X acts on factor 1, Y/N on factor 2
    d1 = []
    for q in range(qn):
        left = [X[q][x] @ psi_m for x in range(a)]
        right = [psi_m @ Y[q][x].T for x in range(a)]
        d1.append(_stack_distance(left, right))
    d1 = tuple(d1)

    d2 = []
    for q in range(qn):
        row = []
        left = [X[q][x] @ psi_m for x in range(a)]
        for qt in range(qn):
            nmarg = n_marginal(positions[q], positions[qt])
            right = [psi_m @ nmarg[x].T for x in range(a)]
            row.append(_stack_distance(left, right))
        d2.append(tuple(row))
    d2 = tuple(d2)

    d3 = {}
    for t in triple_ops:
        for c in range(3):
            q = t[c]
            marg = [np.zeros((d1_dim, d1_dim), dtype=complex) for _ in range(a)]
            for aidx in range(a**3):
                b = decode_tuple(aidx, a, 3)
                marg[b[c]] += triple_ops[t][aidx]
            left = [marg[x] @ psi_m for x in range(a)]
            right = [psi_m @ Y[q][x].T for x in range(a)]
            d3[(t, c)] = _stack_distance(left, right)

    d4 = []
    for q1 in range(qn):
        row = []
        for q2 in range(qn):
            left = [X[q2][x2] @ X[q1][x1] @ psi_m
                    for x1 in range(a) for x2 in range(a)]
            right = [X[q1][x1] @ X[q2][x2] @ psi_m
                     for x1 in range(a) for x2 in range(a)]
            row.append(_stack_distance(left, right))
        d4.append(tuple(row))
    d4 = tuple(d4)

    return ComRoundingTables(game_sorted, gprime, strategy, tuple(order),
                             positions, marginal, Mbar, Nbar, X, Y, triple_ops,
                             d1, d2, d3, d4, eps, eps_cons, eps_sim, a)


@dataclass(frozen=True)
class RoundedProof:
    """Rounded proof distribution with its pre-normalization deficit."""

    dist: PcpProofDistribution
    raw: tuple
    deficit: float


def round_com(tables):
    """Round to a proof distribution by sequential application of the
    operator square roots in descending-probability order.

    theta(proof) is the squared norm after applying X_1, X_2, ..., X_Q to
    the shared state.  The raw masses sum to 1 up to numerical drift; the
    returned distribution is renormalized and the deficit reported.
    """
    a, qn = tables.alphabet, tables.num_positions
    check_table_size(a**qn, "round_com proof table")
    psi_m = tables.strategy.state_matrix()
    raw = [0.0] * a**qn

    def descend(q, prefix_idx, state):
        if q == qn:
            raw[prefix_idx] = float(np.real(np.vdot(state, state)))
            return
        for x in range(a):
            descend(q + 1, prefix_idx * a + x, tables.X[q][x] @ state)

    descend(0, 0, psi_m)
    total = sum(raw)
    dist = PcpProofDistribution(qn, a, tuple(v / total for v in raw), scalars.FLOAT)
    return RoundedProof(dist, tuple(raw), 1.0 - total)


def aggregate_distance_bound(tables, triple):
    """The per-triple bound d(q1,q2,q3): moving costs below each coordinate
    plus its own averaging and simulation distances."""
    total = 0.0
    for c in range(3):
        q = triple[c]
        total += 2 * sum(tables.d1[qp] for qp in range(q))
        total += sum(tables.d4[q][qp] for qp in range(q))
        total += tables.d1[q] + tables.d3[(triple, c)]
    return total


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
    rows = [
        InequalityRow("claim-bound-d[E d1^2 <= 2 eps_cons]",
                      sum(m[q] * tables.d1[q] ** 2 for q in range(qn)),
                      2 * tables.eps_cons, tol),
        InequalityRow("claim-bound-d[E d2^2 <= 2 eps_cons]",
                      sum(m[q] * m[qt] * tables.d2[q][qt] ** 2
                          for q in range(qn) for qt in range(qn)),
                      2 * tables.eps_cons, tol),
        InequalityRow("claim-bound-d[E d3^2 <= 2 eps_cons]",
                      sum(p * tables.d3[(t, c)] ** 2 / 3.0
                          for t, p in tables.game_sorted.pi for c in range(3)),
                      2 * tables.eps_cons, tol),
        InequalityRow("claim-bound-d[E d4^2 <= 32 eps_cons]",
                      sum(m[q1] * m[q2] * tables.d4[q1][q2] ** 2
                          for q1 in range(qn) for q2 in range(qn)),
                      32 * tables.eps_cons, tol),
    ]

    psi_m = tables.strategy.state_matrix()
    raw = PcpProofDistribution(qn, a, rounded.raw, scalars.FLOAT)
    for t, p in tables.game_sorted.pi:
        if not p:
            continue
        induced = pcp_triple_distribution(raw, t)
        direct = [float(np.real(np.vdot(tables.triple_ops[t][aidx] @ psi_m,
                                        tables.triple_ops[t][aidx] @ psi_m)))
                  for aidx in range(a**3)]
        sd = statistical_difference(induced, direct)
        rows.append(InequalityRow(f"aggregate-d-bound[triple={t}]", sd,
                                  aggregate_distance_bound(tables, t), tol))

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
    for me in m_povm.elements:
        for ne in n_povm.elements:
            if np.max(np.abs(me @ ne - ne @ me)) > 1e-9:
                raise ValueError("POVMs do not commute")
    phi = np.asarray(phi, dtype=complex).ravel()

    roots_m = [quantum.psd_sqrt(e) for e in m_povm.elements]
    roots_n = [quantum.psd_sqrt(e) for e in n_povm.elements]
    psi = np.concatenate([r @ phi for r in roots_m])
    xi = np.concatenate([r @ phi for r in roots_n])
    d2 = quantum.pure_state_trace_distance(psi, xi) ** 2
    gap = 2.0 * (1.0 - float(np.real(np.vdot(psi, xi))))
    p = 1.0 - sum(float(np.real(np.vdot(phi, me @ ne @ phi)))
                  for me, ne in zip(m_povm.elements, n_povm.elements))
    chain = (d2, gap, 2.0 * p)
    if not (d2 <= gap + CHAIN_TOL and gap <= 2.0 * p + CHAIN_TOL):
        raise VerificationError(f"distance chain D^2 <= 2(1-<psi|xi>) <= 2p "
                                f"fails: {chain}")
    return chain


def verify_claim_selection(tables, t_list, i):
    """Selection-move bound: pulling the i-th operator (1-based) of a
    product to act first changes the outcome distribution by at most
    2 sum_{j<i} d1(t_j) + sum_{j<i} d4(t_i, t_j).

    Returns (lhs, rhs) after checking lhs <= rhs + 1e-7.
    """
    a = tables.alphabet
    mm = len(t_list)
    if not 1 <= i <= mm:
        raise ValueError("index out of range")
    check_table_size(a**mm, "claim-selection enumeration")
    psi_m = tables.strategy.state_matrix()

    lhs = 0.0
    for z in iter_tuples(a, mm):
        s1 = psi_m
        for j in range(mm):
            s1 = tables.X[t_list[j]][z[j]] @ s1
        s2 = tables.X[t_list[i - 1]][z[i - 1]] @ psi_m
        for j in range(mm):
            if j != i - 1:
                s2 = tables.X[t_list[j]][z[j]] @ s2
        lhs += abs(float(np.real(np.vdot(s1, s1)))
                   - float(np.real(np.vdot(s2, s2))))
    lhs /= 2.0
    rhs = (2.0 * sum(tables.d1[t_list[j]] for j in range(i - 1))
           + sum(tables.d4[t_list[i - 1]][t_list[j]] for j in range(i - 1)))
    if not lhs <= rhs + FLOAT_CLAIM_TOL:
        raise VerificationError(f"selection move changes the distribution by "
                                f"{lhs}, over the bound {rhs}")
    return lhs, rhs

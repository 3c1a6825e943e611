"""Game transformations.

Oracularization turns a single-prover game into a two-prover one-round game
by sending the full question to the first prover and a consistency probe to
the second.  The dummy variant additionally hides which of two probe
coordinates will be checked.  Also here: parallel repetition and the
1-in-3 SAT to PCP-game construction.

Transformed games restrict question sets to the support of the constructed
distribution and keep the index maps in ``game.meta`` (JSON-friendly lists),
which is what the honest-strategy embeddings read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import scalars
from .games import (
    DeterministicBipartiteStrategy,
    PcpGame,
    TwoProverGame,
    check_table_size,
)
from .indexing import PrefixIndex, digit_table, encode_tuple


@dataclass(frozen=True)
class OneInThreeFormula:
    """Clauses of three literals over distinct variables.

    A literal is ``(variable index, polarity)``; ``polarity=False`` negates.
    """

    num_vars: int
    clauses: tuple

    def __post_init__(self):
        object.__setattr__(self, "clauses",
                           tuple(tuple((v, bool(p)) for v, p in cl) for cl in self.clauses))
        for cl in self.clauses:
            if len(cl) != 3:
                raise ValueError(f"clause {cl} does not have three literals")
            vs = [v for v, _ in cl]
            if len(set(vs)) != 3:
                raise ValueError(f"clause {cl} repeats a variable")
            for v in vs:
                if not 0 <= v < self.num_vars:
                    raise ValueError(f"variable {v} out of range")


def oracularize_multi_round(game):
    """Oracularize a multi-round game.

    The first prover receives the full question tuple, the second a uniform
    random prefix.  The predicate is the simulation test (the full
    conversation is accepting) conjoined with the consistency test (the
    second prover answered a tuple of the probed length agreeing with the
    first prover's prefix).
    """
    r = game.rounds
    support = np.flatnonzero(game.pi)
    q1_tuples = digit_table(game.q_count, r)[support]
    # the probes of each length, sorted, and which one is each question's
    # prefix of that length
    prefixes, probe_of = [], []
    for k in range(1, r + 1):
        found, inverse = np.unique(q1_tuples[:, :k], axis=0, return_inverse=True)
        probe_of.append(len(prefixes) + inverse.reshape(-1))
        prefixes.extend(found.tolist())
    probe_of = np.array(probe_of).T  # [question][k - 1]

    a_index = PrefixIndex(game.a_count, r)
    a1_count = game.a_count**r
    a2_count = len(a_index)
    check_table_size(len(q1_tuples) * len(prefixes) * a1_count * a2_count,
                     "oracularize_multi_round predicate")

    inv_r = (Fraction(1, r) if game.mode == scalars.RATIONAL else 1.0 / r)
    probed = np.zeros((len(q1_tuples), len(prefixes)), dtype=bool)
    probed[np.arange(len(q1_tuples))[:, None], probe_of] = True
    pi = np.where(probed, (game.pi[support] * inv_r)[:, None], scalars.zero(game.mode))
    # the predicate holds where the second prover's answer is the first
    # prover's answer prefix of the probed length, and the full
    # conversation is accepting
    sim = game.R.reshape(game.pi.size, a1_count)[support]
    lengths = np.array([len(p) for p in prefixes])[:, None]
    a1 = np.arange(a1_count)
    answer = np.array(a_index.offsets)[lengths - 1] + a1 // game.a_count ** (r - lengths)
    R = scalars.zeros((len(q1_tuples), len(prefixes), a1_count, a2_count), game.mode)
    R[:, np.arange(len(prefixes))[:, None], a1, answer] = sim[:, None, :]

    meta = {"kind": "oracularized_multi_round", "rounds": r,
            "base_q_count": game.q_count, "base_a_count": game.a_count,
            "q1_tuples": q1_tuples.tolist(),
            "q2_prefixes": prefixes}
    return TwoProverGame(len(q1_tuples), len(prefixes), a1_count, a2_count,
                         pi, R, game.mode, meta=meta)


def _probe_coords(triples, positions):
    """[triple][position]: the position's coordinate in the triple, or -1."""
    hit = triples[:, :, None] == np.asarray(positions)[None, None, :]
    return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)


def oracularize_pcp(game):
    """Standard oracularization of a three-query PCP game.

    The first prover receives a support triple, the second one of its three
    positions uniformly; consistency requires the single answer to agree
    with the first prover's entry at that position.
    """
    sup = game.pi > 0
    triples = game.triples[sup]
    positions = np.unique(triples)
    a = game.alphabet_size
    a1_count = a**3
    check_table_size(len(triples) * len(positions) * a1_count * a,
                     "oracularize_pcp predicate")
    third = Fraction(1, 3) if game.mode == scalars.RATIONAL else 1.0 / 3.0
    zero = scalars.zero(game.mode)

    coord = _probe_coords(triples, positions)
    pi = np.where(coord >= 0, (game.pi[sup] * third)[:, None], zero)
    # the first prover's answer at the probed coordinate, [t][pos][a1]
    probed = digit_table(a, 3)[:, coord].transpose(1, 2, 0)
    consistent = (coord[:, :, None, None] < 0) | (probed[..., None] == np.arange(a))
    R = np.where(consistent, game.R[sup][:, None, :, None], zero)

    meta = {"kind": "oracularized_pcp", "alphabet": a,
            "base_positions": game.positions,
            "triples": triples.tolist(),
            "positions": positions.tolist()}
    return TwoProverGame(len(triples), len(positions), a1_count, a, pi, R,
                         game.mode, meta=meta)


def pcp_question_marginal(game):
    """Per-position probe marginal: draw a support triple, then one of its
    three positions uniformly.  Maps each position of a support triple to
    its probability."""
    third = Fraction(1, 3) if game.mode == scalars.RATIONAL else 1.0 / 3.0
    sup = game.pi != 0
    marg = scalars.zeros(game.positions, game.mode)
    np.add.at(marg, game.triples[sup].ravel(), np.repeat(third * game.pi[sup], 3))
    positions = np.flatnonzero(np.bincount(game.triples[sup].ravel(), minlength=game.positions))
    return dict(zip(positions.tolist(), marg[positions].tolist()))


def oracularize_pcp_dummy(game):
    """Oracularization with a dummy question.

    The second prover receives a sorted pair: one coordinate is the real
    consistency probe (a uniform position of the first prover's triple),
    the other an independently drawn dummy position; ordering follows the
    probe values with a fair coin on ties, so the pair itself carries no
    information about which is real.  That verifier coin is integrated out:
    the pair probability accumulates both assignments and the predicate is
    the correspondingly weighted average of the two consistency checks,
    which makes some entries strictly between 0 and 1.
    """
    sup = game.pi > 0
    triples = game.triples[sup]
    marg = pcp_question_marginal(game)
    positions = sorted(marg)
    pairs = [(u, v) for i, u in enumerate(positions) for v in positions[i:]]
    a = game.alphabet_size
    a1_count, a2_count = a**3, a**2
    check_table_size(len(triples) * len(pairs) * a1_count * a2_count,
                     "oracularize_pcp_dummy predicate")
    third = Fraction(1, 3) if game.mode == scalars.RATIONAL else 1.0 / 3.0
    zero, one = scalars.zero(game.mode), scalars.one(game.mode)
    dtype = scalars.dtype(game.mode)

    # [t][pair]: coordinate of u and of v in the triple (-1 if absent), and
    # the weight of "u is real, v is dummy" and of the reverse
    ju = _probe_coords(triples, [u for u, _ in pairs])
    jv = _probe_coords(triples, [v for _, v in pairs])
    w_u = np.where(ju >= 0, np.array([third * marg[v] for _, v in pairs], dtype=dtype), zero)
    w_v = np.where(jv >= 0, np.array([third * marg[u] for u, _ in pairs], dtype=dtype), zero)
    w_sum = w_u + w_v
    pi = game.pi[sup][:, None] * np.where([u == v for u, v in pairs], w_u, w_sum)

    # acc[t][pair][hit_u][hit_v]: the consistency acceptance given whether
    # the pair's first and second answers match the first prover at u and v;
    # for u == v both weights are equal, and it is the mean of the two checks
    hit = np.array([zero, one], dtype=dtype)
    mixed = ((w_u[..., None, None] * hit[:, None] + w_v[..., None, None] * hit[None, :])
             / np.where(w_sum != 0, w_sum, one)[..., None, None])
    # a measure-zero pair's consistency is vacuous
    acc = np.where((w_sum != 0)[..., None, None], mixed, one)
    digits1, digits2 = digit_table(a, 3), digit_table(a, 2)

    def hits(j, c):
        """[t][pair][a1][a2]: 1 where component c of the second answer is
        the first prover's answer at coordinate j of the triple."""
        at_j = digits1[:, j].transpose(1, 2, 0)[..., None]
        return ((j >= 0)[..., None, None] & (at_j == digits2[:, c])).astype(int)

    sim = game.R[sup]
    R = sim[:, None, :, None] * acc[np.arange(len(triples))[:, None, None, None],
                                    np.arange(len(pairs))[None, :, None, None],
                                    hits(ju, 0), hits(jv, 1)]

    meta = {"kind": "oracularized_pcp_dummy", "alphabet": a,
            "base_positions": game.positions,
            "triples": triples.tolist(),
            "positions": list(positions),
            "pairs": [list(p) for p in pairs],
            "real_marginal": [scalars.format_scalar(marg[q]) for q in positions]}
    return TwoProverGame(len(triples), len(pairs), a1_count, a2_count, pi, R,
                         game.mode, meta=meta)


def parallel_repeat(game, n):
    """n-fold parallel repetition: product questions, all copies must win.

    A rational table is repeated on its integer form's numerators, over its
    denominator to the n-th power; the result keeps that form, and only its
    distinct entries become ``Fraction``s.
    """
    if n < 1:
        raise ValueError("n must be positive")
    q1n, q2n = game.q1_count**n, game.q2_count**n
    a1n, a2n = game.a1_count**n, game.a2_count**n
    check_table_size(q1n * q2n * a1n * a2n, "parallel_repeat predicate")
    meta = {"kind": "parallel_repetition", "copies": n,
            "base_counts": [game.q1_count, game.q2_count,
                            game.a1_count, game.a2_count]}

    if game.mode == scalars.FLOAT:
        pi, R = (_repeat_table(t, n) for t in (game.pi, game.R))
    else:
        pi, R = (scalars.IntegerForm(_repeat_table(form.widen(power=n), n), form.den**n)
                 for form in game.exact_forms())
    return TwoProverGame(q1n, q2n, a1n, a2n, pi, R, game.mode, meta=meta)


def _repeat_table(table, n):
    """n-fold outer product of a table with itself, each axis's n copies
    merged into one index (first copy most significant)."""
    out = table
    for _ in range(n - 1):
        out = np.multiply.outer(out, table)
    d = table.ndim
    out = out.transpose([d * k + axis for axis in range(d) for k in range(n)])
    return out.reshape([size**n for size in table.shape])


def pcp_from_1in3(formula):
    """PCP game of a 1-in-3 formula: positions are the queried variables,
    the verifier draws a clause uniformly and accepts iff exactly one
    literal is true.

    Clauses sharing a variable triple merge: the triple's probability
    accumulates and its predicate averages the clause predicates, so
    entries can be fractional.
    """
    if not formula.clauses:
        raise ValueError("formula has no clauses")
    used = sorted({v for cl in formula.clauses for v, _ in cl})
    m = len(formula.clauses)
    pos = np.searchsorted(used, [[v for v, _ in cl] for cl in formula.clauses])
    polarity = np.array([[p for _, p in cl] for cl in formula.clauses])
    order = np.argsort(pos, axis=1)
    pos, polarity = (np.take_along_axis(x, order, axis=1) for x in (pos, polarity))
    # sat[clause][aidx]: exactly one literal is true under the answers
    sat = ((digit_table(2, 3)[None] == polarity[:, None, :]).sum(axis=2) == 1).astype(int)

    triples, clause_of, counts = np.unique(pos, axis=0, return_inverse=True,
                                           return_counts=True)
    sat_counts = np.zeros((len(triples), 8), dtype=int)
    np.add.at(sat_counts, clause_of.reshape(-1), sat)
    pi = [Fraction(c, m) for c in counts.tolist()]
    R = [[Fraction(s, c) for s in row] for row, c in zip(sat_counts.tolist(), counts.tolist())]
    meta = {"kind": "pcp_1in3", "variables": list(used),
            "num_clauses": m}
    return PcpGame(len(used), 2, triples, pi, R, scalars.RATIONAL, meta=meta)


def honest_strategy_from_proof(proof, game):
    """Deterministic two-prover strategy that reads the proof everywhere.

    Works for both oracularization variants; the second prover answers all
    queried coordinates from the proof, so the consistency test always
    passes.
    """
    meta = game.meta or {}
    kind = meta.get("kind")
    if kind not in ("oracularized_pcp", "oracularized_pcp_dummy"):
        raise ValueError(f"game of kind {kind!r} is not an oracularized PCP game")
    if len(proof) != meta["base_positions"]:
        raise ValueError(f"proof length {len(proof)} does not match "
                         f"{meta['base_positions']} positions")
    a = meta["alphabet"]
    f1 = [encode_tuple(tuple(proof[q] for q in t), a) for t in meta["triples"]]
    if kind == "oracularized_pcp":
        f2 = [proof[q] for q in meta["positions"]]
    else:
        f2 = [encode_tuple((proof[u], proof[v]), a) for u, v in meta["pairs"]]
    return DeterministicBipartiteStrategy(tuple(f1), tuple(f2))


def honest_strategy_from_multi_round(strategy, game, oracularized):
    """Embed a deterministic multi-round strategy into the oracularized game.

    The first prover plays out the whole conversation; the second answers
    the prefix the same way, which is well defined because a deterministic
    strategy's answers depend only on the questions seen so far.
    """
    meta = oracularized.meta or {}
    if meta.get("kind") != "oracularized_multi_round":
        raise ValueError("game is not an oracularized multi-round game")
    one = scalars.one(strategy.mode)

    def play(qtup):
        answers = []
        for k in range(1, len(qtup) + 1):
            dist = strategy.round_dist(k, qtup[:k], tuple(answers))
            best = max(range(strategy.a_count), key=lambda y: (dist[y], -y))
            if dist[best] != one:
                raise ValueError("strategy is not deterministic")
            answers.append(best)
        return tuple(answers)

    f1 = [encode_tuple(play(tuple(q)), game.a_count) for q in meta["q1_tuples"]]
    a_index = PrefixIndex(game.a_count, game.rounds)
    f2 = [a_index.encode(play(tuple(p))) for p in meta["q2_prefixes"]]
    return DeterministicBipartiteStrategy(tuple(f1), tuple(f2))

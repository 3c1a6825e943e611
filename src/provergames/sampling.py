"""Seeded random instance generation for the verification suites.

Games get a uniform distribution over a random question support and a
Bernoulli predicate with configurable accept density.  No-signaling
strategies are produced as exact-rational mixtures of deterministic product
strategies (plus independent local randomizers), which are no-signaling
with violation exactly 0.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from . import scalars
from .games import (
    BipartiteStrategy,
    DeterministicBipartiteStrategy,
    MultiRoundGame,
    PcpGame,
    TwoProverGame,
)


def _uniform_support(rng, size, keep=0.7):
    support = [i for i in range(size) if rng.random() < keep]
    if not support:
        support = [rng.randrange(size)]
    return support


def _uniform_on(support, size):
    """Equal rational weights on ``support``, zero elsewhere."""
    pi = scalars.zeros(size, scalars.RATIONAL)
    pi[support] = Fraction(1, len(support))
    return pi


def _bernoulli(rng, shape, density):
    """A 0/1 rational table drawn entry by entry in row-major order."""
    draws = [Fraction(1) if rng.random() < density else Fraction(0)
             for _ in range(math.prod(shape))]
    return np.array(draws, dtype=object).reshape(shape)


def random_two_prover_game(rng, q1=3, q2=3, a1=2, a2=2, density=0.5):
    pi = _uniform_on(_uniform_support(rng, q1 * q2), q1 * q2).reshape(q1, q2)
    return TwoProverGame(q1, q2, a1, a2, pi, _bernoulli(rng, (q1, q2, a1, a2), density),
                         scalars.RATIONAL)


def random_multi_round_game(rng, q=2, a=2, rounds=2, density=0.3):
    nq, na = q**rounds, a**rounds
    pi = _uniform_on(_uniform_support(rng, nq), nq)
    return MultiRoundGame(q, a, rounds, pi, _bernoulli(rng, (nq * na,), density),
                          scalars.RATIONAL)


def random_pcp_game(rng, positions=4, alphabet=2, density=0.25):
    triples = list(itertools.combinations(range(positions), 3))
    chosen = [triples[i] for i in _uniform_support(rng, len(triples))]
    return PcpGame(positions, alphabet, chosen, [Fraction(1, len(chosen))] * len(chosen),
                   _bernoulli(rng, (len(chosen), alphabet**3), density), scalars.RATIONAL)


def random_deterministic_strategy(rng, game):
    f1 = tuple(rng.randrange(game.a1_count) for _ in range(game.q1_count))
    f2 = tuple(rng.randrange(game.a2_count) for _ in range(game.q2_count))
    return DeterministicBipartiteStrategy(f1, f2)


def random_local_distribution(rng, n, denominator=12):
    weights = [rng.randrange(denominator + 1) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    return tuple(Fraction(v, total) for v in weights)


def random_product_strategy(rng, game):
    """Independent local randomizers: prover 2 ignores prover 1 entirely."""
    u1 = np.array([random_local_distribution(rng, game.a1_count)
                   for _ in range(game.q1_count)], dtype=object)
    u2 = np.array([random_local_distribution(rng, game.a2_count)
                   for _ in range(game.q2_count)], dtype=object)
    theta = u1[:, None, :, None] * u2[None, :, None, :]
    return BipartiteStrategy(*game.shape, theta, scalars.RATIONAL)


def random_ns_strategy(rng, game, parts=4):
    """Exact-rational mixture of deterministic product strategies."""
    weights = random_local_distribution(rng, parts, denominator=8)
    members = [random_deterministic_strategy(rng, game) for _ in range(parts)]
    theta = scalars.zeros(game.shape, scalars.RATIONAL)
    for w, det in zip(weights, members):
        theta[det.answer_cells()] += w
    return BipartiteStrategy(*game.shape, theta, scalars.RATIONAL)


def seeded(seed):
    return random.Random(seed)

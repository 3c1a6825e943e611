"""No-signaling rounding: marginal identities, the rounded strategy, hybrid
families, and the claim suite, all with zero tolerance."""

import random
from fractions import Fraction

import numpy as np
import pytest

from provergames.games import (
    MultiRoundGame,
    eval_multi_round,
    eval_two_prover,
    uniform_bipartite,
)
from provergames.indexing import iter_tuples
from provergames.rounding import (
    ShapeError,
    hybrid_family,
    normalize_answer_shape,
    ns_decompose,
    reconstruct_multi_round,
    round_no_signaling,
    verify_ns_claims,
)
from provergames.sampling import (
    random_multi_round_game,
    random_ns_strategy,
    random_product_strategy,
)
from provergames.transforms import (
    honest_strategy_from_multi_round,
    oracularize_multi_round,
)
from provergames.values import multi_round_value, no_signaling_value
from oracles import embed, pi_at, prefix_length, r_at


def _pipeline(gp, theta, game=None, lp_optimal=False):
    tables = ns_decompose(gp, theta)
    rounded = round_no_signaling(tables)
    hybrids = hybrid_family(tables, rounded, game or tables.game)
    report = verify_ns_claims(tables, hybrids, lp_optimal=lp_optimal)
    return tables, rounded, hybrids, report


def test_reconstruction_round_trip():
    rng = random.Random(2)
    g = random_multi_round_game(rng)
    gp = oracularize_multi_round(g)
    rec = reconstruct_multi_round(gp)
    assert np.array_equal(rec.pi, g.pi)
    # predicate may differ only on probability-zero question tuples
    nq, na, r = g.q_count, g.a_count, g.rounds
    for qidx in range(nq**r):
        if g.pi[qidx]:
            base = qidx * na**r
            assert np.array_equal(rec.R[base:base + na**r], g.R[base:base + na**r])


def test_honest_strategy_has_zero_failures():
    rng = random.Random(3)
    g = random_multi_round_game(rng, density=0.5)
    gp = oracularize_multi_round(g)
    res = multi_round_value(g)
    det = honest_strategy_from_multi_round(res.witness, g, gp)
    theta = embed(det, gp.a1_count, gp.a2_count)
    tables, rounded, hybrids, report = _pipeline(gp, theta, g)
    assert tables.eps_cons == 0
    assert tables.eps_sim == 1 - res.value
    assert tables.eps == 1 - res.value
    # alpha and beta are consistent point masses
    for (i, k), d in tables.alpha_prefix.items():
        assert np.array_equal(tables.beta[tables.q_tuples[i][:k]], d)
    assert report.ok
    assert all(r.lhs == 0 for r in report.rows if "claim-" in r.name)
    # rounding recovers the honest behavior
    assert eval_multi_round(g, rounded) == res.value
    assert hybrids.p[1] == hybrids.p[tables.rounds] == res.value


def _uniform_correct_shape(gp):
    """Both provers uniform, the second over answers of the probed length."""
    from provergames.games import BipartiteStrategy
    from provergames.indexing import PrefixIndex

    meta = gp.meta
    r, na = meta["rounds"], meta["base_a_count"]
    pidx = PrefixIndex(na, r)
    prefixes = [tuple(p) for p in meta["q2_prefixes"]]
    theta = []
    for q1 in range(gp.q1_count):
        row = []
        for p in prefixes:
            k = len(p)
            w = Fraction(1, gp.a1_count * na**k)
            block = [[w if prefix_length(pidx, a2) == k else Fraction(0)
                      for a2 in range(gp.a2_count)]
                     for _ in range(gp.a1_count)]
            row.append(block)
        theta.append(row)
    return BipartiteStrategy(gp.q1_count, gp.q2_count, gp.a1_count,
                             gp.a2_count, theta)


def test_uniform_strategy_consistency_failure_formula():
    rng = random.Random(5)
    g = random_multi_round_game(rng)
    gp = oracularize_multi_round(g)
    theta = _uniform_correct_shape(gp)
    tables = ns_decompose(gp, theta)
    a = g.a_count
    for (i, k), v in tables.eps_cons_qk.items():
        # direct-summation oracle: a uniform pair matches with prob A^-k
        assert v == 1 - Fraction(1, a**k)
    rounded = round_no_signaling(tables)
    # uniform beta rounds to uniform per-round conditionals
    for k in range(1, tables.rounds + 1):
        for dist in rounded.tables[k - 1]:
            assert all(p == Fraction(1, a) for p in dist)


def test_lp_optimal_strategy_full_suite():
    rng = random.Random(7)
    for _ in range(4):
        g = random_multi_round_game(rng)
        gp = oracularize_multi_round(g)
        res = no_signaling_value(gp)
        theta = normalize_answer_shape(res.witness, gp)
        assert eval_two_prover(gp, theta) == res.value
        tables, rounded, hybrids, report = _pipeline(gp, theta, g, lp_optimal=True)
        assert tables.eps == 1 - res.value
        assert report.ok, report.failures()[:3]
        # p1 <= w(G): the rounded strategy cannot beat the base optimum
        w = multi_round_value(g).value
        assert hybrids.p[1] == eval_multi_round(g, rounded) <= w


def test_random_and_adversarial_strategies_satisfy_claims():
    rng = random.Random(11)
    for _ in range(3):
        g = random_multi_round_game(rng)
        gp = oracularize_multi_round(g)
        for make in (random_ns_strategy, random_product_strategy):
            theta = normalize_answer_shape(make(rng, gp), gp)
            tables, rounded, hybrids, report = _pipeline(gp, theta, g)
            assert report.ok, report.failures()[:3]
            assert eval_multi_round(g, rounded) <= multi_round_value(g).value


def test_adversarially_inconsistent_strategy():
    # prover 2 answers uniformly, prover 1 plays a fixed answer: consistency
    # fails often, the claims still hold exactly
    rng = random.Random(13)
    g = random_multi_round_game(rng, density=0.6)
    gp = oracularize_multi_round(g)
    theta = normalize_answer_shape(
        uniform_bipartite(gp.q1_count, gp.q2_count, gp.a1_count, gp.a2_count), gp)
    tables, rounded, hybrids, report = _pipeline(gp, theta, g)
    assert tables.eps_cons > 0
    assert report.ok


def test_signaling_strategy_rejected():
    rng = random.Random(17)
    g = random_multi_round_game(rng)
    gp = oracularize_multi_round(g)
    theta = normalize_answer_shape(
        uniform_bipartite(gp.q1_count, gp.q2_count, gp.a1_count, gp.a2_count), gp)
    # perturb one block so prover 1's marginal depends on the probe
    blocks = [[[list(a1row) for a1row in theta.theta[q1][q2]]
               for q2 in range(gp.q2_count)] for q1 in range(gp.q1_count)]
    blocks[0][0][0][0] += Fraction(1, 8)
    blocks[0][0][1][0] -= Fraction(1, 8)
    from provergames.games import BipartiteStrategy

    bad = BipartiteStrategy(gp.q1_count, gp.q2_count, gp.a1_count,
                            gp.a2_count, blocks, theta.mode)
    with pytest.raises(ValueError):
        ns_decompose(gp, bad)


def test_wrong_shape_rejected_and_normalizable():
    rng = random.Random(19)
    g = random_multi_round_game(rng)
    gp = oracularize_multi_round(g)
    raw = uniform_bipartite(gp.q1_count, gp.q2_count, gp.a1_count, gp.a2_count)
    with pytest.raises(ShapeError):
        ns_decompose(gp, raw)
    fixed = normalize_answer_shape(raw, gp)
    tables = ns_decompose(gp, fixed)
    assert tables.eps <= 1


def test_hybrid_p1_and_pr_identities():
    rng = random.Random(23)
    g = random_multi_round_game(rng)
    gp = oracularize_multi_round(g)
    theta = normalize_answer_shape(random_ns_strategy(rng, gp), gp)
    tables, rounded, hybrids, _ = _pipeline(gp, theta, g)
    r = tables.rounds
    assert hybrids.p[1] == eval_multi_round(g, rounded)
    assert hybrids.p[r] >= 1 - tables.eps_k[r]
    # p_r is the value of the second prover's full-length behavior,
    # recomputed by direct summation
    direct = Fraction(0)
    for i, q in enumerate(tables.q_tuples):
        pq = pi_at(g, q)
        beta = tables.beta[q]
        for aidx, atup in enumerate(iter_tuples(g.a_count, r)):
            direct += pq * beta[aidx] * r_at(g, q, atup)
    assert direct == hybrids.p[r]


def test_round_zero_denominator_gives_uniform():
    # a beta that never plays answer prefix (1,) forces a zero denominator
    # at round 2 behind that prefix
    q = a = 2
    r = 2
    pi = [Fraction(1, 4)] * 4
    R = [Fraction(1)] * 16
    g = MultiRoundGame(q, a, r, pi, R)
    gp = oracularize_multi_round(g)
    f1 = tuple(0 for _ in range(gp.q1_count))
    a_index_all_zero_len = {}
    from provergames.games import DeterministicBipartiteStrategy
    from provergames.indexing import PrefixIndex

    pidx = PrefixIndex(a, r)
    prefixes = [tuple(p) for p in gp.meta["q2_prefixes"]]
    f2 = tuple(pidx.encode((0,) * len(p)) for p in prefixes)
    theta = embed(DeterministicBipartiteStrategy(f1, f2), gp.a1_count, gp.a2_count)
    tables = ns_decompose(gp, theta)
    rounded = round_no_signaling(tables)
    # behind the impossible prefix (answered 1 at round 1) the conditional
    # is uniform
    dist = rounded.round_dist(2, (0, 0), (1,))
    assert tuple(dist) == (Fraction(1, 2), Fraction(1, 2))
    # on the support the point mass is reproduced
    assert tuple(rounded.round_dist(1, (0,), ())) == (Fraction(1), Fraction(0))


def test_single_round_pipeline():
    # r = 1 degenerates gracefully: the probe is always the full question
    rng = random.Random(29)
    g = random_multi_round_game(rng, q=3, a=2, rounds=1, density=0.4)
    w = multi_round_value(g).value
    gp = oracularize_multi_round(g)
    res = no_signaling_value(gp)
    assert res.value <= 1 - (1 - w) / 3
    theta = normalize_answer_shape(res.witness, gp)
    tables, rounded, hybrids, report = _pipeline(gp, theta, g, lp_optimal=True)
    assert report.ok
    assert hybrids.p[1] == eval_multi_round(g, rounded) <= w


def test_three_round_claims_without_lp():
    # r = 3 exercises deeper prefix structure; mixtures avoid the larger LP
    rng = random.Random(31)
    g = random_multi_round_game(rng, q=2, a=2, rounds=3, density=0.3)
    gp = oracularize_multi_round(g)
    for make in (random_ns_strategy, random_product_strategy):
        theta = normalize_answer_shape(make(rng, gp), gp)
        tables, rounded, hybrids, report = _pipeline(gp, theta, g)
        assert tables.rounds == 3
        assert report.ok, report.failures()[:3]
        assert eval_multi_round(g, rounded) <= multi_round_value(g).value


def test_three_round_lp_witness_full_chain():
    # deeper prefix structure with the LP-optimal witness; the cheating
    # gain is strict here (w < w_ns < bound)
    rng = random.Random(101)
    g = random_multi_round_game(rng, q=2, a=2, rounds=3, density=0.25)
    w = multi_round_value(g).value
    gp = oracularize_multi_round(g)
    res = no_signaling_value(gp)
    assert w < res.value <= 1 - (1 - w) / Fraction(9)
    theta = normalize_answer_shape(res.witness, gp)
    tables, rounded, hybrids, report = _pipeline(gp, theta, g, lp_optimal=True)
    assert report.ok, report.failures()[:3]
    assert hybrids.p[1] <= w

"""Game model: validation, evaluation, and the no-signaling check."""

import random
from fractions import Fraction

import pytest

from provergames import scalars
from provergames.catalog import chsh
from provergames.games import (
    BipartiteStrategy,
    DeterministicBipartiteStrategy,
    DimensionError,
    MultiRoundGame,
    MultiRoundStrategy,
    PcpGame,
    PcpProofDistribution,
    TwoProverGame,
    eval_multi_round,
    eval_pcp,
    eval_two_prover,
    is_no_signaling,
    pcp_triple_distribution,
    uniform_bipartite,
    validate,
)
from provergames.indexing import encode_tuple, iter_tuples
from provergames.sampling import random_product_strategy, random_two_prover_game
from oracles import embed, q_tuples, r_at


def test_validate_chsh_clean():
    assert validate(chsh()) == []


def test_validate_reports_bad_normalization():
    g = chsh()
    pi = [[Fraction(1, 4)] * 2, [Fraction(1, 4), Fraction(3, 20)]]
    bad = TwoProverGame(2, 2, 2, 2, pi, g.R)
    report = validate(bad)
    assert len(report) == 1 and "normalization" in report[0]


def test_validate_reports_predicate_range():
    g = chsh()
    R = [[[[Fraction(2) if (q1, q2, a1, a2) == (0, 0, 0, 0) else g.R[q1][q2][a1][a2]
            for a2 in range(2)] for a1 in range(2)]
          for q2 in range(2)] for q1 in range(2)]
    report = validate(TwoProverGame(2, 2, 2, 2, g.pi, R))
    assert any("predicate range" in r for r in report)


def test_eval_accept_everything_is_one():
    g = random_two_prover_game(random.Random(0), 2, 2, 2, 2, density=1.1)
    s = uniform_bipartite(2, 2, 2, 2)
    assert eval_two_prover(g, s) == 1


def test_eval_chsh_all_zero_answers():
    # hand enumeration: all-zero answers win iff q1 AND q2 == 0, three of
    # the four uniform question pairs
    det = DeterministicBipartiteStrategy((0, 0), (0, 0))
    assert eval_two_prover(chsh(), det) == Fraction(3, 4)
    by_hand = sum(Fraction(1, 4) for q1 in range(2) for q2 in range(2)
                  if (q1 & q2) == 0)
    assert by_hand == Fraction(3, 4)


def test_eval_magic_square_catalog_strategy():
    from provergames.quantum import catalog_magic_square, to_bipartite_strategy

    game, strategy = catalog_magic_square()
    table = to_bipartite_strategy(strategy, game.to_float())
    assert eval_two_prover(game.to_float(), table) == pytest.approx(1.0, abs=1e-9)


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionError):
        eval_two_prover(chsh(), uniform_bipartite(3, 2, 2, 2))


def test_eval_mode_mismatch():
    with pytest.raises(scalars.ModeError):
        eval_two_prover(chsh(), uniform_bipartite(2, 2, 2, 2, scalars.FLOAT))


def _echo_game(q=2, rounds=2):
    pi = [Fraction(1, q**rounds)] * q**rounds
    R = [Fraction(1) if a == qt else Fraction(0)
         for qt in iter_tuples(q, rounds) for a in iter_tuples(q, rounds)]
    return MultiRoundGame(q, q, rounds, pi, R)


def _echo_strategy(q=2, rounds=2):
    tables = []
    for k in range(1, rounds + 1):
        table = []
        for qp in iter_tuples(q, k):
            for _ in iter_tuples(q, k - 1):
                dist = [Fraction(0)] * q
                dist[qp[-1]] = Fraction(1)
                table.append(tuple(dist))
        tables.append(tuple(table))
    return MultiRoundStrategy(q, q, rounds, tables)


def test_eval_multi_round_echo():
    assert eval_multi_round(_echo_game(), _echo_strategy()) == 1


def test_eval_multi_round_uniform_strategy_matches_direct_sum():
    rng = random.Random(5)
    q = a = 2
    r = 2
    pi = [Fraction(1, q**r)] * q**r
    R = [Fraction(1) if rng.random() < 0.5 else Fraction(0)
         for _ in range(q**r * a**r)]
    g = MultiRoundGame(q, a, r, pi, R)
    uniform = MultiRoundStrategy(q, a, r, [
        tuple((Fraction(1, a),) * a for _ in range(q**k * a ** (k - 1)))
        for k in range(1, r + 1)])
    # direct-summation oracle: average the predicate over all answer tuples
    expected = sum(
        g.pi[qi] * sum(r_at(g, qt, at) for at in iter_tuples(a, r))
        / Fraction(a**r)
        for qi, qt in enumerate(q_tuples(g)))
    assert eval_multi_round(g, uniform) == expected


def _single_clause_game():
    # exactly-one-true on positions (0,1,2) of a 3-cell proof
    pi = (Fraction(1),)
    row = [Fraction(1) if sum(bits) == 1 else Fraction(0)
           for bits in iter_tuples(2, 3)]
    R = (tuple(row),)
    return PcpGame(3, 2, ((0, 1, 2),), pi, R)


def test_eval_pcp_point_mass_cases():
    g = _single_clause_game()
    zeros = PcpProofDistribution.point_mass((0, 0, 0), 2)
    assert eval_pcp(g, zeros) == 0
    good = PcpProofDistribution.point_mass((1, 0, 0), 2)
    assert eval_pcp(g, good) == 1


def test_eval_pcp_accept_everything():
    pi = (Fraction(1),)
    R = ((Fraction(1),) * 8,)
    g = PcpGame(3, 2, ((0, 1, 2),), pi, R)
    dense = PcpProofDistribution(3, 2, (Fraction(1, 8),) * 8)
    assert eval_pcp(g, dense) == 1


def test_pcp_triple_distribution_point_mass_and_uniform():
    point = PcpProofDistribution.point_mass((1, 0, 1, 0), 2)
    dist = pcp_triple_distribution(point, (0, 2, 3))
    assert dist[encode_tuple((1, 1, 0), 2)] == 1
    uniform = PcpProofDistribution(4, 2, (Fraction(1, 16),) * 16)
    dist = pcp_triple_distribution(uniform, (0, 1, 3))
    assert all(v == Fraction(1, 8) for v in dist)


def test_pcp_triple_distribution_mixture():
    half = Fraction(1, 2)
    mix = PcpProofDistribution(3, 2, (half, half), proofs=((0, 0, 0), (1, 1, 0)))
    dist = pcp_triple_distribution(mix, (0, 1, 2))
    assert dist[encode_tuple((0, 0, 0), 2)] == half
    assert dist[encode_tuple((1, 1, 0), 2)] == half
    # marginal of a valid distribution is a distribution
    assert sum(dist) == 1 and all(v >= 0 for v in dist)


def test_pcp_triple_distribution_range_check():
    point = PcpProofDistribution.point_mass((0, 0, 0), 2)
    with pytest.raises(DimensionError):
        pcp_triple_distribution(point, (0, 2, 3))


def test_no_signaling_deterministic_and_product():
    det = DeterministicBipartiteStrategy((0, 1), (1, 0))
    ok, violation = is_no_signaling(embed(det, 2, 2))
    assert ok and violation == 0
    rng = random.Random(9)
    for _ in range(10):
        g = random_two_prover_game(rng, 3, 2, 2, 3)
        ok, violation = is_no_signaling(random_product_strategy(rng, g))
        assert ok and violation == 0


def test_no_signaling_pr_box():
    half = Fraction(1, 2)
    zero = Fraction(0)
    theta = [[[[half if (a1 ^ a2) == (q1 & q2) else zero
                for a2 in range(2)] for a1 in range(2)]
              for q2 in range(2)] for q1 in range(2)]
    box = BipartiteStrategy(2, 2, 2, 2, theta)
    ok, violation = is_no_signaling(box)
    assert ok and violation == 0
    # and it wins CHSH with certainty
    assert eval_two_prover(chsh(), box) == 1


def test_no_signaling_detects_copying():
    zero, one = Fraction(0), Fraction(1)
    # prover 1 answers q2: maximal signaling
    theta = [[[[one if (a1 == q2 and a2 == 0) else zero
                for a2 in range(2)] for a1 in range(2)]
              for q2 in range(2)] for q1 in range(2)]
    s = BipartiteStrategy(2, 2, 2, 2, theta)
    ok, violation = is_no_signaling(s)
    assert not ok and violation == 1


def test_evaluations_stay_in_unit_interval():
    rng = random.Random(13)
    for _ in range(20):
        g = random_two_prover_game(rng, 2, 3, 2, 2)
        s = random_product_strategy(rng, g)
        v = eval_two_prover(g, s)
        assert 0 <= v <= 1


def test_embedding_consistency():
    rng = random.Random(3)
    for _ in range(10):
        g = random_two_prover_game(rng, 2, 2, 3, 2)
        det = DeterministicBipartiteStrategy(
            tuple(rng.randrange(3) for _ in range(2)),
            tuple(rng.randrange(2) for _ in range(2)))
        assert (eval_two_prover(g, det)
                == eval_two_prover(g, embed(det, g.a1_count, g.a2_count)))


def test_validate_flags_mode_mismatch_in_predicate():
    g = chsh()
    R = [[[[0.5 if (q1, q2, a1, a2) == (0, 0, 0, 0) else g.R[q1][q2][a1][a2]
            for a2 in range(2)] for a1 in range(2)]
          for q2 in range(2)] for q1 in range(2)]
    report = validate(TwoProverGame(2, 2, 2, 2, g.pi, R))
    assert any("mode" in r for r in report)

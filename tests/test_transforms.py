"""Transform outputs: validity, cardinalities, honest embeddings, and the
soundness sandwiches."""

import random
from fractions import Fraction

import pytest

from provergames.catalog import chsh, tiny_1in3
from provergames.games import (
    MultiRoundGame,
    eval_two_prover,
    validate,
)
from provergames.indexing import iter_tuples
from provergames.sampling import (
    random_multi_round_game,
    random_pcp_game,
    random_two_prover_game,
)
from provergames.transforms import (
    OneInThreeFormula,
    honest_strategy_from_multi_round,
    honest_strategy_from_proof,
    oracularize_multi_round,
    oracularize_pcp,
    oracularize_pcp_dummy,
    parallel_repeat,
    pcp_from_1in3,
    pcp_question_marginal,
)
from provergames.values import classical_value, multi_round_value, pcp_value
from oracles import best_1in3_fraction, brute_classical


def test_oracularize_multi_round_cardinalities():
    # full-support game so nothing is dropped
    pi = [Fraction(1, 4)] * 4
    R = [Fraction(1)] * 16
    g = MultiRoundGame(2, 2, 2, pi, R)
    gp = oracularize_multi_round(g)
    assert (gp.q1_count, gp.q2_count) == (4, 6)
    assert (gp.a1_count, gp.a2_count) == (4, 6)
    assert validate(gp) == []


def test_oracularize_multi_round_honest_embedding_wins_echo():
    q = a = 2
    r = 2
    pi = [Fraction(1, 4)] * 4
    R = [Fraction(1) if at == qt else Fraction(0)
         for qt in iter_tuples(q, r) for at in iter_tuples(a, r)]
    echo = MultiRoundGame(q, a, r, pi, R)
    gp = oracularize_multi_round(echo)
    res = multi_round_value(echo)
    det = honest_strategy_from_multi_round(res.witness, echo, gp)
    assert eval_two_prover(gp, det) == 1


def test_oracularize_multi_round_classical_sandwich():
    rng = random.Random(5)
    for _ in range(8):
        g = random_multi_round_game(rng)
        w = multi_round_value(g).value
        gp = oracularize_multi_round(g)
        assert validate(gp) == []
        cw = classical_value(gp).value
        assert w <= cw <= 1 - (1 - w) / 3
        # lower side by honest embedding
        det = honest_strategy_from_multi_round(multi_round_value(g).witness, g, gp)
        assert eval_two_prover(gp, det) == w


def test_oracularize_pcp_cardinalities_single_triple():
    g = pcp_from_1in3(OneInThreeFormula(3, (((0, True), (1, True), (2, True)),)))
    gp = oracularize_pcp(g)
    assert gp.q1_count == 1 and gp.q2_count == 3
    assert gp.a1_count == 8 and gp.a2_count == 2
    assert validate(gp) == []


def test_oracularize_pcp_sandwich_exact():
    rng = random.Random(9)
    checked = 0
    for _ in range(12):
        g = random_pcp_game(rng, positions=4)
        w = pcp_value(g).value
        gp = oracularize_pcp(g)
        assert validate(gp) == []
        cw = classical_value(gp).value
        assert w <= cw <= 1 - (1 - w) / 3
        checked += 1
    assert checked == 12


def test_oracularize_pcp_honest_from_satisfying_proof():
    g = tiny_1in3()
    gp = oracularize_pcp(g)
    res = pcp_value(g)
    det = honest_strategy_from_proof(res.witness, gp)
    assert eval_two_prover(gp, det) == 1


def test_honest_strategy_always_passes_consistency():
    # consistency-only variant: strip the simulation test by accepting all
    # first-prover answers
    rng = random.Random(11)
    g = random_pcp_game(rng, positions=4)
    gp = oracularize_pcp(g)
    cons_only_R = [[[[Fraction(1) if gp.R[q1][q2][a1][a2] or _consistent(gp, q1, q2, a1, a2)
                      else Fraction(0)
                      for a2 in range(gp.a2_count)] for a1 in range(gp.a1_count)]
                    for q2 in range(gp.q2_count)] for q1 in range(gp.q1_count)]
    from provergames.games import TwoProverGame

    cons_game = TwoProverGame(gp.q1_count, gp.q2_count, gp.a1_count,
                              gp.a2_count, gp.pi, cons_only_R, gp.mode,
                              meta=gp.meta)
    for proof in ((0, 0, 0, 0), (1, 0, 1, 1), (1, 1, 1, 1)):
        det = honest_strategy_from_proof(proof, gp)
        assert eval_two_prover(cons_game, det) == 1


def _consistent(gp, q1, q2, a1, a2):
    meta = gp.meta
    t = tuple(meta["triples"][q1])
    pos = meta["positions"][q2]
    if pos not in t:
        return True
    from provergames.indexing import decode_tuple

    a1tup = decode_tuple(a1, meta["alphabet"], 3)
    return a1tup[t.index(pos)] == a2


def test_honest_proof_reaches_base_value():
    rng = random.Random(13)
    for _ in range(6):
        g = random_pcp_game(rng, positions=4)
        res = pcp_value(g)
        gp = oracularize_pcp(g)
        det = honest_strategy_from_proof(res.witness, gp)
        assert eval_two_prover(gp, det) >= res.value


def test_dummy_transform_marginal_identities():
    rng = random.Random(17)
    for _ in range(6):
        g = random_pcp_game(rng, positions=4)
        gp = oracularize_pcp_dummy(g)
        assert validate(gp) == []
        marg = pcp_question_marginal(g)
        positions = gp.meta["positions"]
        pairs = [tuple(p) for p in gp.meta["pairs"]]
        # row sums recover the triple distribution
        pi_d = dict(zip(map(tuple, g.triples.tolist()), g.pi))
        for i, t in enumerate(gp.meta["triples"]):
            assert sum(gp.pi[i]) == pi_d[tuple(t)]
        # the diagonal pair (q, q) has probability marginal(q)^2
        for q in positions:
            j = pairs.index((q, q))
            assert sum(gp.pi[i][j] for i in range(gp.q1_count)) == marg[q] ** 2
        # and the real-question marginal follows the averaged-position formula
        for q in positions:
            expected = sum(pi_d[t] for t in pi_d if q in t) / Fraction(3)
            assert marg[q] == expected


def test_dummy_transform_honest_and_soundness():
    g = tiny_1in3()
    gp = oracularize_pcp_dummy(g)
    det = honest_strategy_from_proof(pcp_value(g).witness, gp)
    assert eval_two_prover(gp, det) == 1

    contra = pcp_from_1in3(OneInThreeFormula(
        3, (((0, True), (1, True), (2, True)),
            ((0, False), (1, False), (2, False)))))
    gpd = oracularize_pcp_dummy(contra)
    assert pcp_value(contra).value < 1
    assert classical_value(gpd).value < 1


def test_parallel_repeat_identity():
    g = chsh()
    assert parallel_repeat(g, 1) == g


def test_parallel_repeat_accept_all_stays_accept_all():
    pi = [[Fraction(1, 4)] * 2] * 2
    R = [[[[Fraction(1)] * 2] * 2] * 2] * 2
    from provergames.games import TwoProverGame

    g = TwoProverGame(2, 2, 2, 2, pi, R)
    g2 = parallel_repeat(g, 2)
    assert all(v == 1 for row in g2.R for block in row for ent in block for v in ent)


def test_parallel_repeat_chsh_squared():
    g2 = parallel_repeat(chsh(), 2)
    assert validate(g2) == []
    res = classical_value(g2)
    assert res.value == Fraction(10, 16)
    assert brute_classical(g2) == Fraction(10, 16)


def test_parallel_repeat_value_properties():
    rng = random.Random(19)
    from provergames.values import no_signaling_value

    for _ in range(4):
        g = random_two_prover_game(rng, 2, 2, 2, 2)
        g2 = parallel_repeat(g, 2)
        assert classical_value(g2).value >= classical_value(g).value ** 2
        assert no_signaling_value(g2).value <= no_signaling_value(g).value


def test_pcp_from_1in3_examples():
    single = pcp_from_1in3(OneInThreeFormula(
        3, (((0, True), (1, True), (2, True)),)))
    assert pcp_value(single).value == 1

    f = OneInThreeFormula(3, (((0, True), (1, True), (2, True)),
                              ((0, False), (1, False), (2, False))))
    merged = pcp_from_1in3(f)
    assert pcp_value(merged).value == best_1in3_fraction(f)

    # all clauses sharing variables, mixed polarities
    f2 = OneInThreeFormula(4, (((0, True), (1, True), (2, True)),
                               ((0, True), (1, False), (2, True)),
                               ((0, False), (1, True), (3, True))))
    g2 = pcp_from_1in3(f2)
    assert pcp_value(g2).value == best_1in3_fraction(f2)


def test_pcp_from_1in3_drops_unqueried_variables():
    f = OneInThreeFormula(6, (((1, True), (3, True), (5, False)),))
    g = pcp_from_1in3(f)
    assert g.positions == 3
    assert g.meta["variables"] == [1, 3, 5]


def test_pcp_from_1in3_rejects_repeated_variable():
    with pytest.raises(ValueError):
        OneInThreeFormula(3, (((0, True), (0, False), (2, True)),))


def test_pcp_from_1in3_rejects_empty():
    with pytest.raises(ValueError):
        pcp_from_1in3(OneInThreeFormula(3, ()))


def test_transform_outputs_normalized_exactly():
    rng = random.Random(23)
    g = random_pcp_game(rng, positions=5)
    for gp in (oracularize_pcp(g), oracularize_pcp_dummy(g)):
        total = sum(sum(row) for row in gp.pi)
        assert total == 1



def test_ternary_alphabet_pcp_game():
    # alphabet size 3: the model is not binary-only
    from provergames.games import PcpGame
    from provergames.indexing import encode_tuple

    rng = random.Random(37)
    triples = ((0, 1, 2), (0, 1, 3))
    pi = tuple(Fraction(1, 2) for t in triples)
    R = tuple(tuple(Fraction(1) if rng.random() < 0.2 else Fraction(0)
                    for _ in range(27)) for t in triples)
    g = PcpGame(4, 3, triples, pi, R)
    assert validate(g) == []
    w = pcp_value(g).value
    gp = oracularize_pcp(g)
    assert validate(gp) == []
    assert gp.a1_count == 27 and gp.a2_count == 3
    cw = classical_value(gp).value
    assert w <= cw <= 1 - (1 - w) / 3
    proof = pcp_value(g).witness
    det = honest_strategy_from_proof(proof, gp)
    assert eval_two_prover(gp, det) >= w

    gpd = oracularize_pcp_dummy(g)
    assert validate(gpd) == []
    det_d = honest_strategy_from_proof(proof, gpd)
    assert eval_two_prover(gpd, det_d) >= w

"""Commuting-operator rounding: averaged measurements, distance tables,
the rounded proof distribution, and the claim suite (1e-7 tolerance)."""

import random
from fractions import Fraction

import numpy as np
import pytest

from provergames import quantum
from provergames.games import eval_two_prover
from provergames.indexing import decode_tuple, encode_tuple
from provergames.rounding import (
    COM_SOUNDNESS_CONSTANT,
    aggregate_distance_bound,
    com_decompose,
    round_com,
    verify_claim_selection,
    verify_com_claims,
    verify_lemma_distance,
)
from provergames.sampling import random_pcp_game
from provergames.transforms import (
    OneInThreeFormula,
    honest_strategy_from_proof,
    oracularize_pcp_dummy,
    pcp_from_1in3,
)
from provergames.lp import VerificationError
from provergames.values import entangled_lower_bound, pcp_value
from oracles import naive_claim_selection_lhs, naive_com_tables, naive_sequential_masses


def _contradictory_game():
    return pcp_from_1in3(OneInThreeFormula(
        3, (((0, True), (1, True), (2, True)),
            ((0, False), (1, False), (2, False)))))


def _random_symmetrized(rng_np, g, gp, d=2):
    s = quantum.random_strategy(rng_np, gp, d, d)
    return quantum.symmetrize_second_prover(s, gp)


def test_honest_strategy_zero_distances_and_point_mass():
    g = _contradictory_game()
    gp = oracularize_pcp_dummy(g)
    proof = pcp_value(g).witness
    det = honest_strategy_from_proof(proof, gp)
    s = quantum.deterministic_strategy(det, 1, 1, gp.a1_count, gp.a2_count)
    tables = com_decompose(g, gp, s)
    assert tables.eps_cons == pytest.approx(0.0, abs=1e-12)
    assert max(tables.d1) <= 1e-7
    assert max(max(r) for r in tables.d2) <= 1e-7
    assert tables.d3.max() <= 1e-7
    assert max(max(r) for r in tables.d4) <= 1e-7
    rounded = round_com(tables)
    relabeled = tuple(proof[tables.positions[i]] for i in range(3))
    peak = encode_tuple(relabeled, 2)
    assert rounded.dist.theta[peak] == pytest.approx(1.0, abs=1e-7)
    assert abs(rounded.deficit) <= 1e-7
    report = verify_com_claims(g, tables, rounded)
    assert report.ok


def test_eps_agrees_with_cross_evaluation():
    rng_np = np.random.default_rng(7)
    rng = random.Random(7)
    for _ in range(6):
        g = random_pcp_game(rng, positions=4)
        gp = oracularize_pcp_dummy(g)
        s = _random_symmetrized(rng_np, g, gp)
        tables = com_decompose(g, gp, s)
        table = quantum.to_bipartite_strategy(s, gp.to_float())
        assert tables.eps == pytest.approx(
            1 - eval_two_prover(gp.to_float(), table), abs=1e-9)
        assert 0 <= tables.eps_cons <= 1 + 1e-12
        assert tables.eps >= tables.eps_cons - 1e-12
        assert tables.eps >= tables.eps_sim - 1e-12


def test_distance_values_in_unit_interval():
    rng_np = np.random.default_rng(13)
    rng = random.Random(13)
    g = random_pcp_game(rng, positions=4)
    gp = oracularize_pcp_dummy(g)
    s = _random_symmetrized(rng_np, g, gp)
    tables = com_decompose(g, gp, s)
    for v in tables.d1:
        assert 0 <= v <= 1
    for row in tables.d2:
        for v in row:
            assert 0 <= v <= 1
    for v in tables.d3.ravel():
        assert 0 <= v <= 1
    for row in tables.d4:
        for v in row:
            assert 0 <= v <= 1
    # d4 is symmetric and zero on the diagonal
    # the diagonal is 0 up to float rounding
    qn = tables.num_positions
    for q1 in range(qn):
        assert tables.d4[q1][q1] <= 1e-12
        for q2 in range(qn):
            assert tables.d4[q1][q2] == pytest.approx(tables.d4[q2][q1], abs=1e-9)


def test_relabeling_is_descending_and_value_preserving():
    rng_np = np.random.default_rng(17)
    rng = random.Random(17)
    g = random_pcp_game(rng, positions=5)
    gp = oracularize_pcp_dummy(g)
    s = _random_symmetrized(rng_np, g, gp)
    tables = com_decompose(g, gp, s)
    m = tables.marginal
    assert all(m[i] >= m[i + 1] - 1e-15 for i in range(len(m) - 1))
    assert float(pcp_value(g).value) == pytest.approx(
        pcp_value(tables.game_sorted).value, abs=1e-12)


def test_round_com_mass_sums_to_one():
    rng_np = np.random.default_rng(19)
    rng = random.Random(19)
    for _ in range(4):
        g = random_pcp_game(rng, positions=4)
        gp = oracularize_pcp_dummy(g)
        s = _random_symmetrized(rng_np, g, gp)
        tables = com_decompose(g, gp, s)
        rounded = round_com(tables)
        assert abs(rounded.deficit) <= 1e-7
        assert sum(rounded.dist.theta) == pytest.approx(1.0, abs=1e-12)


def test_identity_proportional_roots_round_to_uniform():
    # X_q^a proportional to I/sqrt(A) makes every proof mass equal, so the
    # rounded distribution is uniform; drive round_com with synthetic tables
    # (identity-proportional POVMs are not projective, so they cannot come
    # out of com_decompose itself)
    import dataclasses

    rng_np = np.random.default_rng(3)
    rng = random.Random(3)
    g = _contradictory_game()
    gp = oracularize_pcp_dummy(g)
    s = _random_symmetrized(rng_np, g, gp)
    tables = com_decompose(g, gp, s)
    d1 = tables.strategy.d1
    eye = np.eye(d1, dtype=complex)
    flat = np.broadcast_to(eye / np.sqrt(2.0), (tables.num_positions, 2, d1, d1))
    uniform_tables = dataclasses.replace(tables, X=flat)
    rounded = round_com(uniform_tables)
    assert all(v == pytest.approx(1.0 / len(rounded.dist.theta), abs=1e-12)
               for v in rounded.dist.theta)


def test_com_claims_on_random_strategies():
    rng_np = np.random.default_rng(23)
    rng = random.Random(23)
    for _ in range(8):
        g = random_pcp_game(rng, positions=rng.choice((3, 4)))
        gp = oracularize_pcp_dummy(g)
        s = _random_symmetrized(rng_np, g, gp)
        tables = com_decompose(g, gp, s)
        rounded = round_com(tables)
        report = verify_com_claims(g, tables, rounded)
        assert report.ok, report.failures()[:4]


def test_com_claims_on_seesaw_strategy():
    g = _contradictory_game()
    gp = oracularize_pcp_dummy(g)
    res = entangled_lower_bound(gp.to_float(), dims=(2, 2), restarts=4,
                                max_iters=40, seed=29)
    s = quantum.symmetrize_second_prover(res.witness, gp)
    tables = com_decompose(g, gp, s)
    rounded = round_com(tables)
    report = verify_com_claims(g, tables, rounded)
    assert report.ok, report.failures()[:4]
    w = float(pcp_value(g).value)
    bound = COM_SOUNDNESS_CONSTANT * (1 - w) ** 2 / tables.num_positions**2
    assert tables.eps >= bound - 1e-7


def test_rejects_unsymmetrized_strategy():
    rng_np = np.random.default_rng(31)
    g = _contradictory_game()
    gp = oracularize_pcp_dummy(g)
    s = quantum.random_strategy(rng_np, gp, 2, 2)
    with pytest.raises(ValueError):
        com_decompose(g, gp, s)


def test_rejects_nonprojective_strategy():
    g = _contradictory_game()
    gp = oracularize_pcp_dummy(g)
    d = 2
    eye = np.eye(d, dtype=complex)
    m = np.broadcast_to(eye / 8, (gp.q1_count, 8, d, d))
    n = np.broadcast_to(eye / 4, (gp.q2_count, 4, d, d))
    state = np.zeros(d * d, dtype=complex)
    state[0] = 1.0
    s = quantum.QuantumStrategy(d, d, state, m, n)
    with pytest.raises(ValueError):
        com_decompose(g, gp, s)


def test_lemma_distance_equal_povms():
    rng = np.random.default_rng(37)
    m = quantum.random_pvm(rng, 4, 2)
    phi = quantum.random_state(rng, 4)
    d2, gap, twop = verify_lemma_distance(m, m, phi)
    assert d2 == pytest.approx(0.0, abs=1e-12)
    assert gap == pytest.approx(0.0, abs=1e-12)
    assert twop >= -1e-12


def test_lemma_distance_certain_disagreement():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    m = quantum.Povm((p0, p1), projective=True)
    n = quantum.Povm((p1, p0), projective=True)
    phi = np.array([1.0, 0.0], dtype=complex)
    d2, gap, twop = verify_lemma_distance(m, n, phi)
    assert twop == pytest.approx(2.0)
    assert d2 <= gap + 1e-12 <= twop + 1e-8


def test_lemma_distance_random_commuting_pairs():
    rng = np.random.default_rng(41)
    for _ in range(25):
        da, db = 2, 3
        mp = quantum.random_pvm(rng, da, 2)
        np_ = quantum.random_pvm(rng, db, 2)
        m = quantum.Povm(tuple(np.kron(e, np.eye(db)) for e in mp.elements), True)
        n = quantum.Povm(tuple(np.kron(np.eye(da), e) for e in np_.elements), True)
        phi = quantum.random_state(rng, da * db)
        d2, gap, twop = verify_lemma_distance(m, n, phi)
        assert d2 <= gap + 1e-8
        assert gap <= twop + 1e-8


def test_lemma_distance_rejects_noncommuting():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    m = quantum.Povm(((eye + sz) / 2, (eye - sz) / 2), projective=True)
    n = quantum.Povm(((eye + sx) / 2, (eye - sx) / 2), projective=True)
    with pytest.raises(ValueError):
        verify_lemma_distance(m, n, np.array([1, 0], dtype=complex))


def test_claim_selection_no_move_is_zero():
    rng_np = np.random.default_rng(43)
    rng = random.Random(43)
    g = random_pcp_game(rng, positions=4)
    gp = oracularize_pcp_dummy(g)
    s = _random_symmetrized(rng_np, g, gp)
    tables = com_decompose(g, gp, s)
    lhs, rhs = verify_claim_selection(tables, [0, 1, 2], 1)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == 0


def test_claim_selection_honest_operators_commute():
    g = _contradictory_game()
    gp = oracularize_pcp_dummy(g)
    det = honest_strategy_from_proof(pcp_value(g).witness, gp)
    s = quantum.deterministic_strategy(det, 1, 1, gp.a1_count, gp.a2_count)
    tables = com_decompose(g, gp, s)
    for i in (1, 2, 3):
        lhs, _ = verify_claim_selection(tables, [2, 0, 1], i)
        assert lhs <= 1e-9


def test_claim_selection_random_all_indices():
    rng_np = np.random.default_rng(47)
    rng = random.Random(47)
    for _ in range(5):
        g = random_pcp_game(rng, positions=4)
        gp = oracularize_pcp_dummy(g)
        s = _random_symmetrized(rng_np, g, gp)
        tables = com_decompose(g, gp, s)
        qn = tables.num_positions
        t_list = [rng.randrange(qn) for _ in range(3)]
        for i in (1, 2, 3):
            lhs, rhs = verify_claim_selection(tables, t_list, i)
            assert lhs <= rhs + 1e-7


def test_aggregate_bound_structure():
    rng_np = np.random.default_rng(53)
    rng = random.Random(53)
    g = random_pcp_game(rng, positions=3)
    gp = oracularize_pcp_dummy(g)
    s = _random_symmetrized(rng_np, g, gp)
    tables = com_decompose(g, gp, s)
    t = tables.game_sorted.support()[0]
    manual = 0.0
    for c in range(3):
        q = t[c]
        manual += 2 * sum(tables.d1[qp] for qp in range(q))
        manual += sum(tables.d4[q][qp] for qp in range(q))
        manual += tables.d1[q] + tables.d3[0, c]
    assert aggregate_distance_bound(tables)[0] == pytest.approx(manual)


def test_averaged_measurements_are_povms():
    rng_np = np.random.default_rng(59)
    rng = random.Random(59)
    g = random_pcp_game(rng, positions=4)
    gp = oracularize_pcp_dummy(g)
    s = _random_symmetrized(rng_np, g, gp)
    tables = com_decompose(g, gp, s)
    for q in range(tables.num_positions):
        assert quantum.validate_povm(quantum.Povm(tables.Mbar[q])) == []
        assert quantum.validate_povm(quantum.Povm(tables.Nbar[q])) == []
        # X and Y square back to the averaged elements
        for a in range(tables.alphabet):
            assert np.max(np.abs(tables.X[q][a] @ tables.X[q][a]
                                 - tables.Mbar[q][a])) <= 1e-8
            assert np.max(np.abs(tables.Y[q][a] @ tables.Y[q][a]
                                 - tables.Nbar[q][a])) <= 1e-8


def test_eps_cons_matches_direct_summation_oracle():
    # recompute the consistency-test pass probability from raw joint
    # distributions of the strategy, without the averaged measurements
    rng_np = np.random.default_rng(61)
    rng = random.Random(61)
    g = random_pcp_game(rng, positions=4)
    gp = oracularize_pcp_dummy(g)
    s = _random_symmetrized(rng_np, g, gp)
    tables = com_decompose(g, gp, s)

    from provergames.transforms import pcp_question_marginal

    marg = {k: float(v) for k, v in pcp_question_marginal(g).items()}
    pairs = [tuple(p) for p in gp.meta["pairs"]]
    pair_idx = {p: j for j, p in enumerate(pairs)}
    triples = [tuple(t) for t in gp.meta["triples"]]
    pi_d = {t: float(v) for t, v in zip(map(tuple, g.triples.tolist()), g.pi) if v}
    a = gp.meta["alphabet"]

    p_cons = 0.0
    for ti, t in enumerate(triples):
        for i in range(3):
            q = t[i]
            for qt, wq in marg.items():
                pair = (q, qt) if q <= qt else (qt, q)
                coord = 0 if q <= qt else 1
                dist = quantum.joint_distribution(s, ti, pair_idx[pair])
                agree = 0.0
                for a1 in range(a**3):
                    b = decode_tuple(a1, a, 3)
                    for a2 in range(a * a):
                        c = decode_tuple(a2, a, 2)
                        if c[coord] == b[i]:
                            agree += dist[a1][a2]
                p_cons += pi_d[t] / 3.0 * wq * agree
    assert tables.eps_cons == pytest.approx(1.0 - p_cons, abs=1e-9)


def test_five_position_game_claims():
    rng_np = np.random.default_rng(67)
    rng = random.Random(67)
    g = random_pcp_game(rng, positions=5)
    gp = oracularize_pcp_dummy(g)
    s = _random_symmetrized(rng_np, g, gp)
    tables = com_decompose(g, gp, s)
    rounded = round_com(tables)
    report = verify_com_claims(g, tables, rounded)
    assert report.ok, report.failures()[:4]


def test_dimension_three_strategies():
    rng_np = np.random.default_rng(71)
    rng = random.Random(71)
    g = random_pcp_game(rng, positions=3)
    gp = oracularize_pcp_dummy(g)
    s = _random_symmetrized(rng_np, g, gp, d=3)
    tables = com_decompose(g, gp, s)
    rounded = round_com(tables)
    report = verify_com_claims(g, tables, rounded)
    assert report.ok, report.failures()[:4]
    for i in (1, 2, 3):
        lhs, rhs = verify_claim_selection(tables, [0, 1, 2], i)
        assert lhs <= rhs + 1e-7


def test_ternary_alphabet_com_pipeline():
    from provergames.games import PcpGame

    rng = random.Random(41)
    rng_np = np.random.default_rng(41)
    triples = ((0, 1, 2),)
    pi = (Fraction(1),)
    R = (tuple(Fraction(1) if rng.random() < 0.15 else Fraction(0)
               for _ in range(27)),)
    g = PcpGame(3, 3, triples, pi, R)
    gp = oracularize_pcp_dummy(g)
    s = quantum.random_strategy(rng_np, gp, 2, 2)
    s = quantum.symmetrize_second_prover(s, gp)
    tables = com_decompose(g, gp, s)
    rounded = round_com(tables)
    assert abs(rounded.deficit) <= 1e-7
    report = verify_com_claims(g, tables, rounded)
    assert report.ok, report.failures()[:4]


@pytest.mark.parametrize("seed,positions", [(101, 3), (102, 4), (103, 4), (104, 5),
                                            (105, 3), (106, 4)])
def test_batched_tables_match_per_element_references(seed, positions):
    rng = random.Random(seed)
    g = random_pcp_game(rng, positions=positions)
    gp = oracularize_pcp_dummy(g)
    s = _random_symmetrized(np.random.default_rng(seed), g, gp)
    tables = com_decompose(g, gp, s)
    ref = naive_com_tables(tables)
    for name in ("eps", "eps_cons", "eps_sim"):
        assert abs(getattr(tables, name) - ref[name]) <= 1e-12
    # distances near 0 carry sqrt-amplified rounding, so compare squares
    for name in ("d1", "d2", "d3", "d4"):
        assert np.max(np.abs(getattr(tables, name) ** 2 - np.array(ref[name]) ** 2)) <= 1e-12

    psi = s.state_matrix()
    qn = tables.num_positions
    masses = naive_sequential_masses(tables.X, psi, range(qn))
    assert np.max(np.abs(round_com(tables).raw - masses)) <= 1e-12
    for t_list in ([0, 1, 2], [qn - 1, qn - 2], [rng.randrange(qn) for _ in range(4)]):
        for i in range(1, len(t_list) + 1):
            lhs, _ = verify_claim_selection(tables, t_list, i)
            assert abs(lhs - naive_claim_selection_lhs(tables.X, psi, t_list, i)) <= 1e-12


def test_claim_selection_bound_with_a_positive_left_side():
    # positions 3 and 2 of this instance do not commute, so acting with the
    # second one first moves the distribution; a bound built from zeroed d1
    # and d4 tables must then fail
    import dataclasses

    g = random_pcp_game(random.Random(48), positions=4)
    gp = oracularize_pcp_dummy(g)
    tables = com_decompose(g, gp, _random_symmetrized(np.random.default_rng(48), g, gp))
    lhs, rhs = verify_claim_selection(tables, [3, 2], 2)
    assert lhs == pytest.approx(0.1347, abs=1e-4)
    assert lhs <= rhs + 1e-7
    zeroed = dataclasses.replace(tables, d1=np.zeros_like(tables.d1),
                                 d4=np.zeros_like(tables.d4))
    with pytest.raises(VerificationError, match="over the bound 0.0"):
        verify_claim_selection(zeroed, [3, 2], 2)

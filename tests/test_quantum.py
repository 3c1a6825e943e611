"""Quantum strategies: POVM validity, induced tables, preprocessing."""

import random

import numpy as np
import pytest

from provergames.catalog import tiny_1in3
from provergames.games import eval_two_prover, is_no_signaling
from provergames.indexing import encode_tuple
from provergames.quantum import (
    Povm,
    QuantumStrategy,
    catalog_magic_square,
    joint_distribution,
    psd_sqrt,
    pure_state_trace_distance,
    random_pvm,
    random_state,
    random_strategy,
    symmetrize_second_prover,
    to_bipartite_strategy,
    validate_povm,
    validate_strategy,
)
from provergames.sampling import random_two_prover_game
from provergames.transforms import oracularize_pcp_dummy
from oracles import dense_joint_probability


def test_povm_validation_flags_bad_cases():
    eye = np.eye(2, dtype=complex)
    assert validate_povm(Povm((eye / 2, eye / 2))) == []
    report = validate_povm(Povm((eye, eye)))
    assert any("identity" in r for r in report)
    not_psd = Povm((np.diag([1.5, -0.5]).astype(complex),
                    np.eye(2) - np.diag([1.5, -0.5])))
    assert any("eigenvalue" in r for r in validate_povm(not_psd))
    not_proj = Povm((eye / 2, eye / 2), projective=True)
    assert any("projective" in r for r in validate_povm(not_proj))


def test_psd_sqrt_examples():
    eye = np.eye(3, dtype=complex)
    assert np.allclose(psd_sqrt(eye), eye)
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = g @ g.conj().T
        r = psd_sqrt(a)
        assert np.max(np.abs(r @ r - a)) <= 1e-8 * max(1.0, np.max(np.abs(a)))
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_sqrt_and_trace_distance_take_stacks():
    rng = np.random.default_rng(1)
    g = rng.standard_normal((3, 2, 4, 4)) + 1j * rng.standard_normal((3, 2, 4, 4))
    stack = g @ g.conj().swapaxes(-1, -2)
    roots = psd_sqrt(stack)
    for idx in np.ndindex(3, 2):
        assert np.max(np.abs(roots[idx] - psd_sqrt(stack[idx]))) <= 1e-12
    with pytest.raises(ValueError, match="eigenvalue"):
        psd_sqrt(np.stack([np.eye(2), np.diag([1.0, -0.5])]))
    with pytest.raises(ValueError, match="Hermitian"):
        psd_sqrt(np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]))

    phi = np.array([random_state(rng, 4) for _ in range(5)])
    psi = np.array([random_state(rng, 4) for _ in range(5)])
    dist = pure_state_trace_distance(phi, psi)
    assert dist.shape == (5,)
    for k in range(5):
        assert dist[k] == pytest.approx(pure_state_trace_distance(phi[k], psi[k]), abs=1e-15)
    psi[3] *= 2
    with pytest.raises(ValueError, match="norm"):
        pure_state_trace_distance(phi, psi)


def test_strategy_stacks_are_read_only_and_povms_are_views():
    from provergames.catalog import chsh

    s = random_strategy(np.random.default_rng(3), chsh().to_float(), 2, 2)
    assert s.M.shape == s.N.shape == (2, 2, 2, 2) and s.projective
    povm = s.povms2[1]
    assert np.shares_memory(povm.elements, s.N) and povm.projective
    assert s.povms1 is s.povms1 and s.povms2 is s.povms2  # built once
    for arr in (s.M, s.N, povm.elements):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0


def test_pure_state_trace_distance():
    e0 = np.array([1, 0], dtype=complex)
    e1 = np.array([0, 1], dtype=complex)
    assert pure_state_trace_distance(e0, e0) == 0
    assert pure_state_trace_distance(e0, e1) == pytest.approx(1.0)
    plus = (e0 + e1) / np.sqrt(2)
    assert pure_state_trace_distance(e0, plus) == pytest.approx(1 / np.sqrt(2))
    with pytest.raises(ValueError):
        pure_state_trace_distance(2 * e0, e1)


def test_trace_distance_vanishes_on_the_same_state_up_to_phase():
    # 1 - |<phi|psi>|^2 would leave rounding of order 1e-8 under the root
    rng = np.random.default_rng(2)
    for _ in range(1000):
        v = rng.normal(size=32) + 1j * rng.normal(size=32)
        v /= np.linalg.norm(v)
        assert pure_state_trace_distance(v, v) <= 1e-15
        rotated = np.exp(1j * rng.uniform(0, 2 * np.pi)) * v
        assert pure_state_trace_distance(v, rotated) <= 1e-15
        assert pure_state_trace_distance(rotated, v) <= 1e-15


def test_joint_distribution_product_state():
    basis = Povm((np.diag([1.0, 0.0]).astype(complex),
                  np.diag([0.0, 1.0]).astype(complex)), projective=True)
    state = np.array([1, 0, 0, 0], dtype=complex)  # |0>|0>
    s = QuantumStrategy(2, 2, state, [basis.elements], [basis.elements], True)
    dist = joint_distribution(s, 0, 0)
    assert dist[0][0] == pytest.approx(1.0)


def test_joint_distribution_epr_computational():
    basis = Povm((np.diag([1.0, 0.0]).astype(complex),
                  np.diag([0.0, 1.0]).astype(complex)), projective=True)
    epr = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    s = QuantumStrategy(2, 2, epr, [basis.elements], [basis.elements], True)
    dist = joint_distribution(s, 0, 0)
    assert dist[0][0] == pytest.approx(0.5)
    assert dist[1][1] == pytest.approx(0.5)
    assert dist[0][1] == pytest.approx(0.0, abs=1e-12)


def test_joint_distribution_matches_dense_kron_oracle():
    game, strategy = catalog_magic_square()
    for q1 in range(6):
        for q2 in range(9):
            dist = joint_distribution(strategy, q1, q2)
            for a1 in range(8):
                for a2 in range(2):
                    oracle = dense_joint_probability(
                        strategy.state,
                        strategy.povms1[q1].elements[a1],
                        strategy.povms2[q2].elements[a2])
                    assert dist[a1][a2] == pytest.approx(max(oracle, 0.0),
                                                         abs=1e-10)


def test_to_bipartite_strategy_matches_dense_kron_oracle():
    # unequal local dimensions catch a transposed state matrix
    game = random_two_prover_game(random.Random(5), 3, 2, 3, 2).to_float()
    s = random_strategy(np.random.default_rng(5), game, 2, 3)
    table = to_bipartite_strategy(s, game)
    for q1 in range(3):
        for q2 in range(2):
            block = joint_distribution(s, q1, q2)
            for a1 in range(3):
                for a2 in range(2):
                    oracle = dense_joint_probability(
                        s.state, s.povms1[q1].elements[a1], s.povms2[q2].elements[a2])
                    assert block[a1][a2] == pytest.approx(oracle, abs=1e-12)
                    assert table.theta[q1][q2][a1][a2] == pytest.approx(oracle, abs=1e-12)


def test_joint_distribution_rejects_complex_and_unnormalized_tables():
    eye = np.eye(2, dtype=complex)
    plus_zero = np.kron(np.array([1, 1]) / np.sqrt(2), [1, 0]).astype(complex)
    skew = np.array([[1, 1j], [0, 0]])
    s = QuantumStrategy(2, 2, plus_zero, [(skew, eye - skew)], [(eye, 0 * eye)])
    with pytest.raises(ValueError, match="imaginary part"):
        joint_distribution(s, 0, 0)
    short = QuantumStrategy(2, 2, plus_zero, [(eye / 2, eye * 0.3)], [(eye, 0 * eye)])
    with pytest.raises(ValueError, match="sums to"):
        joint_distribution(short, 0, 0)


def test_magic_square_strategy_is_perfect_and_valid():
    game, strategy = catalog_magic_square()
    assert validate_strategy(strategy) == []
    table = to_bipartite_strategy(strategy, game.to_float())
    assert eval_two_prover(game.to_float(), table) == pytest.approx(1.0, abs=1e-9)
    ok, violation = is_no_signaling(table, 1e-9)
    assert ok, violation


def test_random_strategies_are_no_signaling():
    rng = np.random.default_rng(5)
    g = tiny_1in3()
    gp = oracularize_pcp_dummy(g).to_float()
    for _ in range(5):
        s = random_strategy(rng, gp, 2, 2)
        assert validate_strategy(s) == []
        table = to_bipartite_strategy(s, gp)
        ok, violation = is_no_signaling(table, 1e-8)
        assert ok, violation


def test_symmetrize_preserves_value_and_diagonalizes():
    g = tiny_1in3()
    gp = oracularize_pcp_dummy(g)
    gpf = gp.to_float()
    rng = np.random.default_rng(11)
    pairs = [tuple(p) for p in gp.meta["pairs"]]
    for _ in range(4):
        s = random_strategy(rng, gpf, 2, 2)
        before = eval_two_prover(gpf, to_bipartite_strategy(s, gpf))
        sym = symmetrize_second_prover(s, gpf)
        assert validate_strategy(sym) == []
        after = eval_two_prover(gpf, to_bipartite_strategy(sym, gpf))
        assert after == pytest.approx(before, abs=1e-9)
        for pair, povm in zip(pairs, sym.povms2):
            if pair[0] == pair[1]:
                for aidx in range(4):
                    b1, b2 = divmod(aidx, 2)
                    if b1 != b2:
                        assert np.max(np.abs(povm.elements[aidx])) <= 1e-9


def test_symmetrize_coin_flip_on_deterministic_unequal_answers():
    # second prover answers (0, 1) deterministically on the equal pair; the
    # symmetrized prover answers (0,0) or (1,1) with probability 1/2 each
    g = tiny_1in3()
    gp = oracularize_pcp_dummy(g).to_float()
    pairs = [tuple(p) for p in gp.meta["pairs"]]
    d = 2
    n = np.zeros((len(pairs), 4, d, d), dtype=complex)
    n[:, encode_tuple((0, 1), 2)] = np.eye(d, dtype=complex)
    m = [random_pvm(np.random.default_rng(1), d, 8).elements
         for _ in range(gp.q1_count)]
    state = random_state(np.random.default_rng(2), d * d)
    s = QuantumStrategy(d, d, state, m, n, projective=True)
    sym = symmetrize_second_prover(s, gp)
    qq = next(j for j, p in enumerate(pairs) if p[0] == p[1])
    dist = joint_distribution(sym, 0, qq)
    marg2 = [sum(dist[a1][a2] for a1 in range(8)) for a2 in range(4)]
    assert marg2[encode_tuple((0, 0), 2)] == pytest.approx(0.5, abs=1e-9)
    assert marg2[encode_tuple((1, 1), 2)] == pytest.approx(0.5, abs=1e-9)


def test_symmetrize_equal_pair_marginal_is_average():
    g = tiny_1in3()
    gp = oracularize_pcp_dummy(g).to_float()
    pairs = [tuple(p) for p in gp.meta["pairs"]]
    rng = np.random.default_rng(19)
    s = random_strategy(rng, gp, 2, 2)
    sym = symmetrize_second_prover(s, gp)
    qq = next(j for j, p in enumerate(pairs) if p[0] == p[1])
    old = joint_distribution(s, 0, qq)
    new = joint_distribution(sym, 0, qq)
    for c in range(2):
        # coordinate-1 marginal of the symmetrized strategy at value c
        got = sum(new[a1][encode_tuple((c, c), 2)] for a1 in range(8))
        m1 = sum(old[a1][encode_tuple((c, b), 2)] for a1 in range(8) for b in range(2))
        m2 = sum(old[a1][encode_tuple((b, c), 2)] for a1 in range(8) for b in range(2))
        assert got == pytest.approx((m1 + m2) / 2, abs=1e-9)


def test_symmetrize_requires_pair_metadata():
    from provergames.catalog import chsh

    s = random_strategy(np.random.default_rng(0), chsh().to_float(), 2, 2)
    with pytest.raises(Exception):
        symmetrize_second_prover(s, chsh().to_float())


def test_strategy_validation_catches_bad_norm():
    basis = Povm((np.diag([1.0, 0.0]).astype(complex),
                  np.diag([0.0, 1.0]).astype(complex)), projective=True)
    s = QuantumStrategy(2, 2, np.array([1, 0, 0, 1], dtype=complex),
                        [basis.elements], [basis.elements], True)
    assert any("norm" in r for r in validate_strategy(s))

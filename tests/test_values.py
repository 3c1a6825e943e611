"""Value solvers against independent enumeration oracles."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provergames import quantum, scalars, values
from provergames.catalog import chsh, magic_square_game
from provergames.games import (
    MultiRoundGame,
    TwoProverGame,
    eval_multi_round,
    eval_pcp,
    eval_two_prover,
    is_no_signaling,
    PcpProofDistribution,
    SizeGuardError,
)
from provergames.indexing import iter_tuples
from provergames.sampling import (
    random_multi_round_game,
    random_pcp_game,
    random_two_prover_game,
)
from provergames.transforms import OneInThreeFormula, oracularize_pcp_dummy, pcp_from_1in3
from provergames.values import (
    classical_value,
    entangled_lower_bound,
    multi_round_value,
    no_signaling_value,
    pcp_value,
)
from oracles import (
    _sequential_resplit_pvms,
    best_1in3_fraction,
    brute_classical,
    brute_multi_round,
    brute_pcp,
    chsh_optimal_qubit_strategy,
    combinations_seesaw,
    naive_improve_pvm,
    round_robin_layers,
    sequential_seesaw,
)


def test_classical_chsh():
    res = classical_value(chsh())
    assert res.value == Fraction(3, 4)
    assert res.exact
    assert eval_two_prover(chsh(), res.witness) == res.value
    assert brute_classical(chsh()) == Fraction(3, 4)


def test_classical_magic_square():
    game = magic_square_game()
    res = classical_value(game)
    assert res.value == Fraction(17, 18)
    assert eval_two_prover(game, res.witness) == res.value
    # independent oracle: enumerate the first prover's parity-respecting
    # tables and best-respond per cell for the second prover
    best = Fraction(0)
    valid = [[a for a in range(8)
              if bin(a).count("1") % 2 == (0 if c < 3 else 1)] for c in range(6)]
    for f1 in itertools.product(*valid):
        total = Fraction(0)
        for v in range(9):
            scores = [sum(game.pi[c][v] * game.R[c][v][f1[c]][b]
                          for c in range(6)) for b in range(2)]
            total += max(scores)
        best = max(best, total)
    assert best == Fraction(17, 18)


def test_classical_reject_everything():
    g = chsh()
    R = [[[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    assert classical_value(TwoProverGame(2, 2, 2, 2, g.pi, R)).value == 0


def test_classical_matches_brute_force_on_random_games():
    rng = random.Random(23)
    for _ in range(15):
        g = random_two_prover_game(rng, 2, 2, 2, 2)
        assert classical_value(g).value == brute_classical(g)


def test_multi_round_echo_and_reject_all():
    q = a = 2
    r = 2
    pi = [Fraction(1, 4)] * 4
    R_echo = [Fraction(1) if at == qt else Fraction(0)
              for qt in iter_tuples(q, r) for at in iter_tuples(a, r)]
    echo = MultiRoundGame(q, a, r, pi, R_echo)
    assert multi_round_value(echo).value == 1
    dead = MultiRoundGame(q, a, r, pi, [Fraction(0)] * 16)
    assert multi_round_value(dead).value == 0


def test_multi_round_matches_enumeration_oracle():
    rng = random.Random(31)
    for _ in range(12):
        g = random_multi_round_game(rng)
        res = multi_round_value(g)
        assert res.value == brute_multi_round(g)
        assert eval_multi_round(g, res.witness) == res.value


def test_pcp_value_examples():
    sat = pcp_from_1in3(OneInThreeFormula(
        3, (((0, True), (1, True), (2, True)),)))
    assert pcp_value(sat).value == 1
    contra = pcp_from_1in3(OneInThreeFormula(
        3, (((0, True), (1, True), (2, True)),
            ((0, False), (1, False), (2, False)))))
    res = pcp_value(contra)
    assert res.value == best_1in3_fraction(OneInThreeFormula(
        3, (((0, True), (1, True), (2, True)),
            ((0, False), (1, False), (2, False))))) == Fraction(1, 2)
    witness = PcpProofDistribution.point_mass(res.witness, 2)
    assert eval_pcp(contra, witness) == res.value


def test_pcp_value_matches_brute():
    rng = random.Random(41)
    for _ in range(10):
        g = random_pcp_game(rng)
        assert pcp_value(g).value == brute_pcp(g)


def test_no_signaling_chsh_is_one():
    res = no_signaling_value(chsh())
    assert res.value == 1
    assert res.exact
    ok, violation = is_no_signaling(res.witness)
    assert ok and violation == 0
    assert eval_two_prover(chsh(), res.witness) == 1


def test_no_signaling_reject_everything():
    g = chsh()
    R = [[[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)] for _ in range(2)]
    assert no_signaling_value(TwoProverGame(2, 2, 2, 2, g.pi, R)).value == 0


def test_no_signaling_dominates_classical():
    rng = random.Random(47)
    for _ in range(10):
        g = random_two_prover_game(rng, 2, 2, 2, 2)
        assert classical_value(g).value <= no_signaling_value(g).value


def test_no_signaling_requires_rational_mode():
    with pytest.raises(scalars.ModeError):
        no_signaling_value(chsh().to_float())


def test_no_signaling_witness_exactly_no_signaling_off_support():
    rng = random.Random(53)
    g = random_two_prover_game(rng, 3, 3, 2, 2)  # random support, holes likely
    res = no_signaling_value(g)
    ok, violation = is_no_signaling(res.witness)
    assert ok and violation == 0
    assert eval_two_prover(g, res.witness) == res.value


def test_seesaw_answer_independent_game_reaches_classical():
    # accept iff q1 == q2, independently of the answers
    pi = [[Fraction(1, 4)] * 2] * 2
    R = [[[[Fraction(1) if q1 == q2 else Fraction(0)
            for _ in range(2)] for _ in range(2)]
          for q2 in range(2)] for q1 in range(2)]
    g = TwoProverGame(2, 2, 2, 2, pi, R)
    res = entangled_lower_bound(g.to_float(), dims=(2, 2), restarts=2,
                                max_iters=20, seed=0)
    assert res.value == pytest.approx(float(classical_value(g).value), abs=1e-9)


def test_seesaw_chsh_reaches_tsirelson():
    oracle = chsh_optimal_qubit_strategy()
    table = quantum.to_bipartite_strategy(oracle, chsh().to_float())
    target = eval_two_prover(chsh().to_float(), table)
    assert target == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-12)

    res = entangled_lower_bound(chsh().to_float(), dims=(2, 2), restarts=10,
                                max_iters=100, seed=7)
    assert res.value >= 0.853
    assert abs(res.value - target) <= 5e-4


def test_seesaw_magic_square_reaches_one():
    g = magic_square_game().to_float()
    for seed in (3, 38, 55):
        res = entangled_lower_bound(g, dims=(4, 4), restarts=10, max_iters=40,
                                    seed=seed)
        assert res.value >= 0.999, seed


def test_seesaw_monotone_and_witness_consistent():
    rng = random.Random(61)
    g = random_two_prover_game(rng, 3, 3, 2, 2).to_float()
    res = entangled_lower_bound(g, dims=(2, 2), restarts=3, max_iters=50, seed=5)
    trace = res.extras["objective_trace"]
    assert all(b >= a - 1e-10 for a, b in zip(trace, trace[1:]))
    induced = quantum.to_bipartite_strategy(res.witness, g)
    assert eval_two_prover(g, induced) == pytest.approx(res.value, abs=1e-9)
    ok, violation = is_no_signaling(induced)
    assert ok and violation <= 1e-8


def test_seesaw_classical_seed_floors_the_result():
    rng = random.Random(67)
    for _ in range(5):
        g = random_two_prover_game(rng, 3, 2, 2, 2)
        cres = classical_value(g)
        res = entangled_lower_bound(g.to_float(), dims=(2, 2), restarts=1,
                                    max_iters=10, seed=1,
                                    classical_seed=cres.witness)
        assert res.value >= float(cres.value) - 1e-9


def _random_labelled_pvm(rng, d, outcomes):
    # each basis vector goes to a random outcome: mixed ranks, some zero
    u = quantum.random_unitary(rng, d)
    labels = rng.integers(0, outcomes, size=d)
    return np.array([u[:, labels == a] @ u[:, labels == a].conj().T
                     for a in range(outcomes)])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_batched_resplit_matches_per_question_reference(d):
    rng = np.random.default_rng(83 + d)
    mixed = False
    for outcomes in (2, 3, 4, 5, 8):
        q = 12
        m = np.array([_random_labelled_pvm(rng, d, outcomes) for _ in range(q)])
        g = (rng.standard_normal((q, outcomes, d, d))
             + 1j * rng.standard_normal((q, outcomes, d, d)))
        c = (g + g.conj().swapaxes(-1, -2)) / 2
        ranks = np.rint(np.einsum("qaii->qa", m).real).astype(int)
        pair_ranks = [ranks[:, a] + ranks[:, b]
                      for a, b in itertools.combinations(range(outcomes), 2)]
        # one batch holds rank-0 and several positive ranks for the same pair
        mixed |= any((r == 0).any() and len(set(r[r > 0])) > 1 for r in pair_ranks)

        out = values._resplit_pvms(m, c)
        before = np.einsum("qaij,qaji->q", m, c).real
        after = np.einsum("qaij,qaji->q", out, c).real
        # the layered stack is the pair-by-pair walk, bit for bit
        assert np.array_equal(out, _sequential_resplit_pvms(m, c))
        for k in range(q):
            ref = np.array(naive_improve_pvm(list(m[k]), list(c[k])))
            assert np.max(np.abs(out[k] - ref)) <= 1e-9
            assert quantum.validate_povm(quantum.Povm(tuple(out[k]),
                                                      projective=True)) == []
            assert after[k] >= before[k] - 1e-12
        # the stack read as the questions of three see-saw restarts: each
        # restart's questions re-split alone come out bit for bit the same
        alone = [values._resplit_pvms(mk, ck)
                 for mk, ck in zip(np.split(m, 3), np.split(c, 3))]
        assert np.array_equal(np.concatenate(alone), out)
    assert mixed


@pytest.mark.parametrize("n", range(1, 10))
def test_pair_layers_schedule(n):
    layers = [list(zip(a.tolist(), b.tolist())) for a, b in values._pair_layers(n)]
    scheduled = [pair for layer in layers for pair in layer]
    assert sorted(scheduled) == list(itertools.combinations(range(n), 2))  # each once
    for layer in layers:
        outcomes = [o for pair in layer for o in pair]
        assert len(set(outcomes)) == len(outcomes)  # disjoint pairs
    assert len(layers) == (0 if n == 1 else n - 1 if n % 2 == 0 else n)  # 7 at n = 8
    assert [sorted(layer) for layer in layers] == [sorted(layer) for layer
                                                   in round_robin_layers(n)]


def test_resplit_with_one_outcome_returns_a_copy():
    assert values._pair_layers(1) == ()
    rng = np.random.default_rng(3)
    m = np.array([[np.eye(2, dtype=complex)]] * 3)
    c = rng.standard_normal((3, 1, 2, 2)) + 0j
    out = values._resplit_pvms(m, c)
    assert out is not m and np.array_equal(out, m)


@pytest.mark.parametrize("a1, a2", [(1, 3), (3, 1), (1, 1)])
def test_seesaw_with_one_answer_reaches_classical(a1, a2):
    # one prover always answers 0, so the entangled value is the classical one
    g = random_two_prover_game(random.Random(97 + a1 + 2 * a2), 3, 3, a1, a2)
    res = entangled_lower_bound(g.to_float(), dims=(2, 2), restarts=3,
                                max_iters=30, seed=a2)
    assert res.value == pytest.approx(float(classical_value(g).value), abs=1e-9)
    _assert_same_as_sequential(g.to_float(), dims=(2, 2), restarts=3,
                               max_iters=30, seed=a2)


def _assert_same_as_sequential(game, **kwargs):
    """The see-saw equals the one-restart-at-a-time, pair-by-pair oracle
    bit for bit; returns the iterations each restart ran."""
    res = entangled_lower_bound(game, **kwargs)
    ref = sequential_seesaw(game, **kwargs)
    assert res.extras["objective_trace"] == ref.extras["objective_trace"]
    assert res.extras["restart_values"] == ref.extras["restart_values"]
    assert res.value == ref.value
    for name in ("state", "M", "N"):
        assert np.array_equal(getattr(res.witness, name), getattr(ref.witness, name))
    return ref.extras["restart_iters"]


def test_seesaw_matches_sequential_oracle_on_pcp_dummy():
    g = oracularize_pcp_dummy(random_pcp_game(random.Random(8), positions=4))
    iters = _assert_same_as_sequential(g.to_float(), dims=(2, 2), restarts=3,
                                       max_iters=40, seed=1)
    assert len(set(iters)) == 3  # the restarts stop at different iterations


def test_seesaw_matches_sequential_oracle_on_magic_square():
    g = magic_square_game().to_float()
    assert (g.a1_count, g.a2_count) == (8, 2)
    iters = _assert_same_as_sequential(g, dims=(4, 4), restarts=2, max_iters=6,
                                       seed=3)
    assert iters == [6, 6]  # every restart runs into max_iters


@pytest.mark.parametrize("a1, a2", [(1, 2), (2, 3), (3, 1)])
def test_seesaw_matches_sequential_oracle_from_classical_seed(a1, a2):
    g = random_two_prover_game(random.Random(89 + a1), 3, 3, a1, a2)
    _assert_same_as_sequential(g.to_float(), dims=(2, 2), restarts=2, max_iters=30,
                               seed=a1, classical_seed=classical_value(g).witness)


def test_seesaw_values_against_combinations_reference():
    # the round-robin see-saw against the earlier combinations-order one,
    # on fixed seeds: the mean value does not drop
    new, old = [], []
    for s in range(20):
        g = oracularize_pcp_dummy(random_pcp_game(random.Random(s), positions=4)).to_float()
        kwargs = {"dims": (2, 2), "restarts": 3, "max_iters": 40, "seed": s}
        new.append(entangled_lower_bound(g, **kwargs).value)
        old.append(combinations_seesaw(g, **kwargs).value)
    assert np.mean(new) >= np.mean(old)
    ms = magic_square_game().to_float()
    kwargs = {"dims": (4, 4), "restarts": 1, "max_iters": 10}
    new = [entangled_lower_bound(ms, seed=s, **kwargs).value for s in range(12)]
    old = [combinations_seesaw(ms, seed=s, **kwargs).value for s in range(12)]
    assert np.mean(new) >= np.mean(old)


def test_seesaw_requires_float_mode():
    with pytest.raises(scalars.ModeError):
        entangled_lower_bound(chsh(), dims=(2, 2), restarts=1, max_iters=5, seed=0)


def test_seesaw_rejects_bad_dims():
    with pytest.raises(ValueError):
        entangled_lower_bound(chsh().to_float(), dims=(0, 2), restarts=1,
                              max_iters=5, seed=0)


def test_seesaw_rejects_no_iterations():
    with pytest.raises(ValueError, match="max_iters"):
        entangled_lower_bound(chsh().to_float(), dims=(2, 2), restarts=1,
                              max_iters=0, seed=0)


def test_value_chain_on_random_games():
    rng = random.Random(71)
    for _ in range(8):
        g = random_two_prover_game(rng, 3, 3, 2, 2)
        c = classical_value(g)
        ns = no_signaling_value(g)
        e = entangled_lower_bound(g.to_float(), dims=(2, 2), restarts=3,
                                  max_iters=40, seed=11,
                                  classical_seed=c.witness)
        assert float(c.value) <= e.value + 1e-11
        assert e.value <= float(ns.value) + 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 3))
def test_value_chain_property(seed, q1, q2, a1, a2):
    # classical <= see-saw <= no-signaling: classical and no-signaling exact,
    # the see-saw in floats from random starts plus the classical witness
    g = random_two_prover_game(random.Random(seed), q1, q2, a1, a2)
    c = classical_value(g)
    ns = no_signaling_value(g)
    e = entangled_lower_bound(g.to_float(), dims=(2, 2), restarts=2, max_iters=30,
                              seed=seed, classical_seed=c.witness)
    assert c.value <= ns.value
    assert float(c.value) <= e.value + 1e-7
    assert e.value <= float(ns.value) + 1e-7


def test_size_guard_on_enumeration():
    pi = [[Fraction(1, 400)] * 20] * 20
    R = [[[[Fraction(1)] * 8 for _ in range(8)] for _ in range(20)]
         for _ in range(20)]
    big = TwoProverGame(20, 20, 8, 8, pi, R)
    with pytest.raises(SizeGuardError):
        classical_value(big)


def test_size_guard_on_seesaw_game_operator(monkeypatch):
    # d1 = d2 = 2 makes a 4 x 4 game operator, 16 entries
    game = chsh().to_float()
    monkeypatch.setenv("PROVERGAMES_MAX_TABLE", "15")
    with pytest.raises(SizeGuardError, match="see-saw game operator needs 16 "):
        values.entangled_lower_bound(game, dims=(2, 2), restarts=1, max_iters=1)
    monkeypatch.setenv("PROVERGAMES_MAX_TABLE", "16")
    values.entangled_lower_bound(game, dims=(2, 2), restarts=1, max_iters=1)


def test_multi_round_single_round_point_mass():
    # r = 1: the optimum is the best fixed answer per question
    rng = random.Random(73)
    g = random_multi_round_game(rng, q=3, a=2, rounds=1, density=0.5)
    res = multi_round_value(g)
    best = max(
        sum(g.pi[q] * g.R[q * 2 + a] for q in range(3))
        for a in range(2))
    # adaptive per-question choice beats a single fixed answer
    per_question = sum(max(g.pi[q] * g.R[q * 2 + a] for a in range(2))
                       for q in range(3))
    assert res.value == per_question >= best
    pi_all = [Fraction(1, 3)] * 3
    ones = MultiRoundGame(3, 2, 1, pi_all, [Fraction(1)] * 6)
    assert multi_round_value(ones).value == 1


def test_seesaw_rejects_no_starting_point():
    with pytest.raises(ValueError):
        entangled_lower_bound(chsh().to_float(), dims=(2, 2), restarts=0,
                              max_iters=5, seed=0)


def test_seesaw_on_dummy_game_respects_soundness_bound():
    # any entangled lower bound stays below the proven commuting-operator
    # ceiling 1 - c (1-w)^2 / Q^2
    from provergames.rounding import COM_SOUNDNESS_CONSTANT
    from provergames.transforms import oracularize_pcp_dummy

    rng = random.Random(79)
    for _ in range(5):
        g = random_pcp_game(rng, positions=3)
        w = float(pcp_value(g).value)
        gp = oracularize_pcp_dummy(g)
        res = entangled_lower_bound(gp.to_float(), dims=(2, 2), restarts=3,
                                    max_iters=40, seed=17)
        ceiling = 1 - COM_SOUNDNESS_CONSTANT * (1 - w) ** 2 / g.positions**2
        assert res.value <= ceiling + 1e-6

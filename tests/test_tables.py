"""Array-backed two-prover tables: the vectorised transforms and the
classical enumeration against nested-loop references, the file round trip,
equality and immutability."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provergames import files, scalars, values
from provergames.catalog import chsh
from provergames.games import (
    MultiRoundGame,
    PcpGame,
    PcpProofDistribution,
    TwoProverGame,
    eval_pcp,
    eval_two_prover,
    uniform_bipartite,
    validate,
)
from provergames.sampling import (
    random_multi_round_game,
    random_pcp_game,
    random_two_prover_game,
)
from provergames.transforms import (
    honest_strategy_from_multi_round,
    honest_strategy_from_proof,
    oracularize_multi_round,
    oracularize_pcp,
    oracularize_pcp_dummy,
    parallel_repeat,
)
from oracles import (
    naive_classical_value,
    naive_oracularize_multi_round,
    naive_oracularize_pcp,
    naive_oracularize_pcp_dummy,
    naive_parallel_repeat,
)


def assert_same_entries(table, reference):
    """Entry for entry: same value and same scalar type (Fraction or float)."""
    reference = np.array(reference, dtype=object)
    assert table.shape == reference.shape
    for got, want in zip(table.flat, reference.flat):
        assert got == want
        assert isinstance(got, Fraction) == isinstance(want, Fraction)


def assert_matches(game, reference):
    pi, R = reference
    assert_same_entries(game.pi, pi)
    assert_same_entries(game.R, R)


@pytest.mark.parametrize("seed", range(6))
def test_parallel_repeat_matches_reference(seed):
    rng = random.Random(seed)
    g = random_two_prover_game(rng, 2 + seed % 2, 2, 2, 1 + seed % 3)
    n = 2 + (seed % 3 == 0)
    assert_matches(parallel_repeat(g, n), naive_parallel_repeat(g, n))
    assert_matches(parallel_repeat(g.to_float(), 2), naive_parallel_repeat(g.to_float(), 2))


@pytest.mark.parametrize("seed", range(6))
def test_oracularize_multi_round_matches_reference(seed):
    rng = random.Random(100 + seed)
    g = random_multi_round_game(rng, q=2 + seed % 2, a=2, rounds=1 + seed % 3)
    assert_matches(oracularize_multi_round(g), naive_oracularize_multi_round(g))


@pytest.mark.parametrize("seed", range(6))
def test_oracularize_pcp_matches_reference(seed):
    rng = random.Random(200 + seed)
    g = random_pcp_game(rng, 4 + seed % 3, alphabet=2 + (seed == 5))
    assert_matches(oracularize_pcp(g), naive_oracularize_pcp(g))
    assert_matches(oracularize_pcp_dummy(g), naive_oracularize_pcp_dummy(g))


def test_float_dummy_oracularization_is_bitwise_the_reference():
    g = random_pcp_game(random.Random(7), 5).to_float()
    assert_matches(oracularize_pcp_dummy(g), naive_oracularize_pcp_dummy(g))


def _tie_heavy_game(rng, q1, q2, a1, a2):
    # few distinct predicate values, so many tables and answers tie
    return random_two_prover_game(rng, q1, q2, a1, a2, density=0.5)


@pytest.mark.parametrize("batch_entries", [1, 7, values.CLASSICAL_BATCH_ENTRIES])
@pytest.mark.parametrize("seed", range(8))
def test_classical_value_matches_reference_with_ties(monkeypatch, seed, batch_entries):
    monkeypatch.setattr(values, "CLASSICAL_BATCH_ENTRIES", batch_entries)
    rng = random.Random(300 + seed)
    # both enumeration directions: 2^3 first-prover tables against 3^2
    # second-prover ones, and 2^4 against 3^2
    shape = (3, 2, 2, 3) if seed % 2 else (4, 2, 2, 3)
    g = _tie_heavy_game(rng, *shape)
    for game in (g, g.to_float()):
        result = values.classical_value(game)
        value, pair = naive_classical_value(game)
        assert result.value == value
        assert type(result.value) is (Fraction if game.mode == scalars.RATIONAL else float)
        assert (result.witness.f1, result.witness.f2) == pair


def test_classical_value_all_ties_keeps_first_table():
    g = TwoProverGame(2, 2, 2, 2, [[Fraction(1, 4)] * 2] * 2,
                      [[[[Fraction(1)] * 2] * 2] * 2] * 2)
    result = values.classical_value(g)
    assert result.value == 1
    assert (result.witness.f1, result.witness.f2) == ((0, 0), (0, 0))


@st.composite
def two_prover_games(draw, mode):
    q1, q2, a1, a2 = (draw(st.integers(1, 3)) for _ in range(4))
    weights = draw(st.lists(st.integers(0, 5), min_size=q1 * q2, max_size=q1 * q2))
    if not any(weights):
        weights[0] = 1
    pi = [Fraction(w, sum(weights)) for w in weights]
    entries = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3)])
    R = draw(st.lists(entries, min_size=q1 * q2 * a1 * a2, max_size=q1 * q2 * a1 * a2))
    g = TwoProverGame(q1, q2, a1, a2, np.array(pi, dtype=object).reshape(q1, q2),
                      np.array(R, dtype=object).reshape(q1, q2, a1, a2))
    return g if mode == scalars.RATIONAL else g.to_float()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([scalars.RATIONAL, scalars.FLOAT]).flatmap(two_prover_games))
def test_parse_serialize_round_trip_property(g):
    text = files.serialize_game(g)
    parsed = files.parse_game(text)
    assert parsed == g
    assert files.serialize_game(parsed) == text


_PREDICATE_ENTRIES = st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3)])


def _weights(draw, n, low=0):
    weights = draw(st.lists(st.integers(low, 5), min_size=n, max_size=n))
    if not any(weights):
        weights[0] = 1
    return [Fraction(w, sum(weights)) for w in weights]


def _in_mode(table, mode):
    return np.array(table, dtype=object).astype(float) if mode == scalars.FLOAT else table


@st.composite
def multi_round_games(draw, mode):
    q, a, r = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    pi = _weights(draw, q**r)
    R = draw(st.lists(_PREDICATE_ENTRIES, min_size=q**r * a**r, max_size=q**r * a**r))
    return MultiRoundGame(q, a, r, _in_mode(pi, mode), _in_mode(R, mode), mode)


@st.composite
def pcp_games(draw, mode):
    """Triples drawn with positive probability: a triple of probability 0
    with a rejecting row has no line in a game file."""
    n, a = draw(st.integers(3, 5)), draw(st.integers(2, 3))
    every = list(itertools.combinations(range(n), 3))
    triples = sorted(draw(st.sets(st.sampled_from(every), min_size=1)))
    pi = _weights(draw, len(triples), low=1)
    R = draw(st.lists(st.lists(_PREDICATE_ENTRIES, min_size=a**3, max_size=a**3),
                      min_size=len(triples), max_size=len(triples)))
    return PcpGame(n, a, triples, _in_mode(pi, mode), _in_mode(R, mode), mode)


_MODES = st.sampled_from([scalars.RATIONAL, scalars.FLOAT])


@settings(max_examples=40, deadline=None)
@given(st.one_of(_MODES.flatmap(multi_round_games), _MODES.flatmap(pcp_games)))
def test_single_prover_parse_serialize_round_trip_property(g):
    text = files.serialize_game(g)
    parsed = files.parse_game(text)
    assert parsed == g
    assert files.serialize_game(parsed) == text


def _same_value(got, want, mode):
    if mode == scalars.RATIONAL:
        assert got == want
    else:
        assert got == pytest.approx(want, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(_MODES.flatmap(multi_round_games))
def test_multi_round_oracularization_is_valid_and_honest_play_keeps_the_value(g):
    gp = oracularize_multi_round(g)
    assert validate(gp) == []
    if g.mode == scalars.RATIONAL:
        assert scalars.total(gp.pi, g.mode) == 1
    best = values.multi_round_value(g)
    honest = honest_strategy_from_multi_round(best.witness, g, gp)
    _same_value(eval_two_prover(gp, honest), best.value, g.mode)


@settings(max_examples=30, deadline=None)
@given(_MODES.flatmap(pcp_games))
def test_pcp_oracularizations_are_valid_and_honest_play_keeps_the_value(g):
    best = values.pcp_value(g)
    _same_value(eval_pcp(g, PcpProofDistribution.point_mass(best.witness, g.alphabet_size,
                                                            g.mode)), best.value, g.mode)
    for gp in (oracularize_pcp(g), oracularize_pcp_dummy(g)):
        assert validate(gp) == []
        if g.mode == scalars.RATIONAL:
            assert scalars.total(gp.pi, g.mode) == 1
        _same_value(eval_two_prover(gp, honest_strategy_from_proof(best.witness, gp)),
                    best.value, g.mode)


def test_tables_are_read_only():
    g = chsh()
    s = uniform_bipartite(2, 2, 2, 2)
    mr = random_multi_round_game(random.Random(0))
    pcp = random_pcp_game(random.Random(0))
    witness = values.multi_round_value(mr).witness
    proof = PcpProofDistribution.point_mass((0, 1, 0, 1), 2)
    for table in (g.pi, g.R, g.to_float().R, s.theta, mr.pi, mr.R, pcp.triples,
                  pcp.pi, pcp.R, pcp.to_float().R, *witness.tables, proof.theta,
                  proof.proofs):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0


def test_constructor_copies_its_input():
    R = np.array(chsh().R)
    g = TwoProverGame(2, 2, 2, 2, chsh().pi, R)
    R[0, 0, 0, 0] = Fraction(0)
    assert g == chsh()


def test_equality_is_a_bool_and_ignores_labels_and_meta():
    g = chsh()
    bare = TwoProverGame(2, 2, 2, 2, g.pi, g.R)
    assert (g == bare) is True
    assert (g == g.to_float()) is False
    assert (uniform_bipartite(2, 2, 2, 2) == uniform_bipartite(2, 2, 2, 2)) is True
    assert (uniform_bipartite(2, 2, 2, 2) == uniform_bipartite(2, 2, 2, 3)) is False


def test_table_dtypes_per_mode():
    g = chsh()
    assert g.R.dtype == object and isinstance(g.R[0, 0, 0, 0], Fraction)
    assert g.to_float().R.dtype == np.float64
    assert uniform_bipartite(2, 2, 2, 2, scalars.FLOAT).theta.dtype == np.float64


def test_validate_flags_rational_entry_in_float_table():
    g = chsh().to_float()
    R = g.R.tolist()
    R[0][0][0][0] = Fraction(1)
    report = validate(TwoProverGame(2, 2, 2, 2, g.pi, R, scalars.FLOAT))
    assert report == ["R: entry Fraction(1, 1) does not match mode float"]


def test_validate_reports_ragged_tables():
    g = chsh()
    pi = [[Fraction(1, 2)], [Fraction(1, 4), Fraction(1, 4)]]
    assert validate(TwoProverGame(2, 2, 2, 2, pi, g.R)) == [
        "pi dimensions do not match question counts"]
    assert validate(TwoProverGame(2, 2, 2, 2, g.pi, g.R[:, :, :1])) == [
        "R dimensions do not match counts"]


def test_validate_strategy_reports_each_bad_block_in_order():
    s = uniform_bipartite(2, 2, 2, 2)
    theta = s.theta.copy()
    theta[1, 0, 0, 0] = Fraction(-1, 4)
    theta[0, 1, 1, 1] = 0.25
    report = validate(type(s)(2, 2, 2, 2, theta))
    assert report == [
        "theta[0][1]: entry 0.25 does not match mode rational",
        "theta[1][0]: negative entry -1/4",
        "theta[1][0]: normalization violated, sum = 1/2",
    ]

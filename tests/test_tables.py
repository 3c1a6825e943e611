"""Array-backed two-prover tables: the vectorised transforms and the
classical enumeration against nested-loop references, the file round trip,
equality and immutability."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provergames import files, scalars, values
from provergames.catalog import chsh
from provergames.games import TwoProverGame, uniform_bipartite, validate
from provergames.sampling import (
    random_multi_round_game,
    random_pcp_game,
    random_two_prover_game,
)
from provergames.transforms import (
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


def test_tables_are_read_only():
    g = chsh()
    s = uniform_bipartite(2, 2, 2, 2)
    for table in (g.pi, g.R, g.to_float().R, s.theta):
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

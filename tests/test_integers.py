"""Rational tables as integer numerators over one denominator: the
``scalars.IntegerForm`` and ``rationals``, and the readers
built on them against the ``Fraction`` oracles on games with mixed
denominators."""

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provergames import files, scalars, values
from provergames.catalog import chsh, magic_square_game
from provergames.games import (
    BipartiteStrategy,
    MultiRoundGame,
    PcpGame,
    PcpProofDistribution,
    TwoProverGame,
    eval_multi_round,
    eval_pcp,
    is_no_signaling,
    uniform_bipartite,
    validate,
)
from provergames.indexing import iter_tuples
from provergames.transforms import parallel_repeat
from provergames.values import classical_value, multi_round_value, pcp_value
from oracles import (
    brute_classical,
    brute_multi_round,
    brute_pcp,
    naive_classical_value,
    naive_parallel_repeat,
)

#: denominators mixed within one table, so its common denominator is an lcm
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9, 10, 12)


@st.composite
def distributions(draw, n):
    """n rational weights summing to 1, some of them 0."""
    weights = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    if not any(weights):
        weights[draw(st.integers(0, n - 1))] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


@st.composite
def predicates(draw, n):
    """n entries in [0, 1] with denominators drawn from DENOMINATORS."""
    out = []
    for _ in range(n):
        d = draw(st.sampled_from(DENOMINATORS))
        out.append(Fraction(draw(st.integers(0, d)), d))
    return out


@st.composite
def two_prover_games(draw, max_q=3, max_a=3):
    q1, q2 = draw(st.integers(1, max_q)), draw(st.integers(1, max_q))
    a1, a2 = draw(st.integers(1, max_a)), draw(st.integers(1, max_a))
    pi = np.array(draw(distributions(q1 * q2)), dtype=object).reshape(q1, q2)
    R = np.array(draw(predicates(q1 * q2 * a1 * a2)), dtype=object).reshape(q1, q2, a1, a2)
    return TwoProverGame(q1, q2, a1, a2, pi, R)


@st.composite
def multi_round_games(draw):
    q, a, r = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    return MultiRoundGame(q, a, r, draw(distributions(q**r)),
                          draw(predicates(q**r * a**r)))


@st.composite
def pcp_games(draw):
    positions, a = draw(st.integers(3, 5)), draw(st.integers(1, 2))
    triples = [t for t in iter_tuples(positions, 3) if t[0] < t[1] < t[2]]
    chosen = sorted(draw(st.sets(st.sampled_from(triples), min_size=1)))
    return PcpGame(positions, a, chosen, draw(distributions(len(chosen))),
                   np.array(draw(predicates(len(chosen) * a**3)),
                            dtype=object).reshape(len(chosen), a**3))


def integers(table, terms=1, power=1):
    """``(num, den)`` of a table's integer form, ``num`` widened for
    ``terms`` and ``power``."""
    form = scalars.IntegerForm.of(table)
    return form.widen(terms, power), form.den


def assert_same_fractions(table, reference):
    reference = np.array(reference, dtype=object)
    assert table.shape == reference.shape
    for got, want in zip(table.flat, reference.flat):
        assert isinstance(got, Fraction) and got == want


@settings(max_examples=40, deadline=None)
@given(two_prover_games())
def test_classical_value_matches_the_fraction_oracles(game):
    assert validate(game) == []
    value, (f1, f2) = naive_classical_value(game)
    # one batch, and one table per batch, so ties also meet across batches
    for batch_entries in (values.CLASSICAL_BATCH_ENTRIES, 1):
        with mock.patch.object(values, "CLASSICAL_BATCH_ENTRIES", batch_entries):
            res = classical_value(game)
        assert isinstance(res.value, Fraction)
        assert res.value == value == brute_classical(game)
        assert (res.witness.f1, res.witness.f2) == (f1, f2)


@settings(max_examples=40, deadline=None)
@given(multi_round_games())
def test_multi_round_value_matches_the_fraction_oracle(game):
    res = multi_round_value(game)
    assert isinstance(res.value, Fraction)
    assert res.value == brute_multi_round(game)
    assert eval_multi_round(game, res.witness) == res.value


@settings(max_examples=40, deadline=None)
@given(pcp_games())
def test_pcp_value_matches_the_fraction_oracle(game):
    res = pcp_value(game)
    assert isinstance(res.value, Fraction)
    assert res.value == brute_pcp(game)
    with mock.patch.object(values, "CLASSICAL_BATCH_ENTRIES", 1):
        assert pcp_value(game) == res
    # the witness is the first proof, lexicographically, that attains it
    for proof in iter_tuples(game.alphabet_size, game.positions):
        got = eval_pcp(game, PcpProofDistribution.point_mass(proof, game.alphabet_size))
        if proof == res.witness:
            assert got == res.value
            break
        assert got < res.value


@settings(max_examples=25, deadline=None)
@given(two_prover_games(max_q=2, max_a=2), st.integers(1, 3))
def test_parallel_repeat_matches_the_fraction_oracle(game, n):
    repeated = parallel_repeat(game, n)
    pi, R = naive_parallel_repeat(game, n)
    assert_same_fractions(repeated.pi, pi)
    assert_same_fractions(repeated.R, R)
    assert validate(repeated) == []


@settings(max_examples=40, deadline=None)
@given(two_prover_games())
def test_integer_form_round_trips(game):
    for table in (game.pi, game.R):
        num, den = integers(table)
        assert num.dtype == np.int64
        back = scalars.rationals(num, den)
        assert not back.flags.writeable
        assert_same_fractions(back, table)
        assert all(v * den == n for v, n in zip(table.flat, num.flat))


def test_int64_is_chosen_while_the_bound_fits():
    assert integers(chsh().R)[0].dtype == np.int64
    # power * bits(max(|num|, den)) + bits(terms) against 63
    assert integers(np.array([Fraction(1, 2**60)]))[0].dtype == np.int64
    assert integers(np.array([Fraction(1, 2**61)]))[0].dtype == object
    assert integers(np.array([Fraction(1, 2**59)]), terms=3)[0].dtype == np.int64
    assert integers(np.array([Fraction(1, 2**59)]), terms=4)[0].dtype == object
    assert integers(np.array([Fraction(1, 2**29)]), power=2)[0].dtype == np.int64
    assert integers(np.array([Fraction(1, 2**30)]), power=2)[0].dtype == object
    with pytest.raises(scalars.ModeError):
        integers(np.array([Fraction(1, 2), 0.5], dtype=object))


def _near_2_40_game():
    """A game whose pi has denominators near 2^40: their lcm is about 2^80,
    past int64."""
    p, q = 2**40 + 15, 2**40 - 87  # coprime
    pi = [[Fraction(1, p), Fraction(1, q)],
          [Fraction(1, 3), 1 - Fraction(1, p) - Fraction(1, q) - Fraction(1, 3)]]
    rng = random.Random(3)
    R = [[[[Fraction(rng.randrange(3), 2) for _ in range(2)] for _ in range(2)]
          for _ in range(2)] for _ in range(2)]
    return TwoProverGame(2, 2, 2, 2, pi, R)


def test_denominators_near_2_40_take_python_ints():
    game = _near_2_40_game()
    assert validate(game) == []
    num, den = integers(game.pi)
    assert num.dtype == object and den.bit_length() > 63
    assert all(isinstance(v, int) for v in num.flat)
    assert_same_fractions(scalars.rationals(num, den), game.pi)
    res = classical_value(game)
    value, (f1, f2) = naive_classical_value(game)
    assert res.value == value == brute_classical(game)
    assert (res.witness.f1, res.witness.f2) == (f1, f2)
    repeated = parallel_repeat(game, 2)
    pi, R = naive_parallel_repeat(game, 2)
    assert_same_fractions(repeated.pi, pi)
    assert_same_fractions(repeated.R, R)
    assert validate(repeated) == []
    bad = TwoProverGame(2, 2, 2, 2, game.pi * 2, game.R)
    assert validate(bad) == ["pi: normalization violated, sum = 2"]


def _bitwise(a, b):
    return a.dtype == b.dtype == np.float64 and a.tobytes() == b.tobytes()


def _floats(table):
    return scalars.IntegerForm.of(table).floats()


def test_to_float_is_float_of_each_fraction():
    rng = random.Random(11)
    for bits in (8, 30, 52, 53, 54, 70, 120):
        table = np.array([Fraction(rng.getrandbits(bits), rng.getrandbits(bits) | 1)
                          for _ in range(200)], dtype=object)
        want = np.array([float(v) for v in table])
        assert _bitwise(_floats(table), want)
        # one huge denominator shared by small entries
        table = np.array([Fraction(rng.randrange(1, 50), 2**bits) for _ in range(50)],
                         dtype=object)
        assert _bitwise(_floats(table), np.array([float(v) for v in table]))
        # one odd denominator shared by entries with numerators of its size:
        # int64, but past 2**53 from 54 bits on
        den = rng.getrandbits(min(bits, 62)) | 1
        table = np.array([Fraction(rng.randrange(den), den) for _ in range(200)],
                         dtype=object)
        assert _bitwise(_floats(table), np.array([float(v) for v in table]))
        # numerators of that size over small denominators
        table = np.array([Fraction(rng.getrandbits(bits), rng.randrange(1, 8))
                          for _ in range(200)], dtype=object)
        assert _bitwise(_floats(table), np.array([float(v) for v in table]))
    # small numerators over one denominator just past 2**60, which is no double
    den = 2**60 + 2**7 + 1
    table = np.array([Fraction(rng.randrange(1, 2**20), den) for _ in range(200)],
                     dtype=object)
    assert integers(table)[0].dtype == np.int64
    assert _bitwise(_floats(table), np.array([float(v) for v in table]))
    game = magic_square_game()
    assert _bitwise(game.to_float().R,
                    np.array([float(v) for v in game.R.flat]).reshape(game.R.shape))
    near = _near_2_40_game()
    assert _bitwise(near.to_float().pi,
                    np.array([float(v) for v in near.pi.flat]).reshape(2, 2))


def test_int_array_is_int64_exactly_below_2_63_in_absolute_value():
    for fits in ([2**63 - 1], [-(2**63 - 1)], [[1, 2**63 - 1], [-(2**63 - 1), 0]], []):
        a = scalars.int_array(fits)
        assert a.dtype == np.int64 and a.tolist() == fits
    # -2**63 fits int64, but its negation would wrap to itself
    for past in ([-2**63], [2**63], [[0, 2**63], [1, 2]], np.array([5, -2**63])):
        a = scalars.int_array(past)
        assert a.dtype == object and a.tolist() == np.asarray(past, dtype=object).tolist()
        assert all(type(v) is int for v in a.ravel().tolist())
    assert scalars.int_array(np.array([3, -2**62], dtype=object)).dtype == np.int64


def test_integer_form_is_in_lowest_terms():
    form = scalars.IntegerForm(np.array([[2, 4], [0, 6]]), 12)
    assert form.num.tolist() == [[1, 2], [0, 3]] and form.den == 6
    assert not form.num.flags.writeable
    assert form == scalars.IntegerForm.of(np.array([[Fraction(1, 6), Fraction(1, 3)],
                                                    [0, Fraction(1, 2)]], dtype=object))
    assert form.bound == 6
    # numerators past int64 stay Python ints, and ones that fit become int64
    big = scalars.IntegerForm(np.array([2**70, 2], dtype=object), 2**71)
    assert big.num.dtype == object and big.num.tolist() == [2**69, 1] and big.den == 2**70
    small = scalars.IntegerForm(np.array([3, 6], dtype=object), 9)
    assert small.num.dtype == np.int64 and small.num.tolist() == [1, 2] and small.den == 3
    assert scalars.IntegerForm(np.zeros((2, 0), dtype=np.int64), 5).den == 1
    zeros = scalars.IntegerForm(np.zeros(3, dtype=np.int64), 2**80)
    assert zeros.den == 1 and zeros.num.dtype == np.int64 and zeros.bound == 1
    with pytest.raises(scalars.ModeError):
        TwoProverGame(1, 1, 1, 1, scalars.IntegerForm([[1]], 1), [[[[1.0]]]], "float")


def test_games_compare_on_their_canonical_forms():
    chsh_game = chsh()
    pi = [[Fraction(2, 8)] * 2] * 2
    R_ints = np.where(chsh_game.R == 1, 1, 0)
    same = TwoProverGame(2, 2, 2, 2, pi, R_ints.astype(object))
    assert same == chsh_game and chsh_game == same
    # the same values handed in as unreduced numerators
    handed = TwoProverGame(2, 2, 2, 2, scalars.IntegerForm(np.full((2, 2), 2), 8),
                           scalars.IntegerForm(R_ints * 3, 3))
    assert handed == chsh_game
    assert handed.integer_form("pi").den == 4 and handed.integer_form("R").den == 1
    # a rational game never equals its float conversion
    assert chsh_game != chsh_game.to_float() and chsh_game.to_float() != chsh_game
    assert chsh_game.to_float() == same.to_float()
    # a table holding a wrong-mode entry has no form and compares entry by entry
    halves = np.where(chsh_game.R == 1, Fraction(1, 2), 0)
    wrong = TwoProverGame(2, 2, 2, 2, chsh_game.pi, np.where(chsh_game.R == 1, 0.5, 0))
    assert wrong.integer_form("R") is None and wrong.integer_form("pi") is not None
    assert wrong == TwoProverGame(2, 2, 2, 2, chsh_game.pi, halves)
    assert wrong != TwoProverGame(2, 2, 2, 2, chsh_game.pi, halves / 2)
    assert wrong != chsh_game


def test_strategies_compare_on_their_forms():
    theta = np.full((2, 2, 2, 2), Fraction(1, 4), dtype=object)
    given = BipartiteStrategy(2, 2, 2, 2, theta)
    handed = BipartiteStrategy(2, 2, 2, 2, scalars.IntegerForm(np.full((2, 2, 2, 2), 3), 12))
    assert (given == handed) is True and (handed == given) is True
    assert handed.integer_form("theta").den == 4
    assert_same_fractions(handed.theta, theta)
    assert (given == chsh()) is False
    assert given != BipartiteStrategy(2, 2, 2, 2, theta.astype(float), "float")
    # the proof strings count: a mixture is not the dense table it spells
    point = PcpProofDistribution(3, 1, [Fraction(1)], proofs=[(0, 0, 0)])
    assert point != PcpProofDistribution(3, 1, [Fraction(1)])
    assert point == PcpProofDistribution(3, 1, scalars.IntegerForm([2], 2), proofs=[(0, 0, 0)])
    with pytest.raises(scalars.ModeError):
        BipartiteStrategy(1, 1, 1, 1, scalars.IntegerForm([[[[1]]]], 1), "float")


@settings(max_examples=25, deadline=None)
@given(two_prover_games(max_q=2, max_a=2), st.integers(1, 2))
def test_repeated_mixed_denominator_games_survive_the_file_round_trip(game, n):
    repeated = parallel_repeat(game, n)
    parsed = files.parse_game(files.serialize_game(repeated))
    assert parsed == repeated
    for name in ("pi", "R"):
        assert parsed.integer_form(name) == repeated.integer_form(name)
        assert_same_fractions(getattr(parsed, name), getattr(repeated, name))


def test_near_2_40_game_survives_the_file_round_trip():
    game = parallel_repeat(_near_2_40_game(), 2)
    parsed = files.parse_game(files.serialize_game(game))
    assert parsed.integer_form("pi").num.dtype == object
    assert parsed == game
    assert _bitwise(parsed.to_float().pi, game.to_float().pi)


def test_readers_derive_each_integer_form_at_most_once():
    derive = mock.patch.object(scalars.IntegerForm, "of", wraps=scalars.IntegerForm.of)
    game, other = magic_square_game(), magic_square_game()
    with derive as spy:
        for _ in range(2):
            validate(game)
            game.to_float()
            files.serialize_game(game)
            classical_value(game)
            assert game == other
        assert spy.call_count == 4  # pi and R of each of the two games
        repeated = parallel_repeat(game, 2)
        parsed = files.parse_game(files.serialize_game(repeated))
        assert validate(parsed) == []
        assert parsed == repeated
        parsed.to_float()
        classical_value(chsh())  # two derivations of its own
        assert spy.call_count == 6
        strategy = uniform_bipartite(2, 2, 2, 2)
        assert is_no_signaling(strategy) == is_no_signaling(strategy) == (True, 0)
        assert spy.call_count == 7

"""Scalar modes and tuple indexing."""

from fractions import Fraction

import pytest

from provergames import scalars
from provergames.indexing import (
    PrefixIndex,
    decode_tuple,
    encode_tuple,
    iter_tuples,
)
from oracles import prefix_length, prefix_tuples


def test_parse_and_format_round_trip():
    for text, expected in (("1/3", Fraction(1, 3)), ("-2/7", Fraction(-2, 7)),
                           ("5", Fraction(5)), ("0.25", 0.25)):
        assert scalars.parse_scalar(text) == expected
    for v in (Fraction(3, 7), Fraction(-1, 9), 0.1, 1.0 / 3.0):
        assert scalars.parse_scalar(scalars.format_scalar(v)) == v


def test_mode_inference_and_mixing():
    assert scalars.scalar_mode(Fraction(1, 2)) == scalars.RATIONAL
    assert scalars.scalar_mode(0.5) == scalars.FLOAT
    with pytest.raises(scalars.ModeError):
        scalars.require_same_mode(scalars.RATIONAL, scalars.FLOAT)


def test_encode_decode_round_trip():
    for base, length in ((2, 3), (3, 2), (5, 1)):
        for tup in iter_tuples(base, length):
            assert decode_tuple(encode_tuple(tup, base), base, length) == tup


def test_encode_is_lexicographic():
    tuples = list(iter_tuples(3, 2))
    codes = [encode_tuple(t, 3) for t in tuples]
    assert codes == sorted(codes) == list(range(9))


def test_prefix_index_bijection():
    idx = PrefixIndex(2, 3)
    assert len(idx) == 2 + 4 + 8
    seen = set()
    for tup in prefix_tuples(idx):
        code = idx.encode(tup)
        assert idx.decode(code) == tup
        assert prefix_length(idx, code) == len(tup)
        seen.add(code)
    assert seen == set(range(len(idx)))


def test_prefix_index_rejects_bad_lengths():
    idx = PrefixIndex(2, 2)
    with pytest.raises(ValueError):
        idx.encode((0, 1, 0))
    with pytest.raises(ValueError):
        idx.decode(len(idx))

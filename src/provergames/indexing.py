"""Dense integer indexing for question/answer tuples.

All multi-component questions and answers are stored as dense 0-based
indices.  Fixed-length tuples over a base alphabet use mixed-radix
(lexicographic) encoding; variable-length prefixes (the second prover of an
oracularized multi-round game receives an element of ``Q ∪ Q² ∪ … ∪ Q^r``)
use a block layout ordered by length, lexicographic inside each block.
"""

from __future__ import annotations

import itertools

import numpy as np


def encode_tuple(tup, base):
    """Lexicographic rank of ``tup`` among ``base``**len(tup) tuples."""
    idx = 0
    for t in tup:
        if not 0 <= t < base:
            raise ValueError(f"component {t} out of range for base {base}")
        idx = idx * base + t
    return idx


def decode_tuple(idx, base, length):
    out = []
    for _ in range(length):
        out.append(idx % base)
        idx //= base
    if idx:
        raise ValueError("index out of range")
    out.reverse()
    return tuple(out)


def iter_tuples(base, length):
    return itertools.product(range(base), repeat=length)


def digit_table(base, length, start=0, stop=None):
    """Row ``i`` holds the components of ``decode_tuple(start + i, base,
    length)``, for ``start + i`` below ``stop`` (default ``base**length``)."""
    idx = np.arange(start, base**length if stop is None else stop)
    return idx[:, None] // base ** np.arange(length - 1, -1, -1) % base


class PrefixIndex:
    """Bijection between ``⋃_{k=1..r} S^k`` and ``0..(total-1)``.

    Tuples are blocked by length k = 1, …, r; within a block the order is
    lexicographic.  The length of a tuple is recoverable from its index.
    """

    def __init__(self, base, max_len):
        if base < 1 or max_len < 1:
            raise ValueError("base and max_len must be positive")
        self.base = base
        self.max_len = max_len
        self.offsets = []
        total = 0
        for k in range(1, max_len + 1):
            self.offsets.append(total)
            total += base**k
        self.total = total

    def encode(self, tup):
        k = len(tup)
        if not 1 <= k <= self.max_len:
            raise ValueError(f"tuple length {k} outside 1..{self.max_len}")
        return self.offsets[k - 1] + encode_tuple(tup, self.base)

    def decode(self, idx):
        if not 0 <= idx < self.total:
            raise ValueError("index out of range")
        k = self.max_len
        while self.offsets[k - 1] > idx:
            k -= 1
        return decode_tuple(idx - self.offsets[k - 1], self.base, k)

    def __len__(self):
        return self.total

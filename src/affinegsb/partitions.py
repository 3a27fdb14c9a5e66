"""Basic partitions, box partitions, the shift-sum bijection and q-binomials.

A basic partition is an n-tuple (k, 1, ..., 1, 0, ..., 0).  Connected
sequences of basic partitions (both coordinates strictly decreasing)
encode the marked-component data of arranged words; summing their
cyclic shifts gives a bijection onto partitions in an n-by-n box.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

from .word_classes import Block, InvalidSequenceError


@dataclass(frozen=True)
class BasicPartition:
    """The n-tuple (k, 1, ..., 1, 0, ..., 0) with l ones."""

    n: int
    k: int
    l: int

    def __post_init__(self):
        if not (1 <= self.k <= self.n):
            raise InvalidSequenceError(f"basic partition k={self.k} outside [1, {self.n}]")
        if not (0 <= self.l <= self.n - 1):
            raise InvalidSequenceError(
                f"basic partition l={self.l} outside [0, {self.n - 1}]"
            )

    @property
    def size(self):
        return self.k + self.l

    def tuple(self):
        return (self.k,) + (1,) * self.l + (0,) * (self.n - 1 - self.l)


@dataclass(frozen=True)
class BoxPartition:
    """A partition with at most n parts, no part larger than n.

    Stored as a non-increasing n-tuple padded with zeros.
    """

    n: int
    parts: tuple

    def __post_init__(self):
        p = self.parts
        if len(p) != self.n:
            raise InvalidSequenceError(f"expected {self.n} parts, got {len(p)}")
        if any(not (0 <= x <= self.n) for x in p):
            raise InvalidSequenceError(f"part outside the {self.n}x{self.n} box: {p}")
        if any(a < b for a, b in zip(p, p[1:])):
            raise InvalidSequenceError(f"parts must be non-increasing: {p}")

    @property
    def size(self):
        return sum(self.parts)


def is_connected(a, b):
    """Whether basic partition a is connected to b: both coordinates drop."""
    return a.k > b.k and a.l > b.l


def check_connected_seq(seq):
    for a, b in zip(seq, seq[1:]):
        if a.n != b.n:
            raise InvalidSequenceError("mixed ranks in sequence")
        if not is_connected(a, b):
            raise InvalidSequenceError(f"{a} is not connected to {b}")


def block_to_basic(b):
    """Basic partition of a block: k is reflected (n + 2 - k), l kept.

    The reindexing makes the partition size equal the block's word
    length and reverses the k-monotonicity, so marked sequences map to
    connected sequences.
    """
    return BasicPartition(b.n, b.n + 2 - b.k, b.l)


def basic_to_block(bp):
    """Inverse of block_to_basic."""
    return Block(bp.n, bp.n + 2 - bp.k, bp.l)


def oplus(seq):
    """Sum of iterated cyclic shifts of a connected sequence.

    The i-th partition is shifted i-1 times before the componentwise
    sum; the result is a partition in the n-by-n box of the same total
    size.
    """
    if not seq:
        raise InvalidSequenceError("oplus needs a nonempty sequence")
    check_connected_seq(seq)
    n = seq[0].n
    total = (0,) * n
    for i, bp in enumerate(seq):
        t = bp.tuple()
        # shifted right i times, cyclically: the last i entries come first
        total = tuple(x + y for x, y in zip(total, t[n - i:] + t[:n - i]))
    return BoxPartition(n, total)


def decompose(p):
    """Peel a box partition into the connected sequence summing to it.

    Inverse of oplus: the first basic partition takes the largest part
    and a 1 in every other nonzero position; recurse on the unshifted
    remainder.
    """
    n = p.n
    parts = list(p.parts)
    seq = []
    while any(parts):
        last = max(i for i, x in enumerate(parts) if x)
        bp = BasicPartition(n, parts[0], last)
        seq.append(bp)
        rest = [x - y for x, y in zip(parts, bp.tuple())]
        # undo one cyclic shift: drop the leading zero (bp.k is parts[0]), append a zero
        parts = rest[1:] + [0]
    check_connected_seq(seq)
    return seq


def q_binomial(m, r):
    """Gaussian binomial coefficient as a list of integer coefficients.

    Computed by the Pascal recurrence; degree r(m - r).
    """
    if r < 0 or r > m:
        raise ValueError(f"q_binomial needs 0 <= r <= m, got ({m}, {r})")
    # Pascal recurrence: C(i, j) = C(i-1, j-1) + q^j * C(i-1, j)
    row = [[1]]  # row[j] = coefficients of C(i, j)_q
    for i in range(1, m + 1):
        new = [[1]]
        for j in range(1, min(i, r) + 1):
            left = row[j - 1]
            right = row[j] if j < len(row) else [0]
            size = max(len(left), j + len(right))
            coeffs = [0] * size
            for d, c in enumerate(left):
                coeffs[d] += c
            for d, c in enumerate(right):
                coeffs[j + d] += c
            new.append(coeffs)
        row = new
    coeffs = row[r]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def box_partitions(n):
    """All partitions in the n-by-n box, by direct enumeration.

    The non-increasing n-tuples of parts 0..n, in reverse lexicographic
    order (largest parts first).
    """
    return [BoxPartition(n, p) for p in _box_tuples(n)]


def _box_tuples(n):
    return combinations_with_replacement(range(n, -1, -1), n)


def box_count(n, size):
    """Number of box partitions of the given size, by direct counting.

    Independently equals the coefficient of q^size in q_binomial(2n, n).
    """
    if size < 0 or size > n * n:
        return 0
    return sum(1 for p in _box_tuples(n) if sum(p) == size)

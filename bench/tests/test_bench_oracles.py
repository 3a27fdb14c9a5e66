"""The benchmark's oracles, checked by hand and against a second model."""

import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracles as O  # noqa: E402


def test_generators_by_hand_rank2():
    assert O.perm_of_word(b"", 2) == (1, 2, 3)
    assert O.perm_of_word(bytes([0]), 2) == (0, 2, 4)
    assert O.perm_of_word(bytes([1]), 2) == (2, 1, 3)
    assert O.perm_of_word(bytes([2]), 2) == (1, 3, 2)
    assert O.perm_of_word(bytes([0, 1]), 2) == (2, 0, 4)
    assert O.perm_length((2, 0, 4)) == 2


def test_braid_product_by_hand_rank2():
    # r0 r1 r0 = r1 r0 r1 = (1, 0, 5), an element of length 3
    assert O.perm_of_word(bytes([0, 1, 0]), 2) == (1, 0, 5)
    assert O.perm_of_word(bytes([1, 0, 1]), 2) == (1, 0, 5)
    assert O.perm_length((1, 0, 5)) == 3
    assert O.is_right_descent((1, 0, 5), 0) and O.is_right_descent((1, 0, 5), 1)
    assert not O.is_right_descent((1, 0, 5), 2)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_defining_relations_hold(n):
    e = O.identity_perm(n)
    for i in range(n + 1):
        assert O.perm_of_word(bytes([i, i]), n) == e
        for j in range(i + 1, n + 1):
            adjacent = j == i + 1 or (i, j) == (0, n)
            m = 3 if adjacent else 2
            lhs = bytes((i, j)[t % 2] for t in range(m))
            rhs = bytes((j, i)[t % 2] for t in range(m))
            assert O.perm_of_word(lhs, n) == O.perm_of_word(rhs, n)
            if adjacent:
                assert O.perm_of_word(bytes([i, j]), n) != O.perm_of_word(bytes([j, i]), n)


@pytest.mark.parametrize("n", [2, 3])
def test_perm_lengths_count_like_bott(n):
    # breadth-first search over affine permutations, independent of any word model
    counts, prev, cur = [1], set(), {O.identity_perm(n)}
    for _ in range(8):
        nxt = {O.times_generator(w, i) for w in cur for i in range(n + 1)} - cur - prev
        assert all(O.perm_length(w) == len(counts) for w in nxt)
        counts.append(len(nxt))
        prev, cur = cur, nxt
    assert counts == O.bott(O.type_a_degrees(n), 8)


@pytest.mark.parametrize("n", [4, 6])
def test_random_reduced_words_are_reduced(n):
    rng = random.Random(5)
    for _ in range(20):
        word = O.random_reduced_word(n, 40, rng)
        w = O.perm_of_word(word, n)
        assert O.perm_length(w) == 40
        assert O.is_right_descent(w, word[-1])


def test_solomon_group_orders():
    for name, order in (("H4", 14400), ("E6", 51840), ("E7", 2903040)):
        degrees = O.COXETER_TYPES[name]["degrees"]
        poly = O.solomon(degrees)
        assert sum(poly) == order == math.prod(degrees)
        assert poly == poly[::-1]
        assert len(poly) - 1 == sum(d - 1 for d in degrees)


def reflection_growth(rank, edges, degree):
    """Elements by length, by search in the integer reflection representation.

    An element is the tuple of images of the simple roots; faithful for
    crystallographic Coxeter groups.
    """
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j, m in edges:
        a[i][j], a[j][i] = {3: (-1, -1), 4: (-2, -1), 6: (-3, -1)}[m]

    def times(g, i):
        return tuple(tuple(x - a[i][j] * y for x, y in zip(g[j], g[i])) for j in range(rank))

    e = tuple(tuple(int(i == j) for i in range(rank)) for j in range(rank))
    counts, prev, cur = [1], set(), {e}
    for _ in range(degree):
        nxt = {times(g, i) for g in cur for i in range(rank)} - cur - prev
        counts.append(len(nxt))
        prev, cur = cur, nxt
    return counts


@pytest.mark.parametrize("name, degree", [("~B4", 6), ("~D4", 6), ("~F4", 6), ("~C2", 8),
                                          ("E6", 5), ("E7", 4), ("B3", 10)])
def test_growth_formulas_match_reflection_search(name, degree):
    t = O.COXETER_TYPES[name]
    assert O.coxeter_growth(name, degree) == reflection_growth(t["rank"], t["edges"], degree)


def test_bott_affine_types_start_with_rank():
    for name in ("~B4", "~D4", "~F4"):
        series = O.coxeter_growth(name, 10)
        # 5 generators; 4 linked pairs out of 10, so 20 - 6 = 14 elements of length 2
        assert series[:3] == [1, 5, 14]


def test_q_binomial_by_hand():
    assert O.q_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert O.q_binomial(5, 0) == [1]
    for m in range(1, 9):
        for r in range(m + 1):
            q = O.q_binomial(m, r)
            assert sum(q) == math.comb(m, r) and q == q[::-1]


def test_count_avoiding_by_hand():
    # words over {0, 1} without "00": Fibonacci
    assert O.count_avoiding([b"\x00\x00"], 2, 6) == [1, 2, 3, 5, 8, 13, 21]
    # a factor contained in another is what is forbidden
    assert O.count_avoiding([b"\x01", b"\x00\x01\x00"], 2, 4) == [1, 1, 1, 1, 1]
    assert O.count_avoiding([b"\x00\x01"], 3, 3) == [1, 3, 8, 21]


def test_deglex():
    assert O.deglex_greater(b"\x01\x01", b"\x00")
    assert O.deglex_greater(b"\x00\x02", b"\x01\x00")
    assert not O.deglex_greater(b"\x01", b"\x01")

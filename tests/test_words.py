import random

import pytest

from affinegsb.rewriting import RuleSet, make_rule
from affinegsb.words import (
    Alphabet,
    RankMismatchError,
    WordSyntaxError,
    affine_alphabet,
    deglex_greater,
    deglex_key,
)


def compare(u, v):
    """-1, 0 or 1 as u <, =, > v under deg-lex, read off deglex_key."""
    ku, kv = deglex_key(u), deglex_key(v)
    return (ku > kv) - (ku < kv)


def w(*ids):
    return bytes(ids)


def test_compare_identity():
    assert compare(w(1, 2), w(1, 2)) == 0


def test_compare_length_dominates():
    assert compare(w(0), w(1, 2)) == -1


def test_compare_lexicographic():
    # first letters differ: r1 > r2
    assert compare(w(1, 2), w(2, 0)) == 1


def test_compare_empty_word_least():
    assert compare(b"", w(2)) == -1
    assert compare(b"", b"") == 0


def test_compare_rank_mismatch():
    # symbol 3 lies outside the alphabet r0 > r1 > r2
    with pytest.raises(RankMismatchError):
        RuleSet([make_rule(w(3), w(1))], 3)


def random_word(rng, size, max_len):
    return bytes(rng.randrange(size) for _ in range(rng.randrange(max_len + 1)))


def test_compare_total_and_antisymmetric():
    rng = random.Random(7)
    for _ in range(500):
        u = random_word(rng, 3, 6)
        v = random_word(rng, 3, 6)
        c = compare(u, v)
        assert c == -compare(v, u)
        assert (c == 0) == (u == v)
        assert deglex_greater(u, v) == (c == 1)
        assert deglex_greater(v, u) == (c == -1)


def test_multiplication_compatibility():
    rng = random.Random(11)
    for _ in range(500):
        u = random_word(rng, 3, 5)
        v = random_word(rng, 3, 5)
        if compare(u, v) <= 0:
            u, v = v, u
        if u == v:
            continue
        w1 = random_word(rng, 3, 4)
        w2 = random_word(rng, 3, 4)
        assert compare(w1 + u + w2, w1 + v + w2) == 1


def test_deglex_key_sorts_ascending():
    words = [w(1, 2), w(0), b"", w(2, 0), w(1, 1, 1)]
    srt = sorted(words, key=deglex_key)
    for a, b in zip(srt, srt[1:]):
        assert compare(a, b) == -1


def test_deglex_key_is_the_complement_of_each_symbol():
    # the key complements each byte in one translate; check it against the
    # byte-by-byte form over the whole byte range bar 255
    rng = random.Random(14)
    prev = b""
    for _ in range(2000):
        x = bytes(rng.randrange(255) for _ in range(rng.randint(0, 60)))
        assert deglex_key(x) == (len(x), bytes(255 - c for c in x)), x
        # the previous word, and one of equal length differing at some letters
        y = bytes(c if rng.random() < 0.8 else rng.randrange(255) for c in x)
        for u, v in ((x, prev), (prev, x), (x, y), (y, x)):
            assert deglex_greater(u, v) == (deglex_key(u) > deglex_key(v)), (u, v)
        prev = x


def test_alphabet_parse_and_print():
    ab = affine_alphabet(2)
    assert ab.word("r0 r2 r1") == w(0, 2, 1)
    assert ab.word("1") == b""
    assert ab.text(w(0, 2)) == "r0 r2"
    assert ab.text(b"") == "1"


def test_alphabet_unknown_token():
    ab = affine_alphabet(2)
    with pytest.raises(WordSyntaxError):
        ab.word("r0 r3")


@pytest.mark.parametrize("name", ["1", "a=b", "=", "a#", "#", "", "a b", " a"])
def test_alphabet_rejects_names_that_do_not_round_trip(name):
    # "1" parses as the identity, "=" and "#" are syntax of the file format,
    # and whitespace splits a name into other tokens
    with pytest.raises(ValueError, match="invalid generator name"):
        Alphabet(["a", name])


@pytest.mark.parametrize("names,message", [
    (["a", "b", "a"], "duplicate generator names"),
    ([], "alphabet must be nonempty"),
    ([f"g{i}" for i in range(256)], "alphabet too large"),
], ids=["duplicate", "empty", "256-names"])
def test_alphabet_input_checks_raise_their_message(names, message):
    with pytest.raises(ValueError) as exc:
        Alphabet(names)
    assert str(exc.value) == message


def test_alphabet_custom_precedence():
    # first listed is greatest
    ab = Alphabet(["b", "a"])
    assert compare(ab.word("b"), ab.word("a")) == 1

"""The deg-lex normal form computed from the group, as an oracle for the
explicit basis (result 1) and the classification (result 2) at ranks
that enumeration does not reach.  The window model of the group lives in
``reference``, which shares no code with the library.
"""

import functools
import random

import pytest

from affinegsb.affine_basis import g_families
from affinegsb.rewriting import is_reduced, normal_form
from affinegsb.word_classes import classify, marked_components, rebuild
from reference import affine_inversions, group_normal_form, right_descents, times


def length_increasing_walk(n, length, rng):
    """A reduced word of the given length: each letter is a generator
    that is not a right descent of the element read so far."""
    window, word = tuple(range(1, n + 2)), []
    for _ in range(length):
        a = rng.choice([a for a in range(n + 1) if a not in right_descents(window)])
        window = times(window, a)
        word.append(a)
    return bytes(word)


def test_group_normal_form_on_rank_two():
    # r0 r1 r0 = r1 r0 r1, and the deg-lex least of the two starts with r1
    assert group_normal_form(b"\x00\x01\x00", 2) == b"\x01\x00\x01"
    assert group_normal_form(b"\x00\x00", 2) == b""
    # r1 r2 r1 = r2 r1 r2, and the least of the two starts with r2
    assert group_normal_form(b"\x01\x02\x01", 2) == b"\x02\x01\x02"


@pytest.mark.parametrize("n", range(2, 17))
def test_explicit_basis_and_classification_agree_with_the_group(n):
    basis = g_families(n)
    rng = random.Random(1000 + n)
    for _ in range(10):
        word = length_increasing_walk(n, 40 + rng.randrange(21), rng)
        nf = group_normal_form(word, n)
        assert len(nf) == len(word)
        assert normal_form(word, basis) == nf
        assert is_reduced(nf, basis)
        c = classify(nf, n, basis)
        assert c.r0free + c.arranged.word() == nf
        base = rebuild(marked_components(c.arranged))
        assert base.skeleton == c.arranged.skeleton
        assert all(m >= low for m, low in zip(c.arranged.exponents, base.exponents))


@pytest.mark.parametrize("n", range(2, 17))
def test_group_normal_form_length_is_the_affine_inversion_count(n):
    rng = random.Random(2000 + n)
    walks = [length_increasing_walk(n, rng.randrange(61), rng) for _ in range(10)]
    unreduced = [bytes(rng.randrange(n + 1) for _ in range(rng.randrange(61))) for _ in range(10)]
    for word in walks + unreduced:
        inversions = affine_inversions(functools.reduce(times, word, tuple(range(1, n + 2))))
        assert len(group_normal_form(word, n)) == inversions
        assert word not in walks or len(word) == inversions

"""The deg-lex normal form computed from the group, as an oracle for the
explicit basis (result 1) and the classification (result 2) at ranks
that enumeration does not reach.

An element of the rank-n affine group is its window [x(1), ..., x(n+1)],
with x(i + n + 1) = x(i) + n + 1.  Right multiplication by s_i swaps the
entries at i and i + 1 (s_0 those at 0 and 1), and s_i is a right
descent exactly when that swap lowers the length: x(i) > x(i + 1).
``deglex_key`` ranks r0 > r1 > ... > rn, so the normal form is the
reduced word that is lex-least in that order: it starts with the
highest-index left descent, r0 last.  The left descents of an element
are the right descents of its inverse.  This model shares no code with
the library.
"""

import random

import pytest

from affinegsb.affine_basis import g_families
from affinegsb.rewriting import is_reduced, normal_form
from affinegsb.word_classes import classify, marked_components, rebuild


def times(window, a):
    """The window of x s_a, given the window of x."""
    x = list(window)
    size = len(x)
    if a == 0:
        x[0], x[-1] = x[-1] - size, x[0] + size
    else:
        x[a - 1], x[a] = x[a], x[a - 1]
    return tuple(x)


def right_descents(window):
    """The right descents of x, highest index first and s_0 last."""
    size = len(window)
    out = [i for i in range(size - 1, 0, -1) if window[i - 1] > window[i]]
    if window[-1] - size > window[0]:
        out.append(0)
    return out


def group_normal_form(word, n):
    """The deg-lex normal form of the element a reduced or unreduced word
    names, read off the window of its inverse."""
    inverse = tuple(range(1, n + 2))
    for a in reversed(word):
        inverse = times(inverse, a)
    out = []
    while descents := right_descents(inverse):
        out.append(descents[0])
        inverse = times(inverse, descents[0])
    return bytes(out)


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

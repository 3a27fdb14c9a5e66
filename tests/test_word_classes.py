import gc
import itertools
import random

import pytest

from affinegsb.affine_basis import g_families
from affinegsb.rewriting import is_reduced, normal_form
from affinegsb.series import geometric_factor, series_expand_rational
from affinegsb.word_classes import (
    ArrangedWord,
    Block,
    Classification,
    InvalidSequenceError,
    MarkedSeq,
    NotReducedError,
    _parse_blocks,
    classify,
    enumerate_arranged,
    enumerate_marked,
    marked_components,
    r0free_enumerate,
    rebuild,
    skeletons,
)
from affinegsb.words import RankMismatchError


def test_block_word():
    # r0 r3 r2 r1 r2 at rank 3: k=2, l=2
    assert Block(3, 2, 2).word() == bytes([0, 3, 2, 1, 2])


def test_block_empty_runs():
    assert Block(3, 4, 0).word() == bytes([0])
    assert len(Block(3, 4, 0)) == 1


def test_block_length():
    b = Block(4, 3, 2)
    assert len(b) == len(b.word()) == 1 + 2 + 2


def test_block_tail_type():
    assert Block(3, 4, 0).is_tail_type()
    assert not Block(3, 2, 3).is_tail_type()


def test_block_validation():
    with pytest.raises(InvalidSequenceError):
        Block(3, 1, 0)
    with pytest.raises(InvalidSequenceError):
        Block(3, 2, 4)


@pytest.mark.parametrize("n", range(2, 8))
def test_skeleton_count(n):
    assert len(skeletons(n)) == 2 ** (n - 1)


def test_skeletons_endpoints():
    for chain in skeletons(4):
        assert chain[0] == Block(4, 2, 4)
        last = chain[-1]
        assert last.l - last.k == -1
        assert len(chain) == 4


def test_skeletons_component_lengths():
    # position i component always has length n + i
    n = 3
    for chain in skeletons(n):
        for idx, blk in enumerate(chain):
            assert len(blk) == n + (n - idx)


def test_skeletons_distinct():
    chains = skeletons(5)
    assert len(set(chains)) == len(chains)


def test_empty_arranged():
    aw = rebuild(MarkedSeq(3, (), ()))
    # the all-K_STEP skeleton is the only one valid with all exponents 0
    assert aw.skeleton == (Block(3, 2, 3), Block(3, 3, 3), Block(3, 4, 3))
    assert aw.word() == b""
    assert len(aw) == 0
    assert aw.marked_positions() == []


def test_arranged_word_expansion():
    n = 2
    skel = (Block(2, 2, 2), Block(2, 3, 2))
    aw = ArrangedWord(n, skel, (1, 0), ())
    assert aw.word() == Block(2, 2, 2).word()
    aw2 = ArrangedWord(n, skel, (2, 1), ())
    assert aw2.word() == Block(2, 2, 2).word() * 2 + Block(2, 3, 2).word()


def test_arranged_word_rejects_missing_mark():
    # an L_STEP then K_STEP interior turn forces exponent >= 1
    n = 3
    skel = (Block(3, 2, 3), Block(3, 2, 2), Block(3, 3, 2))
    with pytest.raises(InvalidSequenceError):
        ArrangedWord(n, skel, (0, 0, 1), ())


def test_arranged_word_rejects_incompatible_tail():
    n = 2
    skel = (Block(2, 2, 2), Block(2, 3, 2))
    # tail head k=2 is below the position-1 component's k=3
    with pytest.raises(InvalidSequenceError):
        ArrangedWord(n, skel, (0, 1), (Block(2, 2, 0),))


def test_marked_positions_boundary_rule():
    # final L_STEP with tail head p > k(a_1) marks position 1
    n = 2
    skel = (Block(2, 2, 2), Block(2, 2, 1))
    aw = ArrangedWord(n, skel, (0, 1), ())
    assert aw.marked_positions() == [1]
    with_tail = ArrangedWord(n, skel, (0, 1), (Block(2, 3, 0),))
    assert with_tail.marked_positions() == [1]


def test_marked_positions_boundary_not_marked_when_tail_matches():
    # tail head with p == k(a_1) lifts the boundary mark
    n = 3
    skel = (Block(3, 2, 3), Block(3, 2, 2), Block(3, 2, 1))
    aw = ArrangedWord(n, skel, (0, 0, 0), (Block(3, 2, 0),))
    assert aw.marked_positions() == []


@pytest.mark.parametrize("enumerate_words", [enumerate_marked, enumerate_arranged, r0free_enumerate])
@pytest.mark.parametrize("max_len", [-1, -3])
def test_enumerators_reject_negative_length(enumerate_words, max_len):
    with pytest.raises(ValueError) as exc:
        enumerate_words(2, max_len)
    assert str(exc.value) == f"degree {max_len} is negative"


def test_r0free_enumerate_small():
    words = r0free_enumerate(2, 4)
    assert b"" in words
    assert bytes([1]) in words and bytes([2]) in words
    assert bytes([2, 1]) in words and bytes([1, 2]) in words
    assert bytes([2, 1, 2]) in words
    assert bytes([1, 2, 1]) not in words
    assert len(words) == len(set(words))


@pytest.mark.parametrize("n", [2, 3])
def test_r0free_enumerate_is_reduced_language(n, affine2_basis, affine3_basis):
    basis = affine2_basis if n == 2 else affine3_basis
    max_len = 7
    expected = set()
    frontier = [b""]
    while frontier:
        expected.update(frontier)
        frontier = [
            w + bytes([c])
            for w in frontier
            for c in range(1, n + 1)
            if len(w) < max_len and is_reduced(w + bytes([c]), basis)
        ]
    assert set(r0free_enumerate(n, max_len)) == expected


def test_r0free_count_is_factorial_limit():
    # with max_len large enough the language is the whole finite group
    assert len(r0free_enumerate(3, 100)) == 24


@pytest.mark.parametrize("n", [2, 3])
def test_enumerate_arranged_words_distinct_and_reduced(
    n, affine2_basis, affine3_basis
):
    basis = affine2_basis if n == 2 else affine3_basis
    words = [aw.word() for aw in enumerate_arranged(n, 10)]
    assert len(words) == len(set(words))
    for w in words:
        assert is_reduced(w, basis)


@pytest.mark.parametrize("n", [2, 3])
def test_classification_bijection(n, affine2_basis, affine3_basis):
    # every reduced word of length <= L splits uniquely as
    # (r0-free word) . (arranged word), and every such product is reduced
    basis = affine2_basis if n == 2 else affine3_basis
    max_len = 10 if n == 2 else 9
    reduced = set()
    frontier = [b""]
    while frontier:
        reduced.update(frontier)
        frontier = [
            w + bytes([c])
            for w in frontier
            for c in range(n + 1)
            if len(w) < max_len and is_reduced(w + bytes([c]), basis)
        ]
    products = {}
    for u in r0free_enumerate(n, max_len):
        for aw in enumerate_arranged(n, max_len - len(u)):
            w = u + aw.word()
            assert w not in products, w
            products[w] = (u, aw)
    assert set(products) == reduced


@pytest.mark.parametrize("n", [2, 3])
def test_classify_roundtrip(n, affine2_basis, affine3_basis):
    basis = affine2_basis if n == 2 else affine3_basis
    max_len = 9
    frontier = [b""]
    while frontier:
        for w in frontier:
            c = classify(w, n, basis=basis)
            assert c.r0free + c.arranged.word() == w
            assert b"\x00" not in c.r0free
        frontier = [
            w + bytes([s])
            for w in frontier
            for s in range(n + 1)
            if len(w) < max_len and is_reduced(w + bytes([s]), basis)
        ]


def test_classify_rejects_unreduced(explicit2):
    with pytest.raises(NotReducedError) as exc:
        classify(bytes([1, 1]), 2, explicit2)
    assert exc.value.position == 0
    assert exc.value.rule.lhs == bytes([1, 1])


def test_classify_reports_position(explicit2):
    with pytest.raises(NotReducedError) as exc:
        classify(bytes([2, 0, 0]), 2, explicit2)
    assert exc.value.position == 1


def test_classify_rejects_symbol_outside_alphabet(explicit2):
    # r1 r1 is a leading word before it, but a symbol outside the alphabet
    # is a rank mismatch wherever it stands
    with pytest.raises(RankMismatchError):
        classify(bytes([1, 1, 2, 7]), 2, explicit2)


def test_classify_rejects_basis_of_other_rank(explicit3):
    # r3 is reduced under g_families(3) but is not a symbol of rank 2
    with pytest.raises(RankMismatchError, match="basis over 4 symbols, rank 2 needs 3"):
        classify(b"\x03", 2, explicit3)


def test_classify_empty_word(explicit3):
    c = classify(b"", 3, explicit3)
    assert c.r0free == b""
    assert c.arranged == rebuild(MarkedSeq(3, (), ()))


@pytest.mark.parametrize("n,max_len,count", [(2, 14, 64), (3, 12, 102), (4, 11, 121)])
def test_classify_inverts_enumeration(n, max_len, count):
    # classify recovers skeleton, exponents and chain, not only the word
    arranged = enumerate_arranged(n, max_len)
    assert len(arranged) == count
    basis = g_families(n)
    for aw in arranged:
        assert classify(aw.word(), n, basis) == Classification(b"", aw)


def test_marked_components_roundtrip_on_marked_seqs():
    # rebuild is a right inverse of marked_components
    for n in (2, 3):
        for ms in enumerate_marked(n, 12):
            aw = rebuild(ms)
            assert marked_components(aw) == ms
            back = marked_components(aw)
            assert back.marks == ms.marks and back.chain == ms.chain


def test_rebuild_identity_on_minimal_arranged():
    # arranged words whose exponents are exactly the marking minimum
    for n in (2, 3):
        for aw in enumerate_arranged(n, 10):
            marked = set(aw.marked_positions())
            minimal = all(
                aw.exponent_at(pos) == (1 if pos in marked else 0)
                for pos in range(1, n + 1)
            )
            if minimal:
                assert rebuild(marked_components(aw)) == aw


def test_marked_seq_validation():
    with pytest.raises(InvalidSequenceError):
        MarkedSeq(3, (Block(3, 3, 2), Block(3, 2, 1)), ())
    with pytest.raises(InvalidSequenceError):
        MarkedSeq(3, (Block(3, 2, 3),), ())  # l = n not allowed for a mark


K_SKELETON = (Block(2, 2, 2), Block(2, 3, 2))  # the rank-2 skeleton of one K_STEP


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: ArrangedWord(2, K_SKELETON, (0,), ()),
                 "skeleton and exponents must have length n", id="arranged-lengths"),
    pytest.param(lambda: ArrangedWord(2, (Block(2, 3, 2), Block(2, 3, 1)), (0, 0), ()),
                 "skeleton must start at Block(2, n)", id="arranged-start"),
    pytest.param(lambda: ArrangedWord(2, K_SKELETON, (-1, 0), ()),
                 "exponents must be >= 0", id="arranged-negative-exponent"),
    pytest.param(lambda: ArrangedWord(2, K_SKELETON, (0, 0), (Block(2, 2, 2),)),
                 "invalid tail chain", id="arranged-chain"),
    pytest.param(lambda: ArrangedWord(2, (Block(2, 2, 2), Block(2, 3, 1)), (0, 0), ()),
                 "invalid chain step Block(n=2, k=2, l=2) -> Block(n=2, k=3, l=1)",
                 id="arranged-chain-step"),
    pytest.param(lambda: MarkedSeq(3, (Block(3, 4, 0),), ()),
                 "marks must be component-shaped blocks", id="marked-tail-shaped-mark"),
    pytest.param(lambda: MarkedSeq(3, (), (Block(3, 2, 2),)),
                 "invalid tail chain", id="marked-chain"),
    pytest.param(lambda: MarkedSeq(3, (Block(3, 2, 2),), (Block(3, 2, 0),)),
                 "last mark incompatible with tail head", id="marked-head"),
])
def test_sequence_input_checks_raise_their_message(build, message):
    with pytest.raises(InvalidSequenceError) as exc:
        build()
    assert str(exc.value) == message


def test_rebuild_rejects_mark_of_other_rank():
    with pytest.raises(InvalidSequenceError, match="rank 3"):
        MarkedSeq(3, (Block(4, 3, 2),), ())


def test_arranged_word_rejects_blocks_of_other_rank():
    skel = skeletons(3)[0]
    middle = skel[1]
    # same k and l, so the K/L steps alone cannot tell the ranks apart
    other = skel[:1] + (Block(4, middle.k, middle.l),) + skel[2:]
    with pytest.raises(InvalidSequenceError, match="rank 3"):
        ArrangedWord(3, other, (1, 1, 1), ())
    with pytest.raises(InvalidSequenceError, match="rank 3"):
        ArrangedWord(3, skel, (1, 1, 1), (Block(4, 5, 0),))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_parse_blocks_accepts_exactly_the_block_words(n):
    words = {
        Block(n, k, l).word(): Block(n, k, l)
        for k in range(2, n + 2)
        for l in range(n + 1)
    }
    for size in range(n + 3):
        for seg in itertools.product(range(1, n + 1), repeat=size):
            w = b"\x00" + bytes(seg)
            if w in words:
                assert _parse_blocks(w, n) == [words[w]]
            else:
                with pytest.raises(InvalidSequenceError, match="at position 0 "):
                    _parse_blocks(w, n)


def test_enumerate_marked_lengths():
    seqs = enumerate_marked(2, 8)
    lengths = sorted(len(m) for m in seqs)
    assert lengths[0] == 0
    assert all(a <= b for a, b in zip(lengths, lengths[1:]))
    words = [m.word() for m in seqs]
    assert len(words) == len(set(words))


def test_classify_agrees_with_normal_form(affine2_basis):
    # classifying the normal form of a random word always succeeds
    rng = random.Random(5)
    for _ in range(200):
        w = bytes(rng.randrange(3) for _ in range(rng.randrange(12)))
        nf = normal_form(w, affine2_basis)
        c = classify(nf, 2, basis=affine2_basis)
        assert c.r0free + c.arranged.word() == nf


def test_enumeration_leaves_no_garbage():
    gc.collect()
    gc.disable()
    try:
        enumerate_arranged(3, 8)
        enumerate_marked(3, 8)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", range(2, 7))
def test_arranged_words_are_marked_sequences_with_free_exponents(n):
    # by length: arranged = marked * prod_{i=n+1..2n} 1/(1 - x^i), the
    # skeleton's component lengths being n+1..2n
    degree = 16
    marked = [0] * (degree + 1)
    for ms in enumerate_marked(n, degree):
        marked[len(ms)] += 1
    arranged = [0] * (degree + 1)
    for aw in enumerate_arranged(n, degree):
        arranged[len(aw)] += 1
        base = rebuild(marked_components(aw))
        assert (base.skeleton, base.chain) == (aw.skeleton, aw.chain)
        assert all(m >= low for m, low in zip(aw.exponents, base.exponents))
    factors = [geometric_factor(i, degree).coefficients for i in range(n + 1, 2 * n + 1)]
    assert arranged == list(series_expand_rational(marked, factors, degree).coefficients)

import gc
import math
import random

import pytest

from affinegsb.partitions import (
    BasicPartition,
    BoxPartition,
    InvalidSequenceError,
    basic_to_block,
    block_to_basic,
    box_count,
    box_partitions,
    check_connected_seq,
    decompose,
    is_connected,
    oplus,
    q_binomial,
)
from affinegsb.word_classes import Block, MarkedSeq, enumerate_marked


def test_basic_partition_tuple():
    assert BasicPartition(4, 3, 2).tuple() == (3, 1, 1, 0)
    assert BasicPartition(4, 1, 0).tuple() == (1, 0, 0, 0)


def test_basic_partition_size_is_tuple_sum():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for l in range(0, n):
                bp = BasicPartition(n, k, l)
                assert bp.size == sum(bp.tuple())


def test_basic_partition_validation():
    with pytest.raises(InvalidSequenceError):
        BasicPartition(3, 0, 1)
    with pytest.raises(InvalidSequenceError):
        BasicPartition(3, 2, 3)


def test_box_partition_validation():
    with pytest.raises(InvalidSequenceError):
        BoxPartition(3, (1, 2, 0))
    with pytest.raises(InvalidSequenceError):
        BoxPartition(3, (4, 1, 0))
    with pytest.raises(InvalidSequenceError):
        BoxPartition(3, (2, 1))


def test_is_connected():
    assert is_connected(BasicPartition(4, 3, 2), BasicPartition(4, 2, 1))
    assert not is_connected(BasicPartition(4, 3, 2), BasicPartition(4, 3, 1))
    assert not is_connected(BasicPartition(4, 3, 2), BasicPartition(4, 2, 2))


def test_check_connected_seq_raises():
    with pytest.raises(InvalidSequenceError):
        check_connected_seq([BasicPartition(3, 2, 1), BasicPartition(3, 2, 0)])


@pytest.mark.parametrize("seq,message", [
    ([BasicPartition(3, 2, 1), BasicPartition(2, 1, 0)], "mixed ranks in sequence"),
    ([BasicPartition(3, 2, 1), BasicPartition(3, 2, 0)],
     "BasicPartition(n=3, k=2, l=1) is not connected to BasicPartition(n=3, k=2, l=0)"),
], ids=["mixed-ranks", "not-connected"])
def test_check_connected_seq_raises_its_message(seq, message):
    with pytest.raises(InvalidSequenceError) as exc:
        check_connected_seq(seq)
    assert str(exc.value) == message


def test_block_to_basic_reflects_k():
    b = Block(4, 3, 2)
    bp = block_to_basic(b)
    assert (bp.k, bp.l) == (3, 2)
    assert bp.size == len(b)


def test_block_basic_roundtrip():
    for n in (2, 3, 4):
        for k in range(2, n + 2):
            for l in range(0, n):
                b = Block(n, k, l)
                assert basic_to_block(block_to_basic(b)) == b
                assert block_to_basic(b).size == len(b)


def test_block_monotonicity_reverses():
    # rising k on blocks becomes falling k on basic partitions
    b1, b2 = Block(4, 2, 3), Block(4, 4, 1)
    p1, p2 = block_to_basic(b1), block_to_basic(b2)
    assert b1.k < b2.k and p1.k > p2.k
    assert b1.l > b2.l and p1.l > p2.l
    assert is_connected(p1, p2)


def test_oplus_single():
    bp = BasicPartition(4, 3, 2)
    assert oplus([bp]).parts == (3, 1, 1, 0)


def test_oplus_pair():
    # (3,1,1,0) + shift(2,1,0,0) = (3,1,1,0) + (0,2,1,0) = (3,3,2,0)
    seq = [BasicPartition(4, 3, 2), BasicPartition(4, 2, 1)]
    assert oplus(seq).parts == (3, 3, 2, 0)


def test_oplus_preserves_size():
    seq = [BasicPartition(5, 5, 4), BasicPartition(5, 3, 2), BasicPartition(5, 1, 0)]
    assert oplus(seq).size == sum(bp.size for bp in seq)


def test_oplus_empty_rejected():
    with pytest.raises(InvalidSequenceError):
        oplus([])


def test_decompose_example():
    seq = decompose(BoxPartition(4, (3, 3, 2, 0)))
    assert seq == [BasicPartition(4, 3, 2), BasicPartition(4, 2, 1)]


def test_decompose_oplus_roundtrip_exhaustive():
    for n in (2, 3, 4):
        for p in box_partitions(n):
            if p.size == 0:
                continue
            seq = decompose(p)
            assert oplus(seq) == p


def test_oplus_decompose_roundtrip_random_sequences():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(2, 7)
        seq = []
        k = rng.randrange(1, n + 1)
        l = rng.randrange(0, n)
        while True:
            seq.append(BasicPartition(n, k, l))
            if k == 1 or l == 0:
                break
            k2 = rng.randrange(1, k)
            l2 = rng.randrange(0, l)
            if rng.random() < 0.4:
                break
            k, l = k2, l2
        assert decompose(oplus(seq)) == seq


def test_q_binomial_small():
    assert q_binomial(2, 1) == [1, 1]
    assert q_binomial(4, 2) == [1, 1, 2, 1, 1]
    assert q_binomial(3, 0) == [1]
    assert q_binomial(3, 3) == [1]


def test_q_binomial_symmetry_and_degree():
    for m in range(0, 9):
        for r in range(0, m + 1):
            c = q_binomial(m, r)
            assert c == c[::-1]
            assert len(c) == r * (m - r) + 1
            assert sum(c) == math.comb(m, r)
            assert c == q_binomial(m, m - r)


def test_q_binomial_invalid():
    with pytest.raises(ValueError):
        q_binomial(3, 4)


def test_box_partitions_count():
    for n in range(1, 5):
        assert len(box_partitions(n)) == math.comb(2 * n, n)


def recursive_box_partitions(n):
    """Reference enumeration: parts chosen left to right, largest first."""

    def tuples(length, bound):
        if length == 0:
            yield ()
            return
        for x in range(bound, -1, -1):
            for rest in tuples(length - 1, x):
                yield (x,) + rest

    return list(tuples(n, n))


def test_box_partitions_order():
    for n in range(7):
        assert [p.parts for p in box_partitions(n)] == recursive_box_partitions(n), n


def test_box_enumeration_leaves_no_garbage():
    gc.collect()
    gc.disable()
    try:
        box_partitions(4)
        box_count(4, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_box_count_matches_q_binomial():
    for n in range(1, 6):
        coeffs = q_binomial(2 * n, n)
        for size in range(n * n + 1):
            assert box_count(n, size) == coeffs[size], (n, size)
        assert box_count(n, -1) == 0
        assert box_count(n, n * n + 1) == 0


def marked_to_connected(ms):
    """One connected sequence from marks plus chain, via the k reflection."""
    return [block_to_basic(b) for b in ms.marks + ms.chain]


@pytest.mark.parametrize("n", [2, 3])
def test_marked_sequences_biject_with_box_partitions(n):
    # nonempty marked sequences of length <= n*n map bijectively onto
    # nonempty box partitions, matching sizes
    seqs = [ms for ms in enumerate_marked(n, n * n) if len(ms) > 0]
    images = {}
    for ms in seqs:
        p = oplus(marked_to_connected(ms))
        assert p.size == len(ms)
        assert p not in images, (ms, images[p])
        images[p] = ms
    targets = {p for p in box_partitions(n) if p.size > 0}
    assert set(images) == targets


@pytest.mark.parametrize("n", [2, 3])
def test_marked_series_is_q_binomial(n):
    coeffs = q_binomial(2 * n, n)
    counts = [0] * (n * n + 1)
    for ms in enumerate_marked(n, n * n):
        counts[len(ms)] += 1
    assert counts == coeffs

"""Classification of reduced words in the rank-n affine group.

Every reduced word splits as an r0-free part followed by an "arranged"
product of r0-initiated blocks.  A block is r0 followed by a descending
run from rn and an ascending run from r1; arranged words are built from
a component skeleton with exponents and a trailing chain of short
blocks, with marking constraints that make the expansion unique.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .affine_basis import r_range
from .rewriting import find_first_forbidden
from .words import EMPTY, RankMismatchError

K_STEP = "k"  # next component narrows the descending run (k -> k+1)
L_STEP = "l"  # next component shortens the ascending run (l -> l-1)


class NotReducedError(ValueError):
    """A word contains a leading word of the basis as a factor."""

    def __init__(self, word, position, rule):
        super().__init__(
            f"word is not reduced: forbidden factor at position {position}"
        )
        self.word = word
        self.position = position
        self.rule = rule


class InvalidSequenceError(ValueError):
    """A block or marked sequence violates its monotonicity constraints."""


@dataclass(frozen=True)
class Block:
    """The word r0 . (rn ... rk) . (r1 ... rl) at rank n.

    k = n+1 means the descending run is empty, l = 0 the ascending one.
    """

    n: int
    k: int
    l: int

    def __post_init__(self):
        if not (2 <= self.k <= self.n + 1):
            raise InvalidSequenceError(f"block k={self.k} outside [2, {self.n + 1}]")
        if not (0 <= self.l <= self.n):
            raise InvalidSequenceError(f"block l={self.l} outside [0, {self.n}]")

    def word(self):
        n = self.n
        return b"\x00" + r_range(n, self.k, n) + r_range(1, self.l, n)

    def __len__(self):
        return self.n + 2 - self.k + self.l

    def is_tail_type(self):
        # tail blocks are the ones with q - p < -1 (short ascending run)
        return self.l - self.k < -1


def _walk(n, steps):
    """The blocks visited from Block(n, 2, n) by a vector of K_STEPs and L_STEPs."""
    k, l = 2, n
    out = [Block(n, k, l)]
    for s in steps:
        if s == K_STEP:
            k += 1
        else:
            l -= 1
        out.append(Block(n, k, l))
    return tuple(out)


def skeletons(n):
    """All component chains: 2^(n-1) step-choice vectors.

    A chain starts at Block(k=2, l=n) (position n) and takes n-1 steps,
    each either K_STEP or L_STEP, ending at a position-1 component with
    l - k = -1.  Returned as tuples of Blocks, position n first.
    """
    return [_walk(n, steps) for steps in itertools.product((K_STEP, L_STEP), repeat=n - 1)]


def _steps_of(chain):
    # step taken into each component after the first
    steps = []
    for prev, cur in zip(chain, chain[1:]):
        if (cur.k, cur.l) == (prev.k + 1, prev.l):
            steps.append(K_STEP)
        elif (cur.k, cur.l) == (prev.k, prev.l - 1):
            steps.append(L_STEP)
        else:
            raise InvalidSequenceError(f"invalid chain step {prev} -> {cur}")
    return steps


def _strictly_monotone(blocks):
    """k strictly rises and l strictly falls along the blocks."""
    return all(a.k < b.k and a.l > b.l for a, b in zip(blocks, blocks[1:]))


def _chain_ok(chain):
    """Validate a tail chain: strictly widening blocks, all tail-type."""
    return not chain or (chain[0].is_tail_type() and _strictly_monotone(chain))


def _head(chain):
    """(p, q) of the tail head; the empty chain (formal identity) acts as (inf, -1)."""
    return (chain[0].k, chain[0].l) if chain else (float("inf"), -1)


def _split_tail(blocks):
    """(component-shaped prefix, tail chain): the tail starts at the first tail-type block."""
    split = next((i for i, b in enumerate(blocks) if b.is_tail_type()), len(blocks))
    return tuple(blocks[:split]), tuple(blocks[split:])


def _skeleton_through(n, comps, p):
    """The skeleton that passes through the component blocks comps, in order.

    Between components it takes K_STEPs, then L_STEPs, which introduces
    no new marked position.  From the last component (or the top) it
    descends to position 1 without a new mark either: all K_STEPs if the
    tail head's p allows it, otherwise K_STEPs that stop exactly at k = p.
    """
    k, l = 2, n
    steps = []
    for b in comps:
        if b.k < k or b.l > l:
            raise InvalidSequenceError(f"block {b} unreachable in skeleton")
        steps += [K_STEP] * (b.k - k) + [L_STEP] * (l - b.l)
        k, l = b.k, b.l
    k_end, l_end = (l + 1, l) if p > l else (p, p - 1)
    # past k_end already (a tail-shaped block among comps): no K_STEP
    steps += [K_STEP] * (k_end - k) + [L_STEP] * (l - l_end)
    if len(steps) != n - 1:
        raise InvalidSequenceError("blocks do not fill a skeleton")
    return _walk(n, steps)


@dataclass(frozen=True)
class ArrangedWord:
    """A skeleton with exponents followed by a (possibly empty) tail chain.

    ``skeleton`` lists the n components from position n down to 1;
    ``exponents`` aligns with it.  ``chain`` is the tail v-part, empty
    for the formal identity.
    """

    n: int
    skeleton: tuple
    exponents: tuple
    chain: tuple

    def __post_init__(self):
        if any(b.n != self.n for b in (*self.skeleton, *self.chain)):
            raise InvalidSequenceError(f"blocks must have rank {self.n}")
        if len(self.skeleton) != self.n or len(self.exponents) != self.n:
            raise InvalidSequenceError("skeleton and exponents must have length n")
        if self.skeleton[0] != Block(self.n, 2, self.n):
            raise InvalidSequenceError("skeleton must start at Block(2, n)")
        _steps_of(self.skeleton)
        if any(m < 0 for m in self.exponents):
            raise InvalidSequenceError("exponents must be >= 0")
        if not _chain_ok(self.chain):
            raise InvalidSequenceError("invalid tail chain")
        p, q = _head(self.chain)
        a1 = self.skeleton[-1]
        if not (p >= a1.k and q < a1.l):
            raise InvalidSequenceError("tail head incompatible with last component")
        for pos in self.marked_positions():
            if self.exponent_at(pos) < 1:
                raise InvalidSequenceError(
                    f"component at position {pos} must have exponent >= 1"
                )

    def exponent_at(self, pos):
        # position i (1..n) lives at index n - i
        return self.exponents[self.n - pos]

    def marked_positions(self):
        """Positions whose exponent is forced to be >= 1.

        Interior: a component entered by an L_STEP and left by a K_STEP.
        Boundary: position 1 entered by an L_STEP when the tail head has
        p > k.
        """
        n, steps = self.n, _steps_of(self.skeleton)
        marked = [
            n - idx
            for idx in range(1, len(steps))
            if steps[idx - 1] == L_STEP and steps[idx] == K_STEP
        ]
        if steps and steps[-1] == L_STEP and _head(self.chain)[0] > self.skeleton[-1].k:
            marked.append(1)
        return marked

    def word(self):
        parts = []
        for blk, m in zip(self.skeleton, self.exponents):
            parts.append(blk.word() * m)
        for blk in self.chain:
            parts.append(blk.word())
        return b"".join(parts)

    def __len__(self):
        u = sum(len(b) * m for b, m in zip(self.skeleton, self.exponents))
        return u + sum(len(b) for b in self.chain)


def enumerate_arranged(n, max_len):
    """All arranged words of expanded length <= max_len, no duplicates.

    Each is the rebuilt word of its marked sequence with free exponents
    added along the same skeleton.  Raises ValueError for a negative
    max_len, from ``enumerate_marked``.
    """
    out = []
    for ms in enumerate_marked(n, max_len):
        base = rebuild(ms)
        # (exponents of the first positions, length left)
        vectors = [((), max_len - len(ms))]
        for b, low in zip(base.skeleton, base.exponents):
            vectors = [
                (acc + (m,), room - (m - low) * len(b))
                for acc, room in vectors
                for m in range(low, low + room // len(b) + 1)
            ]
        out += [ArrangedWord(n, base.skeleton, acc, ms.chain) for acc, _ in vectors]
    out.sort(key=lambda a: (len(a), a.word()))
    return out


def r0free_enumerate(n, max_len):
    """All r0-free reduced words of length <= max_len.

    Such a word is a product, for i = n down to 1, of an optional
    ascending run r_i ... r_{j_i} with i <= j_i <= n.  Raises ValueError
    for a negative max_len.
    """
    if max_len < 0:
        raise ValueError(f"degree {max_len} is negative")
    words = [EMPTY]
    for i in range(n, 0, -1):
        nxt = []
        for w in words:
            nxt.append(w)
            for j in range(i, n + 1):
                seg = bytes(range(i, j + 1))
                if len(w) + len(seg) <= max_len:
                    nxt.append(w + seg)
        words = nxt
    return sorted((w for w in words if len(w) <= max_len), key=lambda w: (len(w), w))


@dataclass(frozen=True)
class MarkedSeq:
    """The marked components of an arranged word plus its tail chain.

    Marks are listed leftmost first: strictly increasing k, strictly
    decreasing l, with the last mark's k below the tail head's p and the
    head's q below the last mark's l.
    """

    n: int
    marks: tuple
    chain: tuple

    def __post_init__(self):
        if any(b.n != self.n for b in (*self.marks, *self.chain)):
            raise InvalidSequenceError(f"blocks must have rank {self.n}")
        if not _strictly_monotone(self.marks):
            raise InvalidSequenceError("marks must have increasing k, decreasing l")
        for b in self.marks:
            if b.is_tail_type():
                raise InvalidSequenceError("marks must be component-shaped blocks")
            if b.l >= self.n:
                raise InvalidSequenceError("mark l must be < n")
        if not _chain_ok(self.chain):
            raise InvalidSequenceError("invalid tail chain")
        # the empty chain, a formal identity, fits every last mark
        if not _strictly_monotone((*self.marks[-1:], *self.chain[:1])):
            raise InvalidSequenceError("last mark incompatible with tail head")

    def word(self):
        return b"".join(b.word() for b in self.marks) + b"".join(
            b.word() for b in self.chain
        )

    def __len__(self):
        return sum(len(b) for b in self.marks) + sum(len(b) for b in self.chain)


def enumerate_marked(n, max_len):
    """All marked sequences of total expanded length <= max_len.

    A marked sequence is a strictly monotone block sequence (k rising, l
    falling, l < n throughout); the component-shaped prefix gives the
    marks and the rest the tail chain.  Raises ValueError for a negative
    max_len.
    """
    if max_len < 0:
        raise ValueError(f"degree {max_len} is negative")
    blocks = [Block(n, k, l) for k in range(2, n + 2) for l in range(n)]
    # (sequence, length left); the loop visits the pairs it appends
    grown = [((), max_len)]
    for seq, room in grown:
        for b in blocks:
            if len(b) <= room and _strictly_monotone(seq[-1:] + (b,)):
                grown.append((seq + (b,), room - len(b)))
    out = [MarkedSeq(n, *_split_tail(seq)) for seq, _ in grown]
    out.sort(key=lambda m: (len(m), m.word()))
    return out


def marked_components(aw):
    """The MarkedSeq of an arranged word."""
    marks = tuple(
        aw.skeleton[aw.n - pos] for pos in sorted(aw.marked_positions(), reverse=True)
    )
    return MarkedSeq(aw.n, marks, aw.chain)


def _arrange(n, blocks):
    """The arranged word whose blocks, in order, are the given ones.

    The tail chain starts at the first tail-type block.  Each run of
    equal components before it is one exponent of the skeleton through
    the distinct components; every other position gets exponent 0.
    """
    comps, chain = _split_tail(blocks)
    runs = [(b, len(list(run))) for b, run in itertools.groupby(comps)]
    skel = _skeleton_through(n, [b for b, _ in runs], _head(chain)[0])
    exponents = dict(runs)
    expo = tuple(exponents.get(b, 0) for b in skel)
    return ArrangedWord(n, skel, expo, chain)


def rebuild(ms):
    """The unique arranged word with the given marked components and tail.

    Inverse of marked_components: the skeleton through the marks, with
    marked positions at exponent 1 and all others at 0.
    """
    return _arrange(ms.n, ms.marks + ms.chain)


def _parse_blocks(w, n):
    """Split a word that is empty or starts with r0 into its r0-initiated blocks."""
    assert not w or w[0] == 0
    starts = [i for i, c in enumerate(w) if c == 0]
    starts.append(len(w))
    blocks = []
    for s, e in zip(starts, starts[1:]):
        seg = w[s + 1:e]
        # rn..rk ends where r1..rl starts: at the first r1, or at the end
        cut = (seg + b"\x01").index(1)
        k, l = n + 1 - cut, len(seg) - cut
        if k < 2 or l > n or seg != r_range(n, k, n) + r_range(1, l, n):
            raise InvalidSequenceError(
                f"segment at position {s} is not a block: {seg!r}"
            )
        blocks.append(Block(n, k, l))
    return blocks


@dataclass(frozen=True)
class Classification:
    r0free: bytes
    arranged: ArrangedWord


def classify(w, n, basis):
    """Decompose a reduced word into its r0-free prefix and arranged part.

    Raises NotReducedError (with the offending factor's position and rule)
    if the word contains a leading word of ``basis``, i.e. g_families(n),
    and RankMismatchError if ``basis`` is over another alphabet than the
    n + 1 symbols r0..rn.
    """
    if basis.alphabet_size != n + 1:
        raise RankMismatchError(
            f"basis over {basis.alphabet_size} symbols, rank {n} needs {n + 1}")
    hit = find_first_forbidden(w, basis)
    if hit is not None:
        pos, rule = hit
        raise NotReducedError(w, pos, rule)
    cut = w.find(b"\x00")
    if cut < 0:
        cut = len(w)
    return Classification(w[:cut], _arrange(n, _parse_blocks(w[cut:], n)))

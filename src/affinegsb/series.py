"""Exact truncated power series, growth counting, and the factor automaton.

All coefficients are exact Python integers.  Growth counting builds a
deterministic automaton recognizing words that avoid every leading word
of a rule set, then counts accepted words per length by dynamic
programming; a brute-force closure of the defining relations serves as
an independent oracle in tests.  The automaton is the Aho-Corasick
automaton of the leading words (``rewriting.LeadingWordIndex``: a trie
with failure links found breadth-first) restricted to the states reached
without a match, so building it costs O(states * alphabet size).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .rewriting import LeadingWordIndex, _outside_alphabet


@dataclass(frozen=True)
class TruncatedSeries:
    """Integer power series truncated at degree D (inclusive)."""

    coefficients: tuple

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @classmethod
    def from_list(cls, coeffs, degree=None):
        """The series of coeffs, padded with zeros or cut to ``degree``;
        ValueError for a negative degree."""
        coeffs = list(coeffs)
        if degree is None:
            degree = len(coeffs) - 1
        elif degree < 0:
            raise ValueError(f"degree {degree} is negative")
        coeffs = (coeffs + [0] * (degree + 1))[: degree + 1]
        return cls(tuple(coeffs))

    def __getitem__(self, d):
        return self.coefficients[d]

    def div_exact(self, other):
        """Exact series division; the divisor needs a unit constant term.

        Sums only over the divisor's nonzero coefficients.
        """
        d = min(self.degree, other.degree)
        c0 = other[0]
        if c0 == 0:
            raise ZeroDivisionError("divisor has zero constant term")
        terms = [(j, b) for j, b in enumerate(other.coefficients[1 : d + 1], 1) if b]
        out = []
        for i in range(d + 1):
            acc = self[i] - sum(out[i - j] * b for j, b in terms if j <= i)
            q, r = divmod(acc, c0)
            if r:
                raise ValueError(f"division not exact at degree {i}")
            out.append(q)
        return TruncatedSeries.from_list(out, d)

    def tsv(self):
        """degree<TAB>coefficient lines, degree ascending."""
        return "\n".join(f"{d}\t{c}" for d, c in enumerate(self.coefficients))


def geometric_factor(k, degree):
    """1 - x^k as a truncated series; ValueError for k < 1 or a negative degree."""
    if k < 1:
        raise ValueError(f"geometric factor needs k >= 1, got {k}")
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")
    coeffs = [0] * (degree + 1)
    coeffs[0] = 1
    if k <= degree:
        coeffs[k] = -1
    return TruncatedSeries.from_list(coeffs, degree)


def series_expand_rational(numerator, denominator_factors, degree):
    """Expand numerator / prod(denominators) exactly to the given degree.

    The numerator is a coefficient list; each denominator factor is a
    coefficient list with unit constant term.
    """
    s = TruncatedSeries.from_list(numerator, degree)
    for f in denominator_factors:
        s = s.div_exact(TruncatedSeries.from_list(f, degree))
    return s


def poincare_affine_a(n, degree):
    """Growth series of the rank-n affine group, by Bott's formula.

    prod_{i=1..n} (1 + x + ... + x^i) / (1 - x^i) telescopes, since
    (1 + ... + x^i)(1 - x) = 1 - x^(i+1), to (1 + x + ... + x^n) / (1 - x)^n
    (Bott, 1956).  Raises ValueError for n < 1 or a negative degree.
    """
    if n < 1:
        raise ValueError(f"affine growth series needs rank >= 1, got {n}")
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")
    one_minus_x = geometric_factor(1, degree).coefficients
    return series_expand_rational([1] * (n + 1), [one_minus_x] * n, degree)


class FactorAutomaton:
    """Deterministic automaton accepting words avoiding a set of factors.

    Built from the ``LeadingWordIndex`` (Aho-Corasick automaton) of the
    forbidden words: its states are the prefixes of those words, and its
    transitions, completed along failure links, follow the longest suffix
    of the input that is still such a prefix.  The states kept are those
    reachable from the empty prefix without a match, numbered
    breadth-first, i.e. by ascending (length, bytes) of their prefixes;
    every transition into a match goes to the absorbing ``dead`` state.
    A prefix matches when its id is negative.
    Cost: O(total length of the forbidden words + states * alphabet_size).
    Raises ValueError for an empty forbidden word and RankMismatchError
    for a symbol outside the alphabet.
    """

    def __init__(self, forbidden, alphabet_size):
        index = LeadingWordIndex(forbidden, alphabet_size)
        self.alphabet_size = alphabet_size
        number = [0] + [-1] * (len(index.goto) - 1)
        live = [0]
        for s in live:
            for t in index.goto[s]:
                if t >= 0 and number[t] < 0:
                    number[t] = len(live)
                    live.append(t)
        self.start, self.dead = 0, len(live)
        number = [self.dead if k < 0 else k for k in number]
        table = [list(map(number.__getitem__, index.goto[s])) for s in live]
        table.append([self.dead] * alphabet_size)  # dead state is absorbing
        self.table = table

    @property
    def state_count(self):
        return len(self.table)

    def accepts(self, w):
        """True if w avoids every forbidden word.

        Reads all of w (the dead state absorbs), so a symbol outside the
        alphabet raises RankMismatchError wherever it stands.
        """
        s = self.start
        try:
            for c in w:
                s = self.table[s][c]
        except IndexError:
            raise _outside_alphabet(w, self.alphabet_size) from None
        return s != self.dead

    def count_by_length(self, max_len):
        """Number of accepted words of each length 0..max_len, exact.

        Follows only transitions between live states (the dead state, the
        last row, absorbs).  The states with exactly one live source lead
        the count vector, so a degree is one ``itemgetter`` call for them
        and one summed ``itemgetter`` per other state; two zero slots lead
        the vector and every gather, so each gather returns a tuple.
        Raises ValueError for a negative max_len.
        """
        if max_len < 0:
            raise ValueError(f"degree {max_len} is negative")
        sources = [[] for _ in self.table]
        for s, row in enumerate(self.table[:self.dead]):
            for t in row:
                sources[t].append(s)
        order = sorted(range(self.dead), key=lambda t: len(sources[t]) != 1)
        slot = {t: i for i, t in enumerate(order, 2)}
        gathers = [[slot[s] for s in sources[t]] for t in order]
        single = itemgetter(0, 1, *(g[0] for g in gathers if len(g) == 1))
        hubs = [itemgetter(0, 1, *g) for g in gathers if len(g) != 1]
        counts = [0, 0, *(int(t == self.start) for t in order)]
        out = [1]
        for _ in range(max_len):
            counts = single(counts) + tuple([sum(g(counts)) for g in hubs])
            out.append(sum(counts))
        return out


def count_reduced(rs, max_len):
    """Growth series of words avoiding every leading word of the rule set.

    For a completed basis this counts group elements by length.  Raises
    ValueError for a negative max_len, from ``count_by_length``.
    """
    auto = FactorAutomaton(rs.leading_words(), rs.alphabet_size)
    return TruncatedSeries.from_list(auto.count_by_length(max_len), max_len)


def bfs_count_oracle(p, max_len):
    """Count equivalence classes of words by minimal length, brute force.

    Builds the closure of the defining relations (applied in both
    directions, at every position) over all words of length <= max_len
    and counts classes by their shortest member.  Test oracle only.
    """
    g = p.alphabet.size
    rewrites = []
    for u, v in p.relations:
        rewrites.append((u, v))
        rewrites.append((v, u))

    parent = {}

    def find(w):
        root = w
        while parent[root] is not root:
            root = parent[root]
        while parent[w] is not root:
            parent[w], w = root, parent[w]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra is not rb:
            # keep the deg-lex-smaller root so minimal lengths are easy
            if (len(ra), ra) <= (len(rb), rb):
                parent[rb] = ra
            else:
                parent[ra] = rb

    words = [b""]
    parent[b""] = b""
    frontier = [b""]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for c in range(g):
                w2 = w + bytes([c])
                parent[w2] = w2
                nxt.append(w2)
        words.extend(nxt)
        frontier = nxt

    for w in words:
        for u, v in rewrites:
            if not u:
                if len(w) + len(v) <= max_len:
                    for pos in range(len(w) + 1):
                        union(w, w[:pos] + v + w[pos:])
                continue
            start = w.find(u)
            while start >= 0:
                w2 = w[:start] + v + w[start + len(u):]
                if len(w2) <= max_len:
                    union(w, w2)
                start = w.find(u, start + 1)

    by_min_len = {}
    for w in words:
        r = find(w)
        best = by_min_len.get(r)
        if best is None or len(w) < best:
            by_min_len[r] = len(w)
    counts = [0] * (max_len + 1)
    for length in by_min_len.values():
        counts[length] += 1
    return TruncatedSeries.from_list(counts, max_len)

"""Independent oracles for the benchmark.

Nothing here imports affinegsb.  Each answer comes from a different
model than the one the library uses, so a defect in the library cannot
hide behind code it shares with its own check:

- affine permutations in window notation (element, length, descents,
  seeded reduced words) instead of string rewriting;
- closed-form growth series: Solomon's degree product for finite
  Coxeter groups and Bott's formula for affine Weyl groups;
- the q-binomial by its product formula instead of the Pascal recurrence;
- an Aho-Corasick trie for counting words that avoid a set of factors,
  instead of the library's prefix-closure automaton.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Affine permutations of the rank-n affine symmetric group.
#
# An element is the window (w(1), ..., w(N)) with N = n + 1, where
# w(i + N) = w(i) + N.  Generator s_i (1 <= i <= n) swaps positions i and
# i + 1; s_0 swaps positions 0 and 1.  The generator r_i of the library's
# affine presentation is s_i: r_0 is adjacent to r_1 and r_n on the cycle.


def identity_perm(n):
    return tuple(range(1, n + 2))


def times_generator(w, i):
    """The window of w * s_i (s_i applied first, then w)."""
    big_n = len(w)
    out = list(w)
    if i == 0:
        out[0], out[-1] = w[-1] - big_n, w[0] + big_n
    else:
        out[i - 1], out[i] = w[i], w[i - 1]
    return tuple(out)


def perm_of_word(word, n):
    """The affine permutation of a word of generator ids."""
    w = identity_perm(n)
    for i in word:
        w = times_generator(w, i)
    return w


def perm_length(w):
    """Coxeter length: sum over i < j of |floor((w(j) - w(i)) / N)|."""
    big_n = len(w)
    return sum(
        abs((w[j] - w[i]) // big_n) for i in range(big_n) for j in range(i + 1, big_n)
    )


def is_right_descent(w, i):
    """Whether length(w * s_i) < length(w)."""
    if i == 0:
        return w[-1] - len(w) > w[0]
    return w[i - 1] > w[i]


def random_reduced_word(n, length, rng):
    """A reduced word of the given length, one non-descent letter at a time."""
    w = identity_perm(n)
    letters = []
    for _ in range(length):
        # an affine group is infinite, so some generator is never a descent
        i = rng.choice([g for g in range(n + 1) if not is_right_descent(w, g)])
        w = times_generator(w, i)
        letters.append(i)
    return bytes(letters)


def affine_word_text(word):
    """Format generator ids in the library's r0 r1 ... syntax."""
    return " ".join(f"r{i}" for i in word) if word else "1"


# ---------------------------------------------------------------------------
# Polynomials and truncated series as plain coefficient lists.


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def divide_one_minus(series, k):
    """series / (1 - x^k), truncated to the length of series."""
    out = list(series)
    for d in range(k, len(out)):
        out[d] += out[d - k]
    return out


def solomon(degrees):
    """Growth polynomial of a finite Coxeter group: prod (1 + ... + x^(d-1))."""
    poly = [1]
    for d in degrees:
        poly = poly_mul(poly, [1] * d)
    return poly


def bott(degrees, degree):
    """Growth series of the affine Weyl group over a finite one with these degrees.

    W(x) * prod 1 / (1 - x^(d - 1)), truncated at the given degree.
    """
    series = (solomon(degrees) + [0] * (degree + 1))[: degree + 1]
    for d in degrees:
        series = divide_one_minus(series, d - 1)
    return series


def type_a_degrees(n):
    """Degrees of the symmetric group on n + 1 letters (finite type A_n)."""
    return tuple(range(2, n + 2))


def q_binomial(m, r):
    """Gaussian binomial by the product prod_{i=1..r} (1 - x^(m-r+i)) / (1 - x^i)."""
    top = r * (m - r)
    series = [1] + [0] * top
    for i in range(1, r + 1):
        k = m - r + i
        series = [c - (series[d - k] if d >= k else 0) for d, c in enumerate(series)]
    for i in range(1, r + 1):
        series = divide_one_minus(series, i)
    return series


# ---------------------------------------------------------------------------
# Coxeter types of the atlas: diagram edges (i, j, m) with m != 2, and the
# degrees of the finite group (for an affine type, of its finite part).

COXETER_TYPES = {
    "H4": {"rank": 4, "edges": ((0, 1, 5), (1, 2, 3), (2, 3, 3)),
           "degrees": (2, 12, 20, 30), "affine": False},
    "E6": {"rank": 6, "edges": ((0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (2, 5, 3)),
           "degrees": (2, 5, 6, 8, 9, 12), "affine": False},
    "E7": {"rank": 7,
           "edges": ((0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (3, 6, 3)),
           "degrees": (2, 6, 8, 10, 12, 14, 18), "affine": False},
    "~B4": {"rank": 5, "edges": ((0, 2, 3), (1, 2, 3), (2, 3, 3), (3, 4, 4)),
            "degrees": (2, 4, 6, 8), "affine": True},
    "~D4": {"rank": 5, "edges": ((0, 2, 3), (1, 2, 3), (2, 3, 3), (2, 4, 3)),
            "degrees": (2, 4, 4, 6), "affine": True},
    "~F4": {"rank": 5, "edges": ((0, 1, 3), (1, 2, 3), (2, 3, 4), (3, 4, 3)),
            "degrees": (2, 6, 8, 12), "affine": True},
    # small types for the smoke run
    "B3": {"rank": 3, "edges": ((0, 1, 4), (1, 2, 3)),
           "degrees": (2, 4, 6), "affine": False},
    "~C2": {"rank": 3, "edges": ((0, 1, 4), (1, 2, 4)),
            "degrees": (2, 4), "affine": True},
}


def coxeter_matrix(rank, edges):
    """Full Coxeter matrix: 1 on the diagonal, 2 for unlinked pairs."""
    m = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j, v in edges:
        m[i][j] = m[j][i] = v
    return tuple(tuple(row) for row in m)


def coxeter_growth(name, degree):
    """Expected growth coefficients of a type in the atlas, degrees 0..degree."""
    t = COXETER_TYPES[name]
    if t["affine"]:
        return bott(t["degrees"], degree)
    return (solomon(t["degrees"]) + [0] * (degree + 1))[: degree + 1]


# ---------------------------------------------------------------------------
# Words avoiding a set of factors, counted with an Aho-Corasick trie.


def count_avoiding(forbidden, alphabet_size, degree):
    """Number of words of each length 0..degree containing no forbidden factor."""
    goto = [{}]
    hit = [False]
    for f in forbidden:
        s = 0
        for c in f:
            if c not in goto[s]:
                goto.append({})
                hit.append(False)
                goto[s][c] = len(goto) - 1
            s = goto[s][c]
        hit[s] = True
    fail = [0] * len(goto)
    delta = [[0] * alphabet_size for _ in goto]
    queue = [0]
    for s in queue:  # breadth first, so fail[s] is final before s is expanded
        hit[s] = hit[s] or hit[fail[s]]
        for c in range(alphabet_size):
            t = goto[s].get(c)
            if t is None:
                delta[s][c] = delta[fail[s]][c] if s else 0
            else:
                fail[t] = delta[fail[s]][c] if s else 0
                delta[s][c] = t
                queue.append(t)
    counts = [0] * len(goto)
    counts[0] = 1
    out = [1]
    for _ in range(degree):
        nxt = [0] * len(goto)
        for s, k in enumerate(counts):
            if k:
                for t in delta[s]:
                    if not hit[t]:
                        nxt[t] += k
        counts = nxt
        out.append(sum(counts))
    return out


def deglex_greater(u, v):
    """Longer words are greater; equal lengths compare with id 0 greatest."""
    if len(u) != len(v):
        return len(u) > len(v)
    for a, b in zip(u, v):
        if a != b:
            return a < b
    return False

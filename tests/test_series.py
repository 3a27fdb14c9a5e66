import math
import random

import pytest

from affinegsb.affine_basis import g_families
from affinegsb.presentations import (
    INFINITY,
    CoxeterMatrix,
    affine_a,
    finite_a,
    from_coxeter_matrix,
)
from affinegsb.rewriting import Rule, RuleSet, complete, is_reduced
from affinegsb.series import (
    FactorAutomaton,
    TruncatedSeries,
    bfs_count_oracle,
    count_reduced,
    geometric_factor,
    poincare_affine_a,
    series_expand_rational,
)
from affinegsb.words import RankMismatchError


def test_series_from_list_pads_and_truncates():
    s = TruncatedSeries.from_list([1, 2], 4)
    assert s.coefficients == (1, 2, 0, 0, 0)
    t = TruncatedSeries.from_list([1, 2, 3, 4], 1)
    assert t.coefficients == (1, 2)


def product(a, b):
    """The truncated product of two series of one degree, by convolution."""
    d = a.degree
    return TruncatedSeries.from_list(
        [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(d + 1)], d)


def test_div_exact_geometric():
    one = TruncatedSeries.from_list([1], 6)
    s = one.div_exact(geometric_factor(1, 6))
    assert s.coefficients == (1,) * 7
    s2 = one.div_exact(geometric_factor(2, 6))
    assert s2.coefficients == (1, 0, 1, 0, 1, 0, 1)


def test_div_exact_inverts_mul():
    # (1 + 3x + 2x^2 + 7x^3)(1 - x + 4x^2), expanded by hand
    ab = TruncatedSeries.from_list([1, 2, 3, 17, 1, 28], 8)
    b = TruncatedSeries.from_list([1, -1, 4], 8)
    assert ab.div_exact(b).coefficients == (1, 3, 2, 7, 0, 0, 0, 0, 0)


def test_div_exact_inverts_mul_with_sparse_divisors():
    # divisors with constant term +-1 and interior zeros, as 1 - x^i
    rng = random.Random(8)
    for _ in range(200):
        degree = rng.randint(0, 25)
        a = TruncatedSeries.from_list(
            [rng.randint(-9, 9) for _ in range(rng.randint(1, degree + 1))], degree)
        b = [rng.choice((1, -1))] + [
            rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(rng.randint(0, degree))]
        b = TruncatedSeries.from_list(b, degree)
        assert product(a, b).div_exact(b) == a, (a, b)


def test_div_exact_rejects_zero_constant():
    a = TruncatedSeries.from_list([1], 3)
    with pytest.raises(ZeroDivisionError):
        a.div_exact(TruncatedSeries.from_list([0, 1], 3))


def test_div_exact_rejects_inexact():
    a = TruncatedSeries.from_list([1, 1], 3)
    with pytest.raises(ValueError):
        a.div_exact(TruncatedSeries.from_list([2, 1], 3))


def test_series_expand_rational():
    # 1 / ((1-x)(1-x^2)): partition counts with parts in {1, 2}
    s = series_expand_rational([1], [[1, -1], [1, 0, -1]], 6)
    assert s.coefficients == (1, 1, 2, 2, 3, 3, 4)


def test_tsv_format():
    s = TruncatedSeries.from_list([1, 3, 6], 2)
    assert s.tsv() == "0\t1\n1\t3\n2\t6"


def test_poincare_rank2_coefficients():
    s = poincare_affine_a(2, 8)
    assert s.coefficients == (1, 3, 6, 9, 12, 15, 18, 21, 24)


def test_poincare_linear_growth_rank2():
    s = poincare_affine_a(2, 30)
    for d in range(2, 30):
        assert s[d + 1] - s[d] == 3


@pytest.mark.parametrize("n", range(1, 13))
def test_poincare_is_the_product_formula(n):
    # prod_{i=1..n} (1 + x + ... + x^i), multiplied out here, over prod (1 - x^i)
    for degree in (0, 1, 5, 100):
        s = TruncatedSeries.from_list([1], degree)
        for i in range(1, n + 1):
            s = product(s, TruncatedSeries.from_list([1] * (i + 1), degree))
        for i in range(1, n + 1):
            s = s.div_exact(geometric_factor(i, degree))
        assert poincare_affine_a(n, degree) == s, degree


def test_poincare_constant_and_first():
    for n in (2, 3, 4):
        s = poincare_affine_a(n, 4)
        assert s[0] == 1
        assert s[1] == n + 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: poincare_affine_a(3, -1), "degree -1 is negative"),
        (lambda: poincare_affine_a(0, 5), "rank >= 1, got 0"),
        (lambda: FactorAutomaton([b"\x00"], 2).count_by_length(-1), "degree -1 is negative"),
        (lambda: count_reduced(g_families(2), -1), "degree -1 is negative"),
        (lambda: geometric_factor(0, 4), "k >= 1, got 0"),
        (lambda: geometric_factor(-2, 4), "k >= 1, got -2"),
        (lambda: geometric_factor(1, -1), "degree -1 is negative"),
        (lambda: TruncatedSeries.from_list([1, 2], -2), "degree -2 is negative"),
        (lambda: series_expand_rational([1], [[1, -1]], -1), "degree -1 is negative"),
    ],
    ids=["poincare degree", "poincare rank", "count_by_length", "count_reduced",
         "geometric_factor zero", "geometric_factor negative", "geometric_factor degree",
         "from_list degree", "series_expand_rational degree"],
)
def test_negative_degree_or_rank_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_automaton_rejects_factor_words():
    auto = FactorAutomaton([bytes([0, 0]), bytes([1, 0, 1])], 2)
    assert auto.accepts(bytes([0, 1, 0]))
    assert not auto.accepts(bytes([0, 0]))
    assert not auto.accepts(bytes([0, 1, 0, 1]))
    assert auto.accepts(b"")


def test_automaton_counts_match_brute_force():
    forbidden = [bytes([0, 0]), bytes([1, 2, 1]), bytes([2, 1])]
    auto = FactorAutomaton(forbidden, 3)
    counts = auto.count_by_length(7)
    words = [b""]
    for length in range(1, 8):
        brute = 0
        nxt = []
        for w in words:
            for c in range(3):
                w2 = w + bytes([c])
                if not any(f in w2 for f in forbidden):
                    nxt.append(w2)
        words = nxt
        assert counts[length] == len(words), length
    assert counts[0] == 1


def naive_automaton(forbidden, alphabet_size):
    """Reference construction: (table, start, dead, state_count).

    States are the proper prefixes of the forbidden words that contain no
    forbidden word, sorted by (length, bytes); each transition is tested
    against every forbidden word and falls back by dropping first letters.
    """
    prefixes = {b""}
    for f in forbidden:
        for t in range(1, len(f)):
            prefixes.add(f[:t])
    forbidden = set(forbidden)
    live = sorted(
        (p for p in prefixes if not any(f in p for f in forbidden)),
        key=lambda p: (len(p), p),
    )
    index = {p: i for i, p in enumerate(live)}
    dead = len(live)
    table = []
    for p in live:
        row = []
        for c in range(alphabet_size):
            w = p + bytes([c])
            if any(f in w for f in forbidden):
                row.append(dead)
            else:
                while w not in index:
                    w = w[1:]
                row.append(index[w])
        table.append(row)
    table.append([dead] * alphabet_size)
    return table, index[b""], dead, len(table)


def _coxeter_basis(entries):
    return complete(from_coxeter_matrix(CoxeterMatrix(entries)).to_rules())


REFERENCE_CASES = {
    **{f"g_families{n}": lambda n=n: g_families(n) for n in range(2, 8)},
    "B3": lambda: _coxeter_basis(((1, 4, 2), (4, 1, 3), (2, 3, 1))),
    "H3": lambda: _coxeter_basis(((1, 5, 2), (5, 1, 3), (2, 3, 1))),
    "~C2": lambda: _coxeter_basis(((1, 4, 2), (4, 1, 4), (2, 4, 1))),
    # forbidden 00 and 11: no live state has a single live source
    "~A1": lambda: _coxeter_basis(((1, INFINITY), (INFINITY, 1))),
    # forbidden 1: the one live state is its own single source
    "r1 = 1": lambda: RuleSet([Rule(b"\x01", b"")], 2),
}


def _tables(auto):
    return auto.table, auto.start, auto.dead, auto.state_count


def full_table_count(auto, max_len):
    """Reference count: follows every transition, dead ones included."""
    counts = [0] * auto.state_count
    counts[auto.start] = 1
    out = [1]
    for _ in range(max_len):
        nxt = [0] * auto.state_count
        for s, c in enumerate(counts):
            if c:
                for t in auto.table[s]:
                    nxt[t] += c
        nxt[auto.dead] = 0
        counts = nxt
        out.append(sum(counts))
    return out


@pytest.mark.parametrize("name", REFERENCE_CASES)
def test_automaton_matches_reference_on_bases(name):
    rs = REFERENCE_CASES[name]()
    words = sorted(rs.leading_words())
    auto = FactorAutomaton(words, rs.alphabet_size)
    assert _tables(auto) == naive_automaton(words, rs.alphabet_size)
    assert auto.count_by_length(0) == full_table_count(auto, 0) == [1]
    assert auto.count_by_length(30) == full_table_count(auto, 30)


def test_automaton_matches_reference_on_random_sets():
    rng = random.Random(2012)
    for _ in range(300):
        size = rng.randint(1, 4)
        words = [bytes(rng.randrange(size) for _ in range(rng.randint(1, 6)))
                 for _ in range(rng.randint(0, 8))]
        # nested words: a prefix or an inner factor of a word already drawn
        for w in words[: rng.randint(0, 2)]:
            i = rng.randrange(len(w))
            words.append(w[i: rng.randint(i + 1, len(w))])
        words += words[: rng.randint(0, 2)]  # duplicate words
        rng.shuffle(words)
        auto = FactorAutomaton(words, size)
        assert _tables(auto) == naive_automaton(words, size), (words, size)
        assert auto.count_by_length(30) == full_table_count(auto, 30), (words, size)


@pytest.mark.parametrize("forbidden", [[b"\x05"], [b"\x00", b"\x01\x02"]])
def test_automaton_rejects_symbol_outside_alphabet(forbidden):
    with pytest.raises(RankMismatchError):
        FactorAutomaton(forbidden, 2)


@pytest.mark.parametrize("w", [b"\x05", b"\x01\x02", b"\x01\x00\x09", b"\x00\x00\x09"])
def test_accepts_rejects_symbol_outside_alphabet(w):
    auto = FactorAutomaton([b"\x00\x00"], 2)
    with pytest.raises(RankMismatchError):
        auto.accepts(w)


def test_count_when_every_transition_is_dead():
    auto = FactorAutomaton([b"\x00", b"\x01"], 2)
    assert auto.table == [[1, 1], [1, 1]]
    assert auto.count_by_length(3) == [1, 0, 0, 0]


@pytest.mark.parametrize("n", [8, 10, 12])
def test_growth_of_explicit_basis_at_scale(n):
    rs = g_families(n)
    auto = FactorAutomaton(sorted(rs.leading_words()), rs.alphabet_size)
    assert auto.count_by_length(100) == list(poincare_affine_a(n, 100).coefficients)


def test_automaton_needs_forbidden_words():
    # no forbidden word: one state, every word accepted, no dead transition
    auto = FactorAutomaton([], 2)
    assert auto.count_by_length(3) == [1, 2, 4, 8]
    assert auto.count_by_length(30) == full_table_count(auto, 30)
    with pytest.raises(ValueError):
        FactorAutomaton([b""], 2)


@pytest.mark.parametrize("n", [2, 3])
def test_count_reduced_agrees_with_is_reduced(n, affine2_basis, affine3_basis):
    basis = affine2_basis if n == 2 else affine3_basis
    series = count_reduced(basis, 7)
    frontier = [b""]
    for length in range(8):
        assert series[length] == len(frontier), length
        frontier = [
            w + bytes([c])
            for w in frontier
            for c in range(n + 1)
            if is_reduced(w + bytes([c]), basis)
        ]


@pytest.mark.parametrize("n", [2, 3])
def test_count_reduced_matches_poincare(n, affine2_basis, affine3_basis):
    basis = affine2_basis if n == 2 else affine3_basis
    degree = 12
    assert count_reduced(basis, degree).coefficients == poincare_affine_a(
        n, degree
    ).coefficients


def test_count_reduced_finite_group(finite3_basis):
    series = count_reduced(finite3_basis, 10)
    assert sum(series.coefficients) == math.factorial(4)
    assert series[7] == 0


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_agrees_with_automaton(n, affine2_basis, affine3_basis):
    basis = affine2_basis if n == 2 else affine3_basis
    depth = 8 if n == 2 else 6
    oracle = bfs_count_oracle(affine_a(n), depth)
    assert oracle.coefficients == count_reduced(basis, depth).coefficients


def test_oracle_finite_a2():
    oracle = bfs_count_oracle(finite_a(2), 6)
    assert oracle.coefficients == (1, 2, 2, 1, 0, 0, 0)

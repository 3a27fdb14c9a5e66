"""The explicit confluent basis of the rank-n affine presentation.

Besides the defining relations (involutions f1, commuting f2, braid f3,
wrap-around braid f4) the basis consists of ten derived families g1-g10
built from consecutive-index runs.  ``verify_explicit_basis`` checks the
explicit families against machine completion for concrete n;
``certified_basis`` proves them the reduced basis without completion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentations import affine_a
from .rewriting import RuleSet, complete, interreduce, is_gs_basis, make_rule, normal_form


def r_range(i, j, n):
    """The run word between generator indices i and j (inclusive).

    Ascending if i < j, descending if i > j, a single letter if i == j.
    The two conventions (1, 0) and (n, n+1) denote the empty word.
    """
    if (i, j) == (1, 0) or (i, j) == (n, n + 1):
        return b""
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"run indices ({i}, {j}) outside alphabet of rank {n}")
    step = 1 if j >= i else -1
    return bytes(range(i, j + step, step))


def _g_rules(n):
    R = lambda i, j: r_range(i, j, n)
    rules = []
    # g1: a run followed by its own first letter commutes past, shifted up
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            if (i, j) != (0, n):
                rules.append(make_rule(R(i, j) + bytes([i]),
                                       bytes([i + 1]) + R(i, j)))
    # g2
    rules.append(make_rule(R(0, n) + bytes([0, n]),
                           bytes([1]) + R(0, n) + bytes([0])))
    # g3: j < k-1 < n, so k runs from j+2 up to n
    for j in range(2, n + 1):
        for k in range(j + 2, n + 1):
            rules.append(make_rule(bytes([0]) + R(n, k) + bytes([j]),
                                   bytes([j, 0]) + R(n, k)))
    # g4
    for j in range(2, n):
        rules.append(make_rule(bytes([0]) + R(n, j) + bytes([j + 1]),
                               bytes([j, 0]) + R(n, j)))
    # g5
    for k in range(2, n):
        rules.append(make_rule(bytes([0]) + R(n, k) + bytes([0]),
                               bytes([n, 0]) + R(n, k)))
    # g6
    for k in range(2, n + 1):
        for l in range(1, n):
            rules.append(make_rule(
                bytes([0]) + R(n, k) + R(1, l) + R(0, l),
                bytes([n, 0]) + R(n, k) + R(1, l) + R(0, l - 1)))
    # g7
    for k in range(2, n + 1):
        for l in range(1, k - 1):
            rules.append(make_rule(
                bytes([0]) + R(n, k) + R(1, l) + bytes([0]) + R(n, k),
                bytes([1, 0]) + R(n, k) + R(1, l) + bytes([0]) + R(n, k + 1)))
    # g8
    for k in range(3, n + 1):
        for l in range(k - 1, n + 1):
            rules.append(make_rule(
                bytes([0]) + R(n, k) + R(1, l) + bytes([0]) + R(n, k - 1),
                bytes([1, 0]) + R(n, k) + R(1, l) + bytes([0]) + R(n, k)))
    # g9
    for k in range(2, n):
        for j in range(k + 1, n + 1):
            for l in range(1, j - 1):
                rules.append(make_rule(
                    bytes([0]) + R(n, k) + R(1, l) + bytes([0]) + R(n, j) + R(1, l),
                    bytes([n, 0]) + R(n, k) + R(1, l) + bytes([0]) + R(n, j) + R(1, l - 1)))
    # g10
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            for l in range(j - 1, n):
                rules.append(make_rule(
                    bytes([0]) + R(n, k) + R(1, l) + bytes([0]) + R(n, j) + R(1, l + 1),
                    bytes([n, 0]) + R(n, k) + R(1, l) + bytes([0]) + R(n, j) + R(1, l)))
    return rules


def g_families(n):
    """The full explicit rule set (defining relations plus g1-g10) at rank n."""
    defining = affine_a(n).to_rules()
    return RuleSet([*defining.rules, *_g_rules(n)], defining.alphabet_size)


def _window(word, n):
    """The affine permutation of a word as its window [w(1), ..., w(n+1)]
    (Bjorner & Brenti, 2005, 8.3); r0 swaps w(0) = w(n+1) - (n+1) and w(1)."""
    w = list(range(1, n + 2))
    for i in word:
        if i:
            w[i - 1], w[i] = w[i], w[i - 1]
        else:
            w[0], w[-1] = w[-1] - (n + 1), w[0] + (n + 1)
    return w


# the checks of certified_basis, in the order they run; (d) costs the most
_CERTIFICATE = (
    ("(a) both sides of every rule are one affine permutation",
     lambda S, n: all(_window(r.lhs, n) == _window(r.rhs, n) for r in S.rules)),
    ("(b) interreduce leaves the rules unchanged",
     lambda S, n: set(interreduce(S).rules) == set(S.rules)),
    ("(c) the defining relations have equal normal forms",
     lambda S, n: all(normal_form(u, S) == normal_form(v, S)
                      for u, v in affine_a(n).relations)),
    ("(d) is_gs_basis holds", lambda S, n: is_gs_basis(S)[0]),
)


def certified_basis(n):
    """g_families(n), certified on every call to be what ``complete`` returns.

    By (a) and (c) the rules and the defining relations present the same
    group; by (b) and (d) the rules are a reduced Groebner-Shirshov basis,
    which is unique for deg-lex (Composition-Diamond lemma).  The first
    check that fails raises ValueError naming it.
    """
    S = g_families(n)
    for name, holds in _CERTIFICATE:
        if not holds(S, n):
            raise ValueError(f"g_families({n}) fails certificate check {name}")
    return S


@dataclass
class BasisReport:
    """Outcome of comparing machine completion against the explicit families."""

    n: int
    match: bool
    missing: list  # expected (explicit) rules the engine did not produce
    extra: list    # engine rules absent from the explicit families
    computed: RuleSet
    expected: RuleSet


def verify_explicit_basis(n, max_rules=100000, max_degree=64):
    """Complete the defining relations, compare the reduced basis with g_families."""
    computed = complete(affine_a(n).to_rules(), max_rules=max_rules, max_degree=max_degree)
    expected = g_families(n)
    got = set(computed.rules)
    want = set(expected.rules)
    return BasisReport(
        n=n,
        match=(got == want),
        missing=sorted(want - got),
        extra=sorted(got - want),
        computed=computed,
        expected=expected,
    )

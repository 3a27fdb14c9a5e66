import contextlib
import copy
import functools
import heapq
import itertools
import marshal
import math
import os
import pickle
import random
import signal
import threading
from collections import namedtuple

import pytest

from affinegsb import rewriting
from affinegsb.affine_basis import g_families
from affinegsb.presentations import CoxeterMatrix, affine_a, finite_a, from_coxeter_matrix
from affinegsb.rewriting import (
    Ambiguity,
    CompletionLimitError,
    LeadingWordIndex,
    Rule,
    RuleSet,
    ambiguities,
    complete,
    composition_remainder,
    find_first_forbidden,
    interreduce,
    is_gs_basis,
    is_reduced,
    make_rule,
    normal_form,
    reduce_once,
    _Completion,
    _composite,
    _descendants,
    _meet,
    _pair_ambiguities,
)
from affinegsb.series import count_reduced
from affinegsb.words import RankMismatchError
import reference

INVOLUTION = RuleSet([Rule(b"\x00\x00", b"")], 1)


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: make_rule(b"\x00\x01", b"\x00\x01"), "rule sides must differ",
                 id="make_rule-equal-sides"),
    pytest.param(lambda: RuleSet([Rule(b"\x01", b"\x00")], 2),
                 "rule not deg-lex oriented: Rule(lhs=b'\\x01', rhs=b'\\x00')",
                 id="ruleset-not-oriented"),
    pytest.param(lambda: RuleSet([*INVOLUTION.rules, *INVOLUTION.rules], 1),
                 "duplicate rule: Rule(lhs=b'\\x00\\x00', rhs=b'')", id="ruleset-duplicate"),
    pytest.param(lambda: RuleSet([Rule(b"\x01\x01", b"")], 1),
                 "symbol id 1 outside alphabet of size 1", id="ruleset-outside-alphabet"),
    pytest.param(lambda: INVOLUTION.extended(Rule(b"", b"\x00")),
                 "rule not deg-lex oriented: Rule(lhs=b'', rhs=b'\\x00')",
                 id="extended-not-oriented"),
    pytest.param(lambda: INVOLUTION.extended(INVOLUTION.rules[0]),
                 "duplicate rule: Rule(lhs=b'\\x00\\x00', rhs=b'')", id="extended-duplicate"),
    pytest.param(lambda: INVOLUTION.extended(Rule(b"\x00\x01", b"\x00")),
                 "symbol id 1 outside alphabet of size 1", id="extended-outside-alphabet"),
])
def test_rule_input_checks_raise_their_message(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_reduce_once_strictly_decreases():
    rng = random.Random(3)
    rs = affine_a(2).to_rules()
    for _ in range(500):
        w = bytes(rng.randrange(3) for _ in range(rng.randrange(1, 9)))
        nxt = reduce_once(w, rs)
        if nxt is not None:
            assert reference.deglex_key(nxt) < reference.deglex_key(w)


def basis_subset(n, seed):
    """A seeded 80 % of g_families(n): not confluent, so the rule choice
    changes normal forms."""
    basis = g_families(n).rules
    rng = random.Random(seed)
    keep = sorted(rng.sample(range(len(basis)), round(0.8 * len(basis))))
    return RuleSet([basis[k] for k in keep], n + 1)


def assert_reduce_once_matches_scan(rs, rng, words, max_len):
    # follow the reference chain, so that every word on it is compared
    for _ in range(words):
        w = bytes(rng.randrange(rs.alphabet_size) for _ in range(rng.randint(0, max_len)))
        while w is not None:
            nxt = reference.reduce_once_by_scan(w, rs.rules)
            assert reduce_once(w, rs) == nxt, w
            w = nxt


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_reduce_once_matches_scan_over_explicit_basis(n):
    assert_reduce_once_matches_scan(g_families(n), random.Random(n), 40, 60)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_reduce_once_matches_scan_over_basis_subsets(n):
    for seed in range(3):
        rs = basis_subset(n, 2000 * n + seed)
        assert_reduce_once_matches_scan(rs, random.Random(seed), 15, 60)


# two rules share the lhs r0 r1, and r1 r2 and r2 r1 are a prefix and a
# suffix of r1 r2 r1
R22, R121, R12, R21, R01_2, R01_1 = (
    Rule(bytes([2, 2]), b""), Rule(bytes([1, 2, 1]), bytes([2, 1, 2])),
    Rule(bytes([1, 2]), bytes([2])), Rule(bytes([2, 1]), bytes([1])),
    Rule(bytes([0, 1]), bytes([2])), Rule(bytes([0, 1]), bytes([1])),
)


@pytest.mark.parametrize("rules,w,expected", [
    # the factor and the word containing it: the lower index wins, even
    # though r1 r2 r1 is recognized only after r1 r2
    ([R12, R121], [1, 2, 1], [2, 1]),
    ([R121, R12], [1, 2, 1], [2, 1, 2]),
    # a suffix ends with the word containing it
    ([R21, R121], [1, 2, 1], [1, 1]),
    ([R121, R21], [1, 2, 1], [2, 1, 2]),
    # the same lhs twice
    ([R01_2, R01_1], [1, 0, 1], [1, 2]),
    ([R01_1, R01_2], [1, 0, 1], [1, 1]),
    # the lowest index wins wherever it occurs, at its leftmost occurrence
    ([R12, R22], [2, 2, 1, 2, 2, 2], [2, 2, 2, 2, 2]),
    ([R22, R12], [1, 2, 2, 2, 2], [1, 2, 2]),
    # an involution, a word reduced under the explicit basis, and a braid
    ([Rule(b"\x00\x00", b"")], [0, 0], []),
    (g_families(2).rules, [2, 1, 2], None),
    ([R121], [1, 2, 1], [2, 1, 2]),
])
def test_reduce_once_lowest_index_at_leftmost_occurrence(rules, w, expected):
    expected = None if expected is None else bytes(expected)
    assert reduce_once(bytes(w), RuleSet(rules, 3)) == expected


def test_reduce_once_matches_scan_with_shared_and_nested_lhs():
    rng = random.Random(7)
    for rules in itertools.permutations([R22, R121, R12, R21, R01_2, R01_1]):
        assert_reduce_once_matches_scan(RuleSet(rules, 3), rng, 3, 60)


def test_normal_form_involution():
    rs = affine_a(3).to_rules()
    assert normal_form(bytes([0, 0]), rs) == b""


def test_normal_form_wraparound_braid():
    rs = affine_a(2).to_rules()
    assert normal_form(bytes([0, 2, 0]), rs) == bytes([2, 0, 2])


@pytest.mark.parametrize("n", range(2, 9))
def test_normal_form_is_that_of_reduce_once_steps_on_the_explicit_basis(n):
    # g_families(n) is confluent, so the stack pass and the chain of
    # lowest-index leftmost steps reach the same word
    rs = g_families(n)
    rng = random.Random(500 + n)
    for _ in range(60):
        w = bytes(rng.randrange(n + 1) for _ in range(rng.randint(0, 80)))
        assert normal_form(w, rs) == reference.chain_end(w, rs.rules), w


@pytest.mark.parametrize("seed", range(5))
def test_normal_form_under_a_basis_subset_is_reduced_and_names_the_element(seed):
    # basis_subset is not confluent, so the two strategies may part; the
    # pass still ends on a reduced word of the same group element
    rs = basis_subset(4, 6000 + seed)
    rng = random.Random(seed)
    parted = 0
    for _ in range(60):
        w = bytes(rng.randrange(5) for _ in range(rng.randint(0, 60)))
        nf = normal_form(w, rs)
        assert is_reduced(nf, rs), w
        assert reference.group_normal_form(nf, 4) == reference.group_normal_form(w, 4), w
        parted += nf != reference.chain_end(w, rs.rules)
    assert parted


def test_normal_form_tests_uncovered_rules_where_they_end():
    # the shared index covers only r1 r2 -> r0; r0 r1 -> r2 lies past it
    # and ends at the second letter of r0 r1 r2, before r1 r2 ends, so it
    # is the rule applied first, leaving r2 r2 (not confluent: steps of
    # reduce_once apply r1 r2 first and reach r0 r0)
    base = RuleSet([Rule(b"\x01\x02", b"\x00")], 3)
    assert is_reduced(b"", base)  # builds the index of base
    rs = base.extended(Rule(b"\x00\x01", b"\x02"))
    assert rs.index is base.index and rs.index.low[0] == 1
    w = b"\x00\x01\x02"
    assert normal_form(w, rs) == normal_form(w, RuleSet(rs.rules, 3)) == b"\x02\x02"
    assert reference.chain_end(w, rs.rules) == b"\x00\x00"


def test_find_first_forbidden_is_leftmost_start():
    # b ends first, but abc starts first
    b_rule, abc_rule = Rule(b"\x01", b""), Rule(b"\x00\x01\x02", b"")
    assert find_first_forbidden(b"\x00\x01\x02", RuleSet([b_rule, abc_rule], 3)) == (0, abc_rule)


def test_find_first_forbidden_ties_to_lowest_index():
    # same lhs twice: the lower index wins whichever comes first in the text
    aa_one, aa_b = Rule(b"\x00\x00", b""), Rule(b"\x00\x00", b"\x01")
    other = Rule(b"\x01\x01", b"")
    for rules in ([other, aa_one, aa_b], [other, aa_b, aa_one]):
        assert find_first_forbidden(b"\x01\x00\x00", RuleSet(rules, 2)) == (1, rules[1])
    # same start, different lengths: the longer lhs has the lower index and
    # is found only after the shorter one has matched
    ab, abc = Rule(b"\x00\x01", b""), Rule(b"\x00\x01\x02", b"")
    assert find_first_forbidden(b"\x00\x01\x02", RuleSet([abc, ab], 3)) == (0, abc)
    assert find_first_forbidden(b"\x00\x01\x02", RuleSet([ab, abc], 3)) == (0, ab)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_membership_matches_scan_over_explicit_basis(n):
    # a basis subset is not confluent, so the lowest-index match is not
    # always the leftmost one
    for rs in (g_families(n), basis_subset(n, 4000 + n)):
        rng = random.Random(n)
        for _ in range(400):
            w = bytes(rng.randrange(n + 1) for _ in range(rng.randint(0, 40)))
            for x in (w, normal_form(w, rs)):
                expected = reference.find_first_forbidden_by_scan(x, rs.rules)
                assert find_first_forbidden(x, rs) == expected, x
                assert is_reduced(x, rs) == (expected is None), x


def test_membership_rejects_symbol_outside_alphabet(explicit2):
    # in r1 r1 r2 7 a leading word starts before the unknown symbol
    for w in (b"\x01\x05", bytes([1, 1, 2, 7])):
        for query in (is_reduced, find_first_forbidden):
            with pytest.raises(RankMismatchError):
                query(w, explicit2)


def test_reduce_once_rejects_symbol_outside_alphabet(explicit2):
    # r1 r1 is reducible whether the unknown symbol 7 comes before it or
    # after it
    for w in (bytes([1, 7, 1]), bytes([1, 1, 7])):
        for query in (reduce_once, normal_form, is_reduced):
            with pytest.raises(RankMismatchError):
                query(w, explicit2)


def test_normal_form_rejects_symbol_outside_alphabet(explicit2):
    # r1 r1 rewrites away, which must not hide the unknown symbol 9
    for w in (b"\x09\x01\x01", b"\x01\x01\x03"):
        with pytest.raises(RankMismatchError):
            normal_form(w, explicit2)


def test_index_follows_completion_live_rules():
    state = _Completion(2, max_rules=100, max_degree=10)
    state.add_equation(b"\x00\x00", b"")
    assert is_reduced(b"\x01\x01", state.live)  # builds the index of live
    state.add_equation(b"\x01\x01", b"")
    new_rule = state.live.rules[-1]
    assert new_rule.lhs == b"\x01\x01"
    assert not is_reduced(new_rule.lhs, state.live)


def test_extended_lists_an_uncovered_lhs_inside_an_older_one():
    base = RuleSet([Rule(b"\x00\x00\x01", b"\x01")], 2)
    assert is_reduced(b"\x00\x00", base)  # builds the index of base
    rs = base.extended(Rule(b"\x00\x00", b""))
    # the shared index covers only the first rule, and no covered word
    # ends where the new lhs ends inside the first lhs
    assert rs.index is base.index and rs.index.low[0] == 1
    inclusions = [a for a in ambiguities(rs) if a.word == rs.rules[0].lhs]
    assert inclusions == [Ambiguity(0, 1, b"\x00\x00\x01", 0)]
    assert ambiguities(rs) == ambiguities(RuleSet(rs.rules, 2))
    assert is_gs_basis(rs) == is_gs_basis(RuleSet(rs.rules, 2))
    assert reduce_once(b"\x01\x00\x00", rs) == b"\x01"
    with pytest.raises(RankMismatchError):
        reduce_once(b"\x00\x00\x02", rs)


def test_pickles_and_copies_hold_only_the_rules():
    rs = g_families(6)
    before = pickle.dumps(rs)
    assert not is_reduced(rs.rules[0].lhs, rs)  # builds the index of rs
    assert "index" in rs.__dict__
    assert pickle.dumps(rs) == before
    back = pickle.loads(before)
    assert back == rs
    rng = random.Random(11)
    for _ in range(50):
        w = bytes(rng.randrange(7) for _ in range(30))
        assert normal_form(w, back) == normal_form(w, rs)
    assert "index" not in copy.copy(rs).__dict__
    # an extended set shares its parent's index, and its copies do not
    grown = rs.extended(Rule(b"\x06" * 9, b"\x06"))
    assert grown.index is rs.index
    assert "index" not in copy.copy(grown).__dict__


def index_words(rng):
    """Seeded nonempty words over 2 or 3 letters, with a repeated word, a
    word nested in another and a one-letter word among them."""
    size = rng.choice((2, 3))
    words = [bytes(rng.randrange(size) for _ in range(rng.randint(1, 5)))
             for _ in range(rng.randint(1, 6))]
    w = rng.choice(words)
    a = rng.randrange(len(w))
    words += [w[a:rng.randint(a + 1, len(w))], rng.choice(words), bytes([rng.randrange(size)])]
    rng.shuffle(words)
    return words, size


@pytest.mark.parametrize("seed", range(30))
def test_index_layout_matches_brute_force(seed):
    # matching states have the negative ids ~0, ~1, ... and the others
    # 0, 1, ..., each in breadth-first order; low names the lowest index
    # of a word that ends after any text
    words, size = index_words(random.Random(seed))
    index = LeadingWordIndex(words, size)
    prefixes = sorted({w[:t] for w in words for t in range(len(w) + 1)}, key=lambda p: (len(p), p))
    assert len(index.goto) == len(index.low) == len(prefixes)

    def read(text):
        s = 0
        for c in text:
            s = index.goto[s][c]
        return s

    ids = {p: read(p) for p in prefixes}
    matching = [p for p in prefixes if any(p.endswith(w) for w in words)]
    assert [~ids[p] for p in matching] == list(range(len(matching)))
    plain = [p for p in prefixes if p not in matching]
    assert [ids[p] for p in plain] == list(range(len(plain)))
    for length in range(7):
        for text in map(bytes, itertools.product(range(size), repeat=length)):
            s = read(text)
            ends = [k for k, w in enumerate(words) if text.endswith(w)]
            assert (s < 0) == bool(ends), text
            assert index.low[s] == min(ends, default=len(words)), text
            longest = max((p for p in prefixes if text.endswith(p)), key=len)
            assert s == ids[longest], text


@pytest.mark.parametrize("size", [2, 3])
def test_pair_ambiguities_match_slice_loop(size):
    # equal words, self-overlaps, and lj both shorter and longer than li
    rng = random.Random(size)
    fixed = [b"\x00", b"\x00\x00", b"\x00\x00\x00", b"\x00" * 8, b"\x00\x01" * 4,
             b"\x01\x00\x01", b"\x00\x01\x00\x00\x01"]
    seeded = [bytes(rng.randrange(size) for _ in range(rng.randint(1, 8))) for _ in range(150)]
    found = 0
    for li in fixed + seeded:
        expected = reference.pair_ambiguities_by_slices(0, li, 0, li)
        assert _pair_ambiguities(0, li, 0, li) == expected, li
        for lj in fixed + seeded:
            out = _pair_ambiguities(0, li, 1, lj)
            assert out == reference.pair_ambiguities_by_slices(0, li, 1, lj), (li, lj)
            found += len(out)
    assert found


def tangled_rule_set(seed):
    """Seeded rules over 2 or 3 letters that are not interreduced: some
    leading words are factors of earlier ones or equal to one with another
    rhs, and short words over few letters often overlap themselves."""
    rng = random.Random(seed)
    size = rng.choice((2, 3))
    rules = []
    for _ in range(rng.randint(2, 12)):
        if rules and rng.random() < 0.35:
            w = rng.choice(rules).lhs
            a = rng.randrange(len(w))
            u = w[a:rng.randint(a + 1, len(w))]
        else:
            u = bytes(rng.randrange(size) for _ in range(rng.randint(1, 7)))
        rule = Rule(u, bytes(rng.randrange(size) for _ in range(rng.randrange(len(u)))))
        if rule not in rules:
            rules.append(rule)
    return RuleSet(rules, size)


TANGLED = [tangled_rule_set(seed) for seed in range(300)]


def test_tangled_rule_sets_nest_repeat_and_self_overlap():
    # the generator covers every case the ambiguity tables must find
    lhs = [[r.lhs for r in rs.rules] for rs in TANGLED]
    assert sum(len(set(ws)) < len(ws) for ws in lhs) >= 30
    assert sum(any(u != w and u in w for u in ws for w in ws) for ws in lhs) >= 100
    assert sum(any(a.i == a.j for a in ambiguities(rs)) for rs in TANGLED) >= 100


@pytest.mark.parametrize("sets", [
    pytest.param(lambda: TANGLED, id="tangled"),
    pytest.param(lambda: [g_families(n) for n in range(2, 7)], id="explicit"),
    pytest.param(lambda: [complete(H3), complete(F4)], id="completed-H3-F4"),
])
def test_ambiguities_match_all_pairs(sets, monkeypatch):
    # the prefix table and the index pass name exactly the pairs that have
    # an ambiguity, and is_gs_basis finds the witnesses of the sorted list
    empty = []

    def pair_ambiguities(i, li, j, lj):
        out = _pair_ambiguities(i, li, j, lj)
        if not out:
            empty.append((i, j))
        return out

    for rs in sets():
        expected = reference.ambiguities_by_all_pairs(rs.rules)
        monkeypatch.setattr(rewriting, "_pair_ambiguities", pair_ambiguities)
        assert ambiguities(rs) == expected
        witnesses = [a for a in expected if composition_remainder(Ambiguity(*a), rs) is not None
                     and not reference.is_composite(a, rs.rules)]
        assert is_gs_basis(rs) == (not witnesses, witnesses)
        monkeypatch.undo()
        assert empty == [], rs


def test_ambiguities_self_overlap():
    ambs = ambiguities(INVOLUTION)
    assert len(ambs) == 1
    assert ambs[0].word == b"\x00\x00\x00"
    assert ambs[0].offset_j == 1


def test_ambiguities_braid_commute_overlap():
    # braid lhs r1 r2 r1 overlaps commuting lhs r1 r3 at the shared r1
    rs = RuleSet(
        [
            Rule(bytes([1, 2, 1]), bytes([2, 1, 2])),
            Rule(bytes([1, 3]), bytes([3, 1])),
        ],
        4,
    )
    words = [a.word for a in ambiguities(rs)]
    assert bytes([1, 2, 1, 3]) in words


def test_ambiguities_disjoint_alphabets():
    rs = RuleSet(
        [
            Rule(bytes([0, 1]), bytes([4, 4])),
            Rule(bytes([2, 3]), bytes([5, 5])),
        ],
        6,
    )
    assert ambiguities(rs) == []


def test_ambiguities_sorted_by_word():
    rs = affine_a(2).to_rules()
    keys = [reference.deglex_key(a.word) for a in ambiguities(rs)]
    assert keys == sorted(keys)


def test_composition_trivial_involution():
    amb = ambiguities(INVOLUTION)[0]
    assert composition_remainder(amb, INVOLUTION) is None


def test_composition_yields_shifted_run_rule():
    # overlap of the braid rule with a commuting rule produces the run rule
    n = 3
    rs = affine_a(n).to_rules()
    braid = rs.rules.index(make_rule(bytes([0, 1, 0]), bytes([1, 0, 1])))
    comm = rs.rules.index(make_rule(bytes([0, 2]), bytes([2, 0])))
    target = Rule(bytes([0, 1, 2, 0]), bytes([1, 0, 1, 2]))
    found = [
        a
        for a in ambiguities(rs)
        if a.i == braid and a.j == comm and a.word == bytes([0, 1, 0, 2])
    ]
    assert len(found) == 1
    assert composition_remainder(found[0], rs) == target


def test_composition_all_trivial_on_completed_basis(affine2_basis):
    for amb in ambiguities(affine2_basis):
        assert composition_remainder(amb, affine2_basis) is None


def test_complete_already_complete():
    result = complete(INVOLUTION)
    assert set(result.rules) == set(INVOLUTION.rules)


def test_complete_affine2_leading_words(affine2_basis, explicit2):
    assert affine2_basis.leading_words() == explicit2.leading_words()


def test_complete_finite_a2_has_six_elements():
    basis = complete(finite_a(2).to_rules())
    words = [b""]
    frontier = [b""]
    count = 0
    while frontier:
        count += len(frontier)
        nxt = []
        for w in frontier:
            for c in range(2):
                w2 = w + bytes([c])
                if is_reduced(w2, basis):
                    nxt.append(w2)
        frontier = nxt
    assert count == 6


def test_complete_resource_limit_carries_partial_state():
    rs = affine_a(2).to_rules()
    with pytest.raises(CompletionLimitError) as exc:
        complete(rs, max_rules=3)
    assert isinstance(exc.value.partial, RuleSet)


Recording = namedtuple("Recording", "pushed rules message snapshots")


def recorded(state_class, rs, max_degree=64, max_rules=300):
    """Completing rs: every ambiguity pushed, in push order; the rule
    table; the limit message (None if no limit was hit); and every live
    rule set made, each with the index it shares or built.  Made once per
    session for each state class, rule set and pair of limits."""
    return _record(state_class, rs, max_degree, max_rules)


@functools.cache
def _record(state_class, rs, max_degree, max_rules):
    state = state_class(rs.alphabet_size, max_rules=max_rules, max_degree=max_degree)
    pushed, snapshots = [], []
    push, add_equation = state._push, state.add_equation

    def record_push(amb):
        pushed.append(amb)
        push(amb)

    def record_add_equation(u, v):
        add_equation(u, v)
        if not snapshots or snapshots[-1] is not state.live:
            snapshots.append(state.live)

    state._push, state.add_equation = record_push, record_add_equation
    message = None
    try:
        for r in rs.rules:
            state.add_equation(r.lhs, r.rhs)
        state.drain()
    except CompletionLimitError as exc:
        message = str(exc)
    return Recording(tuple(pushed), state.live.rules, message, tuple(snapshots))


SUPERSEDING_RELATIONS = [
    [(b"\x00\x00\x00", b""), (b"\x00\x00", b"")],  # a a a = 1 before a a = 1
    [(b"\x00\x00\x00", b""), (b"\x00\x00", b"\x01")],  # a a a = 1 before a a = b
]


@pytest.mark.parametrize("relations", SUPERSEDING_RELATIONS)
def test_complete_keeps_superseded_rule_and_queues_its_inclusion(relations):
    rs = RuleSet([make_rule(u, v) for u, v in relations], 2)
    # drive the raw completion state, which complete's final interreduce
    # would hide: the first rule stays at index 0 of live, and the first
    # inclusions queued are those of the second lhs in it, at both offsets
    pushed, rules, message, _ = recorded(_Completion, rs)
    assert message is None
    assert rules[0] == rs.rules[0] and rules[1].lhs == b"\x00\x00"
    inclusions = [a for a in pushed if len(a.word) == len(rules[a.i].lhs)]
    assert inclusions[:2] == [Ambiguity(0, 1, rules[0].lhs, p) for p in (0, 1)]
    result = complete(rs)
    assert rs.rules[0] not in result.rules
    assert is_gs_basis(result)[0]
    reversed_rs = RuleSet(rs.rules[::-1], 2)
    assert result.rules == complete(reversed_rs).rules


def coxeter_rules(entries):
    return from_coxeter_matrix(CoxeterMatrix(entries)).to_rules()


# finite types whose completed bases have composite ambiguities
H3 = coxeter_rules(((1, 5, 2), (5, 1, 3), (2, 3, 1)))
H4 = coxeter_rules(((1, 5, 2, 2), (5, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)))
F4 = coxeter_rules(((1, 3, 2, 2), (3, 1, 4, 2), (2, 4, 1, 3), (2, 2, 3, 1)))
I2_7 = coxeter_rules(((1, 7), (7, 1)))

# at recorded's default limits no completion of these cases, nor that of
# affine A5, hits a limit: the largest makes 105 rules, and the longest
# ambiguity has 30 letters
DRAIN_CASES = {
    **{f"affine_a{n}": affine_a(n).to_rules() for n in (2, 3, 4)},
    **{f"finite_a{n}": finite_a(n).to_rules() for n in (2, 3, 4)},
    "B3": coxeter_rules(((1, 4, 2), (4, 1, 3), (2, 3, 1))),
    "~C2": coxeter_rules(((1, 4, 2), (4, 1, 4), (2, 4, 1))),
    "H3": H3,
    "F4": F4,
    "I2(7)": I2_7,
    **{f"pruning{k}": RuleSet([make_rule(u, v) for u, v in rels], 2)
       for k, rels in enumerate(SUPERSEDING_RELATIONS)},
}


@pytest.mark.parametrize("name", DRAIN_CASES)
def test_one_drain_leaves_a_gs_basis(name):
    # every pair of live rules is queued when the later one is added, so
    # the certification after the first drain finds no witness
    run = recorded(_Completion, DRAIN_CASES[name])
    assert run.message is None
    assert is_gs_basis(run.snapshots[-1]) == (True, [])


@pytest.mark.parametrize("name", DRAIN_CASES)
def test_complete_returns_its_certified_reduced_basis(name):
    # the basis complete returns is interreduced and is the one certified
    r = complete(DRAIN_CASES[name])
    assert interreduce(r).rules == r.rules
    assert is_gs_basis(r) == (True, [])


LIVE_CASES = {**DRAIN_CASES, "affine_a5": affine_a(5).to_rules()}


@pytest.mark.parametrize("name", LIVE_CASES)
def test_extended_live_rules_answer_as_a_fresh_rule_set(name):
    # every live rule set completion makes answers as the RuleSet of the
    # same rules built from scratch, and some share an index with up to 8
    # rules past it
    tails = []
    for live in recorded(_Completion, LIVE_CASES[name]).snapshots:
        fresh = RuleSet(live.rules, live.alphabet_size)
        tails.append(len(live) - live.index.low[0])
        rng = random.Random(len(live))
        for _ in range(20):
            w = bytes(rng.randrange(live.alphabet_size) for _ in range(rng.randint(0, 16)))
            for query in (reduce_once, normal_form, is_reduced, find_first_forbidden):
                assert query(w, live) == query(w, fresh), (query.__name__, w)
        assert ambiguities(live) == ambiguities(fresh)
        assert is_gs_basis(live) == is_gs_basis(fresh)
    assert 1 <= max(tails) <= 8


@pytest.mark.parametrize("n", [5, 6])
def test_completion_rebuilds_its_index_once_per_eight_rules(n, monkeypatch):
    # the parent's index is shared while at most 8 rules lie past it, so
    # completing affine A5 and A6 builds 14 and 22 indexes, not 108 and 174
    builds, created = [], []

    class CountingIndex(rewriting.LeadingWordIndex):
        def __init__(self, words, alphabet_size):
            builds.append(len(words))
            super().__init__(words, alphabet_size)

    extended = RuleSet.extended

    def counting_extended(rs, rule):
        created.append(rule)
        return extended(rs, rule)

    monkeypatch.setattr(rewriting, "LeadingWordIndex", CountingIndex)
    monkeypatch.setattr(RuleSet, "extended", counting_extended)
    complete(affine_a(n).to_rules())
    assert len(builds) <= math.ceil(len(created) / 8) + 3


class AllPairsCompletion(_Completion):
    """Completion whose add_equation pairs the new rule with every rule,
    after taking both sides to their ends under ``normalize``."""

    normalize = staticmethod(lambda w, rs: reference.chain_end(w, rs.rules))

    def add_equation(self, u, v):
        u = self.normalize(u, self.live)
        v = self.normalize(v, self.live)
        if u == v:
            return
        rule = make_rule(u, v)
        idx = len(self.live)
        if idx >= self.max_rules:
            raise CompletionLimitError(f"rule limit {self.max_rules} exceeded", self.live)
        self.live = RuleSet(self.live.rules + (rule,), self.live.alphabet_size)
        for k, r in enumerate(self.live.rules):
            for amb in _pair_ambiguities(idx, rule.lhs, k, r.lhs):
                self._push(amb)
            if k != idx:
                for amb in _pair_ambiguities(k, r.lhs, idx, rule.lhs):
                    self._push(amb)


class SerialCompletion(_Completion):
    """Completion whose drain pops one ambiguity at a time and composes it
    against the live rules of that moment."""

    def drain(self):
        while self.pending:
            _, amb = heapq.heappop(self.pending)
            if _composite(amb, self.live):
                continue
            x, y = _descendants(amb, self.live)
            if x != y:
                self.add_equation(x, y)


def random_presentation(seed):
    """Seeded relations over 2 or 3 letters; completion may hit a limit."""
    rng = random.Random(seed)
    size = rng.choice((2, 3))
    rules, count = set(), rng.randint(1, 4)
    while len(rules) < count:
        u = bytes(rng.randrange(size) for _ in range(rng.randint(1, 4)))
        v = bytes(rng.randrange(size) for _ in range(rng.randint(0, 4)))
        if u != v:
            rules.add(make_rule(u, v))
    return RuleSet(sorted(rules), size)


def assert_pushes_as_with_every_live_rule(rs, max_degree=24):
    # the tables and the inclusion scan name exactly the rules the new
    # rule overlaps, so the same ambiguities are queued in the same order,
    # the same rules are created and the same limit is hit; a Recording's
    # first three fields are the pushes, the rules and the message
    expected = recorded(AllPairsCompletion, rs, max_degree)[:3]
    assert recorded(_Completion, rs, max_degree)[:3] == expected
    return expected


@pytest.mark.parametrize("name", DRAIN_CASES)
def test_completion_pushes_as_with_every_live_rule(name):
    # F4 is the one case that pushes an ambiguity over degree 24, and it
    # is checked with that limit
    max_degree = 24 if name == "F4" else 64
    assert assert_pushes_as_with_every_live_rule(DRAIN_CASES[name], max_degree)[0]


@pytest.mark.parametrize("seed", [366, 385, 389])
def test_completion_reduces_equations_by_reduce_once_steps(seed):
    # a relation of these presentations is reducible under the ones before
    # it, and there the stack pass of normal_form ends on another word than
    # the reduce_once chain; completion takes the chain's end, so what it
    # pushes, creates and hits does not depend on normal_form's strategy
    class PassCompletion(AllPairsCompletion):
        normalize = staticmethod(normal_form)

    rs = random_presentation(seed)
    expected = assert_pushes_as_with_every_live_rule(rs)
    assert recorded(PassCompletion, rs, 24)[:3] != expected


def test_completion_pushes_as_with_every_live_rule_on_random_presentations():
    runs = [assert_pushes_as_with_every_live_rule(random_presentation(seed)) for seed in range(40)]
    assert sum(any(len(a.word) == len(rules[a.i].lhs) for a in pushed)
               for pushed, rules, _ in runs) >= 10
    assert sum(message is not None for _, _, message in runs) >= 2


def complete_by_both_drains(rs, max_degree, monkeypatch):
    """complete's rules with the batched drain and with the serial one."""
    batched = complete(rs, max_rules=300, max_degree=max_degree).rules
    with monkeypatch.context() as patch:
        patch.setattr(rewriting, "_Completion", SerialCompletion)
        return batched, complete(rs, max_rules=300, max_degree=max_degree).rules


@pytest.mark.parametrize("name", DRAIN_CASES)
def test_batched_drain_completes_as_the_serial_drain(name, monkeypatch):
    # the reduced basis is unique for the order, however the drain
    # orders its compositions
    batched, serial = complete_by_both_drains(DRAIN_CASES[name], 64, monkeypatch)
    assert batched == serial


def test_batched_drain_completes_as_the_serial_drain_on_random_presentations(monkeypatch):
    # the seeds that hit no limit; on some of them the two drains create
    # their rules in another order
    reordered = 0
    for seed in range(40):
        rs = random_presentation(seed)
        run = recorded(_Completion, rs, 24)
        if run.message is None:
            batched, serial = complete_by_both_drains(rs, 24, monkeypatch)
            assert batched == serial, seed
            reordered += run.rules != recorded(SerialCompletion, rs, 24).rules
    assert reordered


COXETER_CASES = {name: rs for name, rs in LIVE_CASES.items() if not name.startswith("pruning")}


@pytest.mark.parametrize("name", COXETER_CASES)
def test_coxeter_completion_pushes_no_inclusion(name):
    # no new lhs lies inside an older one, so completing a Coxeter
    # presentation queues only proper overlaps
    pushed, rules, message, _ = recorded(_Completion, COXETER_CASES[name])
    assert message is None
    assert all(len(a.word) > len(rules[a.i].lhs) for a in pushed)


def test_degree_limit_names_first_ambiguity_pushed_over_it():
    # H3 first pushes a degree-18 ambiguity over the limit 15, and later
    # ambiguities of degree 16 and 17
    pushed, _, message, _ = recorded(AllPairsCompletion, H3)
    assert message is None
    over = [len(a.word) for a in pushed if len(a.word) > 15]
    assert over[0] == 18 and {16, 17} <= set(over)
    pushed, _, message, _ = recorded(_Completion, H3, 15)
    assert message == "ambiguity degree 18 exceeds limit 15"
    assert len(pushed[-1].word) == 18 and max(len(a.word) for a in pushed[:-1]) <= 15


def test_ambiguity_listing_calls_only_overlapping_pairs(cpus, monkeypatch):
    # deterministic counts for affine A6; pairing every rule with every
    # rule makes 58,482 calls for complete (29,241 of them certifying) and
    # 29,241 for is_gs_basis alone; in one process, so that every call is
    # counted here
    cpus(1)
    calls = []

    def pair_ambiguities(i, li, j, lj):
        out = _pair_ambiguities(i, li, j, lj)
        calls.append(len(out))
        return out

    monkeypatch.setattr(rewriting, "_pair_ambiguities", pair_ambiguities)
    basis = complete(affine_a(6).to_rules())
    assert len(calls) <= 11_496
    calls.clear()
    assert is_gs_basis(basis) == (True, [])
    assert len(calls) <= 5_748 and 0 not in calls


@pytest.mark.parametrize("name", ["affine_a4", "H3", "F4"])
def test_completion_steps_match_rule_scan_and_full_normal_forms(name, monkeypatch):
    # the same rules are created in the same order as with the
    # slice-loop ambiguities, the leftmost-start scan as the
    # reducibility test and the step-by-step descendants, and then also
    # with the two chain ends taken one after the other
    rs = DRAIN_CASES[name]

    def run():
        state = _Completion(rs.alphabet_size, max_rules=100000, max_degree=64)
        for r in rs.rules:
            state.add_equation(r.lhs, r.rhs)
        state.drain()
        return state.live.rules, complete(rs).rules

    rules, basis = run()
    by_slices = reference.pair_ambiguities_by_slices
    monkeypatch.setattr(rewriting, "_pair_ambiguities",
                        lambda *pair: [Ambiguity(*a) for a in by_slices(*pair)])
    monkeypatch.setattr(rewriting, "is_reduced",
                        lambda w, rs: reference.find_first_forbidden_by_scan(w, rs.rules) is None)
    monkeypatch.setattr(rewriting, "_descendants",
                        lambda amb, rs: reference.descendants_by_steps(amb, rs.rules))
    assert run() == (rules, basis)
    monkeypatch.setattr(rewriting, "_descendants",
                        lambda amb, rs: reference.descendants_by_chain_ends(amb, rs.rules))
    assert run() == (rules, basis)


def test_composition_remainder_is_that_of_two_normal_forms():
    nontrivial = 0
    for seed in range(10):
        rs = basis_subset(4, 3000 + seed)
        for amb in ambiguities(rs):
            x, y = reference.descendants_by_chain_ends(amb, rs.rules)
            expected = None if x == y else make_rule(x, y)
            assert composition_remainder(amb, rs) == expected, (seed, amb)
            nontrivial += expected is not None
    assert nontrivial


def steps_past_index(amb, rs):
    """Steps of amb's two full chains that take a rule past rs's index."""
    covered = [r.lhs for r in rs.rules[:rs.index.low[0]]]
    count = 0
    for x in reference.one_step_rewrites(amb, rs.rules):
        while (nxt := reduce_once(x, rs)) is not None:
            count += not any(lhs in x for lhs in covered)
            x = nxt
    return count


def assert_descendants_take_the_steps(rs):
    """_descendants, and _meet taking one word to its end, over rs against
    the step-by-step reference; returns the steps past rs's index."""
    past = 0
    for amb in ambiguities(rs):
        assert _descendants(amb, rs) == reference.descendants_by_steps(amb, rs.rules), amb
        assert _meet(amb.word, b"", rs)[0] == reference.chain_end(amb.word, rs.rules), amb
        past += steps_past_index(amb, rs)
    return past


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_descendants_take_reduce_once_steps_over_the_explicit_basis(n):
    assert_descendants_take_the_steps(g_families(n))


@pytest.mark.parametrize("cases", [
    pytest.param(lambda: recorded(_Completion, DRAIN_CASES["affine_a3"]).snapshots,
                 id="affine_a3"),
    pytest.param(lambda: recorded(_Completion, DRAIN_CASES["affine_a4"]).snapshots[::3],
                 id="affine_a4"),
    pytest.param(lambda: [live for seed in range(40) for live in
                          recorded(_Completion, random_presentation(seed), 24).snapshots[::2]],
                 id="random"),
])
def test_descendants_take_reduce_once_steps_in_the_middle_of_completion(cases):
    # live sets share an index with up to 8 rules past it, so some steps
    # find their rule by the test of the rules past the index
    snapshots = cases()
    assert any(len(live) > live.index.low[0] for live in snapshots)
    assert sum(map(assert_descendants_take_the_steps, snapshots)) > 0


def exhaustively_confluent(rs):
    """The definition: every composition of every ambiguity is trivial."""
    return all(composition_remainder(a, rs) is None for a in ambiguities(rs))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_is_gs_basis_flag_is_exhaustive_on_random_subsets(n):
    # 80 % of an interreduced basis: no inclusions, so every witness is
    # an overlap, and a prime one has no leading word strictly inside
    for seed in range(30):
        rs = basis_subset(n, 1000 * n + seed)
        ok, witnesses = is_gs_basis(rs)
        assert ok == exhaustively_confluent(rs), seed
        assert not any(reference.is_composite(a, rs.rules) for a in witnesses), seed


def test_is_gs_basis_composes_inclusions_with_inner_leading_word():
    # b lies strictly inside abc, yet the inclusion is its only ambiguity
    rs = RuleSet([Rule(b"\x00\x01\x02", b"\x03"), Rule(b"\x01", b"\x04")], 5)
    assert is_gs_basis(rs) == (False, [Ambiguity(0, 1, b"\x00\x01\x02", 1)])


@pytest.mark.parametrize("rs,order,composites", [(H3, 120, 12), (F4, 1152, 41), (I2_7, 14, 2)])
def test_completed_finite_bases_with_composite_ambiguities(rs, order, composites):
    basis = complete(rs)
    assert sum(reference.is_composite(a, basis.rules) for a in ambiguities(basis)) == composites
    assert is_gs_basis(basis) == (True, [])
    assert exhaustively_confluent(basis)
    # the longest elements have 15, 24 and 7 letters
    assert sum(count_reduced(basis, 60).coefficients) == order


def test_interreduce_drops_contained_lhs():
    rs = RuleSet([Rule(b"\x00\x00", b""), Rule(b"\x00\x00\x00", b"\x00")], 1)
    result = interreduce(rs)
    assert result.rules == (Rule(b"\x00\x00", b""),)


def test_interreduce_leaves_every_rhs_irreducible():
    # one pass suffices: the rhs it returns are normal under the result,
    # so a second pass would return the same rules
    rng = random.Random(9)
    for _ in range(2000):
        size = rng.randint(2, 4)
        rules = {}
        for _ in range(rng.randint(1, 8)):
            u = bytes(rng.randrange(size) for _ in range(rng.randint(1, 5)))
            v = bytes(rng.randrange(size) for _ in range(rng.randint(0, len(u))))
            if u != v:
                r = make_rule(u, v)
                rules.setdefault(r.lhs, r)
        result = interreduce(RuleSet(list(rules.values()), size))
        assert all(is_reduced(r.rhs, result) for r in result.rules)
        assert interreduce(result).rules == result.rules


def test_interreduce_matches_explicit_count(affine3_basis, explicit3):
    assert len(affine3_basis) == len(explicit3)


@pytest.mark.parametrize("rs,ok", [
    pytest.param(affine_a(2).to_rules(), False, id="rejects-defining-relations"),
    pytest.param(g_families(3), True, id="accepts-explicit"),
    pytest.param(INVOLUTION, True, id="accepts-involution"),
])
def test_is_gs_basis_accepts_or_rejects(rs, ok):
    flag, witnesses = is_gs_basis(rs)
    assert flag == ok and (witnesses == []) == ok


def serial_gs_basis(rs):
    """is_gs_basis composed in one process: the reference for its forked parts."""
    witnesses = [a for a in rewriting._ambiguities_by_pair(rs)
                 if not _composite(a, rs) and rewriting.composition_remainder(a, rs) is not None]
    witnesses.sort(key=rewriting._by_word)
    return (not witnesses, witnesses)


forking = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


@forking
@pytest.mark.parametrize("name", ["g_families(5)", "H4"])
def test_is_gs_basis_in_two_processes_matches_serial(name, cpus):
    rs = g_families(5) if name == "g_families(5)" else complete(H4, max_degree=160)
    forks = cpus(2)
    assert len(ambiguities(rs)) >= 2 * rewriting._RUN
    assert is_gs_basis(rs) == serial_gs_basis(rs) == (True, [])
    assert len(forks) == 1


@forking
@pytest.mark.parametrize("n,count", [(5, 721), (6, 2337)])
def test_is_gs_basis_shares_find_the_serial_witnesses_on_subsets(n, count, cpus):
    rules = g_families(n).rules
    rng = random.Random(7000 + n)
    rs = RuleSet([r for r in rules if rng.random() < 0.7], n + 1)
    forks = cpus(2)
    ok, witnesses = is_gs_basis(rs)
    assert (ok, witnesses) == serial_gs_basis(rs)
    assert len(witnesses) == count and len(forks) == 1


@forking
def test_is_gs_basis_forks_a_child_per_further_cpu(cpus):
    rs = basis_subset(6, 6006)
    forks = cpus(4)
    assert len(ambiguities(rs)) >= 4 * rewriting._RUN
    assert is_gs_basis(rs) == serial_gs_basis(rs)
    assert len(forks) == 3


@forking
def test_is_gs_basis_reads_a_payload_larger_than_a_pipe_buffer(cpus, monkeypatch):
    # a child replies with whether its run is joined; here its reply is
    # the normal forms of its run instead, which are truthy and, at
    # g_families(6), over 64 KiB
    rs = g_families(6)
    parent, joined, replies = os.getpid(), rewriting._joined, []

    def forms_in_a_child(ambs, rs):
        if os.getpid() == parent:
            return joined(ambs, rs)
        words = sorted({w for a in ambs for w in rewriting._rewrites(a, rs.rules)})
        return rewriting._resumed_normal_forms(words, rs)

    def reply(pipe):
        replies.append(real_reply(pipe))
        return replies[-1]

    real_reply = rewriting._reply
    monkeypatch.setattr(rewriting, "_joined", forms_in_a_child)
    monkeypatch.setattr(rewriting, "_reply", reply)
    forks = cpus(2)
    assert is_gs_basis(rs) == serial_gs_basis(rs) == (True, [])
    assert len(forks) == 1 and len(marshal.dumps(replies[0])) > 65536


@forking
@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_is_gs_basis_reaps_its_children_when_a_share_raises(error, cpus, monkeypatch):
    rs = g_families(5)
    parent = os.getpid()

    def resumed_normal_forms(words, rs):
        raise error("in the child" if os.getpid() != parent else "in the parent")

    monkeypatch.setattr(rewriting, "_resumed_normal_forms", resumed_normal_forms)
    forks = cpus(2)
    # a child's exception never leaves the child
    with pytest.raises(error, match="in the parent"):
        is_gs_basis(rs)
    assert len(forks) == 1


@forking
def test_is_gs_basis_composes_unforked_shares_itself(cpus, monkeypatch):
    rs = basis_subset(6, 6006)
    forks = cpus(4)
    real_fork = os.fork

    def fork_once():
        if forks:
            raise OSError("fork refused")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork_once)
    assert is_gs_basis(rs) == serial_gs_basis(rs)
    assert len(forks) == 1


@forking
def test_is_gs_basis_takes_the_verdict_of_its_child(cpus):
    # without rule 88 of g_families(5) the caller's run, the first half of
    # the listing, is joined, and only the child's run is not
    rules = g_families(5).rules
    rs = RuleSet(rules[:88] + rules[89:], 6)
    ambs = list(rewriting._ambiguities_by_pair(rs))
    half = len(ambs) // 2
    assert rewriting._joined(ambs[:half], rs) and not rewriting._joined(ambs[half:], rs)
    forks = cpus(2)
    ok, witnesses = is_gs_basis(rs)
    assert (ok, witnesses) == serial_gs_basis(rs)
    assert not ok and len(forks) == 1


@forking
@pytest.mark.parametrize("cut", [3, 13], ids=["head", "body"])
def test_is_gs_basis_raises_when_a_child_dies_inside_its_reply(cut, cpus, monkeypatch):
    # the child writes the first cut bytes of a frame (8 of head, then a
    # 26-byte body) and is killed; its parent reads a short head or body
    parent, send = os.getpid(), rewriting._send

    def killed_while_sending(pipe, message):
        if os.getpid() == parent:
            return send(pipe, message)
        data = marshal.dumps([b"x" * 16])
        pipe.write((len(data).to_bytes(8, "little") + data)[:cut])
        pipe.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(rewriting, "_send", killed_while_sending)
    forks = cpus(2)
    with pytest.raises(ChildProcessError, match="child failed before its reply"):
        is_gs_basis(g_families(5))
    assert len(forks) == 1


def sorted_words(rng, size, count, max_len):
    """count seeded words over size letters, a prefix of every third one
    and a repeat of every fifth, sorted."""
    words = [bytes(rng.randrange(size) for _ in range(rng.randint(0, max_len)))
             for _ in range(count)]
    words += [w[:rng.randint(0, len(w))] for w in words[::3]]
    words += words[::5]
    return sorted(words)


def assert_resumed_forms(words, rs):
    assert rewriting._resumed_normal_forms(words, rs) == [normal_form(w, rs) for w in words]


@pytest.mark.parametrize("words", [
    pytest.param([b""], id="empty"),
    pytest.param([b"", b"", b"\0"], id="empty-repeated"),
    pytest.param([b"\1\2\1\2", b"\1\2\1\2\1\2"], id="prefix-of-next"),
    pytest.param([b"\0\1\2\1\0", b"\0\1\2\1\0", b"\0\1\2\1\0", b"\0\1\2\2"],
                 id="repeated-then-shorter-prefix"),
    pytest.param([b"\0\1\2", b"\0\1\2\1\0\1", b"\0\1\2\1\2", b"\0\1\2\2"],
                 id="prefix-then-falling-prefixes"),
])
def test_resumed_normal_forms_are_normal_forms(words, explicit3):
    assert words == sorted(words)
    for rs in (explicit3, basis_subset(3, 17), basis_subset(3, 18)):
        assert_resumed_forms(words, rs)


def test_resumed_normal_forms_match_normal_form_off_confluent_sets():
    # on sets that are not confluent a pass resumed from a wrong snapshot
    # ends on another word; some words start the next word, equal it or
    # share a shorter prefix with it
    rng = random.Random(5)
    sets = [basis_subset(n, 4000 + n) for n in (2, 3, 4)] + TANGLED[:100]
    for rs in sets:
        assert_resumed_forms(sorted_words(rng, rs.alphabet_size, 60, 14), rs)


def test_resumed_normal_forms_index_the_rules_past_a_shared_index():
    # extended sets share an index with up to 8 rules past it
    rng = random.Random(6)
    for seed in range(10):
        rules = list(basis_subset(4, 4100 + seed).rules)
        rng.shuffle(rules)
        rs = RuleSet(rules[:-6], 5)
        rs.index
        for rule in rules[-6:]:
            rs = rs.extended(rule)
        assert rs.index.low[0] == len(rs) - 6
        assert_resumed_forms(sorted_words(rng, 5, 80, 16), rs)


@pytest.mark.parametrize("sets", [
    pytest.param(lambda: TANGLED, id="tangled"),
    pytest.param(lambda: [basis_subset(n, 4200 + n) for n in (3, 4, 5)], id="basis-subsets"),
    pytest.param(lambda: [g_families(n) for n in (2, 3, 4)] + [complete(H3), complete(F4)],
                 id="confluent"),
])
def test_is_gs_basis_flag_by_resumed_forms_at_every_size(sets, monkeypatch):
    # every set takes the normal-form check, which holds exactly when
    # each pair of prime rewrites has one normal_form
    monkeypatch.setattr(rewriting, "_DIRECT", 0)
    for rs in sets():
        primes = [a for a in ambiguities(rs) if not _composite(a, rs)]
        joined = all(normal_form(x, rs) == normal_form(y, rs)
                     for x, y in (rewriting._rewrites(a, rs.rules) for a in primes))
        assert rewriting._joined(primes, rs) == joined
        assert is_gs_basis(rs) == serial_gs_basis(rs)
        assert is_gs_basis(rs)[0] == joined


def traces(cases):
    """The pushes, rules and limit message of completing each (rs, max_degree),
    recorded afresh."""
    return [_record.__wrapped__(_Completion, rs, max_degree, 300)[:3] for rs, max_degree in cases]


@forking
@pytest.mark.parametrize("count", [2, 4])
def test_completion_traces_do_not_depend_on_the_cpus(count, cpus):
    cases = [*((rs, 64) for rs in LIVE_CASES.values()),
             *((random_presentation(seed), 24) for seed in range(40))]
    cpus(1)
    expected = traces(cases)
    forks = cpus(count)
    a5 = list(LIVE_CASES).index("affine_a5")
    assert traces(cases[a5:a5 + 1]) == expected[a5:a5 + 1]
    assert len(forks) == count - 1  # once per drain, a child per further CPU
    assert traces(cases) == expected


def drain_affine_a5(max_rules=300):
    rs = LIVE_CASES["affine_a5"]
    state = _Completion(rs.alphabet_size, max_rules=max_rules, max_degree=64)
    for r in rs.rules:
        state.add_equation(r.lhs, r.rhs)
    state.drain()


def forking_caller(name):
    """A call of is_gs_basis or of the drain that forks with two CPUs."""
    if name == "is_gs_basis":
        return lambda: is_gs_basis(basis_subset(5, 5005))
    return lambda: traces([(LIVE_CASES["affine_a5"], 64)])


# the work of a forked child, and the calls of it that a child makes before
# a planted fault fails it
CHILD_WORK = {"is_gs_basis": ("_resumed_normal_forms", 0), "drain": ("_descendants", 100)}


@forking
@pytest.mark.parametrize("caller", ["is_gs_basis", "drain"])
def test_raises_when_a_child_fails(caller, cpus, monkeypatch):
    parent, in_child, call = os.getpid(), [], forking_caller(caller)
    name, calls = CHILD_WORK[caller]
    work = getattr(rewriting, name)

    def failing(*args):
        if os.getpid() != parent:
            in_child.append(args)
            if len(in_child) > calls:
                raise ValueError("in the child")
        return work(*args)

    monkeypatch.setattr(rewriting, name, failing)
    forks = cpus(2)
    with pytest.raises(ChildProcessError, match="child failed before its reply"):
        call()
    assert len(forks) == 1


@forking
def test_drain_raises_when_its_child_dies_between_two_requests(cpus, monkeypatch):
    forks, reply = cpus(2), rewriting._reply

    def reply_then_kill(replies):
        message = reply(replies)
        os.kill(forks[0], signal.SIGKILL)
        os.waitid(os.P_PID, forks[0], os.WEXITED | os.WNOWAIT)  # dead, left unreaped
        return message

    monkeypatch.setattr(rewriting, "_reply", reply_then_kill)
    with pytest.raises(ChildProcessError, match="child failed before a request"):
        drain_affine_a5()
    assert len(forks) == 1


@forking
def test_drain_reaps_its_child_at_the_rule_limit(cpus):
    # affine A5 forks with 66 live rules and creates 105
    cpus(1)
    with pytest.raises(CompletionLimitError) as serial:
        drain_affine_a5(max_rules=90)
    forks = cpus(2)
    with pytest.raises(CompletionLimitError) as forked:
        drain_affine_a5(max_rules=90)
    assert len(forks) == 1
    assert str(forked.value) == str(serial.value) == "rule limit 90 exceeded"
    assert forked.value.partial.rules == serial.value.partial.rules


@forking
def test_drain_reaps_its_child_on_keyboard_interrupt(cpus, monkeypatch):
    parent, remainder = os.getpid(), rewriting.composition_remainder
    forks = cpus(2)

    def interrupted(amb, rs):
        if forks and os.getpid() == parent:
            raise KeyboardInterrupt
        return remainder(amb, rs)

    monkeypatch.setattr(rewriting, "composition_remainder", interrupted)
    with pytest.raises(KeyboardInterrupt):
        drain_affine_a5()
    assert len(forks) == 1


@forking
def test_drain_composes_every_part_itself_when_its_fork_is_refused(cpus, monkeypatch):
    a5 = [(LIVE_CASES["affine_a5"], 64)]
    cpus(1)
    expected = traces(a5)
    cpus(2)
    refused = []

    def refuse():
        refused.append(True)
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refuse)
    assert traces(a5) == expected
    assert len(refused) == 1  # not tried again for later batches


@forking
def test_drain_child_takes_a_request_and_sends_a_reply_larger_than_a_pipe_buffer(monkeypatch):
    # the drain's child, _serving of its live rules, holds g_families(6)
    # but its last rule; it is sent that rule and every ambiguity, and
    # every prime one is made to fail
    rs = g_families(6)
    monkeypatch.setattr(rewriting, "_descendants", lambda amb, rs: (amb.word, b""))
    ambs = ambiguities(rs)
    request = ([tuple(rs.rules[-1])], [tuple(a) for a in ambs])
    reply = [(k, a.word, b"") for k, a in enumerate(ambs) if not _composite(a, rs)]
    assert min(len(marshal.dumps(request)), len(marshal.dumps(reply))) > 65536
    serve = rewriting._serving(RuleSet(rs.rules[:-1], rs.alphabet_size))
    with rewriting._forked(2, serve) as children:
        [(requests, replies)] = children
        rewriting._request(requests, request)
        assert rewriting._reply(replies) == reply


def refuse_fork():
    raise AssertionError("forked")


def test_is_gs_basis_forks_nothing_with_one_cpu(cpus, monkeypatch):
    rs = g_families(5)
    cpus(1)
    monkeypatch.setattr(os, "fork", refuse_fork, raising=False)
    assert is_gs_basis(rs) == serial_gs_basis(rs) == (True, [])


@pytest.mark.parametrize("name", ["affine_a3", "B3", "~C2"])
def test_small_completions_fork_nothing(name, cpus, monkeypatch):
    # neither the drain nor the certificate forks for these sizes
    rs = DRAIN_CASES[name]
    cpus(2)
    monkeypatch.setattr(os, "fork", refuse_fork, raising=False)
    assert is_gs_basis(complete(rs)) == (True, [])


@contextlib.contextmanager
def second_thread():
    """Keep a second thread running for the length of the block."""
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        yield
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.mark.parametrize("caller", ["is_gs_basis", "drain"])
def test_forks_nothing_beside_a_second_thread(caller, cpus, monkeypatch):
    call = forking_caller(caller)
    cpus(1)
    expected = call()
    cpus(2)
    monkeypatch.setattr(os, "fork", refuse_fork, raising=False)
    with second_thread():
        assert call() == expected


def random_defining_word(rng, n, max_len):
    return bytes(rng.randrange(n + 1) for _ in range(rng.randrange(max_len + 1)))


@pytest.mark.parametrize("n", [2, 3])
def test_relation_invariance_of_normal_forms(n, affine2_basis, affine3_basis):
    basis = affine2_basis if n == 2 else affine3_basis
    relations = affine_a(n).relations
    rng = random.Random(100 + n)
    trials = 0
    while trials < 300:
        w = random_defining_word(rng, n, 10)
        u, v = relations[rng.randrange(len(relations))]
        if rng.random() < 0.5:
            u, v = v, u
        if u:
            positions = []
            start = w.find(u)
            while start >= 0:
                positions.append(start)
                start = w.find(u, start + 1)
            if not positions:
                continue
            p = rng.choice(positions)
            w2 = w[:p] + v + w[p + len(u):]
        else:
            p = rng.randrange(len(w) + 1)
            w2 = w[:p] + v + w[p:]
        trials += 1
        assert normal_form(w, basis) == normal_form(w2, basis)


def test_normal_form_unique_on_completed_basis(affine2_basis):
    w = bytes([1, 2, 1, 2])
    fixpoints = reference.all_rewrite_fixpoints(w, affine2_basis.rules)
    assert fixpoints == {normal_form(w, affine2_basis)}


def test_strategy_independence_on_completed_basis(affine2_basis):
    # every order of rewriting ends on the one normal form, so the
    # rightmost, highest-index strategy does too
    rng = random.Random(42)
    for w in [random_defining_word(rng, 2, 12) for _ in range(300)]:
        fixpoints = reference.all_rewrite_fixpoints(w, affine2_basis.rules)
        assert fixpoints == {normal_form(w, affine2_basis)}, w


def test_complete_idempotent_up_to_interreduction():
    rs = affine_a(2).to_rules()
    once = complete(rs)
    twice = complete(once)
    assert set(interreduce(twice).rules) == set(interreduce(once).rules)


def test_completion_preserves_congruence(affine2_basis, affine3_basis):
    # affine_a(n) is the Coxeter presentation of the group, so two words
    # are congruent under its relations exactly when they name one
    # element, and every rule complete returns equates two such words
    for n, basis in ((2, affine2_basis), (3, affine3_basis), (4, complete(affine_a(4).to_rules()))):
        for rule in basis.rules:
            lhs, rhs = (reference.group_normal_form(w, n) for w in rule)
            assert lhs == rhs, (n, rule)

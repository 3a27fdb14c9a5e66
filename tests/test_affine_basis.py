import re

import pytest

from affinegsb import affine_basis
from affinegsb.affine_basis import (
    certified_basis,
    g_families,
    r_range,
    verify_explicit_basis,
)
from affinegsb.rewriting import (
    Rule,
    RuleSet,
    ambiguities,
    composition_remainder,
    is_gs_basis,
    is_reduced,
    make_rule,
)


def test_r_range_ascending():
    assert r_range(1, 3, 4) == bytes([1, 2, 3])


def test_r_range_descending():
    assert r_range(3, 1, 4) == bytes([3, 2, 1])


def test_r_range_single():
    assert r_range(2, 2, 4) == bytes([2])


def test_r_range_empty_conventions():
    assert r_range(1, 0, 4) == b""
    assert r_range(4, 5, 4) == b""


def test_r_range_out_of_bounds():
    with pytest.raises(ValueError):
        r_range(0, 5, 4)


def test_g_families_counts():
    assert len(g_families(2)) == 9
    assert len(g_families(3)) == 27
    assert len(g_families(4)) == 58


def test_g_families_invalid_rank():
    with pytest.raises(ValueError):
        g_families(1)


def test_g_families_contains_run_shift_rule():
    # the first derived rule at rank 3: r0 r1 r2 r0 rewrites to r1 r0 r1 r2
    rs = g_families(3)
    assert Rule(bytes([0, 1, 2, 0]), bytes([1, 0, 1, 2])) in rs.rules


def test_g_families_contains_double_descent_rule():
    # rank 3, the k=2, l=1 member of the long-descent family:
    # r0 r3 r2 r1 r0 r1 -> r3 r0 r3 r2 r1 r0
    rs = g_families(3)
    assert Rule(bytes([0, 3, 2, 1, 0, 1]), bytes([3, 0, 3, 2, 1, 0])) in rs.rules


def test_g_families_no_duplicate_leading_words():
    for n in (2, 3, 4, 5):
        rs = g_families(n)
        lhs = rs.leading_words()
        assert len(lhs) == len(set(lhs))


def test_g_families_rhs_reduced():
    # a confluent basis is interreduced: no rhs contains any lhs
    for n in (2, 3, 4, 5):
        rs = g_families(n)
        for rule in rs.rules:
            assert is_reduced(rule.rhs, rs), rule


def test_g_families_lhs_proper_factors_reduced():
    # no lhs strictly contains another lhs
    for n in (2, 3, 4):
        rs = g_families(n)
        lhs = rs.leading_words()
        for u in lhs:
            for v in lhs:
                if u != v:
                    assert v not in u or len(v) == len(u)


def test_derivation_chain_braid_commute():
    # composing the braid rule with a commuting rule yields the run-shift
    # rule, for every rank up to 5
    for n in range(3, 6):
        rs = g_families(n)
        target = make_rule(r_range(0, 2, n) + bytes([0]),
                           bytes([1]) + r_range(0, 2, n))
        produced = set()
        defining = RuleSet([r for r in rs.rules if len(r.lhs) <= 3], rs.alphabet_size)
        for amb in ambiguities(defining):
            rem = composition_remainder(amb, defining)
            if rem is not None:
                produced.add(rem)
        assert target in produced


def test_derivation_chain_wraparound():
    # composing the longest run-shift rule with the wrap-around braid
    # yields the exceptional wrap rule, for ranks up to 5
    for n in range(2, 6):
        rs = g_families(n)
        target = make_rule(r_range(0, n, n) + bytes([0, n]),
                           bytes([1]) + r_range(0, n, n) + bytes([0]))
        shift = make_rule(r_range(0, n - 1, n) + bytes([0]),
                          bytes([1]) + r_range(0, n - 1, n))
        wrap = make_rule(bytes([0, n, 0]), bytes([n, 0, n]))
        pair = RuleSet([shift, wrap], rs.alphabet_size)
        produced = {
            composition_remainder(a, pair)
            for a in ambiguities(pair)
        }
        produced.discard(None)
        assert target in produced


@pytest.mark.parametrize("n", [2, 3])
def test_verify_matches_completion(n):
    report = verify_explicit_basis(n)
    assert report.match
    assert report.missing == []
    assert report.extra == []
    assert set(report.computed.rules) == set(report.expected.rules)


def test_verify_detects_tampering(monkeypatch):
    # remove the exceptional wrap rule from the explicit families and
    # check the report names it as missing from the computed side
    import affinegsb.affine_basis as ab

    real = ab.g_families

    def tampered(n):
        rs = real(n)
        dropped = [
            r for r in rs.rules
            if r.lhs != r_range(0, n, n) + bytes([0, n])
        ]
        return RuleSet(dropped, rs.alphabet_size)

    monkeypatch.setattr(ab, "g_families", tampered)
    report = ab.verify_explicit_basis(2)
    assert not report.match
    assert report.missing == []
    assert len(report.extra) == 1
    assert report.extra[0].lhs == r_range(0, 2, 2) + bytes([0, 2])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_explicit_families_are_confluent(n):
    ok, witnesses = is_gs_basis(g_families(n))
    assert ok and witnesses == []


def test_dropping_a_rule_breaks_confluence():
    rs = g_families(2)
    for idx in range(len(rs.rules)):
        rest = RuleSet(rs.rules[:idx] + rs.rules[idx + 1:], rs.alphabet_size)
        ok, _ = is_gs_basis(rest)
        assert not ok, rs.rules[idx]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_certified_basis_is_g_families(n):
    assert certified_basis(n) == g_families(n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_certified_basis_is_what_completion_returns(n):
    assert set(certified_basis(n).rules) == set(verify_explicit_basis(n).computed.rules)


def _reversed_last_rhs(rules):
    return rules[:-1] + [Rule(rules[-1].lhs, rules[-1].rhs[::-1])]


# a tampered rank-2 basis per check, and the checks it fails (the first is named)
@pytest.mark.parametrize("tamper, failing", [
    pytest.param(_reversed_last_rhs, ["(a)", "(b)", "(d)"], id="reversed last rhs"),
    pytest.param(lambda rules: rules + [Rule(b"\x00\x00\x00", b"\x00")], ["(b)"],
                 id="added r0 r0 r0 -> r0"),
    pytest.param(lambda rules: rules[:3], ["(c)"], id="involutions alone"),
    pytest.param(lambda rules: [r for r in rules if r.lhs != r_range(0, 2, 2) + b"\x00\x02"],
                 ["(d)"], id="no g2 rule"),
])
def test_certificate_rejects_tampered_basis(monkeypatch, tamper, failing):
    real = g_families(2)
    basis = RuleSet(tamper(list(real.rules)), real.alphabet_size)
    assert [name[:3] for name, holds in affine_basis._CERTIFICATE
            if not holds(basis, 2)] == failing
    monkeypatch.setattr(affine_basis, "g_families", lambda n: basis)
    with pytest.raises(ValueError, match="check " + re.escape(failing[0])):
        certified_basis(2)

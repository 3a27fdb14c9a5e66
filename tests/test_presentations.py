import pytest

from affinegsb.presentations import (
    CoxeterMatrix,
    INFINITY,
    PresentationError,
    affine_a,
    finite_a,
    from_coxeter_matrix,
    parse,
    serialize,
)
from affinegsb.rewriting import complete, is_reduced
from affinegsb.words import deglex_key


def test_affine_a2_relations():
    p = affine_a(2)
    # three involutions, two adjacent braids, the wrap-around braid,
    # and no commuting pairs on a triangle
    assert len(p.relations) == 6
    assert (bytes([0, 0]), b"") in p.relations
    assert (bytes([0, 1, 0]), bytes([1, 0, 1])) in p.relations
    assert (bytes([1, 2, 1]), bytes([2, 1, 2])) in p.relations
    assert (bytes([0, 2, 0]), bytes([2, 0, 2])) in p.relations


def test_affine_a4_relation_count():
    p = affine_a(4)
    assert len(p.relations) == 15
    commuting = [(u, v) for u, v in p.relations if len(u) == 2 and u[0] != u[1]]
    pairs = sorted((u[0], u[1]) for u, v in commuting)
    assert pairs == [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]


def test_affine_braid_orientation():
    # lhs of the braid between r0 and r1 starts with the greater generator
    p = affine_a(3)
    rs = p.to_rules()
    assert any(r.lhs == bytes([0, 1, 0]) for r in rs.rules)
    assert not any(r.lhs == bytes([1, 0, 1]) for r in rs.rules)


@pytest.mark.parametrize("n", range(3, 9))
def test_affine_relation_count_formula(n):
    expected = (n + 1) + (n * (n - 1) // 2 - 1) + n + 1
    assert len(affine_a(n).relations) == expected


def _type_a_relations(g, edges):
    """Involutions, braids on the edges and commutations off them, i < j."""
    rels = {(bytes([i, i]), b"") for i in range(g)}
    for i in range(g):
        for j in range(i + 1, g):
            if (i, j) in edges:
                rels.add((bytes([i, j, i]), bytes([j, i, j])))
            else:
                rels.add((bytes([i, j]), bytes([j, i])))
    return rels


@pytest.mark.parametrize("n", range(2, 9))
def test_affine_a_is_the_cycle(n):
    edges = {(i, i + 1) for i in range(n)} | {(0, n)}
    p = affine_a(n)
    assert len(p.relations) == len(set(p.relations))
    assert set(p.relations) == _type_a_relations(n + 1, edges)
    assert p.alphabet.names == [f"r{i}" for i in range(n + 1)]


@pytest.mark.parametrize("n", range(2, 9))
def test_finite_a_is_the_path(n):
    edges = {(i, i + 1) for i in range(n - 1)}
    p = finite_a(n)
    assert len(p.relations) == len(set(p.relations))
    assert set(p.relations) == _type_a_relations(n, edges)
    assert p.alphabet.names == [f"r{i}" for i in range(1, n + 1)]


def test_affine_invalid_rank():
    with pytest.raises(PresentationError):
        affine_a(1)


def test_finite_a1():
    p = finite_a(1)
    assert p.relations == [(bytes([0, 0]), b"")]


def test_finite_a2():
    assert len(finite_a(2).relations) == 3


def test_finite_a3_normal_form_count():
    basis = complete(finite_a(3).to_rules())
    total = 0
    frontier = [b""]
    while frontier:
        total += len(frontier)
        frontier = [
            w + bytes([c])
            for w in frontier
            for c in range(3)
            if is_reduced(w + bytes([c]), basis)
        ]
    assert total == 24


def test_finite_invalid_rank():
    with pytest.raises(PresentationError):
        finite_a(0)


@pytest.mark.parametrize("builder, n", [(affine_a, 4), (finite_a, 4)])
def test_builders_orient_by_deglex(builder, n):
    p = builder(n)
    for u, v in p.relations:
        assert deglex_key(u) > deglex_key(v)


def test_coxeter_matrix_matches_affine():
    m = CoxeterMatrix(((1, 3, 3), (3, 1, 3), (3, 3, 1)))
    p = from_coxeter_matrix(m)
    assert sorted(p.relations) == sorted(affine_a(2).relations)


def test_coxeter_matrix_commuting_entry():
    m = CoxeterMatrix(((1, 2), (2, 1)))
    p = from_coxeter_matrix(m)
    assert (bytes([0, 1]), bytes([1, 0])) in p.relations


def test_coxeter_matrix_infinite_entry():
    m = CoxeterMatrix(((1, INFINITY), (INFINITY, 1)))
    p = from_coxeter_matrix(m)
    # only the two involutions
    assert len(p.relations) == 2


def test_coxeter_matrix_validation():
    with pytest.raises(PresentationError):
        CoxeterMatrix(((1, 3), (2, 1)))
    with pytest.raises(PresentationError):
        CoxeterMatrix(((2, 3), (3, 1)))


def test_parse_identity_rhs():
    p = parse("generators: a b\nrel: a a =")
    assert p.relations == [(bytes([0, 0]), b"")]


def test_parse_comments_and_blanks():
    text = "# header\n\ngenerators: a b\n# mid\nrel: a b = b a\n"
    p = parse(text)
    assert len(p.relations) == 1


def test_parse_inline_comments():
    text = ("generators: a b   # first listed is greatest\n"
            "rel: a a =        # identity # and more\n"
            "rel: a b = b a#no space\n")
    p = parse(text)
    assert p.alphabet.names == ["a", "b"]
    assert p.relations == [(b"\x00\x00", b""), (b"\x00\x01", b"\x01\x00")]


@pytest.mark.parametrize("names", ["1 a", "a b=c"])
def test_parse_invalid_generator_name_names_line(names):
    with pytest.raises(PresentationError, match="invalid generator name") as exc:
        parse(f"# header\ngenerators: {names}\nrel: a a =\n")
    assert exc.value.line == 2


def test_parse_unknown_token_names_line():
    with pytest.raises(PresentationError) as exc:
        parse("generators: a b\nrel: a b = b a c")
    assert "'c'" in str(exc.value)
    assert exc.value.line == 2


@pytest.mark.parametrize("text,line,message", [
    ("generators: a b\nrel: a b = b a\nrel: b a = a b\n", 3,
     "line 3: relation b a = a b repeats line 2"),
    ("generators: a b\n# twice\nrel: a a =\nrel: a a =\n", 4,
     "line 4: relation a a = 1 repeats line 3"),
    ("generators: a b\nrel: a = a\n", 2, "line 2: relation a = a has equal sides"),
])
def test_parse_rejects_repeated_or_trivial_relation(text, line, message):
    with pytest.raises(PresentationError) as exc:
        parse(text)
    assert exc.value.line == line
    assert str(exc.value) == message


@pytest.mark.parametrize("build,message", [
    pytest.param(lambda: parse("generators:   # none\n"), "line 1: no generators listed",
                 id="parse-no-generators"),
    pytest.param(lambda: parse("generators: a\nfoo bar\n"), "line 2: unrecognized line 'foo bar'",
                 id="parse-unrecognized-line"),
    pytest.param(lambda: parse("generators: a\nrel: a a\n"),
                 "line 2: relation must contain exactly one '='", id="parse-no-equals"),
    pytest.param(lambda: parse("generators: a\nrel: a = a a = 1\n"),
                 "line 2: relation must contain exactly one '='", id="parse-two-equals"),
    pytest.param(lambda: parse(""), "empty presentation: no generators line", id="parse-empty"),
    pytest.param(lambda: CoxeterMatrix(((1, 2), (2, 1), (2, 2))), "Coxeter matrix must be square",
                 id="coxeter-not-square"),
    pytest.param(lambda: CoxeterMatrix(((1, 1), (1, 1))), "off-diagonal entry m[0][1] < 2",
                 id="coxeter-entry-below-2"),
    pytest.param(lambda: CoxeterMatrix(((1, 2.5), (2.5, 1))),
                 "Coxeter matrix entries must be integers", id="coxeter-float-entry"),
    pytest.param(lambda: CoxeterMatrix(((True, 3), (3, 1))),
                 "Coxeter matrix entries must be integers", id="coxeter-bool-entry"),
])
def test_input_checks_raise_their_message(build, message):
    with pytest.raises(PresentationError) as exc:
        build()
    assert str(exc.value) == message


def test_parse_missing_generators_line():
    with pytest.raises(PresentationError):
        parse("rel: a a =")


def test_serialize_roundtrip_affine():
    p = affine_a(2)
    again = parse(serialize(p))
    assert again.alphabet == p.alphabet
    assert sorted(again.relations) == sorted(p.relations)


def test_serialize_parse_is_identity_on_normalized():
    text = serialize(affine_a(3))
    assert serialize(parse(text)) == text

"""Coxeter-type presentations and a line-oriented text format.

A presentation is an alphabet (precedence = listed order, first
greatest) plus a list of relations, each a pair of words; ``parse``
rejects a relation with equal sides or one given twice.
Every built-in presentation comes from a Coxeter matrix: the finite
type A is the path, the affine presentation the cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .words import Alphabet, WordSyntaxError, deglex_key
from .rewriting import RuleSet, make_rule

INFINITY = 0  # Coxeter matrix entry meaning "no relation"


class PresentationError(ValueError):
    """Malformed presentation data; carries a line number when parsing."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class Presentation:
    alphabet: Alphabet
    relations: list

    def to_rules(self):
        """Orient each relation by deg-lex into a RuleSet."""
        return RuleSet([make_rule(u, v) for u, v in self.relations], self.alphabet.size)


def _braid_word(i, j, m):
    # alternating word r_i r_j r_i ... of length m
    return bytes((i if t % 2 == 0 else j) for t in range(m))


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric matrix of braid exponents; diagonal 1, INFINITY omits a relation."""

    entries: tuple

    def __post_init__(self):
        m = self.entries
        g = len(m)
        if any(len(row) != g for row in m):
            raise PresentationError("Coxeter matrix must be square")
        if any(type(e) is not int for row in m for e in row):
            raise PresentationError("Coxeter matrix entries must be integers")
        for i in range(g):
            if m[i][i] != 1:
                raise PresentationError("Coxeter matrix diagonal must be 1")
            for j in range(g):
                if m[i][j] != m[j][i]:
                    raise PresentationError("Coxeter matrix must be symmetric")
                if i != j and m[i][j] != INFINITY and m[i][j] < 2:
                    raise PresentationError(f"off-diagonal entry m[{i}][{j}] < 2")

    @property
    def size(self):
        return len(self.entries)


def from_coxeter_matrix(matrix):
    """Presentation with involutions and one braid relation per finite entry."""
    g = matrix.size
    alphabet = Alphabet([f"r{i}" for i in range(g)])
    rels = [(bytes([i, i]), b"") for i in range(g)]
    for i in range(g):
        for j in range(i + 1, g):
            m = matrix.entries[i][j]
            if m != INFINITY:
                rels.append((_braid_word(i, j, m), _braid_word(j, i, m)))
    return Presentation(alphabet, rels)


def _type_a_matrix(g, cycle):
    """Coxeter matrix of the g-node path, or of the g-cycle if ``cycle``.

    Neighbours i, i+1 (and on the cycle also 0, g-1) braid with exponent
    3; every other pair commutes.
    """
    def entry(i, j):
        if i == j:
            return 1
        d = abs(i - j)
        return 3 if d == 1 or (cycle and d == g - 1) else 2
    return CoxeterMatrix(tuple(tuple(entry(i, j) for j in range(g)) for i in range(g)))


def affine_a(n):
    """The affine presentation on generators r0..rn: the (n+1)-cycle."""
    if n < 2:
        raise PresentationError(f"affine presentation needs rank >= 2, got {n}")
    return from_coxeter_matrix(_type_a_matrix(n + 1, cycle=True))


def finite_a(n):
    """The symmetric-group presentation on generators r1..rn: the n-path."""
    if n < 1:
        raise PresentationError(f"finite type A needs rank >= 1, got {n}")
    p = from_coxeter_matrix(_type_a_matrix(n, cycle=False))
    return Presentation(Alphabet([f"r{i}" for i in range(1, n + 1)]), p.relations)


def parse(text):
    """Parse the presentation file format.

    Everything from a ``#`` to the end of its line is a comment, and
    blank lines are ignored; the first content line must be
    ``generators: tok tok ...`` (precedence in listed order),
    followed by ``rel: w = w`` lines where an empty side is the identity.
    A relation with equal sides, or one that repeats an earlier line in
    either orientation, is an error.
    """
    alphabet = None
    rels = []
    first_line = {}  # relation as an unordered pair -> line it was given on
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if alphabet is None:
            if not line.startswith("generators:"):
                raise PresentationError("expected a generators: line", lineno)
            names = line[len("generators:"):].split()
            if not names:
                raise PresentationError("no generators listed", lineno)
            try:
                alphabet = Alphabet(names)
            except ValueError as e:
                raise PresentationError(str(e), lineno) from None
            continue
        if not line.startswith("rel:"):
            raise PresentationError(f"unrecognized line {line!r}", lineno)
        body = line[len("rel:"):]
        if body.count("=") != 1:
            raise PresentationError("relation must contain exactly one '='", lineno)
        left, right = body.split("=")
        try:
            u = alphabet.word(left)
            v = alphabet.word(right)
        except WordSyntaxError as e:
            raise PresentationError(str(e), lineno) from None
        relation = f"relation {alphabet.text(u)} = {alphabet.text(v)}"
        if u == v:
            raise PresentationError(f"{relation} has equal sides", lineno)
        key = frozenset((u, v))
        if key in first_line:
            raise PresentationError(f"{relation} repeats line {first_line[key]}", lineno)
        first_line[key] = lineno
        rels.append((u, v))
    if alphabet is None:
        raise PresentationError("empty presentation: no generators line")
    return Presentation(alphabet, rels)


def serialize(p):
    """Emit the file format; relations sorted by deg-lex of the left side."""
    lines = ["generators: " + " ".join(p.alphabet.names)]
    rels = sorted(p.relations, key=lambda uv: (deglex_key(uv[0]), deglex_key(uv[1])))
    for u, v in rels:
        lines.append(f"rel: {p.alphabet.text(u)} = {p.alphabet.text(v)}")
    return "\n".join(lines) + "\n"

"""The benchmark's four workloads.

Each workload has a full size and a smoke size, and three parts:

- ``prepare(lib, size, seed, call)`` builds the seeded inputs, the
  library objects they need and the oracle answers (set-up, not timed);
- ``ops(state)`` lists the operations of one fixed job, each a function
  of ``call`` (the traced or untraced way of calling into the library);
- ``check(state, index, output, counts)`` returns the problems the
  oracles find in one operation's output and adds to the layer counts.

The library (``lib``) is passed in, never imported here, so the
generated inputs and the oracle answers do not depend on it.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import oracles


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable
    ops: Callable
    check: Callable
    full: dict
    smoke: dict


def _same_perm_rules(label, rules, n):
    """Problems with rules that are not deg-lex oriented relations of the group."""
    problems = []
    for r in rules:
        if not oracles.deglex_greater(r.lhs, r.rhs):
            problems.append(f"{label}: rule {r.lhs!r} -> {r.rhs!r} is not deg-lex oriented")
        elif oracles.perm_of_word(r.lhs, n) != oracles.perm_of_word(r.rhs, n):
            problems.append(f"{label}: rule {r.lhs!r} -> {r.rhs!r} is not a relation")
    return problems


# ---------------------------------------------------------------------------
# verify-affine: completion of the affine presentation, the write path of
# rewriting.

VERIFY_DEGREE = 24  # growth of the computed basis is checked to this length


def _verify_prepare(lib, size, seed, call):
    ranks = size["ranks"]
    growth = {n: oracles.bott(oracles.type_a_degrees(n), VERIFY_DEGREE) for n in ranks}
    return SimpleNamespace(lib=lib, ranks=ranks, growth=growth)


def _verify_ops(st):
    verify = st.lib.affine_basis.verify_explicit_basis
    certify = st.lib.rewriting.is_gs_basis
    reports = {}

    def verify_rank(n):
        def op(call):
            reports[n] = call("affine_basis.verify_explicit_basis", verify, n)
            return reports[n]
        return op

    def certify_rank(n):
        def op(call):
            return reports[n], call("rewriting.is_gs_basis", certify, reports[n].computed)
        return op

    return [f(n) for n in st.ranks for f in (verify_rank, certify_rank)]


def _verify_check(st, index, out, counts):
    # operations come in pairs per rank: verify, then certify its basis
    n = st.ranks[index // 2]
    if index % 2 == 0:
        return [] if out.match else [f"n={n}: basis differs from g1-g10 "
                                     f"({len(out.missing)} missing, {len(out.extra)} extra)"]
    report, (ok, witnesses) = out
    rules = report.computed.rules
    counts["rewriting.rules"] += len(rules)
    counts["rewriting.witnesses"] += len(witnesses)
    counts["rewriting.ambiguities"] += len(st.lib.rewriting.ambiguities(report.computed))
    problems = []
    if not ok or witnesses:
        problems.append(f"n={n}: is_gs_basis found {len(witnesses)} witnesses")
    problems += _same_perm_rules(f"n={n}", rules, n)
    lhs = sorted({r.lhs for r in rules})
    if oracles.count_avoiding(lhs, n + 1, VERIFY_DEGREE) != st.growth[n]:
        problems.append(f"n={n}: irreducible words do not count the group by length")
    return problems


# ---------------------------------------------------------------------------
# coxeter-atlas: few rules with long leading words and deep ambiguities.

ATLAS_MAX_DEGREE = 160  # H4 needs ambiguity words of length >= 130
ATLAS_MAX_RULES = 300  # each type creates fewer than 100; a broken library fails fast
AFFINE_DEGREE = 40


def _atlas_prepare(lib, size, seed, call):
    pres = lib.presentations
    types = []
    for name in size["types"]:
        t = oracles.COXETER_TYPES[name]
        entries = oracles.coxeter_matrix(t["rank"], t["edges"])
        p = call("presentations.from_coxeter_matrix", pres.from_coxeter_matrix,
                 pres.CoxeterMatrix(entries))
        text = call("presentations.serialize", pres.serialize, p)
        back = call("presentations.parse", pres.parse, text)
        rules = call("presentations.to_rules", back.to_rules)
        roundtrip = back.alphabet == p.alphabet and set(back.relations) == set(p.relations)
        # a finite group is counted one past its longest element
        degree = (AFFINE_DEGREE if t["affine"]
                  else sum(d - 1 for d in t["degrees"]) + 1)
        types.append(SimpleNamespace(name=name, rules=rules, roundtrip=roundtrip,
                                     degree=degree,
                                     growth=oracles.coxeter_growth(name, degree)))
    return SimpleNamespace(lib=lib, types=types)


def _atlas_ops(st):
    rw = st.lib.rewriting
    count = st.lib.series.count_reduced

    def coxeter_type(t):
        def op(call):
            rs = call("rewriting.complete", rw.complete, t.rules,
                      max_rules=ATLAS_MAX_RULES, max_degree=ATLAS_MAX_DEGREE)
            basis = call("rewriting.interreduce", rw.interreduce, rs)
            return basis, call("series.count_reduced", count, basis, t.degree)
        return op

    return [coxeter_type(t) for t in st.types]


def _atlas_check(st, index, out, counts):
    t = st.types[index]
    basis, series = out
    counts["rewriting.rules"] += len(basis)
    problems = []
    if not t.roundtrip:
        problems.append(f"{t.name}: serialize/parse round trip changed the presentation")
    if list(series.coefficients) != t.growth:
        kind = "Bott" if oracles.COXETER_TYPES[t.name]["affine"] else "Solomon"
        problems.append(f"{t.name}: growth series differs from {kind}'s formula")
    return problems


# ---------------------------------------------------------------------------
# growth-series: factor automata over the explicit basis; rewriting idle.


def _growth_prepare(lib, size, seed, call):
    degree = size["degree"]
    leading = {}
    for n in size["ranks"]:
        basis = call("affine_basis.g_families", lib.affine_basis.g_families, n)
        leading[n] = sorted(basis.leading_words())
    return SimpleNamespace(
        lib=lib, degree=degree, leading=leading, cli_rank=size["cli_rank"],
        box_ranks=size["box_ranks"],
        growth={n: oracles.bott(oracles.type_a_degrees(n), degree)
                for n in (*size["ranks"], size["cli_rank"])},
        qbinom={m: oracles.q_binomial(2 * m, m) for m in size["box_ranks"]})


def _growth_ops(st):
    series = st.lib.series
    parts = st.lib.partitions
    argv = ["growth", "--builtin", "affine-a", "--n", str(st.cli_rank),
            "--max-len", str(st.degree)]

    def rank(n, words):
        def op(call):
            auto = call("series.FactorAutomaton", series.FactorAutomaton, words, n + 1)
            by_length = call("series.count_by_length", auto.count_by_length, st.degree)
            poincare = call("series.poincare_affine_a", series.poincare_affine_a, n, st.degree)
            return auto.state_count, by_length, list(poincare.coefficients)
        return op

    def cli(call):
        out, err = io.StringIO(), io.StringIO()
        code = call("cli.run", st.lib.cli.run, argv, out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    def boxes(call):
        return {m: (call("partitions.q_binomial", parts.q_binomial, 2 * m, m),
                    [call("partitions.box_count", parts.box_count, m, s)
                     for s in range(m * m + 1)])
                for m in st.box_ranks}

    return [rank(n, words) for n, words in st.leading.items()] + [cli, boxes]


def _growth_check(st, index, out, counts):
    ranks = list(st.leading)
    if index < len(ranks):
        n = ranks[index]
        states, by_length, poincare = out
        counts["series.automaton_states"] += states
        problems = []
        if by_length != st.growth[n]:
            problems.append(f"n={n}: automaton count differs from Bott's formula")
        if poincare != st.growth[n]:
            problems.append(f"n={n}: poincare_affine_a differs from Bott's formula")
        return problems
    if index == len(ranks):
        code, text, err = out
        rows = [line.split("\t") for line in text.splitlines()]
        if code != 0 or err or [int(c) for _, c in rows] != st.growth[st.cli_rank]:
            return [f"cli growth n={st.cli_rank}: exit {code}, output differs from Bott"]
        return []
    return [f"m={m}: q_binomial or box_count differs from the product formula"
            for m, (q, by_size) in out.items()
            if q != st.qbinom[m] or by_size != st.qbinom[m]]


# ---------------------------------------------------------------------------
# reduce-classify: the read path, many queries against a fixed rule set.


def make_corpus(seed, ranks, length, per_rank):
    """Seeded queries (n, u, v) with reduced u, v, and the answers for u v.

    An answer is the affine permutation of u v and its length.
    """
    rng = random.Random(seed)
    queries, answers = [], []
    for n in ranks:
        for _ in range(per_rank):
            u = oracles.random_reduced_word(n, length, rng)
            v = oracles.random_reduced_word(n, length, rng)
            perm = oracles.perm_of_word(u + v, n)
            queries.append((n, oracles.affine_word_text(u), oracles.affine_word_text(v)))
            answers.append((perm, oracles.perm_length(perm)))
    return queries, answers


def _reduce_prepare(lib, size, seed, call):
    ranks = size["ranks"]
    bases = {n: call("affine_basis.g_families", lib.affine_basis.g_families, n)
             for n in ranks}
    alphabets = {n: lib.words.affine_alphabet(n) for n in ranks}
    queries, answers = make_corpus(seed, ranks, size["length"], size["per_rank"])
    return SimpleNamespace(lib=lib, bases=bases, alphabets=alphabets,
                           queries=queries, answers=answers)


def _block_length(n, k, l):
    # r0, then the run rn ... rk (empty when k = n + 1), then r1 ... rl
    return 1 + (n + 1 - k) + l


def _bijection(parts, blocks):
    """Marked blocks -> basic partitions -> box partition -> and back."""
    seq = [parts.block_to_basic(b) for b in blocks]
    box = parts.oplus(seq)
    back = parts.decompose(box)
    return seq, box, back, [parts.basic_to_block(bp) for bp in back]


def _reduce_ops(st):
    lib = st.lib
    normal_form, is_reduced = lib.rewriting.normal_form, lib.rewriting.is_reduced
    classify, marked = lib.word_classes.classify, lib.word_classes.marked_components

    def query(n, u, v):
        alphabet, basis = st.alphabets[n], st.bases[n]

        def op(call):
            w = call("words.word", alphabet.word, u) + call("words.word", alphabet.word, v)
            nf = call("rewriting.normal_form", normal_form, w, basis)
            reduced = call("rewriting.is_reduced", is_reduced, nf, basis)
            c = call("word_classes.classify", classify, nf, n, basis)
            ms = call("word_classes.marked_components", marked, c.arranged)
            blocks = ms.marks + ms.chain
            bij = (call("partitions.bijection", _bijection, lib.partitions, blocks)
                   if blocks else None)
            return w, nf, reduced, c, blocks, bij, call("words.text", alphabet.text, nf)

        return op

    return [query(*q) for q in st.queries]


def _reduce_check(st, index, out, counts):
    w, nf, reduced, c, blocks, bij, text = out
    n = st.queries[index][0]
    perm, length = st.answers[index]
    counts["rewriting.nf_letters"] += len(w)
    problems = []
    if oracles.perm_of_word(nf, n) != perm:
        problems.append("normal form is another group element")
    if len(nf) != length or not reduced:
        problems.append(f"normal form has length {len(nf)}, element has length {length}")
    if c.r0free + c.arranged.word() != nf:
        problems.append("classification does not reassemble the word")
    if bij is not None:
        seq, box, back, blocks_back = bij
        if back != seq or tuple(blocks_back) != tuple(blocks):
            problems.append("block/box-partition bijection does not round-trip")
        if sum(box.parts) != sum(_block_length(n, b.k, b.l) for b in blocks):
            problems.append("box partition size differs from the marked blocks' length")
    if text != oracles.affine_word_text(nf):
        problems.append("formatted normal form differs")
    return [f"query {index} (n={n}): {p}" for p in problems]


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-affine",
                 _verify_prepare, _verify_ops, _verify_check,
                 full={"ranks": (5, 6)}, smoke={"ranks": (3,)}),
        Workload("coxeter-atlas",
                 _atlas_prepare, _atlas_ops, _atlas_check,
                 full={"types": ("H4", "E6", "E7", "~B4", "~D4", "~F4")},
                 smoke={"types": ("B3", "~C2")}),
        Workload("growth-series",
                 _growth_prepare, _growth_ops, _growth_check,
                 full={"ranks": (8, 9), "degree": 100, "cli_rank": 4,
                       "box_ranks": (1, 2, 3, 4, 5)},
                 smoke={"ranks": (3, 4), "degree": 30, "cli_rank": 2, "box_ranks": (1, 2, 3)}),
        Workload("reduce-classify",
                 _reduce_prepare, _reduce_ops, _reduce_check,
                 full={"ranks": (4, 6), "length": 40, "per_rank": 500},
                 smoke={"ranks": (3,), "length": 12, "per_rank": 20}),
    )
}

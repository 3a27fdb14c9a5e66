"""Command-line interface.

Thin wrappers over the library: completion, reduction, basis
verification, growth counting, word classification, enumeration,
q-binomials and the partition bijection.  Words use the ``r0 r1 ...``
token syntax ("1" is the identity); partitions are comma-separated
tuples.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import presentations
from .affine_basis import certified_basis, g_families, verify_explicit_basis
from .partitions import (
    BasicPartition,
    BoxPartition,
    decompose,
    oplus,
    q_binomial,
)
from .presentations import Presentation, affine_a, finite_a, serialize
from .rewriting import CompletionLimitError, complete, normal_form
from .series import TruncatedSeries, count_reduced
from .word_classes import (
    NotReducedError,
    classify,
    enumerate_arranged,
    enumerate_marked,
    r0free_enumerate,
)
from .words import deglex_key


def _load_presentation(args):
    if args.file is not None:
        with open(args.file, encoding="utf-8") as fh:
            return presentations.parse(fh.read())
    if args.builtin == "affine-a":
        return affine_a(args.n)
    if args.builtin == "finite-a":
        return finite_a(args.n)


def _basis(args, p):
    """The reduced basis of presentation p: the certified g1-g10 basis
    for built-in affine A, otherwise by completion."""
    if args.builtin == "affine-a":
        return certified_basis(args.n)
    return complete(p.to_rules(), max_rules=args.max_rules, max_degree=args.max_degree)


def _nonneg_int(text):
    """argparse type for counts and limits: a negative value is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _add_limit_flags(sub):
    unused = "; unused by --builtin affine-a, which runs no completion"
    sub.add_argument("--max-rules", type=_nonneg_int, default=100000,
                     help="most rules completion may create, superseded ones included" + unused)
    sub.add_argument("--max-degree", type=_nonneg_int, default=64,
                     help="longest ambiguity word completion may queue "
                     "(not the longest rule)" + unused)


def _add_source_flags(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=["affine-a", "finite-a"])
    group.add_argument("--file")
    sub.add_argument("--n", type=_nonneg_int, default=2, help="rank for built-ins")
    _add_limit_flags(sub)


def cmd_complete(args, out):
    p = _load_presentation(args)
    rules = sorted(_basis(args, p).rules, key=lambda r: deglex_key(r.lhs))
    basis = Presentation(p.alphabet, [(r.lhs, r.rhs) for r in rules])
    if args.format == "json":
        payload = {
            "generators": p.alphabet.names,
            "rules": [
                {"lhs": p.alphabet.text(u), "rhs": p.alphabet.text(v)}
                for u, v in basis.relations
            ],
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    else:
        out.write(serialize(basis))
    return 0


def cmd_reduce(args, out):
    p = _load_presentation(args)
    w = p.alphabet.word(args.word)
    rs = _basis(args, p)
    out.write(p.alphabet.text(normal_form(w, rs)) + "\n")
    return 0


def cmd_verify(args, out):
    report = verify_explicit_basis(args.n, max_rules=args.max_rules,
                                   max_degree=args.max_degree)
    if report.match:
        out.write(f"MATCH ({len(report.computed)} rules)\n")
        return 0
    out.write(
        f"MISMATCH (computed {len(report.computed)}, expected "
        f"{len(report.expected)}, missing {len(report.missing)}, "
        f"extra {len(report.extra)})\n"
    )
    alphabet = affine_a(args.n).alphabet
    for label, rules in (("missing", report.missing), ("extra", report.extra)):
        for r in rules:
            out.write(f"{label}: {alphabet.text(r.lhs)} = {alphabet.text(r.rhs)}\n")
    return 1


def cmd_growth(args, out):
    rs = _basis(args, _load_presentation(args))
    series = count_reduced(rs, args.max_len)
    _emit_series(series, args.format, out)
    return 0


def _emit_series(series, fmt, out):
    if fmt == "json":
        payload = [
            {"degree": d, "coefficient": c} for d, c in enumerate(series.coefficients)
        ]
        out.write(json.dumps(payload) + "\n")
    else:
        out.write(series.tsv() + "\n")


def cmd_classify(args, out):
    n = args.n
    alphabet = affine_a(n).alphabet
    w = alphabet.word(args.word)
    try:
        c = classify(w, n, g_families(n))
    except NotReducedError as e:
        raise ValueError(
            f"not reduced: factor {alphabet.text(e.rule.lhs)!r} at position {e.position}"
        ) from None
    out.write(f"r0free: {alphabet.text(c.r0free)}\n")
    out.write(f"arranged: {alphabet.text(c.arranged.word())}\n")
    blocks = " ".join(
        f"({b.k},{b.l})^{m}"
        for b, m in zip(c.arranged.skeleton, c.arranged.exponents)
        if m
    )
    chain = " ".join(f"({b.k},{b.l})" for b in c.arranged.chain)
    out.write(f"components: {blocks or '1'}\n")
    out.write(f"chain: {chain or '1'}\n")
    return 0


def cmd_enumerate(args, out):
    n, L = args.n, args.max_len
    alphabet = affine_a(n).alphabet
    if args.kind == "r0free":
        words = r0free_enumerate(n, L)
    elif args.kind == "arranged":
        words = [a.word() for a in enumerate_arranged(n, L)]
    else:
        words = [m.word() for m in enumerate_marked(n, L)]
    if args.format == "json":
        out.write(json.dumps([alphabet.text(w) for w in words]) + "\n")
    else:
        for w in words:
            out.write(alphabet.text(w) + "\n")
    return 0


def cmd_qbinom(args, out):
    coeffs = q_binomial(args.m, args.r)
    _emit_series(TruncatedSeries.from_list(coeffs), args.format, out)
    return 0


def _parse_tuple(text):
    """Comma-separated integers; blank text is the empty tuple, an empty field an error."""
    if not text.strip():
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse tuple {text!r}") from None


def cmd_bijection(args, out):
    n = args.n
    if args.direction == "decode":
        # box partition -> connected sequence of basic partitions
        parts = _parse_tuple(args.input)
        parts = parts + (0,) * (n - len(parts))
        seq = decompose(BoxPartition(n, parts))
        out.write(";".join(",".join(map(str, bp.tuple())) for bp in seq) + "\n")
    else:
        # connected sequence (";"-separated basic partitions) -> box partition;
        # the empty sequence encodes the zero partition
        seq = []
        for chunk in args.input.split(";") if args.input.strip() else []:
            t = _parse_tuple(chunk)
            bp = BasicPartition(n, t[0] if t else 0, t[1:].count(1))
            if bp.tuple() != t + (0,) * (n - len(t)):
                raise ValueError(f"{chunk!r} is not a basic partition")
            seq.append(bp)
        box = oplus(seq) if seq else BoxPartition(n, (0,) * n)
        out.write(",".join(map(str, box.parts)) + "\n")
    return 0


class _HelpFormatter(argparse.HelpFormatter):
    """Unlinks its sections, which refer back to it, once the text is built."""

    def format_help(self):
        text = super().format_help()
        self._root_section.items.clear()
        self._root_section.formatter = None
        return text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="affinegsb",
        description="Confluent rewriting and reduced-word combinatorics "
        "for the affine symmetric group.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="complete a presentation to a confluent basis")
    _add_source_flags(p)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("reduce", help="normal form of a word")
    _add_source_flags(p)
    p.add_argument("--word", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="check the explicit basis against completion")
    p.add_argument("--n", type=_nonneg_int, required=True)
    _add_limit_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("growth", help="growth series of reduced words")
    _add_source_flags(p)
    p.add_argument("--max-len", type=_nonneg_int, default=10)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("classify", help="decompose a reduced word")
    p.add_argument("--word", required=True)
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="enumerate word classes")
    p.add_argument("kind", choices=["r0free", "arranged", "marked"])
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--max-len", type=_nonneg_int, default=10)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("qbinom", help="Gaussian binomial coefficients")
    p.add_argument("--m", type=_nonneg_int, required=True)
    p.add_argument("--r", type=_nonneg_int, required=True)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.set_defaults(func=cmd_qbinom)

    p = sub.add_parser("bijection", help="connected sequences <-> box partitions")
    p.add_argument("direction", choices=["encode", "decode"])
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_bijection)

    for p in (parser, *sub.choices.values()):
        p.formatter_class = _HelpFormatter
    return parser


_PARSER = build_parser()


def run(argv, out=None, err=None):
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        # usage errors and --help go to the streams passed in
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args, out)
    except (CompletionLimitError, ValueError, OSError) as e:
        err.write(f"error: {e}\n")
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

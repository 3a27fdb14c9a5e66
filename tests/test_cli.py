import gc
import io
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from affinegsb import affine_basis, cli, rewriting
from affinegsb.cli import run
from affinegsb.presentations import affine_a, parse, serialize
from affinegsb.rewriting import Rule, RuleSet, _Completion, complete, interreduce, is_gs_basis
from affinegsb.words import affine_alphabet


README = Path(__file__).resolve().parents[1] / "README.md"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_complete_affine2_tsv():
    code, out, err = invoke("complete", "--builtin", "affine-a", "--n", "2")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "generators: r0 r1 r2"
    assert len(lines) - 1 == 9
    assert "rel: r0 r0 = 1" in lines


def test_complete_affine2_json():
    code, out, _ = invoke(
        "complete", "--builtin", "affine-a", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == ["r0", "r1", "r2"]
    assert len(payload["rules"]) == 9


def test_complete_from_file(tmp_path):
    path = tmp_path / "pres.txt"
    path.write_text("generators: a b\nrel: a a =\nrel: b b =\nrel: a b a = b a b\n")
    code, out, _ = invoke("complete", "--file", str(path))
    assert code == 0
    assert "rel: a b a = b a b" in out


def test_complete_limit_is_one_line_error(tmp_path):
    path = tmp_path / "braid.txt"
    path.write_text("generators: a b\nrel: a b a = b a b\n")
    code, out, err = invoke("complete", "--file", str(path), "--max-degree", "12")
    assert code == 1 and out == ""
    assert err == "error: ambiguity degree 13 exceeds limit 12\n"


def test_complete_repeated_relation_is_one_line_error(tmp_path):
    path = tmp_path / "twice.txt"
    path.write_text("generators: a b\nrel: a b = b a\nrel: b a = a b\n")
    code, out, err = invoke("complete", "--file", str(path))
    assert code == 1 and out == ""
    assert err == "error: line 3: relation b a = a b repeats line 2\n"


def test_complete_missing_source():
    # a usage error, rejected by the parser like every other bad argument
    code, out, err = invoke("complete")
    assert code == 2
    assert "required" in err


@pytest.mark.parametrize("command", ["reduce --word r1", "growth"])
def test_missing_source_is_a_usage_error(command):
    code, out, err = invoke(*command.split())
    assert code == 2 and out == ""
    assert "one of the arguments --builtin --file is required" in err


def test_complete_bad_file():
    code, _, err = invoke("complete", "--file", "/nonexistent/path.txt")
    assert code == 1
    assert err.startswith("error:")


def test_empty_file_name_is_an_unreadable_file():
    code, _, err = invoke("growth", "--file", "")
    assert code == 1
    assert err.startswith("error:")


def test_reduce():
    code, out, _ = invoke(
        "reduce", "--builtin", "affine-a", "--n", "2", "--word", "r0 r2 r0"
    )
    assert code == 0
    assert out == "r2 r0 r2\n"


def test_reduce_identity():
    code, out, _ = invoke(
        "reduce", "--builtin", "affine-a", "--n", "3", "--word", "r1 r1"
    )
    assert code == 0
    assert out == "1\n"


def test_reduce_bad_word():
    code, _, err = invoke(
        "reduce", "--builtin", "affine-a", "--n", "2", "--word", "r9"
    )
    assert code == 1
    assert "r9" in err


@pytest.mark.parametrize("source", [["--builtin", "affine-a", "--n", "6"],
                                    ["--builtin", "finite-a", "--n", "3"], None])
def test_reduce_bad_word_builds_no_basis(source, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("basis built before the word was parsed")

    monkeypatch.setattr(cli, "complete", refuse)
    monkeypatch.setattr(cli, "certified_basis", refuse)
    if source is None:
        path = tmp_path / "affine.txt"
        path.write_text(serialize(affine_a(2)))
        source = ["--file", str(path)]
    code, out, err = invoke("reduce", *source, "--word", "r1 r9")
    assert code == 1 and out == ""
    assert err == "error: unknown generator 'r9'\n"


def _outputs(n, source):
    # the identity, r0 r2 r0 and 20 seeded words, the growth series and the basis
    rng = random.Random(n)
    words = ["1", "r0 r2 r0"] + [
        " ".join(f"r{rng.randrange(n + 1)}" for _ in range(rng.randrange(1, 16)))
        for _ in range(20)
    ]
    runs = [invoke("reduce", *source, "--word", w) for w in words]
    runs.append(invoke("growth", *source, "--max-len", "12"))
    return runs + [invoke("complete", *source, "--format", fmt) for fmt in ("tsv", "json")]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_affine_fast_path_prints_what_completion_prints(n, tmp_path, monkeypatch):
    # --file runs completion, --builtin affine-a the certified explicit basis;
    # each basis is built once per source and reused across the invocations
    used = []

    def once(f):
        memo = {}

        def wrapper(key, **kwargs):
            used.append(f.__name__)
            if key not in memo:
                memo[key] = f(key, **kwargs)
            return memo[key]
        return wrapper

    monkeypatch.setattr(cli, "complete", once(cli.complete))
    monkeypatch.setattr(cli, "certified_basis", once(cli.certified_basis))
    path = tmp_path / "affine.txt"
    path.write_text(serialize(affine_a(n)))
    fast = _outputs(n, ["--builtin", "affine-a", "--n", str(n)])
    assert set(used) == {"certified_basis"}
    used.clear()
    assert _outputs(n, ["--file", str(path)]) == fast
    assert set(used) == {"complete"}
    assert all(code == 0 and err == "" for code, _, err in fast)


def test_affine_fast_path_reports_a_failed_certificate(monkeypatch):
    full = affine_basis.g_families(2)
    monkeypatch.setattr(affine_basis, "g_families",
                        lambda n: RuleSet(full.rules[:-1], full.alphabet_size))
    code, out, err = invoke("reduce", "--builtin", "affine-a", "--n", "2", "--word", "r0")
    assert code == 1 and out == ""
    assert err == "error: g_families(2) fails certificate check (d) is_gs_basis holds\n"


def test_failed_completion_certificate_is_one_line_error(monkeypatch):
    # a drain that resolves nothing leaves the defining relations, which are
    # not confluent for affine A2 or finite A3 (those of finite A2 are):
    # complete reports the failed certificate, it does not complete again
    monkeypatch.setattr(_Completion, "drain", lambda self: None)
    rs = affine_a(2).to_rules()
    witnesses = is_gs_basis(interreduce(rs))[1]
    with pytest.raises(ValueError) as exc:
        complete(rs)
    assert str(exc.value) == (
        f"completion fails its certificate: {len(witnesses)} nontrivial compositions, "
        f"the first on the word of symbol ids {list(witnesses[0].word)}"
    )
    assert invoke("complete", "--builtin", "finite-a", "--n", "2")[0] == 0
    code, out, err = invoke("complete", "--builtin", "finite-a", "--n", "3")
    assert code == 1 and out == ""
    assert err.startswith("error: completion fails its certificate: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("argv", ["verify --n 5", "reduce --builtin affine-a --n 5 --word 'r0 r1'"])
def test_failed_composing_child_is_one_line_error(argv, cpus, monkeypatch):
    # the drain's child composes with _descendants; is_gs_basis's children
    # take normal forms with _resumed_normal_forms
    parent = os.getpid()

    def failing_in_a_child(work):
        def fail_in_a_child(*args):
            if os.getpid() != parent:
                raise ValueError("in a child")
            return work(*args)
        return fail_in_a_child

    for name in ("_descendants", "_resumed_normal_forms"):
        monkeypatch.setattr(rewriting, name, failing_in_a_child(getattr(rewriting, name)))
    forks = cpus(2)
    code, out, err = invoke(*shlex.split(argv))
    assert code == 1 and out == "" and len(forks) == 1
    assert err == "error: a composing child failed before its reply\n"


def test_verify_match():
    code, out, _ = invoke("verify", "--n", "3")
    assert code == 0
    assert out == "MATCH (27 rules)\n"


def test_verify_mismatch_names_the_rules(monkeypatch):
    # expect one rule completion does not give and lack one it does give
    full = affine_basis.g_families(3)
    dropped, bogus = full.rules[-1], Rule(b"\x00\x00\x00", b"\x00")
    monkeypatch.setattr(
        affine_basis, "g_families",
        lambda n: RuleSet([*full.rules[:-1], bogus], full.alphabet_size),
    )
    code, out, _ = invoke("verify", "--n", "3")
    alphabet = affine_alphabet(3)
    assert code == 1
    assert out.splitlines() == [
        "MISMATCH (computed 27, expected 27, missing 1, extra 1)",
        "missing: r0 r0 r0 = r0",
        f"extra: {alphabet.text(dropped.lhs)} = {alphabet.text(dropped.rhs)}",
    ]


def test_growth_affine2():
    code, out, _ = invoke(
        "growth", "--builtin", "affine-a", "--n", "2", "--max-len", "5"
    )
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t3", "2\t6", "3\t9", "4\t12", "5\t15"]


def test_growth_json():
    code, out, _ = invoke(
        "growth", "--builtin", "finite-a", "--n", "2", "--max-len", "4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [e["coefficient"] for e in payload] == [1, 2, 2, 1, 0]


def test_growth_without_relations(tmp_path):
    # no rules: every word is reduced, the free monoid on two letters
    path = tmp_path / "free.txt"
    path.write_text("generators: a b\n")
    code, out, err = invoke("growth", "--file", str(path), "--max-len", "4")
    assert code == 0 and err == ""
    assert out.splitlines() == ["0\t1", "1\t2", "2\t4", "3\t8", "4\t16"]


def test_classify():
    code, out, _ = invoke("classify", "--word", "r2 r0 r2 r1", "--n", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r0free: r2"
    assert lines[1] == "arranged: r0 r2 r1"
    assert lines[2] == "components: (2,1)^1"
    assert lines[3] == "chain: 1"


def test_classify_identity():
    code, out, _ = invoke("classify", "--word", "1", "--n", "3")
    assert code == 0
    assert "r0free: 1" in out and "arranged: 1" in out


def test_classify_unreduced():
    code, _, err = invoke("classify", "--word", "r1 r1", "--n", "2")
    assert code == 1
    assert "not reduced" in err


def test_enumerate_r0free():
    code, out, _ = invoke("enumerate", "r0free", "--n", "2", "--max-len", "2")
    assert code == 0
    assert out.splitlines() == ["1", "r1", "r2", "r1 r2", "r2 r1"]


def test_enumerate_arranged_json():
    code, out, _ = invoke(
        "enumerate", "arranged", "--n", "2", "--max-len", "4", "--format", "json"
    )
    assert code == 0
    words = json.loads(out)
    assert words[0] == "1"
    assert len(words) == len(set(words))


def test_enumerate_marked():
    code, out, _ = invoke("enumerate", "marked", "--n", "2", "--max-len", "4")
    assert code == 0
    lines = out.splitlines()
    # 1 + q + 2 q^2 + q^3 + q^4 terms of the Gaussian binomial (4, 2)
    assert len(lines) == 6


def test_qbinom():
    code, out, _ = invoke("qbinom", "--m", "4", "--r", "2")
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t1", "2\t2", "3\t1", "4\t1"]


def test_qbinom_invalid():
    code, _, err = invoke("qbinom", "--m", "2", "--r", "5")
    assert code == 1
    assert err.startswith("error:")


def test_bijection_decode():
    code, out, _ = invoke("bijection", "decode", "--n", "4", "--input", "3,3,2,0")
    assert code == 0
    assert out == "3,1,1,0;2,1,0,0\n"


def test_bijection_encode():
    code, out, _ = invoke(
        "bijection", "encode", "--n", "4", "--input", "3,1,1,0;2,1,0,0"
    )
    assert code == 0
    assert out == "3,3,2,0\n"


@pytest.mark.parametrize("box", ["3,2,1", "0,0,0"])
def test_bijection_roundtrip(box):
    # the zero partition decodes to the empty sequence, an empty line
    code, decoded, _ = invoke("bijection", "decode", "--n", "3", "--input", box)
    assert code == 0
    code, encoded, _ = invoke(
        "bijection", "encode", "--n", "3", "--input", decoded.strip()
    )
    assert code == 0
    assert encoded == box + "\n"


@pytest.mark.parametrize("direction, text, expected", [
    ("decode", "", "\n"),  # the zero partition is the empty sequence
    ("encode", "", "0,0,0\n"),  # the empty sequence is the zero partition
])
def test_bijection_empty_input(direction, text, expected):
    assert invoke("bijection", direction, "--n", "3", "--input", text) == (0, expected, "")


@pytest.mark.parametrize("direction, text, message", [
    ("decode", "a,b", "cannot parse tuple 'a,b'"),
    ("encode", "3,1,x", "cannot parse tuple '3,1,x'"),
    ("decode", "3,,1", "cannot parse tuple '3,,1'"),
    ("decode", "3,1,", "cannot parse tuple '3,1,'"),
    ("decode", ",3", "cannot parse tuple ',3'"),
    ("encode", "3,,1", "cannot parse tuple '3,,1'"),
    ("encode", "3,1,0;2,1,", "cannot parse tuple '2,1,'"),
])
def test_bijection_unparsable_tuple(direction, text, message):
    code, out, err = invoke("bijection", direction, "--n", "3", "--input", text)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("direction, text", [
    ("decode", "1,2,3"),
    ("encode", "3,0,1"),  # a one after a zero
    ("encode", "2,1,0,0,0"),  # longer than n
])
def test_bijection_bad_input(direction, text):
    code, out, err = invoke("bijection", direction, "--n", "3", "--input", text)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_usage_error_exit_code():
    code, _, _ = invoke("nonsense")
    assert code == 2


def test_missing_required_flag():
    code, _, _ = invoke("verify")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("growth", "--builtin", "affine-a", "--n", "2", "--max-len", "-3"),
    ("growth", "--builtin", "affine-a", "--n", "-2"),
    ("enumerate", "r0free", "--n", "2", "--max-len", "-1"),
    ("enumerate", "arranged", "--n", "-1"),
    ("verify", "--n", "-4"),
    ("classify", "--word", "r1", "--n", "-2"),
    ("bijection", "decode", "--n", "-3", "--input", "1"),
    ("growth", "--builtin", "affine-a", "--n", "two"),
    ("complete", "--builtin", "affine-a", "--n", "2", "--max-rules", "-1"),
    ("complete", "--builtin", "affine-a", "--n", "2", "--max-degree", "-5"),
    ("verify", "--n", "3", "--max-rules", "-1"),
    ("qbinom", "--m", "3", "--r", "-1"),
    ("qbinom", "--m", "-2", "--r", "0"),
])
def test_negative_or_malformed_count_is_usage_error(argv):
    code, out, err = invoke(*argv)
    assert code == 2 and out == ""
    # the bad value is the one that is negative or not a number
    i = next(i for i, a in enumerate(argv) if a == "two" or a[:1] == "-" and a[1:].isdigit())
    assert f"argument {argv[i - 1]}: expected a non-negative integer, got {argv[i]!r}" in err


def test_help_goes_to_the_given_stream():
    code, out, err = invoke("--help")
    assert code == 0 and out.startswith("usage: affinegsb") and err == ""


def test_run_leaves_no_garbage():
    invoke("growth", "--builtin", "affine-a", "--n", "2", "--max-len", "6")
    gc.collect()
    gc.disable()
    try:
        assert invoke("growth", "--builtin", "affine-a", "--n", "2", "--max-len", "6")[0] == 0
        assert invoke("reduce", "--builtin", "affine-a", "--n", "2", "--word", "r9")[0] == 1
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "argv",
    [["growth", "--n", "-1"], ["--help"], ["growth", "--help"], ["bogus"], []],
    ids=lambda argv: shlex.join(argv) or "no-arguments",
)
def test_argparse_exits_leave_no_garbage(argv):
    invoke(*argv)
    gc.collect()
    gc.disable()
    try:
        invoke(*argv)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", ["0", "1"])
def test_small_rank_is_domain_error(n):
    code, _, err = invoke("growth", "--builtin", "affine-a", "--n", n)
    assert code == 1
    assert err.startswith("error:") and "rank" in err


def test_entry_point_installed():
    # the console script if installed, else the module run from the source tree
    exe = shutil.which("affinegsb")
    cmd, env = [exe], None
    if exe is None:
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        cmd, env = [sys.executable, "-m", "affinegsb.cli"], {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        cmd + ["qbinom", "--m", "2", "--r", "1"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["0\t1", "1\t1"]


def readme_block(heading):
    """The body of the first fenced block under a '## ' heading of README.md."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].split("\n", 1)[1]


def test_readme_examples_run_as_shown():
    # each command of "Command line" exits 0 and prints every "# -> ..."
    # line under it; the file-format example parses as written
    examples = []
    for line in readme_block("Command line").splitlines():
        if line.startswith("affinegsb "):
            examples.append((shlex.split(line)[1:], []))
        elif line.startswith("# -> "):
            examples[-1][1].append(line[len("# -> "):])
    assert any(expected for _, expected in examples)
    for argv, expected in examples:
        if "mygroup.txt" in argv:
            continue  # a placeholder path
        code, out, err = invoke(*argv)
        assert code == 0, (argv, err)
        for line in expected:
            assert line in out.splitlines(), (argv, line, out)
    p = parse(readme_block("Presentation file format"))
    assert p.alphabet.names == ["a", "b", "c"]
    assert len(p.relations) == 3

"""The benchmark's seeded corpus, its failure accounting, spans and smoke run."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from spans import direct, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, make_corpus  # noqa: E402


def corpus_bytes(seed):
    size = WORKLOADS["reduce-classify"].full
    queries, answers = make_corpus(seed, size["ranks"], size["length"], size["per_rank"])
    return json.dumps(queries).encode(), json.dumps(answers).encode()


def test_same_seed_same_corpus_and_answers():
    queries, answers = corpus_bytes(11)
    assert corpus_bytes(11) == (queries, answers)
    assert len(json.loads(queries)) == 1000


def test_other_seed_other_corpus():
    assert corpus_bytes(11)[0] != corpus_bytes(12)[0]


def test_wrong_answers_and_exceptions_are_failed_operations():
    fake = Workload(
        "fake", prepare=None,
        ops=lambda st: [lambda call: 2, lambda call: 3, lambda call: 1 // 0],
        check=lambda st, index, out, counts: [] if out == 2 else ["wrong"],
        full={}, smoke={})
    outcome = run.Run()
    latencies = outcome.ops(fake, None, direct)
    assert len(latencies) == outcome.attempted == 3
    assert outcome.failed == 2
    assert "ZeroDivisionError" in outcome.problems[1]


def test_self_times_subtract_direct_children():
    spans = [["a", 0.0, 10.0, -1, "op"], ["b", 1.0, 4.0, 0, "op"],
             ["c", 5.0, 6.0, 0, "op"], ["d", 2.0, 3.0, 1, "op"]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 99) == 990
    assert run.percentile([5.0, 7.0], 99) == 7.0


def test_smoke_runs_every_workload_and_oracle():
    ok, lines = run.smoke(seed=3)
    assert ok, "\n".join(lines)
    assert sum(line.startswith("smoke ") for line in lines) == 2 * len(WORKLOADS)


def test_metrics_and_workloads_are_the_declared_ones():
    declared = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for key, traced in (("end_to_end", False), ("per_layer", True)):
        _, metrics, _ = run.measure("reduce-classify", 1, 0, traced, size_key="smoke",
                                    fresh=False)
        assert {m["name"]: m["unit"] for m in declared[key]} == {
            name: unit for name, (_, unit) in metrics.items()}

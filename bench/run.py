"""Benchmark runner for affinegsb.

Single process, single thread, closed loop: each operation starts only
after the previous one has finished.  Run from the root of a checkout:

    python3 bench/run.py --workload reduce-classify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25
    python3 bench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  See
bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace

from spans import Tracer, boundary_spans, direct, self_times
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
# Time metrics are reported in seconds of a machine on which
# reference_loop takes REFERENCE_S; see SpeedProbe.
REFERENCE_S = 0.010
PROBE_PERIOD_S = 0.25
LAYERS = ("words", "rewriting", "presentations", "affine_basis", "series",
          "word_classes", "partitions", "cli")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
    "op_ms_p50": "ms", "op_ms_p99": "ms", "peak_rss_mib": "MiB",
}
# per-layer time metric -> the spans whose inclusive time it sums
CALL_METRICS = {
    "rewriting.complete_s": ("rewriting.complete",),
    "rewriting.interreduce_s": ("rewriting.interreduce",),
    "rewriting.certify_s": ("rewriting.is_gs_basis",),
    "rewriting.normal_form_s": ("rewriting.normal_form",),
    "rewriting.is_reduced_s": ("rewriting.is_reduced",),
    "affine_basis.verify_s": ("affine_basis.verify_explicit_basis",),
    "affine_basis.g_families_s": ("affine_basis.g_families",),
    "series.automaton_build_s": ("series.FactorAutomaton",),
    "series.count_s": ("series.count_reduced", "series.count_by_length"),
    "series.poincare_s": ("series.poincare_affine_a",),
    "word_classes.classify_s": ("word_classes.classify",),
    "partitions.bijection_s": ("partitions.bijection",),
    "partitions.q_binomial_s": ("partitions.q_binomial", "partitions.box_count"),
    "presentations.build_s": ("presentations.affine_a", "presentations.from_coxeter_matrix",
                              "presentations.serialize", "presentations.parse",
                              "presentations.to_rules"),
    "words.parse_s": ("words.word",),
    "words.format_s": ("words.text",),
    "cli.growth_s": ("cli.run",),
}
CALL_COUNTS = {
    "rewriting.normal_form_calls": "rewriting.normal_form",
    "word_classes.classify_calls": "word_classes.classify",
}
CHECK_COUNTS = ("rewriting.rules", "rewriting.ambiguities", "rewriting.witnesses",
                "series.automaton_states")


class LibraryMissing(Exception):
    """The checkout has no affinegsb sources to benchmark."""


def load_library(fresh):
    """Import every layer from the checkout's src/, afresh if asked."""
    if not (SRC / "affinegsb" / "__init__.py").is_file():
        raise LibraryMissing(f"no affinegsb package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m == "affinegsb" or m.startswith("affinegsb.")]:
            del sys.modules[name]
    lib = SimpleNamespace(**{
        name: importlib.import_module(f"affinegsb.{name}") for name in LAYERS
    })
    if not Path(lib.cli.__file__).resolve().is_relative_to(SRC):
        raise LibraryMissing(f"affinegsb imported from {lib.cli.__file__}, not {SRC}")
    return lib


def reference_loop():
    """A fixed interpreter-bound loop that touches neither the library nor the GC."""
    acc, seen = 0, {}
    for i in range(25000):
        b = bytes((i % 7, i % 5, i % 3))
        seen[b] = seen.get(b, 0) + 1
        acc += len(b) + i * i % 11
    return acc


class SpeedProbe:
    """Samples the machine's speed every PROBE_PERIOD_S, during operations too.

    A shared virtual machine's speed drifts by tens of percent.  An
    interval timer interrupts the run and times ``reference_loop`` in the
    signal handler; ``clock()`` excludes the handler's time, so latencies
    measured with it do not include the probe.  Timings divided by the
    mean probe sample are comparable between runs at different speeds.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a tick that arrives during a sample is dropped
            return
        self._busy = True
        try:
            start = time.perf_counter()
            reference_loop()
            took = time.perf_counter() - start
            self.samples.append(took)
            self.spent += took
        finally:
            self._busy = False

    def clock(self):
        return time.perf_counter() - self.spent

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self):
        """Factor from seconds here to seconds where the reference loop takes REFERENCE_S."""
        return REFERENCE_S / statistics.mean(self.samples)


class Run:
    """Outcome of the operations of one run: latencies, problems, counts."""

    def __init__(self, clock=time.perf_counter):
        self.attempted = 0
        self.problems = []
        self.counts = Counter()
        self.clock = clock

    def ops(self, workload, state, call, tracer=None, label="op"):
        """Run and check one fixed job; return each operation's latency."""
        latencies = []
        for index, op in enumerate(workload.ops(state)):
            if tracer:
                tracer.op = f"{label}:{index}"
            self.attempted += 1
            start = self.clock()
            try:
                out = op(call)
            except Exception:  # a crash, or a limit error, is a failed operation
                latencies.append(self.clock() - start)
                self.problems.append(f"{workload.name} op {index}: "
                                     + traceback.format_exc(limit=3))
                continue
            latencies.append(self.clock() - start)
            found = workload.check(state, index, out, self.counts)
            if found:
                self.problems.append("; ".join(found[:3]))
        return latencies

    @property
    def failed(self):
        return len(self.problems)


def preflight(lib, seed, run, call, tracer=None):
    """Every workload once at smoke size, checked by its oracles."""
    for w in WORKLOADS.values():
        state = w.prepare(lib, w.smoke, seed, call)
        run.ops(w, state, call, tracer, label=f"preflight-{w.name}")


def setup(workload, size, seed, run, fresh, tracer=None):
    """Import, preflight, then build this workload's inputs and oracle answers."""
    lib = load_library(fresh)
    call = tracer.call if tracer else direct
    with boundary_spans(lib, tracer):
        preflight(lib, seed, run, call, tracer)
        if tracer:
            tracer.op = "setup"
        state = workload.prepare(lib, size, seed, call)
    return lib, state


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def measure(name, seed, seconds, traced, size_key="full", fresh=True):
    """One benchmark run; returns (run, metrics, details).

    An untraced run measures end-to-end metrics under the speed probe; a
    traced run measures per-layer metrics, without the probe.
    """
    workload = WORKLOADS[name]
    size = getattr(workload, size_key)
    with contextlib.ExitStack() as stack:
        probe = None if traced else stack.enter_context(SpeedProbe())
        run = Run(probe.clock if probe else time.perf_counter)
        tracer = Tracer() if traced else None
        start = run.clock()
        lib, state = setup(workload, size, seed, run, fresh, tracer)
        setup_times = [run.clock() - start]
        setup_counts = Counter(run.counts)

        # Timed phase: whole jobs, alternating untraced and traced in a traced
        # run.  The set-up is repeated after each job, so that it is sampled
        # over the whole run like the operations are.
        plain, traced_jobs = [], []
        begin = run.clock()
        while True:
            round_start = run.clock()
            plain.append(run.ops(workload, state, direct))
            if traced:
                with boundary_spans(lib, tracer):
                    traced_jobs.append(run.ops(workload, state, tracer.call, tracer,
                                               label=f"pass{len(traced_jobs)}"))
            again = Run(run.clock)
            setup_start = run.clock()
            setup(workload, size, seed, again, fresh)
            setup_times.append(run.clock() - setup_start)
            run.attempted += again.attempted
            run.problems += again.problems
            now = run.clock()
            if now - begin + (now - round_start) > seconds:
                break

    jobs = len(plain)
    means = mean_times(plain)
    details = {"jobs": jobs, "setup_s_each": setup_times, "op_mean_s": means}
    if not traced:
        scale = probe.scale()
        details.update(probe_samples=len(probe.samples), probe_mean_s=REFERENCE_S / scale,
                       raw_setup_s=statistics.mean(setup_times), raw_wall_s=sum(means))
        metrics = {
            "setup_s": statistics.mean(setup_times) * scale,
            "wall_s": sum(means) * scale,
            "ops_per_s": len(means) / (sum(means) * scale),
            "op_ms_p50": 1000 * statistics.median(means) * scale,
            "op_ms_p99": 1000 * percentile(means, 99) * scale,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return run, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, details
    details["spans"] = tracer.spans
    # the timed phase checked 2 * jobs jobs, untraced and traced
    timed_counts = run.counts - setup_counts
    counts = {k: setup_counts[k] + timed_counts[k] / (2 * jobs)
              for k in (*CHECK_COUNTS, "rewriting.nf_letters")}
    metrics = layer_metrics(tracer.spans, counts, jobs)
    metrics["trace.overhead_s"] = (sum(mean_times(traced_jobs)) - sum(means), "s")
    return run, metrics, details


def mean_times(jobs):
    """Each operation's mean latency over the repeated jobs of a run."""
    return [statistics.mean(lat) for lat in zip(*jobs)]


def layer_metrics(spans, counts, jobs):
    """Per-layer figures for one set-up plus one traced job.

    Spans of the set-up (including the preflight) count once; those of
    the timed phase are divided by the number of traced jobs.  ``counts``
    are already on that footing.
    """
    own = self_times(spans)
    parts = {"setup": (defaultdict(float), defaultdict(float), Counter()),
             "timed": (defaultdict(float), defaultdict(float), Counter())}
    for (name, start, end, _, op), mine in zip(spans, own):
        inclusive, self_s, calls = parts["timed" if op.startswith("pass") else "setup"]
        inclusive[name] += end - start
        self_s[name.split(".")[0]] += mine
        calls[name] += 1

    def per_job(kind, key):
        return parts["setup"][kind][key] + parts["timed"][kind][key] / jobs

    metrics = {metric: (sum(per_job(0, n) for n in names), "s")
               for metric, names in CALL_METRICS.items()}
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = (per_job(2, name), "count")
    for key in CHECK_COUNTS:
        metrics[key] = (counts[key], "count")
    metrics["rewriting.nf_letters_per_s"] = (
        counts["rewriting.nf_letters"] / per_job(0, "rewriting.normal_form"), "1/s")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (per_job(1, layer), "s")
    return metrics


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def result_line(run, metrics):
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def report(run, metrics, env, details):
    """Print the metrics, keep a record under bench/results, print the result line."""
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for key, (value, unit) in metrics.items():
        print(f"{key:32s} {value:14.6f} {unit}")
    print(f"{'fail_ratio':32s} {run.failed / run.attempted:14.6f} "
          f"({run.failed} of {run.attempted} operations)")
    print(f"{'jobs':32s} {details['jobs']:14d} count "
          f"({len(details['op_mean_s'])} operations each)")
    for key in ("raw_setup_s", "raw_wall_s", "probe_mean_s", "probe_samples"):
        if key in details:
            print(f"{key:32s} {details[key]:14.6f}")
    for problem in run.problems[:10]:
        print("FAILED: " + problem, file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{env['workload']}-seed{env['seed']}-trace{env['trace']}"
    spans = details.pop("spans", None)
    record = {"env": env, "metrics": metrics, "details": details,
              "attempted": run.attempted, "problems": run.problems}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        own = self_times(spans)
        fields = ("name", "start", "end", "parent", "op", "self")
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"env": env, "fields": fields,
             "spans": [s + [o] for s, o in zip(spans, own)]}) + "\n")
        print(f"# spans: {len(spans)} written to {RESULTS / (stem + '-spans.json')}")
    print(result_line(run, metrics))


def run_all(args):
    """Every workload in its own process, untraced then traced."""
    total, correct, metrics = 0, True, {}
    failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            print(f"## {name} trace={trace} exit={proc.returncode}")
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                correct = False
                continue
            result = json.loads(lines[-1])
            correct &= result["correct"]
            total += result["attempted"]
            failed += result["failed"]
            for key, value in result["metrics"].items():
                metrics[f"{name}/{key}"] = value
    print(json.dumps({"correct": correct, "attempted": total, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def smoke(seed):
    """Every workload at smoke size, untraced and traced: (ok, lines).

    The library is not re-imported, so modules a test run imported stay valid.
    """
    ok, lines = True, []
    for name in WORKLOADS:
        for traced in (False, True):
            run, metrics, _ = measure(name, seed, 0, traced, size_key="smoke", fresh=False)
            ok &= run.failed == 0 and run.attempted > 0
            lines.append(f"smoke {name} trace={int(traced)}: {run.attempted} operations, "
                         f"{run.failed} failed, {len(metrics)} metrics")
            lines += ["FAILED: " + p for p in run.problems]
    return ok, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny size, checked, in a few seconds")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    try:
        if args.smoke:
            ok, lines = smoke(args.seed)
            print("\n".join(lines))
            print(f"smoke: {'PASS' if ok else 'FAIL'}")
            return 0 if ok else 1
        if args.workload == "all":
            return run_all(args)
        run, metrics, details = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except LibraryMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    report(run, metrics, environment(args), details)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

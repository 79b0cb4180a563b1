"""Benchmark runner for locgenus: one workload, one seed, one run.

Usage, from the repository root:

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each exists): cli_mix, library_mix,
large_primes, genus_enumerate; ``--workload all`` runs each in turn in its
own process. Standard library only; locgenus is imported unmodified from
``src/``.

--trace 0 reports the end-to-end metrics. This host is shared: other
tenants slow the interpreter by up to half, in phases of about a second,
and its uncontended speed drifts over minutes. So operation timings come
from the calm phases of the run, found by a fixed canary timed every 25 ms
of operations, and are scaled to a reference canary speed. Set-up and cold
start come from fresh processes spread over the run, each against a
reference process started just before it that imports the same standard
library modules; both include interpreter start and imports. The run and every
process it starts are pinned to one CPU.

--trace 1 first runs the workload untraced for half the time, then with
spans around each layer's public functions for the other half, and
reports the per-layer metrics (per round of the workload's fixed mix) and
the tracing overhead.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. An environment record (machine,
interpreter, commit, seed, tail percentile and sample counts) goes to the
line before it and, with the full result, to ``perfbench-results/``.
Exit status is 0 only when every answer checked was right.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-results"

SETUP_PROBES = 9
COLD_WARM_SPAWNS = 2
COLD_SPAWNS = 21
SUBPROCESS_TIMEOUT_S = 60
#: The reference process imports the standard-library modules locgenus
#: uses, so contention slows it as it slows a locgenus start; see ``Spawner``.
REFERENCE_IMPORTS = "import argparse, dataclasses, enum, fractions, itertools, json, re, typing"
#: Its duration on the reference host (2 vCPUs, CPython 3.11, uncontended).
REFERENCE_START_MS = 58.0


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def python_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_sample(workload: str, seed: int) -> float:
    """Start-to-ready seconds of one fresh process, generation excluded."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(SRC)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    ) as proc:
        if not select.select([proc.stdout], [], [], SUBPROCESS_TIMEOUT_S)[0]:
            proc.kill()
            raise RuntimeError(f"set-up probe gave no answer in {SUBPROCESS_TIMEOUT_S} s")
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=SUBPROCESS_TIMEOUT_S)
    fields = line.split()
    if code != 0 or len(fields) != 4 or fields[0] != "ready":
        raise RuntimeError(f"set-up probe exited {code} with {line!r}")
    if fields[2] != "0" or fields[3] != "0":
        raise RuntimeError(f"set-up probe warm-up went wrong: {line!r}")
    return ready - start - float(fields[1])


def reference_start_ms() -> float:
    """Wall milliseconds of the reference process, same environment."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", REFERENCE_IMPORTS],
        cwd=ROOT,
        env=python_env(),
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    return (time.perf_counter() - start) * 1e3


def cold_start_sample(op, judge) -> float:
    """Wall milliseconds of one ``python -m locgenus`` process."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "locgenus", *op.args[0]],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=python_env(),
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    elapsed = (time.perf_counter() - start) * 1e3
    verdict = judge(op.expect, (proc.returncode, proc.stdout, proc.stderr))
    if verdict != "ok":
        raise RuntimeError(f"cold start {op.args[0]} was {verdict}: {proc.stderr[-300:]}")
    return elapsed


class Spawner:
    """Set-up probes and cold starts, one at a time between operations.

    Host contention comes in phases, so the samples are spread evenly over
    the measurement, and each is paired with a reference process started
    just before it, which contention slows alike. The metric is the median
    of sample / reference, times REFERENCE_START_MS: a change to what
    locgenus imports or runs moves it in full, the host's state does not.
    """

    def __init__(self, workload, seed, budget_s, judge):
        import workloads

        commands = workloads.CliMix(random.Random(f"cold_start:{seed}"))
        self.todo = ["warm"] * COLD_WARM_SPAWNS
        self.todo += ["setup", "cold"] * SETUP_PROBES + ["cold"] * (COLD_SPAWNS - SETUP_PROBES)
        self.commands = commands.cold_start_commands(COLD_WARM_SPAWNS + COLD_SPAWNS)
        self.workload, self.seed, self.judge = workload, seed, judge
        self.interval = budget_s / len(self.todo)
        self.due = time.perf_counter()
        # (sample, reference start just before it in ms)
        self.setup_s: list[tuple[float, float]] = []
        self.cold_ms: list[tuple[float, float]] = []

    def _one(self):
        kind = self.todo.pop(0)
        reference = reference_start_ms()
        if kind == "setup":
            self.setup_s.append((setup_sample(self.workload, self.seed), reference))
        else:
            elapsed = cold_start_sample(self.commands.pop(0), self.judge)
            if kind == "cold":
                self.cold_ms.append((elapsed, reference))

    @staticmethod
    def at_reference(samples, unit_ms: float) -> float:
        """Median of sample / reference, in the samples' unit, scaled to
        REFERENCE_START_MS."""
        ratios = [value * unit_ms / reference for value, reference in samples]
        return statistics.median(ratios) * REFERENCE_START_MS / unit_ms

    def __call__(self):
        if self.todo and time.perf_counter() >= self.due:
            self._one()
            self.due = time.perf_counter() + self.interval

    def finish(self):
        while self.todo:
            self._one()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "locgenus").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
    )
    return proc.stdout.strip() or None


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "load": "closed loop, one client, one operation at a time",
    }


def end_to_end(args, generator, runner):
    """End-to-end metrics of an untraced run; see BENCHMARK.json.

    Operation timings come from the calm part of the run, operations
    bracketed by canaries no slower than the run's fast ones, scaled to the
    reference canary speed (``Tally.figures``, ``Tally.speed_scale``); the
    record also keeps the unscaled figures over every operation. Set-up and
    cold start are measured against a reference process (``Spawner``).
    """
    import harness

    warm = harness.Tally()
    runner.run(generator.warmup(), warm)
    spawner = Spawner(args.workload, args.seed, args.seconds, harness.judge)
    tally = runner.run_rounds(generator, args.seconds, spawner, harness.CANARY_EVERY_NS)
    spawner.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the analysis
    limit = tally.calm_threshold()
    scale = tally.speed_scale()
    calm = tally.figures(generator.tail_cap)
    every = tally.figures(generator.tail_cap, calm=False)
    values = {
        "setup_s": spawner.at_reference(spawner.setup_s, 1e3),
        "items_per_s": calm["items_per_s"] / scale,
        "op_p50_ms": calm["op_p50_ms"] * scale,
        "op_tail_ms": calm["op_tail_ms"] * scale,
        "failed_ratio": tally.failed / tally.attempted,
        "peak_rss_mb": peak_rss_mb,
        "cold_start_ms": spawner.at_reference(spawner.cold_ms, 1.0),
    }
    details = {
        "op_tail": calm["op_tail"],
        "rounds": tally.rounds,
        "calm": {
            "operations": calm["calm_operations"],
            "of": tally.attempted,
            "canaries": len(tally.canary_ns),
            "canary_limit_us": limit / 1e3,
            "speed_scale": scale,
        },
        "all_operations": every,
        "setup_samples_s": spawner.setup_s,
        "cold_start_samples_ms": spawner.cold_ms,
        "failures_by_kind": tally.failures,
    }
    return values, details, [warm, tally]


def per_layer(args, generator, runner):
    """Per-layer metrics, per round, from the traced half of the run."""
    import harness
    import tracing

    warm = harness.Tally()
    runner.run(generator.warmup(), warm)
    plain = runner.run_rounds(generator, args.seconds / 2)

    distinct: set[int] = set()
    bucket_ns: dict[int, int] = {}
    bucket_calls: dict[int, int] = {}

    def on_is_prime(n, self_ns):
        distinct.add(n)
        if n > 1:
            decade = round(math.log10(n))  # e04 covers [10^3.5, 10^4.5)
            bucket_ns[decade] = bucket_ns.get(decade, 0) + self_ns
            bucket_calls[decade] = bucket_calls.get(decade, 0) + 1

    tracer = tracing.Tracer(on_is_prime)
    tracer.install()
    try:
        traced = runner.run_rounds(generator, args.seconds / 2)
    finally:
        tracer.restore()

    rounds = traced.rounds
    values = {}
    # Layers the workload never imports report zero.
    for name in tracing.SPAN_NAMES:
        stat = tracer.stats.get(name, tracing.Stat())
        values[f"{name}.calls"] = stat.calls / rounds
        values[f"{name}.self_ms"] = stat.self_ns / 1e6 / rounds
    for name in tracing.COUNTER_NAMES:
        values[name] = tracer.counts.get(name, 0) / rounds
    prime_calls = values["arith.is_prime.calls"] * rounds
    factorize = tracer.stats["arith.factorize"]
    values["arith.is_prime.distinct_ratio"] = len(distinct) / prime_calls if prime_calls else 0.0
    values["arith.factorize.answered_ratio"] = (
        factorize.returned / factorize.calls if factorize.calls else 0.0
    )
    for decade in range(4, 13):
        calls = bucket_calls.get(decade, 0)
        values[f"arith.is_prime.us_per_call.e{decade:02d}"] = (
            bucket_ns.get(decade, 0) / 1e3 / calls if calls else 0.0
        )
    values["cli.stdout_bytes"] = traced.stdout_bytes / rounds
    traced_rate = traced.items / traced.op_ns
    values["trace.overhead_ratio"] = plain.items / plain.op_ns / traced_rate if traced_rate else 0.0
    values["failed_ratio"] = (plain.failed + traced.failed) / (plain.attempted + traced.attempted)

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-s{args.seed}.tsv"
    tracer.write_spans(spans_path)
    details = {
        "untraced_rounds": plain.rounds,
        "traced_rounds": rounds,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_kept": len(tracer.log) // 5,
        "failures_by_kind": traced.failures,
    }
    return values, details, [warm, plain, traced]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "locgenus" / "__init__.py").is_file():
        return fail(f"no locgenus package under {SRC}")
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())

    # One CPU for this process and every process it starts: the two vCPUs
    # of a shared host are contended independently, so the canary, the
    # operations and the subprocesses must all run where they are compared.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
            ).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}")
    generator = workloads.make(args.workload, args.seed)

    import harness

    runner = harness.Runner(generator.imports_cli)
    import locgenus

    if Path(locgenus.__file__).resolve().parent != (SRC / "locgenus").resolve():
        return fail(f"imported locgenus from {locgenus.__file__}, not from {SRC}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measure = per_layer if args.trace else end_to_end
    try:
        values, details, tallies = measure(args, generator, runner)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))
    measured = tallies[1:]  # the first is the warm-up pass
    wrong = [w for t in tallies for w in t.wrong]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not wrong
    result = {
        "correct": correct,
        "attempted": sum(t.attempted for t in measured),
        "failed": sum(t.failed for t in measured),
        "metrics": metrics,
    }
    record = {"environment": environment(args), "details": details, "result": result,
              "all_values": values, "wrong": wrong[:20]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    for w in wrong[:5]:
        print(f"wrong answer: {w}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"environment": record["environment"], "details": details}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

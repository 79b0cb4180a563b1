"""The benchmark's answers, checked as a test.

``perfbench/model.py`` answers every call and command the benchmark issues
without importing locgenus. Here a few rounds of each workload run at
fixed seeds through the benchmark's own generator and judge, so a wrong
answer fails the test suite and not only a benchmark run. No refusal is
allowed: L1 on large_primes, a non-member under default 0 whose
denominator is past the factor bound, is answered without factoring it.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 3
#: Kinds of operation each workload may refuse.
ALLOWED_REFUSALS: dict[str, set[str]] = {}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_benchmark_answers_are_right(name, seed):
    generator = workloads.make(name, seed)
    runner = harness.Runner(generator.imports_cli)
    tally = harness.Tally()
    runner.run(generator.warmup(), tally)
    for _ in range(ROUNDS):
        runner.run(generator.next_round(), tally)
    assert tally.wrong == []
    assert set(tally.failures) <= ALLOWED_REFUSALS.get(name, set()), tally.failures

"""One set-up, as a process start pays it: interpreter, import, warm-up.

Usage: python3 perfbench/probe.py <workload> <seed> <src dir>

Prints ``ready <generation seconds> <wrong answers>`` once the warm-up
pass is done. The parent times the span from spawning this process to
reading that line and subtracts the generation time, which belongs to the
benchmark, not to locgenus.
"""

import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import workloads

    workload, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    generator = workloads.make(workload, seed)
    ops = generator.warmup()
    generation_s = time.perf_counter() - start

    sys.path.insert(0, src)
    import harness

    tally = harness.Tally()
    harness.Runner(generator.imports_cli).run(ops, tally)
    print(f"ready {generation_s!r} {len(tally.wrong)} {tally.failed}", flush=True)

"""Run operations one at a time against locgenus and judge each answer.

Load model: one client in a closed loop. The next operation starts only
after the previous one has returned and been judged; only the call itself
is inside the timed region, not generation or checking.

A judgement is one of:

* ok: the expected answer, or the expected error exit with exactly one
  ``error:`` line and nothing on stdout;
* failed: an exception escaped the call, or the exit code differs from
  the expected one (a refusal of an answerable query, a traceback);
* wrong: the call returned the expected exit code with the wrong output.
  Any wrong answer makes the whole run incorrect.
"""

from __future__ import annotations

import json
import statistics
from array import array
from bisect import bisect_right
from time import perf_counter_ns

OK, FAILED, WRONG = "ok", "failed", "wrong"

#: Tail percentiles tried from the top; the first at or below the
#: workload's cap with at least ten samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def judge(expect, obs) -> str:
    if isinstance(obs, Exception):
        return FAILED
    if expect[0] == "value":
        return OK if obs == expect[1] else WRONG
    if expect[0] == "cli":
        _, want, check = expect
        code, out, err = obs
        if code != want:
            return FAILED
        if want:
            one_line = err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
            return OK if one_line and not out else WRONG
        if err:
            return WRONG
        if check[0] == "text":
            return OK if out == check[1] else WRONG
        try:
            return OK if out.count("\n") == 1 and json.loads(out) == check[1] else WRONG
        except ValueError:
            return WRONG
    code, err, summary, captured, roundtrip = obs
    if code != 0:
        return FAILED
    return OK if (err, summary, captured, roundtrip) == ("", *expect[1:]) else WRONG


#: Operation time between two canaries, and how much slower than the
#: run's fast canaries (2nd percentile) a canary may be and still count.
CANARY_EVERY_NS = 25_000_000
CANARY_SLACK = 1.25
#: Timings are reported as if the calm canary took this long (about its
#: fast-mode time on a 2-vCPU CPython 3.11 host), see ``Tally.speed_scale``.
REFERENCE_CANARY_NS = 100_000
#: Fewest samples that stand for a class: when fewer were calm, the
#: samples taken next to the fastest canaries are used.
MIN_CALM = 8


def canary() -> int:
    """Nanoseconds for a fixed bit of pure-Python work.

    On a shared host the interpreter runs in a fast mode and, while other
    tenants contend for the core, in a mode up to about twice as slow; the
    modes switch every second or so. The canary's duration says which mode
    the operations around it ran in.
    """
    start = perf_counter_ns()
    table = {}
    for i in range(400):
        table[i % 61] = f"{i}:{i * i % 97}"
    return perf_counter_ns() - start


class Tally:
    """Latencies, counts and outcomes of the operations run so far."""

    def __init__(self):
        # Six bytes per operation keep the harness's own memory small next
        # to peak_rss_mb: latency, class (index into ``classes``, by
        # Op.kind) and whether it was answered right.
        self.latency_ms = array("f")
        self.op_class = array("B")
        self.op_ok = array("B")
        self.classes: dict[str, int] = {}
        self.class_items: list[int] = []  # items of one operation of each class
        self.canary_ns = array("q")
        self.canary_at = array("l")  # operations run before each canary
        self._canary_op_ns = 0
        self.op_ns = 0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.stdout_bytes = 0
        self.wrong: list[str] = []
        self.failures: dict[str, int] = {}

    def check_canary(self, every_ns: int) -> None:
        if not self.canary_at or self.op_ns - self._canary_op_ns >= every_ns:
            self.canary_ns.append(canary())
            self.canary_at.append(self.attempted)
            self._canary_op_ns = self.op_ns

    def calm_threshold(self) -> int:
        ordered = sorted(self.canary_ns)
        return ordered[len(ordered) // 50] * CANARY_SLACK

    def speed_scale(self) -> float:
        """Factor that turns this run's calm timings into reference ones.

        The host's fast mode itself drifts by a fifth over minutes; dividing
        by the calm canary's median removes that drift from every timing,
        while a change in locgenus, which the canary does not run, still
        shows in full.
        """
        limit = self.calm_threshold()
        return REFERENCE_CANARY_NS / statistics.median(x for x in self.canary_ns if x <= limit)

    def op_canary(self) -> array:
        """For each operation, the slower of the two canaries around it."""
        ns, at = self.canary_ns, self.canary_at
        level = array("q", bytes(8 * self.attempted))
        for k in range(1, len(ns)):
            slower = max(ns[k - 1], ns[k])
            for i in range(at[k - 1], at[k]):
                level[i] = slower
        return level

    def figures(self, tail_cap: float, calm: bool = True) -> dict:
        """items_per_s, op_p50_ms and op_tail_ms of the measured rounds.

        With ``calm``, each class of operation is timed by its calm
        operations (see ``calmest``) and weighted by its share of a round,
        so the mix stays exactly the workload's whatever share of the run
        was calm. Without it, every operation counts once.
        """
        level = self.op_canary() if calm else None
        limit = self.calm_threshold()
        by_class: dict[int, list[int]] = {}
        for i, c in enumerate(self.op_class):
            by_class.setdefault(c, []).append(i)
        pairs, round_ms, round_items, chosen = [], 0.0, 0.0, 0
        for every in by_class.values():
            use = every if level is None else calmest(every, lambda i: level[i], limit)
            chosen += len(use)
            per_round = len(every) / self.rounds
            latency = [self.latency_ms[i] for i in use]
            round_ms += per_round * statistics.fmean(latency)
            c = self.op_class[every[0]]
            round_items += per_round * self.class_items[c] * statistics.fmean(
                self.op_ok[i] for i in every
            )
            pairs += [(x, per_round / len(use)) for x in latency]
        pairs.sort()
        values = [x for x, _ in pairs]
        for p in TAIL_LADDER:
            if p <= tail_cap:
                tail_ms = weighted_quantile(pairs, p / 100)
                beyond = len(values) - bisect_right(values, tail_ms)
                if beyond >= 10:
                    break
        return {
            "items_per_s": round_items / round_ms * 1e3,
            "op_p50_ms": weighted_quantile(pairs, 0.5),
            "op_tail_ms": tail_ms,
            "op_tail": {"percentile": p, "samples": len(pairs), "beyond": beyond},
            "calm_operations": chosen,
        }


def calmest(samples, canary_of, limit) -> list:
    """The samples whose canary is within ``limit``; if fewer than
    MIN_CALM, the MIN_CALM samples with the fastest canaries."""
    calm = [x for x in samples if canary_of(x) <= limit]
    if len(calm) >= MIN_CALM:
        return calm
    return sorted(samples, key=canary_of)[:MIN_CALM]


def weighted_quantile(pairs, q: float) -> float:
    """The sample at quantile q of value-sorted (value, weight) pairs."""
    target = q * sum(w for _, w in pairs)
    total = 0.0
    for value, weight in pairs:
        total += weight
        if total >= target:
            return value
    return pairs[-1][0]


class Runner:
    def __init__(self, with_cli: bool):
        import libcalls  # imports locgenus

        self.modules = {"lib": libcalls}
        if with_cli:
            import clicalls  # imports locgenus.cli

            self.modules["cli"] = clicalls

    def run(self, ops, tally: Tally, between=None, canary_every_ns=None) -> None:
        """Run ops in order. After each, untimed, the canary is taken when
        ``canary_every_ns`` is given and then ``between()`` is called."""
        for op in ops:
            prefix, name = op.call.split(".")
            fn = getattr(self.modules[prefix], name)
            start = perf_counter_ns()
            try:
                obs = fn(*op.args)
            except Exception as exc:  # an escaping exception is a failed operation
                obs = exc
            elapsed = perf_counter_ns() - start
            tally.latency_ms.append(elapsed / 1e6)
            tally.op_ns += elapsed
            tally.attempted += 1
            verdict = judge(op.expect, obs)
            if op.kind not in tally.classes:
                tally.classes[op.kind] = len(tally.classes)
                tally.class_items.append(op.items)
            tally.op_class.append(tally.classes[op.kind])
            tally.op_ok.append(verdict == OK)
            if verdict == OK:
                tally.items += op.items
            elif verdict == FAILED:
                tally.failed += 1
                tally.failures[op.kind] = tally.failures.get(op.kind, 0) + 1
            else:
                tally.wrong.append(f"{op.kind} {op.call}{op.args!r:.300} -> {obs!r:.300}")
            if op.call.startswith("cli.") and not isinstance(obs, Exception):
                tally.stdout_bytes += len(obs[1].encode()) if op.call == "cli.call" else obs[2][2]
            if canary_every_ns is not None:
                tally.check_canary(canary_every_ns)
            if between is not None:
                between()

    def run_rounds(self, generator, budget_s: float, between=None, canary_every_ns=None) -> Tally:
        """Run whole rounds until the timed calls add up to ``budget_s``."""
        tally = Tally()
        if canary_every_ns is not None:
            tally.check_canary(canary_every_ns)
        budget_ns = budget_s * 1e9
        while tally.rounds == 0 or tally.op_ns < budget_ns:
            self.run(generator.next_round(), tally, between, canary_every_ns)
            tally.rounds += 1
        if canary_every_ns is not None:
            tally.check_canary(0)
        return tally

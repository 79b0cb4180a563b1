"""Spans around the public functions and methods of each locgenus layer.

The package source is not edited. A traced run wraps each target and
rebinds every locgenus module attribute that refers to it (so ``cli``
calling ``is_prime`` imported from ``arith`` is seen), or patches the
method on its class; ``Tracer.restore`` puts every original back. The
untraced run never calls ``Tracer.install``.

A span's self time is its duration minus the time covered by wrapped
child spans. Aggregates are updated as spans close; the first
``SPAN_LOG_CAP`` raw spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

# (span name, module, attribute) for functions; (span name, module, class,
# method) for methods. Several targets may share one span name.
FUNCTIONS = [
    ("arith.is_prime", "locgenus.arith", "is_prime"),
    ("arith.factorize", "locgenus.arith", "factorize"),
    ("arith.valuation", "locgenus.arith", "valuation"),
    ("arith.primes_up_to", "locgenus.arith", "primes_up_to"),
    ("rankone.type_of", "locgenus.rankone", "type_of"),
    ("rankone.similar", "locgenus.rankone", "similar"),
    ("connecting.p_primary_parts", "locgenus.connecting", "p_primary_parts"),
    ("genus.enumerate", "locgenus.genus", "enumerate_postnikov_genus"),
    ("cli.main", "locgenus.cli", "main"),
    ("cli.parse", "locgenus.cli", "parse_heights"),
    ("cli.parse", "locgenus.cli", "parse_descriptor"),
    ("cli.parse", "locgenus.cli", "parse_degree_exponents"),
]
METHODS = [
    ("rankone.HeightSequence", "locgenus.rankone", "HeightSequence", "__init__"),
    ("rankone.member", "locgenus.rankone", "RankOneGroup", "member"),
    ("rankone.lattice", "locgenus.rankone", "RankOneGroup", "intersect"),
    ("rankone.lattice", "locgenus.rankone", "RankOneGroup", "join"),
    ("connecting.evaluate", "locgenus.connecting", "ConnectingHom", "evaluate"),
    ("connecting.kernel", "locgenus.connecting", "ConnectingHom", "kernel"),
    ("genus.PostnikovGenusDescriptor", "locgenus.genus", "PostnikovGenusDescriptor", "__init__"),
    ("genus.fingerprint", "locgenus.genus", "FakeSphereModel", "fingerprint"),
    ("genus.classify", "locgenus.genus", "FakeSphereModel", "classify"),
]
# Counted, not timed: a probe is too small for a span to be worth its cost.
COUNTERS = [("genus.probes", "locgenus.genus", "FakeSphereModel", "operation_vanishes")]

SPAN_NAMES = list(dict.fromkeys(t[0] for t in FUNCTIONS + METHODS))
COUNTER_NAMES = [t[0] for t in COUNTERS]

SPAN_LOG_CAP = 20_000


class Stat:
    __slots__ = ("calls", "returned", "total_ns", "self_ns")

    def __init__(self):
        self.calls = self.returned = self.total_ns = self.self_ns = 0


class Tracer:
    def __init__(self, on_is_prime=None):
        """``on_is_prime(n, self_ns)`` observes each primality test."""
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self.names: list[str] = []
        # One record per span: name index, depth, start ns, duration ns, self ns.
        self.log = array("q")
        self._on_is_prime = on_is_prime
        self._stack = [0]  # child time accumulated by each open span
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        stat = self.stats.setdefault(name, Stat())
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)
        stack, log = self._stack, self.log
        observe = self._on_is_prime if name == "arith.is_prime" else None

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                stat.returned += 1
                return result
            finally:
                duration = perf_counter_ns() - start
                own = duration - stack.pop()
                stack[-1] += duration
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += own
                if len(log) < 5 * SPAN_LOG_CAP:
                    log.extend((index, len(stack) - 1, start, duration, own))
                if observe is not None:
                    observe(args[0], own)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every target whose module has been imported."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "locgenus" or name.startswith("locgenus.")
        }
        for name, module, attr in FUNCTIONS:
            if module not in modules:
                continue
            original = getattr(modules[module], attr)
            wrapper = self._span(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)
        for make, targets in ((self._span, METHODS), (self._counter, COUNTERS)):
            for name, module, cls_name, method in targets:
                if module in modules:
                    cls = getattr(modules[module], cls_name)
                    self._rebind(cls, method, make(name, cls.__dict__[method]))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path):
        """Write the kept raw spans as tab-separated text."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tdepth\tstart_ns\tduration_ns\tself_ns\n")
            log = self.log
            for i in range(0, len(log), 5):
                out.write(
                    f"{self.names[log[i]]}\t{log[i + 1]}\t{log[i + 2]}\t{log[i + 3]}\t{log[i + 4]}\n"
                )

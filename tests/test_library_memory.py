"""Library calls take memory by the size of their input, not of a height.

A stored height of 10^6 at 2 names the power 2^(10^6), 125 KB; evaluation,
kernels, membership and p-components must never build it. Each call is
traced with ``tracemalloc`` and held to a peak far below such a power.
Heights stay at or below 10^6, so a failing run cannot exhaust memory.
"""

import tracemalloc
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from locgenus import ConnectingHom, HeightSequence, QmodZElement, RankOneGroup

from genlib import SMALL_PRIMES

#: The peak any one call may trace; the power 2^(10^5) alone is 12.5 KB
#: and 2^(10^6) 125 KB.
PEAK_BOUND = 64 << 10

prime = st.sampled_from(SMALL_PRIMES)
height = st.integers(10**5, 10**6)
heights = st.dictionaries(prime, height, min_size=1, max_size=4)
twists = st.dictionaries(
    prime, st.tuples(st.integers(1, 8), st.integers(2, 10**4)), max_size=3
).map(lambda found: {p: (e, u) for p, (e, u) in found.items() if u % p})
precompose = st.builds(Fraction, st.integers(1, 10**3), st.integers(1, 10**3))
rational = st.builds(Fraction, st.integers(-10**5, 10**5), st.integers(1, 10**5))


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@settings(max_examples=60, deadline=None)
@given(heights, st.integers(0, 3), twists, precompose, rational, prime)
def test_calls_on_large_heights_stay_small(exceptions, default, twists, r, q, p):
    kernel_heights = HeightSequence(default, exceptions)
    d = ConnectingHom(kernel_heights, r, twists)
    group = RankOneGroup(kernel_heights)
    element = QmodZElement(q)
    calls = {
        "evaluate": lambda: d.evaluate(q),
        "kernel": d.kernel,
        "member": lambda: group.member(q),
        "p_component": lambda: element.p_component(p),
    }
    for name, call in calls.items():
        peak = traced_peak(call)
        assert peak < PEAK_BOUND, (name, peak)

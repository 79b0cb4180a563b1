"""Seeded input generation for the four workloads, with expected answers.

A workload yields *rounds*: lists of operations with a fixed composition
(so many queries of each kind, so many per size stratum), whose values are
drawn from the seed. The harness runs whole rounds, so every run measures
the same mix and only the values change with the seed.

Every operation names a call in ``libcalls`` or ``clicalls``, carries only
plain data (str, int, Fraction, tuples and dicts of them), and carries the
answer expected by ``model``, which never consults locgenus.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

import model as m
from model import INF, STAR

SMALL_PRIMES = m.primes_upto(47)


class Op(NamedTuple):
    kind: str  # the operation's class: what it does and, where it varies, its size
    call: str  # "lib.<name>", "cli.call" or "cli.enumerate_roundtrip"
    args: tuple
    expect: tuple  # ("value", v) | ("cli", code, stdout check) | ("enum", ...)
    items: int = 1


# ---------------------------------------------------------------------------
# Shared value generators
# ---------------------------------------------------------------------------


def rand_heights(rng, primes=SMALL_PRIMES, inf_default=0.15, max_entries=4):
    default = INF if rng.random() < inf_default else rng.choice((0, 0, 0, 1, 2))
    keys = sorted(rng.sample(primes, rng.randint(0, max_entries)))
    return default, {p: (INF if rng.random() < 0.3 else rng.randint(0, 6)) for p in keys}


def similar_to(rng, h):
    """A sequence of the same type as h, with its finite entries redrawn."""
    default, entries = m.canon(*h)
    if default == INF:
        return INF, {p: rng.randint(0, 6) for p in entries}
    out = {p: INF for p, v in entries.items() if v == INF}
    for p in rng.sample(SMALL_PRIMES, rng.randint(0, 3)):
        out.setdefault(p, rng.randint(0, 6))
    return default, out


def rand_exps(rng, primes=SMALL_PRIMES, most=3, low=-5, high=2):
    keys = rng.sample(primes, rng.randint(1, most))
    return {p: rng.choice([e for e in range(low, high + 1) if e]) for p in keys}


def fitted_exps(rng, h):
    """Exponents whose denominator sits inside h about half the time."""
    default, entries = h
    finite = [p for p, v in entries.items() if v != INF and v > 0]
    if finite and rng.random() < 0.5:
        return {p: -rng.randint(1, entries[p] + 1) for p in rng.sample(finite, 1)}
    return rand_exps(rng)


def fraction_parts(exps, sign=1):
    q = m.value_of(exps, sign)
    return q.numerator, q.denominator


def rand_twists(rng):
    twists = {}
    for p in rng.sample(SMALL_PRIMES, rng.randint(0, 2)):
        e = rng.randint(1, 3)
        unit = rng.randrange(1, p**e)
        while unit % p == 0:
            unit = rng.randrange(1, p**e)
        twists[p] = (e, unit)
    return twists


def rand_descriptor(rng, top=60):
    default = rng.choice((0, 0, 1, 2, STAR))
    keys = sorted(rng.sample(SMALL_PRIMES, rng.randint(0, 4)))
    return default, {p: (STAR if rng.random() < 0.2 else rng.randint(0, top)) for p in keys}


def odd_dim(rng, top=15):
    return rng.randrange(3, top + 1, 2)


def map_text(rng, default, entries):
    """Grammar text in one of three whitespace styles, primes ascending."""
    items = [("default", default)] + sorted(entries.items())
    style = rng.randrange(3)
    if style == 0:
        return "{" + ", ".join(f"{k}:{v}" for k, v in items) + "}"
    if style == 1:
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    return "{ " + " , ".join(f"{k} : {v}" for k, v in items) + " }"


# ---------------------------------------------------------------------------
# cli_mix
# ---------------------------------------------------------------------------


def _cli(kind, argv, code=0, lines=None, payload=None):
    if code:
        check = None
    elif "--json" in argv:
        check = ("json", payload)
    else:
        check = ("text", "".join(line + "\n" for line in lines))
    return Op(kind, "cli.call", (tuple(argv),), ("cli", code, check))


def _with_json(rng, argv):
    return argv + ["--json"] if rng.random() < 0.25 else argv


def cli_canon(rng):
    h = rand_heights(rng)
    t = m.type_text(h)
    return _cli("canon", _with_json(rng, ["type", "canon", map_text(rng, *h)]), 0, [t], {"type": t})


def cli_similar(rng):
    a = rand_heights(rng)
    b = similar_to(rng, a) if rng.random() < 0.5 else rand_heights(rng)
    v = m.similar(a, b)
    argv = _with_json(rng, ["type", "similar", map_text(rng, *a), map_text(rng, *b)])
    return _cli("similar", argv, 0, ["true" if v else "false"], {"similar": v})


def cli_member(rng):
    h = rand_heights(rng)
    exps = fitted_exps(rng, h)
    sign = rng.choice((1, 1, 1, -1))
    num, den = fraction_parts(exps, sign)
    scale = rng.choice((1, 1, 2, 3))
    q = f"{num * scale}/{den * scale}"
    v = m.member(h, exps)
    argv = _with_json(rng, ["group", "member"])
    if rng.random() < 0.2:
        argv += ["--prime-bound", "1000"]
    argv += (["--", q] if sign < 0 else [q]) + [map_text(rng, *h)]
    return _cli("member", argv, 0, ["true" if v else "false"], {"member": v})


def cli_pseudo(rng):
    h = rand_heights(rng)
    v = m.pseudo(h)
    argv = _with_json(rng, ["group", "pseudo", map_text(rng, *h)])
    return _cli("pseudo", argv, 0, ["true" if v else "false"], {"pseudo": v})


def cli_rational(rng):
    h = rand_heights(rng)
    dim = odd_dim(rng)
    argv = _with_json(rng, ["genus", "rational", map_text(rng, *h), "--dim", str(dim)])
    cofinite, primes = m.torsion(h)
    payload = {
        "type": m.type_text(h),
        "pi_n": m.type_text(h),
        "torsion_primes": {"cofinite": cofinite, "primes": primes},
        "connected": m.pseudo(h),
    }
    return _cli("rational", argv, 0, m.rational_genus_lines(h), payload)


def cli_fingerprint(rng):
    d = rand_descriptor(rng)
    t = m.fingerprint_text(*d)
    argv = ["genus", "postnikov", "fingerprint", map_text(rng, *d), "--dim", str(odd_dim(rng))]
    return _cli("fingerprint", _with_json(rng, argv), 0, [t], {"descriptor": t})


#: One round's enumerate shapes (prime bound, entry bound): two of 256
#: lines, so the p99 latency lands inside one class, not between two.
CLI_ENUMERATE_SHAPES = ((7, 2), (7, 2), (7, 1), (5, 2), (5, 1), (3, 2), (7, 0), (2, 2))


def cli_enumerate(rng, bound=7, top=2):
    lines = list(m.enumeration_lines(bound, top))
    argv = ["genus", "postnikov", "enumerate", "--dim", str(odd_dim(rng))]
    argv = _with_json(rng, argv + ["--primes", str(bound), "--max", str(top)])
    payload = {"descriptors": lines, "count": len(lines)}
    return _cli(f"enumerate/{len(lines)}", argv, 0, lines + [f"count: {len(lines)}"], payload)


def cli_cp(rng):
    n = rng.randint(1, 5)
    exps = {p: rng.randint(0, 4) for p in sorted(rng.sample(SMALL_PRIMES, rng.randint(0, 3)))}
    t = m.cp_text(n, exps)
    argv = _with_json(rng, ["genus", "cp", "--n", str(n), map_text(rng, 0, exps)])
    return _cli("cp", argv, 0, [t], {"descriptor": t, "dimension": 2 * n + 1})


def cli_padic(rng):
    p = rng.choice(SMALL_PRIMES)
    precision = rng.choice((None, 8, 16))
    if rng.random() < 0.15:
        value, cls = rng.choice(("zero", "Zero")), STAR
    else:
        # |value| < p^precision, so the residue keeps the exact valuation.
        cls = rng.randint(0, 5)
        top = min(500, p ** ((precision or 32) - cls) - 1)
        unit = rng.randint(1, top)
        while unit % p == 0:
            unit = rng.randint(1, top)
        value = str(rng.choice((1, -1)) * p**cls * unit)
    argv = ["padic", "class", str(p), value]
    if precision:
        argv += ["--precision", str(precision)]
    payload = {"class": cls}
    return _cli("padic", _with_json(rng, argv), 0, [str(cls)], payload)


_TAGS = [f"S{n}" for n in range(2, 13)] + [f"CP{n}" for n in range(1, 7)]
_TAGS += ["S2xS5", "CP2xS3", "s2xs5", "cp2xs3", "cp3", "s7"]


def cli_verdict(rng):
    tag = rng.choice(_TAGS)
    level = None if rng.random() < 0.3 else rng.randint(1, 12)
    record = m.verdict(tag, level)
    functor = "neisendorfer" if level is None else f"postnikov:{level}"
    argv = _with_json(rng, ["verdict", tag, "--functor", functor])
    return _cli("verdict", argv, 0, m.verdict_lines(record), record)


def _digits(rng, n):
    return str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(n - 1))


def cli_malformed(rng):
    """Inputs whose correct outcome is exit 2, 3 or 4 with one error line.

    D1 (an enumeration far over the limit whose exact size is formatted)
    and D2 (a decimal beyond Python's int-parsing digit limit) are the
    shapes known to escape as tracebacks; they stay in the mix so that
    they count as failures until fixed.
    """
    h = rand_heights(rng, max_entries=2)
    p = rng.choice(SMALL_PRIMES)
    dim = str(odd_dim(rng))
    return [
        _cli("D1", ["genus", "postnikov", "enumerate", "--dim", dim, "--primes",
                    str(rng.randint(200_000, 400_000)), "--max", str(rng.randint(0, 1))], 4),
        _cli("D2", ["type", "canon", "{default:" + _digits(rng, rng.randint(4301, 5000)) + "}"], 2),
        _cli("D2", ["group", "pseudo", "{default:0, " + _digits(rng, rng.randint(4301, 5000)) + ":1}"], 2),
        _cli("bad-word", ["type", "canon", "{default:0, 3:abc}"], 2),
        _cli("non-prime", ["type", "similar", map_text(rng, 0, {rng.choice((4, 9, 15, 49)): 1}),
                           map_text(rng, *h)], 2),
        _cli("order", ["type", "canon", "{default:0, 5:1, 3:1}"], 2),
        _cli("star-height", ["group", "pseudo", "{default:*}"], 2),
        _cli("inf-entry", ["genus", "postnikov", "fingerprint", "{default:inf}", "--dim", dim], 2),
        _cli("bad-rational", ["group", "member", f"{rng.randint(1, 9)}/0", map_text(rng, *h)], 2),
        _cli("even-dim", ["genus", "rational", map_text(rng, *h), "--dim", str(2 * rng.randint(1, 8))], 3),
        _cli("padic-prime", ["padic", "class", str(rng.choice((4, 9, 15, 49))), "12"], 3),
        _cli("padic-precision", ["padic", "class", str(p), str(p**6 * rng.randint(1, 9)),
                                 "--precision", "6"], 3),
        _cli("fingerprint-cap", ["genus", "postnikov", "fingerprint",
                                 map_text(rng, 0, {p: rng.randint(65, 99)}), "--dim", dim], 4),
        _cli("enumeration-limit", ["genus", "postnikov", "enumerate", "--dim", dim, "--primes",
                                   str(rng.randint(47, 60)), "--max", str(rng.randint(2, 3))], 4),
        _cli("verdict-tag", ["verdict", rng.choice(("S1", "CP0", "T5", "RP2")), "--functor",
                             "neisendorfer"], 3),
        _cli("cp-default", ["genus", "cp", "--n", "2", "{default:1, 2:1}"], 2),
    ]


class CliMix:
    """Every README subcommand through in-process ``cli.main``."""

    imports_cli = True
    tail_cap = 95.0
    # Per round of 200: valid queries by kind, 8 enumerations, 16 refusal shapes.
    MIX = (
        (cli_canon, 22), (cli_similar, 20), (cli_member, 24), (cli_pseudo, 16),
        (cli_rational, 18), (cli_fingerprint, 20), (cli_cp, 16), (cli_padic, 20),
        (cli_verdict, 20),
    )
    README_KINDS = tuple(make for make, _ in MIX) + (cli_enumerate,)

    def __init__(self, rng):
        self.rng = rng

    def warmup(self):
        return [make(self.rng) for make in self.README_KINDS]

    def next_round(self):
        ops = [make(self.rng) for make, count in self.MIX for _ in range(count)]
        ops += [cli_enumerate(self.rng, *shape) for shape in CLI_ENUMERATE_SHAPES]
        ops += cli_malformed(self.rng)
        self.rng.shuffle(ops)
        return ops

    def cold_start_commands(self, n):
        """Valid README-kind commands for one-at-a-time subprocess runs."""
        return [self.README_KINDS[i % len(self.README_KINDS)](self.rng) for i in range(n)]


# ---------------------------------------------------------------------------
# library_mix
# ---------------------------------------------------------------------------


def _lib(kind, name, args, value):
    return Op(kind, "lib." + name, args, ("value", value))


def lib_construct(rng):
    default, entries = rand_heights(rng)
    entries.setdefault(rng.choice(SMALL_PRIMES), default)  # dropped: equals the default
    h = (default, dict(sorted(entries.items())))
    return _lib("construct", "construct", (h,), m.text(*h))


def lib_similar(rng):
    a = rand_heights(rng)
    b = similar_to(rng, a) if rng.random() < 0.5 else rand_heights(rng)
    return _lib("similar", "similar", (a, b), m.similar(a, b))


def lib_type_of(rng):
    h = rand_heights(rng)
    return _lib("type_of", "type_of", (h,), m.type_text(h))


def lib_member(rng):
    h = rand_heights(rng)
    exps = fitted_exps(rng, h)
    return _lib("member", "member", (h, *fraction_parts(exps, rng.choice((1, -1)))),
                m.member(h, exps))


def lib_lattice(rng):
    a, b = rand_heights(rng), rand_heights(rng)
    meet, join = m.pointwise(a, b, min), m.pointwise(a, b, max)
    return _lib("lattice", "lattice", (a, b), (m.text(*meet), m.text(*join)))


def lib_evaluate(rng):
    h = rand_heights(rng)
    pre = rand_exps(rng, most=2, low=-2, high=2)
    q = fitted_exps(rng, h)
    sign = rng.choice((1, -1))
    twists = rand_twists(rng)
    r_exps = m.add_exps(pre, q)
    value = m.evaluate(h, m.value_of(r_exps, sign), r_exps, twists)
    args = (h, *fraction_parts(pre), twists, *fraction_parts(q, sign))
    return _lib("evaluate", "evaluate", args, value)


def lib_kernel(rng):
    h = rand_heights(rng)
    pre = rand_exps(rng, low=-3, high=3)
    return _lib("kernel", "kernel", (h, *fraction_parts(pre)), m.text(*m.kernel(h, pre)))


def lib_homotopy(rng):
    h = rand_heights(rng)
    pre = rand_exps(rng, most=2, low=-2, high=2)
    k = m.kernel(h, pre)
    value = (m.type_text(k), *m.torsion(k))
    return _lib("homotopy_groups", "homotopy_groups", (odd_dim(rng), h, *fraction_parts(pre)), value)


def lib_classify(rng):
    d = rand_descriptor(rng, top=40)
    return _lib("classify", "classify", (odd_dim(rng), *d), m.fingerprint_text(*d))


def lib_cp(rng):
    n = rng.randint(1, 6)
    exps = {p: rng.randint(0, 5) for p in rng.sample(SMALL_PRIMES, rng.randint(0, 4))}
    return _lib("cp", "cp_descriptor", (n, exps), (m.cp_text(n, exps), 2 * n + 1))


class LibraryMix:
    """The cli_mix queries as direct library calls on small, repeating primes."""

    imports_cli = False
    tail_cap = 99.9
    MIX = (
        (lib_construct, 4), (lib_similar, 3), (lib_type_of, 3), (lib_member, 4),
        (lib_lattice, 3), (lib_evaluate, 4), (lib_kernel, 3), (lib_homotopy, 3),
        (lib_classify, 3), (lib_cp, 2),
    )

    def __init__(self, rng):
        self.rng = rng

    def warmup(self):
        return [make(self.rng) for make, _ in self.MIX]

    def next_round(self):
        ops = [make(self.rng) for make, count in self.MIX for _ in range(count)]
        self.rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# large_primes
# ---------------------------------------------------------------------------

#: Half-decade strata from 10^4 to 10^12; one query of each kind per stratum
#: per round keeps the log-uniform size mix exact in every run.
STRATA = [(4 + s / 2, 4.5 + s / 2) for s in range(16)]
GOLDEN = (5**0.5 - 1) / 2


class LargePrimes:
    """Library calls keyed by distinct primes, log-uniform in [10^4, 10^12)."""

    imports_cli = False
    tail_cap = 90.0
    L1_PER_ROUND = 2

    def __init__(self, rng):
        self.rng = rng
        self.used: set[int] = set()
        self.rounds = 0
        # Each (kind, stratum) walks its stratum by golden-ratio steps from a
        # seeded start, so every run covers each stratum evenly.
        self.start = {(k, s): rng.random() for k in self.KINDS for s in range(len(STRATA))}

    def fresh_prime(self, log10: float) -> int:
        """The first prime at or above 10^log10 not handed out before."""
        p = m.next_prime(int(10**log10))
        while p in self.used:
            p = m.next_prime(p + 1)
        self.used.add(p)
        return p

    def prime_in(self, lo, hi):
        """A fresh prime with log10 drawn uniformly from [lo, hi)."""
        return self.fresh_prime(self.rng.uniform(lo, hi))

    def heights(self, p, value, default=0):
        """Heights with ``value`` at the large prime p and up to two small primes."""
        small = self.rng.sample(SMALL_PRIMES[:6], self.rng.randint(0, 2))
        entries = {q: self.rng.randint(1, 4) for q in small}
        entries[p] = value
        return default, dict(sorted(entries.items()))

    def smooth_exps(self, low=-2, high=2):
        return rand_exps(self.rng, SMALL_PRIMES[:6], most=2, low=low, high=high)

    def construct(self, p):
        h = self.heights(p, self.rng.choice((2, 3, 5, INF)), self.rng.choice((0, 0, 1)))
        return _lib("construct", "construct", (h,), m.text(*h))

    def member(self, p):
        h = self.heights(p, self.rng.randint(1, 2))
        exps = {**self.smooth_exps(), p: -1}
        return _lib("member", "member", (h, *fraction_parts(exps)), m.member(h, exps))

    def valuation(self, p):
        rng = self.rng
        i, j = rng.randint(0, 3), rng.randint(0, 3)
        a, b = rng.randint(1, 999), rng.randint(1, 999)
        return _lib("valuation", "valuation", (a * p**i, b * p**j, p), i - j)

    def evaluate(self, p):
        h = self.heights(p, self.rng.choice((0, 1, 2, INF)))
        pre = self.smooth_exps()
        q = {**self.smooth_exps(), p: -1}
        r_exps = m.add_exps(pre, q)
        value = m.evaluate(h, m.value_of(r_exps), r_exps, {})
        return _lib("evaluate", "evaluate", (h, *fraction_parts(pre), None, *fraction_parts(q)), value)

    def kernel(self, p):
        h = self.heights(p, self.rng.randint(0, 3))
        q1 = self.prime_in(3, 6)
        q2 = self.prime_in(3, 6)
        sign = self.rng.choice((1, -1))  # semiprime in the denominator or the numerator
        pre = {**self.smooth_exps(low=-1, high=1), q1: sign, q2: sign}
        return _lib("kernel", "kernel", (h, *fraction_parts(pre)), m.text(*m.kernel(h, pre)))

    def beyond_bound(self, p):
        """L1: 1/(r1*r2) with both factors above the trial-division bound.

        The answer (not a member) needs no factorization, yet trial
        division up to 10^6 cannot certify the cofactor, so it is refused.
        """
        h = (0, {p: 1})
        exps = {self.prime_in(6, 6.5): -1, self.prime_in(6, 6.5): -1}
        return _lib("L1", "member", (h, *fraction_parts(exps)), m.member(h, exps))

    KINDS = ("construct", "member", "valuation", "evaluate", "kernel")

    def warmup(self):
        return [getattr(self, k)(self.prime_in(*STRATA[0])) for k in self.KINDS]

    def next_round(self):
        ops = []
        for k in self.KINDS:
            for s, (lo, hi) in enumerate(STRATA):
                position = (self.start[k, s] + self.rounds * GOLDEN) % 1
                p = self.fresh_prime(lo + (hi - lo) * position)
                # One class per kind and decade: enough calm samples per run.
                ops.append(getattr(self, k)(p)._replace(kind=f"{k}/1e{int(lo)}"))
        ops += [self.beyond_bound(self.prime_in(*STRATA[0])) for _ in range(self.L1_PER_ROUND)]
        self.rounds += 1
        self.rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# genus_enumerate
# ---------------------------------------------------------------------------

# (prime bound, entry bound) shapes grouped by descriptor count.
LARGEST = [(n, 2) for n in range(23, 29)]  # 4^9 = 262,144
TIER_16K = [(43, 0), (17, 2), (13, 3), (18, 2), (46, 0)]  # 2^14, 4^7, 5^6
TIER_4K = [(37, 0), (13, 2), (7, 6), (5, 14), (16, 2)]  # 2^12, 4^6, 8^4, 16^3
TIER_1K = [(29, 0), (11, 2), (3, 30), (12, 2)]  # 2^10, 4^5, 32^2
TIER_SMALL = [(19, 0), (7, 2), (11, 1), (5, 5), (3, 16), (23, 0), (5, 6)]  # 243..512
SAMPLE = 32


class GenusEnumerate:
    """``genus postnikov enumerate`` into a hashing sink, with round trips."""

    imports_cli = True
    tail_cap = 75.0
    ROUND = ((LARGEST, 1), (TIER_16K, 1), (TIER_4K, 2), (TIER_1K, 6), (TIER_SMALL, 60))

    def __init__(self, rng):
        self.rng = rng
        self._digests: dict[tuple[int, int], tuple] = {}
        # Each tier's shapes come round in a seeded order, so a run's mix
        # of shapes does not depend on luck.
        self._shapes = [itertools.cycle(rng.sample(tier, len(tier))) for tier, _ in self.ROUND]

    def command(self, bound, top):
        rng = self.rng
        dim = rng.randrange(3, 100, 2)
        count = m.enumeration_count(bound, top)
        key = (len(m.primes_upto(bound)), top)
        if key not in self._digests:
            self._digests[key] = m.enumeration_digest(bound, top)
        digest, lines, size = self._digests[key]
        sample = sorted(rng.sample(range(count), min(SAMPLE, count)))
        captured = {i: m.enumeration_line(bound, top, i) for i in sample}
        argv = ("genus", "postnikov", "enumerate", "--dim", str(dim),
                "--primes", str(bound), "--max", str(top))
        expect = ("enum", (digest, lines, size, f"count: {count}"), captured,
                  [captured[i] for i in sample])
        return Op(f"enumerate/{count}", "cli.enumerate_roundtrip", (argv, dim, sample), expect, count)

    def warmup(self):
        return [self.command(5, 2)]

    def next_round(self):
        ops = [
            self.command(*next(shapes))
            for shapes, (_, n) in zip(self._shapes, self.ROUND)
            for _ in range(n)
        ]
        self.rng.shuffle(ops)
        return ops


WORKLOADS = {
    "cli_mix": CliMix,
    "library_mix": LibraryMix,
    "large_primes": LargePrimes,
    "genus_enumerate": GenusEnumerate,
}


def make(name: str, seed: int):
    """The workload generator for a name and seed; same seed, same inputs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))

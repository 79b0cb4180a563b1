"""Reference answers for the benchmark, computed without locgenus.

Every answer the benchmark checks comes from this module or from what the
generator knows by construction, such as the factorization each
denominator was built from. Nothing here imports locgenus, so a defect in
the package cannot hide in its own oracle.

Plain data only: heights are ints or the string ``"inf"``, Postnikov
entries are ints or ``"*"``, and a rational is carried together with its
exponent vector ``{prime: exponent}``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

INF = "inf"
STAR = "*"

#: The default fingerprint search cap.
FINGERPRINT_CAP = 64

# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


class Refusal(Exception):
    """The reference says the CLI must refuse; carries the exit code."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def primes_upto(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if is_prime(p)]


def value_of(exps: dict[int, int], sign: int = 1) -> Fraction:
    """The rational with the given prime exponent vector."""
    num = den = 1
    for p, e in exps.items():
        if e > 0:
            num *= p**e
        else:
            den *= p ** (-e)
    return Fraction(sign * num, den)


def add_exps(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for p, e in b.items():
        out[p] = out.get(p, 0) + e
    return {p: e for p, e in out.items() if e}


# ---------------------------------------------------------------------------
# Eventually constant maps: a default plus finitely many exceptions
# ---------------------------------------------------------------------------


def canon(default, entries: dict) -> tuple[object, dict]:
    return default, {p: v for p, v in sorted(entries.items()) if v != default}


def text(default, entries: dict) -> str:
    """The canonical printed form, e.g. ``{default:0, 2:inf}``."""
    default, entries = canon(default, entries)
    parts = [f"default:{default}"] + [f"{p}:{v}" for p, v in entries.items()]
    return "{" + ", ".join(parts) + "}"


def _num(h) -> float | int:
    return math.inf if h == INF else h


def _height(v: float | int):
    return INF if v == math.inf else v


def height_at(heights, p: int):
    default, entries = heights
    return entries.get(p, default)


# ---------------------------------------------------------------------------
# Height sequences, types and rank-one groups
# ---------------------------------------------------------------------------


def type_text(heights) -> str:
    default, entries = canon(*heights)
    if default == INF:
        return text(INF, {p: 0 for p in entries})
    return text(default, {p: INF for p, v in entries.items() if v == INF})


def similar(a, b) -> bool:
    (da, ea), (db, eb) = canon(*a), canon(*b)
    if (da == INF) != (db == INF):
        return False
    if da == INF:
        return set(ea) == set(eb)
    inf_a = {p for p, v in ea.items() if v == INF}
    inf_b = {p for p, v in eb.items() if v == INF}
    return inf_a == inf_b and da == db


def member(heights, exps: dict[int, int]) -> bool:
    """q is in the group iff each denominator exponent is within the height."""
    return all(-e <= _num(height_at(heights, p)) for p, e in exps.items() if e < 0)


def pseudo(heights) -> bool:
    default, entries = heights
    return default != INF and INF not in entries.values()


def pointwise(a, b, combine):
    primes = set(a[1]) | set(b[1])
    default = _height(combine(_num(a[0]), _num(b[0])))
    entries = {
        p: _height(combine(_num(height_at(a, p)), _num(height_at(b, p)))) for p in primes
    }
    return canon(default, entries)


def kernel(heights, pre_exps: dict[int, int]):
    """Heights of the kernel after pre-composing with r = value_of(pre_exps)."""
    default, entries = heights
    shifted = {}
    for p in set(entries) | set(pre_exps):
        h = height_at(heights, p)
        shifted[p] = INF if h == INF else max(0, h + pre_exps.get(p, 0))
    return canon(default, shifted)


def torsion(heights) -> tuple[bool, list[int]]:
    """(cofinite, listed primes) of the infinite-height locus."""
    default, entries = canon(*heights)
    if default == INF:
        return True, sorted(entries)
    return False, sorted(p for p, v in entries.items() if v == INF)


def torsion_text(heights) -> str:
    cofinite, primes = torsion(heights)
    listed = ",".join(map(str, primes))
    if cofinite:
        return f"all_except {listed}" if listed else "all"
    return listed or "none"


def evaluate(heights, r: Fraction, r_exps: dict[int, int], twists: dict) -> Fraction:
    """The standard map with kernel ``heights`` applied to r, in [0, 1).

    Uses the partial fraction split of r over the primes its exponent
    vector names; each twist is (modulus exponent, unit reduced mod p^e).
    """
    total = Fraction(0)
    d = r.denominator
    for p, e in r_exps.items():
        if e >= 0:
            continue
        dp = p ** (-e)
        a = r.numerator * pow(d // dp, -1, dp) % dp
        k = height_at(heights, p)
        if k == INF:
            continue
        component = Fraction(p**k * a, dp) % 1
        if component and p in twists:
            component = twists[p][1] * component % 1
        total += component
    return total % 1


def rational_genus_lines(heights) -> list[str]:
    t = type_text(heights)
    return [
        f"type: {t}",
        f"pi_n: {t}",
        f"torsion_primes: {torsion_text(heights)}",
        f"connected: {'true' if pseudo(heights) else 'false'}",
    ]


# ---------------------------------------------------------------------------
# Postnikov descriptors
# ---------------------------------------------------------------------------


def fingerprint_text(default, entries: dict, cap: int = FINGERPRINT_CAP) -> str:
    """The descriptor recovered by bounded fingerprint probing.

    Probing finds every finite entry up to the cap and reads the base
    point off directly; a larger finite entry is a resource refusal.
    """
    default, entries = canon(default, entries)
    if any(v != STAR and v > cap for v in [default, *entries.values()]):
        raise Refusal(4)
    return text(default, entries)


def cp_text(n: int, exponents: dict[int, int]) -> str:
    return text(0, {p: n * k for p, k in exponents.items()})


def enumeration_count(prime_bound: int, entry_bound: int) -> int:
    return (entry_bound + 2) ** len(primes_upto(prime_bound))


def enumeration_lines(prime_bound: int, entry_bound: int):
    """The descriptor lines of an enumeration, in lexicographic order.

    Integers come before the base point at each prime, the last prime
    varies fastest, and zero entries are dropped against the default 0.
    """
    values = list(range(entry_bound + 1)) + [STAR]
    pieces = [
        ["" if v == 0 else f", {p}:{v}" for v in values] for p in primes_upto(prime_bound)
    ]
    for parts in itertools.product(*pieces):
        yield "{default:0" + "".join(parts) + "}"


def enumeration_line(prime_bound: int, entry_bound: int, index: int) -> str:
    values = list(range(entry_bound + 1)) + [STAR]
    primes = primes_upto(prime_bound)
    digits = []
    for _ in primes:
        index, digit = divmod(index, len(values))
        digits.append(values[digit])
    return text(0, dict(zip(primes, reversed(digits))))


def enumeration_digest(prime_bound: int, entry_bound: int) -> tuple[str, int, int]:
    """(sha256 hex, line count, byte count) of the full CLI text output."""
    h = hashlib.sha256()
    size = count = 0
    chunk: list[str] = []
    for line in enumeration_lines(prime_bound, entry_bound):
        chunk.append(line)
        if len(chunk) == 4096:
            data = ("\n".join(chunk) + "\n").encode()
            h.update(data)
            size += len(data)
            count += len(chunk)
            chunk = []
    tail = "".join(line + "\n" for line in chunk) + f"count: {count + len(chunk)}\n"
    h.update(tail.encode())
    return h.hexdigest(), count + len(chunk) + 1, size + len(tail.encode())


# ---------------------------------------------------------------------------
# Genus triviality verdicts over the closed catalogue
# ---------------------------------------------------------------------------

_COUNTEREXAMPLES = {("S2xS5", 2): "CP2xS3", ("CP2xS3", 2): "S2xS5"}


def _catalogue(tag: str) -> tuple[str, bool, int]:
    """(canonical tag, second homotopy group finite, rational vanishing level)."""
    t = tag.strip().upper()
    if t in ("S2XS5", "CP2XS3"):
        return {"S2XS5": "S2xS5", "CP2XS3": "CP2xS3"}[t], False, 5
    if t.startswith("S") and t[1:].isdigit():
        n = int(t[1:])
        if n < 2:
            raise Refusal(3)
        return f"S{n}", n != 2, n if n % 2 else 2 * n - 1
    if t.startswith("CP") and t[2:].isdigit() and int(t[2:]) >= 1:
        n = int(t[2:])
        return f"CP{n}", False, 2 * n + 1
    raise Refusal(3)


def verdict(tag: str, level: int | None) -> dict:
    """The verdict record; ``level`` None means the Neisendorfer functor."""
    space, pi2_finite, vanishing = _catalogue(tag)
    if level is None:
        if pi2_finite:
            kind = "singleton"
            reason = "simply connected finite complex with finite second homotopy group"
        else:
            kind, reason = "hypotheses-not-met", "second homotopy group is infinite"
        return {"verdict": kind, "space": space, "reason": reason, "witness": None}
    if level < 1:
        raise Refusal(3)
    witness = _COUNTEREXAMPLES.get((space, level))
    if not pi2_finite:
        kind, reason = "hypotheses-not-met", "second homotopy group is infinite"
    elif vanishing > level:
        kind, reason = "hypotheses-not-met", f"rational homotopy survives above level {level}"
    else:
        kind = "singleton-among-finite-complexes"
        reason = (
            f"finite second homotopy group, rational homotopy vanishes above level {level}"
        )
        witness = None
    return {"verdict": kind, "space": space, "reason": reason, "witness": witness}


def verdict_lines(record: dict) -> list[str]:
    lines = [
        f"verdict: {record['verdict']}",
        f"space: {record['space']}",
        f"reason: {record['reason']}",
    ]
    if record["witness"] is not None:
        lines.append(f"witness: {record['witness']}")
    return lines

"""Command-line interface and the textual descriptor format.

The grammar shared by height sequences and Postnikov descriptors is

    {default: <val>, <prime>: <val>, ...}

with values either a non-negative decimal, ``inf`` (heights only) or ``*``
(Postnikov descriptors only). Primes must be strictly increasing.
Whitespace between tokens is ignored; the printed canonical form puts one
space after each comma and none after colons, and parsing a canonical
form reproduces it byte for byte.

Exit codes: 0 success, 2 parse error, 3 domain error, 4 resource guard.
Errors are reported on stderr as a single ``error: ...`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .arith import (
    DEFAULT_PRECISION,
    DEFAULT_PRIME_BOUND,
    INFINITY,
    PAdicApprox,
    STAR,
    StarType,
    is_prime,
    padic_decompose,
)
from .connecting import beta
from .errors import LocgenusError, ParseError, ResourceError
from .genus import (
    FiniteComplexDescriptor,
    Neisendorfer,
    PostnikovGenusDescriptor,
    PostnikovSection,
    RationalGenusElement,
    assemble_global,
    cp_fake_descriptor,
    enumerate_postnikov_genus,
    finite_complex_genus_verdict,
)
from .rankone import HeightSequence, RankOneGroup, similar, type_of


# ---------------------------------------------------------------------------
# Descriptor grammar
# ---------------------------------------------------------------------------

_PUNCTUATION = "{}:,"


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCTUATION or c == "*":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                # Decimals past the interpreter's digit limit refuse to convert.
                raise ParseError(f"number of {j - i} digits is too long", i) from None
            tokens.append(("number", value, i))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word in ("default", "inf"):
                tokens.append((word, word, i))
                i = j
                continue
            raise ParseError(f"unexpected word {word!r}", i)
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


def _parse_entries(text: str, value_context: str):
    """Parse the common grammar; value_context is 'height', 'natplus' or
    'plain' and decides which special tokens are legal."""
    tokens = _tokenize(text)
    index = 0

    def peek():
        return tokens[index]

    def advance(kind: str):
        nonlocal index
        token = tokens[index]
        if token[0] != kind:
            raise ParseError(f"expected {kind!r}, found {token[0]!r}", token[2])
        index += 1
        return token

    def parse_value():
        nonlocal index
        token = tokens[index]
        if token[0] == "number":
            index += 1
            return token[1]
        if token[0] == "inf":
            if value_context != "height":
                raise ParseError("'inf' is only legal in height sequences", token[2])
            index += 1
            return INFINITY
        if token[0] == "*":
            if value_context != "natplus":
                raise ParseError("'*' is only legal in Postnikov descriptors", token[2])
            index += 1
            return STAR
        raise ParseError(f"expected a value, found {token[0]!r}", token[2])

    advance("{")
    advance("default")
    advance(":")
    default = parse_value()
    entries: dict[int, object] = {}
    last_prime = 1
    while peek()[0] == ",":
        advance(",")
        prime_token = advance("number")
        p = prime_token[1]
        if p in entries:
            raise ParseError(f"duplicate prime {p}", prime_token[2])
        if not is_prime(p):
            raise ParseError(f"{p} is not prime", prime_token[2])
        if p <= last_prime:
            raise ParseError("primes must be strictly increasing", prime_token[2])
        advance(":")
        entries[p] = parse_value()
        last_prime = p
    advance("}")
    advance("end")
    return default, entries


def parse_heights(text: str) -> HeightSequence:
    """Parse a height sequence; values may be 'inf' but never '*'."""
    default, entries = _parse_entries(text, "height")
    return HeightSequence(default, entries)


def parse_descriptor(text: str, dimension: int) -> PostnikovGenusDescriptor:
    """Parse a Postnikov descriptor; values may be '*' but never 'inf'."""
    default, entries = _parse_entries(text, "natplus")
    return PostnikovGenusDescriptor(dimension, default, entries)


def parse_degree_exponents(text: str) -> dict[int, int]:
    """Parse a plain-integer exponent map for the projective-space command."""
    default, entries = _parse_entries(text, "plain")
    if default != 0:
        raise ParseError("degree exponents must use default 0")
    return {p: v for p, v in entries.items()}


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"invalid rational {text!r}") from None


def _format_bool(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# Command handlers: each returns (text lines, JSON payload)
# ---------------------------------------------------------------------------


def _cmd_type_canon(args):
    text = str(type_of(parse_heights(args.heights)))
    return [text], {"type": text}


def _cmd_type_similar(args):
    verdict = similar(parse_heights(args.first), parse_heights(args.second))
    return [_format_bool(verdict)], {"similar": verdict}


def _cmd_group_member(args):
    group = RankOneGroup(parse_heights(args.heights))
    verdict = group.member(_parse_rational(args.rational), prime_bound=args.prime_bound)
    return [_format_bool(verdict)], {"member": verdict}


def _cmd_group_pseudo(args):
    verdict = RankOneGroup(parse_heights(args.heights)).is_pseudo_integers()
    return [_format_bool(verdict)], {"pseudo": verdict}


def _cmd_genus_rational(args):
    element = RationalGenusElement(args.dim, beta(RankOneGroup(parse_heights(args.heights))))
    pi_n, torsion = element.homotopy_groups()
    connected = element.is_n_minus_1_connected()
    class_text = str(element.classify())
    lines = [
        f"type: {class_text}",
        f"pi_n: {pi_n}",
        f"torsion_primes: {torsion}",
        f"connected: {_format_bool(connected)}",
    ]
    torsion_json = {"cofinite": torsion.is_cofinite, "primes": sorted(torsion.listed_primes)}
    payload = {
        "type": class_text,
        "pi_n": str(pi_n),
        "torsion_primes": torsion_json,
        "connected": connected,
    }
    return lines, payload


def _cmd_genus_fingerprint(args):
    descriptor = parse_descriptor(args.descriptor, args.dim)
    recovered = assemble_global(args.dim, descriptor).classify()
    return [str(recovered)], {"descriptor": str(recovered)}


def _cmd_genus_enumerate(args):
    descriptors = enumerate_postnikov_genus(args.dim, args.primes, args.max)
    lines = [str(d) for d in descriptors]
    lines.append(f"count: {len(descriptors)}")
    payload = {"descriptors": [str(d) for d in descriptors], "count": len(descriptors)}
    return lines, payload


def _cmd_genus_cp(args):
    descriptor = cp_fake_descriptor(args.n, parse_degree_exponents(args.exponents))
    payload = {"descriptor": str(descriptor), "dimension": descriptor.dimension}
    return [str(descriptor)], payload


def _cmd_padic_class(args):
    if args.value.strip().lower() == "zero":
        approx = PAdicApprox.zero(args.prime, args.precision)
    else:
        try:
            n = int(args.value)
        except ValueError:
            raise ParseError(f"invalid integer {args.value!r}") from None
        approx = PAdicApprox.from_int(n, args.prime, args.precision)
    decomposition = padic_decompose(approx)
    result = STAR if isinstance(decomposition, StarType) else decomposition[0]
    text = str(result)
    return [text], {"class": text if isinstance(result, StarType) else result}


def _parse_functor(text: str):
    name = text.strip().lower()
    if name == "neisendorfer":
        return Neisendorfer()
    if name.startswith("postnikov:"):
        try:
            level = int(name.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"invalid Postnikov level in {text!r}") from None
        return PostnikovSection(level)
    raise ParseError(f"unknown functor {text!r} (use neisendorfer or postnikov:N)")


def _cmd_verdict(args):
    descriptor = FiniteComplexDescriptor.from_tag(args.complex_tag)
    verdict = finite_complex_genus_verdict(descriptor, _parse_functor(args.functor))
    lines = [
        f"verdict: {verdict.kind.value}",
        f"space: {verdict.space}",
        f"reason: {verdict.reason}",
    ]
    payload = {
        "verdict": verdict.kind.value,
        "space": verdict.space,
        "reason": verdict.reason,
        "witness": verdict.witness,
    }
    if verdict.witness is not None:
        lines.append(f"witness: {verdict.witness}")
    return lines, payload


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locgenus",
        description="Exact classification of localization-genus data",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON object")

    sub = parser.add_subparsers(dest="command", required=True)

    type_cmd = sub.add_parser("type", help="similarity types of height sequences")
    type_sub = type_cmd.add_subparsers(dest="subcommand", required=True)
    canon = type_sub.add_parser("canon", parents=[common], help="canonical type of a sequence")
    canon.add_argument("heights")
    canon.set_defaults(handler=_cmd_type_canon)
    sim = type_sub.add_parser("similar", parents=[common], help="similarity test")
    sim.add_argument("first")
    sim.add_argument("second")
    sim.set_defaults(handler=_cmd_type_similar)

    group_cmd = sub.add_parser("group", help="rank-one subgroups of the rationals")
    group_sub = group_cmd.add_subparsers(dest="subcommand", required=True)
    memb = group_sub.add_parser("member", parents=[common], help="membership test")
    memb.add_argument("rational")
    memb.add_argument("heights")
    memb.add_argument("--prime-bound", type=int, default=DEFAULT_PRIME_BOUND)
    memb.set_defaults(handler=_cmd_group_member)
    pseudo = group_sub.add_parser("pseudo", parents=[common], help="pseudo-integer test")
    pseudo.add_argument("heights")
    pseudo.set_defaults(handler=_cmd_group_pseudo)

    genus_cmd = sub.add_parser("genus", help="genus classification")
    genus_sub = genus_cmd.add_subparsers(dest="subcommand", required=True)
    rational = genus_sub.add_parser(
        "rational", parents=[common], help="rationalization-genus data of an odd sphere"
    )
    rational.add_argument("heights")
    rational.add_argument("--dim", type=int, required=True)
    rational.set_defaults(handler=_cmd_genus_rational)
    postnikov = genus_sub.add_parser("postnikov", help="Postnikov-genus operations")
    postnikov_sub = postnikov.add_subparsers(dest="subsubcommand", required=True)
    fingerprint = postnikov_sub.add_parser(
        "fingerprint", parents=[common], help="recover a descriptor from its model"
    )
    fingerprint.add_argument("descriptor")
    fingerprint.add_argument("--dim", type=int, required=True)
    fingerprint.set_defaults(handler=_cmd_genus_fingerprint)
    enumerate_cmd = postnikov_sub.add_parser(
        "enumerate", parents=[common], help="list truncated descriptors"
    )
    enumerate_cmd.add_argument("--dim", type=int, required=True)
    enumerate_cmd.add_argument("--primes", type=int, required=True)
    enumerate_cmd.add_argument("--max", type=int, required=True)
    enumerate_cmd.set_defaults(handler=_cmd_genus_enumerate)
    cp = genus_sub.add_parser(
        "cp", parents=[common], help="fake projective space sphere-cover descriptor"
    )
    cp.add_argument("exponents")
    cp.add_argument("--n", type=int, required=True)
    cp.set_defaults(handler=_cmd_genus_cp)

    padic = sub.add_parser("padic", help="p-adic classifying parameters")
    padic_sub = padic.add_subparsers(dest="subcommand", required=True)
    padic_class = padic_sub.add_parser(
        "class", parents=[common], help="pointed-natural class of a p-adic integer"
    )
    padic_class.add_argument("prime", type=int)
    padic_class.add_argument("value", help="an integer, or the word 'zero'")
    padic_class.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    padic_class.set_defaults(handler=_cmd_padic_class)

    verdict = sub.add_parser("verdict", parents=[common], help="genus triviality verdicts")
    verdict.add_argument("complex_tag")
    verdict.add_argument("--functor", required=True)
    verdict.set_defaults(handler=_cmd_verdict)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        lines, payload = args.handler(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except LocgenusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

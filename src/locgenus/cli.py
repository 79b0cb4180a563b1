"""Command-line interface and the textual descriptor format.

The grammar shared by height sequences and Postnikov descriptors is

    {default: <val>, <prime>: <val>, ...}

with values either a non-negative ASCII decimal, ``inf`` (heights only)
or ``*`` (Postnikov descriptors only). Primes must be strictly increasing.
Whitespace between tokens is ignored; the printed canonical form puts one
space after each comma and none after colons, and parsing a canonical
form reproduces it byte for byte. A valid text is read from one match of
the whole grammar; the token scanner runs only to name an error.

The commands are described once, as data, in ``_COMMANDS``; one reader per
command is built from it at import, and reads argv (``_read_argv``). The
argparse tree is built from it only to print help or an error, or for the
forms the reader declines. argparse and json are imported only to print.

Exit codes: 0 success, 2 parse error, 3 domain error, 4 resource guard
(each error class carries its ``exit_code``), 141 when the reader closes
stdout before the output ends. Errors are reported on stderr as a single
``error: ...`` line.
"""

from __future__ import annotations

import functools
import itertools
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .arith import (
    DEFAULT_PRECISION,
    DEFAULT_PRIME_BOUND,
    INFINITY,
    PAdicApprox,
    STAR,
    StarType,
    _decimal,
    _digit_limit,
    _shown,
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
    _postnikov_genus_blocks,
    _require_odd_dimension,
    assemble_global,
    cp_fake_descriptor,
    finite_complex_genus_verdict,
)
from .rankone import HeightSequence, RankOneGroup, similar, type_of


# ---------------------------------------------------------------------------
# Descriptor grammar
# ---------------------------------------------------------------------------

#: A run of ASCII digits, of spaces and of word characters, each read by
#: one match. ``\s`` is exactly ``str.isspace``; ``\w`` takes the letters
#: of ``str.isalpha`` and also digits, ``_`` and numerals such as ``²``.
_DIGITS = re.compile(r"[0-9]+")
_SPACES = re.compile(r"\s+")
_WORD = re.compile(r"\w+")


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    """The tokens of a descriptor text, each with its position, ending in
    an ``end`` token; the first lexical error raises ``ParseError``. A run
    of digits, of spaces or of letters is scanned in one match, and a
    number past the interpreter's digit limit is refused by its length."""
    tokens: list[tuple[str, object, int]] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        j = i + 1
        if c in "{}:,*":
            tokens.append((c, c, i))
        elif "0" <= c <= "9":
            j = _DIGITS.match(text, i).end()
            value = _decimal(text[i:j])
            if value is None:  # past the interpreter's digit limit
                raise ParseError(f"number of {j - i} digits is too long", i)
            tokens.append(("number", value, i))
        elif c.isalpha():
            j = _WORD.match(text, i).end()
            if not text[i:j].isalpha():  # cut the run at its first non-letter
                j = next(k for k in range(i, j) if not text[k].isalpha())
            word = text[i:j]
            if word not in ("default", "inf"):
                raise ParseError(f"unexpected word {_shown(word, repr)}", i)
            tokens.append((word, word, i))
        elif c.isspace():
            j = _SPACES.match(text, i).end()
        else:
            raise ParseError(f"unexpected character {c!r}", i)
        i = j
    tokens.append(("end", None, n))
    return tokens


#: The value of each special token, and the error where the context does not
#: allow it: 'inf' is legal in height sequences, '*' in Postnikov descriptors.
_SPECIAL_VALUES = {
    "inf": (INFINITY, "'inf' is only legal in height sequences"),
    "*": (STAR, "'*' is only legal in Postnikov descriptors"),
}


def _expect(token: tuple[str, object, int], kind: str) -> tuple[str, object, int]:
    if token[0] != kind:
        raise ParseError(f"expected {kind!r}, found {token[0]!r}", token[2])
    return token


def _value(token: tuple[str, object, int], special: str | None):
    kind, value, position = token
    if kind in _SPECIAL_VALUES:
        value, message = _SPECIAL_VALUES[kind]
        if kind != special:
            raise ParseError(message, position)
    elif kind != "number":
        raise ParseError(f"expected a value, found {kind!r}", position)
    return value


def _parse_tokens(text: str, special: str | None):
    """``_parse_entries`` by tokens: the one path that raises the grammar's
    ``ParseError``s. The whole text is tokenized first, so a lexical error
    wins over an earlier grammar error."""
    tokens = iter(_tokenize(text))
    for kind in ("{", "default", ":"):
        _expect(next(tokens), kind)
    default = _value(next(tokens), special)
    entries: dict[int, object] = {}
    last_prime = 1
    while (token := next(tokens))[0] == ",":
        _, p, position = _expect(next(tokens), "number")
        if p in entries:
            raise ParseError(f"duplicate prime {p}", position)
        if not is_prime(p):
            raise ParseError(f"{p} is not prime", position)
        if p <= last_prime:
            raise ParseError("primes must be strictly increasing", position)
        _expect(next(tokens), ":")
        entries[p] = _value(next(tokens), special)
        last_prime = p
    _expect(token, "}")
    _expect(next(tokens), "end")
    return default, {p: v for p, v in entries.items() if v != default}


#: A whole well-formed text, with the default's value and the run of
#: entries as groups. ``\s`` is exactly ``str.isspace`` and ``[0-9]`` the
#: ASCII digits, so every text it matches tokenizes, into the same tokens.
_TEXT = re.compile(
    r"\s*\{\s*default\s*:\s*([0-9]+|[*]|inf)\s*"
    r"((?:,\s*[0-9]+\s*:\s*(?:[0-9]+|[*]|inf)\s*)*)\}\s*"
)
#: One entry of ``_TEXT``'s run: its prime and its value.
_ENTRY = re.compile(r",\s*([0-9]+)\s*:\s*([0-9]+|[*]|inf)")


def _read_valid(text: str, special: str | None):
    """``_parse_entries`` for a valid text, from one match, and None for
    any other: it answers exactly the texts the token path answers, as
    that path does, and raises nothing."""
    match = _TEXT.fullmatch(text)
    if match is None:
        return None
    word, run = match.groups()
    special_value = _SPECIAL_VALUES[special][0] if special else None
    # A word is the context's special value or a decimal: _decimal gives
    # None for the other special word and past the digit limit.
    default = special_value if word == special else _decimal(word)
    if default is None:
        return None
    entries: dict[int, object] = {}
    last_prime = 1
    for key, word in _ENTRY.findall(run):
        p = _decimal(key)
        value = special_value if word == special else _decimal(word)
        # Ascending keys hold no duplicate.
        if p is None or p <= last_prime or value is None or not is_prime(p):
            return None
        if value != default:
            entries[p] = value
        last_prime = p
    return default, entries


def _parse_entries(text: str, special: str | None):
    """Parse the common grammar; special is the one of 'inf' and '*' that
    is legal here, or None. The keys come back proven prime and ascending,
    the values legal for the context, and entries equal to the default
    dropped. A valid text is read from one match of the whole grammar;
    any other text goes to the token path, which names its first error
    (a lexical error anywhere winning over an earlier grammar error)."""
    return _read_valid(text, special) or _parse_tokens(text, special)


def parse_heights(text: str) -> HeightSequence:
    """Parse a height sequence; values may be 'inf' but never '*'."""
    default, entries = _parse_entries(text, "inf")
    return HeightSequence._of(default, entries)


def parse_descriptor(text: str, dimension: int) -> PostnikovGenusDescriptor:
    """Parse a Postnikov descriptor; values may be '*' but never 'inf'."""
    default, entries = _parse_entries(text, "*")
    _require_odd_dimension(dimension)
    return PostnikovGenusDescriptor._of(dimension, default, entries)


def parse_degree_exponents(text: str) -> dict[int, int]:
    """Parse a plain-integer exponent map for the projective-space command."""
    default, entries = _parse_entries(text, None)
    if default != 0:
        raise ParseError("degree exponents must use default 0")
    return entries


def _ascii_int(text: str) -> int:
    """The type of every integer argument in the argparse tree, refusing in
    argparse's words. It is the tree's type only: ``_read_argv`` reads ints
    with ``_decimal`` and declines what that refuses."""
    value = _decimal(text)
    if value is None:
        import argparse

        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _parse_rational(text: str) -> Fraction:
    """``n`` or ``n/d``, each read by ``arith._decimal``, with d > 0."""
    numerator, slash, denominator = text.partition("/")
    n = _decimal(numerator)
    d = _decimal(denominator) if slash else 1
    if n is None or d is None or d <= 0:
        raise ParseError(f"invalid rational {_shown(text, repr)}")
    return Fraction(n, d)


def _format_bool(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# Command handlers: each returns (text lines, JSON payload)
# ---------------------------------------------------------------------------
#
# The text lines may be a lazy iterable, and one item may hold several
# lines; main prints each item, then a newline, as they come.


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
    # The class and pi_n are both the hom's double coset class.
    texts = {"type": str(pi_n), "pi_n": str(pi_n),
             "torsion_primes": str(torsion), "connected": _format_bool(connected)}
    torsion_json = {"cofinite": torsion.is_cofinite, "primes": sorted(torsion.listed_primes)}
    payload = {**texts, "torsion_primes": torsion_json, "connected": connected}
    return [f"{key}: {text}" for key, text in texts.items()], payload


def _cmd_genus_fingerprint(args):
    text = str(assemble_global(args.dim, parse_descriptor(args.descriptor, args.dim)).classify())
    return [text], {"descriptor": text}


def _cmd_genus_enumerate(args):
    # Arguments and the size guard are checked here, before any output. The
    # texts hold only ASCII digits, "{}:,* " and "default", so under --json
    # each encodes as itself in quotes, and the quotes go in the separator.
    separator = '", "' if args.json else "\n"
    count, blocks = _postnikov_genus_blocks(args.dim, args.primes, args.max, separator)
    if not args.json:
        return itertools.chain(blocks, [f"count: {count}"]), None
    # The first block follows the opening, each later one a separator.
    leads = itertools.chain(['{"descriptors": ["'], itertools.repeat(separator))
    return None, itertools.chain(map(str.__add__, leads, blocks), [f'"], "count": {count}}}'])


def _cmd_genus_cp(args):
    descriptor = cp_fake_descriptor(args.n, parse_degree_exponents(args.exponents))
    try:  # both are printed under --json
        text, _ = str(descriptor), str(descriptor.dimension)
    except ValueError:
        message = f"the answer has an integer past the {_digit_limit()}-digit print limit"
        raise ResourceError(message) from None
    return [text], {"descriptor": text, "dimension": descriptor.dimension}


def _cmd_padic_class(args):
    # Zero is flagged as the exact zero by from_int.
    n = 0 if args.value.strip().lower() == "zero" else _decimal(args.value)
    if n is None:
        raise ParseError(f"invalid integer {_shown(args.value, repr)}")
    decomposition = padic_decompose(PAdicApprox.from_int(n, args.prime, args.precision))
    if isinstance(decomposition, StarType):
        return [str(STAR)], {"class": str(STAR)}
    return [str(decomposition[0])], {"class": decomposition[0]}


def _parse_functor(text: str):
    name = text.strip()
    # str.lower maps the Kelvin sign to k.
    name = name.lower() if name.isascii() else ""
    if name == "neisendorfer":
        return Neisendorfer()
    if name.startswith("postnikov:"):
        level = _decimal(name.split(":", 1)[1])
        if level is None:
            raise ParseError(f"invalid Postnikov level in {_shown(text, repr)}")
        return PostnikovSection(level)
    raise ParseError(f"unknown functor {_shown(text, repr)} (use neisendorfer or postnikov:N)")


def _cmd_verdict(args):
    descriptor = FiniteComplexDescriptor.from_tag(args.complex_tag)
    verdict = finite_complex_genus_verdict(descriptor, _parse_functor(args.functor))
    payload = {
        "verdict": verdict.kind.value,
        "space": verdict.space,
        "reason": verdict.reason,
        "witness": verdict.witness,
    }
    return [f"{key}: {value}" for key, value in payload.items() if value is not None], payload


# ---------------------------------------------------------------------------
# Command table
# ---------------------------------------------------------------------------

#: Help of the group nodes, by path.
_GROUPS = {
    "type": "similarity types of height sequences",
    "group": "rank-one subgroups of the rationals",
    "genus": "genus classification",
    "genus postnikov": "Postnikov-genus operations",
    "padic": "p-adic classifying parameters",
}

_REQUIRED_INT = {"type": _ascii_int, "required": True}
_DIM = ("--dim", _REQUIRED_INT)

#: One entry per leaf command, in the order of the help listings: its path,
#: help, arguments as (name, ``add_argument`` options) and handler.
_COMMANDS = (
    ("type canon", "canonical type of a sequence", [("heights", {})], _cmd_type_canon),
    ("type similar", "similarity test", [("first", {}), ("second", {})], _cmd_type_similar),
    ("group member", "membership test", [("rational", {}), ("heights", {}),
     ("--prime-bound", {"type": _ascii_int, "default": DEFAULT_PRIME_BOUND})], _cmd_group_member),
    ("group pseudo", "pseudo-integer test", [("heights", {})], _cmd_group_pseudo),
    ("genus rational", "rationalization-genus data of an odd sphere",
     [("heights", {}), _DIM], _cmd_genus_rational),
    ("genus postnikov fingerprint", "recover a descriptor from its model",
     [("descriptor", {}), _DIM], _cmd_genus_fingerprint),
    ("genus postnikov enumerate", "list truncated descriptors",
     [_DIM, ("--primes", _REQUIRED_INT), ("--max", _REQUIRED_INT)], _cmd_genus_enumerate),
    ("genus cp", "fake projective space sphere-cover descriptor",
     [("exponents", {}), ("--n", _REQUIRED_INT)], _cmd_genus_cp),
    ("padic class", "pointed-natural class of a p-adic integer",
     [("prime", {"type": _ascii_int}), ("value", {"help": "an integer, or the word 'zero'"}),
      ("--precision", {"type": _ascii_int, "default": DEFAULT_PRECISION})], _cmd_padic_class),
    ("verdict", "genus triviality verdicts",
     [("complex_tag", {}), ("--functor", {"required": True})], _cmd_verdict),
)

#: The namespace attribute that records the command word at each depth.
_DESTS = ("command", "subcommand", "subsubcommand")

_JSON_HELP = "emit one JSON object"


@functools.cache
def _parser():
    """The argparse tree of ``_COMMANDS``, built once per process where
    argparse must print or ``_read_argv`` declines argv. A leaf's --json
    has no default, so a command not given the flag keeps the root's."""
    import argparse

    description = "Exact classification of localization-genus data"
    root = argparse.ArgumentParser(prog="locgenus", description=description)
    root.add_argument("--json", action="store_true", help=_JSON_HELP)
    # The subparsers action of each group node, by path ("" is the root).
    choices = {}

    def group(path: str):
        if path not in choices:
            parent, _, name = path.rpartition(" ")
            node = group(parent).add_parser(name, help=_GROUPS[path]) if path else root
            choices[path] = node.add_subparsers(dest=_DESTS[len(path.split())], required=True)
        return choices[path]

    for path, help_text, arguments, handler in _COMMANDS:
        parent, _, name = path.rpartition(" ")
        leaf = group(parent).add_parser(name, help=help_text)
        leaf.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help=_JSON_HELP)
        for argument, options in arguments:
            leaf.add_argument(argument, **options)
        leaf.set_defaults(handler=handler)
    return root


def _reader(path: str, arguments, handler):
    """What ``_read_argv`` needs of one ``_COMMANDS`` entry: the namespace
    before any token is read (--json off, the command words, the handler,
    the optional options' defaults); each option's (dest, is an int) by its
    name; the positionals' in order; and the required options' dests."""
    namespace = {"json": False, **dict(zip(_DESTS, path.split())), "handler": handler}
    options, positionals = {}, []
    for name, spec in arguments:
        dest = name.lstrip("-").replace("-", "_")
        kind = (dest, spec.get("type") is _ascii_int)
        if not name.startswith("-"):
            positionals.append(kind)
            continue
        options[name] = kind
        if not spec.get("required"):
            namespace[dest] = spec.get("default")
    required = {dest for dest, _ in options.values()} - namespace.keys()
    return namespace, options, positionals, required


#: Each command's reader, built once, by its words.
_READERS = {tuple(path.split()): _reader(path, arguments, handler)
            for path, _, arguments, handler in _COMMANDS}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``_parser().parse_args(argv)`` gives, read in one pass
    by the command's reader; or None, so that argparse prints help and
    errors and reads any other form. It answers only argv of --json, the
    command words, its options each with a value that is not flag-like
    (starts with '-' and is not a negative decimal, as argparse reads it),
    and its positionals, flag-like only after one '--' that is not last.
    Raises nothing."""
    i, n = 0, len(argv)
    while i < n and argv[i] == "--json":
        i += 1
    # No command's words begin another's, so at most one size matches.
    for size in (3, 2, 1):
        words = tuple(argv[i:i + size])
        if words in _READERS:
            break
    else:
        return None
    namespace, options, positionals, required = _READERS[words]
    values = {**namespace, "json": i > 0}
    texts = []  # the positionals' texts
    i += len(words)
    while i < n:
        token = argv[i]
        i += 1
        if token == "--json":
            values["json"] = True
        elif token == "--":
            # argparse refuses a last '--' unless a positional is before it,
            # and Python 3.11's mangles a second one.
            if i == n or "--" in argv[i:]:
                return None
            texts += argv[i:]
            break
        elif not token.startswith("-") or _decimal(token) is not None:
            texts.append(token)
        else:
            if token not in options or i == n:
                return None
            dest, is_int = options[token]
            text, i = argv[i], i + 1
            value = _decimal(text)
            # An int must read; any other value must not be flag-like.
            if value is None and (is_int or text.startswith("-")):
                return None
            # argparse keeps the last value of a repeated option.
            values[dest] = value if is_int else text
    if len(texts) != len(positionals) or not required <= values.keys():
        return None
    for (dest, is_int), text in zip(positionals, texts):
        values[dest] = value = _decimal(text) if is_int else text
        if value is None:
            return None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read_argv(argv)
        if args is None:
            args = _parser().parse_args(argv)
            # Python 3.11's argparse gives a positional after a second '--'
            # as []; the reader never gives a list.
            if any(isinstance(value, list) for value in vars(args).values()):
                raise ParseError("'--' may be given only once")
        lines, payload = args.handler(args)
    except SystemExit as exc:  # argparse printed help or an error
        return exc.code if isinstance(exc.code, int) else 2
    except LocgenusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        write = sys.stdout.write
        if args.json:
            import json

            # A payload too large to hold comes as pieces of JSON text.
            for piece in [json.dumps(payload)] if isinstance(payload, dict) else payload:
                write(piece)
            write("\n")
        else:
            for line in lines:
                write(line + "\n")
        # A closed pipe may only show when the last buffer is written.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone. Point stdout at the null device, so the
        # interpreter's flush at exit finds nowhere to fail, and exit as a
        # process killed by SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The two paths of the descriptor grammar agree.

``cli._parse_entries`` answers a valid text from one match of the whole
grammar (``cli._read_valid``) and sends every other text to the token
path (``cli._parse_tokens``), which alone raises the grammar's errors.
The token path is the oracle here: on texts built from canonical forms
with edits, the reader answers exactly the texts the token path answers,
with the same value, and ``_parse_entries`` gives the token path's value
or its error, with the same class, message and position. The token
path's scanner, which reads each run of digits or of spaces in one match,
agrees in turn with a loop over characters, and refuses a long run
without reading each of its characters.
"""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from locgenus import ParseError, assemble_global, cli, genus
from locgenus.cli import (
    _parse_entries, _parse_tokens, _read_valid, main, parse_degree_exponents,
    parse_descriptor, parse_heights,
)

from genlib import SMALL_PRIMES
from test_cli import README_COMMANDS

#: The special word legal in each grammar context.
CONTEXTS = {"heights": "inf", "descriptor": "*", "exponents": None}

#: Characters ``str.isspace`` calls space, and three it does not.
SPACES = [" ", "\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1f", "\x85", "\xa0",
          "\u1680", "\u2000", "\u2028", "\u2029", "\u202f", "\u3000"]
NOT_SPACES = ["\u200b", "\u180e", "\ufeff"]

#: Past the interpreter's digit limit (4,300 by default), and just within it.
HUGE = ["9" * 4301, "1" * 5000, "9" * 4300]

gap = st.one_of(
    st.just(""), st.just(" "), st.lists(st.sampled_from(SPACES), min_size=1, max_size=3).map("".join)
)
value = st.one_of(
    st.integers(0, 70).map(str),
    st.sampled_from(["inf", "*", "007", "Inf", "٣", "x", "-1", "", *HUGE]),
)
# A key is a prime, a composite or a number past the digit limit: never a
# large number within it, whose primality takes trial division to prove.
key = st.one_of(
    st.sampled_from(SMALL_PRIMES + [97, 7919, 999983]).map(str),
    st.integers(0, 100).map(str),
    st.sampled_from(["0002", HUGE[0]]),
)
junk = st.one_of(
    st.sampled_from(["x", ",", "}", "{", ":", "*", "2", "inf", "default", *NOT_SPACES]),
    st.text("{}:,*- 0123456789abdefilntu", min_size=1, max_size=6),
)


def by_number(keys):
    return sorted(keys, key=lambda k: (len(k.lstrip("0")), k.lstrip("0")))


@st.composite
def edited(draw):
    """A canonical form, its keys ascending or not, with spaces between
    tokens and at most two pieces of junk inserted."""
    keys = draw(st.lists(key, max_size=5))
    if draw(st.integers(0, 3)):
        keys = by_number(keys)
    tokens = ["{", "default", ":", draw(value)]
    for k in keys:
        tokens += [",", k, ":", draw(value)]
    tokens.append("}")
    for _ in range(draw(st.integers(0, 9)) // 4):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(junk))
    # Two numbers are never glued into one.
    return "".join(draw(gap) + token for token in tokens) + draw(gap)


def outcome(parse, text, special):
    try:
        return ["value", parse(text, special)]
    except Exception as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "position", None)]


@pytest.mark.parametrize("context", CONTEXTS)
@settings(max_examples=200)
@given(text=edited())
@example(text="\u3000{default:0}\x85")
@example(text="{default:0, 2:1}x")
@example(text="{default:0, 2:1,}")
@example(text="{default:0 2:1}")
@example(text="{defaultinf:0}")
@example(text="{default:0, 4:1}")
@example(text="{default:0, 3:1, 2:1}")
@example(text="{default:0, 2:1, 2:1}")
@example(text="{default:inf, 2:*}")
@example(text="{default:*, 2:inf}")
@example(text="{default:0, 2:" + HUGE[0] + "}")
@example(text="{default:0, " + HUGE[0] + ":1}")
@example(text="{default:0,\u200b2:1}")
def test_the_reader_agrees_with_the_token_path(context, text):
    special = CONTEXTS[context]
    expected = outcome(_parse_tokens, text, special)
    assert outcome(_parse_entries, text, special) == expected
    read = _read_valid(text, special)
    assert (["value", read] if read else None) == (expected if expected[0] == "value" else None)


def test_regex_space_is_str_isspace():
    """The pattern's ``\\s`` is the tokenizer's ``str.isspace``, at every code point."""
    space = re.compile(r"\s")
    disagree = [c for c in map(chr, range(0x110000)) if bool(space.match(c)) != c.isspace()]
    assert disagree == []


def tokenize_by_character(text):
    """``cli._tokenize`` as a loop over characters: the oracle of the
    scanner, which reads each run of digits or of spaces in one match."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        j = i + 1
        if c in "{}:,*":
            tokens.append((c, c, i))
        elif "0" <= c <= "9":
            while j < n and "0" <= text[j] <= "9":
                j += 1
            try:
                tokens.append(("number", int(text[i:j]), i))
            except ValueError:
                raise ParseError(f"number of {j - i} digits is too long", i) from None
        elif c.isalpha():
            while j < n and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in ("default", "inf"):
                raise ParseError(f"unexpected word {word!r}", i)
            tokens.append((word, word, i))
        elif not c.isspace():
            raise ParseError(f"unexpected character {c!r}", i)
        i = j
    tokens.append(("end", None, n))
    return tokens


def tokens_or_error(tokenize, text):
    try:
        return ["tokens", tokenize(text)]
    except Exception as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "position", None)]


#: A run of up to 5,000 digits (past the digit limit of 4,300 and within
#: it), a long run of mixed spaces, or another piece of the grammar or not.
run = st.one_of(
    st.builds(
        lambda lead, digit, length: lead + digit * length,
        st.sampled_from(["", "0", "1"]), st.sampled_from("0123456789"), st.integers(0, 5000),
    ),
    st.builds(
        lambda spaces, repeat: "".join(spaces) * repeat,
        st.lists(st.sampled_from(SPACES), min_size=1, max_size=8), st.integers(1, 600),
    ),
    st.sampled_from(["{", "}", ":", ",", "*", "default", "inf", "x", "\u0663", "\u00b2",
                     "-", *NOT_SPACES]),
)


@settings(max_examples=200)
@given(text=st.lists(run, max_size=10).map("".join))
@example(text="{default:" + "7" * 4300 + "}")
@example(text="{default:" + "0" * 4301 + "}")
@example(text=" \u3000\x85" * 2000 + "{default:0}\u200b")
def test_the_scanner_agrees_with_a_loop_over_characters(text):
    assert tokens_or_error(cli._tokenize, text) == tokens_or_error(tokenize_by_character, text)


class CountingStr(str):
    """A text that counts the characters and slices read from it."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize(
    "text", ["{default:" + "9" * 20000 + "}", "{" + " " * 20000 + "default:0, 4:1}"],
    ids=["digits", "spaces"],
)
def test_a_long_run_is_refused_without_reading_each_character(text):
    counted = CountingStr(text)
    with pytest.raises(ParseError):
        _parse_entries(counted, "inf")
    assert counted.reads < 100


def every_line_of_enumerations():
    for dimension, prime_bound, entry_bound in [(3, 7, 2), (5, 13, 1), (3, 2, 30)]:
        count, blocks = genus._postnikov_genus_blocks(dimension, prime_bound, entry_bound, "\n")
        lines = "\n".join(blocks).split("\n")
        assert len(lines) == count
        yield dimension, lines


def test_valid_text_never_reaches_the_tokenizer(monkeypatch, capsys):
    def tokenize(text):
        raise AssertionError(f"tokenized {text!r}")

    monkeypatch.setattr(cli, "_tokenize", tokenize)
    for dimension, lines in every_line_of_enumerations():
        for line in lines:
            assert str(parse_descriptor(line, dimension)) == line
    for text in ["{default:0, 2:inf, 3:5}", "{default:inf, 2:0}", " { default : 0 , 2 : inf } "]:
        parse_heights(text)
    assert parse_degree_exponents("{default:0, 3:2}") == {3: 2}
    for argv in README_COMMANDS:
        assert main(argv) == 0
    capsys.readouterr()


def test_every_enumerated_line_survives_the_classify_round_trip():
    for dimension, lines in every_line_of_enumerations():
        for line in lines:
            descriptor = parse_descriptor(line, dimension)
            assert str(assemble_global(dimension, descriptor).classify()) == line


def test_an_answered_text_proves_each_key_once(monkeypatch):
    calls = []
    is_prime = cli.is_prime
    monkeypatch.setattr(cli, "is_prime", lambda n: calls.append(n) or is_prime(n))
    parse_descriptor("{default:0, 2:1, 3:*, 5:0, 7919:2}", 3)
    assert calls == [2, 3, 5, 7919]

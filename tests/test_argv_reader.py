"""The argv reader agrees with the argparse tree.

``cli.main`` reads argv with ``cli._read_argv`` and sends every argv the
reader declines to the tree (``cli._parser``), which alone prints help
and errors. The tree is the oracle here. Argv are built from each
``_COMMANDS`` entry: positionals and options in any order, options
repeated, --json before, between and after the command words, at most one
'--', values that are empty or start with '-', and forms the reader
declines (help, abbreviations, '=' forms, non-ASCII digits). Wherever the
reader answers, it gives the tree's namespace; it never prints or raises;
and it answers every argv built only from exact forms.
"""

import contextlib
import io

from hypothesis import example, given, settings, strategies as st

from locgenus.cli import _COMMANDS, _parser, _read_argv

#: Values of an integer argument, and those its type reads.
INT_VALUES = ["3", "0", "17", "007", "-3", "-٣", "٣", "", "x", "+3"]
READ_INTS = {"3", "0", "17", "007", "-3"}
#: Values of a text argument: some name a command word or an option, and
#: argparse reads the negative numbers among them as positionals.
TEXT_VALUES = [
    "{default:0, 2:3}", "x", "", "zero", "S2xS5", "postnikov:2", "heights", "genus",
    "-12", "-1.5", "-٣", "-1/2", "-h x", "--json", "--dim", "-",
]
#: Tokens the reader declines wherever they stand before a '--'.
DECLINED = ["-h", "--help", "--js", "--dim=3", "--di", "--prime", "--bogus", "-1.5", "--=x", "-hx"]
#: The command with no positional, which argparse cannot give a '--'.
ENUMERATE = ["genus", "postnikov", "enumerate", "--dim", "3", "--primes", "3", "--max", "1"]


def flag_like(token):
    """Whether the reader takes token for a flag: it starts with '-' and is
    not a negative number in ASCII digits."""
    return token.startswith("-") and not (token[1:].isascii() and token[1:].isdigit())


@st.composite
def argv_of_a_command(draw):
    """An argv for one ``_COMMANDS`` entry, and whether it is built only
    from exact forms, which the reader must answer."""
    path, _, arguments, _ = draw(st.sampled_from(_COMMANDS))
    words = path.split()
    exact = True
    units = []  # each a list of tokens kept together, and its kind
    for name, options in arguments:
        pool, read = (INT_VALUES, READ_INTS) if "type" in options else (TEXT_VALUES, None)
        if name.startswith("-"):
            count = draw(st.integers(0, 2))
            exact &= count > 0 or not options.get("required")
            for _ in range(count):
                value = draw(st.sampled_from(pool))
                exact &= not flag_like(value) and (read is None or value in read)
                units.append(([name, value], "option"))
        else:
            value = draw(st.sampled_from(pool))
            exact &= read is None or value in read
            units.append(([value], "positional"))
    if draw(st.integers(0, 9)) == 0 and units:  # a positional missing or repeated
        exact = False
        i = draw(st.integers(0, len(units) - 1))
        units[i:i + 1] = draw(st.sampled_from([[], [units[i]] * 2]))
    units += [(["--json"], "json")] * draw(st.integers(0, 2))
    # Options and flags move among the positionals, which keep their order.
    ordered = iter([unit for unit in units if unit[1] == "positional"])
    units = [next(ordered) if kind == "positional" else (tokens, kind)
             for tokens, kind in draw(st.permutations(units))]
    if draw(st.booleans()):
        units.insert(draw(st.integers(0, len(units))), (["--"], "dash"))
    if draw(st.integers(0, 4)) == 0:
        exact = False
        declined = st.sampled_from([*DECLINED, *(f"{name}=3" for name, _ in arguments)])
        units.insert(draw(st.integers(0, len(units))), ([draw(declined)], "declined"))
    after_dash = False
    for i, (tokens, kind) in enumerate(units):
        if kind == "dash":
            # The reader declines a last '--', which argparse refuses
            # unless a positional is before it.
            after_dash = True
            exact &= i + 1 < len(units)
        elif after_dash:
            # After '--' every token is a positional, so an option or
            # --json there leaves the count of positionals wrong.
            exact &= kind == "positional"
        elif kind == "positional":
            exact &= not flag_like(tokens[0])
    head = ["--json"] * draw(st.integers(0, 2))
    if len(words) > 1 and draw(st.integers(0, 9)) == 0:
        exact = False
        words.insert(draw(st.integers(1, len(words) - 1)), "--json")
    return [*head, *words, *(token for tokens, _ in units for token in tokens)], exact


@settings(max_examples=400)
@given(case=argv_of_a_command())
@example(case=(["type", "canon", "heights"], True))
@example(case=(["type", "canon", "x", "--"], False))
@example(case=(["type", "canon", "x", "--json", "--"], False))
@example(case=([*ENUMERATE, "--"], False))
@example(case=(["type", "canon", "--", "--json"], True))
@example(case=(["padic", "class", "--", "3", "-12"], True))
@example(case=(["padic", "class", "3", "-12", "--precision", "-2"], True))
@example(case=(["padic", "class", "3", "-1.5"], False))
@example(case=(["group", "member", "--prime-bound", "7", "--", "-1/2", "{default:0}"], True))
@example(case=(["--json", "verdict", "S3", "--functor", "x", "--json", "--functor", "y"], True))
@example(case=(["genus", "cp", "--n", "2", "--n", "x", "{default:0}"], False))
@example(case=(["genus", "cp", "--n", "x", "--n", "2", "{default:0}"], False))
@example(case=(["padic", "class", "--", "3", "--"], False))
@example(case=(["type", "--json", "canon", "x"], False))
@example(case=(["type", "canon", "-h x"], False))
def test_the_reader_agrees_with_the_tree(case):
    argv, exact = case
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        namespace = _read_argv(argv)
    assert printed.getvalue() == ""
    if namespace is None:
        assert not exact, argv
    else:
        assert vars(namespace) == vars(_parser().parse_args(argv)), argv

"""The exit contract of the command line, as a property.

Whatever the arguments, ``main`` returns 0, 2, 3 or 4 and lets no
exception escape. A refusal from the library (3 or 4) is exactly one
``error: `` line on stderr; an argparse error (2) prints its usage and
one line with ``error:``; a success prints no ``error:`` line.

One or two ``--`` words may fall anywhere in the arguments; on Python
3.11 argparse gives a positional after a second ``--`` as an empty list,
which ``main`` refuses as a parse error.

Prime keys, primes and denominators stay below 10^6, where trial
division is quick: a larger prime key is still proven prime by trial
division with no bound.
"""

import contextlib
import io

from hypothesis import example, given, settings, strategies as st

from locgenus.cli import main

from test_cli_guards import assert_one_error_line

#: Decimals near and past the interpreter's digit limit (4,300 by default).
huge = st.builds(
    lambda digit, length: digit * length,
    st.sampled_from("123456789"),
    st.one_of(st.integers(4000, 5000), st.sampled_from([4299, 4300, 4301])),
)


def mostly(good, bad):
    """``good`` four times in five, else ``bad``."""
    return st.integers(0, 4).flatmap(lambda i: bad if i == 4 else good)


number = mostly(st.integers(0, 70).map(str), huge)
prime = st.sampled_from(["2", "3", "5", "7", "11", "97", "7919", "999983"])
key = mostly(prime, st.integers(0, 10**6 - 1).map(str))
value = mostly(st.one_of(number, st.sampled_from(["inf", "*"])), st.sampled_from(["x", "-1", ""]))
junk = st.text("{}:,*- 0123456789abdefilntu", max_size=24)


@st.composite
def descriptor(draw, default=value, values=value):
    if draw(st.integers(0, 9)) == 9:
        return draw(junk)
    entries = [f"default:{draw(default)}"]
    keys = draw(st.lists(key, max_size=3).map(lambda keys: sorted(keys, key=int)))
    entries += [f"{k}:{draw(values)}" for k in keys]
    return "{" + draw(st.sampled_from([", ", ","])).join(entries) + "}"


def counts(*values):
    """A count option: one of values, else zero or negative, huge, or not a number."""
    return mostly(st.sampled_from(values), st.one_of(st.integers(-2, 0).map(str), huge, st.just("x")))


rational = st.one_of(
    st.builds("{}/{}".format, st.integers(-20, 20), st.integers(0, 10**6 - 1)),
    st.builds("{}/7".format, huge),
    st.sampled_from(["x", "1//2", ""]),
)
#: A factor of a complex tag, catalogued or not.
factor = st.one_of(
    st.sampled_from(["S2", "S3", "S1", "CP2", "CP0", "T4", ""]),
    st.builds("{}{}".format, st.sampled_from(["S", "CP"]), number),
)
tag = st.one_of(
    factor,
    st.sampled_from(["S2xS5", "CP2xS3", "S5xS2", "S3xS1", "S2x"]),
    st.lists(factor, min_size=2, max_size=4).map("x".join),
)
functor = st.one_of(
    st.sampled_from(["neisendorfer", "postnikov:2", "postnikov:x", "bogus"]),
    st.builds("postnikov:{}".format, number),
)

COMMANDS = {
    "type canon": st.tuples(descriptor()),
    "type similar": st.tuples(descriptor(), descriptor()),
    "group member": st.tuples(
        st.just("--prime-bound"), counts("2", "100", "1000000"), st.just("--"), rational,
        descriptor(),
    ),
    "group pseudo": st.tuples(descriptor()),
    "genus rational": st.tuples(descriptor(), st.just("--dim"), counts("3", "4", "5")),
    "genus postnikov fingerprint": st.tuples(
        descriptor(), st.just("--dim"), counts("3", "4", "5")
    ),
    "genus postnikov enumerate": st.tuples(
        st.just("--dim"), counts("3", "5"), st.just("--primes"), counts("2", "3", "7"),
        st.just("--max"), counts("1", "2"),
    ),
    "genus cp": st.tuples(
        descriptor(st.just("0"), number), st.just("--n"), counts("1", "2", "3")
    ),
    "padic class": st.tuples(
        st.just("--precision"), counts("1", "32", "32769"), st.just("--"),
        st.one_of(prime, st.integers(-3, 10**6 - 1).map(str)),
        st.one_of(number, st.sampled_from(["zero", "x", "-12"])),
    ),
    "verdict": st.tuples(tag, st.just("--functor"), functor),
}


@st.composite
def argv(draw):
    path = draw(st.sampled_from(sorted(COMMANDS)))
    words = path.split()
    arguments = list(draw(COMMANDS[path]))
    if draw(st.integers(0, 9)) == 9:
        # Drop an argument, so that argparse refuses the command.
        del arguments[draw(st.integers(0, len(arguments) - 1))]
    flag = draw(mostly(st.sampled_from([None, "--json"]), st.sampled_from(["--help", "--bogus"])))
    if flag:
        # After the path, or before or inside it.
        words.insert(draw(mostly(st.just(len(words)), st.integers(0, len(words)))), flag)
    argv = words + arguments
    for _ in range(draw(st.integers(0, 2))):
        # Before, inside or after the path, beside any '--' the command has.
        argv.insert(draw(st.integers(0, len(argv))), "--")
    return argv


@settings(max_examples=500, deadline=None)
@given(argv())
@example(["verdict", "S" + "9" * 5000, "--functor", "neisendorfer"])
@example(["verdict", "S2xS" + "9" * 5000, "--functor", "postnikov:5"])
@example(["padic", "class", "--", "3", "--"])
@example(["group", "member", "--", "-1/2", "--"])
@example(["genus", "cp", "--n", "9" * 4300, "{default:0, 3:2}", "--json"])
@example(["genus", "cp", "--n", "2", "{default:0, 3:" + "9" * 4300 + "}"])
def test_exit_contract(arguments):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(arguments)
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (arguments, code)
    flagged = [line for line in err.splitlines() if "error:" in line]
    if code in (3, 4):
        assert_one_error_line(err)
    elif code == 2:
        assert len(flagged) == 1, err
    else:
        assert flagged == [], err

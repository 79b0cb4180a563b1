"""Library operations: each builds locgenus values from plain data and
returns a plain observation (str, bool, int, Fraction or a tuple of them).

Construction and validation happen inside the call, so they are timed
with the query. Importing this module imports ``locgenus`` but not
``locgenus.cli``.
"""

from __future__ import annotations

from fractions import Fraction

import locgenus as lg


def _height(v):
    return lg.INFINITY if v == "inf" else v


def _entry(v):
    return lg.STAR if v == "*" else v


def _heights(h) -> lg.HeightSequence:
    default, entries = h
    return lg.HeightSequence(_height(default), {p: _height(v) for p, v in entries.items()})


def _hom(h, pre_num, pre_den, twists=None) -> lg.ConnectingHom:
    return lg.ConnectingHom(_heights(h), Fraction(pre_num, pre_den), twists)


def construct(h):
    return str(_heights(h))


def similar(a, b):
    return lg.similar(_heights(a), _heights(b))


def type_of(h):
    return str(lg.type_of(_heights(h)))


def member(h, num, den):
    return lg.RankOneGroup(_heights(h)).member(Fraction(num, den))


def lattice(a, b):
    ga, gb = lg.RankOneGroup(_heights(a)), lg.RankOneGroup(_heights(b))
    return str(ga.intersect(gb).heights), str(ga.join(gb).heights)


def evaluate(h, pre_num, pre_den, twists, num, den):
    return _hom(h, pre_num, pre_den, twists).evaluate(Fraction(num, den)).value


def kernel(h, pre_num, pre_den):
    return str(_hom(h, pre_num, pre_den).kernel().heights)


def homotopy_groups(dim, h, pre_num, pre_den):
    element = lg.RationalGenusElement(dim, _hom(h, pre_num, pre_den))
    pi_n, shape = element.homotopy_groups()
    return str(pi_n), shape.is_cofinite, sorted(shape.listed_primes)


def classify(dim, default, entries):
    descriptor = lg.PostnikovGenusDescriptor(
        dim, _entry(default), {p: _entry(v) for p, v in entries.items()}
    )
    return str(lg.assemble_global(dim, descriptor).classify())


def cp_descriptor(n, exponents):
    descriptor = lg.cp_fake_descriptor(n, exponents)
    return str(descriptor), descriptor.dimension


def valuation(num, den, p):
    return lg.valuation(Fraction(num, den), p)

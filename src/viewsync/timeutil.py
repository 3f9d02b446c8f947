"""Exact rational time values shared by config parsing, the simulator and trace io.

All protocol-visible quantities (global time, local clocks, delays) are exact
rationals. Internally the simulator works on an integer tick grid so the hot
loop stays on machine ints; Fraction values appear only where clock rates
other than 1 force them. Mixed int/Fraction arithmetic is exact either way.

Traces (version 2) carry every time as a count of ticks on the grid their
header names, so the simulator writes and the analyzer reads the values it
computes with: ``dump_ticks`` writes a whole count as a JSON int and only a
drifted clock's non-whole Fraction as a ``"p/q"`` string, and ``load_ticks``
reads exactly those two forms back. Clock rates, which have no unit, use
the same two forms. Real units appear only at the edges: config input and
the reported metrics (``from_ticks``).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Union

Time = Union[int, Fraction]


def to_frac(value: object) -> Fraction:
    """Parse a config-level number: int, decimal literal, or a "p/q" string."""
    if isinstance(value, bool):
        raise ValueError("booleans are not time values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        # Honor the decimal as written (0.1 -> 1/10), not its binary expansion.
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def frac_str(value: Time) -> str:
    """Canonical string form: "7", "-3" or "7/2"."""
    return str(value)


def grid_of(values: list[Fraction], floor: int = 1) -> int:
    """Least common tick denominator covering every value plus a resolution floor."""
    g = floor
    for v in values:
        g = lcm(g, v.denominator)
    return g


def to_ticks(value: Fraction, grid: int) -> int:
    scaled = value * grid
    if scaled.denominator != 1:
        raise ValueError(f"{value} does not lie on the 1/{grid} grid")
    return scaled.numerator


def from_ticks(ticks: Time, grid: int) -> Fraction:
    return Fraction(ticks, 1) / grid if isinstance(ticks, Fraction) else Fraction(ticks, grid)


def dump_ticks(ticks: Time) -> Union[int, str]:
    """The trace form of a tick value: a whole count as a JSON int, any
    other (a drifted clock's) as a ``"p/q"`` string."""
    if type(ticks) is int:
        return ticks
    if ticks.denominator == 1:
        return ticks.numerator
    return f"{ticks.numerator}/{ticks.denominator}"


def load_ticks(value: object) -> Time:
    """The tick value ``dump_ticks`` wrote: an int (not a bool) as it is, an
    ASCII ``-?[0-9]+/[0-9]+`` string with a nonzero denominator as a
    Fraction. ValueError for anything else."""
    if type(value) is int:
        return value
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        # isdigit() alone would admit "²", which int() rejects; the text is ASCII here
        if slash and digits.isdigit() and den.isdigit() and int(den):
            return Fraction(int(num), int(den))
    raise ValueError(f"{value!r} is not a tick count")

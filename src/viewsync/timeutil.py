"""Exact rational time values shared by config parsing, the simulator and trace io.

All protocol-visible quantities (global time, local clocks, delays) are exact
rationals. The simulator and the analyzer work on an integer tick grid fixed
per run, so every time and every clock value is an int, drifting clocks
included: ``simnet.resolve`` splits each tick into as many sub-ticks as the
clock rates need for that.

Traces (version 5) carry every time as a JSON int count of ticks on the grid
their header names. Only the clock rates, which have no unit and may be any
positive rational, are written as ``"p/q"`` strings when not whole:
``dump_ticks`` writes a rate and ``load_ticks`` reads it back. Real units
appear only at the edges: config input and the reported metrics
(``from_ticks``).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Union


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


def from_ticks(ticks: int, grid: int) -> Fraction:
    return Fraction(ticks, grid)


def dump_ticks(rate: Union[int, Fraction]) -> Union[int, str]:
    """The trace form of a clock rate: a whole rate as a JSON int, any other
    as a ``"p/q"`` string."""
    if rate.denominator == 1:
        return rate.numerator
    return f"{rate.numerator}/{rate.denominator}"


def load_ticks(value: object) -> Union[int, Fraction]:
    """The clock rate ``dump_ticks`` wrote: an int (not a bool) as it is, an
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
    raise ValueError(f"{value!r} is not a clock rate")

"""Exact rational time values shared by config parsing, the simulator and trace io.

All protocol-visible quantities (global time, local clocks, delays) are exact
rationals. Internally the simulator works on an integer tick grid so the hot
loop stays on machine ints; Fraction values appear only where clock rates
other than 1 force them. Mixed int/Fraction arithmetic is exact either way.

Traces carry times in real units as rational strings, so ticks cross that
boundary twice per value: the simulator writes them, the analyzer reads them
back. On the grid both directions are integer arithmetic: ``ticks_str``
reduces ``ticks/grid`` by their gcd, and ``parse_ticks`` splits an ASCII
``"p"`` or ``"p/q"`` (the form ``frac_str`` writes) and divides ``p * grid``
by ``q``. Fraction ticks and every other spelling of a number go through
``fractions.Fraction`` instead, which gives the same values.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

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


def ticks_str(ticks: Time, grid: int) -> str:
    """``frac_str(from_ticks(ticks, grid))``, without a Fraction for int ticks."""
    if type(ticks) is int:
        d = gcd(ticks, grid)
        if d == grid:
            return str(ticks // grid)
        return f"{ticks // d}/{grid // d}"
    return frac_str(from_ticks(ticks, grid))


def parse_ticks(text: object, grid: int) -> Optional[Time]:
    """Ticks of an ASCII ``-?[0-9]+(/[0-9]+)?`` string with a nonzero
    denominator, equal to ``Fraction(text) * grid``: an int when whole, a
    Fraction otherwise. None for any other input, which callers parse the
    general way.
    """
    if type(text) is not str or not text.isascii():
        return None
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    # isdigit() alone would admit "²", which int() rejects; the text is ASCII here
    if not digits.isdigit():
        return None
    if not slash:
        return int(num) * grid
    if not den.isdigit():
        return None
    q = int(den)
    if q == 0:
        return None
    scaled = int(num) * grid
    whole, rest = divmod(scaled, q)
    return whole if rest == 0 else Fraction(scaled, q)

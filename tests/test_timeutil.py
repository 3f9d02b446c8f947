"""Exactness of the integer tick <-> trace string conversions."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from viewsync.metrics import TraceAnalysisError, _ticks, analyze
from viewsync.simnet import SimConfig, Simulation
from viewsync.timeutil import frac_str, from_ticks, parse_ticks, ticks_str

grids = st.integers(min_value=1, max_value=10**6)


def fraction_ticks(value, grid, seq):
    """The Fraction-only parse that the integer fast path must reproduce."""
    try:
        return int(value) * grid
    except (ValueError, TypeError):
        pass
    try:
        f = Fraction(value) * grid
    except (ValueError, ZeroDivisionError, TypeError):
        raise TraceAnalysisError(f"malformed time {value!r} at seq {seq}") from None
    return f.numerator if f.denominator == 1 else f


def same_outcome(value, grid):
    """_ticks and the Fraction-only parse agree: equal value and type, or both reject."""
    try:
        want = fraction_ticks(value, grid, 7)
    except TraceAnalysisError as exc:
        with pytest.raises(TraceAnalysisError) as got:
            _ticks(value, grid, 7)
        assert str(got.value) == str(exc)
        return
    got = _ticks(value, grid, 7)
    assert got == want and type(got) is type(want)


# -- ticks -> string -----------------------------------------------------------


@given(ticks=st.integers(min_value=-(10**12), max_value=10**12), grid=grids)
def test_ticks_str_matches_fraction_formatting(ticks, grid):
    assert ticks_str(ticks, grid) == frac_str(from_ticks(ticks, grid))


@pytest.mark.parametrize("ticks,grid,text", [(0, 300, "0"), (-600, 300, "-2"), (-450, 300, "-3/2")])
def test_ticks_str_examples(ticks, grid, text):
    assert ticks_str(ticks, grid) == text


@given(
    num=st.integers(min_value=-(10**9), max_value=10**9),
    den=st.integers(min_value=1, max_value=10**4),
    grid=grids,
)
def test_ticks_str_fraction_ticks_fall_back(num, den, grid):
    ticks = Fraction(num, den)
    assert ticks_str(ticks, grid) == frac_str(from_ticks(ticks, grid))


# -- string -> ticks -----------------------------------------------------------


@given(
    num=st.integers(min_value=-(10**12), max_value=10**12),
    den=st.integers(min_value=1, max_value=10**6),
    grid=grids,
)
def test_parse_ticks_of_canonical_strings_is_exact(num, den, grid):
    text = frac_str(Fraction(num, den))
    want = Fraction(text) * grid
    got = parse_ticks(text, grid)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


@pytest.mark.parametrize(
    "text", [" 3", "+3", "1_0", "1.5", "٣/2", "²", "3/0", "3/-2", "-", "", "x"]
)
def test_parse_ticks_leaves_other_spellings_to_the_general_path(text):
    assert parse_ticks(text, 10) is None


def test_parse_ticks_reduces_unreduced_ascii_fractions():
    assert parse_ticks("3/06", 10) == 5
    assert parse_ticks("-007", 10) == -70


@pytest.mark.parametrize(
    "value",
    [" 3", "+3", "1_0", "1.5", "3/06", "٣/2", "²", " 3/2 ", "-0", "007", "1/0", "x", "", None, 4],
)
def test_ticks_accepts_and_rejects_as_fraction_does(value):
    same_outcome(value, 300)


@given(text=st.text(alphabet="0123456789-+/_. e٣²", max_size=8), grid=grids)
def test_ticks_matches_fraction_parse_on_any_spelling(text, grid):
    same_outcome(text, grid)


@pytest.mark.parametrize("field", ["time", "send_time", "proc_clock"])
@pytest.mark.parametrize("value", ["x", "1/0", ""])
def test_malformed_deliver_time_names_its_seq(field, value):
    records = Simulation(SimConfig(n=4, delta_cap=2, gst=0)).run()
    i = next(i for i, r in enumerate(records) if r["kind"] == "deliver")
    records[i][field] = value
    with pytest.raises(TraceAnalysisError, match=f"at seq {records[i]['seq']}$"):
        analyze(records)

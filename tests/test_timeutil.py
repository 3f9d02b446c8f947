"""Exactness of the values a trace carries, and strictness in reading them.

The test names date from trace v1, where ``ticks_str``/``parse_ticks`` turned
ticks into real-unit strings and back, and from v2 and v3, where a drifted
clock's tick could be a ``"p/q"`` string. Each test now checks the same
concern on what is left: ``dump_ticks``/``load_ticks``, which write and read
the header's clock rates, and ``metrics._ticks``, which reads a v4 time and
accepts only an exact int.
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from viewsync.metrics import TraceAnalysisError, _ticks, analyze
from viewsync.simnet import SimConfig, Simulation
from viewsync.timeutil import dump_ticks, from_ticks, load_ticks

grids = st.integers(min_value=1, max_value=10**6)
ints = st.integers(min_value=-(10**12), max_value=10**12)

def same_outcome(value):
    """_ticks reads an exact int as it is and rejects every other value,
    a v3 ``"p/q"`` tick included, naming the seq."""
    if type(value) is not int:
        with pytest.raises(TraceAnalysisError) as got:
            _ticks(value, 7)
        assert str(got.value) == f"malformed time {value!r} at seq 7"
        return
    assert _ticks(value, 7) is value


# -- ticks -> trace value ------------------------------------------------------


@given(ticks=ints, grid=grids)
def test_ticks_str_matches_fraction_formatting(ticks, grid):
    # a whole count is written as the JSON int itself and read back unchanged
    assert dump_ticks(ticks) is ticks
    assert dump_ticks(Fraction(ticks)) == ticks and type(dump_ticks(Fraction(ticks))) is int
    assert load_ticks(ticks) is ticks
    # and it spells in real units as the v1 trace string did
    assert str(from_ticks(load_ticks(dump_ticks(ticks)), grid)) == str(Fraction(ticks, grid))


@pytest.mark.parametrize("ticks,grid,text", [(0, 300, "0"), (-600, 300, "-2"), (-450, 300, "-3/2")])
def test_ticks_str_examples(ticks, grid, text):
    assert dump_ticks(ticks) == ticks
    assert str(from_ticks(load_ticks(dump_ticks(ticks)), grid)) == text


@given(
    num=st.integers(min_value=-(10**9), max_value=10**9),
    den=st.integers(min_value=1, max_value=10**4),
    grid=grids,
)
def test_ticks_str_fraction_ticks_fall_back(num, den, grid):
    ticks = Fraction(num, den)
    value = dump_ticks(ticks)
    if ticks.denominator == 1:
        assert value == ticks.numerator and type(value) is int
    else:
        assert value == f"{ticks.numerator}/{ticks.denominator}"
    assert load_ticks(value) == ticks
    assert str(from_ticks(load_ticks(value), grid)) == str(from_ticks(ticks, grid))


# -- trace value -> ticks ------------------------------------------------------


@given(num=ints, den=st.integers(min_value=1, max_value=10**6))
def test_parse_ticks_of_canonical_strings_is_exact(num, den):
    want = Fraction(num, den)
    got = load_ticks(dump_ticks(want))
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


@pytest.mark.parametrize(
    "text", [" 3", "+3", "1_0", "1.5", "٣/2", "²", "3/0", "3/-2", "-", "", "x"]
)
def test_parse_ticks_leaves_other_spellings_to_the_general_path(text):
    # no general (Fraction) path: these spellings are not clock rates
    with pytest.raises(ValueError):
        load_ticks(text)


def test_parse_ticks_reduces_unreduced_ascii_fractions():
    assert load_ticks("3/06") == Fraction(1, 2)
    assert load_ticks("-007/7") == -1


@pytest.mark.parametrize(
    "value",
    [" 3", "+3", "1_0", "1.5", "3/06", "٣/2", "²", " 3/2 ", "-0", "007", "1/0", "x", "", None, 4]
    + ["3", " 3/2", "+3/2", "1_0/3", "1.5/2", "²/1", "3/-2", "-/2", "/2", "-3/4", True, False]
    + ["1/2", "-450/300", "6/3", 2**70, -(2**70)]
    + [pytest.param(v, id=f"{type(v).__name__}-{v}") for v in (1.5, [1], Fraction(1, 2))],
)
def test_ticks_accepts_and_rejects_as_fraction_does(value):
    same_outcome(value)


@given(text=st.text(alphabet="0123456789-+/_. e٣²", max_size=8))
def test_ticks_matches_fraction_parse_on_any_spelling(text):
    same_outcome(text)


@pytest.mark.parametrize("field", ["time", "send_time", "proc_clock"])
@pytest.mark.parametrize("value", ["x", "1/0", "", True, 1.5, "1/2"])
def test_malformed_deliver_time_names_its_seq(field, value):
    # a delivery's time is its send record's time plus that record's delays
    # entry for its recipient, and its send time that record's time
    records = Simulation(SimConfig(n=4, delta_cap=2, gst=0)).run()
    i = next(i for i, r in enumerate(records) if r["kind"] == "deliver")
    src = i - records[i]["back"]
    if field == "time":
        delays = list(records[src]["delays"])
        delays[records[src]["recipients"].index(records[i]["recipient"])] = value
        i, field = src, "delays"
        value = delays
        want = f"^send record at seq {i}: field 'delays' is malformed: "
    else:
        if field == "send_time":
            i, field = src, "time"
        want = f"at seq {i}$"
    records[i] = {**records[i], field: value}
    with pytest.raises(TraceAnalysisError, match=want):
        analyze(records)

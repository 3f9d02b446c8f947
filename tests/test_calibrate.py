"""Smoke test for tools/calibrate.py, which no other test runs."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from viewsync.constants import RESPONSE_STEPS_C, WORD_RATE_W
from viewsync.simnet import SimConfig, Simulation

CALIBRATE = Path(__file__).resolve().parent.parent / "tools" / "calibrate.py"


def load_calibrate():
    spec = importlib.util.spec_from_file_location("calibrate", CALIBRATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measure_one_small_config():
    # long enough for several correct-led groups, responsive (tiny actual delay)
    cfg = SimConfig(
        n=4,
        delta_cap=1,
        gst=2,
        delta_actual=Fraction(1, 100),
        stop="horizon",
        horizon=2 + 12 * 9,
        seed=5,
    )
    out = load_calibrate().measure(Simulation(cfg).run())
    assert out == {"w_global": 0, "w_pace": Fraction(39, 4), "c_pace": 0, "c_resp": -398}
    assert max(out["w_global"], out["w_pace"]) <= WORD_RATE_W
    assert max(out["c_pace"], out["c_resp"]) <= RESPONSE_STEPS_C


def test_measure_reads_a_stream():
    cfg = SimConfig(n=4, delta_cap=1, gst=2, stop="horizon", horizon=2 + 12 * 9, seed=5)
    records = Simulation(cfg).run()
    calibrate = load_calibrate()
    assert calibrate.measure(iter(records)) == calibrate.measure(records)

"""Frozen digests: config_hash names and trace bytes must not drift.

Three things are pinned here. ``config_hash`` names every stored trace file,
so each input form a spec or a caller may use keeps its digest
(``HASHED_CELLS``, ``DELTA_UNITS_HASHES``). The trace bytes are the identity
of a run, so each traced cell keeps its record count and the SHA-256 of its
version 8 trace (``TRACE_PINS``, ``DRAWING_DRIFT_PINS``): a changed digest
is a changed run, not a cosmetic difference. And since version 8 writes every record but the header
as a positional array, which names no kind or field, the trace tables' names,
shapes and codes are pinned as literals (``RECORD_ROWS``, ``PAYLOAD_ROWS``).
Traces of versions 1 to 7 are refused, by the reader and by ``viewsync
replay``.

Every earlier version's digest of these cells was a function of the version
8 records, the object writer (tested against ``json.dumps`` in
``test_trace.py``) and those names, so these tables imply them all. The
change that writes a version 9 adds one test-local converter from its
records to version 8's, checks that it reproduces these digests, and then
replaces them with its own version's.
"""

import hashlib
from fractions import Fraction

import pytest
import yaml

from viewsync.cli import load_spec, main
from viewsync.harness import build_config, config_hash
from viewsync.simnet import Corruption, Simulation
from viewsync.trace import (
    PAYLOAD_CODES,
    PAYLOAD_FIELDS,
    RECORD_CODES,
    RECORD_FIELDS,
    TraceParseError,
    parse_jsonl,
    to_jsonl,
)

# cell -> config_hash, one cell per input form a spec or a caller may use
HASHED_CELLS = [
    ({"n": 4, "delta_cap": 2, "f": 1, "seed": 0}, "afdbc262adb7caf1"),
    ({"n": 4, "corruptions": [], "seed": 0}, "8db2761b150b3ac7"),
    (
        {
            "n": 7,
            "delta_cap": 2,
            "corruptions": [
                {"proc": 1, "strategy": "crash_leader", "time": "5/2"},
                {"proc": 3, "strategy": "silent"},
            ],
            "seed": 3,
        },
        "7ae37a1c064d78b9",
    ),
    (
        {"n": 7, "corruptions": [[2, "early_signer", 4], [5, "vote_stuffer"]], "seed": 1},
        "7277ad71545c8a72",
    ),
    (
        {"n": 4, "corruptions": [Corruption(0, "late_qc_relayer", Fraction(1, 3))], "seed": 2},
        "cb975dab9410d35d",
    ),
    ({"n": 7, "offsets": ["two_cluster", 25], "gst": "128/3", "seed": 0}, "f45c4cc8d3cd67ef"),
    ({"n": 4, "offsets": [0, 1, "3/2", 2.5], "seed": 0}, "5a2adc893ac6a8a2"),
    ({"n": 4, "gst": 5, "sync_windows": [[5, 20], [40, None]], "seed": 0}, "f02966daa8c7a78d"),
    (
        {
            "n": 4,
            "t": 1,
            "k": 4,
            "x": 2,
            "gst": 1.5,
            "delta_actual": 0.5,
            "horizon": "100",
            "drift_epsilon": "1/100",
            "leaders": "random_permutations",
            "stop": "horizon",
            "network": "uniform_random",
            "seed": 7,
        },
        "ca4d3b1eba424953",
    ),
    ({"n": 4, "drift_rates": [1, "1/2", 1.5, 2], "seed": 0}, "0a49b9b422d05a7f"),
]

DELTA_UNITS_SPEC = {
    "delta_units": True,
    "base": {
        "n": 4,
        "delta_cap": 2,
        "gst": 3,
        "offsets": [0, 0.5, 1, 1],
        "horizon": 40,
        "corruptions": [{"proc": 0, "strategy": "silent", "time": 1}],
        "sync_windows": [[3, 10], [20, None]],
    },
    "sweeps": {"delta_actual": ["1/2", 1], "offsets": [["two_cluster", 3], "all_zero"]},
}
DELTA_UNITS_HASHES = [
    "93537803974f9be9",
    "f10704ab809186f9",
    "a7951ed83a57f07a",
    "a86f82dbd8b69bbf",
]

# cell -> (records, SHA-256 of its version 8 trace)
# fmt: off
TRACE_PINS = [
    ({"n": 4, "delta_cap": 2, "drift_epsilon": "1/100", "gst": 3, "stop": "horizon",
      "horizon": 60, "seed": 2},
     303, "2343e882681b689a7c39fce35e13c395a27ea5c199b4f7fc6c52f576a68ad51e"),
    ({"n": 4, "delta_cap": 2, "gst": 5, "sync_windows": [[5, 40], [80, None]],
      "network": "uniform_random", "stop": "horizon", "horizon": 150, "seed": 1},
     1073, "30bc423f6752949ddb30d92bfa907f14e3ee6e85a9316cdec4b831f33ec5ccf7"),
    ({"n": 7, "leaders": "random_permutations", "offsets": "adversarial_spread",
      "stop": "sync_plus", "seed": 4},
     104, "80a579ff48a874dc1dfe5ac59f2ba6dbbf653c1a697233bce286113f0f78f004"),
    ({"n": 7, "delta_cap": 2, "gst": 3, "network": "uniform_random",
      "corruptions": [[1, "late_qc_relayer", "7/2"], [4, "early_signer", 2]], "stop": "sync_plus",
      "seed": 9},
     178, "3c86cdbbb7b5abd468e28df96c4cd6f73ebecfe9f5fde56322d830de99e8c03e"),
    ({"n": 4, "offsets": ["two_cluster", "5/2"], "delta_actual": "1/3",
      "network": "fixed_delta", "seed": 0},
     28, "e784901d08e68089262e3c57f3a24bd46e92c4094fc349d8b6ad2b9d3122669e"),
    ({"n": 4, "delta_cap": 2, "drift_rates": [1, "101/100", "99/100", 1],
      "sync_windows": [[0, 50], [100, None]], "corruptions": [[0, "selective_vc"]],
      "stop": "horizon", "horizon": 160, "seed": 5},
     651, "23d90d782828ad150013a6bc0993831cf17a8cbb0193d3f90047bb3cdb601f16"),
    ({"n": 7, "delta_cap": 2, "delta_actual": 1, "gst": 4, "network": "worst_case_max_delay",
      "corruptions": [[1, "crash_leader", 3]], "stop": "horizon", "horizon": 100, "seed": 6},
     700, "fc8df473297d2301de0132eeee8ff34d61cedc1620c19c50b49334c4a4ffd2f7"),
    ({"n": 31, "delta_actual": "1/2", "gst": 5, "network": "uniform_random",
      "corruptions": [[5, "vote_stuffer"], [17, "vote_stuffer", "3/2"]], "stop": "sync_plus",
      "seed": 11},
     1062, "b89f542c18d988048c15ac064bb24ca69162ecd02df234c928a7d429773971f3"),
]
# fmt: on

# the same for drifting runs whose random draws (network delays, a relayer's
# wake-ups, the initial clocks) are scaled onto the finer grid
# fmt: off
DRAWING_DRIFT_PINS = [
    ({"n": 4, "delta_cap": 2, "drift_epsilon": "1/100", "network": "uniform_random", "gst": 3,
      "sync_windows": [[3, 30], [60, None]], "stop": "horizon", "horizon": 90, "seed": 3},
     605, "7e94442f32e45aa4ec7d2184f3986b1544f1761fb4692bd92779a4000c21332d"),
    ({"n": 7, "drift_epsilon": "1/100", "corruptions": [[1, "late_qc_relayer", "5/2"]],
      "stop": "horizon", "horizon": 60, "seed": 5},
     1058, "854e38c97fa71c2f5e8535b9c7e289fa5b60bbabfb015fb97def4d8a9f84f554"),
    ({"n": 7, "drift_epsilon": "1/1152", "offsets": "adversarial_spread",
      "network": "uniform_random", "stop": "sync_plus", "seed": 4},
     114, "5f298fadf356846a6296b8f3664789bc5ae0fbc0e9538f4f5d4a4b0efde05370"),
    ({"n": 4, "drift_rates": ["1000003/1000000", "999983/1000000", 1, "1000033/999999"],
      "corruptions": [[3, "early_signer", 2]], "stop": "horizon", "horizon": 40, "seed": 1},
     324, "fc2494e545e96935acc5af637f65960272094997561476e2dfd46103b7d5ed93"),
]
# fmt: on

# kind -> (code, fields) and payload type -> (code, field), as the trace
# tables declare them: the names the positional arrays of version 8 do not
# write (the fields' order is the arrays', which the digests pin)
RECORD_ROWS = {
    "send": (
        "s",
        {
            "time": "tick",
            "sender": "proc",
            "recipients": "procs",
            "payload": "payload",
            "delays": "ticks",
        },
    ),
    "deliver": (
        "d",
        {"back": "int", "recipient": "proc", "proc_view": "int", "proc_clock": "tick"},
    ),
    "threshold": (
        "t",
        {"time": "tick", "proc": "proc", "boundary_clock": "tick", "proc_view": "int"},
    ),
    "corrupt": ("c", {"time": "tick", "proc": "proc", "strategy": "str"}),
    "form_qc": ("q", {"time": "tick", "proc": "proc", "view": "view", "signers": "ints"}),
    "form_vc": ("v", {"time": "tick", "proc": "proc", "view": "view", "signers": "ints"}),
    "wake": ("w", {"time": "tick", "proc": "proc"}),
    "end": ("e", {"time": "tick", "reason": "str"}),
}
PAYLOAD_ROWS = {
    "view_message": ("m", {"signer": "int"}),
    "vote": ("v", {"signer": "int"}),
    "proposal": ("p", {"leader": "int"}),
    "view_certificate": ("c", {"signers": "ints"}),
    "quorum_certificate": ("q", {"signers": "ints"}),
}


def test_config_hash_pins():
    assert [config_hash(build_config(cell)) for cell, _ in HASHED_CELLS] == [
        digest for _, digest in HASHED_CELLS
    ]


def test_delta_units_config_hash_pins(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(DELTA_UNITS_SPEC), encoding="utf-8")
    spec, _ = load_spec(path)
    assert [config_hash(build_config(c)) for c in spec.cells()] == DELTA_UNITS_HASHES


def traced(pins):
    """Each pinned cell with its trace's record count and SHA-256."""
    got = []
    for cell, *_ in pins:
        text = to_jsonl(Simulation(build_config(cell)).run())
        got.append((cell, text.count("\n"), hashlib.sha256(text.encode()).hexdigest()))
    return got


def test_trace_sha256_pins():
    assert traced(TRACE_PINS) == TRACE_PINS


def test_drawing_drift_trace_sha256_pins():
    assert traced(DRAWING_DRIFT_PINS) == DRAWING_DRIFT_PINS


def test_trace_schema_pins():
    assert RECORD_CODES == {kind: code for kind, (code, _) in RECORD_ROWS.items()}
    assert RECORD_FIELDS == {kind: fields for kind, (_, fields) in RECORD_ROWS.items()}
    assert PAYLOAD_CODES == {ptype: code for ptype, (code, _) in PAYLOAD_ROWS.items()}
    assert PAYLOAD_FIELDS == {ptype: fields for ptype, (_, fields) in PAYLOAD_ROWS.items()}


@pytest.mark.parametrize("version", range(1, 8))
def test_a_trace_of_an_older_version_is_refused(tmp_path, capsys, version):
    # a version 8 trace with its header relabelled: its records read alike,
    # so only the header's version tells the two apart
    cell, *_ = TRACE_PINS[2]
    records = Simulation(build_config(cell)).run()
    text = to_jsonl([{**records[0], "version": version}, *records[1:]])
    assert parse_jsonl(to_jsonl(records)) == records
    with pytest.raises(TraceParseError, match=rf"^line 1: unsupported trace version {version}$"):
        parse_jsonl(text)
    path = tmp_path / "old.jsonl"
    path.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    err = f"malformed trace: line 1: unsupported trace version {version}\n"
    assert capsys.readouterr().err == err

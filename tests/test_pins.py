"""Frozen digests: config_hash names and trace bytes must not drift.

The digests were recorded before config coercion, resolution and the trace
header moved into one place in ``simnet``; a refactor of that path has to
reproduce them exactly. ``config_hash`` names every stored trace file and
the trace bytes are the identity of a run, so a changed digest here is a
changed run, not a cosmetic difference.

The trace digests were first recorded in trace version 1, which wrote times
as rational strings in real units. ``as_v1`` spells a version 2 trace (ticks
on the header's grid) that way again, so the same runs still match those
digests; each cell also pins its version 2 digest.
"""

import copy
import hashlib
from fractions import Fraction

import yaml

from viewsync.cli import load_spec
from viewsync.harness import build_config, config_hash
from viewsync.simnet import Corruption, Simulation
from viewsync.timeutil import frac_str, from_ticks, load_ticks
from viewsync.trace import to_jsonl

RECORD_TIMES = ("time", "send_time", "deliver_time", "proc_clock", "boundary_clock")
HEADER_TIMES = ("gamma", "delta_cap", "delta_actual", "gst", "horizon")


def as_v1(records):
    """A version 2 trace rewritten in version 1 spelling: every time as the
    rational string of its real value, rates as rational strings."""
    grid = records[0]["grid"]

    def real(value):
        return frac_str(from_ticks(load_ticks(value), grid))

    out = copy.deepcopy(list(records))
    for rec in out:
        for name in RECORD_TIMES:
            if name in rec:
                rec[name] = real(rec[name])
    head = out[0]
    head["version"] = 1
    cfg = head["config"]
    for name in HEADER_TIMES:
        cfg[name] = real(cfg[name])
    cfg["offsets"] = [real(o) for o in cfg["offsets"]]
    cfg["rates"] = [frac_str(load_ticks(r)) for r in cfg["rates"]]
    for c in cfg["corruptions"]:
        c["time"] = real(c["time"])
    if cfg["sync_windows"] is not None:
        cfg["sync_windows"] = [
            [real(start), None if end is None else real(end)] for start, end in cfg["sync_windows"]
        ]
    return out


def sha256(records) -> str:
    return hashlib.sha256(to_jsonl(records).encode()).hexdigest()

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

# cell -> (records, SHA-256 of the trace as_v1, SHA-256 of the version 2 trace)
TRACED_CELLS = [
    (
        {
            "n": 4,
            "delta_cap": 2,
            "drift_epsilon": "1/100",
            "gst": 3,
            "stop": "horizon",
            "horizon": 60,
            "seed": 2,
        },
        393,
        "943c02cadcff239488fd6adc1515ce9981927464978417856b5e0c8a70ae0ea3",
        "bb576b1ad5bee28f52ed903f547e990a118ecc118b2c3ffdcb754c47dc65e80d",
    ),
    (
        {
            "n": 4,
            "delta_cap": 2,
            "gst": 5,
            "sync_windows": [[5, 40], [80, None]],
            "network": "uniform_random",
            "stop": "horizon",
            "horizon": 150,
            "seed": 1,
        },
        1385,
        "e6d20ee41a4b8445ea31cc3bd4612ad5a8abad4ffacaecd3185b9e658b3390a7",
        "4bcad9d2333ebeff3479ef7f9b83a9cf621cfad5f1111e42257a8ab1c1059a67",
    ),
    (
        {
            "n": 7,
            "leaders": "random_permutations",
            "offsets": "adversarial_spread",
            "stop": "sync_plus",
            "seed": 4,
        },
        140,
        "e3dc28bc2094dcb0461112ccf7cb3cd4c0c09fca24afe901f08c9e6ced45e91e",
        "b30552d52c4ee6eadbca9110647065ab6582155c4fc36089270b441d97495067",
    ),
    (
        {
            "n": 7,
            "delta_cap": 2,
            "gst": 3,
            "network": "uniform_random",
            "corruptions": [[1, "late_qc_relayer", "7/2"], [4, "early_signer", 2]],
            "stop": "sync_plus",
            "seed": 9,
        },
        232,
        "1cbc477fac5b0e5e3741191f3363ccd3f5be9d8265fdfe7784fab3aa38729ca7",
        "22a4eae993a4a9efbefc8bb1758225accfa1b865970fcdc5a5b117506d3001a1",
    ),
    (
        {
            "n": 4,
            "offsets": ["two_cluster", "5/2"],
            "delta_actual": "1/3",
            "network": "fixed_delta",
            "seed": 0,
        },
        37,
        "4a5ce8947266ce31ffa44fa033ff2fd3c400bb5adb75b33bc0d6773723e29ed4",
        "94ab8a1ebcb731e5f685d0e747e66545befb57b961ed032895024a9e32becadc",
    ),
    (
        {
            "n": 4,
            "delta_cap": 2,
            "drift_rates": [1, "101/100", "99/100", 1],
            "sync_windows": [[0, 50], [100, None]],
            "corruptions": [[0, "selective_vc"]],
            "stop": "horizon",
            "horizon": 160,
            "seed": 5,
        },
        828,
        "efe4b83e5868b7d639132ffd754f53371bc13930834808718dca726a9c9cda33",
        "4bf75dd5e0dade7354d958ceee139b5202ff45f86a4e07c74bd3cc108e56c3d8",
    ),
]


def test_config_hash_pins():
    assert [config_hash(build_config(cell)) for cell, _ in HASHED_CELLS] == [
        digest for _, digest in HASHED_CELLS
    ]


def test_delta_units_config_hash_pins(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(DELTA_UNITS_SPEC), encoding="utf-8")
    spec, _ = load_spec(path)
    assert [config_hash(build_config(c)) for c in spec.cells()] == DELTA_UNITS_HASHES


def test_trace_sha256_pins():
    got = []
    for cell, _, _, _ in TRACED_CELLS:
        records = Simulation(build_config(cell)).run()
        got.append((len(records), sha256(as_v1(records)), sha256(records)))
    assert got == [(count, v1, v2) for _, count, v1, v2 in TRACED_CELLS]

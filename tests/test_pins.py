"""Frozen digests: config_hash names and trace bytes must not drift.

The digests were recorded before config coercion, resolution and the trace
header moved into one place in ``simnet``; a refactor of that path has to
reproduce them exactly. ``config_hash`` names every stored trace file and
the trace bytes are the identity of a run, so a changed digest here is a
changed run, not a cosmetic difference.
"""

import hashlib
from fractions import Fraction

import yaml

from viewsync.cli import load_spec
from viewsync.harness import build_config, config_hash
from viewsync.simnet import Corruption, Simulation
from viewsync.trace import to_jsonl

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

# cell -> (records, SHA-256 of the JSONL trace)
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
    for cell, _, _ in TRACED_CELLS:
        records = Simulation(build_config(cell)).run()
        got.append((len(records), hashlib.sha256(to_jsonl(records).encode()).hexdigest()))
    assert got == [(count, digest) for _, count, digest in TRACED_CELLS]

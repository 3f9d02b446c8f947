"""tools/identity.py digests every byte a workload's run writes, traces apart
from rows and summaries, counts the trace bytes, and --check names what
differs."""

import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

from viewsync import harness
from viewsync.harness import ExperimentSpec

IDENTITY = Path(__file__).resolve().parent.parent / "tools" / "identity.py"


def load_identity():
    spec = importlib.util.spec_from_file_location("identity", IDENTITY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny(seed=0):
    return ExperimentSpec(
        base={"n": 4, "delta_cap": 2, "stop": "horizon", "horizon": 20},
        sweeps={"corruptions": [[], [{"proc": 0, "strategy": "late_qc_relayer"}]]},
        seeds=2,
        base_seed=seed,
    )


def test_a_digest_follows_the_seed_and_every_trace_byte(tmp_path, monkeypatch):
    identity = load_identity()
    first = identity.digest(tiny(), tmp_path / "a")
    assert sorted(first) == ["outputs", "trace_bytes", "traces"]
    assert len(first["outputs"]) == len(first["traces"]) == 64
    (trace,) = (tmp_path / "a" / "traces").iterdir()
    assert first["trace_bytes"] == trace.stat().st_size
    assert identity.digest(tiny(), tmp_path / "b") == first
    other_seed = identity.digest(tiny(seed=1), tmp_path / "c")
    assert all(other_seed[part] != first[part] for part in first)

    # the same records written as objects with spaces: only the traces differ
    def spaced(records, out):
        out.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)

    monkeypatch.setattr(harness, "write_trace", spaced)
    respelled = identity.digest(tiny(), tmp_path / "d")
    assert respelled["traces"] != first["traces"]
    assert respelled["trace_bytes"] > first["trace_bytes"]
    assert respelled["outputs"] == first["outputs"]
    for name in ("measure.jsonl", "replay.jsonl", "summary.csv"):
        assert (tmp_path / "d" / name).read_bytes() == (tmp_path / "a" / name).read_bytes()


def test_check_names_each_workload_that_differs(tmp_path, monkeypatch, capsys):
    identity = load_identity()
    other = {"outputs": "0" * 64, "trace_bytes": 5, "traces": "1" * 64}
    found = {"tiny": identity.digest(tiny(), tmp_path / "run"), "other": other}
    monkeypatch.setattr(identity, "digests", lambda seed: found)
    stored = tmp_path / "identity.json"
    stored.write_text(json.dumps({"0": found}), encoding="utf-8")
    assert identity.main(["--check", str(stored)]) == 0
    assert json.loads(capsys.readouterr().out) == {"0": found}
    # a changed trace format: the traces part alone differs, and is named
    stored.write_text(
        json.dumps({"0": {**found, "other": {**other, "traces": "2" * 64}}}), encoding="utf-8"
    )
    assert identity.main(["--check", str(stored)]) == 1
    assert capsys.readouterr().err == f"differs from {stored}: seed 0 other traces\n"
    outputs_gone = {**found, "other": {k: v for k, v in other.items() if k != "outputs"}}
    stored.write_text(json.dumps({"0": outputs_gone}), encoding="utf-8")
    assert identity.main(["--check", str(stored)]) == 1
    assert capsys.readouterr().err == f"differs from {stored}: seed 0 other outputs\n"
    # a seed the file does not hold differs in every part of every workload
    assert identity.main(["--check", str(stored), "--seed", "7"]) == 1
    assert capsys.readouterr().err.count("seed 7") == 6
    # a changed trace size alone is named too
    resized = {**found, "other": {**other, "trace_bytes": 6}}
    stored.write_text(json.dumps({"0": resized}), encoding="utf-8")
    assert identity.main(["--check", str(stored)]) == 1
    assert capsys.readouterr().err == f"differs from {stored}: seed 0 other trace_bytes\n"


def test_replay_rows_that_are_not_the_measure_rows_exit_1(tmp_path, monkeypatch, capsys):
    identity = load_identity()
    monkeypatch.setitem(sys.modules, "workloads", types.SimpleNamespace(WORKLOADS={"tiny": tiny}))
    assert identity.main(["--seed", "3"]) == 0
    assert list(json.loads(capsys.readouterr().out)["3"]) == ["tiny"]
    replay_cell = harness.replay_cell
    monkeypatch.setattr(harness, "replay_cell", lambda records: {**replay_cell(records), "words": -1})
    with pytest.raises(identity.ReplayDiffers, match="^the replay rows differ from the measure rows$"):
        identity.digest(tiny(), tmp_path / "run")
    assert identity.main(["--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "seed 3 tiny: the replay rows differ from the measure rows\n"
    assert captured.out == ""

"""Batch runner and command-line behavior: sweeps, hashing, replay, exit codes."""

import gc
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
import weakref
from contextlib import closing, nullcontext
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from viewsync.cli import load_spec, main
from viewsync.harness import (
    ExperimentError,
    ExperimentSpec,
    build_config,
    config_hash,
    replay_file,
    run_cell,
    run_experiment,
)
from viewsync import harness, metrics, simnet
from viewsync.adversary import BYZANTINE_STRATEGIES
from viewsync.metrics import TraceAnalysisError, analyze
from viewsync.simnet import Corruption, SimConfig, Simulation, coerce
from viewsync.trace import (
    TraceParseError,
    dumps_record,
    iter_traces,
    parse_jsonl,
    read_trace,
    to_jsonl,
)

BASE = dict(n=4, delta_cap=2, gst=6, offsets="all_zero", network="worst_case_max_delay")


# -- spec expansion ------------------------------------------------------------


def test_cells_are_cartesian_product_of_sweeps_and_seeds():
    spec = ExperimentSpec(base=BASE, sweeps={"f": [0, 1], "gst": [0, 6, 12]}, seeds=2)
    cells = spec.cells()
    assert len(cells) == spec.cell_count() == 12
    assert {(c["f"], c["gst"], c["seed"]) for c in cells} == {
        (f, g, s) for f in (0, 1) for g in (0, 6, 12) for s in (0, 1)
    }


def test_oversized_sweep_refused():
    with pytest.raises(ExperimentError, match="cap"):
        ExperimentSpec(base=BASE, sweeps={"gst": list(range(100))}, seeds=10, max_cells=99)


def test_unknown_field_refused():
    with pytest.raises(ExperimentError, match="unknown config field"):
        ExperimentSpec(base={"n": 4, "latency": 3})


def test_unknown_mode_refused():
    with pytest.raises(ExperimentError, match="mode"):
        ExperimentSpec(base=BASE, mode="explore")


@pytest.mark.parametrize(
    "kw,message",
    [
        (dict(sweeps={"gst": 3}), "sweeps.gst: expected a list"),
        (dict(sweeps={"gst": "abc"}), "sweeps.gst: expected a list"),
        (dict(sweeps=[("gst", [0, 3])]), "sweeps: expected a mapping"),
        (dict(base=[("n", 4)]), "base: expected a mapping"),
    ],
)
def test_spec_shape_refused_with_the_key(kw, message):
    with pytest.raises(ExperimentError, match=re.escape(message)):
        ExperimentSpec(**{"base": BASE, **kw})


def test_spec_sweep_values_may_be_a_tuple():
    assert ExperimentSpec(base=BASE, sweeps={"gst": (0, 3)}).cell_count() == 2


@pytest.mark.parametrize(
    "kw", [dict(base={**BASE, "seed": 5}), dict(sweeps={"seed": [1, 2]})], ids=["base", "sweeps"]
)
def test_a_seed_in_the_spec_is_refused(kw):
    # cells() gives each cell its seed from seeds and base_seed, so a seed
    # given here would be dropped without a word
    with pytest.raises(ExperimentError, match="^seed: give seeds and base_seed instead$"):
        ExperimentSpec(**{"base": BASE, **kw})
    spec = ExperimentSpec(base=BASE, seeds=2, base_seed=5)
    assert [c["seed"] for c in spec.cells()] == [5, 6]


def test_f_knob_expands_to_silent_leaders():
    cfg = build_config({**BASE, "f": 1, "seed": 0})
    assert cfg.corruptions == (Corruption(0, "silent", 0),)
    with pytest.raises(ExperimentError):
        build_config({**BASE, "f": 1, "corruptions": [{"proc": 1, "strategy": "silent"}], "seed": 0})


@pytest.mark.parametrize("f", [-1, True, 1.0, "1"])
def test_an_f_that_is_not_a_non_negative_integer_is_an_error_row(f):
    # range(f) is empty for a negative f, which would run as f = 0
    message = f"f: expected a non-negative integer, got {f!r}"
    with pytest.raises(ExperimentError, match=f"^{re.escape(message)}$"):
        build_config({**BASE, "f": f, "seed": 0})
    row = run_cell({**BASE, "f": f, "seed": 0})
    assert row["error"] == f"ExperimentError: {message}"


def test_cli_verify_fails_on_a_negative_f(tmp_path, capsys):
    doc = {"base": {"n": 4, "delta_cap": 2}, "sweeps": {"f": [-1, 0]}}
    path = write_spec(tmp_path / "neg.yaml", doc)
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 1
    assert "cell error: ExperimentError: f: expected a non-negative integer, got -1" in (
        capsys.readouterr().err
    )
    lines = (tmp_path / "out" / "metrics.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert ["error" in row for row in rows] == [True, False]
    assert rows[1]["f"] == 0


def test_corruption_dicts_normalised():
    cfg = build_config(
        {**BASE, "corruptions": [{"proc": 1, "strategy": "crash_leader", "time": 4}], "seed": 0}
    )
    assert cfg.corruptions == (Corruption(1, "crash_leader", 4),)


def test_corruption_without_proc_is_a_located_error_row():
    row = run_cell({"n": 4, "corruptions": [{"strategy": "silent"}], "seed": 0})
    assert row["error"] == "ValueError: corruptions[0]: missing 'proc'"


@pytest.mark.parametrize(
    "field, value, where",
    [
        ("gst", [1, 2], "gst"),
        ("n", "4", "n"),
        ("offsets", 5, "offsets"),
        ("offsets", ["two_cluster"], "offsets"),
        ("offsets", [0, "x", 1, 1], "offsets[1]"),
        ("sync_windows", [[1]], "sync_windows[0]"),
        ("corruptions", [[0, "silent", "1/0"]], "corruptions[0].time"),
        ("corruptions", [{"proc": "0", "strategy": "silent"}], "corruptions[0].proc"),
        ("drift_rates", [1, None], "drift_rates[1]"),
    ],
)
def test_unreadable_values_name_their_field(field, value, where):
    with pytest.raises(ValueError, match=rf"^{re.escape(where)}: "):
        coerce(field, value)


def analysis_bug(records):
    raise TypeError("analysis bug")


def run_traced(cell, path):
    """run_cell's row, with its trace written to a new file at ``path``."""
    with open(path, "w", encoding="utf-8") as out:
        return run_cell(cell, out)


def test_bug_in_a_cell_is_not_an_unsatisfiable_cell(monkeypatch):
    monkeypatch.setattr(harness, "analyze", analysis_bug)
    cell = {**BASE, "seed": 0}
    with pytest.raises(TypeError, match="analysis bug"):
        run_cell(cell)
    row = harness._worker(cell)
    assert row["error"].startswith("TypeError: analysis bug")


def test_protocol_error_mid_run_is_not_an_unsatisfiable_cell(monkeypatch):
    # a ValueError the protocol raises while the cell runs is a bug in the
    # program, not a cell that cannot be configured
    def forged(*args):
        raise ValueError("quorum certificate for view 1 needs 3 distinct signers, got 2")

    monkeypatch.setattr(simnet, "on_vote", forged)
    cell = {**BASE, "seed": 0}
    with pytest.raises(ValueError, match="needs 3 distinct signers"):
        run_cell(cell)
    row = harness._worker(cell)
    assert row["error"].startswith("ValueError: quorum certificate for view 1")


# -- garbage collection around a cell -------------------------------------------

GC_CELLS = [
    pytest.param({"n": 4, "seed": 0}, id="default"),
    pytest.param(
        {
            "n": 4,
            "delta_cap": 2,
            "corruptions": [{"proc": 0, "strategy": "silent"}],
            "sync_windows": [[0, 72], [792, 864], [1584, None]],
            "drift_epsilon": "1/1152",
            "stop": "horizon",
            "horizon": 1656,
            "seed": 0,
        },
        id="drift",
    ),
    *(
        pytest.param(
            {
                "n": 7,
                "corruptions": [{"proc": 0, "strategy": strategy}],
                "network": "uniform_random",
                "offsets": "adversarial_spread",
                "seed": 0,
            },
            id=strategy,
        )
        for strategy in BYZANTINE_STRATEGIES
    ),
    pytest.param({"n": 4, "t": 2, "seed": 0}, id="error_row"),
]


@pytest.mark.parametrize("cell", GC_CELLS)
def test_a_cell_leaves_no_cyclic_garbage(cell, tmp_path):
    # The cyclic collector is off while a cell runs, so any cycle a cell
    # left behind would pile up until some later collection.
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        trace = tmp_path / "t.jsonl"
        row = run_traced(cell, trace)
        replayed = replay_file(trace) if trace.stat().st_size else []
        unreachable = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert replayed == ([] if "error" in row else [row])
    assert unreachable == 0


@pytest.fixture(params=[True, False], ids=["gc_enabled", "gc_disabled"])
def callers_gc(request):
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_cells_leave_the_callers_gc_setting(callers_gc, tmp_path, monkeypatch):
    trace = tmp_path / "t.jsonl"
    row = run_traced({**BASE, "seed": 0}, trace)
    assert "error" not in row and gc.isenabled() is callers_gc
    assert replay_file(trace) == [row] and gc.isenabled() is callers_gc

    assert "error" in run_cell({**BASE, "t": 2, "seed": 0})
    assert gc.isenabled() is callers_gc
    malformed = tmp_path / "malformed.jsonl"
    malformed.write_text(trace.read_text().replace('"gamma":', '"gammo":', 1))
    with pytest.raises(TraceAnalysisError, match="header is missing or malformed"):
        replay_file(malformed)
    assert gc.isenabled() is callers_gc

    monkeypatch.setattr(harness, "analyze", analysis_bug)
    with pytest.raises(TypeError, match="analysis bug"):
        run_cell({**BASE, "seed": 0})
    assert gc.isenabled() is callers_gc
    with pytest.raises(TypeError, match="analysis bug"):
        replay_file(trace)
    assert gc.isenabled() is callers_gc


def test_run_cell_frees_the_simulation_before_analyzing(monkeypatch, tmp_path):
    sims = []  # a weak reference to each Simulation the cell builds

    class Watched(Simulation):
        def __init__(self, config):
            super().__init__(config)
            sims.append(weakref.ref(self))

    alive = []  # whether each was alive when analyze was called

    def watching(records):
        alive.extend(ref() is not None for ref in sims)
        return analyze(records)

    monkeypatch.setattr(harness, "Simulation", Watched)
    monkeypatch.setattr(harness, "analyze", watching)
    row = run_traced({**BASE, "seed": 0}, tmp_path / "t.jsonl")
    assert alive == [False]
    monkeypatch.undo()
    assert row == run_cell({**BASE, "seed": 0})


# about 10 000 records: n=10 at delta = delta_cap/100, to a horizon of 9
MEMORY_CELL = {
    "n": 10,
    "delta_cap": 2,
    "delta_actual": "1/50",
    "gst": 0,
    "network": "fixed_delta",
    "stop": "horizon",
    "horizon": 9,
    "seed": 0,
}


@pytest.mark.parametrize("traced", [True, False], ids=["trace_written", "no_trace"])
def test_a_cells_peak_memory_is_its_simulations(traced, tmp_path):
    # the analysis grows only into what the freed simulation and the records
    # already scanned give back (tracemalloc counts Python's allocations)
    traces = open(tmp_path / "t.jsonl", "w", encoding="utf-8") if traced else nullcontext()
    with traces as out:
        run_cell(MEMORY_CELL, out)  # first-call caches, outside the count
        config = build_config(MEMORY_CELL)
        tracemalloc.start()
        try:
            records = Simulation(config).run()
            _, sim_peak = tracemalloc.get_traced_memory()
            assert 9_000 < len(records) < 11_000
            del records
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            run_cell(MEMORY_CELL, out)
            _, cell_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert cell_peak - base <= 1.02 * sim_peak


def test_run_cell_leaves_the_list_run_returned_intact(monkeypatch):
    returned = []  # the list each run returned, and a copy of it

    class Kept(Simulation):
        def run(self):
            records = super().run()
            returned.append((records, list(records)))
            return records

    monkeypatch.setattr(harness, "Simulation", Kept)
    row = run_cell({**BASE, "seed": 0})
    (records, copy), = returned
    assert len(records) == len(copy) and all(a is b for a, b in zip(records, copy))
    monkeypatch.undo()
    assert row == run_cell({**BASE, "seed": 0})


def written_trace(cell):
    """The trace run_cell writes for ``cell``: the run's records, with its
    config digest in the header."""
    config = build_config(cell)
    head, *rest = Simulation(config).run()
    return to_jsonl([{**head, "digest": config_hash(config)}, *rest])


def test_a_cell_whose_analysis_raises_leaves_its_trace(monkeypatch, tmp_path):
    cell = {**BASE, "seed": 0}
    want = written_trace(cell)
    monkeypatch.setattr(harness, "analyze", analysis_bug)
    trace = tmp_path / "t.jsonl"
    with pytest.raises(TypeError, match="analysis bug"):
        run_traced(cell, trace)
    assert trace.read_text(encoding="utf-8") == want


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_cell_whose_analysis_raises_keeps_its_place_in_the_file(monkeypatch, tmp_path, jobs):
    # the second of three cells is an error row, and its trace sits between
    # the other two; the pool's workers are forked, so they see the patch
    spec = ExperimentSpec(base=BASE, seeds=3, traces_dir=str(tmp_path / "traces"))

    def analysis_bug_at_seed_1(records):
        metrics = analyze(records)
        if metrics.run.seed == 1:
            raise TypeError("analysis bug")
        return metrics

    monkeypatch.setattr(harness, "analyze", analysis_bug_at_seed_1)
    rows = run_experiment(spec, jobs=jobs)["rows"]
    assert ["error" in row for row in rows] == [False, True, False]
    assert rows[1]["error"] == "TypeError: analysis bug"
    text = (tmp_path / "traces" / "traces.jsonl").read_text(encoding="utf-8")
    assert text == "".join(written_trace(cell) for cell in spec.cells())


def test_library_calls_leave_gc_alone(callers_gc):
    records = Simulation(build_config({**BASE, "seed": 0})).run()
    assert gc.isenabled() is callers_gc
    analyze(parse_jsonl(to_jsonl(records)))
    assert gc.isenabled() is callers_gc


# -- config hashing -------------------------------------------------------------


def test_config_hash_stable_and_sensitive():
    a = config_hash(build_config({**BASE, "seed": 0}))
    assert a == config_hash(build_config({**BASE, "seed": 0}))
    assert a != config_hash(build_config({**BASE, "seed": 1}))
    assert a != config_hash(build_config({**BASE, "gst": 7, "seed": 0}))


def test_every_spelling_of_drift_rates_gives_one_digest_and_one_row():
    # coerce keeps drift_rates as written, so config_hash meets each spelling
    cell = {"n": 4, "seed": 0, "stop": "horizon", "horizon": 10}
    spellings = [(Fraction(1, 2), 1, 1, 1), ["1/2", 1, 1, 1], [Fraction(1, 2), 1, 1, 1]]
    rows = [run_cell({**cell, "drift_rates": rates}) for rates in spellings]
    assert rows[0]["config"] == "a925ef62ec717b64"
    assert rows[1] == rows[0] == rows[2]


# -- cell execution -------------------------------------------------------------


def test_run_cell_flat_record():
    row = run_cell({**BASE, "f": 0, "seed": 0})
    assert row["n"] == 4 and row["t"] == 1 and row["f"] == 0
    assert row["violations_count"] == 0
    assert set(row) >= {
        "config", "seed", "n", "t", "f", "f_star", "gst", "delta",
        "t_star", "latency", "words", "violations_count",
    }


def test_unsatisfiable_cell_reported_not_raised():
    row = run_cell({**BASE, "f": 3, "seed": 0})
    assert "error" in row and "cell" in row


def test_batch_continues_past_bad_cells(tmp_path):
    spec = ExperimentSpec(base=BASE, sweeps={"f": [0, 3]}, seeds=2)
    out = run_experiment(
        spec,
        metrics_path=tmp_path / "m.jsonl",
        summary_path=tmp_path / "s.csv",
    )
    assert out["summary"]["cells"] == 4
    assert out["summary"]["errors"] == 2
    assert out["summary"]["violations_total"] == 0
    lines = (tmp_path / "m.jsonl").read_text().splitlines()
    assert len(lines) == 4
    table = (tmp_path / "s.csv").read_text().splitlines()
    assert table[0].startswith("n,f,cells")
    assert len(table) == 2  # only the satisfiable (n, f) cell


def test_importing_the_harness_leaves_pool_and_logging_modules_out():
    # a serial run's set-up pays for neither: the pool's module is imported
    # where a pool is built, and nothing logs
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    check = (
        "import sys, viewsync.harness; "
        "print(sorted({'multiprocessing', 'logging'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", check],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_parallel_batch_matches_serial(tmp_path):
    spec = ExperimentSpec(base=BASE, sweeps={"f": [0, 1]}, seeds=2)
    serial = run_experiment(spec)["rows"]
    parallel = run_experiment(spec, jobs=3)["rows"]
    assert serial == parallel


@pytest.mark.parametrize("cells,jobs,workers", [(4, 3, 3), (2, 8, 2), (100, 2, 2), (1, 8, None), (4, 1, None)])
def test_the_pool_has_no_more_workers_than_cells(monkeypatch, cells, jobs, workers):
    sizes = []

    class RecordingPool:
        """Records the size it is asked for and maps in this process."""

        def __init__(self, processes):
            sizes.append(processes)
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, work, chunksize):
            # the chunk size Pool.map would pick, at most _POOL_CHUNK cells
            assert chunksize == min(-(-len(work) // (self.processes * 4)), harness._POOL_CHUNK)
            return map(fn, work)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    spec = ExperimentSpec(base=BASE, seeds=cells)
    rows = run_experiment(spec, jobs=jobs)["rows"]
    assert sizes == ([] if workers is None else [workers])
    assert len(rows) == cells and not any("error" in row for row in rows)


# -- replay ----------------------------------------------------------------------


def test_replay_rows_match_live_rows(tmp_path):
    spec = ExperimentSpec(
        base={**BASE, "network": "uniform_random"},
        sweeps={"f": [0, 1]},
        seeds=2,
        traces_dir=str(tmp_path / "traces"),
    )
    live = run_experiment(spec)["rows"]
    replayed = run_experiment(
        ExperimentSpec(mode="replay", traces_dir=str(tmp_path / "traces"))
    )["rows"]
    assert len(live) == 4 and not any("error" in row for row in live)
    assert replayed == live  # in cell order


def test_a_pass_writes_one_trace_file_whose_bytes_do_not_depend_on_jobs(tmp_path):
    spec = ExperimentSpec(base=BASE, sweeps={"f": [0, 1], "gst": [0, 6]}, seeds=2)
    texts = []
    for jobs in (1, 2):
        traces = tmp_path / f"jobs{jobs}"
        run_experiment(replace(spec, traces_dir=str(traces)), jobs=jobs)
        assert [p.name for p in traces.iterdir()] == ["traces.jsonl"]
        texts.append((traces / "traces.jsonl").read_bytes())
    assert texts[0] == texts[1]
    assert texts[0].decode() == "".join(written_trace(cell) for cell in spec.cells())


@pytest.mark.parametrize(
    "name",
    [
        "my-run-2.jsonl",
        "trace-final.jsonl",
        "trace-0123456789abcdef.jsonl",
        "trace-0123456789ABCDEF-s0.jsonl",
        "trace-0123456789abcdef-s0.json",
        "xtrace-0123456789abcdef-s0.jsonl",
    ],
)
def test_a_renamed_trace_replays_without_a_config(tmp_path, name):
    # a row's config is the digest its trace's header names, and no file
    # name is read: a renamed trace keeps its digest, and a trace whose
    # header names none replays with a null config, whatever it is named
    cell = {**BASE, "seed": 0}
    trace = tmp_path / "t.jsonl"
    row = run_traced(cell, trace)
    assert row["config"] == config_hash(build_config(cell))
    renamed = trace.rename(tmp_path / name)
    assert replay_file(renamed) == [row]
    head, *rest = read_trace(renamed)
    del head["digest"]
    renamed.write_text(to_jsonl([head, *rest]), encoding="utf-8")
    assert replay_file(renamed) == [{**row, "config": None}]


@pytest.mark.parametrize(
    "digest",
    ["0123456789ABCDEF", "0123456789abcde", "0123456789abcdef0", "", 12, ["0123456789abcdef"]],
)
def test_a_malformed_digest_is_located_at_the_header(tmp_path, capsys, digest):
    trace = tmp_path / "t.jsonl"
    run_traced({**BASE, "seed": 0}, trace)
    head, *rest = read_trace(trace)
    trace.write_text(to_jsonl([{**head, "digest": digest}, *rest]), encoding="utf-8")
    message = f"header record at seq 0: field 'digest' is malformed: {digest!r}"
    with pytest.raises(TraceAnalysisError, match=f"^{re.escape(message)}$"):
        replay_file(trace)
    assert main(["replay", str(trace)]) == 2
    assert capsys.readouterr().err == f"malformed trace: {message}\n"


def test_replay_mode_requires_traces():
    with pytest.raises(ExperimentError, match="traces_dir"):
        run_experiment(ExperimentSpec(mode="replay"))


def test_replay_mode_refuses_a_missing_directory(tmp_path):
    missing = tmp_path / "no_such_dir"
    with pytest.raises(ExperimentError, match=re.escape(f"no directory {str(missing)!r}")):
        run_experiment(ExperimentSpec(mode="replay", traces_dir=str(missing)))
    assert not missing.exists()
    measured = tmp_path / "made"
    run_experiment(ExperimentSpec(base=BASE, traces_dir=str(measured / "traces")))
    assert len(list((measured / "traces").glob("*.jsonl"))) == 1


# -- spec files and delta units ---------------------------------------------------


def write_spec(path, doc):
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def test_load_spec_delta_units(tmp_path):
    doc = {
        "delta_units": True,
        "base": {"n": 4, "delta_cap": 2, "gst": 3, "offsets": "all_zero"},
        "sweeps": {"gst": [0, 1.5]},
        "seeds": 2,
        "base_seed": 5,
    }
    spec, want_traces = load_spec(write_spec(tmp_path / "s.yaml", doc))
    assert not want_traces
    assert spec.base["gst"] == 6  # 3 * delta_cap
    assert spec.sweeps["gst"] == [0, 3]
    assert spec.seeds == 2 and spec.base_seed == 5


def test_delta_units_refuses_swept_delta_cap(tmp_path):
    # every other time is read in units of the base delta_cap, which a swept
    # delta_cap would silently contradict
    doc = {"delta_units": True, "base": {"n": 4, "gst": 3}, "sweeps": {"delta_cap": [1, 2]}}
    with pytest.raises(ExperimentError, match="delta_cap"):
        load_spec(write_spec(tmp_path / "s.yaml", doc))


def test_load_spec_rejects_unknown_keys(tmp_path):
    with pytest.raises(ExperimentError, match="unknown spec keys"):
        load_spec(write_spec(tmp_path / "s.yaml", {"base": {"n": 4}, "plots": True}))


def test_load_spec_horizon_override_in_file_units(tmp_path):
    doc = {"delta_units": True, "base": {"n": 4, "delta_cap": 2}}
    spec, _ = load_spec(write_spec(tmp_path / "s.yaml", doc), horizon=9)
    assert spec.base["horizon"] == 18
    assert spec.base["stop"] == "horizon"


# -- command-line verbs ------------------------------------------------------------


@pytest.fixture()
def spec_file(tmp_path):
    doc = {
        "base": {
            "n": 4,
            "delta_cap": 2,
            "gst": 6,
            "offsets": "all_zero",
            "network": "worst_case_max_delay",
        },
        "sweeps": {"f": [0, 1]},
        "seeds": 1,
        "traces": True,
    }
    return write_spec(tmp_path / "spec.yaml", doc)


def test_cli_sweep_writes_outputs(spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", spec_file, "--out", str(out)]) == 0
    assert (out / "metrics.jsonl").exists()
    assert (out / "summary.csv").exists()
    assert (out / "summary.json").exists()
    assert list((out / "traces").glob("*.jsonl"))
    assert "violations: 0" in capsys.readouterr().out


def test_cli_run_ignores_sweeps(spec_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", spec_file, "--out", str(out), "--seed", "9"]) == 0
    rows = [
        json.loads(line)
        for line in (out / "metrics.jsonl").read_text().splitlines()
    ]
    assert len(rows) == 1
    assert rows[0]["f"] == 0 and rows[0]["seed"] == 9


def test_cli_verify_passes_on_clean_spec(spec_file, tmp_path):
    assert main(["verify", spec_file, "--out", str(tmp_path / "out")]) == 0


def test_cli_verify_fails_on_cell_errors(tmp_path):
    doc = {"base": {"n": 4, "delta_cap": 2}, "sweeps": {"f": [0, 2]}}
    path = write_spec(tmp_path / "bad.yaml", doc)
    assert main(["verify", path, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("jobs", ["0", "-2", "two"])
def test_cli_refuses_jobs_below_one(spec_file, tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", spec_file, "--jobs", jobs, "--out", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert f"--jobs: expected a positive integer, got '{jobs}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_bad_spec_file(tmp_path, capsys):
    path = tmp_path / "nope.yaml"
    path.write_text("base: {n: 4, latency: 2}\n", encoding="utf-8")
    assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "bad spec" in capsys.readouterr().err


def test_cli_refuses_a_mode_in_the_spec(tmp_path, capsys):
    # the verb sets the mode, so a spec's own would be ignored
    path = write_spec(tmp_path / "s.yaml", {"base": {"n": 4, "delta_cap": 2}, "mode": "replay"})
    assert main(["sweep", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad spec: " in err and "unknown spec keys ['mode']" in err


def test_cli_rejects_unreadable_time_in_delta_units(tmp_path, capsys):
    doc = {"delta_units": True, "base": {"n": 4, "delta_cap": 2, "gst": [1, 2]}}
    path = write_spec(tmp_path / "bad.yaml", doc)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert "bad spec: gst: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra,key",
    [
        ({"sweeps": {"gst": 3}}, "sweeps.gst: expected a list"),
        ({"sweeps": [{"gst": [0, 3]}]}, "sweeps: expected a mapping"),
        ({"base": [4]}, "base: expected a mapping"),
        ({"seeds": "many"}, "seeds: expected an integer"),
        ({"seeds": 2.5}, "seeds: expected an integer"),
        ({"base_seed": [1]}, "base_seed: expected an integer"),
        ({"max_cells": None}, "max_cells: expected an integer"),
    ],
)
def test_cli_rejects_malformed_spec_values(tmp_path, capsys, extra, key):
    doc = {"base": {"n": 4, "delta_cap": 2}, **extra}
    path = write_spec(tmp_path / "bad.yaml", doc)
    assert main(["sweep", path, "--out", str(tmp_path / "out")]) == 2
    assert f"bad spec: {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra,message",
    [
        ({"seeds": 0}, "seeds must be >= 1"),
        ({"max_cells": 0}, "max_cells must be >= 1"),
        ({"max_cells": -1}, "max_cells must be >= 1"),
    ],
)
def test_cli_refuses_a_count_below_one(tmp_path, capsys, extra, message):
    # a cap of 0 used to read "sweep expands to 1 cells, over the cap of 0"
    doc = {"base": {"n": 4, "delta_cap": 2}, **extra}
    path = write_spec(tmp_path / "bad.yaml", doc)
    assert main(["sweep", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"bad spec: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_cap_of_one_cell_is_a_cap():
    assert ExperimentSpec(base=BASE, max_cells=1).cell_count() == 1
    with pytest.raises(ExperimentError, match="^sweep expands to 2 cells, over the cap of 1$"):
        ExperimentSpec(base=BASE, seeds=2, max_cells=1)


@pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
def test_the_delta_units_flag_is_a_yaml_boolean(tmp_path, capsys, value):
    # a truthy string or int used to scale every time: "false" read gst 3 as 6
    doc = {"delta_units": value, "base": {"n": 4, "delta_cap": 2, "gst": 3}}
    path = write_spec(tmp_path / "s.yaml", doc)
    message = f"delta_units: expected true or false, got {value!r}"
    with pytest.raises(ExperimentError, match=f"^{re.escape(message)}$"):
        load_spec(path)
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"bad spec: {message}\n"
    for flag, gst in ((False, 3), (True, 6)):
        spec, _ = load_spec(write_spec(tmp_path / "s.yaml", {**doc, "delta_units": flag}))
        assert spec.base["gst"] == gst


@pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
def test_the_traces_flag_is_a_yaml_boolean(tmp_path, capsys, value):
    # a truthy string or int used to write traces: "no" wrote them
    doc = {"traces": value, "base": {"n": 4, "delta_cap": 2}}
    path = write_spec(tmp_path / "s.yaml", doc)
    message = f"traces: expected true or false, got {value!r}"
    with pytest.raises(ExperimentError, match=f"^{re.escape(message)}$"):
        load_spec(path)
    out = tmp_path / "out"
    assert main(["sweep", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"bad spec: {message}\n"
    assert not out.exists()
    # YAML 1.1's unquoted no and yes are booleans
    for text, want in (("no", False), ("yes", True)):
        (tmp_path / "s.yaml").write_text(f"base: {{n: 4}}\ntraces: {text}\n", encoding="utf-8")
        assert load_spec(path)[1] is want


def sweep_traces(spec_file, tmp_path):
    """The spec's sweep, under ``tmp_path / "out"``, and each trace it wrote
    in a file of its own, in cell order."""
    out = tmp_path / "out"
    main(["sweep", spec_file, "--out", str(out)])
    paths = []
    with closing(iter_traces(out / "traces" / "traces.jsonl")) as traces:
        for i, records in enumerate(traces):
            paths.append(tmp_path / f"trace-{i}.jsonl")
            paths[-1].write_text(to_jsonl(records), encoding="utf-8")
    return paths


def test_cli_replay_roundtrip(spec_file, tmp_path, capsys):
    trace = sweep_traces(spec_file, tmp_path)[0]
    first = (tmp_path / "out" / "metrics.jsonl").read_text().splitlines()[0]
    capsys.readouterr()
    assert main(["replay", str(trace)]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(first)


def test_cli_replay_of_several_traces(spec_file, tmp_path, capsys):
    # one compact row per line, as metrics.jsonl holds them, in the order
    # the traces are given; --out writes the same lines. Several counts
    # traces: the sweep's one file holds two
    traces = sweep_traces(spec_file, tmp_path)
    assert len(traces) == 2
    measured = (tmp_path / "out" / "metrics.jsonl").read_text(encoding="utf-8")
    capsys.readouterr()
    replayed = tmp_path / "replayed.jsonl"
    whole = tmp_path / "out" / "traces" / "traces.jsonl"
    assert main(["replay", str(whole), "--out", str(replayed)]) == 0
    assert capsys.readouterr().out == measured == replayed.read_text(encoding="utf-8")
    assert main(["replay", *map(str, reversed(traces)), "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    assert printed.splitlines() == measured.splitlines()[::-1]
    assert (tmp_path / "replay.jsonl").read_text(encoding="utf-8") == printed


def test_cli_replay_of_several_traces_stops_at_the_first_bad_one(spec_file, tmp_path, capsys):
    good = str(sweep_traces(spec_file, tmp_path)[0])
    clipped = tmp_path / "clipped.jsonl"
    clipped.write_text("".join(Path(good).read_text().splitlines(True)[:5]), encoding="utf-8")
    missing = str(tmp_path / "missing.jsonl")
    capsys.readouterr()
    assert main(["replay", good, str(clipped), missing]) == 2
    err = capsys.readouterr().err
    assert err == f"malformed trace: {clipped}: line 5: trace truncated: no end record\n"
    assert main(["replay", good, missing, str(clipped)]) == 2
    assert capsys.readouterr().err.startswith(f"cannot read trace: {missing}: [Errno 2] No such")


def test_cli_replay_of_several_traces_exits_1_if_any_holds_a_violation(spec_file, tmp_path, capsys):
    bad = edited_trace(spec_file, tmp_path, backward_clock)
    good = tmp_path / "trace-0.jsonl"
    capsys.readouterr()
    assert main(["replay", str(good), bad]) == 1
    first, second = map(json.loads, capsys.readouterr().out.splitlines())
    assert first["violations_count"] == 0 < second["violations_count"]


def test_cli_replay_out_that_cannot_be_written_exits_2(spec_file, tmp_path, capsys):
    traces = [str(t) for t in sweep_traces(spec_file, tmp_path)]
    target = tmp_path / "missing" / "dir" / "x.json"
    for given in (traces[:1], traces):
        capsys.readouterr()
        assert main(["replay", *given, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("cannot write: [Errno 2] No such file or directory")
        assert str(target) in captured.err
        assert captured.out == ""
    assert not (tmp_path / "missing").exists()


def test_cli_replay_reports_parse_error_line(spec_file, tmp_path, capsys):
    trace = sweep_traces(spec_file, tmp_path)[0]
    text = trace.read_text().splitlines()
    clipped = tmp_path / "clipped.jsonl"
    clipped.write_text("\n".join(text[:5]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(clipped)]) == 2
    assert "line" in capsys.readouterr().err


def edited_trace(spec_file, tmp_path, edit):
    """The trace of the spec's last cell (f = 1), its records passed through edit."""
    recs = read_trace(sweep_traces(spec_file, tmp_path)[-1])
    edit(recs)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(to_jsonl(recs), encoding="utf-8")
    return str(bad)


def test_cli_replay_reports_malformed_header(spec_file, tmp_path, capsys):
    bad = edited_trace(spec_file, tmp_path, lambda recs: recs[0]["config"].pop("gamma"))
    capsys.readouterr()
    assert main(["replay", bad]) == 2
    assert "malformed trace: header is missing or malformed" in capsys.readouterr().err


@pytest.mark.parametrize("config", ["1/2", 1.5, 3, []])
def test_cli_replay_reports_a_config_that_is_not_an_object(tmp_path, capsys, config):
    records = Simulation(SimConfig(n=4, stop="horizon", horizon=10)).run()
    records[0] = {**records[0], "config": config}
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    capsys.readouterr()
    assert main(["replay", str(bad)]) == 2
    message = f"header is missing or malformed: config must be an object, got {config!r}"
    assert capsys.readouterr().err == f"malformed trace: {message}\n"


@pytest.mark.parametrize("kind,name", [("deliver", "proc_clock"), ("end", "time")])
def test_cli_replay_refuses_a_rational_tick(spec_file, tmp_path, capsys, kind, name):
    # the v3 spelling of a time between two ticks, which v5 has no form for
    where = []

    def edit(recs):
        seq, rec = next((i, r) for i, r in enumerate(recs) if r["kind"] == kind)
        rec[name] = f"{2 * rec[name] + 1}/2"
        where.append(f"malformed time {rec[name]!r} at seq {seq}")

    bad = edited_trace(spec_file, tmp_path, edit)
    capsys.readouterr()
    assert main(["replay", bad]) == 2
    assert f"malformed trace: {where[0]}" in capsys.readouterr().err


# Each takes the trace and the index of its first deliver record, and
# unjoins that record from its send; a record's seq is its index.


def point_at_header(recs, at):
    recs[at]["back"] = at
    return f"field 'back' names no earlier send record: {at}"


def point_at_a_later_send(recs, at):
    later = next(i for i in range(at + 1, len(recs)) if recs[i]["kind"] == "send")
    recs[at]["back"] = at - later
    return f"field 'back' names no earlier send record: {at - later}"


def drop_the_recipient(recs, at):
    # another processor takes its place: a send must list at least one
    deliver = recs[at]
    src = at - deliver["back"]
    send = recs[src]
    i = send["recipients"].index(deliver["recipient"])
    n = recs[0]["config"]["n"]
    send["recipients"][i] = next(q for q in range(n) if q not in send["recipients"])
    return f"send record at seq {src} does not list recipient {deliver['recipient']}"


def deliver_twice(recs, at):
    # a copy goes in first, so the record itself, one further on, is the
    # repeat, and so is every later deliver whose send stays before it
    deliver = recs[at]
    src = at - deliver["back"]
    first = dict(deliver)
    for seq, r in enumerate(recs[at:], at):
        if r["kind"] == "deliver" and seq - r["back"] < at:
            r["back"] += 1
    recs.insert(at, first)
    return f"send record at seq {src} was already delivered to recipient {deliver['recipient']}"


@pytest.mark.parametrize(
    "unjoin",
    [
        point_at_header,
        point_at_a_later_send,
        drop_the_recipient,
        deliver_twice,
    ],
)
def test_cli_replay_locates_a_deliver_without_its_send(spec_file, tmp_path, capsys, unjoin):
    where = []

    def edit(recs):
        at = next(i for i, r in enumerate(recs) if r["kind"] == "deliver")
        deliver = recs[at]
        reason = unjoin(recs, at)
        seq = next(i for i, r in enumerate(recs) if r is deliver)
        where.append(f"deliver record at seq {seq}: {reason}")

    bad = edited_trace(spec_file, tmp_path, edit)
    capsys.readouterr()
    assert main(["replay", bad]) == 2
    assert f"malformed trace: {where[0]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,edit,message",
    [
        ("deliver", lambda r: r.pop("proc_clock"), "field 'proc_clock' is missing"),
        ("send", lambda r: r.update(payload="vote"), "field 'payload' is not an object"),
        ("send", lambda r: r.pop("sender"), "field 'sender' is missing"),
    ],
)
def test_cli_replay_locates_a_malformed_record(spec_file, tmp_path, capsys, kind, edit, message):
    seqs = []

    def break_first(recs):
        seq, rec = next((i, r) for i, r in enumerate(recs) if r["kind"] == kind)
        seqs.append(seq)
        edit(rec)

    bad = edited_trace(spec_file, tmp_path, break_first)
    capsys.readouterr()
    assert main(["replay", bad]) == 2
    err = capsys.readouterr().err
    assert f"malformed trace: {kind} record at seq {seqs[0]}: {message}" in err


@pytest.mark.parametrize(
    "kind,index,edit,message",
    [
        ("end", -1, lambda r: r.pop("time"), "field 'time' is missing"),
        ("deliver", -1, lambda r: r.update(proc_view=1.5), "field 'proc_view' is malformed: 1.5"),
    ],
)
def test_cli_replay_locates_a_value_that_passes_the_scan(
    tmp_path, capsys, kind, index, edit, message
):
    # the end record is the last the scan reads, and the view is the last
    # deliver's: the scan locates each at its record
    trace = tmp_path / "t.jsonl"
    run_traced({**BASE, "f": 0, "seed": 0}, trace)
    recs = read_trace(trace)
    seq, rec = [(i, r) for i, r in enumerate(recs) if r["kind"] == kind][index]
    edit(rec)
    trace.write_text(to_jsonl(recs), encoding="utf-8")
    assert main(["replay", str(trace)]) == 2
    err = capsys.readouterr().err
    assert f"malformed trace: {kind} record at seq {seq}: {message}" in err


# -- which fault a replay reports when a trace holds several --------------------


def dumped(recs):
    return [dumps_record(r) for r in recs]


def unjoin_first_deliver(recs):
    """Make the first deliver name the header as its send; return the
    located error that deliver is."""
    seq = next(i for i, r in enumerate(recs) if r["kind"] == "deliver")
    recs[seq]["back"] = seq
    return f"deliver record at seq {seq}: field 'back' names no earlier send record: {seq}"


def json_error_on_the_last_line(recs):
    message = unjoin_first_deliver(recs)
    lines = dumped(recs)
    lines[-1] = lines[-1][:-1]
    return lines, TraceAnalysisError, message


def truncated_after_an_analysis_fault(recs):
    message = unjoin_first_deliver(recs)
    lines = dumped(recs)[:-1]
    return lines, TraceAnalysisError, message


def bad_version_then_json_error(recs):
    recs[0]["version"] = 99
    lines = dumped(recs)
    lines[9] = "not json"
    return lines, TraceParseError, "line 1: unsupported trace version 99"


def analysis_fault_then_bad_end_time(recs):
    message = unjoin_first_deliver(recs)
    recs[-1]["time"] = "x"
    return dumped(recs), TraceAnalysisError, message


def field_the_scan_passes_then_one_it_fails_on(recs):
    sends = [i for i, r in enumerate(recs) if r["kind"] == "send"]
    first = next(i for i, r in enumerate(recs) if r["kind"] == "corrupt")
    recs[first]["strategy"] = 0.0  # not the header's strategy
    recs[sends[-1]].pop("sender")
    message = (
        f"corrupt record at seq {first}: field 'strategy' is malformed: 0.0, "
        "where the header has 'silent'"
    )
    return dumped(recs), TraceAnalysisError, message


@pytest.mark.parametrize(
    "plant",
    [
        json_error_on_the_last_line,
        truncated_after_an_analysis_fault,
        bad_version_then_json_error,
        analysis_fault_then_bad_end_time,
        field_the_scan_passes_then_one_it_fails_on,
    ],
)
def test_replay_reports_the_first_fault_in_file_order(tmp_path, capsys, plant):
    # A parse error and an analysis error rank alike: the one on the earlier
    # line is reported, and the file is read once.
    trace = tmp_path / "t.jsonl"
    run_traced({**BASE, "f": 1, "seed": 0}, trace)
    lines, error, message = plant(read_trace(trace))
    trace.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(error) as info:
        replay_file(trace)
    assert str(info.value).startswith(message)
    capsys.readouterr()
    assert main(["replay", str(trace)]) == 2
    assert capsys.readouterr().err == f"malformed trace: {info.value}\n"


def test_cli_replay_names_the_line_of_undecodable_bytes(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    run_traced({**BASE, "seed": 0}, trace)
    lines = trace.read_bytes().splitlines(keepends=True)
    lines[6] = lines[6][:2] + b"\xff" + lines[6][2:]  # inside its kind tag
    trace.write_bytes(b"".join(lines))
    with pytest.raises(TraceParseError, match="^line 7: not UTF-8: "):
        replay_file(trace)
    assert main(["replay", str(trace)]) == 2
    assert capsys.readouterr().err.startswith("malformed trace: line 7: not UTF-8: ")


def test_cli_replay_of_an_unreadable_path_exits_2(tmp_path, capsys):
    assert main(["replay", str(tmp_path)]) == 2  # a directory
    assert capsys.readouterr().err.startswith("cannot read trace: [Errno 21] Is a directory")
    assert main(["replay", str(tmp_path / "missing.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("cannot read trace: [Errno 2] No such file")


def test_analyzer_bug_propagates_from_analyze(monkeypatch):
    records = Simulation(build_config({**BASE, "seed": 0})).run()

    def broken(self, *args):
        raise KeyError("analysis bug")

    monkeypatch.setattr(metrics._Analyzer, "check_bounds", broken)
    with pytest.raises(KeyError, match="analysis bug"):
        analyze(records)


def backward_clock(recs):
    corrupted = {c["proc"] for c in recs[0]["config"]["corruptions"]}
    for r in recs:
        if r["kind"] == "deliver" and r["recipient"] not in corrupted:
            r["proc_clock"] = -5 * recs[0]["grid"]
            break


def test_cli_replay_flags_violations(spec_file, tmp_path, capsys):
    bad = edited_trace(spec_file, tmp_path, backward_clock)
    capsys.readouterr()
    assert main(["replay", bad]) == 1
    row = json.loads(capsys.readouterr().out)
    assert row["violations_count"] >= 1
    assert row["violations"][0][0] == "clock_monotonicity"

"""Two SHA-256 digests per benchmark workload over every byte a run of it writes.

For each workload of perfbench/workloads.py at a seed, ``traces`` digests the
name and bytes of every trace file the measure pass writes (one,
``traces.jsonl``, which holds every cell's trace in cell order), and
``outputs`` digests, in this order, the measure rows and the replay rows as
``run_experiment`` writes them (JSON lines), and the measure pass's summary,
as its CSV table and as its JSON. Beside them, ``trace_bytes`` counts the
bytes of those trace files, so that a change of the traces' size shows in
the stored file's diff. Two source trees that give the same digests write
the same traces, rows and summaries for every cell of the workloads; a
change to the trace format alone changes only the ``traces`` digests (and
the byte count, if it changes the size). The
replay rows must be the measure rows, byte for byte: where they are not, the
tool names the seed and workload and exits 1, with or without ``--check``.
Cells run serially, in this process.

Usage:
    python tools/identity.py [--seed S ...]
        print {"S": {workload: {"outputs": digest, "trace_bytes": count,
        "traces": digest}}} as JSON (seed 0 if none is given)
    python tools/identity.py --check tools/identity.json [--seed S ...]
        compare with the digests and counts stored there; exit 1, naming
        each part that differs (its seed, workload and part), if any does

Write the stored file from the tree whose bytes are the reference:
``python tools/identity.py --seed 0 --seed 104729 > tools/identity.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class ReplayDiffers(Exception):
    """A replay pass's rows are not its measure pass's, byte for byte."""


def digest(spec, work_dir) -> dict[str, str | int]:
    """The ``traces`` and ``outputs`` SHA-256 digests of what a measure and a
    replay pass of ``spec`` write, and the ``trace_bytes`` of its trace
    files, with the traces and rows kept under ``work_dir``; ReplayDiffers
    if the replay rows are not the measure rows."""
    from viewsync.harness import ExperimentSpec, run_experiment

    work = Path(work_dir)
    traces = work / "traces"
    measure = run_experiment(
        dataclasses.replace(spec, traces_dir=str(traces)),
        metrics_path=work / "measure.jsonl",
        summary_path=work / "summary.csv",
    )
    run_experiment(
        ExperimentSpec(mode="replay", traces_dir=str(traces)),
        metrics_path=work / "replay.jsonl",
    )
    if (work / "replay.jsonl").read_bytes() != (work / "measure.jsonl").read_bytes():
        raise ReplayDiffers("the replay rows differ from the measure rows")
    trace_sha = hashlib.sha256()
    trace_bytes = 0
    for path in sorted(traces.iterdir()):
        data = path.read_bytes()
        trace_sha.update(path.name.encode() + b"\n")
        trace_sha.update(data)
        trace_bytes += len(data)
    output_sha = hashlib.sha256()
    for name in ("measure.jsonl", "replay.jsonl", "summary.csv"):
        output_sha.update((work / name).read_bytes())
    output_sha.update(json.dumps(measure["summary"], sort_keys=True).encode())
    return {
        "outputs": output_sha.hexdigest(),
        "trace_bytes": trace_bytes,
        "traces": trace_sha.hexdigest(),
    }


def digests(seed: int) -> dict[str, dict[str, str | int]]:
    """Each benchmark workload's two digests and trace byte count at ``seed``."""
    import workloads

    out = {}
    for name, build in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            try:
                out[name] = digest(build(seed), tmp)
            except ReplayDiffers as exc:
                raise ReplayDiffers(f"seed {seed} {name}: {exc}") from None
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, action="append", help="base seed (repeatable)")
    parser.add_argument("--check", type=Path, help="stored digests to compare with")
    args = parser.parse_args(argv)
    try:
        found = {str(seed): digests(seed) for seed in args.seed or [0]}
    except ReplayDiffers as exc:
        print(exc, file=sys.stderr)
        return 1
    print(json.dumps(found, indent=2, sort_keys=True))
    if args.check is None:
        return 0
    stored = json.loads(args.check.read_text(encoding="utf-8"))
    differ = [
        f"seed {seed} {name} {part}"
        for seed, by_name in found.items()
        for name, parts in by_name.items()
        for part, value in parts.items()
        if stored.get(seed, {}).get(name, {}).get(part) != value
    ]
    for where in differ:
        print(f"differs from {args.check}: {where}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.exit(main(sys.argv[1:]))

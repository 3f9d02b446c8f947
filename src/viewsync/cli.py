"""Command-line surface.

Verbs:
  run <spec>      simulate the base config (sweeps ignored), write metrics
  sweep <spec>    run the full cartesian sweep from the spec file
  verify <spec>   like sweep, but exit 1 if any invariant violation or any
                  cell error turns up (CI gate)
  replay <trace>...
                  recompute metrics from stored traces, each streamed
                  through the analyzer: one trace's row as indented JSON,
                  several traces' rows one compact line each, in the order
                  given; exit 2 at the first file that cannot be read, on
                  parse errors (reported with line number, bytes that are
                  not UTF-8 included) or on an unusable header, time or
                  record field (reported with its record's seq), naming
                  the file if several were given, and if --out cannot be
                  written; 1 if any trace holds invariant violations. Each
                  file is read once, and the first fault in file order is
                  the one reported; a header record after seq 0, a record
                  after the end record, and an end record whose reason is
                  "horizon" away from the header's horizon are such faults,
                  each reported with its seq

Spec files are YAML (JSON works too). Setting ``delta_units: true`` makes the
time-valued fields (gst, delta_actual, horizon, offsets lists, sync window
bounds, corruption times) multiples of the base delta_cap; delta_cap itself
is always absolute, and such a spec may not sweep it. Spec values are read by
``simnet.coerce``, the same reading every config gets. Outputs land under
--out: metrics.jsonl, summary.csv, summary.json, and traces/*.jsonl when the
spec sets ``traces: true``. Both flags must be YAML booleans (a string such
as ``"false"`` is a bad spec, exit 2), and ``seeds``, ``base_seed`` and
``max_cells`` integers.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import yaml

from .harness import (
    ExperimentError,
    ExperimentSpec,
    check_shape,
    replay_cell,
    run_experiment,
)
from .metrics import TraceAnalysisError
from .simnet import coerce
from .timeutil import to_frac
from .trace import TraceParseError

_SPEC_KEYS = {
    "base",
    "sweeps",
    "seeds",
    "base_seed",
    "max_cells",
    "traces",
    "delta_units",
}


def _apply_delta_units(base: dict, sweeps: dict) -> tuple[dict, dict]:
    if "delta_cap" in sweeps:
        raise ExperimentError(
            "delta_units: delta_cap is the unit the other times are read in, so it cannot be swept"
        )
    unit = coerce("delta_cap", base.get("delta_cap", 1))
    return (
        {field: coerce(field, value, unit) for field, value in base.items()},
        {field: [coerce(field, v, unit) for v in values] for field, values in sweeps.items()},
    )


def _typed(doc: dict, key: str, default, kind: type):
    """The spec's ``key``, or ``default``, which must be exactly a ``kind``:
    an int (not a bool) or a YAML boolean (not a string such as "false")."""
    value = doc.get(key, default)
    if type(value) is not kind:
        expected = "an integer" if kind is int else "true or false"
        raise ExperimentError(f"{key}: expected {expected}, got {value!r}")
    return value


def load_spec(path, *, seed=None, horizon=None, mode="measure", drop_sweeps=False):
    """Parse a spec file into an ExperimentSpec plus the traces flag."""
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ExperimentError(f"{path}: spec must be a mapping")
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise ExperimentError(f"{path}: unknown spec keys {sorted(unknown)}")
    base, sweeps = doc.get("base", {}), doc.get("sweeps", {})
    check_shape(base, sweeps)
    base, sweeps = dict(base), dict(sweeps)
    if horizon is not None:  # applied before unit scaling, so spec-file units
        base["horizon"] = horizon
        base.setdefault("stop", "horizon")
    if _typed(doc, "delta_units", False, bool):
        base, sweeps = _apply_delta_units(base, sweeps)
    spec = ExperimentSpec(
        base=base,
        sweeps={} if drop_sweeps else sweeps,
        seeds=_typed(doc, "seeds", 1, int),
        base_seed=_typed(doc, "base_seed", 0, int) if seed is None else seed,
        mode=mode,
        max_cells=_typed(doc, "max_cells", ExperimentSpec.max_cells, int),
    )
    return spec, _typed(doc, "traces", False, bool)


def _print_summary(summary: dict, rows: list) -> None:
    print(
        f"cells: {summary['cells']}  errors: {summary['errors']}  "
        f"violations: {summary['violations_total']}"
    )
    if summary["per_nf"]:
        header = f"{'n':>4} {'f':>3} {'cells':>6} {'mean_lat':>10} {'max_lat':>10} {'mean_words':>11} {'max_words':>10} {'viol':>5}"
        print(header)
        for row in summary["per_nf"]:
            lat_m = "-" if row["mean_latency"] is None else f"{row['mean_latency']:.2f}"
            lat_x = "-" if row["max_latency"] is None else f"{row['max_latency']:.2f}"
            print(
                f"{row['n']:>4} {row['f']:>3} {row['cells']:>6} {lat_m:>10} {lat_x:>10} "
                f"{row['mean_words']:>11.1f} {row['max_words']:>10} {row['violations']:>5}"
            )
    print(
        f"word rate: observed {summary['word_rate_observed']:.2f}, "
        f"frozen bound {summary['word_rate_frozen']} "
        f"(response steps frozen at {summary['response_steps_frozen']})"
    )
    for row in rows:
        if "error" in row:
            print(f"cell error: {row['error']}", file=sys.stderr)
        elif row["violations_count"]:
            for inv, seq, detail in row["violations"]:
                print(
                    f"violation in {row['config']} seed {row['seed']}: "
                    f"{inv} @ seq {seq} {detail}",
                    file=sys.stderr,
                )


def _run_batch(args, *, mode, drop_sweeps) -> int:
    try:
        spec, want_traces = load_spec(
            args.spec,
            seed=args.seed,
            horizon=args.horizon,
            mode=mode,
            drop_sweeps=drop_sweeps,
        )
    except (OSError, yaml.YAMLError, ExperimentError, ValueError) as exc:
        print(f"bad spec: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if want_traces:
        spec.traces_dir = str(out_dir / "traces")
    result = run_experiment(
        spec,
        metrics_path=out_dir / "metrics.jsonl",
        summary_path=out_dir / "summary.csv",
        jobs=args.jobs,
    )
    summary = result["summary"]
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _print_summary(summary, result["rows"])
    if mode == "verify" and (summary["violations_total"] or summary["errors"]):
        return 1
    return 0


def _cmd_run(args) -> int:
    return _run_batch(args, mode="measure", drop_sweeps=True)


def _cmd_sweep(args) -> int:
    return _run_batch(args, mode="measure", drop_sweeps=False)


def _cmd_verify(args) -> int:
    return _run_batch(args, mode="verify", drop_sweeps=False)


def _cmd_replay(args) -> int:
    several = len(args.trace) > 1
    rows = []
    for path in args.trace:
        named = f"{path}: " if several else ""
        try:
            rows.append(replay_cell(path))
        except OSError as exc:
            print(f"cannot read trace: {named}{exc}", file=sys.stderr)
            return 2
        except (TraceParseError, TraceAnalysisError) as exc:
            print(f"malformed trace: {named}{exc}", file=sys.stderr)
            return 2
    if several:  # as metrics.jsonl holds them
        text = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
    else:
        text = json.dumps(rows[0], indent=2, sort_keys=True)
    if args.out is not None:
        out = Path(args.out)
        if out.is_dir():
            out = out / ("replay.jsonl" if several else "replay.json")
        try:
            out.write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"cannot write: {exc}", file=sys.stderr)
            return 2
    print(text)
    return 1 if any(row["violations_count"] for row in rows) else 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="viewsync",
        description="Simulate and check the view-synchronisation protocol.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def batch_verb(name, help_text, func):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("spec", help="YAML experiment spec")
        p.add_argument("--seed", type=int, default=None, help="override base seed")
        p.add_argument("--jobs", type=_positive_int, default=1, help="parallel worker count")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument(
            "--horizon",
            type=to_frac,
            default=None,
            help="override horizon (same units as the spec file)",
        )
        p.set_defaults(func=func)

    batch_verb("run", "simulate the base config only", _cmd_run)
    batch_verb("sweep", "run the full parameter sweep", _cmd_sweep)
    batch_verb("verify", "sweep and gate on invariant violations", _cmd_verify)

    p = sub.add_parser("replay", help="recompute metrics from stored traces")
    p.add_argument("trace", nargs="+", help="ND-JSON trace file")
    p.add_argument("--out", default=None, help="write the rows here as well")
    p.set_defaults(func=_cmd_replay)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

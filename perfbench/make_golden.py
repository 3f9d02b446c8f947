#!/usr/bin/env python3
"""Regenerate the golden rows the benchmark checks at the default seed.

    python3 perfbench/make_golden.py [workload ...]

Stores, per cell, only what a user reads off a row: t_star, latency, words,
f_star and the violation list. Trace bytes are deliberately not stored, so a
change of trace format stays benchmarkable. Regenerate only when a change is
meant to alter those results, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main(names: list[str]) -> int:
    run.WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.SRC))
    from viewsync import harness

    for name in names or sorted(workloads.WORKLOADS):
        spec = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
        it = run.run_iteration(harness, spec, jobs2=False)
        rows = {run.golden_key(r): run.golden_view(r) for r in it.rows if "error" not in r}
        if len(rows) != len(it.rows) or any(v[4] for v in rows.values()):
            print(f"{name}: refusing to store error or violation rows", file=sys.stderr)
            return 1
        body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(rows.items()))
        with open(run.BENCH / "golden" / f"{name}.json", "w", encoding="utf-8") as fh:
            head = {"workload": name, "seed": workloads.DEFAULT_SEED}
            fh.write(json.dumps(head)[:-1] + f', "rows": {{\n{body}\n}}}}\n')
        print(f"{name}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

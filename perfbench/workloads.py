"""The benchmark's four workloads, each an ExperimentSpec built from a seed.

Each builder returns the same object a user's YAML spec becomes, so the
benchmark drives exactly the path `viewsync sweep` takes. The seed becomes
the spec's ``base_seed``; everything else is fixed here. The rationale for
each workload is in README.md next to this file.
"""

from __future__ import annotations

# Golden rows exist for this seed only; other seeds are checked without them.
DEFAULT_SEED = 0
# Never used while tuning the benchmark or a change; kept for later claims.
HELD_OUT_SEED = 104729

DELTA = 2
GAMMA = 3 * DELTA
K = 3
STRATEGIES = (
    "silent",
    "crash_leader",
    "selective_vc",
    "early_signer",
    "vote_stuffer",
    "late_qc_relayer",
)
# Cells per pass, for the workloads whose cells differ only by seed.
WIDE_CELLS = 16
DRIFT_CELLS = 8


def _spec(**kwargs):
    from viewsync.harness import ExperimentSpec

    return ExperimentSpec(**kwargs)


def sweep(seed: int):
    """756 small cells: the acceptance-matrix axes crossed in full."""
    return _spec(
        base={"delta_cap": DELTA, "delta_actual": 1, "stop": "t_star"},
        sweeps={
            "n": [4, 7, 10, 31],
            "corruptions": [[]] + [[{"proc": 0, "strategy": s}] for s in STRATEGIES],
            "gst": [0, "3", "128/3"],
            "offsets": ["all_zero", ["two_cluster", 25], "adversarial_spread"],
            "network": ["worst_case_max_delay", "fixed_delta", "uniform_random"],
        },
        base_seed=seed,
    )


def long_run(seed: int):
    """One responsive cell run to a far horizon: about 96 k records.

    gst+60 rather than the gst+90 of the worst acceptance cell (144 k
    records), so that one run can repeat it: the analyzer's quadratic
    passes still take a sixth of the cell.
    """
    return _spec(
        base={
            "n": 10,
            "delta_cap": DELTA,
            "delta_actual": f"{DELTA}/100",
            "gst": 0,
            "network": "fixed_delta",
            "stop": "horizon",
            "horizon": 60,
        },
        base_seed=seed,
    )


def wide(seed: int):
    """n=100 with t=33 corrupted: 100-way broadcasts and 67-signer quorums."""
    corruptions = [
        {"proc": p, "strategy": "early_signer" if p % 2 == 0 else "silent"} for p in range(33)
    ]
    return _spec(
        base={
            "n": 100,
            "t": 33,
            "delta_cap": DELTA,
            "offsets": "adversarial_spread",
            "network": "uniform_random",
            "stop": "sync_plus",
            "corruptions": corruptions,
        },
        seeds=WIDE_CELLS,
        base_seed=seed,
    )


def drift(seed: int):
    """Acceptance criterion 8: drifting clocks, three bounded sync windows and an open one."""
    n, t = 4, 1
    ell = K * (t + 3) * GAMMA
    windows, start = [], 0
    for _ in range(3):
        windows.append([start, start + ell])
        start += 11 * ell
    windows.append([start, None])
    return _spec(
        base={
            "n": n,
            "delta_cap": DELTA,
            "gst": 0,
            "network": "fixed_delta",
            "corruptions": [{"proc": 0, "strategy": "silent"}],
            "sync_windows": windows,
            "drift_epsilon": "1/1152",
            "stop": "horizon",
            "horizon": start + ell,
        },
        seeds=DRIFT_CELLS,
        base_seed=seed,
    )


WORKLOADS = {"sweep": sweep, "long_run": long_run, "wide": wide, "drift": drift}

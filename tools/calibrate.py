"""Measure the word-rate and response-step constants, then freeze them.

The performance bounds in viewsync.metrics use two protocol-level constants:
W (words charged per processor per group) and C (message delays charged per
recovery handshake). Their true values are properties of the protocol, not
tunables, so this script sweeps a broad matrix of runs, measures the worst
observed ratios, and reports the smallest integers that dominate them with
headroom. The chosen values are hand-copied into viewsync/constants.py and
committed; they are never computed at test time, otherwise the bounds would
be self-fulfilling.

Run:  python3 tools/calibrate.py
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from viewsync.metrics import _Analyzer  # noqa: E402
from viewsync.simnet import Corruption, SimConfig, Simulation  # noqa: E402

STRATEGIES = (
    None,
    "silent",
    "crash_leader",
    "selective_vc",
    "early_signer",
    "vote_stuffer",
    "late_qc_relayer",
)


def measure(records):
    """Worst-case ratios for one trace: global words, pace latency, pace words.

    The pace pairs and the responsive predicate are the analyzer's own, so
    the ratios measure exactly what check_post_sync and check_bounds bound.
    """
    an = _Analyzer(records)
    an.scan()
    r = an.resolved
    t_star, t_star_view, _seq = an.compute_t_star()
    f_star = an.compute_f_star()
    out = {}
    if t_star is not None:
        out["w_global"] = Fraction(an.count_words(t_star), (f_star + 3) * r.n)
        for ga, gb, elapsed, words in an.pace_gaps(t_star_view):
            groups = gb - ga
            slack = elapsed - r.k * groups * r.gamma
            out["c_pace"] = max(out.get("c_pace", 0), Fraction(slack, r.delta_eff))
            out["w_pace"] = max(out.get("w_pace", 0), Fraction(words, groups * r.n))
        if an.responsive():
            slack = (t_star - r.gst) - r.gamma - r.delta_cap
            out["c_resp"] = Fraction(slack, r.delta_actual)
    return out


def main() -> None:
    worst: dict[str, Fraction] = {}
    runs = 0
    for n, strat, net, offs, gst, seed in itertools.product(
        (4, 7),
        STRATEGIES,
        ("fixed_delta", "worst_case_max_delay", "uniform_random"),
        ("all_zero", "two_cluster", "adversarial_spread"),
        (0, Fraction(3, 2), Fraction(22, 3)),
        (5, 23),
    ):
        corruptions = (Corruption(0, strat),) if strat else ()
        if strat and n == 7:
            corruptions = (Corruption(0, strat), Corruption(3, strat, 2))
        cfg = SimConfig(
            n=n,
            delta_cap=1,
            gst=gst,
            offsets=offs,
            corruptions=corruptions,
            network=net,
            seed=seed,
            stop="sync_plus",
            delta_actual=Fraction(1, 4) if net != "worst_case_max_delay" else None,
        )
        for key, val in measure(Simulation(cfg).run()).items():
            if key not in worst or val > worst[key]:
                worst[key] = val
        runs += 1
    # long runs so several correct-led groups complete and pace pairs exist
    for n, strat, net, offs, seed in itertools.product(
        (4, 7),
        STRATEGIES,
        ("fixed_delta", "worst_case_max_delay", "uniform_random"),
        ("all_zero", "two_cluster"),
        (5, 23),
    ):
        corruptions = (Corruption(1, strat),) if strat else ()
        cfg = SimConfig(
            n=n,
            delta_cap=1,
            gst=2,
            offsets=offs,
            corruptions=corruptions,
            network=net,
            seed=seed,
            stop="horizon",
            horizon=2 + 12 * 9,
            delta_actual=Fraction(1, 4) if net != "worst_case_max_delay" else None,
        )
        for key, val in measure(Simulation(cfg).run()).items():
            if key not in worst or val > worst[key]:
                worst[key] = val
        runs += 1
    # dedicated responsive runs at tiny actual delays
    for delta, gst, seed in itertools.product(
        (Fraction(1, 100), Fraction(1, 20), Fraction(1, 10)), (0, 5, Fraction(22, 3)), range(8)
    ):
        cfg = SimConfig(
            n=4,
            delta_cap=1,
            gst=gst,
            offsets="all_zero",
            network="uniform_random" if seed % 2 else "fixed_delta",
            delta_actual=delta,
            seed=seed,
            stop="sync_plus",
        )
        for key, val in measure(Simulation(cfg).run()).items():
            if key not in worst or val > worst[key]:
                worst[key] = val
        runs += 1

    print(f"{runs} runs measured")
    for key in sorted(worst):
        print(f"  {key:8s} worst observed = {worst[key]} ~= {float(worst[key]):.3f}")
    w_needed = max(worst.get("w_global", 0), worst.get("w_pace", 0))
    c_needed = max(worst.get("c_resp", 0), worst.get("c_pace", 0))
    print(f"smallest integer W dominating observations: {-(-w_needed.numerator // w_needed.denominator)}")
    print(f"smallest integer C dominating observations: {-(-c_needed.numerator // c_needed.denominator)}")


if __name__ == "__main__":
    main()

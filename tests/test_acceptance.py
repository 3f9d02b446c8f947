"""Acceptance suite: the protocol guarantees, checked end to end at desk scale.

One test per numbered criterion; the terminal summary prints a PASS/FAIL line
for each (see conftest.py). The shared matrix fixture simulates over a
thousand seeded configurations spanning group size, corruption count and
strategy, network schedule, initial clock dispersion, and stabilisation time;
the analyzer replays every trace and flags any invariant breach. Criteria
with quantitative tolerances (regression fit, expected-case means, frozen
constants) run dedicated sweeps.
"""

import random
import time
from fractions import Fraction

import pytest

from viewsync.adversary import BYZANTINE_STRATEGIES
from viewsync.constants import RESPONSE_STEPS_C, WORD_RATE_W
from viewsync.core import ProtocolParams, RoundRobinSchedule, leader_of
from viewsync.harness import build_config, run_cell
from viewsync.metrics import analyze
from viewsync.simnet import Simulation, subseed
from viewsync.timeutil import load_ticks, to_frac
from viewsync.trace import parse_jsonl, to_jsonl

DELTA = 2
GAMMA = 6  # x = 3
K = 3
GSTS = (0, Fraction(3), Fraction(128, 3))  # start, mid-view, deep into a later group
OFFSET_MODES = ("all_zero", ("two_cluster", 25), "adversarial_spread")
NETWORKS = (("worst_case_max_delay", None), ("fixed_delta", 1), ("uniform_random", None))


def resilience(n):
    return (n - 1) // 3


def corruption_combos(n):
    """Corruption tuples ((proc, strategy), ...) exercised at this group size.

    Small sizes get the full strategy catalog; large sizes sample it, always
    corrupting the round-robin leaders of the first groups so the crossing
    bounds are stressed hardest.
    """
    t = resilience(n)
    combos = [()]
    if n <= 4:
        combos += [((0, s),) for s in BYZANTINE_STRATEGIES]
    elif n <= 7:
        combos += [((0, s),) for s in BYZANTINE_STRATEGIES]
        combos += [
            ((0, BYZANTINE_STRATEGIES[i]), (1, BYZANTINE_STRATEGIES[(i + 3) % 6]))
            for i in range(6)
        ]
    else:
        fs = (1, 2, 3) if t <= 3 else (1, 5, t)
        for f in fs:
            for j in (0, 1):
                combos.append(
                    tuple((i, BYZANTINE_STRATEGIES[(i + 3 * j + f) % 6]) for i in range(f))
                )
    return combos


def matrix_cells():
    cells = []
    for n in (4, 7, 10, 31):
        stops = ("t_star", "sync_plus") if n == 4 else ("t_star",)
        for combo in corruption_combos(n):
            for gst in GSTS:
                for offsets in OFFSET_MODES:
                    for network, delta_actual in NETWORKS:
                        for stop in stops:
                            cell = dict(
                                n=n,
                                delta_cap=DELTA,
                                gst=gst,
                                offsets=offsets,
                                network=network,
                                stop=stop,
                                seed=len(cells),
                            )
                            if delta_actual is not None:
                                cell["delta_actual"] = delta_actual
                            if combo:
                                cell["corruptions"] = [
                                    {"proc": p, "strategy": s} for p, s in combo
                                ]
                            cells.append(cell)
    return cells


@pytest.fixture(scope="session")
def matrix(request):
    cells = matrix_cells()
    started = time.perf_counter()
    rows = [run_cell(cell) for cell in cells]
    return rows, time.perf_counter() - started


def offending(rows, ids):
    """Rows in violation of any of the given invariant ids, or failed outright."""
    out = []
    for row in rows:
        if "error" in row:
            out.append((row.get("cell"), "cell error: " + row["error"]))
            continue
        for inv, seq, detail in row["violations"]:
            if inv in ids:
                out.append((f"config {row['config']} seed {row['seed']}", (inv, seq, detail)))
    return out


def fit_line(points):
    """Least squares over (x, y) pairs: slope, intercept, r_squared."""
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    count = len(points)
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    return slope, intercept, 1 - ss_res / ss_tot


# -- criterion 1: clock dispersion holds after every event ----------------------


def test_criterion_1_clock_dispersion_over_matrix(matrix):
    rows, elapsed = matrix
    assert len(rows) >= 1000
    assert elapsed < 300, f"matrix took {elapsed:.0f}s, over the five-minute target"
    bad = offending(rows, {"dagger", "delivery_bound"})
    assert not bad, bad[:5]


# -- criterion 2: entry structure, entry-time identity, QC visibility -----------


def test_criterion_2_entry_structure_over_matrix(matrix):
    rows, _ = matrix
    bad = offending(
        rows,
        {
            "clock_monotonicity",
            "view_monotonicity",
            "threshold_alignment",
            "first_entry_order",
            "first_entry_clocks",
            "entry_time_identity",
            "qc_before_advance",
        },
    )
    assert not bad, bad[:5]


# -- criterion 3: word complexity is bounded and linear in f*·n ------------------


@pytest.fixture(scope="session")
def worst_case_sweep():
    """All strategies at every (n, f) cell under maximum network delay."""
    rows = {}
    for n in (4, 10, 31):
        for f in range(resilience(n) + 1):
            for strategy in BYZANTINE_STRATEGIES if f else ("silent",):
                row = run_cell(
                    dict(
                        n=n,
                        delta_cap=DELTA,
                        gst=Fraction(3),
                        offsets="all_zero",
                        network="worst_case_max_delay",
                        seed=0,
                        corruptions=[
                            {"proc": i, "strategy": strategy} for i in range(f)
                        ],
                    )
                )
                rows[(n, f, strategy)] = row
    return rows


def test_criterion_3_word_complexity(matrix, worst_case_sweep):
    rows, _ = matrix
    bad = offending(rows, {"word_bound", "post_sync_words"})
    assert not bad, bad[:5]

    points = {}
    for (n, f, strategy), row in worst_case_sweep.items():
        assert "error" not in row, row
        assert row["violations_count"] == 0, (n, f, strategy, row["violations"][:3])
        assert row["words"] <= WORD_RATE_W * (row["f_star"] + 3) * n
        key = (n, f)
        x = row["f_star"] * n
        if key not in points or row["words"] > points[key][1]:
            points[key] = (x, row["words"])
    slope, _, r_squared = fit_line(list(points.values()))
    assert slope > 0
    assert r_squared >= 0.95, f"R^2 = {r_squared:.4f} over {len(points)} worst-case cells"


# -- criterion 4: latency bound and frozen responsiveness constant ---------------


def test_criterion_4_latency_and_responsiveness(matrix):
    rows, _ = matrix
    bad = offending(rows, {"latency_bound", "responsiveness", "post_sync_latency"})
    assert not bad, bad[:5]

    assert RESPONSE_STEPS_C <= 6
    delta = Fraction(DELTA, 100)
    bound = RESPONSE_STEPS_C * delta + GAMMA + DELTA
    for n in (4, 7, 10, 31):
        for gst in GSTS:
            for network in ("fixed_delta", "uniform_random"):
                row = run_cell(
                    dict(
                        n=n,
                        delta_cap=DELTA,
                        delta_actual=delta,
                        gst=gst,
                        offsets="all_zero",
                        network=network,
                        seed=2,
                    )
                )
                assert row["violations_count"] == 0, (n, gst, network, row)
                latency = to_frac(row["latency"])
                assert latency <= bound, (n, gst, network, latency, bound)


# -- criterion 5: expected case under a random leader schedule -------------------


def test_criterion_5_expected_case_random_schedule():
    seeds = 500
    n, t = 31, 10
    f_stars, words, latencies = [], [], []
    for seed in range(seeds):
        rng = random.Random(subseed(seed, "oblivious"))
        corrupted = rng.sample(range(n), t)
        row = run_cell(
            dict(
                n=n,
                delta_cap=DELTA,
                gst=0,
                offsets="all_zero",
                network="uniform_random",
                leaders="random_permutations",
                corruptions=[{"proc": p, "strategy": "silent"} for p in corrupted],
                seed=seed,
            )
        )
        assert row["violations_count"] == 0, (seed, row["violations"][:3])
        f_stars.append(row["f_star"])
        words.append(row["words"])
        latencies.append(to_frac(row["latency"]))
    mean_f = sum(f_stars) / seeds
    mean_w = sum(words) / seeds
    mean_l = sum(latencies, Fraction(0)) / seeds
    assert mean_f <= 2, mean_f
    assert mean_w <= 5 * WORD_RATE_W * n, mean_w
    assert mean_l <= 5 * K * GAMMA, float(mean_l)


# -- criterion 6: certificate honesty in every trace -----------------------------


def test_criterion_6_certificate_honesty_over_matrix(matrix):
    rows, _ = matrix
    bad = offending(
        rows,
        {
            "vc_honesty",
            "qc_honesty",
            "certificate_signatures",
            "signing_clock",
            "vote_view",
            "duplicate_view_message",
            "duplicate_vote",
        },
    )
    assert not bad, bad[:5]


# -- criterion 7: quorum delivery contract in synchronous windows ----------------


def test_criterion_7_underlying_contract(matrix):
    rows, _ = matrix
    bad = offending(rows, {"underlying_contract"})
    assert not bad, bad[:5]

    for delta in (DELTA, Fraction(DELTA, 10), Fraction(DELTA, 100)):
        for n in (4, 7, 10):
            for gst in (0, Fraction(3)):
                row = run_cell(
                    dict(
                        n=n,
                        delta_cap=DELTA,
                        delta_actual=delta,
                        gst=gst,
                        offsets="all_zero",
                        network="fixed_delta",
                        stop="horizon",
                        horizon=to_frac(gst) + 5 * K * GAMMA,
                        seed=1,
                    )
                )
                assert row["violations_count"] == 0, (n, gst, delta, row["violations"][:3])


# -- criterion 8: clock drift with oscillating synchrony -------------------------


def test_criterion_8_drift_with_oscillating_synchrony():
    n, t = 4, 1
    ell = K * (t + 3) * GAMMA
    windows = []
    start = 0
    for _ in range(3):
        windows.append((start, start + ell))
        start += 11 * ell  # async gaps of 10*ell between windows
    windows.append((start, None))
    params = ProtocolParams(n, t, K, GAMMA, RoundRobinSchedule(n))
    epsilon = Fraction(1, 1152)  # keeps dispersion under control across the gaps

    for seed in range(50):
        cell = dict(
            n=n,
            delta_cap=DELTA,
            gst=0,
            offsets="all_zero",
            network="fixed_delta",
            corruptions=[{"proc": 0, "strategy": "silent"}],
            sync_windows=[list(w) for w in windows],
            drift_epsilon=epsilon,
            stop="horizon",
            horizon=start + ell,
            seed=seed,
        )
        records = Simulation(build_config(cell)).run()
        metrics = analyze(records)
        assert metrics.violations == [], (seed, metrics.violations[:3])
        grid = records[0]["grid"]
        for lo, hi in windows[:3]:
            hit = any(
                r["kind"] == "form_qc"
                and r["proc"] != 0
                and r["proc"] == leader_of(r["view"], params)
                and lo * grid <= load_ticks(r["time"]) <= hi * grid
                for r in records
            )
            assert hit, f"seed {seed}: no correct-leader quorum in window [{lo}, {hi}]"


# -- criterion 9: determinism and replay ------------------------------------------


def random_cell(rng, index):
    n = rng.choice((4, 7))
    t = resilience(n)
    delta = rng.choice((1, 2))
    gamma = 3 * delta
    gst = rng.choice((0, Fraction(gamma, 2), 7 * gamma))
    cell = dict(
        n=n,
        delta_cap=delta,
        gst=gst,
        seed=index,
        network=rng.choice(("worst_case_max_delay", "fixed_delta", "uniform_random")),
        offsets=rng.choice(("all_zero", ("two_cluster", 4 * gamma + 1), "adversarial_spread")),
        leaders=rng.choice(("round_robin", "random_permutations")),
    )
    f = rng.randint(0, t)
    if f:
        cell["corruptions"] = [
            {"proc": i, "strategy": rng.choice(BYZANTINE_STRATEGIES), "time": rng.choice((0, gst))}
            for i in range(f)
        ]
    stop = rng.choice(("t_star", "sync_plus", "horizon"))
    cell["stop"] = stop
    if stop == "horizon":
        cell["horizon"] = gst + 15 * gamma
    if rng.random() < 0.25:
        cell["drift_epsilon"] = Fraction(1, 1152)
    if rng.random() < 0.2:
        ell = K * (t + 3) * gamma
        cell["sync_windows"] = [[gst, gst + 2 * ell], [gst + 5 * ell, None]]
    return cell


def test_criterion_9_determinism_and_replay():
    rng = random.Random(20_2424)
    for index in range(100):
        cell = random_cell(rng, index)
        first = to_jsonl(Simulation(build_config(cell)).run())
        second = to_jsonl(Simulation(build_config(cell)).run())
        assert first == second, f"case {index}: reruns differ"
        records = parse_jsonl(first)
        live = analyze(records)
        replayed = analyze(parse_jsonl(to_jsonl(records)))
        assert live == replayed, f"case {index}: replay metrics differ"
        assert live.violations == [], (index, cell, live.violations[:3])

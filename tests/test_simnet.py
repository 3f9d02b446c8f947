"""Frozen examples and properties for the simulator: offsets, delivery, runs."""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsync import simnet
from viewsync.adversary import BYZANTINE_STRATEGIES
from viewsync.certificates import (
    SIGN_VIEW,
    SIGN_VOTE,
    QuorumCertificate,
    ViewCertificate,
    ViewMessage,
)
from viewsync.core import ALL
from viewsync.harness import _worker, build_config, run_cell
from viewsync.metrics import _Analyzer, analyze
from viewsync.simnet import (
    NETWORK_STRATEGIES,
    Corruption,
    Resolved,
    SimConfig,
    Simulation,
    SimulationError,
    check_dagger,
    default_resilience,
    generate_initial_offsets,
    resolve,
    subseed,
)
from viewsync.trace import to_jsonl
from viewsync.underlying import Vote

GAMMA = 6  # matches delta_cap=2, x=3
PERIOD = 3 * GAMMA  # k=3
EVERYONE = dict(correct=range(4), period=PERIOD)  # n=4, none corrupted


def sim_config(**kw):
    base = dict(n=4, delta_cap=2, gst=0, offsets="all_zero", network="worst_case_max_delay")
    base.update(kw)
    return SimConfig(**base)


# -- resilience and dispersion check ------------------------------------------


def check_dagger_quantified(clocks, gamma, t) -> bool:
    """Literal form of the dispersion condition: every clock sees at least
    t+1 clocks within gamma above it. Oracle for check_dagger."""
    for c in clocks:
        if sum(1 for c2 in clocks if c2 >= c - gamma) < t + 1:
            return False
    return True


def test_default_resilience_values():
    assert [default_resilience(n) for n in (4, 7, 10, 31)] == [1, 2, 3, 10]


def test_check_dagger_frozen_examples():
    assert check_dagger([0, 0, 0, 0], 1, 1)
    assert check_dagger([0, 10, Fraction(21, 2), 11], 1, 1)
    assert not check_dagger([0, 0, 0, 11], 1, 1)
    # fewer than t+1 clocks cannot witness the condition
    assert not check_dagger([5], 1, 1)
    assert check_dagger([], 1, 1)


@given(
    clocks=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8),
    gamma=st.integers(min_value=0, max_value=12),
    t=st.integers(min_value=0, max_value=3),
)
def test_check_dagger_matches_quantified_form(clocks, gamma, t):
    assert check_dagger(clocks, gamma, t) == check_dagger_quantified(clocks, gamma, t)


# -- initial offset generators -------------------------------------------------


def test_offsets_all_zero():
    assert generate_initial_offsets(4, 1, GAMMA, "all_zero", 0, **EVERYONE) == [0, 0, 0, 0]


def test_offsets_two_cluster_places_top_correct_ahead():
    offs = generate_initial_offsets(4, 1, GAMMA, "two_cluster", 0, gap=7, **EVERYONE)
    assert offs == [0, 0, 7, 7]
    # corrupted processors do not count towards the leading cluster
    offs = generate_initial_offsets(
        4, 1, GAMMA, "two_cluster", 0, gap=7, correct=[0, 1, 2], period=PERIOD
    )
    assert offs == [0, 7, 7, 0]


def test_offsets_two_cluster_avoids_boundary_lattice():
    # a gap that is a multiple of the boundary period gets nudged off it
    offs = generate_initial_offsets(4, 1, GAMMA, "two_cluster", 0, gap=PERIOD, **EVERYONE)
    assert offs[-1] % PERIOD != 0


def test_offsets_two_cluster_requires_gap():
    with pytest.raises(ValueError):
        generate_initial_offsets(4, 1, GAMMA, "two_cluster", 0, **EVERYONE)


def test_offsets_unknown_mode():
    with pytest.raises(ValueError):
        generate_initial_offsets(4, 1, GAMMA, "sideways", 0, **EVERYONE)


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40)
def test_offsets_adversarial_spread_admissible(seed):
    n, t = 7, 2
    offs = generate_initial_offsets(
        n, t, GAMMA, "adversarial_spread", seed, correct=list(range(5)), period=PERIOD
    )
    assert len(offs) == n
    assert check_dagger([offs[p] for p in range(5)], GAMMA, t)
    # deterministic in the seed
    assert offs == generate_initial_offsets(
        n, t, GAMMA, "adversarial_spread", seed, correct=list(range(5)), period=PERIOD
    )


# -- delivery schedule ---------------------------------------------------------
# Simulation._due, on built runs; times go in and come out in ticks, grid per
# time unit.


def test_delivery_worst_case_before_stabilisation():
    sim = Simulation(sim_config(network="worst_case_max_delay", gst=100, delta_actual=1))
    g = sim.resolved.grid
    assert sim._due(5 * g) == 102 * g


def test_delivery_fixed_delta_after_stabilisation():
    sim = Simulation(sim_config(network="fixed_delta", delta_cap=1, gst=100, delta_actual="1/10"))
    g = sim.resolved.grid
    assert sim._due(200 * g) == Fraction(2001, 10) * g


def test_delivery_outside_final_window_never_arrives():
    sim = Simulation(
        sim_config(network="fixed_delta", gst=100, sync_windows=[(100, 150)], horizon=200)
    )
    r, g = sim.resolved, sim.resolved.grid
    # no bound applies: due after the run's last event
    assert sim._due(160 * g) == r.horizon + r.delta_cap + r.unit
    assert sim._due(120 * g) == 122 * g


@given(
    send=st.integers(min_value=0, max_value=300),
    gst=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=999),
    rates=st.sampled_from([None, ["1", "1", "9/8", "7/8"]]),
)
@settings(deadline=None)
def test_delivery_uniform_random_respects_bounds(send, gst, seed, rates):
    cfg = sim_config(
        network="uniform_random", delta_cap=10, delta_actual=3, gst=gst, drift_rates=rates, seed=seed
    )
    sim = Simulation(cfg)
    r, g = sim.resolved, sim.resolved.grid
    got = sim._due(send * g)
    assert got > send * g
    assert (got - send * g) % r.unit == 0  # whole drawn units
    if send >= gst:
        assert got <= (send + 3) * g
    else:
        assert got <= (gst + 10) * g


# -- deterministic runs --------------------------------------------------------


def test_run_twice_is_byte_identical():
    cfg = sim_config(n=7, network="uniform_random", offsets="adversarial_spread", gst=13, seed=5)
    a = to_jsonl(Simulation(cfg).run())
    b = to_jsonl(Simulation(cfg).run())
    assert a == b


def test_run_seed_changes_trace():
    base = dict(n=7, network="uniform_random", offsets="adversarial_spread", gst=13)
    a = to_jsonl(Simulation(sim_config(seed=1, **base)).run())
    b = to_jsonl(Simulation(sim_config(seed=2, **base)).run())
    assert a != b


def test_replaced_horizon_reaches_the_header():
    cfg = sim_config(stop="horizon", horizon=30)
    records = Simulation(dataclasses.replace(cfg, horizon=12)).run()
    assert records[0]["config"]["horizon"] == 12 * records[0]["grid"]
    assert records[-1]["kind"] == "end"
    assert analyze(records).violations == []


def test_silent_first_leader_pushes_first_qc_to_next_group():
    cfg = sim_config(corruptions=(Corruption(0, "silent"),))
    records = Simulation(cfg).run()
    qcs = [r for r in records if r["kind"] == "form_qc"]
    # views 0..2 belong to the silent leader; the first certificate is the
    # next group's boundary view, formed by processor 1
    assert qcs[0]["view"] == 3
    assert qcs[0]["proc"] == 1


def test_too_many_corruptions_rejected():
    with pytest.raises(ValueError):
        Simulation(sim_config(corruptions=tuple(Corruption(i, "silent") for i in range(2)))).run()


def test_horizon_must_clear_gst():
    with pytest.raises(ValueError):
        Simulation(sim_config(gst=50, stop="horizon", horizon=40))


def test_next_sync_is_an_unknown_stop_mode():
    with pytest.raises(ValueError, match="unknown stop mode 'next_sync'"):
        Simulation(sim_config(stop="next_sync"))


# Every configuration fault that resolve refuses, one per cell: a ValueError
# naming it, never another exception type, and an error row from run_cell. The
# cells are n=4 (t=1) with delta_cap=1 and x=k=3, so gamma is 3, the boundary
# period 9 and the grid 60 ticks per time unit, unless the case says otherwise.
CONFIG_FAULTS = [
    ({"n": 1}, "need at least two processors"),
    ({"t": -1}, "resilience t=-1 incompatible with n=4"),
    ({"t": 2}, "resilience t=2 incompatible with n=4"),
    ({"k": 2}, "views per leader must be at least 3"),
    ({"x": 1}, "clock spacing multiplier must be at least 2"),
    ({"x": 0, "offsets": "two_cluster"}, "clock spacing multiplier must be at least 2"),
    ({"network": "pigeon"}, "unknown network strategy 'pigeon'"),
    ({"leaders": "bogus"}, "unknown leader mode 'bogus'"),
    ({"stop": "never"}, "unknown stop mode 'never'"),
    ({"delta_cap": 0}, "maximum network delay must be positive"),
    ({"delta_actual": 2}, "actual delay must lie in (0, delta_cap]"),
    ({"delta_actual": 0}, "actual delay must lie in (0, delta_cap]"),
    ({"gst": -1}, "stabilisation time cannot be negative"),
    ({"gst": 5, "horizon": 5}, "horizon must extend past the stabilisation time"),
    ({"sync_windows": []}, "sync_windows given but empty"),
    ({"sync_windows": [[0, 0]]}, "empty synchronous window"),
    ({"sync_windows": [[0, None], [5, None]]}, "only the final synchronous window may be open"),
    ({"sync_windows": [[0, 10], [5, None]]}, "synchronous windows must be disjoint and ordered"),
    ({"sync_windows": [[1, None]]}, "gst must equal the first synchronous window start"),
    ({"drift_epsilon": -1}, "drift bound cannot be negative"),
    ({"drift_epsilon": 2}, "clock rates must be positive"),  # seed 0 draws a rate of -1/4
    ({"drift_rates": [0, 1, 1, 1]}, "clock rates must be positive"),
    ({"drift_rates": [-1, 1, 1, 1]}, "clock rates must be positive"),
    ({"drift_rates": [1, 1, 1]}, "need one clock rate per processor"),
    ({"offsets": [0, 0, 0]}, "need one initial clock per processor"),
    ({"offsets": [0, 0, 0, -1]}, "initial clocks cannot be negative"),
    ({"offsets": [0, 0, 0, 100]}, "initial clocks violate the dispersion condition"),
    (
        {"offsets": [9, 9, 0, 0]},
        "initial clocks (0, 540) collide on the boundary lattice; nudge one by a tick",
    ),
    ({"n": 7, "corruptions": [[1, "silent"], [1, "silent"]]}, "duplicate corruption target"),
    ({"corruptions": [[4, "silent"]]}, "corruptions[0].proc: 4 is not a processor"),
    # the config's own entry is named, though the run keeps them by time
    (
        {"n": 7, "corruptions": [[0, "silent", 5], [9, "silent", 1]]},
        "corruptions[1].proc: 9 is not a processor",
    ),
    ({"corruptions": [[0, "sneaky"]]}, "unknown byzantine strategy 'sneaky'"),
    ({"corruptions": [[0, "silent", -1]]}, "corruption time cannot be negative"),
    (
        {"corruptions": [[0, "silent"], [1, "silent"]]},
        "more corruptions than the resilience bound allows",
    ),
]


@pytest.mark.parametrize(
    "fault, message", CONFIG_FAULTS, ids=[json.dumps(f) for f, _ in CONFIG_FAULTS]
)
def test_each_config_fault_is_a_value_error_and_an_error_row(fault, message):
    cell = {"n": 4, "seed": 0, **fault}
    with pytest.raises(Exception) as refused:
        resolve(build_config(cell))
    assert type(refused.value) is ValueError and str(refused.value) == message
    assert run_cell(cell) == {
        "error": f"ValueError: {message}",
        "cell": {key: str(value) for key, value in cell.items()},
    }


def test_subseed_is_stable_and_label_sensitive():
    assert subseed(7, "net") == subseed(7, "net")
    assert subseed(7, "net") != subseed(7, "offsets")
    assert subseed(7, "net") != subseed(8, "net")


# -- the resolved run description ----------------------------------------------


@st.composite
def configs(draw):
    n = draw(st.integers(min_value=4, max_value=10))
    delta_cap = draw(st.sampled_from([1, 2, Fraction(3, 2), Fraction(5, 7)]))
    gst = draw(st.sampled_from([0, 3, Fraction(22, 3)]))
    procs = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=default_resilience(n)))
    corruptions = tuple(
        Corruption(
            p,
            draw(st.sampled_from(BYZANTINE_STRATEGIES)),
            draw(st.sampled_from([0, 2, "7/2"])),
        )
        for p in procs
    )
    offsets = draw(
        st.sampled_from(
            ["all_zero", "two_cluster", "adversarial_spread", ("two_cluster", "5/2"), None]
        )
    )
    if offsets is None:  # explicit and equal, so dispersed by nothing
        offsets = [draw(st.sampled_from([0, Fraction(1, 3), 4]))] * n
    windows = draw(st.sampled_from([None, [(gst, gst + 10), (gst + 30, None)], [(gst, gst + 5)]]))
    rates = draw(st.sampled_from([None, [1, "101/100"] + ["99/100"] * (n - 2)]))
    return SimConfig(
        n=n,
        delta_cap=delta_cap,
        delta_actual=draw(st.sampled_from([None, delta_cap, Fraction(delta_cap) / 3])),
        gst=gst,
        offsets=offsets,
        corruptions=corruptions,
        network=draw(st.sampled_from(simnet.NETWORK_STRATEGIES)),
        leaders=draw(st.sampled_from(simnet.LEADER_MODES)),
        drift_epsilon=draw(st.sampled_from([0, Fraction(1, 100)])),
        drift_rates=rates,
        sync_windows=windows,
        stop=draw(st.sampled_from(simnet.STOP_MODES)),
        seed=draw(st.integers(min_value=0, max_value=50)),
    )


@given(cfg=configs())
@settings(max_examples=60, deadline=None)
def test_header_round_trip(cfg):
    desc = resolve(cfg)
    assert Resolved.from_header(desc.header()) == desc
    assert Resolved.from_header(json.loads(json.dumps(desc.header()))) == desc


# -- one time representation: int ticks, drifting clocks included --------------

# a whole rate, near-1 rates and large coprime numerators, whose lcm makes the
# sub-tick unit hundreds of bits wide at n = 10
RATES = [1, "101/100", "99/100", "1000003/1000000", "999983/1000000", "1000033/999999", "3/2"]


@st.composite
def drifting_configs(draw):
    n = draw(st.integers(min_value=4, max_value=10))
    rates, epsilon = None, 0
    if draw(st.booleans()):
        rates = draw(st.lists(st.sampled_from(RATES), min_size=n, max_size=n))
    else:
        epsilon = draw(st.sampled_from(["1/100", "1/1152", "1/20"]))
    procs = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=default_resilience(n)))
    corruptions = [
        Corruption(p, draw(st.sampled_from(BYZANTINE_STRATEGIES)), draw(st.sampled_from([0, "7/2"])))
        for p in procs
    ]
    if not corruptions or draw(st.booleans()):  # the relayer's wake-ups draw delays
        corruptions = [Corruption(0, "late_qc_relayer", draw(st.sampled_from([0, 2])))]
    gst = draw(st.sampled_from([0, 3]))
    return SimConfig(
        n=n,
        delta_cap=2,
        delta_actual=draw(st.sampled_from([None, "1/3"])),
        gst=gst,
        offsets=draw(st.sampled_from(["all_zero", "two_cluster", "adversarial_spread"])),
        corruptions=corruptions,
        network=draw(st.sampled_from(NETWORK_STRATEGIES)),
        drift_epsilon=epsilon,
        drift_rates=rates,
        sync_windows=draw(st.sampled_from([None, [(gst, gst + 20), (gst + 40, None)]])),
        stop="horizon",
        horizon=gst + 50,
        seed=draw(st.integers(min_value=0, max_value=50)),
    )


@given(cfg=drifting_configs())
@settings(max_examples=100, deadline=None)
def test_drifting_runs_keep_every_time_and_clock_an_exact_int(cfg):
    # on the grid refined by the rates' unit, every event time is a multiple
    # of the rates' denominators' lcm, and every clock value an int
    records = Simulation(cfg).run()
    head = records[0]
    r = Resolved.from_header(head)
    q = math.lcm(*(rate.denominator for rate in r.rates))
    assert head["grid"] % r.unit == 0
    config = head["config"]
    for name in ("gamma", "delta_cap", "delta_actual", "gst", "horizon"):
        assert type(config[name]) is int and config[name] % r.unit == 0, name
    assert {type(o) for o in config["offsets"]} == {int}
    for rec in records[1:]:
        # a delivery's time is its send's time plus its send's delay for it
        times = [*rec.get("delays", ())]
        if rec["kind"] != "deliver":
            times.append(rec["time"])
        clocks = [rec[name] for name in ("proc_clock", "boundary_clock") if name in rec]
        assert {*map(type, times + clocks)} == {int}, rec
        assert all(when % q == 0 for when in times), rec
    analyze(records)  # reads every time exactly, on the grid or not


def counted_fractions(monkeypatch):
    """The argument tuples of every Fraction built from now on."""
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return calls


DRIFT_CELLS = [
    # criterion 8's cell: drift across bounded synchronous windows
    sim_config(
        corruptions=[Corruption(0, "silent")],
        network="fixed_delta",
        sync_windows=[(0, 72), (792, 864), (1584, 1656), (2376, None)],
        drift_epsilon="1/1152",
        stop="horizon",
        horizon=2448,
    ),
    # every random draw and the signature flood's horizon reading
    SimConfig(
        n=7,
        delta_cap=2,
        drift_epsilon="1/100",
        offsets="adversarial_spread",
        network="uniform_random",
        corruptions=[Corruption(1, "late_qc_relayer", "5/2"), Corruption(4, "early_signer", 2)],
        stop="horizon",
        horizon=60,
    ),
]


@pytest.mark.parametrize("cfg", DRIFT_CELLS, ids=["windows", "draws"])
def test_drifting_run_and_scan_build_no_fraction(cfg, monkeypatch):
    sim = Simulation(cfg)
    assert sim.resolved.unit > 1
    calls = counted_fractions(monkeypatch)
    records = sim.run()
    assert calls == []
    analyzer = _Analyzer(records)  # reads the header's rates as Fractions
    calls.clear()
    analyzer.scan()
    assert calls == []


def test_a_threshold_between_two_ticks_is_a_simulation_error():
    # processor 1 runs at 3/2: from an intercept one tick off what the grid
    # allows, its next boundary falls between two ticks, which is a bug, not
    # a time to round
    sim = Simulation(sim_config(drift_rates=[1, "3/2", "2/3", 1]))
    assert sim._threshold_time(1, sim.resolved.period) * 3 == sim.resolved.period * 2
    sim.offset[1] += 1
    with pytest.raises(SimulationError, match="processor 1 reaches clock .* between two ticks"):
        sim._threshold_time(1, sim.resolved.period)


# -- the simulator's own protocol checks ---------------------------------------


def test_forged_signature_send_raises_simulation_error():
    sim = Simulation(sim_config())
    with pytest.raises(SimulationError, match="cannot send processor 1's signature"):
        sim.send(0, ALL, ViewMessage(3, 1), 0)


# The simulator dispatches on exact types: a payload's trace form through a
# table, its handler through an if chain. A type neither lists is the located
# error below, never a bare KeyError. None of these checks is an assert, so
# each holds under python -O too.


class Bulletin(Vote):
    """A payload type nothing lists, though it subclasses one that is."""


@pytest.mark.parametrize("payload", [object(), Bulletin(0, 0)], ids=["object", "subclass"])
def test_a_payload_no_correct_processor_handles_is_a_simulation_error(payload):
    sim = Simulation(sim_config())
    with pytest.raises(SimulationError, match="unhandled payload"):
        sim._receive_correct(1, payload, 0)


@pytest.mark.parametrize("payload", [object(), Bulletin(0, 0)], ids=["object", "subclass"])
def test_a_payload_with_no_trace_form_is_a_type_error(payload):
    sim = Simulation(sim_config())
    with pytest.raises(TypeError, match="cannot serialise payload"):
        sim.send(0, 1, payload, 0)
    with pytest.raises(TypeError, match="cannot serialise payload"):
        simnet.payload_to_dict(payload)


def test_an_action_the_host_cannot_perform_is_a_simulation_error():
    # a payload handed over where an action belongs
    sim = Simulation(sim_config())
    with pytest.raises(SimulationError, match=r"unhandled action Vote\(view=0, signer=0\)"):
        sim._dispatch(0, [Vote(0, 0)], 0)


def test_an_event_of_no_known_kind_is_a_simulation_error():
    sim = Simulation(sim_config())
    sim._push(1, simnet._PRIO_DELIVER, 0, 0, "dlv ", None)
    with pytest.raises(SimulationError, match="unhandled event kind 'dlv '"):
        sim.run()


def test_invalid_certificate_delivery_is_a_bug_not_an_unsatisfiable_cell(monkeypatch):
    # a certificate that fails validation as it is sent means the simulator
    # fabricated it; the check must hold under python -O and must not be
    # reported as an unsatisfiable cell
    monkeypatch.setattr(simnet, "validate_qc", lambda *args: False)
    assert not issubclass(SimulationError, ValueError)
    with pytest.raises(SimulationError, match="needs 3 distinct signatures that were made"):
        Simulation(sim_config(stop="horizon", horizon=30)).run()
    cell = {"n": 4, "delta_cap": 2, "stop": "horizon", "horizon": 30}
    row = _worker(cell)
    assert row["error"].startswith("SimulationError: sent QuorumCertificate")


def test_each_certificate_is_validated_once(monkeypatch):
    """Once per send, by the name send calls, and at no delivery."""
    validated = []

    def counted(check):
        def wrapper(cert, *args):
            validated.append(cert)
            return check(cert, *args)

        return wrapper

    monkeypatch.setattr(simnet, "validate_qc", counted(simnet.validate_qc))
    monkeypatch.setattr(simnet, "validate_vc", counted(simnet.validate_vc))
    kinds = {"quorum_certificate": QuorumCertificate, "view_certificate": ViewCertificate}
    # a relayer resends the certificates it receives, each send checked
    relayer = [Corruption(2, "late_qc_relayer", 5)]
    for corruptions in ((), relayer):
        validated.clear()
        config = sim_config(n=7, corruptions=corruptions, stop="horizon", horizon=60)
        sends = [
            r for r in Simulation(config).run()
            if r["kind"] == "send" and r["payload"]["type"] in kinds
        ]
        assert {type(c) for c in validated} == {QuorumCertificate, ViewCertificate}
        assert validated == [
            kinds[r["payload"]["type"]](r["payload"]["view"], tuple(r["payload"]["signers"]))
            for r in sends
        ]
        assert sum(len(r["recipients"]) for r in sends) > len(sends)  # not once per delivery


@pytest.mark.parametrize("kind", ["qc", "vc"])
def test_a_forged_certificate_is_refused_when_sent(kind):
    # processor 3 is silent from time 0, so it never signs anything: a
    # certificate naming it is forged, whoever sends it and however often
    sim = Simulation(
        sim_config(corruptions=[Corruption(3, "silent")], stop="horizon", horizon=30)
    )
    records = sim.run()
    formed = next(r for r in records if r["kind"] == f"form_{kind}")
    view, signers = formed["view"], formed["signers"]
    make, sign = (QuorumCertificate, SIGN_VOTE) if kind == "qc" else (ViewCertificate, SIGN_VIEW)
    valid = make(view, tuple(signers))
    forged = make(view, tuple(sorted([*signers[1:], 3])))
    assert not sim.ledger.holds(3, sign, view)
    now = records[-1]["time"]
    sim.send(0, ALL, valid, now)
    count = len(sim.records)
    need = 3 if kind == "qc" else 2  # n - t and t + 1
    for sender in (0, 3, 0):  # a correct sender, the corrupted one, and again
        with pytest.raises(
            SimulationError, match=rf"^sent .* needs {need} distinct signatures that were made$"
        ):
            sim.send(sender, 1, forged, now)
    assert len(sim.records) == count  # no send record, no delivery


@pytest.mark.parametrize("kind", ["qc", "vc"])
def test_a_certificate_one_signer_short_is_refused_when_sent(kind):
    # every signature it names was made, but it names one distinct signer
    # fewer than its threshold, or repeats one to make up the count: the
    # handlers build certificates unchecked, and send alone counts signers
    sim = Simulation(sim_config(stop="horizon", horizon=30))
    records = sim.run()
    formed = next(r for r in records if r["kind"] == f"form_{kind}")
    view, signers = formed["view"], tuple(formed["signers"])
    make, need = (QuorumCertificate, 3) if kind == "qc" else (ViewCertificate, 2)
    assert len(signers) == need  # n - t and t + 1
    now = records[-1]["time"]
    count = len(sim.records)
    for short in (signers[:-1], (signers[0], *signers[:-1])):
        with pytest.raises(
            SimulationError,
            match=rf"^sent {make.__name__}\(view={view}, .* needs {need} distinct signatures that were made$",
        ):
            sim.send(0, ALL, make(view, short), now)
    assert len(sim.records) == count  # no send record, no delivery
    sim.send(0, ALL, make(view, signers), now)  # at the threshold, it goes out
    assert len(sim.records) == count + 1


ANNOUNCED_DELIVERIES = [
    *(
        sim_config(
            network=network,
            delta_actual="1/2",
            gst=5,
            sync_windows=[(5, 20), (40, 60)],
            stop="horizon",
            horizon=80,
            seed=3,
        )
        for network in NETWORK_STRATEGIES
    ),
    SimConfig(
        n=31,
        delta_actual="1/2",
        gst=5,
        network="uniform_random",
        corruptions=[Corruption(5, "vote_stuffer"), Corruption(17, "late_qc_relayer", 3)],
        stop="sync_plus",
        seed=11,
    ),
    # one stabilisation time and no draw
    *(
        sim_config(network=network, delta_actual="1/2", gst=5, stop="horizon", horizon=40)
        for network in ("fixed_delta", "worst_case_max_delay")
    ),
]
ANNOUNCED_IDS = [*NETWORK_STRATEGIES, "n31", "fixed_delta-gst", "worst_case_max_delay-gst"]


def delivery_time(
    strategy: str,
    send_time: int,
    *,
    gst: int,
    delta_cap: int,
    delta_actual: int,
    rng: Optional[random.Random] = None,
    sync_windows=None,
    unit: int = 1,
) -> Optional[int]:
    """When one envelope arrives, in ticks. None means no bound applies
    (sent after the final synchronous window closes).

    ``worst_case_max_delay`` always exhausts the cap; ``fixed_delta`` always
    takes the actual network delay; ``uniform_random`` draws a whole number
    of ``unit`` ticks up to whichever bound governs.
    """
    if strategy not in NETWORK_STRATEGIES:
        raise ValueError(f"unknown network strategy {strategy!r}")
    sync = simnet.sync_start(send_time, gst, sync_windows)
    if sync is None:
        return None
    anchor = max(sync, send_time)
    if strategy == "worst_case_max_delay":
        return anchor + delta_cap
    if strategy == "fixed_delta":
        return anchor + delta_actual
    upper = send_time + delta_actual if sync <= send_time else anchor + delta_cap
    latest = (upper - send_time) // unit
    if latest < 1:
        return upper
    return send_time + unit * rng.randint(1, latest)


@pytest.mark.parametrize("cfg", ANNOUNCED_DELIVERIES, ids=ANNOUNCED_IDS)
def test_deliver_times_are_one_delivery_time_per_recipient(cfg):
    # whatever the simulator computes once per send, the times its delays
    # announce are those of one call per other recipient, in order, on the
    # network's random stream, which only uniform_random has, of
    # delivery_time above: the simulator's own, per-network formula before
    # Simulation._due folded the networks into one
    sim = Simulation(cfg)
    r = sim.resolved
    assert (sim.net_rng is None) == (r.network != "uniform_random")
    rng = random.Random()
    if sim.net_rng is not None:
        rng.setstate(sim.net_rng.getstate())
    unused = rng.getstate()
    records = sim.run()
    never = r.horizon + r.delta_cap + r.unit  # no bound applies: after the last event
    unbounded = 0
    for seq, rec in enumerate(records):
        if rec["kind"] != "send":
            continue
        now = rec["time"]
        want = []
        for q in rec["recipients"]:
            when = now
            if q != rec["sender"]:
                when = delivery_time(
                    r.network,
                    now,
                    gst=r.gst,
                    delta_cap=r.delta_cap,
                    delta_actual=r.delta_actual,
                    rng=rng,
                    sync_windows=r.windows,
                    unit=r.unit,
                )
                unbounded += when is None
            want.append(never if when is None else when)
        assert [now + delay for delay in rec["delays"]] == want, seq
    assert rng.getstate() == (unused if sim.net_rng is None else sim.net_rng.getstate())
    assert unbounded or r.windows is None


OPTIMIZED_CHECKS = """
import sys
from viewsync import simnet
from viewsync.certificates import ViewMessage
from viewsync.core import ALL
from viewsync.simnet import SimConfig, Simulation, SimulationError

if not sys.flags.optimize:
    sys.exit("assert statements are on")
try:
    Simulation(SimConfig(n=4)).send(0, ALL, ViewMessage(3, 1), 0)
except SimulationError as exc:
    print("forged:", exc)
try:
    Simulation(SimConfig(n=4))._receive_correct(1, object(), 0)
except SimulationError as exc:
    print("payload:", exc)
try:
    Simulation(SimConfig(n=4))._dispatch(0, [object()], 0)
except SimulationError as exc:
    print("action:", exc)
sim = Simulation(SimConfig(n=4))
sim._push(1, simnet._PRIO_DELIVER, 0, 0, "dlv ", None)
try:
    sim.run()
except SimulationError as exc:
    print("event:", exc)
try:
    Simulation(SimConfig(n=4)).send(0, 1, object(), 0)
except TypeError as exc:
    print("serialise:", exc)
simnet.validate_qc = lambda *args: False
try:
    Simulation(SimConfig(n=4, stop="horizon", horizon=30)).run()
except SimulationError as exc:
    print("invalid:", exc)
"""


def test_protocol_checks_survive_python_O():
    src = str(Path(simnet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 6, done.stdout
    assert lines[0].startswith("forged: processor 0 cannot send processor 1's signature")
    assert lines[1].startswith("payload: unhandled payload <object object")
    assert lines[2].startswith("action: unhandled action <object object")
    assert lines[3] == "event: unhandled event kind 'dlv '"
    assert lines[4].startswith("serialise: cannot serialise payload <object object")
    assert lines[5].startswith("invalid: sent QuorumCertificate")

"""Behavioral checks for the Byzantine strategy catalog, observed via traces."""

import pytest

from viewsync.adversary import BYZANTINE_STRATEGIES, PASSIVE_STRATEGIES, ByzantineControl
from viewsync.metrics import analyze
from viewsync.simnet import Corruption, SimConfig, Simulation


def run_with(strategy, *, proc=0, when=0, n=4, **kw):
    base = dict(
        n=n,
        delta_cap=2,
        gst=0,
        offsets="all_zero",
        network="worst_case_max_delay",
        corruptions=(Corruption(proc, strategy, when),),
    )
    base.update(kw)
    return Simulation(SimConfig(**base)).run()


def sends_from(records, proc, *, after=None):
    out = []
    for seq, r in enumerate(records):
        if r["kind"] == "send" and r["sender"] == proc:
            if after is None or seq > after:
                out.append(r)
    return out


def test_catalog_is_closed():
    assert len(BYZANTINE_STRATEGIES) == 6
    assert PASSIVE_STRATEGIES < set(BYZANTINE_STRATEGIES)
    import random

    with pytest.raises(ValueError):
        ByzantineControl(0, "helpful", 4, random.Random(0))


def test_every_strategy_yields_a_conforming_run():
    for strategy in BYZANTINE_STRATEGIES:
        records = run_with(strategy)
        assert analyze(records).violations == [], strategy


def test_silent_processor_stops_sending():
    records = run_with("silent")
    corrupt_seq = next(i for i, r in enumerate(records) if r["kind"] == "corrupt")
    assert sends_from(records, 0, after=corrupt_seq) == []


def test_early_signer_floods_boundary_view_messages():
    records = run_with("early_signer")
    corrupt_seq = next(i for i, r in enumerate(records) if r["kind"] == "corrupt")
    flood = sends_from(records, 0, after=corrupt_seq)
    assert flood, "flood expected at corruption time"
    views = {r["payload"]["view"] for r in flood}
    assert all(r["payload"]["type"] == "view_message" for r in flood)
    assert all(v % 3 == 0 for v in views)
    assert len(views) > 1


def test_vote_stuffer_floods_votes_for_every_view():
    records = run_with("vote_stuffer")
    corrupt_seq = next(i for i, r in enumerate(records) if r["kind"] == "corrupt")
    flood = sends_from(records, 0, after=corrupt_seq)
    assert flood and all(r["payload"]["type"] == "vote" for r in flood)
    views = {r["payload"]["view"] for r in flood}
    assert {0, 1, 2} <= views


def test_crash_leader_suppresses_leader_output_only():
    records = run_with("crash_leader")
    # processor 0 leads views 0..2 but never proposes or certifies
    for r in sends_from(records, 0):
        assert r["payload"]["type"] in ("view_message", "vote")
    assert all(r["proc"] != 0 for r in records if r["kind"] in ("form_vc", "form_qc"))


def test_selective_vc_narrows_certificate_broadcast():
    # corrupt the leader of the group after gst so it forms a VC to filter
    records = run_with("selective_vc", proc=1, when=0, n=4, gst=20)
    vc_sends = [
        r
        for r in sends_from(records, 1)
        if r["payload"]["type"] == "view_certificate"
    ]
    if vc_sends:  # strategy only bites when a VC actually formed
        recipients = {q for r in vc_sends for q in r["recipients"]}
        assert len(recipients) < 4


def test_late_qc_relayer_delays_certificate_broadcast():
    records = run_with("late_qc_relayer", proc=0, stop="horizon", horizon=60)
    qc_sends = [r for r in sends_from(records, 0) if r["payload"]["type"] == "quorum_certificate"]
    forms = [r for r in records if r["kind"] == "form_qc" and r["proc"] == 0]
    if forms and qc_sends:
        held = min(s["time"] for s in qc_sends) - forms[0]["time"]
        assert held >= 2 * records[0]["grid"]  # at least the network cap
    wakes = [r for r in records if r["kind"] == "wake" and r["proc"] == 0]
    assert forms == [] or wakes, "stashed certificates release via scheduled wakes"


def test_corruption_strategies_are_per_processor_deterministic():
    a = run_with("selective_vc", proc=1, n=7, gst=10)
    b = run_with("selective_vc", proc=1, n=7, gst=10)
    assert a == b

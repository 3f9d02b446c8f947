"""Behavioral checks for the Byzantine strategy catalog, observed via traces."""

import pytest

from viewsync import simnet
from viewsync.adversary import BYZANTINE_STRATEGIES, PASSIVE_STRATEGIES, ByzantineControl
from viewsync.certificates import SIGN_VIEW, SIGN_VOTE, QuorumCertificate, SignatureLedger
from viewsync.core import Send
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


# -- where the host applies a strategy -----------------------------------------


def test_the_ledger_records_each_signed_send_once(monkeypatch):
    # Simulation.send is the ledger's one writer, the floods included
    calls = []
    record = SignatureLedger.record

    def counted(self, *entry):
        calls.append(entry)
        return record(self, *entry)

    monkeypatch.setattr(SignatureLedger, "record", counted)
    records = Simulation(
        SimConfig(
            n=7,
            delta_cap=2,
            corruptions=(Corruption(1, "early_signer", 0), Corruption(2, "vote_stuffer", 5)),
            stop="horizon",
            horizon=40,
        )
    ).run()
    kinds = {"view_message": SIGN_VIEW, "vote": SIGN_VOTE}
    signed = [
        (r["sender"], kinds[r["payload"]["type"]], r["payload"]["view"])
        for r in records
        if r["kind"] == "send" and r["payload"]["type"] in kinds
    ]
    assert {(p, kind) for p, kind, _view in signed} >= {(1, SIGN_VIEW), (2, SIGN_VOTE)}
    assert calls == signed


# the handlers the host calls by their names in simnet, each with its state first
HANDLERS = (
    "on_clock_reaches",
    "on_view_message",
    "on_qc",
    "on_vc",
    "on_enter_view",
    "on_proposal",
    "on_vote",
)


def watched_run(monkeypatch, corruption, **kw):
    """Run one corruption, keeping each action list a handler makes, as
    (handler, processor, corrupted then, list), and each list ``transform``
    is given, as (processor, list)."""
    sim = Simulation(SimConfig(n=4, delta_cap=2, corruptions=(corruption,), **kw))
    made, transformed = [], []
    for name in HANDLERS:

        def watched(state, *args, _name=name, _handler=getattr(simnet, name)):
            actions = _handler(state, *args)
            made.append((_name, state.id, sim.corrupted[state.id], actions))
            return actions

        monkeypatch.setattr(simnet, name, watched)
    transform = ByzantineControl.transform

    def watched_transform(self, actions, host, now):
        transformed.append((self.proc, actions))
        return transform(self, actions, host, now)

    monkeypatch.setattr(ByzantineControl, "transform", watched_transform)
    sim.run()
    return sim, made, transformed


ACTIVE = sorted(set(BYZANTINE_STRATEGIES) - PASSIVE_STRATEGIES)


@pytest.mark.parametrize("when", [0, 5])
@pytest.mark.parametrize("strategy", ACTIVE)
def test_every_list_of_an_active_processor_passes_through_transform_once(
    monkeypatch, strategy, when
):
    sim, made, transformed = watched_run(
        monkeypatch, Corruption(0, strategy, when), stop="horizon", horizon=60
    )
    lists = [actions for _name, p, corrupted, actions in made if corrupted and actions]
    assert lists
    # by identity, so each list once: every made list is kept alive in made
    assert sorted(map(id, lists)) == sorted(id(actions) for _p, actions in transformed)
    assert {p for p, _actions in transformed} == {0}
    assert sim.silent == [False] * 4


@pytest.mark.parametrize("strategy", ACTIVE)
def test_no_threshold_or_delivered_quorum_certificate_makes_a_qc_send(monkeypatch, strategy):
    # so transforming such a list after its event is recorded, its next
    # threshold queued or the certificate shown to the strategy stashes nothing
    _sim, made, _transformed = watched_run(
        monkeypatch, Corruption(0, strategy, 0), stop="horizon", horizon=60
    )
    assert {"on_clock_reaches", "on_qc"} <= {name for name, *_rest in made}
    for name, _p, _corrupted, actions in made:
        if name in ("on_clock_reaches", "on_qc"):
            assert not any(
                type(a) is Send and type(a.payload) is QuorumCertificate for a in actions
            ), (name, actions)


@pytest.mark.parametrize("when", [0, 5])
@pytest.mark.parametrize("strategy", sorted(PASSIVE_STRATEGIES))
def test_a_silent_processors_lists_never_pass_through_transform(monkeypatch, strategy, when):
    sim, made, transformed = watched_run(
        monkeypatch, Corruption(0, strategy, when), stop="horizon", horizon=60
    )
    assert sim.silent == [True, False, False, False]
    # no handler runs for it once it is corrupted, and nothing is transformed
    assert [entry for entry in made if entry[1] == 0 and entry[2]] == []
    assert any(p == 0 for _name, p, _corrupted, _actions in made) == (when > 0)
    assert transformed == []

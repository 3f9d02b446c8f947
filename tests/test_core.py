"""Frozen examples and properties for the per-processor synchroniser handlers."""

import copy
from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsync import core, simnet
from viewsync.adversary import BYZANTINE_STRATEGIES
from viewsync.certificates import QuorumCertificate, ViewCertificate, ViewMessage
from viewsync.core import (
    ALL,
    EnterView,
    ForwardClock,
    FormVC,
    PermutationSchedule,
    ProcessorState,
    ProtocolParams,
    RoundRobinSchedule,
    Send,
    clock_time,
    is_boundary,
    leader_of,
    on_clock_reaches,
    on_qc,
    on_vc,
    on_view_message,
    view_at,
)
from viewsync.simnet import NETWORK_STRATEGIES, Corruption, SimConfig, Simulation
from viewsync.underlying import (
    FormQC,
    Proposal,
    UnderlyingState,
    Vote,
    on_enter_view,
    on_proposal,
    on_vote,
)


def params(n=4, t=1, k=3, gamma=6, schedule=None):
    return ProtocolParams(n, t, k, gamma, schedule or RoundRobinSchedule(n))


# -- schedule arithmetic ------------------------------------------------------


def test_clock_time_values():
    p = params(gamma=6)
    assert clock_time(0, p) == 0
    assert clock_time(4, p) == 24
    p25 = params(gamma=Fraction(5, 2))
    assert clock_time(3, p25) == Fraction(15, 2)


def test_view_at_inverts_clock_time():
    p = params(gamma=6)
    assert view_at(24, p) == 4
    with pytest.raises(ValueError):
        view_at(25, p)


def test_leader_round_robin():
    p = params(n=4, k=3)
    assert leader_of(0, p) == 0
    assert leader_of(7, p) == 2
    assert leader_of(12, p) == 0


@pytest.mark.parametrize("schedule", ["round_robin", "permutation"])
def test_leader_of_is_the_schedules_leader_in_any_query_order(schedule):
    # leader_of keeps each view's leader on params; asked out of order, twice
    # over, it still gives the leader of the view's group
    def make():
        return RoundRobinSchedule(5) if schedule == "round_robin" else PermutationSchedule(5, 7)

    p = params(n=5, k=3, schedule=make())
    views = [40, 0, 17, 3, 39, 41, 2, 100, 17, 0, 58]
    got = [leader_of(v, p) for v in views * 2]
    reference = make()
    assert got == [reference.leader_for_group(v // 3) for v in views * 2]
    assert p.leaders == {v: reference.leader_for_group(v // 3) for v in views}


def test_leader_of_a_negative_view_is_refused_every_time():
    p = params()
    for _ in range(2):
        with pytest.raises(ValueError, match="negative view -3"):
            leader_of(-3, p)
    assert -3 not in p.leaders


def test_boundary_views():
    p = params(k=3)
    assert [v for v in range(7) if is_boundary(v, p)] == [0, 3, 6]


def test_permutation_schedule_deterministic_and_uniform_blocks():
    a = PermutationSchedule(5, seed=42)
    b = PermutationSchedule(5, seed=42)
    got = [a.leader_for_group(g) for g in range(20)]
    assert got == [b.leader_for_group(g) for g in range(20)]
    # every block of n groups is a permutation of the ids
    for i in range(0, 20, 5):
        assert sorted(got[i : i + 5]) == list(range(5))


# -- boundary-threshold handler -----------------------------------------------


def test_clock_reaches_sends_view_message():
    p = params()
    st_ = ProcessorState(id=1, clock=18, view=0)
    acts = on_clock_reaches(st_, 18, p)
    assert st_.view == 3
    assert acts == [EnterView(3), Send(leader_of(3, p), ViewMessage(3, 1))]


# runs over the host's every path to a boundary and a view entry: thresholds
# and forwards under every network, drifting clocks, dispersed offsets, and
# each strategy corrupting a processor, from the start or mid-run
HOST_RUNS = [
    SimConfig(n=4, delta_cap=2, network=network, delta_actual="1/2", gst=5, offsets=offsets,
              stop="horizon", horizon=80, seed=3)
    for network in NETWORK_STRATEGIES
    for offsets in ("all_zero", "adversarial_spread")
] + [
    SimConfig(n=7, delta_cap=2, gst=3, offsets="adversarial_spread", network="uniform_random",
              corruptions=[Corruption(c, strategy, time)], stop="horizon", horizon=60, seed=c)
    for c, strategy in enumerate(BYZANTINE_STRATEGIES)
    for time in (0, 7)
] + [
    SimConfig(n=4, delta_cap=1, drift_epsilon="1/10", drift_rates=["1", "11/10", "9/10", "1"],
              offsets="adversarial_spread", stop="horizon", horizon=60),
]


def host_calls(monkeypatch, config):
    """Run config with the host's boundary and view-entry calls recorded:
    (id, boundary, view at the call, boundary's view) per fired boundary,
    (id, view) per entered view, and the run's records."""
    fired, entered = [], []

    def reaches(state, c, params):
        fired.append((state.id, c, state.view, c // params.gamma))
        return on_clock_reaches(state, c, params)

    def enter(state, sub, view, params):
        entered.append((state.id, view))
        return on_enter_view(state, sub, view, params)

    with monkeypatch.context() as m:
        for module in (core, simnet):
            m.setattr(module, "on_clock_reaches", reaches)
        m.setattr(simnet, "on_enter_view", enter)
        records = Simulation(config).run()
    return fired, entered, records


def test_clock_reaches_stale_boundary_noop(monkeypatch):
    """on_clock_reaches keeps no stale-boundary no-op: the host never fires
    a boundary below its processor's view, since a forward bumps the gen
    that its queued threshold carries."""
    for config in HOST_RUNS:
        fired, _, _ = host_calls(monkeypatch, config)
        assert fired
        for pid, c, view, boundary_view in fired:
            assert view <= boundary_view, (pid, c, view)


def test_clock_reaches_fires_at_most_once(monkeypatch):
    """The host fires each boundary of a processor once and enters each view
    once: what on_clock_reaches and on_enter_view no longer guard against
    themselves."""
    for config in HOST_RUNS:
        fired, entered, records = host_calls(monkeypatch, config)
        assert fired and entered
        boundaries = [(pid, c) for pid, c, _, _ in fired]
        assert len(boundaries) == len(set(boundaries))
        assert len(entered) == len(set(entered))
        views = [
            (r["sender"], r["payload"]["view"])
            for r in records
            if r["kind"] == "send" and r["payload"]["type"] == "view_message"
        ]
        assert len(views) == len(set(views))  # one view message per boundary view


def test_clock_reaches_rejects_off_schedule():
    p = params()
    with pytest.raises(ValueError):
        on_clock_reaches(ProcessorState(id=0, clock=12, view=0), 12, p)  # view 2 not boundary
    with pytest.raises(ValueError):
        on_clock_reaches(ProcessorState(id=0, clock=17, view=0), 18, p)  # clock not there


def test_own_boundary_message_goes_to_self():
    p = params()
    st_ = ProcessorState(id=0, clock=0, view=0)
    acts = on_clock_reaches(st_, 0, p)
    assert acts == [Send(0, ViewMessage(0, 0))]  # view 0 entry: no EnterView at start


# -- quorum-certificate handler -----------------------------------------------


def test_qc_forwards_clock_and_view():
    p = params()
    st_ = ProcessorState(id=0, clock=5, view=1)
    acts = on_qc(st_, QuorumCertificate(1, (0, 1, 2)), p)
    assert st_.view == 2 and st_.clock == 12
    assert acts == [ForwardClock(12), EnterView(2)]


def test_qc_no_forward_when_ahead():
    p = params()
    st_ = ProcessorState(id=0, clock=20, view=1)
    acts = on_qc(st_, QuorumCertificate(1, (0, 1, 2)), p)
    assert st_.view == 2 and st_.clock == 20
    assert acts == [EnterView(2)]


def test_qc_landing_on_boundary_sends_view_message():
    p = params()
    st_ = ProcessorState(id=1, clock=11, view=2)
    acts = on_qc(st_, QuorumCertificate(2, (0, 1, 2)), p)
    assert st_.view == 3 and st_.clock == 18
    assert acts == [
        ForwardClock(18),
        EnterView(3),
        Send(leader_of(3, p), ViewMessage(3, 1)),
    ]


def test_qc_replay_is_noop():
    p = params()
    st_ = ProcessorState(id=0, clock=5, view=1)
    on_qc(st_, QuorumCertificate(1, (0, 1, 2)), p)
    snap = copy.deepcopy(st_)
    assert on_qc(st_, QuorumCertificate(1, (0, 1, 2)), p) == []
    assert st_ == snap


def test_stale_qc_still_forwards_clock():
    # Forwarding applies to any first-seen certificate; view change only when
    # qc.view >= current view.
    p = params()
    st_ = ProcessorState(id=0, clock=5, view=4)
    acts = on_qc(st_, QuorumCertificate(1, (0, 1, 2)), p)
    assert st_.view == 4 and st_.clock == 12
    assert acts == [ForwardClock(12)]


def test_qc_tracks_highest_seen():
    # below the view and behind the clock, a certificate and its repeat are
    # no-ops: no record of what was seen is needed to tell
    p = params()
    st_ = ProcessorState(id=0, clock=100, view=5)
    snap = copy.deepcopy(st_)
    for view in (4, 1, 4):
        assert on_qc(st_, QuorumCertificate(view, (0, 1, 2)), p) == []
        assert st_ == snap


# -- view-certificate handler -------------------------------------------------


def test_vc_enters_and_forwards():
    p = params()
    st_ = ProcessorState(id=1, clock=2, view=0)
    acts = on_vc(st_, ViewCertificate(3, (0, 2)), p)
    assert st_.view == 3 and st_.clock == 18
    assert acts == [
        EnterView(3),
        ForwardClock(18),
        Send(leader_of(3, p), ViewMessage(3, 1)),
    ]


def test_vc_stale_noop():
    p = params()
    st_ = ProcessorState(id=0, clock=40, view=6)
    assert on_vc(st_, ViewCertificate(3, (0, 2)), p) == []
    assert st_.view == 6


def test_vc_no_forward_when_ahead():
    p = params()
    st_ = ProcessorState(id=0, clock=19, view=0)
    acts = on_vc(st_, ViewCertificate(3, (0, 2)), p)
    assert st_.view == 3 and st_.clock == 19
    # clock never landed on 18, so no view message goes out
    assert acts == [EnterView(3)]


def test_vc_non_boundary_rejected():
    p = params()
    with pytest.raises(ValueError):
        on_vc(ProcessorState(id=0), ViewCertificate(4, (0, 2)), p)


def test_vc_does_not_resend_view_message():
    # the clock reached view 3's boundary and sent its view message; a view
    # certificate for view 3 then finds the view entered and does nothing
    p = params()
    st_ = ProcessorState(id=1, clock=18, view=0)
    assert on_clock_reaches(st_, 18, p) == [EnterView(3), Send(leader_of(3, p), ViewMessage(3, 1))]
    assert on_vc(st_, ViewCertificate(3, (0, 2)), p) == []


# -- leader-side view-message collection ---------------------------------------


def test_leader_forms_vc_at_t_plus_1():
    p = params()
    st_ = ProcessorState(id=1, clock=18, view=3)  # lead(3) = 1
    assert on_view_message(st_, ViewMessage(3, 0), p) == []
    acts = on_view_message(st_, ViewMessage(3, 2), p)
    vc = ViewCertificate(3, (0, 2))
    assert acts == [FormVC(vc), Send(ALL, vc)]


def test_leader_ignores_duplicate_signer():
    p = params()
    st_ = ProcessorState(id=1, clock=18, view=3)
    on_view_message(st_, ViewMessage(3, 0), p)
    assert on_view_message(st_, ViewMessage(3, 0), p) == []
    assert st_.collected_view_msgs[3] == [0]


def test_leader_forms_no_second_vc():
    p = params()
    st_ = ProcessorState(id=1, clock=18, view=3)
    on_view_message(st_, ViewMessage(3, 0), p)
    on_view_message(st_, ViewMessage(3, 2), p)
    assert on_view_message(st_, ViewMessage(3, 3), p) == []
    assert on_view_message(st_, ViewMessage(3, 1), p) == []
    # certificate carries exactly the first t+1 signers
    assert st_.collected_view_msgs[3] == [0, 2, 3, 1]


def test_non_leader_ignores_view_messages():
    p = params()
    st_ = ProcessorState(id=2, clock=18, view=3)
    assert on_view_message(st_, ViewMessage(3, 0), p) == []
    assert st_.collected_view_msgs == {}


def test_leader_accepts_future_view_messages():
    p = params(n=4, k=3)
    st_ = ProcessorState(id=0, clock=0, view=0)  # also lead(12)
    assert on_view_message(st_, ViewMessage(12, 2), p) == []
    assert st_.collected_view_msgs[12] == [2]


def test_leader_drops_messages_below_current_view():
    p = params(n=4, k=3)
    st_ = ProcessorState(id=0, clock=80, view=13)
    assert on_view_message(st_, ViewMessage(12, 2), p) == []
    assert st_.collected_view_msgs == {}


@st.composite
def _arrivals(draw):
    """A group size n >= 2, a resilience t < n/3, and any order of arrivals
    from signers 0 to n-1, repeats included."""
    n = draw(st.integers(2, 31))
    t = draw(st.integers(0, (n - 1) // 3))
    return n, t, draw(st.lists(st.integers(0, n - 1), max_size=3 * n))


def _first_reaching(arrivals, need):
    """The arrival index at which the need-th distinct signer arrives, and
    the first need distinct signers; None and [] if fewer ever arrive."""
    distinct = []
    for i, signer in enumerate(arrivals):
        if signer not in distinct:
            distinct.append(signer)
            if len(distinct) == need:
                return i, distinct
    return None, []


@given(_arrivals())
def test_on_view_message_forms_one_vc_at_the_t_plus_1th_distinct_signer(run):
    n, t, arrivals = run
    p = params(n=n, t=t)
    st_ = ProcessorState(id=leader_of(3, p), clock=18, view=3)
    formed = [
        (i, acts)
        for i, signer in enumerate(arrivals)
        if (acts := on_view_message(st_, ViewMessage(3, signer), p))
    ]
    at, first = _first_reaching(arrivals, t + 1)
    vc = ViewCertificate(3, tuple(sorted(first)))
    assert formed == ([] if at is None else [(at, [FormVC(vc), Send(ALL, vc)])])


@given(_arrivals())
def test_on_vote_forms_one_qc_at_the_n_minus_t_th_distinct_signer(run):
    # the underlying round's leader, by the same rule
    n, t, arrivals = run
    p = params(n=n, t=t)
    st_, sub = ProcessorState(id=leader_of(5, p), clock=30, view=5), UnderlyingState()
    formed = [
        (i, acts)
        for i, signer in enumerate(arrivals)
        if (acts := on_vote(st_, sub, Vote(5, signer), p))
    ]
    at, first = _first_reaching(arrivals, n - t)
    qc = QuorumCertificate(5, tuple(sorted(first)))
    assert formed == ([] if at is None else [(at, [FormQC(qc), Send(ALL, qc)])])


# -- properties ---------------------------------------------------------------


qcs = st.integers(0, 40).map(lambda v: QuorumCertificate(v, (0, 1, 2)))
vcs = st.integers(0, 13).map(lambda v: ViewCertificate(3 * v, (0, 2)))
msgs = st.tuples(st.integers(0, 13), st.integers(0, 3)).map(
    lambda a: ViewMessage(3 * a[0], a[1])
)


@given(st.lists(st.one_of(qcs, vcs, msgs), max_size=60))
def test_view_and_clock_never_regress(events):
    p = params()
    st_ = ProcessorState(id=1, clock=0, view=0)
    for ev in events:
        before = (st_.view, st_.clock)
        if isinstance(ev, QuorumCertificate):
            on_qc(st_, ev, p)
        elif isinstance(ev, ViewCertificate):
            on_vc(st_, ev, p)
        else:
            on_view_message(st_, ev, p)
        assert st_.view >= before[0]
        assert st_.clock >= before[1]


@given(st.lists(st.one_of(qcs, vcs), max_size=40))
def test_replaying_inputs_is_pure(events):
    p = params()
    a = ProcessorState(id=1, clock=0, view=0)
    b = ProcessorState(id=1, clock=0, view=0)
    out_a, out_b = [], []
    for ev in events:
        handler = on_qc if isinstance(ev, QuorumCertificate) else on_vc
        out_a.extend(handler(a, ev, p))
    for ev in events:
        handler = on_qc if isinstance(ev, QuorumCertificate) else on_vc
        out_b.extend(handler(b, ev, p))
    assert a == b
    assert out_a == out_b


@given(st.lists(st.one_of(qcs, vcs), max_size=40))
def test_at_most_one_view_message_per_boundary(events):
    p = params()
    st_ = ProcessorState(id=1, clock=0, view=0)
    sent = []
    for ev in events:
        handler = on_qc if isinstance(ev, QuorumCertificate) else on_vc
        for act in handler(st_, ev, p):
            if isinstance(act, Send) and isinstance(act.payload, ViewMessage):
                sent.append(act.payload.view)
    assert len(sent) == len(set(sent))
    # signing discipline: the clock sat exactly on the view's start at emission
    for v in sent:
        assert clock_time(v, p) <= st_.clock


# -- one replay rule: views and clocks only move forward -----------------------
# The handlers as they were when per-view sets also recorded each certificate
# seen or formed (seen_qcs, seen_vcs, formed_vcs, and the underlying round's
# formed_qcs), each boundary's view message sent (sent_view_msgs, with the
# stale-boundary guard beside it) and each view proposed in (proposed). The
# property below drives them and the handlers side by side through the same
# deliveries, under a host that moves the clock forward, fires each boundary
# once as the clock reaches it from below and enters each view once, as the
# simulator does, and requires the same actions and state.


@dataclass(slots=True)
class _SetState(ProcessorState):
    sent_view_msgs: set = field(default_factory=set)
    formed_vcs: set = field(default_factory=set)
    seen_qcs: set = field(default_factory=set)
    seen_vcs: set = field(default_factory=set)


@dataclass(slots=True)
class _SetSub(UnderlyingState):
    proposed: set = field(default_factory=set)
    formed_qcs: set = field(default_factory=set)


def _set_on_clock_reaches(state, c, params):
    v = view_at(c, params)
    if not is_boundary(v, params):
        raise ValueError(f"view {v} is not a boundary view")
    if state.clock != c:
        raise ValueError(f"clock {state.clock} not on boundary {c}")
    if v < state.view or v in state.sent_view_msgs:
        return []
    actions = []
    if v > state.view:
        state.view = v
        actions.append(EnterView(v))
    state.sent_view_msgs.add(v)
    actions.append(Send(leader_of(v, params), ViewMessage(v, state.id)))
    return actions


def _set_on_enter_view(state, sub, view, params):
    actions = []
    if state.id == leader_of(view, params) and view not in sub.proposed:
        sub.proposed.add(view)
        actions.append(Send(ALL, Proposal(view, state.id)))
    held = sub.buffered.pop(view, None)
    if held is not None:
        actions.extend(on_proposal(state, sub, held, params))
    return actions


def _set_on_qc(state, qc, params):
    if qc.view in state.seen_qcs:
        return []
    state.seen_qcs.add(qc.view)
    target = qc.view + 1
    start = clock_time(target, params)
    actions = []
    landed = False
    if state.clock < start:
        state.clock = start
        landed = True
        actions.append(ForwardClock(start))
    if qc.view >= state.view:
        if target > state.view:
            state.view = target
            actions.append(EnterView(target))
        if landed and is_boundary(target, params):
            actions.extend(_set_on_clock_reaches(state, start, params))
    return actions


def _set_on_vc(state, vc, params):
    if not is_boundary(vc.view, params):
        raise ValueError(f"view certificate for non-boundary view {vc.view}")
    if vc.view in state.seen_vcs:
        return []
    state.seen_vcs.add(vc.view)
    if vc.view <= state.view:
        return []
    start = clock_time(vc.view, params)
    state.view = vc.view
    actions = [EnterView(vc.view)]
    if state.clock < start:
        state.clock = start
        actions.append(ForwardClock(start))
        actions.extend(_set_on_clock_reaches(state, start, params))
    return actions


def _set_on_view_message(state, msg, params):
    if state.id != leader_of(msg.view, params):
        return []
    if msg.view < state.view:
        return []
    got = state.collected_view_msgs.setdefault(msg.view, [])
    if msg.signer in got:
        return []
    got.append(msg.signer)
    if len(got) == params.t + 1 and msg.view not in state.formed_vcs:
        state.formed_vcs.add(msg.view)
        vc = ViewCertificate(msg.view, tuple(sorted(got)))
        return [FormVC(vc), Send(ALL, vc)]
    return []


def _set_on_vote(state, sub, vote, params):
    if state.id != leader_of(vote.view, params):
        return []
    got = sub.votes.setdefault(vote.view, [])
    if vote.signer in got:
        return []
    got.append(vote.signer)
    if len(got) == params.n - params.t and vote.view not in sub.formed_qcs:
        sub.formed_qcs.add(vote.view)
        qc = QuorumCertificate(vote.view, tuple(sorted(got)))
        return [FormQC(qc), Send(ALL, qc)]
    return []


# event kind -> handler(state, sub, input, params), for each version
_HANDLERS = {
    "boundary": lambda state, sub, c, p: on_clock_reaches(state, c, p),
    "enter": on_enter_view,
    "qc": lambda state, sub, qc, p: on_qc(state, qc, p),
    "vc": lambda state, sub, vc, p: on_vc(state, vc, p),
    "view_message": lambda state, sub, msg, p: on_view_message(state, msg, p),
    "vote": on_vote,
    "proposal": on_proposal,
}
_SET_HANDLERS = {
    "boundary": lambda state, sub, c, p: _set_on_clock_reaches(state, c, p),
    "enter": _set_on_enter_view,
    "qc": lambda state, sub, qc, p: _set_on_qc(state, qc, p),
    "vc": lambda state, sub, vc, p: _set_on_vc(state, vc, p),
    "view_message": lambda state, sub, msg, p: _set_on_view_message(state, msg, p),
    "vote": _set_on_vote,
    "proposal": on_proposal,
}


class _Host:
    """One processor's handlers, driven as the simulator drives them: its
    boundary fires once, when the clock reaches it from below (or starts on
    it), a forward queues the next boundary above its target, and each
    EnterView enters its view at once; the start view is entered once."""

    def __init__(self, state, sub, handlers, params):
        self.state, self.sub, self.handlers, self.params = state, sub, handlers, params
        self.period = params.k * params.gamma
        self.next = -(-state.clock // self.period) * self.period  # the queued boundary
        self.log = []  # every action, in the order the host performs it
        self.deliver("enter", state.view)

    def deliver(self, kind, payload):
        self.perform(self.handlers[kind](self.state, self.sub, payload, self.params))

    def perform(self, actions):
        for act in actions:
            self.log.append(act)
            if type(act) is ForwardClock:
                self.next = (act.to // self.period + 1) * self.period
            elif type(act) is EnterView:
                self.deliver("enter", act.view)

    def tick(self, d):
        """The clock moves d forward, or fires the boundary it passes."""
        if self.state.clock + d > self.next:
            self.fire()
        else:
            self.state.clock += d

    def fire(self):
        self.state.clock, self.next = self.next, self.next + self.period
        self.deliver("boundary", self.state.clock)


@st.composite
def _replay_runs(draw):
    n = draw(st.sampled_from((4, 7)))
    k = draw(st.sampled_from((3, 4)))
    views = st.integers(0, 2 * k)  # few views, so that signers pile up past a quorum
    # a run of deliveries for one view (see _deliveries)
    signed = st.tuples(st.sampled_from(("view_message", "vote")), views, st.integers(1, n + 1))
    event = st.one_of(
        st.tuples(st.just("tick"), st.integers(0, 20)),
        st.tuples(st.just("boundary")),
        st.tuples(st.just("qc"), views),
        st.tuples(st.just("vc"), st.integers(0, 2).map(lambda j: j * k)),
        st.tuples(st.just("proposal"), views),
        # drawn more often than a certificate, which may leave the views behind
        signed,
        signed,
        signed,
        signed,
    )
    clock = draw(st.integers(0, 30))
    # processors 0 to 2 lead the views drawn from; the view's start is at or
    # below the clock (gamma is 6), as the host keeps it
    start = (draw(st.integers(0, 2)), clock, draw(st.integers(0, clock // 6)))
    return n, k, start, draw(st.lists(event, min_size=20, max_size=80))


def _deliveries(n, events):
    """The events, with each run of signed messages for a view delivered one
    message at a time, from signers 0 to n-1 in turn and then from them again."""
    delivered = {}  # (kind, view) -> messages delivered so far
    for kind, *args in events:
        if kind in ("view_message", "vote"):
            view, count = args
            first = delivered.get((kind, view), 0)
            delivered[kind, view] = first + count
            for i in range(first, first + count):
                yield kind, view, i % n
        else:
            yield kind, *args


@settings(max_examples=200, deadline=None)
@given(_replay_runs())
def test_handlers_match_their_seen_set_versions(run):
    n, k, (pid, clock, view), events = run
    p = params(n=n, t=(n - 1) // 3, k=k)
    new = _Host(ProcessorState(pid, clock, view), UnderlyingState(), _HANDLERS, p)
    old = _Host(_SetState(pid, clock, view), _SetSub(), _SET_HANDLERS, p)
    for kind, *args in _deliveries(n, events):
        for host in (new, old):
            if kind == "tick":
                host.tick(args[0])
            elif kind == "boundary":
                host.fire()
            elif kind == "qc":
                host.deliver(kind, QuorumCertificate(args[0], tuple(range(n - p.t))))
            elif kind == "vc":
                host.deliver(kind, ViewCertificate(args[0], tuple(range(p.t + 1))))
            elif kind == "proposal":
                host.deliver(kind, Proposal(args[0], leader_of(args[0], p)))
            else:
                host.deliver(kind, (ViewMessage if kind == "view_message" else Vote)(*args))
        assert new.log == old.log
        assert (new.state.view, new.state.clock) == (old.state.view, old.state.clock)
        assert new.state.collected_view_msgs == old.state.collected_view_msgs
        assert (new.sub.votes, new.sub.voted, new.sub.buffered) == (
            old.sub.votes, old.sub.voted, old.sub.buffered
        )

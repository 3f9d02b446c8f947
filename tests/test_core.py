"""Frozen examples and properties for the per-processor synchroniser handlers."""

import copy
from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewsync.certificates import (
    QuorumCertificate,
    ViewCertificate,
    ViewMessage,
    form_qc,
    form_vc,
)
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
from viewsync.underlying import FormQC, UnderlyingState, Vote, on_vote


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


def test_params_validation():
    with pytest.raises(ValueError):
        params(n=3, t=1)  # 3t < n fails
    with pytest.raises(ValueError):
        params(k=2)
    with pytest.raises(ValueError):
        params(gamma=0)


# -- boundary-threshold handler -----------------------------------------------


def test_clock_reaches_sends_view_message():
    p = params()
    st_ = ProcessorState(id=1, clock=18, view=0)
    acts = on_clock_reaches(st_, 18, p)
    assert st_.view == 3
    assert acts == [EnterView(3), Send(leader_of(3, p), ViewMessage(3, 1))]
    assert 3 in st_.sent_view_msgs


def test_clock_reaches_stale_boundary_noop():
    p = params()
    st_ = ProcessorState(id=1, clock=18, view=5)
    assert on_clock_reaches(st_, 18, p) == []
    assert st_.view == 5


def test_clock_reaches_fires_at_most_once():
    p = params()
    st_ = ProcessorState(id=1, clock=18, view=3, sent_view_msgs={3})
    assert on_clock_reaches(st_, 18, p) == []


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
    p = params()
    st_ = ProcessorState(id=1, clock=2, view=0, sent_view_msgs={3})
    acts = on_vc(st_, ViewCertificate(3, (0, 2)), p)
    assert acts == [EnterView(3), ForwardClock(18)]


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
# The four handlers as they were when per-view sets also recorded each
# certificate seen or formed (seen_qcs, seen_vcs, formed_vcs, and the
# underlying round's formed_qcs). The property below drives them and the
# handlers side by side through the same deliveries, with a clock that only
# moves forward as the host's does, and requires the same actions and state.


@dataclass(slots=True)
class _SetState(ProcessorState):
    formed_vcs: set = field(default_factory=set)
    seen_qcs: set = field(default_factory=set)
    seen_vcs: set = field(default_factory=set)


@dataclass(slots=True)
class _SetSub(UnderlyingState):
    formed_qcs: set = field(default_factory=set)


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
            actions.extend(on_clock_reaches(state, start, params))
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
        actions.extend(on_clock_reaches(state, start, params))
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
        vc = form_vc(msg.view, [ViewMessage(msg.view, s) for s in got], params.t)
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
        qc = form_qc(vote.view, [(vote.view, s) for s in got], params.n, params.t)
        return [FormQC(qc), Send(ALL, qc)]
    return []


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
        # drawn more often than a certificate, which may leave the views behind
        signed,
        signed,
        signed,
        signed,
    )
    clock = draw(st.integers(0, 30))
    # processors 0 to 2 lead the views drawn from; the clock is at or past the
    # view's start (gamma is 6), as the host keeps it
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
    new, old = ProcessorState(pid, clock, view), _SetState(pid, clock, view)
    new_sub, old_sub = UnderlyingState(), _SetSub()
    for kind, *args in _deliveries(n, events):
        if kind == "tick":  # the host moves the clock forward between events
            new.clock = old.clock = new.clock + args[0]
            continue
        if kind == "boundary":  # ... up to the next boundary, which fires
            period = k * p.gamma
            new.clock = old.clock = -(-new.clock // period) * period
            got = on_clock_reaches(new, new.clock, p), on_clock_reaches(old, old.clock, p)
        elif kind == "qc":
            qc = QuorumCertificate(args[0], tuple(range(n - p.t)))
            got = on_qc(new, qc, p), _set_on_qc(old, qc, p)
        elif kind == "vc":
            vc = ViewCertificate(args[0], tuple(range(p.t + 1)))
            got = on_vc(new, vc, p), _set_on_vc(old, vc, p)
        elif kind == "view_message":
            msg = ViewMessage(*args)
            got = on_view_message(new, msg, p), _set_on_view_message(old, msg, p)
        else:
            vote = Vote(*args)
            got = on_vote(new, new_sub, vote, p), _set_on_vote(old, old_sub, vote, p)
        assert got[0] == got[1]
        assert (new.view, new.clock) == (old.view, old.clock)
        assert new.collected_view_msgs == old.collected_view_msgs
        assert new.sent_view_msgs == old.sent_view_msgs
        assert new_sub.votes == old_sub.votes

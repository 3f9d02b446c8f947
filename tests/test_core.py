"""Frozen examples and properties for the per-processor synchroniser handlers."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    p = params()
    st_ = ProcessorState(id=0, clock=100, view=5)
    on_qc(st_, QuorumCertificate(4, (0, 1, 2)), p)
    on_qc(st_, QuorumCertificate(1, (0, 1, 2)), p)
    assert st_.seen_qcs == {1, 4} and st_.view == 5


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
    # certificate carries exactly the first t+1 signers
    assert st_.collected_view_msgs[3] == [0, 2, 3]
    assert st_.formed_vcs == {3}


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

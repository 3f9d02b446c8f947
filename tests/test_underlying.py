"""Propose/vote/certify round: buffering, thresholds, one QC per view."""

import pytest

from viewsync.certificates import QuorumCertificate
from viewsync.core import ALL, ProcessorState, ProtocolParams, RoundRobinSchedule, Send
from viewsync.underlying import (
    FormQC,
    Proposal,
    UnderlyingState,
    Vote,
    on_enter_view,
    on_proposal,
    on_vote,
)


@pytest.fixture
def p():
    return ProtocolParams(4, 1, 3, 6, RoundRobinSchedule(4))


def test_leader_proposes_on_entry(p):
    st = ProcessorState(id=0, view=0)
    sub = UnderlyingState()
    assert on_enter_view(st, sub, 0, p) == [Send(ALL, Proposal(0, 0))]
    # the host enters each view once, so nothing guards a re-entry here
    # (test_core.py::test_clock_reaches_fires_at_most_once pins the host)


def test_non_leader_entry_without_proposal_is_quiet(p):
    st = ProcessorState(id=2, view=0)
    assert on_enter_view(st, UnderlyingState(), 0, p) == []


def test_vote_when_in_view(p):
    st = ProcessorState(id=2, view=4)
    sub = UnderlyingState()
    assert on_proposal(st, sub, Proposal(4, 1), p) == [Send(1, Vote(4, 2))]
    # voted once; replay adds nothing
    assert on_proposal(st, sub, Proposal(4, 1), p) == []


def test_early_proposal_buffered_and_replayed(p):
    st = ProcessorState(id=2, view=2)
    sub = UnderlyingState()
    assert on_proposal(st, sub, Proposal(4, 1), p) == []
    assert sub.buffered[4] == Proposal(4, 1)
    st.view = 4
    assert on_enter_view(st, sub, 4, p) == [Send(1, Vote(4, 2))]
    assert 4 not in sub.buffered


def test_late_proposal_discarded(p):
    st = ProcessorState(id=2, view=6)
    sub = UnderlyingState()
    assert on_proposal(st, sub, Proposal(4, 1), p) == []
    assert not sub.buffered and not sub.voted


def test_proposal_from_wrong_leader_discarded(p):
    st = ProcessorState(id=2, view=4)
    assert on_proposal(st, UnderlyingState(), Proposal(4, 3), p) == []


def test_qc_at_exactly_n_minus_t(p):
    leader = ProcessorState(id=1, view=5)
    sub = UnderlyingState()
    assert on_vote(leader, sub, Vote(5, 0), p) == []
    assert on_vote(leader, sub, Vote(5, 1), p) == []
    acts = on_vote(leader, sub, Vote(5, 2), p)
    qc = QuorumCertificate(5, (0, 1, 2))
    assert acts == [FormQC(qc), Send(ALL, qc)]


def test_no_second_qc_per_view(p):
    leader = ProcessorState(id=1, view=5)
    sub = UnderlyingState()
    for s in (0, 1, 2):
        on_vote(leader, sub, Vote(5, s), p)
    assert on_vote(leader, sub, Vote(5, 3), p) == []


def test_votes_accumulate_per_view(p):
    leader = ProcessorState(id=0, view=0)
    sub = UnderlyingState()
    # three votes, but no view has n-t=3 distinct signers yet
    for vote in (Vote(0, 1), Vote(1, 2), Vote(0, 2)):
        assert on_vote(leader, sub, vote, p) == []
    assert sub.votes == {0: [1, 2], 1: [2]}


def test_duplicate_votes_ignored(p):
    leader = ProcessorState(id=1, view=5)
    sub = UnderlyingState()
    on_vote(leader, sub, Vote(5, 0), p)
    on_vote(leader, sub, Vote(5, 0), p)
    assert sub.votes[5] == [0]


def test_leader_accepts_votes_after_moving_on(p):
    # The leader raced to view 7; the round for view 5 still completes.
    leader = ProcessorState(id=1, view=7)
    sub = UnderlyingState()
    for s in (0, 2):
        on_vote(leader, sub, Vote(5, s), p)
    acts = on_vote(leader, sub, Vote(5, 3), p)
    qc = QuorumCertificate(5, (0, 2, 3))
    assert acts == [FormQC(qc), Send(ALL, qc)]


def test_non_leader_ignores_votes(p):
    st = ProcessorState(id=2, view=5)
    sub = UnderlyingState()
    assert on_vote(st, sub, Vote(5, 0), p) == []
    assert not sub.votes

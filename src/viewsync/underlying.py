"""Minimal propose/vote/certify round standing in for the underlying protocol.

One round per view: the view's leader broadcasts a proposal on entry, every
processor currently in that view votes once, and the leader aggregates n-t
distinct votes into a quorum certificate and broadcasts it. Three message hops
end to end, so a view completes within 3 * delta once a quorum of correct
processors occupies it under a correct leader. Payloads carry no content;
only certificate production matters here.

Proposals arriving ahead of the recipient's view are buffered and replayed on
entry; proposals for views already left are dropped. Votes are never buffered:
a correct processor votes only while the proposal's view is current.

A leader's list of distinct voters for a view only grows, so it reaches n-t
on one call, and one quorum certificate is formed per view led with no record
of it. Three fields hold what that rule does not give: ``proposed``, so that a
host that enters a view twice still sees one proposal, ``voted``, so that a
Byzantine leader's second proposal for a view gets no second vote, and
``buffered``, the early proposals; ``votes`` holds each led view's voters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certificates import QuorumCertificate, form_qc
from .core import ALL, Action, ProcessorState, ProtocolParams, Send, leader_of


@dataclass(frozen=True, slots=True)
class Proposal:
    view: int
    leader: int


@dataclass(frozen=True, slots=True)
class Vote:
    view: int
    signer: int


@dataclass(slots=True)
class FormQC:
    qc: QuorumCertificate


@dataclass(slots=True)
class UnderlyingState:
    """Per-processor round bookkeeping, separate from the synchroniser state;
    the module docstring says why each field is kept."""

    proposed: set[int] = field(default_factory=set)
    voted: set[int] = field(default_factory=set)
    buffered: dict[int, Proposal] = field(default_factory=dict)
    votes: dict[int, list[int]] = field(default_factory=dict)


def on_enter_view(
    state: ProcessorState, sub: UnderlyingState, view: int, params: ProtocolParams
) -> list[Action]:
    """Entry into a view by any path (clock, certificate, or protocol start)."""
    actions: list[Action] = []
    if state.id == leader_of(view, params) and view not in sub.proposed:
        sub.proposed.add(view)
        actions.append(Send(ALL, Proposal(view, state.id)))
    held = sub.buffered.pop(view, None)
    if held is not None:
        actions.extend(on_proposal(state, sub, held, params))
    return actions


def on_proposal(
    state: ProcessorState, sub: UnderlyingState, prop: Proposal, params: ProtocolParams
) -> list[Action]:
    """Vote if the proposal's view is current; buffer if early; drop if late."""
    if prop.leader != leader_of(prop.view, params):
        return []
    if state.view > prop.view:
        return []
    if state.view < prop.view:
        sub.buffered[prop.view] = prop
        return []
    if prop.view in sub.voted:
        return []
    sub.voted.add(prop.view)
    return [Send(prop.leader, Vote(prop.view, state.id))]


def on_vote(
    state: ProcessorState, sub: UnderlyingState, vote: Vote, params: ProtocolParams
) -> list[Action]:
    """Leader-side vote aggregation; fires at exactly n-t distinct signers.

    Votes count toward their view even after the leader has moved on, so a
    round still completes when the leader races ahead of its own quorum.
    """
    if state.id != leader_of(vote.view, params):
        return []
    got = sub.votes.setdefault(vote.view, [])
    if vote.signer in got:
        return []
    got.append(vote.signer)
    if len(got) == params.n - params.t:
        qc = form_qc(vote.view, [(vote.view, s) for s in got], params.n, params.t)
        return [FormQC(qc), Send(ALL, qc)]
    return []

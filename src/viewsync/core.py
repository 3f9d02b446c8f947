"""Clock-driven view synchronisation: per-processor state machine.

Views are grouped k per leader. Every view v has a start time on the local
clock, gamma * v, and views divisible by k are *boundary* views: a processor
whose clock lands exactly on a boundary view's start time enters it and sends
a signed view message to that view's leader. The leader aggregates t+1 such
messages into a view certificate and broadcasts it. Quorum certificates from
the underlying protocol advance processors view by view in between, and both
certificate kinds drag lagging clocks forward, never backward.

Handlers are deterministic functions of (state, input, params). They mutate
the state in place and return the actions the host must perform; they never
read a wall clock, draw randomness, or touch a network. The host owns time:
it sets state.clock to the current local reading before invoking a handler.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .certificates import (
    QuorumCertificate,
    ViewCertificate,
    ViewMessage,
    form_vc,
)

ALL = "*"  # broadcast recipient marker


class RoundRobinSchedule:
    """Leader groups assigned 0, 1, ..., n-1, 0, 1, ... in id order."""

    def __init__(self, n: int):
        self.n = n

    def leader_for_group(self, group: int) -> int:
        return group % self.n


class PermutationSchedule:
    """Leader groups assigned by successive seeded uniform permutations of the ids."""

    def __init__(self, n: int, seed: int):
        self.n = n
        self.seed = seed
        self._rng = random.Random(seed)
        self._order: list[int] = []

    def leader_for_group(self, group: int) -> int:
        while group >= len(self._order):
            block = list(range(self.n))
            self._rng.shuffle(block)
            self._order.extend(block)
        return self._order[group]


@dataclass(frozen=True)
class ProtocolParams:
    """Static parameters shared by every processor in one run.

    gamma is the view duration in clock units and must equal x * delta_cap for
    the underlying protocol's hop count x >= 2. k >= 3 is the number of
    consecutive views per leader; views divisible by k are boundary views.
    """

    n: int
    t: int
    k: int
    gamma: int
    schedule: RoundRobinSchedule | PermutationSchedule
    # view -> leader, filled by leader_of
    leaders: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1 or not 0 <= self.t or not 3 * self.t < self.n:
            raise ValueError(f"need 0 <= t < n/3, got n={self.n} t={self.t}")
        if self.k < 3:
            raise ValueError(f"need k >= 3, got {self.k}")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


def clock_time(view: int, params: ProtocolParams) -> int:
    """Local-clock start time of a view."""
    if view < 0:
        raise ValueError(f"negative view {view}")
    return params.gamma * view


def is_boundary(view: int, params: ProtocolParams) -> bool:
    """True for views that begin a leader group (entered on clock alone)."""
    return view % params.k == 0


def view_at(clock_value: int, params: ProtocolParams) -> int:
    """The view whose start time equals clock_value; error if none does."""
    q, r = divmod(clock_value, params.gamma)
    if r != 0 or q < 0:
        raise ValueError(f"clock value {clock_value} is not a view start time")
    return int(q)


def leader_of(view: int, params: ProtocolParams) -> int:
    """Leader id for a view: groups of k consecutive views share one leader.

    Each view's leader is asked of the schedule once and kept on ``params``,
    which the simulator and the analyzer each build once per run.
    """
    leader = params.leaders.get(view)
    if leader is None:
        if view < 0:
            raise ValueError(f"negative view {view}")
        leader = params.leaders[view] = params.schedule.leader_for_group(view // params.k)
    return leader


# ---------------------------------------------------------------------------
# Actions returned by handlers for the host to perform. The host reads each
# once, so it is a plain slots class, cheaper to build than a frozen one;
# equality still tells the classes apart.


@dataclass(slots=True)
class Send:
    to: int | str  # processor id or ALL
    payload: object


@dataclass(slots=True)
class ForwardClock:
    to: int


@dataclass(slots=True)
class EnterView:
    view: int


@dataclass(slots=True)
class FormVC:
    vc: ViewCertificate


Action = Send | ForwardClock | EnterView | FormVC


@dataclass(slots=True)
class ProcessorState:
    """Mutable per-processor synchroniser state.

    clock carries the current local reading (host-maintained between events,
    jumped by ForwardClock within them) and never runs backward; view is
    likewise monotone. That rule alone makes a repeated certificate a no-op,
    with no record of what was seen: a quorum certificate for view u left the
    clock at or past the start of u+1 and the view above u (or where it was,
    if already above), and a view certificate left the view at or above its
    own. A leader's list of distinct signers for a view only grows, so it
    reaches t+1 on one call, and one certificate is formed per view led.

    Two fields hold what no such rule gives: sent_view_msgs, so that a host
    that fires one boundary twice still sends one view message for it, and
    collected_view_msgs, each led view's signers in arrival order.
    """

    id: int
    clock: int = 0
    view: int = 0
    sent_view_msgs: set[int] = field(default_factory=set)
    collected_view_msgs: dict[int, list[int]] = field(default_factory=dict)


def on_clock_reaches(state: ProcessorState, c: int, params: ProtocolParams) -> list[Action]:
    """The local clock sits exactly on boundary view start time c.

    Fires both on natural clock progression and when a certificate forwards
    the clock onto the boundary exactly. Start times jumped over by a forward
    never fire. A stale boundary (view below current) is a no-op, as is a
    boundary whose view message already went out: both guard against a host
    that fires a boundary twice or late, so that the view message for a
    boundary view is sent at most once.
    """
    v = view_at(c, params)
    if not is_boundary(v, params):
        raise ValueError(f"view {v} is not a boundary view")
    if state.clock != c:
        raise ValueError(f"clock {state.clock} not on boundary {c}")
    if v < state.view or v in state.sent_view_msgs:
        return []
    actions: list[Action] = []
    if v > state.view:
        state.view = v
        actions.append(EnterView(v))
    state.sent_view_msgs.add(v)
    actions.append(Send(leader_of(v, params), ViewMessage(v, state.id)))
    return actions


def on_qc(state: ProcessorState, qc: QuorumCertificate, params: ProtocolParams) -> list[Action]:
    """A quorum certificate; a repeat is a no-op, as its first sight left the
    clock and view where it would move them.

    Any certificate may drag the clock forward to the start of the
    following view. Only certificates for the current view or above advance
    the view; a forward that lands the clock exactly on a boundary start also
    fires the boundary handler, so the view message still goes out.
    """
    target = qc.view + 1
    start = clock_time(target, params)
    actions: list[Action] = []
    landed = state.clock < start
    if landed:
        state.clock = start
        actions.append(ForwardClock(start))
    if qc.view >= state.view:
        if target > state.view:
            state.view = target
            actions.append(EnterView(target))
        if landed and is_boundary(target, params):
            actions.extend(on_clock_reaches(state, start, params))
    return actions


def on_vc(state: ProcessorState, vc: ViewCertificate, params: ProtocolParams) -> list[Action]:
    """A view certificate for a boundary view above the current one.

    Enters the certificate's view directly and forwards the clock to its start
    if behind. When the forward lands exactly on the start (always, if it
    happens at all) and no view message for that view went out yet, the
    boundary handler fires so the message is still sent. Certificates at or
    below the current view, a repeat among them, are no-ops.
    """
    if not is_boundary(vc.view, params):
        raise ValueError(f"view certificate for non-boundary view {vc.view}")
    if vc.view <= state.view:
        return []
    start = clock_time(vc.view, params)
    state.view = vc.view
    actions: list[Action] = [EnterView(vc.view)]
    if state.clock < start:
        state.clock = start
        actions.append(ForwardClock(start))
        actions.extend(on_clock_reaches(state, start, params))
    return actions


def on_view_message(state: ProcessorState, msg: ViewMessage, params: ProtocolParams) -> list[Action]:
    """Leader-side collection of view messages.

    Accepts messages for any view this processor leads at or above its current
    view (future views included; early arrivals wait here). The certificate is
    formed the moment the count of distinct signers reaches exactly t+1 and
    carries exactly those first t+1 signers; later arrivals change nothing.
    """
    if state.id != leader_of(msg.view, params):
        return []
    if msg.view < state.view:
        return []
    got = state.collected_view_msgs.setdefault(msg.view, [])
    if msg.signer in got:
        return []
    got.append(msg.signer)
    if len(got) == params.t + 1:
        vc = form_vc(msg.view, [ViewMessage(msg.view, s) for s in got], params.t)
        return [FormVC(vc), Send(ALL, vc)]
    return []

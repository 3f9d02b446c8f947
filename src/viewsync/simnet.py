"""Deterministic discrete-event simulation under partial synchrony.

All scheduling happens on an integer tick grid chosen per run: the grid is the
lcm of every rational constant's denominator, refined so the maximum network
delay spans at least sixty ticks. Event times and clock values are then plain
ints (exact Fractions appear only when clock rates drift), so ordering is
exact and runs are bit-reproducible.

The event heap orders simultaneous events by class: corruptions first, then
message deliveries and adversary wakeups, then clock thresholds. Within a
class, insertion order breaks ties. Self-addressed messages are delivered in
the same instant and cost nothing.

Randomness is split into independent streams (offsets, network jitter, leader
schedule, clock rates, per-adversary choices) derived from the run seed by
hashing, so changing one dimension of a configuration never perturbs the
draws of another.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Sequence, Union

from .adversary import BYZANTINE_STRATEGIES, ByzantineControl
from .certificates import (
    SIGN_VIEW,
    SIGN_VOTE,
    QuorumCertificate,
    SignatureLedger,
    ViewCertificate,
    ViewMessage,
    validate_qc,
    validate_vc,
)
from .core import (
    ALL,
    EnterView,
    ForwardClock,
    FormVC,
    PermutationSchedule,
    ProcessorState,
    ProtocolParams,
    RoundRobinSchedule,
    Send,
    on_clock_reaches,
    on_qc,
    on_vc,
    on_view_message,
)
from .timeutil import Time, frac_str, grid_of, ticks_str, to_frac, to_ticks
from .trace import TRACE_VERSION, Record
from .underlying import FormQC, Proposal, UnderlyingState, Vote, on_enter_view, on_proposal, on_vote

NETWORK_STRATEGIES = ("fixed_delta", "worst_case_max_delay", "uniform_random")
OFFSET_MODES = ("all_zero", "two_cluster", "adversarial_spread")
LEADER_MODES = ("round_robin", "random_permutations")
STOP_MODES = ("t_star", "sync_plus", "next_sync", "horizon")

# Ticks the maximum delay must span, so sub-delay jitter stays on-grid.
MIN_TICKS_PER_CAP = 60

DEFAULT_CLUSTER_GAP = 1000

_PRIO_CORRUPT = 0
_PRIO_DELIVER = 1
_PRIO_THRESHOLD = 2


class SimulationError(Exception):
    """The simulator broke one of its own protocol invariants: a program bug.

    Deliberately not a ValueError, so a sweep never reports it as an
    unsatisfiable cell.
    """


def subseed(seed: int, label: str) -> int:
    """Independent child seed for one named randomness stream."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Corruption:
    proc: int
    strategy: str
    time: Time = 0


@dataclass
class SimConfig:
    """One run's worth of knobs. Rational values accept int, Fraction, or str.

    ``offsets`` is a mode name, ``("two_cluster", gap)``, or an explicit list
    of initial clock values. ``sync_windows`` replaces the single global
    stabilisation time with alternating synchronous intervals ``(start, end)``
    where ``end`` may be None for the final open window; when given, ``gst``
    must equal the first window's start.
    """

    n: int
    delta_cap: Union[int, str, Fraction] = 1
    t: Optional[int] = None
    k: int = 3
    x: int = 3
    delta_actual: Union[int, str, Fraction, None] = None
    gst: Union[int, str, Fraction] = 0
    offsets: Any = "all_zero"
    corruptions: Sequence[Corruption] = ()
    network: str = "fixed_delta"
    leaders: str = "round_robin"
    drift_epsilon: Union[int, str, Fraction] = 0
    drift_rates: Optional[Sequence[Union[int, str, Fraction]]] = None
    sync_windows: Optional[Sequence[tuple]] = None
    stop: str = "t_star"
    horizon: Union[int, str, Fraction, None] = None
    seed: int = 0


def default_resilience(n: int) -> int:
    """Largest t with 3t < n."""
    return (n - 1) // 3


def check_dagger(clocks: Sequence[Time], gamma: Time, t: int) -> bool:
    """Clock-dispersion condition: the (t+1)-th most advanced clock among the
    given (correct) clocks lies within gamma of the most advanced one."""
    if not clocks:
        return True
    top = sorted(clocks, reverse=True)
    if len(top) <= t:
        return False
    return top[t] >= top[0] - gamma


def _lattice_collision(offsets: Sequence[int], period: int) -> Optional[tuple[int, int]]:
    """A pair of distinct offsets congruent mod the boundary period, if any.

    Such a pair makes two processors hit *different* view boundaries at the
    same instant forever, a measure-zero degeneracy that breaks the
    one-boundary-per-instant property natural entries otherwise have.
    """
    vals = sorted(set(offsets))
    by_residue: dict[int, int] = {}
    for v in vals:
        r = v % period
        if r in by_residue:
            return (by_residue[r], v)
        by_residue[r] = v
    return None


def generate_initial_offsets(
    n: int,
    t: int,
    gamma: int,
    mode: str,
    seed: int,
    *,
    correct: Optional[Sequence[int]] = None,
    period: Optional[int] = None,
    gap: Optional[int] = None,
) -> list[int]:
    """Initial clock values (ticks) for each processor.

    ``all_zero`` starts everyone together. ``two_cluster`` puts the t+1
    highest-id correct processors ``gap`` ahead of the rest. ``adversarial_spread``
    scatters clocks over tens of boundary periods while keeping a random
    group of t+1 correct processors packed within gamma of the top, the
    worst dispersion the admissible-initialisation condition allows.
    """
    if correct is None:
        correct = list(range(n))
    correct = sorted(correct)
    if len(correct) < t + 1:
        raise ValueError("need at least t+1 correct processors")
    if period is None:
        period = 3 * gamma
    if mode == "all_zero":
        return [0] * n
    if mode == "two_cluster":
        if gap is None:
            raise ValueError("two_cluster offsets need a gap")
        if gap <= 0:
            raise ValueError("cluster gap must be positive")
        if gap % period == 0:
            gap += 1  # keep the clusters off the shared boundary lattice
        top = set(correct[-(t + 1):])
        return [gap if p in top else 0 for p in range(n)]
    if mode == "adversarial_spread":
        rng = random.Random(seed)
        base = period * rng.randint(4, 24) + rng.randrange(period)
        low_bound = base - gamma  # keep stragglers clear of the top cluster
        top = set(rng.sample(correct, t + 1))
        offsets = []
        for p in range(n):
            if p in top:
                offsets.append(base - rng.randrange(gamma + 1))
            else:
                offsets.append(rng.randrange(low_bound))
        for _ in range(50 * n * n):
            hit = _lattice_collision([offsets[p] for p in correct], period)
            if hit is None:
                break
            lower = hit[0]
            for p in correct:
                if offsets[p] == lower:
                    offsets[p] += 1
                    break
        else:
            raise SimulationError("could not clear boundary-lattice collisions")
        if not check_dagger([offsets[p] for p in correct], gamma, t):
            raise SimulationError("generated offsets violate the dispersion condition")
        return offsets
    raise ValueError(f"unknown offset mode {mode!r}")


def _sync_start(send_time: Time, gst: Time, windows) -> Optional[Time]:
    """Earliest time >= send at which the network is (or becomes) synchronous.

    Returns the enclosing window's start when already inside one, the next
    window's start otherwise, and None after the final bounded window.
    """
    if windows is None:
        return gst
    for start, end in windows:
        if end is not None and send_time >= end:
            continue
        return start
    return None


def delivery_time(
    strategy: str,
    send_time: Time,
    *,
    gst: Time,
    delta_cap: Time,
    delta_actual: Optional[Time] = None,
    rng: Optional[random.Random] = None,
    sync_windows=None,
) -> Optional[Time]:
    """When one envelope arrives, in ticks. None means no bound applies
    (sent after the final synchronous window closes).

    ``worst_case_max_delay`` always exhausts the cap; ``fixed_delta`` always
    takes the actual network delay; ``uniform_random`` draws a whole number
    of ticks up to whichever bound governs.
    """
    if strategy not in NETWORK_STRATEGIES:
        raise ValueError(f"unknown network strategy {strategy!r}")
    if delta_actual is None:
        delta_actual = delta_cap
    sync = _sync_start(send_time, gst, sync_windows)
    if sync is None:
        return None
    anchor = max(sync, send_time)
    if strategy == "worst_case_max_delay":
        return anchor + delta_cap
    if strategy == "fixed_delta":
        return anchor + delta_actual
    upper = send_time + delta_actual if sync <= send_time else anchor + delta_cap
    span = upper - send_time
    latest = math.floor(span)
    if latest < 1:
        return upper
    return send_time + rng.randint(1, latest)


def payload_to_dict(payload) -> dict:
    if isinstance(payload, ViewMessage):
        return {"type": "view_message", "view": payload.view, "signer": payload.signer}
    if isinstance(payload, ViewCertificate):
        return {"type": "view_certificate", "view": payload.view, "signers": list(payload.signers)}
    if isinstance(payload, QuorumCertificate):
        return {"type": "quorum_certificate", "view": payload.view, "signers": list(payload.signers)}
    if isinstance(payload, Proposal):
        return {"type": "proposal", "view": payload.view, "leader": payload.leader}
    if isinstance(payload, Vote):
        return {"type": "vote", "view": payload.view, "signer": payload.signer}
    raise TypeError(f"cannot serialise payload {payload!r}")


def payload_from_dict(d: dict):
    kind = d["type"]
    if kind == "view_message":
        return ViewMessage(d["view"], d["signer"])
    if kind == "view_certificate":
        return ViewCertificate(d["view"], tuple(d["signers"]))
    if kind == "quorum_certificate":
        return QuorumCertificate(d["view"], tuple(d["signers"]))
    if kind == "proposal":
        return Proposal(d["view"], d["leader"])
    if kind == "vote":
        return Vote(d["view"], d["signer"])
    raise ValueError(f"unknown payload type {kind!r}")


@dataclass(frozen=True)
class Envelope:
    sender: int
    recipient: int
    payload: Any
    send_time: Time
    deliver_time: Time
    words: int


class Simulation:
    """One configured run. Build, then call run() for the trace records."""

    def __init__(self, config: SimConfig):
        self.config = config
        self._resolve(config)
        self.records: list[Record] = []
        self.seq = 0
        self.heap: list = []
        self.counter = itertools.count()
        self.net_rng = random.Random(subseed(config.seed, "net"))
        self.ledger = SignatureLedger()
        self.states = [ProcessorState(id=p, clock=self.offsets[p]) for p in range(self.n)]
        self.subs = [UnderlyingState() for _ in range(self.n)]
        self.offset: list[Time] = list(self.offsets)  # clock model intercepts
        self.gen = [0] * self.n
        self.next_boundary = [0] * self.n
        self.corrupted = [False] * self.n
        self.controls = {
            c.proc: ByzantineControl(
                c.proc, c.strategy, self.n, random.Random(subseed(config.seed, f"byz:{c.proc}"))
            )
            for c in self.corruption_list
        }
        self.t_star_ticks: Optional[Time] = None
        self.t_star_view: Optional[int] = None
        self._sync_target_view: Optional[int] = None
        self._next_sync_done = False
        self._stop_reason: Optional[str] = None

    # -- configuration -----------------------------------------------------

    def _resolve(self, cfg: SimConfig) -> None:
        if cfg.n < 2:
            raise ValueError("need at least two processors")
        self.n = cfg.n
        self.t = default_resilience(cfg.n) if cfg.t is None else cfg.t
        if not 0 <= self.t or not 3 * self.t < self.n:
            raise ValueError(f"resilience t={self.t} incompatible with n={self.n}")
        if cfg.k < 3:
            raise ValueError("views per leader must be at least 3")
        if cfg.x < 2:
            raise ValueError("clock spacing multiplier must be at least 2")
        if cfg.network not in NETWORK_STRATEGIES:
            raise ValueError(f"unknown network strategy {cfg.network!r}")
        if cfg.leaders not in LEADER_MODES:
            raise ValueError(f"unknown leader mode {cfg.leaders!r}")
        if cfg.stop not in STOP_MODES:
            raise ValueError(f"unknown stop mode {cfg.stop!r}")

        delta_cap = to_frac(cfg.delta_cap)
        if delta_cap <= 0:
            raise ValueError("maximum network delay must be positive")
        delta_actual = delta_cap if cfg.delta_actual is None else to_frac(cfg.delta_actual)
        if not 0 < delta_actual <= delta_cap:
            raise ValueError("actual delay must lie in (0, delta_cap]")
        gamma = cfg.x * delta_cap
        gst = to_frac(cfg.gst)
        if gst < 0:
            raise ValueError("stabilisation time cannot be negative")

        self.corruption_list = sorted(cfg.corruptions, key=lambda c: (to_frac(c.time), c.proc))
        if len({c.proc for c in self.corruption_list}) != len(self.corruption_list):
            raise ValueError("duplicate corruption target")
        if len(self.corruption_list) > self.t:
            raise ValueError("more corruptions than the resilience bound allows")
        for c in self.corruption_list:
            if not 0 <= c.proc < self.n:
                raise ValueError(f"corruption target {c.proc} out of range")
            if c.strategy not in BYZANTINE_STRATEGIES:
                raise ValueError(f"unknown byzantine strategy {c.strategy!r}")
            if to_frac(c.time) < 0:
                raise ValueError("corruption time cannot be negative")
        self.never_corrupted = frozenset(range(self.n)) - {c.proc for c in self.corruption_list}

        horizon = (
            gst + 3 * cfg.k * (self.t + 3) * gamma
            if cfg.horizon is None
            else to_frac(cfg.horizon)
        )
        if horizon <= gst:
            raise ValueError("horizon must extend past the stabilisation time")

        windows = None
        if cfg.sync_windows is not None:
            windows = []
            prev_end = None
            for start, end in cfg.sync_windows:
                start = to_frac(start)
                end = None if end is None else to_frac(end)
                if end is not None and end <= start:
                    raise ValueError("empty synchronous window")
                if prev_end is None and windows:
                    raise ValueError("only the final synchronous window may be open")
                if windows and start < prev_end:
                    raise ValueError("synchronous windows must be disjoint and ordered")
                windows.append((start, end))
                prev_end = end
            if not windows:
                raise ValueError("sync_windows given but empty")
            if windows[0][0] != gst:
                raise ValueError("gst must equal the first synchronous window start")

        grid_values = [delta_cap, delta_actual, gst, horizon]
        for c in self.corruption_list:
            grid_values.append(to_frac(c.time))
        if windows:
            for start, end in windows:
                grid_values.append(start)
                if end is not None:
                    grid_values.append(end)
        explicit_offsets = None
        gap = None
        offsets_mode = cfg.offsets
        if isinstance(cfg.offsets, (list, tuple)) and cfg.offsets and isinstance(cfg.offsets[0], str):
            offsets_mode, gap = cfg.offsets
            gap = to_frac(gap)
            grid_values.append(gap)
        elif isinstance(cfg.offsets, (list, tuple)):
            explicit_offsets = [to_frac(v) for v in cfg.offsets]
            grid_values.extend(explicit_offsets)
        elif cfg.offsets == "two_cluster":
            offsets_mode = "two_cluster"
            gap = to_frac(DEFAULT_CLUSTER_GAP)

        floor = math.ceil(Fraction(MIN_TICKS_PER_CAP) / delta_cap)
        self.grid = grid_of(grid_values, floor=floor)

        self.delta_cap_ticks = to_ticks(delta_cap, self.grid)
        self.delta_actual_ticks = to_ticks(delta_actual, self.grid)
        self.gamma_ticks = to_ticks(gamma, self.grid)
        self.gst_ticks = to_ticks(gst, self.grid)
        self.horizon_ticks = to_ticks(horizon, self.grid)
        self.windows_ticks = None
        if windows:
            self.windows_ticks = [
                (to_ticks(s, self.grid), None if e is None else to_ticks(e, self.grid))
                for s, e in windows
            ]
        self.corruption_ticks = {
            c.proc: to_ticks(to_frac(c.time), self.grid) for c in self.corruption_list
        }

        if cfg.leaders == "round_robin":
            schedule = RoundRobinSchedule(self.n)
        else:
            schedule = PermutationSchedule(self.n, subseed(cfg.seed, "leaders"))
        self.params = ProtocolParams(
            n=self.n, t=self.t, k=cfg.k, gamma=self.gamma_ticks, schedule=schedule
        )
        self.period = cfg.k * self.gamma_ticks

        eps = to_frac(cfg.drift_epsilon)
        if eps < 0:
            raise ValueError("drift bound cannot be negative")
        if cfg.drift_rates is not None:
            rates = [to_frac(r) for r in cfg.drift_rates]
            if len(rates) != self.n:
                raise ValueError("need one clock rate per processor")
            if any(r <= 0 for r in rates):
                raise ValueError("clock rates must be positive")
        elif eps > 0:
            rng = random.Random(subseed(cfg.seed, "drift"))
            rates = [1 + eps * Fraction(rng.randint(-16, 16), 16) for _ in range(self.n)]
        else:
            rates = [1] * self.n
        self.rates = rates
        self.uniform_rates = all(r == 1 for r in rates)

        if explicit_offsets is not None:
            if len(explicit_offsets) != self.n:
                raise ValueError("need one initial clock per processor")
            if any(v < 0 for v in explicit_offsets):
                raise ValueError("initial clocks cannot be negative")
            offs = [to_ticks(v, self.grid) for v in explicit_offsets]
            correct_offs = [offs[p] for p in sorted(self.never_corrupted)]
            if not check_dagger(correct_offs, self.gamma_ticks, self.t):
                raise ValueError("initial clocks violate the dispersion condition")
            if self.uniform_rates:
                hit = _lattice_collision(correct_offs, self.period)
                if hit is not None:
                    raise ValueError(
                        f"initial clocks {hit} collide on the boundary lattice; "
                        "nudge one by a tick"
                    )
            self.offsets = offs
        else:
            if offsets_mode not in OFFSET_MODES:
                raise ValueError(f"unknown offset mode {offsets_mode!r}")
            gap_ticks = None if gap is None else to_ticks(gap, self.grid)
            self.offsets = generate_initial_offsets(
                self.n,
                self.t,
                self.gamma_ticks,
                offsets_mode,
                subseed(cfg.seed, "offsets"),
                correct=sorted(self.never_corrupted),
                period=self.period,
                gap=gap_ticks,
            )

        max_rate = max(self.rates)
        top_clock = max(self.offsets) + math.ceil(self.horizon_ticks * max_rate)
        self.max_flood_view = top_clock // self.gamma_ticks + 2 * cfg.k

    # -- clock model --------------------------------------------------------

    def local_clock(self, p: int, now: Time) -> Time:
        return self.offset[p] + self.rates[p] * now

    def _first_boundary(self, p: int) -> int:
        off = self.offsets[p]
        if off % self.period == 0:
            return off
        return (off // self.period + 1) * self.period

    def _threshold_time(self, p: int, boundary: int) -> Time:
        lag = boundary - self.offset[p]
        if self.rates[p] == 1:
            return lag
        return Fraction(lag) / self.rates[p]

    # -- record plumbing ----------------------------------------------------

    def _emit(self, rec: Record) -> None:
        rec["seq"] = self.seq
        self.seq += 1
        self.records.append(rec)

    def _real(self, ticks: Time) -> str:
        return ticks_str(ticks, self.grid)

    def _push(self, when: Time, prio: int, a: int, b: int, kind: str, data) -> None:
        if when > self.horizon_ticks:
            return
        heapq.heappush(self.heap, (when, prio, a, b, next(self.counter), kind, data))

    def schedule_wake(self, proc: int, payload, when: Time) -> None:
        self._push(when, _PRIO_DELIVER, proc, proc, "wake", payload)

    # -- sending ------------------------------------------------------------

    def send(self, sender: int, to, payload, now: Time) -> None:
        if isinstance(payload, (ViewMessage, Vote)):
            if payload.signer != sender:
                raise SimulationError(
                    f"processor {sender} cannot send processor {payload.signer}'s signature"
                )
            sign = SIGN_VIEW if isinstance(payload, ViewMessage) else SIGN_VOTE
            self.ledger.record(sender, sign, payload.view)
        recipients = range(self.n) if to == ALL else [to]
        for q in recipients:
            if q == sender:
                when, words = now, 0
            else:
                when = delivery_time(
                    self.config.network,
                    now,
                    gst=self.gst_ticks,
                    delta_cap=self.delta_cap_ticks,
                    delta_actual=self.delta_actual_ticks,
                    rng=self.net_rng,
                    sync_windows=self.windows_ticks,
                )
                words = 1
                if when is None:
                    when = self.horizon_ticks + self.delta_cap_ticks + 1
            env = Envelope(sender, q, payload, now, when, words)
            self._emit(
                {
                    "kind": "send",
                    "time": self._real(now),
                    "sender": sender,
                    "recipient": q,
                    "payload": payload_to_dict(payload),
                    "deliver_time": self._real(when),
                    "words": words,
                }
            )
            self._push(when, _PRIO_DELIVER, sender, q, "dlv", env)

    # -- action dispatch ----------------------------------------------------

    def _dispatch(self, p: int, actions: list, now: Time) -> None:
        state = self.states[p]
        for act in actions:
            if isinstance(act, Send):
                self.send(p, act.to, act.payload, now)
            elif isinstance(act, ForwardClock):
                target = act.to
                self.offset[p] = target - self.rates[p] * now
                state.clock = target
                self.gen[p] += 1
                self.next_boundary[p] = (target // self.period + 1) * self.period
                self._schedule_threshold(p)
            elif isinstance(act, EnterView):
                extra = self._enter_view(p, act.view, now)
                self._dispatch(p, extra, now)
            elif isinstance(act, FormVC):
                signers = sorted(state.collected_view_msgs[act.view][: self.t + 1])
                self._emit(
                    {
                        "kind": "form_vc",
                        "time": self._real(now),
                        "proc": p,
                        "view": act.view,
                        "signers": signers,
                    }
                )
            elif isinstance(act, FormQC):
                signers = sorted(self.subs[p].votes[act.view][: self.n - self.t])
                self._emit(
                    {
                        "kind": "form_qc",
                        "time": self._real(now),
                        "proc": p,
                        "view": act.view,
                        "signers": signers,
                    }
                )
                if (
                    self.t_star_ticks is None
                    and p in self.never_corrupted
                    and now > self.gst_ticks
                ):
                    self.t_star_ticks = now
                    self.t_star_view = act.view
                    group_start = (act.view // self.params.k) * self.params.k
                    self._sync_target_view = group_start + self.params.k
                elif (
                    self.t_star_ticks is not None
                    and p in self.never_corrupted
                    and act.view // self.params.k > self.t_star_view // self.params.k
                ):
                    self._next_sync_done = True
            else:
                raise SimulationError(f"unhandled action {act!r}")

    def _enter_view(self, p: int, view: int, now: Time) -> list:
        actions = on_enter_view(self.states[p], self.subs[p], view, self.params)
        if self.corrupted[p]:
            actions = self.controls[p].transform(actions, self, now)
        return actions

    # -- event handlers -----------------------------------------------------

    def _receive_correct(self, p: int, payload, now: Time) -> list:
        state, sub = self.states[p], self.subs[p]
        state.clock = self.local_clock(p, now)
        if isinstance(payload, ViewMessage):
            self._require(self.ledger.holds(payload.signer, SIGN_VIEW, payload.view), payload)
            return on_view_message(state, payload, self.params)
        if isinstance(payload, ViewCertificate):
            self._require(validate_vc(payload, self.n, self.t, self.ledger), payload)
            return on_vc(state, payload, self.params)
        if isinstance(payload, QuorumCertificate):
            self._require(validate_qc(payload, self.n, self.t, self.ledger), payload)
            return on_qc(state, payload, self.params)
        if isinstance(payload, Proposal):
            return on_proposal(state, sub, payload, self.params)
        if isinstance(payload, Vote):
            self._require(self.ledger.holds(payload.signer, SIGN_VOTE, payload.view), payload)
            return on_vote(state, sub, payload, self.params)
        raise SimulationError(f"unhandled payload {payload!r}")

    @staticmethod
    def _require(valid: bool, payload) -> None:
        if not valid:
            raise SimulationError(f"delivered {payload!r} carries signatures nobody made")

    def _handle_delivery(self, env: Envelope, now: Time) -> None:
        p = env.recipient
        actions: list = []
        if self.corrupted[p]:
            ctl = self.controls[p]
            if not ctl.passive:
                actions = self._receive_correct(p, env.payload, now)
                actions = ctl.transform(actions, self, now)
            if isinstance(env.payload, QuorumCertificate):
                ctl.saw_qc(env.payload, self, now)
        else:
            actions = self._receive_correct(p, env.payload, now)
        state = self.states[p]
        self._emit(
            {
                "kind": "deliver",
                "time": self._real(now),
                "send_time": self._real(env.send_time),
                "sender": env.sender,
                "recipient": p,
                "payload": payload_to_dict(env.payload),
                "proc_view": state.view,
                "proc_clock": self._real(state.clock),
            }
        )
        self._dispatch(p, actions, now)

    def _handle_threshold(self, p: int, boundary: int, gen: int, now: Time) -> None:
        if gen != self.gen[p]:
            return  # superseded by a clock forward
        if self.corrupted[p] and self.controls[p].passive:
            return
        state = self.states[p]
        state.clock = boundary
        actions = on_clock_reaches(state, boundary, self.params)
        if self.corrupted[p]:
            actions = self.controls[p].transform(actions, self, now)
        self._emit(
            {
                "kind": "threshold",
                "time": self._real(now),
                "proc": p,
                "boundary_clock": self._real(boundary),
                "proc_view": state.view,
            }
        )
        self.next_boundary[p] = boundary + self.period
        self._schedule_threshold(p)
        self._dispatch(p, actions, now)

    def _schedule_threshold(self, p: int) -> None:
        if self.corrupted[p] and self.controls[p].passive:
            return
        boundary = self.next_boundary[p]
        when = self._threshold_time(p, boundary)
        self._push(when, _PRIO_THRESHOLD, p, p, "thr", (boundary, self.gen[p]))

    def _apply_corruption(self, proc: int, strategy: str, now: Time) -> None:
        self.corrupted[proc] = True
        self._emit(
            {
                "kind": "corrupt",
                "time": self._real(now),
                "proc": proc,
                "strategy": strategy,
            }
        )
        self.controls[proc].on_corrupt(self, now)

    def _handle_wake(self, p: int, payload, now: Time) -> None:
        self._emit({"kind": "wake", "time": self._real(now), "proc": p})
        self.controls[p].on_wake(payload, now, self)

    # -- stop conditions ----------------------------------------------------

    def _should_stop(self) -> Optional[str]:
        mode = self.config.stop
        if self.t_star_ticks is None:
            return None
        if mode == "t_star":
            return "t_star"
        if mode == "sync_plus":
            target = self._sync_target_view
            if all(self.states[p].view >= target for p in self.never_corrupted):
                return "sync_plus"
            return None
        if mode == "next_sync":
            return "next_sync" if self._next_sync_done else None
        return None

    # -- main loop ----------------------------------------------------------

    def run(self) -> list[Record]:
        cfg = self.config
        self._emit(
            {
                "kind": "header",
                "version": TRACE_VERSION,
                "time": self._real(0),
                "grid": self.grid,
                "config": {
                    "n": self.n,
                    "t": self.t,
                    "k": cfg.k,
                    "x": cfg.x,
                    "seed": cfg.seed,
                    "gamma": self._real(self.gamma_ticks),
                    "delta_cap": self._real(self.delta_cap_ticks),
                    "delta_actual": self._real(self.delta_actual_ticks),
                    "gst": self._real(self.gst_ticks),
                    "horizon": self._real(self.horizon_ticks),
                    "network": cfg.network,
                    "leaders": cfg.leaders,
                    "stop": cfg.stop,
                    "offsets": [self._real(o) for o in self.offsets],
                    "rates": [frac_str(r) for r in self.rates],
                    "corruptions": [
                        {
                            "proc": c.proc,
                            "strategy": c.strategy,
                            "time": self._real(self.corruption_ticks[c.proc]),
                        }
                        for c in self.corruption_list
                    ],
                    "sync_windows": None
                    if self.windows_ticks is None
                    else [
                        [self._real(s), None if e is None else self._real(e)]
                        for s, e in self.windows_ticks
                    ],
                },
            }
        )

        for c in self.corruption_list:
            when = self.corruption_ticks[c.proc]
            if when == 0:
                self._apply_corruption(c.proc, c.strategy, 0)
            else:
                self._push(when, _PRIO_CORRUPT, c.proc, c.proc, "corrupt", c.strategy)

        # Everyone starts in view 0; the view-0 leader proposes immediately.
        for p in range(self.n):
            if self.corrupted[p] and self.controls[p].passive:
                continue
            actions = self._enter_view(p, 0, 0)
            self._dispatch(p, actions, 0)
        for p in range(self.n):
            self.next_boundary[p] = self._first_boundary(p)
            self._schedule_threshold(p)

        stop_reason = None
        stop_time: Time = self.horizon_ticks
        while self.heap:
            when, prio, a, b, _, kind, data = heapq.heappop(self.heap)
            if when > self.horizon_ticks:
                break
            if kind == "corrupt":
                self._apply_corruption(a, data, when)
            elif kind == "dlv":
                self._handle_delivery(data, when)
            elif kind == "thr":
                boundary, gen = data
                self._handle_threshold(a, boundary, gen, when)
            elif kind == "wake":
                self._handle_wake(a, data, when)
            else:
                raise SimulationError(f"unhandled event kind {kind!r}")
            stop_reason = self._should_stop()
            if stop_reason is not None:
                stop_time = when
                break
        if stop_reason is None:
            stop_reason = "horizon"
            stop_time = self.horizon_ticks

        self._emit({"kind": "end", "time": self._real(stop_time), "reason": stop_reason})
        return self.records


def run(config: SimConfig, horizon: Union[int, str, Fraction, None] = None):
    """Simulate one configuration; returns (trace records, analysed metrics)."""
    if horizon is not None:
        config = dataclasses.replace(config, horizon=horizon)
    sim = Simulation(config)
    records = sim.run()
    from .metrics import analyze  # deferred: metrics imports this module

    return records, analyze(records)

"""Deterministic discrete-event simulation under partial synchrony.

All scheduling happens on an integer tick grid chosen per run: the grid is the
lcm of every rational constant's denominator, refined so the maximum network
delay spans at least sixty ticks, and then split into ``unit`` sub-ticks per
tick so that drifting clocks stay on it too (``Resolved.unit``). Every event
time and clock value is a plain int, so ordering is exact and runs are
bit-reproducible; a clock-rate division that would leave the grid is a
``SimulationError``, never a rounding.

The event heap orders simultaneous events by class: corruptions first, then
message deliveries and adversary wakeups, then clock thresholds. Within a
class, the two processors an event names break ties: a delivery's sender and
then its recipient (a wakeup, threshold or corruption names its processor
twice), and insertion order only after those. Self-addressed messages are
delivered in the same instant and cost nothing; any other message is due
when ``Simulation._due`` says, by one formula for every network. A clock
forward supersedes its processor's queued threshold: a superseded one is
skipped if popped, and all of them are swept out of the heap once they could
be half of it.

A corrupted processor's strategy (``adversary.ByzantineControl``) is applied
in one place each. ``_apply_corruption`` decides once whether the processor
falls silent, under a passive strategy, after which no handler runs for it
and no threshold is queued for it. ``_dispatch`` is the one transform point:
it passes each action list of an active corrupted processor through
``transform`` before performing it: after the event that made the list is
recorded, a threshold's successor queued and a delivered quorum certificate
shown to the strategy (``saw_qc``). Every draw and every event keeps its
order only because neither a threshold nor a delivered quorum certificate
makes a list holding a quorum certificate send, the one action ``transform``
stashes for later.

``send`` is the one gate into the network, for a correct and a corrupted
sender alike. It is the signature ledger's one writer: it refuses a vote or
view message signed by anyone but its sender and records the rest as they
are sent, a corrupted processor's floods included. And it is the one place
a certificate is checked: the handlers build theirs from the signers they
collected, and ``send`` checks every quorum and view certificate against
the ledger (``validate_qc``, ``validate_vc``), a ``SimulationError`` unless
it carries n-t (or t+1) distinct signatures that were made. The ledger is
append-only, so what was valid when sent is valid when delivered, and a
delivery checks nothing again.

Randomness is split into independent streams (offsets, network jitter, leader
schedule, clock rates, per-adversary choices) derived from the run seed by
hashing, so changing one dimension of a configuration never perturbs the
draws of another.

The records ``run`` returns are read-only. A record's seq is its index in
them, written nowhere. Each ``send()`` call writes one ``send`` record,
naming every recipient and each one's delay, and each delivery a
``deliver`` record that names it by how many records back it is and takes
its time from it: the send's time plus its delay for the recipient.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
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
from .timeutil import dump_ticks, grid_of, load_ticks, to_frac, to_ticks
from .trace import PAYLOAD_FIELDS, TRACE_VERSION, Record
from .underlying import FormQC, Proposal, UnderlyingState, Vote, on_enter_view, on_proposal, on_vote

NETWORK_STRATEGIES = ("fixed_delta", "worst_case_max_delay", "uniform_random")
LEADER_MODES = ("round_robin", "random_permutations")
STOP_MODES = ("t_star", "sync_plus", "horizon")

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
    time: Union[int, Fraction] = 0  # a Fraction in a SimConfig, ticks once resolved


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


# Fields holding times: with a unit, coerce reads these (and offset values,
# window bounds and corruption times) as multiples of it.
_TIME_FIELDS = ("delta_actual", "gst", "horizon")
_INT_FIELDS = ("n", "t", "k", "x", "seed")


def _number(value, where: str, unit: Optional[Fraction] = None) -> Fraction:
    try:
        number = to_frac(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    return number if unit is None else number * unit


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


def _integers(values, where: str) -> tuple[int, ...]:
    """A list of integers as a tuple; the ValueError names the first entry
    that is not one."""
    if not {int}.issuperset(map(type, values)):
        for i, value in enumerate(values):
            _integer(value, f"{where}[{i}]")
    return tuple(values)


def _items(value, where: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where}: expected a list, got {value!r}")
    return list(value)


def _corruption(item, where: str, unit: Optional[Fraction]) -> Corruption:
    if isinstance(item, Corruption):
        proc, strategy, when = item.proc, item.strategy, item.time
    elif isinstance(item, dict):
        for key in ("proc", "strategy"):
            if key not in item:
                raise ValueError(f"{where}: missing {key!r}")
        proc, strategy, when = item["proc"], item["strategy"], item.get("time", 0)
    elif isinstance(item, (list, tuple)) and len(item) in (2, 3):
        proc, strategy, when = (*item, 0)[:3]
    else:
        raise ValueError(f"{where}: expected {{proc, strategy, time}} or [proc, strategy, time]")
    proc = _integer(proc, f"{where}.proc")
    return Corruption(proc, strategy, _number(when, f"{where}.time", unit))


def coerce(name: str, value, unit: Optional[Fraction] = None):
    """The canonical form of one SimConfig field, the form config_hash digests.

    Numbers become Fractions, sequences tuples and corruption entries
    (``{proc, strategy, time}`` mappings or ``[proc, strategy, time]`` lists)
    ``Corruption`` objects. Idempotent; other names pass through unchanged.
    A ValueError names the field, and the item, that cannot be read.
    """
    if value is None:
        return None
    if name in _INT_FIELDS:
        return _integer(value, name)
    if name in _TIME_FIELDS:
        return _number(value, name, unit)
    if name in ("delta_cap", "drift_epsilon"):
        return _number(value, name)
    if name == "offsets":
        if isinstance(value, str):
            return value
        items = _items(value, name)
        if items and isinstance(items[0], str):
            if len(items) != 2:
                raise ValueError(f"offsets: expected [mode, gap], got {value!r}")
            return (items[0], _number(items[1], "offsets[1]", unit))
        return tuple(_number(v, f"offsets[{i}]", unit) for i, v in enumerate(items))
    if name == "sync_windows":
        windows = []
        for i, window in enumerate(_items(value, name)):
            where = f"sync_windows[{i}]"
            bounds = _items(window, where)
            if len(bounds) != 2:
                raise ValueError(f"{where}: expected [start, end], got {window!r}")
            start, end = bounds
            windows.append(
                (_number(start, where, unit), None if end is None else _number(end, where, unit))
            )
        return tuple(windows)
    if name == "corruptions":
        return tuple(
            _corruption(c, f"corruptions[{i}]", unit) for i, c in enumerate(_items(value, name))
        )
    if name == "drift_rates":
        for i, rate in enumerate(_items(value, name)):
            _number(rate, f"drift_rates[{i}]")
        return value  # kept as written, which is what config_hash has always digested
    return value


def default_resilience(n: int) -> int:
    """Largest t with 3t < n."""
    return (n - 1) // 3


def check_dagger(clocks: Sequence[int], gamma: int, t: int) -> bool:
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
    correct: Sequence[int],
    period: int,
    gap: Optional[int] = None,
) -> list[int]:
    """Initial clock values (ticks) for each processor, of which ``correct``
    are never corrupted; ``period`` is the boundary period, in ticks.

    ``all_zero`` starts everyone together. ``two_cluster`` puts the t+1
    highest-id correct processors ``gap`` ahead of the rest. ``adversarial_spread``
    scatters clocks over tens of boundary periods while keeping a random
    group of t+1 correct processors packed within gamma of the top, the
    worst dispersion the admissible-initialisation condition allows.
    """
    correct = sorted(correct)
    if len(correct) < t + 1:
        raise ValueError("need at least t+1 correct processors")
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


def sync_start(send_time: int, gst: int, windows) -> Optional[int]:
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


def _unit(rates) -> int:
    """Sub-ticks per base tick under these clock rates: P * Q for P and Q the
    lcm of their numerators and of their denominators (1 when every rate is
    1). Boundaries, forward targets and delays are then multiples of P * Q,
    so every event time is a multiple of Q (a threshold comes ``(boundary -
    target) * den / num`` after a forward) and every clock value an int.
    ValueError for a rate that is not positive, which would make it 0."""
    distinct = set(rates)  # one rate, 1, for every clock that does not drift
    if any(r <= 0 for r in distinct):
        raise ValueError("clock rates must be positive")
    return math.lcm(*(r.numerator for r in distinct)) * math.lcm(
        *(r.denominator for r in distinct)
    )


def _check_counts(n: int, t: int, k: int, x: int) -> None:
    """The integers the rest of a run description is computed from."""
    if n < 2:
        raise ValueError("need at least two processors")
    if not 0 <= t or not 3 * t < n:
        raise ValueError(f"resilience t={t} incompatible with n={n}")
    if k < 3:
        raise ValueError("views per leader must be at least 3")
    if x < 2:
        raise ValueError("clock spacing multiplier must be at least 2")


# Header config entries that are exact ints (counts, the seed and times in
# ticks), and those that are mode names.
_HEADER_INTS = ("n", "t", "k", "x", "seed", "gamma", "delta_cap", "delta_actual", "gst", "horizon")
_HEADER_MODES = ("network", "leaders", "stop")


def _derived():
    """A Resolved field that __post_init__ sets once: neither an __init__
    argument nor part of equality."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Resolved:
    """One run, validated and fixed on its tick grid: every time is in ticks.

    ``resolve`` builds it from a SimConfig, ``header`` writes it as the
    trace's header record and ``from_header`` reads it back, so the
    simulator and the analyzer work from the same description. Corruption
    times are ticks too; the corruptions are kept, and the header lists
    them, by time and then processor, whatever order they were given in.
    Rates are 1 or exact Fractions; ``grid`` already includes their
    ``unit``.

    Building one checks the *structural* rules, which every run meets,
    whoever built it; a ValueError names the rule broken:

    - ``network``, ``leaders`` and ``stop`` are known modes;
    - n >= 2, 0 <= t < n/3, k >= 3, x >= 2 and gamma = x * delta_cap;
    - 0 < delta_actual <= delta_cap, gst >= 0 and horizon > gst;
    - synchrony windows are non-empty, ordered, disjoint, only the last one
      open, and the first starts at gst;
    - one offset and one positive rate per processor;
    - corruption targets are distinct processors, each with a known
      strategy and a time >= 0, and at least one processor is never
      corrupted.

    The *policy* rules (at most t corruptions, initial clocks within the
    dispersion bound and off the boundary lattice) are ``resolve``'s alone:
    a trace may break them, and the analyzer then flags it. Building one
    also sets the derived values below, once.
    """

    grid: int
    n: int
    t: int
    k: int
    x: int
    seed: int
    network: str
    leaders: str
    stop: str
    gamma: int
    delta_cap: int
    delta_actual: int
    gst: int
    horizon: int
    offsets: tuple[int, ...]
    rates: tuple[Union[int, Fraction], ...]
    corruptions: tuple[Corruption, ...]
    windows: Optional[tuple[tuple[int, Optional[int]], ...]]

    params: ProtocolParams = _derived()
    unit: int = _derived()
    period: int = _derived()  # clock ticks between two boundary views
    uniform_rates: bool = _derived()
    never_corrupted: frozenset[int] = _derived()
    # the longest delay the network gives a message sent after stabilisation
    delta_eff: int = _derived()
    # the highest view a signature flood at corruption time has to cover
    max_flood_view: int = _derived()

    def __post_init__(self) -> None:
        n = self.n
        _check_counts(n, self.t, self.k, self.x)
        if self.network not in NETWORK_STRATEGIES:
            raise ValueError(f"unknown network strategy {self.network!r}")
        if self.leaders not in LEADER_MODES:
            raise ValueError(f"unknown leader mode {self.leaders!r}")
        if self.stop not in STOP_MODES:
            raise ValueError(f"unknown stop mode {self.stop!r}")
        if self.grid < 1:
            raise ValueError(f"grid must be positive, got {self.grid}")
        if self.gamma != self.x * self.delta_cap:
            raise ValueError(f"gamma must be x * delta_cap, got {self.gamma}")
        if not 0 < self.delta_actual <= self.delta_cap:
            raise ValueError("actual delay must lie in (0, delta_cap]")
        if self.gst < 0:
            raise ValueError("stabilisation time cannot be negative")
        if self.horizon <= self.gst:
            raise ValueError("horizon must extend past the stabilisation time")
        windows = self.windows
        if windows is not None:
            if not windows:
                raise ValueError("sync_windows given but empty")
            for i, (start, end) in enumerate(windows):
                if end is not None and end <= start:
                    raise ValueError("empty synchronous window")
                if i and windows[i - 1][1] is None:
                    raise ValueError("only the final synchronous window may be open")
                if i and start < windows[i - 1][1]:
                    raise ValueError("synchronous windows must be disjoint and ordered")
            if windows[0][0] != self.gst:
                raise ValueError("gst must equal the first synchronous window start")
        if len(self.offsets) != n:
            raise ValueError("need one offset per processor")
        if len(self.rates) != n:
            raise ValueError("need one clock rate per processor")
        unit = _unit(self.rates)  # checks that every rate is positive
        targets = set()
        for i, c in enumerate(self.corruptions):
            if type(c.proc) is not int or not 0 <= c.proc < n:
                raise ValueError(f"corruptions[{i}].proc: {c.proc} is not a processor")
            if c.proc in targets:
                raise ValueError("duplicate corruption target")
            targets.add(c.proc)
            if c.strategy not in BYZANTINE_STRATEGIES:
                raise ValueError(f"unknown byzantine strategy {c.strategy!r}")
            if c.time < 0:
                raise ValueError("corruption time cannot be negative")
        if len(targets) == n:
            raise ValueError("every processor is corrupted")

        if self.leaders == "round_robin":
            schedule = RoundRobinSchedule(n)
        else:
            schedule = PermutationSchedule(n, subseed(self.seed, "leaders"))
        rate = max(self.rates)
        # the horizon's clock reading rounded up to a whole base tick
        reach = -(-self.horizon * rate.numerator // (rate.denominator * unit)) * unit
        derive = partial(object.__setattr__, self)
        # checked above in the order given, so an error names that entry
        derive("corruptions", tuple(sorted(self.corruptions, key=lambda c: (c.time, c.proc))))
        derive("params", ProtocolParams(n=n, t=self.t, k=self.k, gamma=self.gamma, schedule=schedule))
        derive("unit", unit)
        derive("period", self.k * self.gamma)
        derive("uniform_rates", unit == 1)
        derive("never_corrupted", frozenset(range(n)) - targets)
        worst = self.network == "worst_case_max_delay"
        derive("delta_eff", self.delta_cap if worst else self.delta_actual)
        derive("max_flood_view", (max(self.offsets) + reach) // self.gamma + 2 * self.k)

    def header(self) -> Record:
        """The trace's header record, at seq 0. Times are in ticks."""
        config = {name: getattr(self, name) for name in (*_HEADER_INTS, *_HEADER_MODES)}
        config.update(
            offsets=list(self.offsets),
            rates=[dump_ticks(r) for r in self.rates],
            corruptions=[
                {"proc": c.proc, "strategy": c.strategy, "time": c.time} for c in self.corruptions
            ],
            sync_windows=None if self.windows is None else [list(w) for w in self.windows],
        )
        return {
            "kind": "header",
            "version": TRACE_VERSION,
            "time": 0,
            "grid": self.grid,
            "config": config,
        }

    @classmethod
    def from_header(cls, header: Record) -> Resolved:
        """The description a header record carries. This reads only the
        header's JSON shape: exact ints, rate strings and a config object.
        Building the description checks the structural rules; the policy
        rules are not checked, so a trace of a run that broke the
        resilience or dispersion bounds still reads and the analyzer can
        flag it. ValueError if the header is missing something or breaks a
        structural rule, a time that is not a whole number of ticks
        included."""
        try:
            cfg = header["config"]
            if type(cfg) is not dict:
                raise ValueError(f"config must be an object, got {cfg!r}")
            windows = cfg.get("sync_windows")
            return cls(
                grid=_integer(header["grid"], "grid"),
                **{name: _integer(cfg[name], name) for name in _HEADER_INTS},
                **{name: cfg[name] for name in _HEADER_MODES},  # checked as modes below
                offsets=_integers(cfg["offsets"], "offsets"),
                rates=tuple(map(load_ticks, cfg["rates"])),
                corruptions=tuple(
                    Corruption(c["proc"], c["strategy"], _integer(c["time"], f"corruptions[{i}]"))
                    for i, c in enumerate(cfg["corruptions"])
                ),
                windows=None
                if windows is None
                else tuple(
                    (
                        _integer(start, "sync_windows"),
                        None if end is None else _integer(end, "sync_windows"),
                    )
                    for start, end in windows
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"header is missing or malformed: {exc}") from None


def resolve(config: SimConfig) -> Resolved:
    """Validate one configuration and fix it on its tick grid.

    Every field goes through ``coerce`` first, so a SimConfig written by hand
    with ints, strings or Fractions resolves like one built from a spec.
    The structural rules are ``Resolved``'s own, checked on ticks as it is
    built; only the checks that keep this function's arithmetic safe (n, t,
    k and x, a positive delta_cap, positive rates) come before. The policy
    rules are checked here alone: at most t corruptions, a drift bound of
    at least 0, and explicit initial clocks, one per processor and none
    negative, within the dispersion bound and off the boundary lattice.
    A ValueError says what makes the configuration unusable.
    """
    cfg = SimConfig(**{name: coerce(name, value) for name, value in vars(config).items()})
    n = cfg.n
    t = default_resilience(n) if cfg.t is None else cfg.t
    _check_counts(n, t, cfg.k, cfg.x)
    delta_cap = cfg.delta_cap
    if delta_cap <= 0:
        raise ValueError("maximum network delay must be positive")
    delta_actual = delta_cap if cfg.delta_actual is None else cfg.delta_actual
    gst = cfg.gst
    corruptions = cfg.corruptions
    if len(corruptions) > t:
        raise ValueError("more corruptions than the resilience bound allows")
    windows = cfg.sync_windows

    mode, gap, explicit = cfg.offsets, None, None
    if isinstance(mode, tuple) and mode and isinstance(mode[0], str):
        mode, gap = mode
    elif isinstance(mode, tuple):
        mode, explicit = None, mode
    elif mode == "two_cluster":
        gap = Fraction(DEFAULT_CLUSTER_GAP)

    # a default horizon is gst plus whole views, so on the grid of these
    on_grid = [delta_cap, delta_actual, gst, *(c.time for c in corruptions)]
    if cfg.horizon is not None:
        on_grid.append(cfg.horizon)
    for start, end in windows or ():
        on_grid.append(start)
        if end is not None:
            on_grid.append(end)
    if gap is not None:
        on_grid.append(gap)
    on_grid.extend(explicit or ())
    # ceil(MIN_TICKS_PER_CAP / delta_cap), delta_cap > 0
    floor = -(-MIN_TICKS_PER_CAP * delta_cap.denominator // delta_cap.numerator)
    base_grid = grid_of(on_grid, floor=floor)

    eps = cfg.drift_epsilon
    if eps < 0:
        raise ValueError("drift bound cannot be negative")
    if cfg.drift_rates is not None:
        rates = tuple(_number(r, f"drift_rates[{i}]") for i, r in enumerate(cfg.drift_rates))
    elif eps > 0:
        rng = random.Random(subseed(cfg.seed, "drift"))
        rates = tuple(1 + eps * Fraction(rng.randint(-16, 16), 16) for _ in range(n))
    else:
        rates = (1,) * n
    unit = _unit(rates)
    grid = base_grid * unit

    tick = partial(to_ticks, grid=grid)
    gamma_ticks = cfg.x * tick(delta_cap)
    period = cfg.k * gamma_ticks
    correct = sorted(set(range(n)) - {c.proc for c in corruptions})
    if explicit is not None:
        if len(explicit) != n:
            raise ValueError("need one initial clock per processor")
        if any(v < 0 for v in explicit):
            raise ValueError("initial clocks cannot be negative")
        offsets = [tick(v) for v in explicit]
        correct_offs = [offsets[p] for p in correct]
        if not check_dagger(correct_offs, gamma_ticks, t):
            raise ValueError("initial clocks violate the dispersion condition")
        if unit == 1:  # every rate is 1
            hit = _lattice_collision(correct_offs, period)
            if hit is not None:
                raise ValueError(
                    f"initial clocks {hit} collide on the boundary lattice; nudge one by a tick"
                )
    else:
        # drawn in whole base ticks, like every other random choice
        offsets = generate_initial_offsets(
            n,
            t,
            gamma_ticks // unit,
            mode,
            subseed(cfg.seed, "offsets"),
            correct=correct,
            period=period // unit,
            gap=None if gap is None else to_ticks(gap, base_grid),
        )
        offsets = [o * unit for o in offsets]
    return Resolved(
        grid=grid,
        n=n,
        t=t,
        k=cfg.k,
        x=cfg.x,
        seed=cfg.seed,
        network=cfg.network,
        leaders=cfg.leaders,
        stop=cfg.stop,
        gamma=gamma_ticks,
        delta_cap=tick(delta_cap),
        delta_actual=tick(delta_actual),
        gst=tick(gst),
        horizon=tick(gst) + 3 * cfg.k * (t + 3) * gamma_ticks
        if cfg.horizon is None
        else tick(cfg.horizon),
        offsets=tuple(offsets),
        rates=rates,
        corruptions=tuple(Corruption(c.proc, c.strategy, tick(c.time)) for c in corruptions),
        windows=None
        if windows is None
        else tuple((tick(s), None if e is None else tick(e)) for s, e in windows),
    )


def _payload_dict(ptype: str):
    """The function that writes a payload of type ``ptype`` as its trace
    form: "type", "view" and the fields PAYLOAD_FIELDS gives it, a tuple of
    ints as a list. It is compiled from source text built here, so it runs
    as a handwritten lambda would."""
    values = "".join(
        f", {name!r}: list(m.{name})" if shape == "ints" else f", {name!r}: m.{name}"
        for name, shape in PAYLOAD_FIELDS[ptype].items()
    )
    source = f'lambda m: {{"type": {ptype!r}, "view": m.view{values}}}'
    return eval(compile(source, f"<payload dict: {ptype}>", "eval"))


# payload class -> its trace form; each class is named for its type in
# CamelCase ("view_message" is ViewMessage)
_PAYLOAD_DICTS = {
    globals()[ptype.title().replace("_", "")]: _payload_dict(ptype) for ptype in PAYLOAD_FIELDS
}


def payload_to_dict(payload) -> dict:
    to_dict = _PAYLOAD_DICTS.get(type(payload))
    if to_dict is None:
        raise TypeError(f"cannot serialise payload {payload!r}")
    return to_dict(payload)


class Simulation:
    """One configured run. Build, then call run() for the trace records."""

    def __init__(self, config: SimConfig):
        r = self.resolved = resolve(config)
        # a record's seq is its index here, which a deliver's "back" counts from
        self.records: list[Record] = []
        self.heap: list = []
        self.counter = itertools.count()
        self.params = r.params
        # only uniform_random draws due times, so only it has a network stream
        uniform = r.network == "uniform_random"
        self.net_rng = random.Random(subseed(r.seed, "net")) if uniform else None
        self._never = r.horizon + r.delta_cap + r.unit  # after the last event
        self.ledger = SignatureLedger()
        self.states = [ProcessorState(p, clock) for p, clock in enumerate(r.offsets)]
        self.subs = [UnderlyingState() for _ in range(r.n)]
        self.offset: list[int] = list(r.offsets)  # clock model intercepts
        # each clock reads offset + num * now // den, an exact division on the grid
        self.rates = [(rate.numerator, rate.denominator) for rate in r.rates]
        # each clock forward bumps its processor's gen, which supersedes the
        # threshold event queued for it; _superseded counts the forwards since
        # the last sweep, a bound on the superseded events in the heap, and
        # _drop_superseded sweeps them out once that bound passes half of it
        self.gen = [0] * r.n
        self._superseded = 0
        self.corrupted = [False] * r.n
        # corrupted under a passive strategy: no handler runs for it again
        self.silent = [False] * r.n
        self.controls = {
            c.proc: ByzantineControl(c.proc, c.strategy, r.n, subseed(r.seed, f"byz:{c.proc}"))
            for c in r.corruptions
        }
        self.t_star_ticks: Optional[int] = None
        self._sync_target_view: Optional[int] = None

    # -- clock model --------------------------------------------------------

    def _threshold_time(self, p: int, boundary: int) -> int:
        num, den = self.rates[p]
        when, off_grid = divmod((boundary - self.offset[p]) * den, num)
        if off_grid:
            raise SimulationError(f"processor {p} reaches clock {boundary} between two ticks")
        return when

    # -- record plumbing ----------------------------------------------------

    def _real(self, ticks: int) -> int:
        """A time as the trace records it: its tick count. Kept as the one
        call perfbench counts for every record time but a delivery's."""
        return ticks

    def _push(self, when: int, prio: int, a: int, b: int, kind: str, data) -> None:
        if when > self.resolved.horizon:
            return
        heappush(self.heap, (when, prio, a, b, next(self.counter), kind, data))

    def schedule_wake(self, proc: int, payload, when: int) -> None:
        self._push(when, _PRIO_DELIVER, proc, proc, "wake", payload)

    # -- sending ------------------------------------------------------------

    def _due(self, now: int) -> int:
        """When a message sent at ``now`` to another processor is due, in ticks.

        From ``sync``, when the network is (or next becomes) synchronous
        (``sync_start``), it is due at ``max(sync, now) + delta_eff``: the
        cap under worst_case_max_delay, the actual delay otherwise. Under
        uniform_random, each call is instead one draw of a whole number of
        ``unit`` ticks, at least one, up to the bound that governs: the
        actual delay when sent in synchrony, ``sync`` plus the cap before
        it. A message sent after the final synchronous window closes has no
        bound and is due at ``_never``, after the last event.
        """
        r = self.resolved
        sync = sync_start(now, r.gst, r.windows)
        if sync is None:
            return self._never
        if self.net_rng is None:
            return (now if now > sync else sync) + r.delta_eff
        upper = now + r.delta_actual if sync <= now else sync + r.delta_cap
        latest = (upper - now) // r.unit
        if latest < 1:
            return upper
        return now + r.unit * self.net_rng.randint(1, latest)

    def send(self, sender: int, to, payload, now: int) -> None:
        """The one gate into the network (see the module docstring)."""
        ptype = type(payload)
        r = self.resolved
        if ptype is Vote or ptype is ViewMessage:
            if payload.signer != sender:
                raise SimulationError(
                    f"processor {sender} cannot send processor {payload.signer}'s signature"
                )
            sign = SIGN_VIEW if ptype is ViewMessage else SIGN_VOTE
            self.ledger.record(sender, sign, payload.view)
        elif ptype is QuorumCertificate or ptype is ViewCertificate:
            validate = validate_qc if ptype is QuorumCertificate else validate_vc
            if not validate(payload, r.n, r.t, self.ledger):
                need = r.n - r.t if ptype is QuorumCertificate else r.t + 1
                raise SimulationError(f"sent {payload!r} needs {need} distinct signatures that were made")
        # nothing is emitted before this send's record, whose seq the envelope carries
        envelope = (len(self.records), payload)
        if to != ALL:  # one recipient, as most sends have
            recipients = [to]
            when = now if to == sender else self._due(now)
            delays = [when - now]
            if when <= r.horizon:
                event = (when, _PRIO_DELIVER, sender, to, next(self.counter), "dlv", envelope)
                heappush(self.heap, event)
        else:
            recipients = list(range(r.n))
            horizon, heap, counter = r.horizon, self.heap, self.counter
            if self.net_rng is not None:  # one draw per other recipient, in recipient order
                due = self._due
                delays = []
                for q in recipients:
                    when = now if q == sender else due(now)
                    delays.append(when - now)
                    if when <= horizon:
                        event = (when, _PRIO_DELIVER, sender, q, next(counter), "dlv", envelope)
                        heappush(heap, event)
            else:
                # every other network gives all of them one time, so one
                # delay, computed once; the events share the one time object,
                # which the heap's tuple comparisons match by identity
                far = self._due(now)
                delays = [far - now] * r.n
                delays[sender] = 0
                for q in recipients:
                    when = now if q == sender else far
                    if when <= horizon:
                        event = (when, _PRIO_DELIVER, sender, q, next(counter), "dlv", envelope)
                        heappush(heap, event)
        self.records.append(
            {
                "kind": "send",
                "time": self._real(now),
                "sender": sender,
                "recipients": recipients,
                "payload": payload_to_dict(payload),
                "delays": delays,
            }
        )

    # -- action dispatch ----------------------------------------------------

    def _dispatch(self, p: int, actions: list, now: int) -> None:
        """Perform processor p's actions. A corrupted processor's list goes
        through its strategy first: the one place ``transform`` is called."""
        if self.corrupted[p]:
            actions = self.controls[p].transform(actions, self, now)
        r = self.resolved
        for act in actions:
            kind = type(act)
            if kind is Send:
                self.send(p, act.to, act.payload, now)
            elif kind is ForwardClock:
                target = act.to
                num, den = self.rates[p]
                self.offset[p] = target - num * now // den
                self.states[p].clock = target
                self.gen[p] += 1
                self._superseded += 1
                if 2 * self._superseded > len(self.heap):
                    self._drop_superseded()
                self._schedule_threshold(p, (target // r.period + 1) * r.period)
            elif kind is EnterView:
                extra = on_enter_view(self.states[p], self.subs[p], act.view, self.params)
                if extra:
                    self._dispatch(p, extra, now)
            elif kind is FormQC or kind is FormVC:
                cert = act.qc if kind is FormQC else act.vc
                self.records.append(
                    {
                        "kind": "form_qc" if kind is FormQC else "form_vc",
                        "time": self._real(now),
                        "proc": p,
                        "view": cert.view,
                        "signers": list(cert.signers),
                    }
                )
                if (
                    kind is FormQC
                    and self.t_star_ticks is None
                    and p in r.never_corrupted
                    and now > r.gst
                ):
                    self.t_star_ticks = now
                    self._sync_target_view = (cert.view // r.k + 1) * r.k
            else:
                raise SimulationError(f"unhandled action {act!r}")

    # -- event handlers -----------------------------------------------------

    def _receive_correct(self, p: int, payload, now: int) -> list:
        state = self.states[p]
        num, den = self.rates[p]
        state.clock = self.offset[p] + num * now // den
        # by exact type, and each handler by its module-global name at call
        # time, so a handler rebound on the module (as a tracer does) is called
        ptype = type(payload)
        if ptype is Vote:
            return on_vote(state, self.subs[p], payload, self.params)
        if ptype is Proposal:
            return on_proposal(state, self.subs[p], payload, self.params)
        if ptype is QuorumCertificate:
            return on_qc(state, payload, self.params)
        if ptype is ViewMessage:
            return on_view_message(state, payload, self.params)
        if ptype is ViewCertificate:
            return on_vc(state, payload, self.params)
        raise SimulationError(f"unhandled payload {payload!r}")

    def _handle_delivery(self, p: int, envelope: tuple, now: int) -> None:
        """Deliver ``envelope``, ``(send_seq, payload)``, to processor ``p``;
        ``send_seq`` is the seq of the ``send`` record it belongs to."""
        send_seq, payload = envelope
        actions = None if self.silent[p] else self._receive_correct(p, payload, now)
        if self.corrupted[p] and isinstance(payload, QuorumCertificate):
            self.controls[p].saw_qc(payload, self, now)
        state = self.states[p]
        records = self.records
        # due at its send's time plus its send's delay for p, so no time of
        # its own; its send is back that many records from its own seq
        records.append(
            {
                "kind": "deliver",
                "back": len(records) - send_seq,
                "recipient": p,
                "proc_view": state.view,
                "proc_clock": state.clock,
            }
        )
        if actions:
            self._dispatch(p, actions, now)

    def _handle_threshold(self, p: int, boundary: int, gen: int, now: int) -> None:
        if gen != self.gen[p] or self.silent[p]:
            return  # superseded by a clock forward, or silenced since it was queued
        state = self.states[p]
        state.clock = boundary
        actions = on_clock_reaches(state, boundary, self.params)
        self.records.append(
            {
                "kind": "threshold",
                "time": self._real(now),
                "proc": p,
                "boundary_clock": self._real(boundary),
                "proc_view": state.view,
            }
        )
        self._schedule_threshold(p, boundary + self.resolved.period)
        if actions:
            self._dispatch(p, actions, now)

    def _schedule_threshold(self, p: int, boundary: int) -> None:
        """Queue processor p's next threshold, at clock ``boundary``."""
        if self.silent[p]:
            return
        when = self._threshold_time(p, boundary)
        if when <= self.resolved.horizon:
            data = (boundary, self.gen[p])
            heappush(self.heap, (when, _PRIO_THRESHOLD, p, p, next(self.counter), "thr", data))

    def _drop_superseded(self) -> None:
        """Remove the threshold events a clock forward superseded from the
        heap, in place. Every other event keeps its key, so the events
        still to come are popped in the same order."""
        gen, heap = self.gen, self.heap
        heap[:] = [e for e in heap if e[5] != "thr" or e[6][1] == gen[e[2]]]
        heapify(heap)
        self._superseded = 0

    def _apply_corruption(self, proc: int, strategy: str, now: int) -> None:
        self.corrupted[proc] = True
        self.silent[proc] = self.controls[proc].passive
        self.records.append(
            {
                "kind": "corrupt",
                "time": self._real(now),
                "proc": proc,
                "strategy": strategy,
            }
        )
        self.controls[proc].on_corrupt(self, now)

    def _handle_wake(self, p: int, payload, now: int) -> None:
        self.records.append({"kind": "wake", "time": self._real(now), "proc": p})
        self.controls[p].on_wake(payload, now, self)

    # -- stop conditions ----------------------------------------------------

    def _should_stop(self) -> Optional[str]:
        if self.t_star_ticks is None:
            return None
        mode = self.resolved.stop
        if mode == "t_star":
            return "t_star"
        if mode == "sync_plus":
            target = self._sync_target_view
            if all(self.states[p].view >= target for p in self.resolved.never_corrupted):
                return "sync_plus"
        return None

    # -- main loop ----------------------------------------------------------

    def run(self) -> list[Record]:
        r = self.resolved
        self.records.append(r.header())

        for c in r.corruptions:
            if c.time == 0:
                self._apply_corruption(c.proc, c.strategy, 0)
            else:
                self._push(c.time, _PRIO_CORRUPT, c.proc, c.proc, "corrupt", c.strategy)

        # Everyone starts in view 0; the view-0 leader proposes immediately.
        for p in range(r.n):
            if not self.silent[p]:
                actions = on_enter_view(self.states[p], self.subs[p], 0, self.params)
                if actions:
                    self._dispatch(p, actions, 0)
        for p in range(r.n):  # the first boundary at or above each initial clock
            self._schedule_threshold(p, -(-r.offsets[p] // r.period) * r.period)

        stop_reason, stop_time = "horizon", r.horizon
        heap, horizon, may_stop = self.heap, r.horizon, r.stop != "horizon"
        handle_delivery = self._handle_delivery
        while heap:
            when, _prio, a, b, _, kind, data = heappop(heap)
            if when > horizon:
                break
            if kind == "dlv":
                handle_delivery(b, data, when)
            elif kind == "thr":
                boundary, gen = data
                self._handle_threshold(a, boundary, gen, when)
            elif kind == "wake":
                self._handle_wake(a, data, when)
            elif kind == "corrupt":
                self._apply_corruption(a, data, when)
            else:
                raise SimulationError(f"unhandled event kind {kind!r}")
            if may_stop and self.t_star_ticks is not None:
                reason = self._should_stop()
                if reason is not None:
                    stop_reason, stop_time = reason, when
                    break
        self.records.append({"kind": "end", "time": self._real(stop_time), "reason": stop_reason})
        return self.records


"""Omniscient trace analysis: run metrics plus machine-checked invariants.

The analyzer replays the clock model from the header (initial values, rates)
and the observed forwards, so it can evaluate any processor's clock at any
instant without trusting the simulator's bookkeeping twice. Every time is an
exact int tick, and every replayed clock is kept multiplied by ``q``, the lcm
of the rates' denominators, so that ``offset + rate * now`` is integer
arithmetic at any int time, on the simulator's grid or off it. Everything else
is recomputed from the records: view entries, certificate sightings, word
counts. Checks that depend on a hypothesis (a timely window, an uncorrupted
leader) are evaluated against the recorded data and skipped as vacuous when
the hypothesis fails, never silently weakened.

A record's seq is its index in the trace, which the scan counts. Each
``deliver`` record is joined to the ``send`` record ``back`` records before
it, at seq ``seq - back``, for the send's time, sender and payload, and for
its own time: the send's time plus its ``delays`` entry for its recipient.
The trace keeps those two differences as they are, and the join is the one
place they are added back. A ``deliver`` makes the trace unusable if it
names no earlier send listing its recipient (a ``back`` below 1, or one that
reaches the header or past it, names none), or if that recipient already
had this send delivered. So does a ``sender``,
``recipients`` entry, recipient, ``proc`` or signer that is not a processor
id: an int, not a bool or a float, and in ``[0, n)`` except for signers,
whose range is an invariant, and a send's ``recipients`` that lists no
processor, or one twice. So does a payload ``type`` that
``trace.PAYLOAD_FIELDS`` does not list, a ``header`` record at any seq but
0 (a trace has one header: a file's reader starts the next trace at a header
directly after an end record), a ``proc_view``, a payload's
``view`` or a proposal's ``leader`` that is not an int, or a ``form_qc`` or
``form_vc`` record's ``view`` that is not an int at least 0, or an ``end``
record's ``reason`` that is neither ``"horizon"`` nor the header's stop
mode, the only reasons a run stops for, or an ``end`` record whose reason
is ``"horizon"`` and whose time is not the header's horizon, where a run
that stops there writes it, or any record after the ``end`` record, which
a run writes last (the error names the record after it), or a record whose
time (a ``deliver``'s is its due time) is before the time of the record
before it, as a run writes its records in time order, or a
``corrupt`` record whose
``proc`` is not one of the header's corruptions, or whose ``strategy`` or
``time`` is not that corruption's, or that names a processor an earlier one
corrupted; so does a trace that ends at or after a header corruption's time
without its ``corrupt`` record. Such an error names its record's seq. A
read that fails in the scan (a ``KeyError``, ``TypeError`` or
``IndexError``) is located at the record being scanned: it names that
record's first absent or malformed field (``trace.malformed_field``), and if
the record has none, it is a bug here and propagates. A time that is not an
exact int (a trace v3 ``"p/q"`` tick included) names the seq it is read at.
A certificate formed by anyone but its view's leader is an
``aggregator_leader`` violation, and a proposal that a correct sender makes
for a view it does not lead, or naming another leader, a ``proposal_leader``
one. A vote or view message whose ``signer`` is not its sender is a forged
signature, which the model excludes: whoever sent it, it is a ``vote_view``
or ``signing_clock`` violation at its send, and it signs for nobody, so no
certificate check counts it. A ``send`` record costs one word per recipient
other than its sender: every word window (the first-quorum budget and the
pace gaps) is keyed on send time, which all recipients of one send share.

The analyzer reads the records once, in order, and keeps none once its scan
has passed it: a ``send`` record leaves only the index entry that its
deliveries are joined to, and once each of its recipients had it delivered,
only its recipients, which a later ``deliver`` naming it is refused by. So
memory grows with the sends still owed a delivery, not with all sends; a
trace can be analyzed as it is parsed (``trace.iter_trace``), and the end
record's seq and time are taken after the scan. A list and a stream of the
same records give the same result or the same error: the first fault in
file order, since each record is checked as the scan reaches it. The scan
also builds each view's ``(start, until, proc)`` spans as processors enter
views, and the underlying-contract check reads them rather than rebuilding
them from the entries.

Violations are data, not exceptions: each carries the invariant id and the
seq of the offending record, so a planted fault can be located in the trace
it came from.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, groupby
from operator import itemgetter
from typing import Any, NamedTuple, Optional

from .constants import RESPONSE_STEPS_C, WORD_RATE_W
from .core import leader_of
from .simnet import Resolved, check_dagger, sync_start
from .timeutil import from_ticks
from .trace import Record, malformed_field


class TraceAnalysisError(Exception):
    """The trace is structurally valid JSON but semantically unusable."""


class Violation(NamedTuple):
    invariant: str
    seq: int
    detail: str = ""


@dataclass
class RunMetrics:
    """Headline numbers for one run, in real time units.

    t_star is the first time strictly after stabilisation at which a correct
    leader assembles a quorum certificate, or None if the trace ends first.
    f_star counts the obstructing corrupted-leader groups that the latency
    and word bounds are allowed to charge for.
    """

    t_star: Optional[Fraction]
    latency: Optional[Fraction]
    words_counted: int
    f_star: int
    run: Resolved = field(repr=False)  # the run the trace's header describes
    violations: list[Violation] = field(default_factory=list)


INF = math.inf
_INT = {int}


def _ticks(value, seq: int) -> int:
    """One record time, in ticks: an exact int, not a bool, a float or a string."""
    if type(value) is not int:
        raise TraceAnalysisError(f"malformed time {value!r} at seq {seq}")
    return value


def _first_quorum(spans, need: int, gst) -> Optional[tuple[Any, dict[int, Any]]]:
    """The earliest instant at or after gst that lies inside at least
    ``need`` of the ``(start, until, proc)`` spans, with each of those spans'
    processor mapped to its ``until``; None if there is no such instant.

    One sweep over the starts and the ends in time order. Membership only
    grows at a start, so the instant is gst or a later start. A processor
    has at most one span per view, so it names its span.
    """
    starts = sorted(spans)
    ends = sorted(spans, key=itemgetter(1))
    members: dict[int, Any] = {}
    i = j = 0
    at = gst
    while True:
        while i < len(starts) and starts[i][0] <= at:
            _start, until, p = starts[i]
            # an edited trace's span may end before it starts, at an end
            # the loop below has already passed
            if until > at:
                members[p] = until
            i += 1
        while j < len(ends) and ends[j][1] <= at:
            members.pop(ends[j][2], None)
            j += 1
        if len(members) >= need:
            return at, members
        if i == len(starts):
            return None
        at = starts[i][0]


def _views(first: int, last: int) -> str:
    """A run of boundary views, as a violation's detail names it."""
    return f"view {first}" if first == last else f"views {first} to {last}"


class _Proc:
    __slots__ = (
        "rate",
        "view",
        "corrupted_at",
        "offset_log",
        "entries",
        "sent_view_msgs",
        "sent_votes",
        "qc_receipt",
    )

    def __init__(self, offset, rate):
        # both times the analyzer's q, so the clock at any int time is an int;
        # the offset in force is the analyzer's, in its ``offsets``
        self.rate = rate
        self.view = 0
        self.corrupted_at: Any = INF
        self.offset_log: list[tuple[int, Any]] = [(-1, offset)]  # (seq, offset)
        self.entries: list[tuple[Any, int, int]] = [(0, 0, -1)]  # (time, view, seq)
        self.sent_view_msgs: set[int] = set()
        self.sent_votes: set[int] = set()
        self.qc_receipt: dict[int, tuple[Any, int]] = {}  # view -> (time, seq)

    def clock_before(self, now, seq: int):
        """Clock value, times q, using the offset in force just before record seq."""
        idx = max(bisect_right(self.offset_log, (seq - 1, INF)) - 1, 0)
        return self.offset_log[idx][1] + self.rate * now

    def correct_at(self, now) -> bool:
        return now < self.corrupted_at


class _Analyzer:
    # The scan reads this object's attributes at every record. CPython 3.11
    # to 3.13 read an object's attributes more slowly once its __init__ sets
    # 30 or more (a scan of the 69 033-record long_run trace took about 4%
    # longer at 30), so __init__ sets 29.

    def __init__(self, records: Iterable[Record]):
        records = iter(records)
        head = next(records, None)
        if head is None or head.get("kind") != "header":
            raise TraceAnalysisError("trace must start with a header record")
        try:
            r = self.resolved = Resolved.from_header(head)
        except ValueError as exc:
            raise TraceAnalysisError(str(exc)) from None
        # every record, for the scan to read once: none is kept once read
        self.records = chain((head,), records)
        self.ids = frozenset(range(r.n))  # every id a record may name a processor by
        q = self.q = math.lcm(*(rate.denominator for rate in r.rates))
        # each processor's clock is offsets[p] + procs[p].rate * now, times q
        self.offsets = [off * q for off in r.offsets]
        self.procs = [
            _Proc(off, rate.numerator * (q // rate.denominator))
            for off, rate in zip(self.offsets, r.rates)
        ]
        self.none_corrupted = True  # until a corrupt record is scanned
        # the run's constants, read at every record of the scan
        self.gst, self.windows, self.uniform_rates = r.gst, r.windows, r.uniform_rates
        self.delta_cap, self.delta_actual, self.delta_eff = r.delta_cap, r.delta_actual, r.delta_eff
        self.never_corrupted = r.never_corrupted
        # whether a delivery after stabilisation must also meet the actual delay
        self.actual_bound = r.network != "worst_case_max_delay"
        self.dagger_gamma = r.gamma * q

        self.violations: list[Violation] = []
        self.signatures: set[tuple[int, str, int]] = set()
        self.checked_certs: set[tuple] = set()
        self.word_events: list[tuple[Any, int]] = []  # (send_time, words), correct senders
        # seq -> [send_time, sender, payload, recipients, delays, owed]
        # of each send still owed a delivery, where owed has bit i set until
        # recipients[i] has the send delivered; once no bit is left, the send
        # moves to ``delivered`` with its recipients alone, for the join errors
        self.sends: dict[int, list] = {}
        self.delivered: dict[int, list[int]] = {}  # seq -> recipients
        self.qc_first_sight: dict[int, Any] = {}  # view -> first correct sighting time
        # (time, view, seq) of each quorum formed after gst by its view's
        # never-corrupted leader, in trace order
        self.leader_qcs: list[tuple[Any, int, int]] = []
        # view -> (send_time, sender) of each proposal, vote or quorum
        # certificate a never-corrupted processor received after
        # max(gst, send_time) + delta_eff
        self.late_deliveries: dict[int, list[tuple[Any, int]]] = {}
        # view -> (start, until, proc) of each never-corrupted processor's
        # stay in it, closed as the processor enters its next view (until INF
        # for the view it ends the trace in)
        self.spans: dict[int, list[tuple[Any, Any, int]]] = {}
        self.end_seq: Any = None  # the last record's seq and time, once scanned
        self.end_time: Any = None
        self.gst_seq = -1  # the last record before the first stamped after gst

    # -- helpers -------------------------------------------------------------

    def flag(self, invariant: str, seq: int, detail: str = "") -> None:
        self.violations.append(Violation(invariant, seq, detail))

    def leader(self, view: int) -> int:
        return leader_of(view, self.resolved.params)

    def _check_dagger_now(self, now, seq: int) -> bool:
        """Flag the dispersion condition at ``now`` if it fails; return whether it held."""
        if self.none_corrupted and self.uniform_rates:
            clocks = self.offsets  # every clock is its offset plus now: compare the offsets
        else:
            clocks = [
                off + pr.rate * now
                for off, pr in zip(self.offsets, self.procs)
                if now < pr.corrupted_at
            ]
        held = check_dagger(clocks, self.dagger_gamma, self.resolved.t)
        if not held:
            self.flag("dagger", seq, f"correct clock dispersion exceeded at {now} ticks")
        return held

    def _check_certificate(self, kind: str, view: int, signers: Sequence[int], seq: int) -> None:
        # before the cache: (True, 2, 3) and (1.0, 2, 3) hash like (1, 2, 3)
        if not _INT.issuperset(map(type, signers)):
            raise TypeError(f"signers at seq {seq}")  # scan() names the field
        key = (kind, view, tuple(signers))
        if key in self.checked_certs:
            return
        self.checked_certs.add(key)
        r = self.resolved
        distinct = set(signers)
        sig_kind = "view_msg" if kind == "vc" else "vote"
        needed = r.t + 1 if kind == "vc" else r.n - r.t
        if len(distinct) != len(signers) or len(signers) != needed or not distinct <= self.ids:
            self.flag(
                "certificate_signatures", seq, f"malformed {kind} for view {view}: {signers}"
            )
            return
        for s in signers:
            if (s, sig_kind, view) not in self.signatures:
                self.flag(
                    "certificate_signatures", seq, f"signer {s} never signed view {view}"
                )
        honest = len(distinct & r.never_corrupted)
        if kind == "vc" and honest < 1:
            self.flag("vc_honesty", seq, f"view certificate {view} lacks a correct signer")
        if kind == "qc" and honest < r.t + 1:
            self.flag(
                "qc_honesty", seq, f"quorum certificate {view} has {honest} correct signers"
            )

    # -- the scan ------------------------------------------------------------

    def scan(self) -> None:
        r = self.resolved
        gst, period, uniform_rates = r.gst, r.period, r.uniform_rates
        scan_send, scan_deliver, scan_stamp = self._scan_send, self._scan_deliver, self._scan_stamp
        check_dagger_now = self._check_dagger_now
        recheck_dagger = True  # a clock was forwarded or a processor corrupted
        dagger_at = dagger_held = None  # the instant of the last check and its result
        before_gst = True
        now = last = 0  # the header's time
        try:
            for seq, rec in enumerate(self.records):
                kind = rec["kind"]
                if kind == "deliver":
                    now, forwarded = scan_deliver(rec, seq)
                    if forwarded:
                        recheck_dagger = True
                elif kind == "header":
                    if seq:
                        raise TraceAnalysisError(
                            f"header record at seq {seq}: a trace has one header, at seq 0"
                        )
                    check_dagger_now(0, seq)
                    continue
                else:
                    now = rec["time"]
                    if type(now) is not int:
                        now = _ticks(now, seq)
                    if kind == "send":
                        scan_send(rec, now, seq)
                    elif kind == "threshold":
                        boundary = rec["boundary_clock"]
                        if type(boundary) is not int:
                            boundary = _ticks(boundary, seq)
                        if boundary % period != 0:
                            self.flag("threshold_alignment", seq, f"threshold at clock {boundary}")
                        if scan_stamp(self._proc(rec, seq), rec["proc_view"], boundary, now, seq):
                            recheck_dagger = True
                    elif kind == "corrupt":
                        self.procs[self._scan_corrupt(rec, now, seq)].corrupted_at = now
                        self.none_corrupted = False
                        recheck_dagger = True
                    elif kind == "form_vc":
                        self._scan_form(rec, "vc", seq)
                    elif kind == "form_qc":
                        self._scan_form_qc(rec, now, seq)
                    elif kind == "end":
                        reason = rec["reason"]  # why the run stopped: its horizon or its stop mode
                        if reason != "horizon" and reason != r.stop:
                            raise TraceAnalysisError(
                                f"end record at seq {seq}: field 'reason' is malformed: "
                                f"{reason!r} under stop mode {r.stop!r}"
                            )
                        if reason == "horizon" and now != r.horizon:
                            raise TraceAnalysisError(
                                f"end record at seq {seq}: field 'time' is malformed: "
                                f"{now!r}, where the header's horizon is {r.horizon}"
                            )
                        # a run writes its end record last: what follows is
                        # the fault, located at its own record, unless this
                        # record's own time is (checked below), which comes first
                        after = next(self.records, None) if now >= last else None
                        if after is not None:
                            rec, seq = after, seq + 1
                            raise TraceAnalysisError(
                                f"{rec['kind']} record at seq {seq}: "
                                f"a trace ends at its end record, at seq {seq - 1}"
                            )
                    elif kind == "wake":
                        self._proc(rec, seq)  # read for its shape alone
                    else:
                        raise TraceAnalysisError(f"unknown record kind {kind!r} at seq {seq}")
                if now < last:  # a run writes its records in time order
                    raise TraceAnalysisError(
                        f"{kind} record at seq {seq}: its time {now} is before "
                        f"the time {last} of the record before it"
                    )
                last = now
                if before_gst:
                    if now > gst:
                        before_gst = False
                    else:
                        self.gst_seq = seq
                if recheck_dagger or not uniform_rates:
                    if recheck_dagger or now != dagger_at:
                        dagger_at, dagger_held = now, check_dagger_now(now, seq)
                    elif not dagger_held:  # the same clocks as at the last check
                        detail = f"correct clock dispersion exceeded at {now} ticks"
                        self.flag("dagger", seq, detail)
                    recheck_dagger = False
        except (KeyError, TypeError, IndexError) as exc:
            # a failed read: the record being scanned is the first fault in
            # file order, and its first field out of shape is the fault
            found = malformed_field(rec, r.n)
            if found is None:
                raise  # every field in shape: a bug here
            name, problem = found
            where = f"record {seq}" if name == "kind" else f"{rec['kind']} record at seq {seq}"
            raise TraceAnalysisError(f"{where}: field {name!r} {problem}") from exc
        self.end_seq, self.end_time = seq, now
        self._check_corrupted(now, seq)
        for p in self.never_corrupted:  # the view each processor ends the trace in
            pr = self.procs[p]
            self.spans.setdefault(pr.view, []).append((pr.entries[-1][0], INF, p))

    def _proc(self, rec: Record, seq: int) -> int:
        """The ``proc`` of a record, which must be a processor id."""
        p = rec["proc"]
        if type(p) is not int or p not in self.ids:
            raise IndexError(f"proc {p!r} at seq {seq}")  # scan() names the field
        return p

    def _scan_corrupt(self, rec: Record, now: int, seq: int) -> int:
        """The processor a ``corrupt`` record names, which must be one of the
        header's corruptions, with that corruption's strategy and time, and
        not named by an earlier ``corrupt`` record."""
        p = self._proc(rec, seq)
        strategy = rec["strategy"]
        planned = next((c for c in self.resolved.corruptions if c.proc == p), None)
        if planned is None:
            name, problem = "proc", f"{p} is not a corruption the header lists"
        elif strategy != planned.strategy:
            name, problem = "strategy", f"{strategy!r}, where the header has {planned.strategy!r}"
        elif now != planned.time:
            name, problem = "time", f"{now}, where the header has {planned.time}"
        elif self.procs[p].corrupted_at != INF:
            name, problem = "proc", f"{p} was corrupted by an earlier corrupt record"
        else:
            return p
        where = f"corrupt record at seq {seq}: field {name!r}"
        raise TraceAnalysisError(f"{where} is malformed: {problem}")

    def _check_corrupted(self, end_time, end_seq: int) -> None:
        """Each of the header's corruptions at or before the trace's end
        time has its ``corrupt`` record (``_scan_corrupt`` refuses a second)."""
        for c in self.resolved.corruptions:
            if c.time <= end_time and self.procs[c.proc].corrupted_at == INF:
                raise TraceAnalysisError(
                    f"trace ends at seq {end_seq}, time {end_time}, with no corrupt record "
                    f"for processor {c.proc}, which the header corrupts at {c.time}"
                )

    def _unjoined(self, rec: Record, src: int) -> str:
        """Why a ``deliver`` record, whose send would be at seq ``src``, has
        no delivery owed to join."""
        p = rec["recipient"]
        sent = self.sends.get(src)
        recipients = self.delivered.get(src) if sent is None else sent[3]
        if recipients is None:
            return f"field 'back' names no earlier send record: {rec['back']!r}"
        if p not in recipients:
            return f"send record at seq {src} does not list recipient {p!r}"
        return f"send record at seq {src} was already delivered to recipient {p!r}"

    def _scan_send(self, rec: Record, now, seq: int) -> None:
        sender = rec["sender"]
        payload = rec["payload"]
        recipients, delays = rec["recipients"], rec["delays"]
        if (
            type(recipients) is not list
            or type(delays) is not list
            or len(delays) != len(recipients)
        ):
            raise TypeError(f"recipients or delays at seq {seq}")  # scan() names it
        # a negative id would index from the end, and a bool or a float
        # would pass for an int; a deliver's recipient is one of these
        if type(sender) is not int or sender < 0:
            raise IndexError(f"sender or recipients at seq {seq}")  # scan() names it
        count = len(recipients)
        if count == 1:  # one recipient, as most sends have
            (recipient,) = recipients
            if recipient not in self.ids:
                raise IndexError(f"sender or recipients at seq {seq}")  # scan() names it
            if type(recipient) is not int or type(delays[0]) is not int:
                raise TypeError(f"recipients or delays at seq {seq}")  # scan() names it
            words = 0 if recipient == sender else 1
        else:
            if not self.ids.issuperset(recipients):
                raise IndexError(f"sender or recipients at seq {seq}")  # scan() names it
            if not (
                _INT.issuperset(map(type, recipients)) and _INT.issuperset(map(type, delays))
            ):
                raise TypeError(f"recipients or delays at seq {seq}")  # scan() names it
            # no recipient, or one listed twice (a deliver would join the first)
            if not 0 < count == len(set(recipients)):
                raise TraceAnalysisError(
                    f"send record at seq {seq}: field 'recipients' is malformed: {recipients!r}"
                )
            words = count - (sender in recipients)
        ptype, view = payload["type"], payload["view"]
        if type(view) is not int:
            raise TypeError(f"payload view {view!r} at seq {seq}")  # scan() names it
        pr = self.procs[sender]
        correct = now < pr.corrupted_at
        if ptype == "view_message" or ptype == "vote":
            signer = payload["signer"]
            if type(signer) is not int:
                raise TypeError(f"signer at seq {seq}")  # scan() names the field
            signed = signer == sender
            if signed:
                sig_kind = "view_msg" if ptype == "view_message" else "vote"
                self.signatures.add((signer, sig_kind, view))
            else:  # a forgery, from any sender: it signs for nobody
                invariant = "signing_clock" if ptype == "view_message" else "vote_view"
                self.flag(invariant, seq, f"processor {sender} signed as processor {signer}")
        if ptype == "view_message":
            if correct:
                if signed and view in pr.sent_view_msgs:
                    self.flag("duplicate_view_message", seq, f"second view message for {view}")
                pr.sent_view_msgs.add(view)
                floor = view * self.resolved.gamma
                if self.offsets[sender] + pr.rate * now < floor * self.q:
                    self.flag(
                        "signing_clock", seq, f"view message {view} signed below clock {floor}"
                    )
        elif ptype == "vote":
            if correct:
                if signed and view in pr.sent_votes:
                    self.flag("duplicate_vote", seq, f"second vote for {view}")
                pr.sent_votes.add(view)
                if pr.view != view:
                    self.flag("vote_view", seq, f"vote for {view} while in view {pr.view}")
        elif ptype == "proposal":
            leader = payload["leader"]
            if type(leader) is not int:
                raise TypeError(f"leader at seq {seq}")  # scan() names the field
            if correct and (leader != sender or view < 0 or self.leader(view) != sender):
                detail = f"processor {sender} proposed view {view} naming leader {leader}"
                self.flag("proposal_leader", seq, detail)
        elif ptype == "view_certificate":
            self._check_certificate("vc", view, payload["signers"], seq)
        elif ptype == "quorum_certificate":
            self._check_certificate("qc", view, payload["signers"], seq)
        else:
            where = f"send record at seq {seq}: field 'payload.type'"
            raise TraceAnalysisError(f"{where} is no payload type: {ptype!r}")
        if correct and words:
            self.word_events.append((now, words))
        owed = (1 << count) - 1  # bit i: recipients[i] is owed a delivery
        self.sends[seq] = [now, sender, payload, recipients, delays, owed]

    def _scan_stamp(self, p: int, view: int, clock, now, seq: int) -> bool:
        """Fold one observed (view, clock) snapshot into the replayed model.

        Returns True when the processor's clock was forwarded here.
        """
        if type(view) is not int:
            raise TypeError(f"view {view!r} at seq {seq}")  # scan() names the field
        pr = self.procs[p]
        if not now < pr.corrupted_at:
            return False
        clock *= self.q
        expected = self.offsets[p] + pr.rate * now
        forwarded = False
        if clock < expected:
            self.flag("clock_monotonicity", seq, f"processor {p} clock moved backwards")
        elif clock > expected:
            offset = self.offsets[p] = clock - pr.rate * now
            pr.offset_log.append((seq, offset))
            forwarded = True
        if view != pr.view:
            # inside view != pr.view, view < pr.view and view <= pr.view agree
            if view < pr.view:
                self.flag("view_monotonicity", seq, f"processor {p} view moved backwards")
            else:
                if p in self.never_corrupted:
                    self.spans.setdefault(pr.view, []).append((pr.entries[-1][0], now, p))
                pr.view = view
                pr.entries.append((now, view, seq))
        return forwarded

    def _scan_deliver(self, rec: Record, seq: int) -> tuple[int, bool]:
        """One ``deliver`` record, joined to the send ``back`` records before
        it: its time, which is the send's time plus its ``delays`` entry for
        its recipient, its recipient's snapshot, then the delivery itself.
        Returns the time, and whether the recipient's clock was forwarded
        here."""
        p = rec["recipient"]
        back = rec["back"]
        if type(p) is not int or type(back) is not int:  # True would join as 1
            raise TypeError(f"recipient or back at seq {seq}")  # scan() names it
        src = seq - back
        try:
            sent = self.sends[src]
            i = sent[3].index(p)
        except (KeyError, ValueError):
            i = None
        if i is None or not sent[5] >> i & 1:
            why = self._unjoined(rec, src)
            raise TraceAnalysisError(f"deliver record at seq {seq}: {why}")
        send_time, sender, payload, recipients, delays, owed = sent
        owed ^= 1 << i
        if owed:
            sent[5] = owed
        else:  # delivered to every recipient: only the join errors read it again
            del self.sends[src]
            self.delivered[src] = recipients
        now = send_time + delays[i]  # exact ints, checked with its send record
        proc_view, clock = rec["proc_view"], rec["proc_clock"]
        if type(clock) is not int:
            clock = _ticks(clock, seq)
        forwarded = self._scan_stamp(p, proc_view, clock, now, seq)

        gst = self.gst
        if sender == p:
            if now != send_time:
                self.flag("delivery_bound", seq, "self delivery not instantaneous")
        else:
            if self.windows is None:
                sync = gst
            else:
                sync = sync_start(send_time, gst, self.windows)
                if sync is None:  # sent after the final window closed: no upper bound
                    sync = INF
            # max(sync, send_time); where they are equal, > and >= agree
            bound = (sync if sync > send_time else send_time) + self.delta_cap
            if now <= send_time or now > bound:
                self.flag(
                    "delivery_bound", seq, f"delivery at {now} outside ({send_time}, {bound}]"
                )
            elif self.actual_bound and sync <= send_time and now > send_time + self.delta_actual:
                self.flag("delivery_bound", seq, "post-stabilisation delivery exceeded delta")
        if p not in self.never_corrupted:
            return now, forwarded
        ptype, view = payload["type"], payload["view"]
        if ptype == "quorum_certificate":
            self._sight_qc(p, view, now, seq)
        elif ptype != "proposal" and ptype != "vote":
            return now, forwarded  # a certificate's signers were checked with its send record
        # only a late delivery can make view v untimely in check_underlying_contract;
        # max(gst, send_time), where > and >= agree
        if now > (gst if gst > send_time else send_time) + self.delta_eff:
            self.late_deliveries.setdefault(view, []).append((send_time, sender))
        return now, forwarded

    def _sight_qc(self, p: int, view: int, now, seq: int) -> None:
        """Never-corrupted processor p holds view's quorum certificate from now on."""
        self.procs[p].qc_receipt.setdefault(view, (now, seq))
        if now < self.qc_first_sight.get(view, INF):  # <= would store the same time
            self.qc_first_sight[view] = now

    def _scan_form(self, rec: Record, kind: str, seq: int) -> tuple[int, int, bool]:
        """A ``form_qc`` or ``form_vc`` record: check its certificate, and
        that its view's leader formed it. Returns the record's view, its
        former, and whether the former leads the view."""
        view, proc = rec["view"], self._proc(rec, seq)
        if type(view) is not int or view < 0:
            raise TypeError(f"view {view!r} at seq {seq}")  # scan() names the field
        self._check_certificate(kind, view, rec["signers"], seq)
        lead = self.leader(view)
        if proc != lead:
            detail = f"processor {proc} formed a {kind} for view {view}, led by {lead}"
            self.flag("aggregator_leader", seq, detail)
        return view, proc, proc == lead

    def _scan_form_qc(self, rec: Record, now, seq: int) -> None:
        view, proc, led = self._scan_form(rec, "qc", seq)
        if proc in self.resolved.never_corrupted:
            self._sight_qc(proc, view, now, seq)
            if led and now > self.resolved.gst:
                self.leader_qcs.append((now, view, seq))

    # -- post-scan passes ----------------------------------------------------

    def all_entries(self) -> list[tuple[Any, int, int, int]]:
        out = [
            (when, view, seq, p)
            for p in self.never_corrupted
            for when, view, seq in self.procs[p].entries
        ]
        out.sort(key=itemgetter(0, 2))
        return out

    def first_entry_times(self, entries) -> dict[int, Any]:
        """Each view's first correct entry time, from ``all_entries``."""
        t_of: dict[int, Any] = {}
        for when, view, _seq, _p in entries:
            if view not in t_of:
                t_of[view] = when
        return t_of

    @cached_property
    def _clean_start(self) -> int:
        """Lowest boundary clock value no correct processor started beyond.

        Boundary views below a correct starting clock are already stale when
        the run begins, so the entry-ordering claims only apply from here up.
        """
        r = self.resolved
        max_initial = max(r.offsets[p] for p in r.never_corrupted)
        return -(-max_initial // r.period) * r.period

    def check_first_entry(self, entries) -> None:
        """At each boundary view v, the first entries at or above v enter v
        itself, and no never-corrupted clock is already past v's boundary then.

        The clocks checked are those of the processors whose entries are
        walked (``all_entries``). A processor corrupted later, even after the
        trace ends, enters views the walk does not see, so its clock, moved
        by an entry of its own, would be held to another processor's entry.

        One walk over the entries, which are in (time, seq) order, an instant
        tau at a time: the entries at tau are the first at or above every
        boundary view that is above all views entered before tau. Those
        boundaries are not visited one by one: an entrant fails the order at
        each of them below its own view, and a clock is past a prefix of the
        boundaries whose first entry is one record. So each such run of
        boundaries is flagged once, naming its first and last view.
        """
        r = self.resolved
        k, gamma_q = r.k, r.gamma * self.q  # view v's boundary clock, times q, is v * gamma_q
        low = self._clean_start // r.gamma  # the lowest boundary view not yet entered
        never_corrupted = sorted(self.never_corrupted)
        for tau, at_tau in groupby(entries, key=itemgetter(0)):
            at_tau = list(at_tau)
            for _when, view, seq, _p in at_tau:
                if view > low:
                    views = _views(low, low + (view - 1 - low) // k * k)
                    self.flag(
                        "first_entry_order",
                        max(seq, 0),
                        f"first crossing of {views} entered {view} instead",
                    )
            for _when, view, seq, _p in at_tau:
                if view < low:
                    continue
                # the first entry at or above each boundary from low up to last
                last = low + (view - low) // k * k
                for q in never_corrupted:
                    # the highest view whose boundary the clock is above
                    above = (self.procs[q].clock_before(tau, seq) - 1) // gamma_q
                    if above >= low:
                        top = min(last, low + (above - low) // k * k)
                        self.flag(
                            "first_entry_clocks",
                            max(seq, 0),
                            f"processor {q} clock above {top * r.gamma} "
                            f"when {_views(low, top)} first entered",
                        )
                low = last + k

    def check_entry_identity(self, t_of: dict[int, Any]) -> None:
        """First-entry recurrence between consecutive boundary views.

        Exact only for drift-free clocks: the next boundary is reached either
        by the previous first entrant running one full group, or by someone
        forwarded off a certificate sighting and running out the remainder.
        """
        r = self.resolved
        if not r.uniform_rates:
            return
        clean = self._clean_start
        for v in sorted(v for v in t_of if v % r.k == 0):
            if v * r.gamma < clean or v + r.k not in t_of:
                continue
            candidates = [t_of[v] + r.period]
            for j in range(r.k):
                s_j = self.qc_first_sight.get(v + j)
                if s_j is not None:
                    candidates.append(s_j + (r.k - 1 - j) * r.gamma)
            want = min(candidates)
            if t_of[v + r.k] != want:
                self.flag(
                    "entry_time_identity",
                    self.end_seq,
                    f"entry into {v + r.k} at {t_of[v + r.k]}, recurrence gives {want}",
                )

    def check_qc_before_advance(self, t_of: dict[int, Any]) -> None:
        """Nobody leaves a correct leader's group without its early quorums.

        Needs uninterrupted timeliness from the group entry onward, so it is
        not applied to runs whose synchrony comes in windows.
        """
        r = self.resolved
        if r.windows is not None:
            return
        clean = self._clean_start
        for v in sorted(v for v in t_of if v % r.k == 0):
            if v * r.gamma < clean:
                continue
            if self.leader(v) not in r.never_corrupted or t_of[v] < r.gst:
                continue
            needed = range(v, v + r.k - 2)
            for p in r.never_corrupted:
                pr = self.procs[p]
                # entry views strictly increase per processor (_scan_stamp only
                # appends a higher view), so the first entry at or above v + k bisects
                i = bisect_left(pr.entries, v + r.k, key=itemgetter(1))
                if i == len(pr.entries):
                    continue
                adv_seq = pr.entries[i][2]
                for u in needed:
                    got = pr.qc_receipt.get(u)
                    if got is None or got[1] >= adv_seq:
                        self.flag(
                            "qc_before_advance",
                            max(adv_seq, 0),
                            f"processor {p} reached view {v + r.k} without the quorum for {u}",
                        )

    def compute_t_star(self):
        """(time, view, seq) of the first correct-leader quorum after gst."""
        return self.leader_qcs[0] if self.leader_qcs else (None, None, None)

    @cached_property
    def _word_sums(self) -> tuple[list, list[int]]:
        """The times of ``word_events`` in order, and the running word sums:
        the first i events sent ``sums[i]`` words."""
        # by time; an order among equal times moves no sum at a time boundary
        events = sorted(self.word_events)
        return [when for when, _w in events], list(accumulate((w for _, w in events), initial=0))

    def words_between(self, lo, hi) -> int:
        """Words correct processors sent at times in [lo, hi]."""
        times, sums = self._word_sums
        i = bisect_left(times, lo)
        return sums[max(i, bisect_right(times, hi))] - sums[i]

    def count_words(self, t_star) -> int:
        r = self.resolved
        return self.words_between(r.gst + r.delta_cap, INF if t_star is None else t_star)

    def compute_f_star(self) -> int:
        """Corrupted-leader groups chargeable against the recovery bounds.

        The pivot is the group of the most advanced never-corrupted processor
        at gst (by view held, or by clock when the boundary crossing is still
        pending). The pivot group is charged if corrupted-led, as is every
        further group up to the first with a never-corrupted leader.
        """
        r = self.resolved
        best = None
        for p in sorted(r.never_corrupted):
            pr = self.procs[p]
            clock = pr.clock_before(r.gst, self.gst_seq + 1)
            if best is None or clock > best[0]:
                best = (clock, p)
        clock, p_star = best
        view = max(
            (v for when, v, _seq in self.procs[p_star].entries if when <= r.gst), default=0
        )
        pivot = max(view // r.k, clock // (r.period * self.q))
        group = pivot + 1
        # a never-corrupted processor (Resolved guarantees one) leads within 2n groups
        while self.leader(group * r.k) not in r.never_corrupted:
            group += 1
        f_star = group - pivot - 1
        if self.leader(pivot * r.k) not in r.never_corrupted:
            f_star += 1
        return f_star

    def check_bounds(self, t_star, t_star_seq, f_star: int, words: int) -> None:
        r = self.resolved
        bound = r.k * (f_star + 3) * r.gamma
        if t_star is None:
            if r.horizon >= r.gst + bound:
                detail = "no correct-leader quorum within the bound"
                self.flag("latency_bound", self.end_seq, detail)
            return
        latency = t_star - r.gst
        if latency > bound:
            self.flag("latency_bound", t_star_seq, f"latency {latency} exceeds {bound} ticks")
        budget = WORD_RATE_W * (f_star + 3) * r.n
        if words > budget:
            self.flag("word_bound", t_star_seq, f"{words} words exceed {budget}")
        if self.responsive():
            resp = RESPONSE_STEPS_C * r.delta_actual + r.gamma + r.delta_cap
            if latency > resp:
                self.flag(
                    "responsiveness",
                    t_star_seq,
                    f"latency {latency} exceeds responsive bound {resp}",
                )

    def responsive(self) -> bool:
        """Whether the responsive latency bound applies: no corruptions, a
        network that uses the actual delay, that delay at most a tenth of the
        cap, and every clock starting at the same value."""
        r = self.resolved
        return (
            not r.corruptions
            and self.actual_bound
            and r.delta_actual * 10 <= r.delta_cap
            and len(set(r.offsets)) == 1
        )

    def pace_gaps(self, t_star_view: int) -> list[tuple[int, int, Any, int]]:
        """Steady-state pace from t_star's group on, as ``(ga, gb, elapsed,
        words)``: for each two consecutive correct-led groups where both
        leaders formed a post-gst quorum, the ticks between the first such
        quorums and the words correct processors sent between them."""
        r = self.resolved
        group_qc: dict[int, Any] = {}
        for when, view, _seq in self.leader_qcs:
            if when < group_qc.get(view // r.k, INF):  # <= would store the same time
                group_qc[view // r.k] = when
        correct_led = [
            g
            for g in range(t_star_view // r.k, max(group_qc) + 1)
            if self.leader(g * r.k) in r.never_corrupted
        ]
        gaps = []
        for ga, gb in zip(correct_led, correct_led[1:]):
            if ga not in group_qc or gb not in group_qc:
                continue  # a group without its quorum is not paired across
            lo, hi = group_qc[ga], group_qc[gb]
            gaps.append((ga, gb, hi - lo, self.words_between(lo, hi)))
        return gaps

    def check_post_sync(self, t_star, t_star_view) -> None:
        """Steady-state pace: consecutive correct-led groups after the first
        synchronised quorum stay within the per-gap latency and word budget."""
        r = self.resolved
        if t_star is None or r.windows is not None or not r.uniform_rates:
            return
        for ga, gb, elapsed, words in self.pace_gaps(t_star_view):
            groups = gb - ga
            allowed = r.k * groups * r.gamma + RESPONSE_STEPS_C * r.delta_eff
            if elapsed > allowed:
                self.flag(
                    "post_sync_latency",
                    self.end_seq,
                    f"groups {ga}->{gb} took {elapsed} ticks, allowed {allowed}",
                )
            budget = WORD_RATE_W * groups * r.n
            if words > budget:
                self.flag(
                    "post_sync_words",
                    self.end_seq,
                    f"groups {ga}->{gb} sent {words} words, allowed {budget}",
                )

    def check_underlying_contract(self) -> None:
        """Quorum liveness inside one view: from the first post-gst instant
        with n-t correct processors in view v and its correct leader among
        them, provided they hold the view and the view's traffic met the
        actual delay, every never-corrupted processor holds the quorum
        certificate within three message delays."""
        r = self.resolved
        delta = r.delta_eff
        need = r.n - r.t
        rank = {p: i for i, p in enumerate(r.never_corrupted)}
        lacking = []  # (rank, view, deadline, processors without the quorum by then)
        for view, spans in self.spans.items():
            if len(spans) < need:
                continue
            lead = self.leader(view)
            if lead not in r.never_corrupted:
                continue
            found = _first_quorum(spans, need, r.gst)
            if found is None:
                continue
            s, quorum = found
            if lead not in quorum:
                continue
            deadline = s + 3 * delta
            if deadline >= self.end_time:
                continue  # the trace stops before the conclusion is due
            # untimely: a late proposal, vote or certificate from a sender
            # still correct when it sent
            if any(
                self.procs[sender].correct_at(send)
                for send, sender in self.late_deliveries.get(view, ())
            ):
                continue
            late = [
                p
                for p in r.never_corrupted
                if self.procs[p].qc_receipt.get(view, (INF,))[0] > deadline
            ]
            if not late:
                continue
            # each member holds the view until the deadline or its certificate
            held = all(
                until >= deadline or until >= self.procs[p].qc_receipt.get(view, (INF,))[0]
                for p, until in quorum.items()
            )
            if held:
                # flagged in the order each never-corrupted processor's entries
                # name the views in turn: by the first such processor in the
                # view, then by view
                lacking.append((min(rank[p] for _s, _u, p in spans), view, deadline, late))
        for _rank, view, deadline, late in sorted(lacking):
            for p in late:
                self.flag(
                    "underlying_contract",
                    self.end_seq,
                    f"processor {p} lacked the view {view} quorum by {deadline} ticks",
                )

    # -- orchestration -------------------------------------------------------

    def analyze(self) -> RunMetrics:
        r = self.resolved
        self.scan()
        entries = self.all_entries()
        t_of = self.first_entry_times(entries)
        self.check_first_entry(entries)
        self.check_entry_identity(t_of)
        self.check_qc_before_advance(t_of)
        t_star, t_star_view, t_star_seq = self.compute_t_star()
        f_star = self.compute_f_star()
        words = self.count_words(t_star)
        self.check_bounds(t_star, t_star_seq, f_star, words)
        self.check_post_sync(t_star, t_star_view)
        self.check_underlying_contract()
        return RunMetrics(
            t_star=None if t_star is None else from_ticks(t_star, r.grid),
            latency=None if t_star is None else from_ticks(t_star - r.gst, r.grid),
            words_counted=words,
            f_star=f_star,
            violations=self.violations,
            run=r,
        )


def analyze(records: Iterable[Record]) -> RunMetrics:
    """Full analysis of one trace: headline metrics plus every invariant.

    The records are read once, in order, and none is kept once the scan has
    passed it, so ``records`` may be a list or a stream such as
    ``trace.iter_trace``, with the same result or the same error: the first
    fault in file order, a failed read located at its record's first absent
    or malformed field (``trace.malformed_field``).
    """
    return _Analyzer(records).analyze()

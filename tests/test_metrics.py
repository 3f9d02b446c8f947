"""Planted-fault detection and oracle cross-checks for the trace analyzer."""

import copy
import gc
from dataclasses import replace
import math
import re
import time
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import matrix_cells

import viewsync.trace
from viewsync.constants import RESPONSE_STEPS_C, WORD_RATE_W
from viewsync.core import PermutationSchedule, ProtocolParams, RoundRobinSchedule, leader_of
from viewsync.cli import main
from viewsync.harness import build_config, replay_cell
from viewsync.metrics import (
    INF,
    TraceAnalysisError,
    Violation,
    _Analyzer,
    _first_quorum,
    _Proc,
    _ticks,
    analyze,
)
from viewsync.simnet import Corruption, SimConfig, Simulation, check_dagger, subseed, sync_start
from viewsync.timeutil import from_ticks
from viewsync.trace import (
    PAYLOAD_FIELDS,
    RECORD_FIELDS,
    Record,
    parse_jsonl,
    read_trace,
    to_jsonl,
    write_trace,
)


def run_records(**kw):
    base = dict(n=7, delta_cap=2, gst=0, offsets="all_zero", network="worst_case_max_delay")
    base.update(kw)
    return Simulation(SimConfig(**base)).run()


def params_from(records) -> ProtocolParams:
    cfg = records[0]["config"]
    if cfg["leaders"] == "round_robin":
        schedule = RoundRobinSchedule(cfg["n"])
    else:
        schedule = PermutationSchedule(cfg["n"], subseed(cfg["seed"], "leaders"))
    return ProtocolParams(cfg["n"], cfg["t"], cfg["k"], cfg["gamma"], schedule)


def copied(records):
    """An editable copy of a trace, record by record, so a record listed
    twice becomes two records."""
    return [copy.deepcopy(r) for r in records]


def renumbered(records, source):
    """A copy of ``records``, which lists records of the trace ``source``
    (some repeated, some left out) and new ones, with each deliver's
    ``send`` pointing at its send record's new seq, its index."""
    records = list(records)
    new_seq = {}
    for i, r in enumerate(records):
        new_seq.setdefault(id(r), i)  # a duplicate's deliveries stay with the first
    moved = [new_seq.get(id(r)) for r in source]
    out = copied(records)
    for r in out:
        if r["kind"] == "deliver":
            r["send"] = moved[r["send"]]
    return out


def sent(records, deliver):
    """The send record a deliver record joins: the one at the seq it names."""
    return records[deliver["send"]]


def time_of(records, rec):
    """A record's time; a deliver's is its send's deliver_times entry for its
    recipient."""
    if rec["kind"] != "deliver":
        return rec["time"]
    src = sent(records, rec)
    return src["deliver_times"][src["recipients"].index(rec["recipient"])]


def mutated(records, index, **changes):
    out = copied(records)
    out[index].update(changes)
    return out


def corrupted_from_start(records, *procs):
    """A copy of ``records`` whose header corrupts ``procs`` at time 0 under
    ``silent``, with their ``corrupt`` records right after the header, where
    a run writes them."""
    head = copy.deepcopy(records[0])
    head["config"]["corruptions"] = [{"proc": p, "strategy": "silent", "time": 0} for p in procs]
    planted = [{"kind": "corrupt", "time": 0, "proc": p, "strategy": "silent"} for p in procs]
    return renumbered([head, *planted, *records[1:]], records)


def duplicated(records, index):
    out = list(records)
    out.insert(index + 1, records[index])
    return renumbered(out, records)


def find(records, pred):
    for i, r in enumerate(records):
        if pred(r):
            return i
    raise AssertionError("no matching record")


def rfind(records, pred):
    for i in range(len(records) - 1, -1, -1):
        if pred(records[i]):
            return i
    raise AssertionError("no matching record")


def compute_t_star(records: list, gst, params: ProtocolParams):
    """Independent oracle: first post-gst quorum formed by a correct leader.

    Deliberately a flat scan over raw records rather than a call into the
    analyzer, so the two paths cross-check each other. Takes and returns
    ticks; math.inf when no such event exists.
    """
    if not records or records[0].get("kind") != "header":
        raise TraceAnalysisError("trace must start with a header record")
    corrupted = {c["proc"] for c in records[0]["config"]["corruptions"]}
    for rec in records:
        if rec["kind"] != "form_qc":
            continue
        when = rec["time"]
        if when <= gst or rec["proc"] in corrupted:
            continue
        if rec["proc"] == leader_of(rec["view"], params):
            return when
    return INF


def count_words(records: list, gst, delta_cap, t_star) -> int:
    """Independent oracle: words from correct senders in [gst+delta, t_star],
    all in ticks."""
    if not records or records[0].get("kind") != "header":
        raise TraceAnalysisError("trace must start with a header record")
    corruption_at = {c["proc"]: c["time"] for c in records[0]["config"]["corruptions"]}
    lo = gst + delta_cap
    hi = INF if t_star is None else t_star
    total = 0
    for rec in records:
        if rec["kind"] != "send":
            continue
        when = rec["time"]
        if not lo <= when <= hi:
            continue
        cut = corruption_at.get(rec["sender"])
        if cut is not None and when >= cut:
            continue
        total += sum(q != rec["sender"] for q in rec["recipients"])
    return total


def compute_f_star(records: list, params: ProtocolParams) -> int:
    """Corrupted-leader groups charged by the bounds; see the analyzer."""
    analyzer = _Analyzer(records)
    r = analyzer.resolved
    if (r.n, r.t, r.k) != (params.n, params.t, params.k):
        raise TraceAnalysisError("params do not match the trace header")
    analyzer.scan()
    return analyzer.compute_f_star()

class QuadraticAnalyzer(_Analyzer):
    """The analyzer with its first-entry, advance and underlying-contract
    checks as first written: every boundary rescans every entry, every group
    rescans each processor's entries, and every candidate instant of a view
    recounts the view's spans. Oracle for the linear passes, which must give
    the same metrics and flag the same list."""

    def check_first_entry(self, entries) -> None:
        # each boundary checked on its own, then each run of consecutive
        # boundaries that fail the same way flagged once
        if not entries:
            return
        k = self.resolved.k
        runs = []  # [invariant, seq, entered view or processor, first view, last view]
        latest = {}  # (invariant, seq, entered view or processor) -> its latest run
        max_view = max(v for _, v, _, _ in entries)
        for cv in range(self._clean_start, max_view * self.resolved.gamma + 1, self.resolved.period):
            v = cv // self.resolved.gamma
            at_or_above = [e for e in entries if e[1] >= v]
            if not at_or_above:
                continue
            tau = min(e[0] for e in at_or_above)
            firsts = [e for e in at_or_above if e[0] == tau]
            entry_seq = min(e[2] for e in firsts)
            failed = [("first_entry_order", max(seq, 0), view) for _, view, seq, _ in firsts if view != v]
            for q in range(self.resolved.n):
                pr = self.procs[q]
                if pr.correct_at(tau) and pr.clock_before(tau, entry_seq) > cv * self.q:
                    failed.append(("first_entry_clocks", max(entry_seq, 0), q))
            for key in failed:
                run = latest.get(key)
                if run is not None and run[4] + k == v:
                    run[4] = v
                else:
                    latest[key] = [*key, v, v]
                    runs.append(latest[key])
        for invariant, seq, who, first, last in runs:
            views = f"view {first}" if first == last else f"views {first} to {last}"
            if invariant == "first_entry_order":
                detail = f"first crossing of {views} entered {who} instead"
            else:
                detail = f"processor {who} clock above {last * self.resolved.gamma} when {views} first entered"
            self.flag(invariant, seq, detail)

    def check_qc_before_advance(self, t_of) -> None:
        if self.resolved.windows is not None:
            return
        clean = self._clean_start
        for v in sorted(v for v in t_of if v % self.resolved.k == 0):
            if v * self.resolved.gamma < clean:
                continue
            if self.leader(v) not in self.resolved.never_corrupted or t_of[v] < self.resolved.gst:
                continue
            for p in self.resolved.never_corrupted:
                pr = self.procs[p]
                advance = next(
                    ((when, seq) for when, view, seq in pr.entries if view >= v + self.resolved.k),
                    None,
                )
                if advance is None:
                    continue
                _when, adv_seq = advance
                for u in range(v, v + self.resolved.k - 2):
                    got = pr.qc_receipt.get(u)
                    if got is None or got[1] >= adv_seq:
                        self.flag(
                            "qc_before_advance",
                            max(adv_seq, 0),
                            f"processor {p} reached view {v + self.resolved.k} without the quorum for {u}",
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
        intervals: dict[int, list[tuple[Any, Any, int]]] = {}
        for p in r.never_corrupted:
            ents = self.procs[p].entries
            for i, (when, view, _seq) in enumerate(ents):
                until = ents[i + 1][0] if i + 1 < len(ents) else INF
                intervals.setdefault(view, []).append((when, until, p))
        for view, spans in intervals.items():
            if len(spans) < need:
                continue
            lead = self.leader(view)
            if lead not in r.never_corrupted:
                continue
            lead_span = next((s for s in spans if s[2] == lead), None)
            if lead_span is None:
                continue
            # membership only grows at span starts, so checking gst and each
            # later start finds the earliest instant with a full quorum
            candidates = sorted({r.gst} | {s[0] for s in spans if s[0] > r.gst})
            s = None
            for cand in candidates:
                if sum(1 for start, until, _p in spans if start <= cand < until) >= need:
                    s = cand
                    break
            if s is None or not lead_span[0] <= s < lead_span[1]:
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
            quorum = [sp for sp in spans if sp[0] <= s < sp[1]]
            held = all(
                until >= min(self.procs[p].qc_receipt.get(view, (INF,))[0], deadline)
                for _start, until, p in quorum
            )
            if not held:
                continue
            for p in r.never_corrupted:
                got = self.procs[p].qc_receipt.get(view)
                if got is None or got[0] > deadline:
                    self.flag(
                        "underlying_contract",
                        self.end_seq,
                        f"processor {p} lacked the view {view} quorum by {deadline} ticks",
                    )


class _ReferenceProc(_Proc):
    __slots__ = ("offset",)

    def __init__(self, offset, rate):
        super().__init__(offset, rate)
        self.offset = offset

    def clock(self, now):
        return self.offset + self.rate * now


class ReferenceAnalyzer(_Analyzer):
    """The scan and the underlying-contract check as first written for
    trace v3: the dispersion check is computed afresh at every record it
    runs at, and every proposal, vote and certificate delivery is kept and
    re-walked for timeliness. Oracle for the lighter scan, which must give
    the same metrics and violations wherever neither raises."""

    def __init__(self, records):
        super().__init__(records)
        r = self.resolved
        # clocks as exact rationals, not scaled to ints: q is 1
        self.q = 1
        self.procs = [_ReferenceProc(off, rate) for off, rate in zip(r.offsets, r.rates)]
        self.underlying_deliveries: dict[int, list] = {}
        self.qc_deliveries: dict[int, list] = {}

    def _check_dagger_now(self, now, seq: int) -> None:
        clocks = [pr.clock(now) for pr in self.procs if pr.correct_at(now)]
        if not check_dagger(clocks, self.resolved.gamma, self.resolved.t):
            self.flag("dagger", seq, f"correct clock dispersion exceeded at {now} ticks")

    def scan(self) -> None:
        r = self.resolved
        gst, period, uniform_rates = r.gst, r.period, r.uniform_rates
        sends = self.sends
        recheck_dagger = True
        before_gst = True
        for seq, rec in enumerate(self.records):
            kind = rec["kind"]
            if kind == "header":
                self._check_dagger_now(0, seq)
                continue
            if kind == "deliver":  # due when its send record says
                p, sent = rec["recipient"], sends.get(rec["send"])
                if sent is None or p not in sent[3]:
                    raise TraceAnalysisError(f"deliver record at seq {seq}: {self._unjoined(rec)}")
                now = sent[4][sent[3].index(p)]
            else:
                now = _ticks(rec["time"], seq)
            if before_gst:
                if now > gst:
                    before_gst = False
                else:
                    self.gst_seq = seq
            if kind == "corrupt":
                p = rec["proc"]
                self.procs[p].corrupted_at = min(self.procs[p].corrupted_at, now)
                recheck_dagger = True
            elif kind == "send":
                self._scan_send(rec, now, seq)
            elif kind == "deliver":
                if self._scan_stamp(p, rec["proc_view"], _ticks(rec["proc_clock"], seq), now, seq):
                    recheck_dagger = True
                self._scan_deliver(sent, p, now, seq)
            elif kind == "threshold":
                boundary = _ticks(rec["boundary_clock"], seq)
                if boundary % period != 0:
                    self.flag("threshold_alignment", seq, f"threshold at clock {boundary}")
                if self._scan_stamp(rec["proc"], rec["proc_view"], boundary, now, seq):
                    recheck_dagger = True
            elif kind == "form_vc":
                self._check_certificate("vc", rec["view"], rec["signers"], seq)
                lead = self.leader(rec["view"])
                if rec["proc"] != lead:
                    self.flag(
                        "aggregator_leader",
                        seq,
                        f"processor {rec['proc']} formed a vc for view {rec['view']}, led by {lead}",
                    )
            elif kind == "form_qc":
                self._scan_form_qc(rec, now, seq)
            elif kind in ("wake", "end"):
                pass
            else:
                raise TraceAnalysisError(f"unknown record kind {kind!r} at seq {seq}")
            if recheck_dagger or not uniform_rates:
                self._check_dagger_now(now, seq)
                recheck_dagger = False
        self.end_seq, self.end_time = seq, now

    def _scan_send(self, rec: Record, now, seq: int) -> None:
        sender = rec["sender"]
        payload = rec["payload"]
        ptype = payload["type"]
        pr = self.procs[sender]
        correct = pr.correct_at(now)
        if ptype in ("view_message", "vote"):
            signer = payload["signer"]
            if signer == sender:
                kind = "view_msg" if ptype == "view_message" else "vote"
                self.signatures.add((signer, kind, payload["view"]))
            else:
                invariant = "signing_clock" if ptype == "view_message" else "vote_view"
                self.flag(invariant, seq, f"processor {sender} signed as processor {signer}")
        if ptype == "view_message":
            if correct:
                view = payload["view"]
                if payload["signer"] == sender and view in pr.sent_view_msgs:
                    self.flag("duplicate_view_message", seq, f"second view message for {view}")
                pr.sent_view_msgs.add(view)
                floor = view * self.resolved.gamma
                if pr.clock(now) < floor:
                    self.flag(
                        "signing_clock", seq, f"view message {view} signed below clock {floor}"
                    )
        elif ptype == "vote":
            if correct:
                view = payload["view"]
                if payload["signer"] == sender and view in pr.sent_votes:
                    self.flag("duplicate_vote", seq, f"second vote for {view}")
                pr.sent_votes.add(view)
                if pr.view != view:
                    self.flag("vote_view", seq, f"vote for {view} while in view {pr.view}")
        elif ptype == "proposal":
            view, leader = payload["view"], payload["leader"]
            if correct and not (view >= 0 and leader == sender and self.leader(view) == leader):
                detail = f"processor {sender} proposed view {view} naming leader {leader}"
                self.flag("proposal_leader", seq, detail)
        elif ptype == "view_certificate":
            self._check_certificate("vc", payload["view"], payload["signers"], seq)
        elif ptype == "quorum_certificate":
            self._check_certificate("qc", payload["view"], payload["signers"], seq)
        words = sum(q != sender for q in rec["recipients"])
        if correct and words:
            self.word_events.append((now, words))
        self.sends[seq] = (now, sender, payload, rec["recipients"], rec["deliver_times"])

    def _scan_stamp(self, p: int, view: int, clock, now, seq: int) -> bool:
        """Fold one observed (view, clock) snapshot into the replayed model.

        Returns True when the processor's clock was forwarded here.
        """
        pr = self.procs[p]
        if not pr.correct_at(now):
            return False
        expected = pr.clock(now)
        forwarded = False
        if clock < expected:
            self.flag("clock_monotonicity", seq, f"processor {p} clock moved backwards")
        elif clock > expected:
            pr.offset = clock - pr.rate * now
            pr.offset_log.append((seq, pr.offset))
            forwarded = True
        if view != pr.view:
            if not isinstance(view, int):
                raise TypeError(f"view {view!r} at seq {seq}")  # analyze() names the field
            if view < pr.view:
                self.flag("view_monotonicity", seq, f"processor {p} view moved backwards")
            else:
                pr.view = view
                pr.entries.append((now, view, seq))
        return forwarded

    def _scan_deliver(self, sent: tuple, recipient: int, now, seq: int) -> None:
        """One delivery of ``sent``, the send index's entry for its send."""
        r = self.resolved
        send_time, sender, payload, _recipients, _deliver_times = sent
        if sender == recipient:
            if now != send_time:
                self.flag("delivery_bound", seq, "self delivery not instantaneous")
        else:
            sync = sync_start(send_time, r.gst, r.windows)
            if sync is None:  # sent after the final window closed: no upper bound
                sync = INF
            bound = max(sync, send_time) + r.delta_cap
            if now <= send_time or now > bound:
                self.flag(
                    "delivery_bound", seq, f"delivery at {now} outside ({send_time}, {bound}]"
                )
            elif (
                r.network != "worst_case_max_delay"
                and sync <= send_time
                and now > send_time + r.delta_actual
            ):
                self.flag("delivery_bound", seq, "post-stabilisation delivery exceeded delta")
        ptype = payload["type"]
        view = payload["view"]
        if ptype == "quorum_certificate":
            self._check_certificate("qc", view, payload["signers"], seq)
            if recipient in r.never_corrupted:
                self.procs[recipient].qc_receipt.setdefault(view, (now, seq))
                if view not in self.qc_first_sight or now < self.qc_first_sight[view]:
                    self.qc_first_sight[view] = now
                self.qc_deliveries.setdefault(view, []).append((send_time, now, sender))
        elif ptype == "view_certificate":
            self._check_certificate("vc", view, payload["signers"], seq)
        elif ptype in ("proposal", "vote"):
            if recipient in r.never_corrupted:
                self.underlying_deliveries.setdefault(view, []).append((send_time, now, sender))

    def check_underlying_contract(self) -> None:
        """Quorum liveness inside one view: from the first post-gst instant
        with n-t correct processors in view v and its correct leader among
        them, provided they hold the view and the view's traffic met the
        actual delay, every never-corrupted processor holds the quorum
        certificate within three message delays."""
        r = self.resolved
        delta = r.delta_eff
        need = r.n - r.t
        intervals: dict[int, list[tuple[Any, Any, int]]] = {}
        for p in r.never_corrupted:
            ents = self.procs[p].entries
            for i, (when, view, _seq) in enumerate(ents):
                until = ents[i + 1][0] if i + 1 < len(ents) else INF
                intervals.setdefault(view, []).append((when, until, p))
        for view, spans in intervals.items():
            if len(spans) < need:
                continue
            lead = self.leader(view)
            if lead not in r.never_corrupted:
                continue
            lead_span = next((s for s in spans if s[2] == lead), None)
            if lead_span is None:
                continue
            # membership only grows at span starts, so checking gst and each
            # later start finds the earliest instant with a full quorum
            candidates = sorted({r.gst} | {s[0] for s in spans if s[0] > r.gst})
            s = None
            for cand in candidates:
                if sum(1 for start, until, _p in spans if start <= cand < until) >= need:
                    s = cand
                    break
            if s is None or not lead_span[0] <= s < lead_span[1]:
                continue
            deadline = s + 3 * delta
            if deadline >= self.end_time:
                continue  # the trace stops before the conclusion is due
            timely = all(
                now <= max(r.gst, send) + delta
                for send, now, sender in self.underlying_deliveries.get(view, ())
                if self.procs[sender].correct_at(send)
            ) and all(
                now <= max(r.gst, send) + delta
                for send, now, sender in self.qc_deliveries.get(view, ())
                if self.procs[sender].correct_at(send)
            )
            if not timely:
                continue
            quorum = [sp for sp in spans if sp[0] <= s < sp[1]]
            held = all(
                until >= min(self.procs[p].qc_receipt.get(view, (INF,))[0], deadline)
                for _start, until, p in quorum
            )
            if not held:
                continue
            for p in r.never_corrupted:
                got = self.procs[p].qc_receipt.get(view)
                if got is None or got[0] > deadline:
                    self.flag(
                        "underlying_contract",
                        self.end_seq,
                        f"processor {p} lacked the view {view} quorum by {deadline} ticks",
                    )


def assert_invariants(records, config=None):
    """All invariant violations in a trace, after checking that its header
    describes config's run (same n and seed)."""
    analyzer = _Analyzer(records)
    if config is not None:
        for name in ("n", "seed"):
            got, want = getattr(analyzer.resolved, name), getattr(config, name)
            if got != want:
                raise TraceAnalysisError(f"trace header {name}={got!r} does not match config")
    return analyzer.analyze().violations


def violations(records):
    """The analyzer's violations, with every metric checked against the
    quadratic oracle and the reference scan."""
    got = analyze(records)
    assert got == QuadraticAnalyzer(records).analyze()
    assert got == ReferenceAnalyzer(records).analyze()
    return got.violations


def ids(records):
    return {v.invariant for v in violations(records)}


@pytest.fixture(scope="module")
def base():
    return run_records(stop="horizon", horizon=60)


# -- conforming runs -----------------------------------------------------------


def test_conforming_run_is_clean(base):
    assert assert_invariants(base) == []


def test_conforming_run_with_faults_is_clean():
    records = run_records(
        corruptions=(Corruption(0, "silent"), Corruption(4, "vote_stuffer")),
        network="uniform_random",
        gst=13,
        seed=3,
    )
    assert assert_invariants(records) == []


# -- planted faults ------------------------------------------------------------


def test_backward_clock_detected(base):
    i = rfind(base, lambda r: r["kind"] == "deliver")
    bad = mutated(base, i, proc_clock=-5 * base[0]["grid"])
    found = violations(bad)
    assert any(v.invariant == "clock_monotonicity" and v.seq == i for v in found)


def test_backward_view_detected(base):
    i = rfind(
        base, lambda r: r["kind"] == "deliver" and r["proc_view"] > 0
    )
    bad = mutated(base, i, proc_view=0)
    found = violations(bad)
    assert any(v.invariant == "view_monotonicity" and v.seq == i for v in found)


def test_dispersed_initial_clocks_detected(base):
    bad = copied(base)
    bad[0]["config"]["offsets"][-1] = 100 * base[0]["grid"]
    assert "dagger" in ids(bad)


def test_fast_drifting_clock_detected_once_dispersed():
    # one clock runs at twice its rate: dispersion breaks partway through
    # the run and stays broken
    bad = copied(run_records(drift_epsilon="1/20", stop="horizon", horizon=30))
    bad[0]["config"]["rates"][-1] = 2
    flagged = [v.seq for v in violations(bad) if v.invariant == "dagger"]
    assert flagged == list(range(flagged[0], len(bad))) and flagged[0] > 0


def test_dispersed_drifting_clocks_detected_at_every_record():
    # drifting clocks are checked at every record, and several records share
    # an instant: each of them is flagged, as the reference scan flags them
    records = run_records(drift_epsilon="1/20", stop="horizon", horizon=30)
    bad = copied(records)
    bad[0]["config"]["offsets"][-1] = 100 * records[0]["grid"]
    flagged = [v.seq for v in violations(bad) if v.invariant == "dagger"]
    assert flagged == list(range(len(bad)))
    assert len({time_of(bad, r) for r in bad[1:]}) < len(bad) // 2


def test_no_two_records_share_a_payload(base):
    payloads = [id(r["payload"]) for r in base if "payload" in r]
    assert any(r["kind"] == "send" and len(r["recipients"]) > 1 for r in base)
    assert len(payloads) == len(set(payloads)) == sum(r["kind"] == "send" for r in base)


def test_premature_view_message_detected(base):
    i = find(
        base,
        lambda r: r["kind"] == "send" and r["payload"]["type"] == "view_message",
    )
    bad = copied(base)
    bad[i]["payload"]["view"] += 30
    found = violations(bad)
    assert any(v.invariant == "signing_clock" and v.seq == i for v in found)


def test_vote_outside_current_view_detected(base):
    i = find(base, lambda r: r["kind"] == "send" and r["payload"]["type"] == "vote")
    bad = copied(base)
    bad[i]["payload"]["view"] += 17
    found = violations(bad)
    assert any(v.invariant == "vote_view" and v.seq == i for v in found)


def test_duplicate_view_message_detected(base):
    i = find(
        base,
        lambda r: r["kind"] == "send" and r["payload"]["type"] == "view_message",
    )
    assert "duplicate_view_message" in ids(duplicated(base, i))


def test_duplicate_vote_detected(base):
    i = find(base, lambda r: r["kind"] == "send" and r["payload"]["type"] == "vote")
    assert "duplicate_vote" in ids(duplicated(base, i))


def test_late_delivery_detected(base):
    # a delivery long after its send: the send record is stamped at 0
    i = rfind(
        base,
        lambda r: r["kind"] == "deliver"
        and sent(base, r)["sender"] != r["recipient"]
        and time_of(base, r) > 3 * base[0]["grid"],
    )
    bad = mutated(base, base[i]["send"], time=0)
    found = violations(bad)
    assert any(v.invariant == "delivery_bound" and v.seq == i for v in found)


def windowed_run():
    """A run whose synchrony comes in windows: [5, 20), then from 40 on."""
    return copied(
        run_records(sync_windows=[(5, 20), (40, None)], gst=5, network="uniform_random",
                    seed=1, stop="horizon", horizon=60)
    )


def test_late_delivery_inside_a_bounded_window_detected():
    # a send moved back to the window's start: a delivery after start +
    # delta_cap that is still inside the window breaks the window's bound
    records = windowed_run()
    g = records[0]["grid"]
    assert violations(records) == []
    i = find(
        records,
        lambda r: r["kind"] == "deliver"
        and sent(records, r)["sender"] != r["recipient"]
        and 5 * g < sent(records, r)["time"]
        and 7 * g < time_of(records, r) < 20 * g,
    )
    records[records[i]["send"]]["time"] = 5 * g
    assert ("delivery_bound", i) in {v[:2] for v in violations(records)}


@pytest.mark.parametrize("before_end", [False, True])
def test_a_send_after_every_bounded_window_is_never_late(before_end):
    # the header keeps only the bounded window [5, 20), and a send (to
    # others only) of the last window is moved back to 20: its deliveries,
    # some 20 time units on, are unbounded. One tick earlier the send is
    # inside the window, and the same deliveries are late.
    records = windowed_run()
    g = records[0]["grid"]
    records[0]["config"]["sync_windows"] = [[5 * g, 20 * g]]
    assert violations(records) == []
    i = find(
        records,
        lambda r: r["kind"] == "deliver"
        and sent(records, r)["sender"] not in sent(records, r)["recipients"]
        and sent(records, r)["time"] >= 40 * g,
    )
    records[records[i]["send"]]["time"] = 20 * g - before_end
    found = {v.seq for v in violations(records) if v.invariant == "delivery_bound"}
    if before_end:
        assert i in found
    else:
        assert found == set()


@pytest.mark.parametrize("network", ["worst_case_max_delay", "fixed_delta"])
def test_a_delivery_at_the_cap_is_late_only_where_the_actual_delay_binds(network):
    # a fixed_delta run's send (to others only) moved back so that one
    # delivery comes delta_cap after it: the cap allows that, the actual
    # delay does not
    records = copied(run_records(network="fixed_delta", delta_actual="1/5", stop="horizon",
                                 horizon=30))
    records[0]["config"]["network"] = network
    g = records[0]["grid"]
    i = find(
        records,
        lambda r: r["kind"] == "deliver"
        and sent(records, r)["sender"] not in sent(records, r)["recipients"]
        and time_of(records, r) >= 2 * g,
    )
    records[records[i]["send"]]["time"] = time_of(records, records[i]) - 2 * g
    found = [v for v in violations(records) if v.invariant == "delivery_bound"]
    if network == "worst_case_max_delay":
        assert found == []
    else:
        assert ("delivery_bound", i, "post-stabilisation delivery exceeded delta") in found


def test_a_corrupted_processors_clock_leaves_the_dispersion_check():
    # processor 0 starts 100 time units ahead and is corrupted at 5: the
    # dispersion check counts its clock until then, and never after
    records = copied(run_records(corruptions=(Corruption(0, "silent", 5),), stop="horizon",
                                 horizon=30))
    records[0]["config"]["offsets"][0] += 100 * records[0]["grid"]
    c = find(records, lambda r: r["kind"] == "corrupt")
    dagger = [v.seq for v in violations(records) if v.invariant == "dagger"]
    assert dagger and max(dagger) < c


def test_delayed_self_delivery_detected(base):
    # a self-delivery one time unit after its send: the send is stamped earlier
    i = find(
        base, lambda r: r["kind"] == "deliver" and sent(base, r)["sender"] == r["recipient"]
    )
    bad = mutated(base, base[i]["send"], time=time_of(base, base[i]) - base[0]["grid"])
    found = violations(bad)
    assert any(v.invariant == "delivery_bound" and v.seq == i for v in found)


def test_off_boundary_threshold_detected(base):
    i = find(base, lambda r: r["kind"] == "threshold")
    bad = mutated(base, i, boundary_clock=7 * base[0]["grid"])
    assert "threshold_alignment" in ids(bad)


def test_malformed_certificate_detected(base):
    i = find(base, lambda r: r["kind"] == "form_qc")
    signers = list(base[i]["signers"])
    bad = mutated(base, i, signers=[signers[0]] + signers[:-1])
    found = violations(bad)
    assert any(v.invariant == "certificate_signatures" and v.seq == i for v in found)


def test_unsigned_certificate_detected(base):
    i = find(base, lambda r: r["kind"] == "form_vc")
    bad = mutated(base, i, view=base[i]["view"] + 99)
    found = violations(bad)
    assert any(v.invariant == "certificate_signatures" and v.seq == i for v in found)


def test_certificate_without_correct_signer_detected(base):
    i = find(base, lambda r: r["kind"] == "form_vc")
    signers = base[i]["signers"]
    bad = corrupted_from_start(base, *signers)
    found = violations(bad)
    assert any(v.invariant == "vc_honesty" and v.seq == i + len(signers) for v in found)


def test_quorum_without_enough_correct_signers_detected(base):
    i = find(base, lambda r: r["kind"] == "form_qc")
    bad = corrupted_from_start(mutated(base, i, signers=[0, 1, 2, 3, 4]), 0, 1, 2)
    found = violations(bad)
    assert any(v.invariant == "qc_honesty" and v.seq == i + 3 for v in found)


def test_a_quorum_certificate_of_all_n_signers_is_well_formed_at_t_0():
    """Kills flipping ``not distinct <= self.ids`` to ``not distinct <
    self.ids`` in ``metrics._Analyzer._check_certificate``: with t = 0 a
    quorum certificate carries n signers, every processor id there is."""
    records = run_records(n=4, t=0, stop="horizon", horizon=30)
    assert any(r["kind"] == "form_qc" and sorted(r["signers"]) == [0, 1, 2, 3] for r in records)
    assert analyze(records).violations == []


def scanned(records):
    analyzer = _Analyzer(records)
    analyzer.scan()
    return analyzer


def first_entry_at_or_above(records, view):
    """(time, view, seq, proc) of the first correct entry into view or beyond."""
    return next(e for e in scanned(records).all_entries() if e[1] >= view)


def first_entry_times(records):
    """Each view's first correct entry time."""
    analyzer = scanned(records)
    return analyzer.first_entry_times(analyzer.all_entries())


def test_first_entry_into_a_later_view_detected(base):
    v = 6  # the boundary view of group 2
    _when, _view, seq, _p = first_entry_at_or_above(base, v)
    bad = mutated(base, seq, proc_view=v + 1)
    found = violations(bad)
    assert ("first_entry_order", seq) in {(x.invariant, x.seq) for x in found}


def test_clock_past_boundary_at_first_entry_detected(base):
    v = 6
    _when, _view, seq, entrant = first_entry_at_or_above(base, v)
    # forward another processor's clock far ahead shortly before the entry
    j = rfind(
        base[:seq],
        lambda r: r["kind"] == "deliver" and r["recipient"] != entrant,
    )
    bad = mutated(base, j, proc_clock=1000 * base[0]["grid"])
    found = violations(bad)
    assert ("first_entry_clocks", seq) in {(x.invariant, x.seq) for x in found}


def test_a_processor_corrupted_at_a_first_entry_is_not_checked_there(base):
    """Kills flipping ``tau >= pr.corrupted_at`` to ``>`` in
    ``metrics._Analyzer.check_first_entry``. Processor q's clock is edited
    to jump past view v's boundary before v is first entered (a forward
    with no cause, which the analyzer accepts: ROADMAP item 4). Corrupted
    at that first entry, q is no longer correct there and is not checked;
    corrupted a tick later, it still is, and its clock is flagged."""
    v, q = 6, 5
    tau = first_entry_times(base)[v]
    j = rfind(base, lambda r: r["kind"] == "deliver" and r["recipient"] == q
              and time_of(base, r) < tau)

    def corrupted_at(when):
        head = copy.deepcopy(base[0])
        head["config"]["corruptions"] = [{"proc": q, "strategy": "silent", "time": when}]
        at = find(base, lambda r: r["kind"] != "header" and time_of(base, r) >= when)
        planted = {"kind": "corrupt", "time": when, "proc": q, "strategy": "silent"}
        out = renumbered([head, *base[1:at], planted, *base[at:]], base)
        out[j]["proc_clock"] = v * base[0]["config"]["gamma"] + 1
        return [x for x in analyze(out).violations if f"processor {q} clock above" in x.detail]

    assert corrupted_at(tau) == []
    (found,) = corrupted_at(tau + 1)
    assert (found.invariant, found.detail.endswith(f"when view {v} first entered")) == (
        "first_entry_clocks", True
    )


def first_entry_faults(records, seq):
    """(invariant, detail) of each first-entry violation located at seq."""
    return [
        (x.invariant, x.detail)
        for x in violations(records)
        if x.invariant.startswith("first_entry_") and x.seq == seq
    ]


def test_a_jump_over_one_boundary_names_it(base):
    v = 6
    _when, _view, seq, _p = first_entry_at_or_above(base, v)
    assert first_entry_faults(mutated(base, seq, proc_view=v + 2), seq) == [
        ("first_entry_order", f"first crossing of view {v} entered {v + 2} instead")
    ]


def test_a_jump_over_boundaries_is_one_violation_per_entrant_and_clock(base):
    # the first entry at or above view 6 jumps to 16 instead, past the
    # boundaries 6, 9, 12 and 15, while another processor's clock is far ahead
    v = 6
    _when, _view, seq, entrant = first_entry_at_or_above(base, v)
    j = rfind(base[:seq], lambda r: r["kind"] == "deliver" and r["recipient"] != entrant)
    bad = mutated(mutated(base, seq, proc_view=16), j, proc_clock=1000 * base[0]["grid"])
    gamma = scanned(bad).resolved.gamma
    assert first_entry_faults(bad, seq) == [
        ("first_entry_order", "first crossing of views 6 to 15 entered 16 instead"),
        (
            "first_entry_clocks",
            f"processor {base[j]['recipient']} clock above {15 * gamma} "
            "when views 6 to 15 first entered",
        ),
    ]


def test_a_view_far_ahead_costs_no_walk_over_its_boundaries():
    # one deliver's proc_view edited to 10**7 once cost 21 s and 730 MiB
    records = copied(
        Simulation(
            SimConfig(n=4, leaders="random_permutations", stop="horizon", horizon=30, seed=0)
        ).run()
    )
    i = find(records, lambda r: r["kind"] == "deliver")
    records[i]["proc_view"] = 10**7
    start = time.process_time()
    found = analyze(records).violations
    assert time.process_time() - start < 1
    assert found.count(
        ("first_entry_order", i, f"first crossing of views 0 to {10**7 - 1} entered {10**7} instead")
    ) == 1


def test_advance_before_quorum_detected(base):
    v, p = 6, 2
    _when, receipt = scanned(base).procs[p].qc_receipt[v]
    # processor p claims the next group's view before it holds the quorum for v
    j = rfind(base[:receipt], lambda r: r["kind"] == "deliver" and r["recipient"] == p)
    bad = mutated(base, j, proc_view=v + 3)
    found = violations(bad)
    assert ("qc_before_advance", j) in {(x.invariant, x.seq) for x in found}


def qc_before_advance(records):
    return [x.seq for x in analyze(records).violations if x.invariant == "qc_before_advance"]


def test_qc_before_advance_applies_to_a_group_entered_at_gst(base):
    """Kills flipping ``t_of[v] < r.gst`` to ``<=`` in
    ``metrics._Analyzer.check_qc_before_advance``, by the analyzer alone:
    processor 0 claims view 9 before it holds the quorum for 6, which is
    flagged when group 6 is first entered exactly at gst, and not when it is
    entered a tick before gst."""
    v, p = 6, 0
    _when, receipt = scanned(base).procs[p].qc_receipt[v]
    j = rfind(base[:receipt], lambda r: r["kind"] == "deliver" and r["recipient"] == p)
    bad = mutated(base, j, proc_view=v + 3)
    entered = first_entry_at_or_above(base, v)[0]
    assert entered > 0 and qc_before_advance(base) == []
    assert qc_before_advance(with_gst(bad, entered)) == [j]
    assert qc_before_advance(with_gst(bad, entered + 1)) == []


def test_qc_before_advance_needs_the_quorum_before_the_advancing_record(base):
    """Kills flipping ``got[1] >= adv_seq`` to ``>`` in
    ``metrics._Analyzer.check_qc_before_advance``, by the analyzer alone:
    processor 0 claims view 9 at the very record that delivers it the
    quorum for 6, which is flagged, and at its next delivery, which is not.
    No simulated trace has the first case: a quorum for u <= v + k - 3 moves
    a processor at most to view u + 1."""
    v, p = 6, 0
    _when, receipt = scanned(base).procs[p].qc_receipt[v]
    assert base[receipt]["kind"] == "deliver" and base[receipt]["recipient"] == p
    after = find(base[receipt + 1 :], lambda r: r["kind"] == "deliver" and r["recipient"] == p)
    assert qc_before_advance(mutated(base, receipt, proc_view=v + 3)) == [receipt]
    assert qc_before_advance(mutated(base, receipt + 1 + after, proc_view=v + 3)) == []


@pytest.mark.parametrize("gst", [0, 4, "13/3"])
def test_gst_seq_is_the_last_record_before_the_first_after_gst(gst):
    records = run_records(gst=gst)
    analyzer = scanned(records)
    want = -1
    for seq, rec in enumerate(records[1:], start=1):
        if time_of(records, rec) > analyzer.resolved.gst:
            break
        want = seq
    assert analyzer.gst_seq == want


def first_leader_qc(records, group):
    """Index of the first quorum a group's leader forms after gst."""
    cfg = records[0]["config"]
    params = params_from(records)
    return find(
        records,
        lambda r: r["kind"] == "form_qc"
        and r["view"] // cfg["k"] == group
        and r["proc"] == leader_of(r["view"], params)
        and r["time"] > cfg["gst"],
    )


def test_late_first_quorum_breaks_latency_bound(base):
    i = first_leader_qc(base, 0)  # t_star's record: gst is 0
    gamma = base[0]["config"]["gamma"]
    bad = mutated(base, i, time=base[i]["time"] + 100 * gamma)
    found = violations(bad)
    assert ("latency_bound", i) in {(x.invariant, x.seq) for x in found}


def words(send):
    return sum(q != send["sender"] for q in send["recipients"])


def resent(records, i, copies):
    """records with send record i repeated ``copies`` more times right after
    it, renumbered; the copies are never delivered."""
    return renumbered([*records[: i + 1], *[records[i]] * copies, *records[i + 1 :]], records)


def test_words_before_first_quorum_break_word_bound(base):
    cfg = base[0]["config"]
    t_star = base[first_leader_qc(base, 0)]["time"]
    # a correct broadcast counted against the bound: in [gst + delta_cap, t_star]
    i = find(
        base,
        lambda r: r["kind"] == "send"
        and words(r) == cfg["n"] - 1
        and cfg["gst"] + cfg["delta_cap"] <= r["time"] <= t_star,
    )
    budget = WORD_RATE_W * 3 * cfg["n"]  # f_star is 0
    assert analyze(base).words_counted <= budget
    bad = resent(base, i, budget // words(base[i]) + 1)
    found = violations(bad)
    assert analyze(bad).words_counted > budget
    assert ("word_bound", first_leader_qc(bad, 0)) in {(x.invariant, x.seq) for x in found}


# Boundary pins: each check below is silent exactly at its bound and fires one
# unit past it, so flipping its comparison (``>`` to ``>=``) fails the first
# half and weakening it fails the second.


def test_latency_bound_is_silent_at_its_bound_and_fires_one_tick_past(base):
    """Kills flipping ``latency > bound`` to ``latency >= bound`` in
    ``metrics._Analyzer.check_bounds``."""
    i = first_leader_qc(base, 0)  # t_star's record
    cfg = base[0]["config"]
    bound = cfg["k"] * 3 * cfg["gamma"]  # f_star is 0
    assert violations(mutated(base, i, time=cfg["gst"] + bound)) == []
    found = violations(mutated(base, i, time=cfg["gst"] + bound + 1))
    assert found == [Violation("latency_bound", i, f"latency {bound + 1} exceeds {bound} ticks")]


def with_gst(records, gst):
    out = copied(records)
    out[0]["config"]["gst"] = gst
    return out


def test_t_star_is_no_quorum_at_gst_and_one_a_tick_later(base):
    """Kills flipping ``now > self.resolved.gst`` to ``now >= ...`` in
    ``metrics._Analyzer._scan_form_qc``, by the analyzer alone: a correct
    leader's quorum formed exactly at gst is not t_star, and one formed a
    tick after gst is."""
    i = first_leader_qc(base, 0)
    when, grid = base[i]["time"], base[0]["grid"]
    at = analyze(with_gst(base, when))
    assert at.t_star is not None and at.t_star > from_ticks(when, grid)
    after = analyze(with_gst(base, when - 1))
    assert (after.t_star, after.latency) == (from_ticks(when, grid), from_ticks(1, grid))


def test_latency_bound_without_a_quorum_fires_at_a_horizon_of_gst_plus_the_bound(base):
    """Kills flipping ``r.horizon >= r.gst + bound`` to ``>`` in
    ``metrics._Analyzer.check_bounds``, by the analyzer alone: a trace with
    no correct-leader quorum after gst, cut before its first, is flagged
    when its horizon is exactly gst plus the bound, and not when it is a
    tick shorter. The cut trace ends at its header's horizon, as a run's
    horizon end does, so processors may also go without a quorum for long
    enough to break the underlying contract: only ``latency_bound`` is
    compared."""
    i = first_leader_qc(base, 0)
    cfg = base[0]["config"]
    bound = cfg["k"] * 3 * cfg["gamma"]  # f_star is 0

    def cut(horizon):
        out = copied([*base[:i], {"kind": "end", "time": horizon, "reason": "horizon"}])
        out[0]["config"]["horizon"] = horizon
        return out

    def latency_faults(metrics):
        return [v for v in metrics.violations if v.invariant == "latency_bound"]

    at = analyze(cut(cfg["gst"] + bound))
    assert (at.t_star, at.f_star) == (None, 0)
    detail = "no correct-leader quorum within the bound"
    assert latency_faults(at) == [Violation("latency_bound", i, detail)]
    assert latency_faults(analyze(cut(cfg["gst"] + bound - 1))) == []


def test_entry_time_identity_checks_a_boundary_at_the_clean_start_and_not_one_below():
    """Kills flipping ``v * r.gamma < clean`` to ``<=`` in
    ``metrics._Analyzer.check_entry_identity``, by the analyzer alone: a
    processor claims the last boundary view, top, early, which breaks the
    recurrence from top - k, and top's own is not checked (no entry into
    top + k). The recurrence from top - k is checked when the clean start
    is exactly its boundary, a header offset of (top - k) * gamma, and not
    when that offset is a tick more, which moves the clean start a group up."""
    records = run_records(stop="horizon", horizon=60)
    cfg = records[0]["config"]
    k, gamma = cfg["k"], cfg["gamma"]
    t_of = first_entry_times(records)
    top = max(v for v in t_of if v % k == 0 and v + k not in t_of)
    j = rfind(
        records,
        lambda r: r["kind"] == "deliver" and t_of[top - 1] < time_of(records, r) < t_of[top],
    )
    early = mutated(records, j, proc_view=top)

    def identity_faults(offset):
        out = copied(early)
        out[0]["config"]["offsets"][0] = offset
        return [v for v in analyze(out).violations if v.invariant == "entry_time_identity"]

    at = identity_faults((top - k) * gamma)
    assert [(v.seq, v.detail.startswith(f"entry into {top} at ")) for v in at] == [
        (len(records) - 1, True)
    ]
    assert identity_faults((top - k) * gamma + 1) == []


def test_f_star_counts_an_entry_at_gst_and_not_one_a_tick_later():
    """Kills flipping ``when <= r.gst`` to ``<`` in
    ``metrics._Analyzer.compute_f_star``, by the analyzer alone. Processor 1,
    the leader of group 1, is corrupted, so a run whose correct processors
    are in group 0 at gst has f_star 1. A record of processor 0 is edited to
    claim view 2k, past the corrupted group: with gst at that record's time
    the claim moves the pivot to group 2 and f_star to 0, and with gst a
    tick earlier it is not counted."""
    records = run_records(
        n=4, corruptions=(Corruption(1, "silent", 0),), stop="horizon", horizon=60
    )
    cfg = records[0]["config"]
    k, period = cfg["k"], cfg["k"] * cfg["gamma"]
    assert analyze(records).f_star == 1
    # a delivery to processor 0 in group 0, at no boundary's clock value
    i = find(
        records,
        lambda r: r["kind"] == "deliver" and r["recipient"] == 0 and r["proc_view"] < k
        and time_of(records, r) % period != 0,
    )
    when = time_of(records, records[i])
    claimed = mutated(records, i, proc_view=2 * k)
    assert analyze(with_gst(claimed, when)).f_star == 0
    assert analyze(with_gst(claimed, when - 1)).f_star == 1


def test_underlying_contract_is_silent_at_a_deadline_at_the_end_and_fires_one_tick_before(base):
    """Kills flipping ``deadline >= self.end_time`` to ``>`` in
    ``metrics._Analyzer.check_underlying_contract``, by the analyzer alone:
    the trace that loses view v's quorum certificate to processor p, cut
    after its last record at or before the contract's deadline D and ended
    at its header's horizon, is silent when that horizon is D (the
    conclusion is not yet due) and flags p when it is D + 1."""
    bad, v, p = lost_quorum_certificate(base)
    (found,) = [x for x in violations(bad) if x.invariant == "underlying_contract"]
    deadline = int(re.fullmatch(rf"processor {p} lacked the view {v} quorum by (\d+) ticks",
                                found.detail)[1])
    kept = bad[:find(bad, lambda r: time_of(bad, r) > deadline)]

    def contract_faults(horizon):
        out = copied([*kept, {"kind": "end", "time": horizon, "reason": "horizon"}])
        out[0]["config"]["horizon"] = horizon
        return [x for x in analyze(out).violations if x.invariant == "underlying_contract"]

    assert contract_faults(deadline) == []
    assert contract_faults(deadline + 1) == [found._replace(seq=len(kept))]


def with_words(records, i, count, time):
    """``records`` with ``count`` more words sent at ``time`` by send record
    i's sender: copies of it, planted right after it, each to at most all
    its other recipients, and never delivered. Record i must be a broadcast
    whose payload has no duplicate check: a proposal or a certificate."""
    send = records[i]
    assert send["payload"]["type"] not in ("vote", "view_message")
    others = [(q, due) for q, due in zip(send["recipients"], send["deliver_times"])
              if q != send["sender"]]
    planted = []
    while count > 0:
        part = others[:count]
        recipients, due = [q for q, _ in part], [d for _, d in part]
        planted.append({**send, "time": time, "recipients": recipients, "deliver_times": due})
        count -= len(part)
    return renumbered([*records[: i + 1], *planted, *records[i + 1 :]], records)


def correct_words(records, lo, hi):
    """Words that correct processors sent at times in [lo, hi]."""
    corrupted = {c["proc"] for c in records[0]["config"]["corruptions"]}
    return sum(
        words(r)
        for r in records
        if r["kind"] == "send" and lo <= r["time"] <= hi and r["sender"] not in corrupted
    )


def test_word_bound_is_silent_at_its_budget_and_fires_one_word_past(base):
    """Kills flipping ``words > budget`` to ``words >= budget`` in
    ``metrics._Analyzer.check_bounds``."""
    cfg = base[0]["config"]
    q = first_leader_qc(base, 0)  # t_star's record, then its quorum broadcast
    t_star = base[q]["time"]
    i = find(base, lambda r: r["kind"] == "send" and r["payload"]["type"] == "quorum_certificate")
    lo = cfg["gst"] + cfg["delta_cap"]  # the words counted lie in [lo, t_star]
    budget = WORD_RATE_W * 3 * cfg["n"]  # f_star is 0
    # planted before t_star, so in no pace gap, which starts at t_star
    extra = budget - correct_words(base, lo, t_star)
    at = with_words(base, i, extra, t_star - 1)
    assert analyze(at).words_counted == budget
    assert violations(at) == []
    past = with_words(base, i, extra + 1, t_star - 1)
    detail = f"{budget + 1} words exceed {budget}"
    assert violations(past) == [Violation("word_bound", q, detail)]


def test_post_sync_words_is_silent_at_its_budget_and_fires_one_word_past(base):
    """Kills flipping ``words > budget`` to ``words >= budget`` in
    ``metrics._Analyzer.check_post_sync``."""
    lo, hi = (base[first_leader_qc(base, g)]["time"] for g in (0, 1))  # t_star's group on
    i = find(
        base,
        lambda r: r["kind"] == "send" and r["payload"]["type"] == "quorum_certificate"
        and r["time"] == lo,
    )
    budget = WORD_RATE_W * base[0]["config"]["n"]  # one group apart
    extra = budget - correct_words(base, lo, hi)
    assert violations(with_words(base, i, extra, lo + 1)) == []
    past = with_words(base, i, extra + 1, lo + 1)
    detail = f"groups 0->1 sent {budget + 1} words, allowed {budget}"
    assert violations(past) == [Violation("post_sync_words", len(past) - 1, detail)]


def delivery_faults(records, i, send_time):
    """The ``delivery_bound`` violations of ``records`` with deliver record
    i's send moved to ``send_time``, from the analyzer alone, so that each
    test below kills its flip by its own assertion, not by the oracles'."""
    moved = mutated(records, records[i]["send"], time=send_time)
    return [v for v in analyze(moved).violations if v.invariant == "delivery_bound"]


def a_delivery_to_another(records):
    """The seq of the last deliver record whose send is to one processor
    other than its sender."""
    return rfind(
        records,
        lambda r: r["kind"] == "deliver" and sent(records, r)["recipients"] == [r["recipient"]]
        and sent(records, r)["sender"] != r["recipient"],
    )


def test_a_delivery_to_another_at_its_send_time_fires(base):
    """Kills flipping ``now <= send_time`` to ``now < send_time`` in
    ``metrics._Analyzer._scan_deliver``."""
    i = a_delivery_to_another(base)
    now, cap = time_of(base, base[i]), base[0]["config"]["delta_cap"]
    detail = f"delivery at {now} outside ({now}, {now + cap}]"
    assert delivery_faults(base, i, now) == [Violation("delivery_bound", i, detail)]


def test_delivery_bound_is_silent_at_the_cap_and_fires_one_tick_past(base):
    """Kills flipping ``now > bound`` to ``now >= bound`` in
    ``metrics._Analyzer._scan_deliver``; ``base``'s network has no actual
    delay bound, and its gst is 0."""
    i = a_delivery_to_another(base)
    now, cap = time_of(base, base[i]), base[0]["config"]["delta_cap"]
    assert now - cap - 1 > 0  # both sends are after gst
    assert delivery_faults(base, i, now - cap) == []
    detail = f"delivery at {now} outside ({now - cap - 1}, {now - 1}]"
    assert delivery_faults(base, i, now - cap - 1) == [Violation("delivery_bound", i, detail)]


def test_delivery_bound_is_silent_at_the_actual_delay_and_fires_one_tick_past():
    """Kills flipping ``now > send_time + self.delta_actual`` to ``>=`` in
    ``metrics._Analyzer._scan_deliver``: a post-stabilisation delivery under
    ``fixed_delta``, whose actual delay is under the cap."""
    records = copied(run_records(network="fixed_delta", delta_actual="1/5", stop="horizon",
                                 horizon=30))
    cfg = records[0]["config"]
    actual = cfg["delta_actual"]
    assert 0 < actual + 1 < cfg["delta_cap"]
    i = a_delivery_to_another(records)
    now = time_of(records, records[i])
    assert now - actual - 1 > cfg["gst"]
    assert delivery_faults(records, i, now - actual) == []
    detail = "post-stabilisation delivery exceeded delta"
    assert delivery_faults(records, i, now - actual - 1) == [Violation("delivery_bound", i, detail)]


def test_a_send_at_gst_is_held_to_the_actual_delay_and_one_before_is_not():
    """Kills flipping ``sync <= send_time`` to ``<`` in
    ``metrics._Analyzer._scan_deliver``: the delivery of the test above, one
    tick slower than the actual delay, is flagged when its send is exactly
    at gst, and not when gst is a tick later, where only the cap binds."""
    records = copied(run_records(network="fixed_delta", delta_actual="1/5", stop="horizon",
                                 horizon=30))
    i = a_delivery_to_another(records)
    send_time = time_of(records, records[i]) - records[0]["config"]["delta_actual"] - 1
    detail = "post-stabilisation delivery exceeded delta"
    at_gst = delivery_faults(with_gst(records, send_time), i, send_time)
    assert at_gst == [Violation("delivery_bound", i, detail)]
    assert delivery_faults(with_gst(records, send_time + 1), i, send_time) == []


def test_slow_first_quorum_breaks_responsiveness():
    records = run_records(network="fixed_delta", delta_actual="1/5")
    cfg = records[0]["config"]
    i = first_leader_qc(records, 0)
    # silent at the responsive bound, firing one tick past it, well inside
    # the latency bound
    resp = RESPONSE_STEPS_C * cfg["delta_actual"] + cfg["gamma"] + cfg["delta_cap"]
    assert violations(mutated(records, i, time=cfg["gst"] + resp)) == []
    bad = mutated(records, i, time=cfg["gst"] + resp + 1)
    found = {(x.invariant, x.seq) for x in violations(bad)}
    assert ("responsiveness", i) in found
    assert ("latency_bound", i) not in found


def test_words_between_group_quorums_break_post_sync_words(base):
    lo, hi = (base[first_leader_qc(base, g)]["time"] for g in (2, 3))
    i = find(base, lambda r: r["kind"] == "send" and words(r) and lo < r["time"] < hi)
    budget = WORD_RATE_W * base[0]["config"]["n"]  # one group apart
    assert "post_sync_words" not in ids(base)
    bad = resent(base, i, budget // words(base[i]) + 1)
    found = violations(bad)
    assert ("post_sync_words", len(bad) - 1) in {(x.invariant, x.seq) for x in found}


def test_early_boundary_entry_breaks_entry_time_identity(base):
    v = 6  # the boundary view of group 2
    t_of = first_entry_times(base)
    # a processor claims view v between the entries into v - 1 and v, before
    # any certificate or its own clock could take it there
    j = rfind(
        base,
        lambda r: r["kind"] == "deliver" and t_of[v - 1] < time_of(base, r) < t_of[v],
    )
    bad = mutated(base, j, proc_view=v)
    found = violations(bad)
    assert ("entry_time_identity", len(base) - 1) in {(x.invariant, x.seq) for x in found}


def test_slow_group_quorum_breaks_post_sync_latency(base):
    cfg = base[0]["config"]
    params = params_from(base)
    lo = base[first_leader_qc(base, 2)]["time"]
    # one group's pace budget; the actual delay on this network is delta_cap
    allowed = cfg["k"] * cfg["gamma"] + RESPONSE_STEPS_C * cfg["delta_cap"]

    def group_3_quorums_at(when):
        # every quorum group 3's leader forms is stamped no earlier than when
        out = copied(base)
        for r in out:
            if (
                r["kind"] == "form_qc"
                and r["view"] // cfg["k"] == 3
                and r["proc"] == leader_of(r["view"], params)
            ):
                r["time"] = max(r["time"], when)
        return out

    # silent at the allowed pace gap, firing one tick past it
    silent = {(x.invariant, x.seq) for x in violations(group_3_quorums_at(lo + allowed))}
    assert ("post_sync_latency", len(base) - 1) not in silent
    found = violations(group_3_quorums_at(lo + allowed + 1))
    assert ("post_sync_latency", len(base) - 1) in {(x.invariant, x.seq) for x in found}


def lost_quorum_certificate(base):
    """``base`` with view v's quorum certificate never reaching processor p,
    which so stays in v a whole group's time after the view began, as
    ``(records, v, p)``."""
    cfg = base[0]["config"]
    v = 7
    p = (leader_of(v, params_from(base)) + 1) % cfg["n"]
    t_of = first_entry_times(base)
    hold = t_of[v] + cfg["k"] * cfg["gamma"]

    def lost(r):
        if r["kind"] != "deliver" or r["recipient"] != p:
            return False
        payload = sent(base, r)["payload"]
        return payload["type"] == "quorum_certificate" and payload["view"] == v

    bad = renumbered((r for r in base if not lost(r)), base)
    assert len(bad) < len(base)
    for r in bad:
        own = r["kind"] == "deliver" and r["recipient"] == p or r.get("proc") == p
        if own and "proc_view" in r and time_of(bad, r) <= hold:
            r["proc_view"] = min(r["proc_view"], v)
    return bad, v, p


def test_lost_quorum_certificate_breaks_underlying_contract(base):
    bad, v, p = lost_quorum_certificate(base)
    found = violations(bad)
    assert any(
        x.invariant == "underlying_contract"
        and x.seq == len(bad) - 1
        and f"processor {p} lacked the view {v} quorum" in x.detail
        for x in found
    )


def without_quorum_certificates(records, recipient, views):
    """records without the deliveries of these views' quorum certificates
    to recipient, renumbered."""
    return renumbered([
        r for r in records
        if not (r["kind"] == "deliver" and r["recipient"] == recipient
                and sent(records, r)["payload"]["type"] == "quorum_certificate"
                and sent(records, r)["payload"]["view"] in views)
    ], records)


def test_underlying_contract_flags_views_in_entry_order():
    # processor 0 skips views 5 to 20 here; without the quorum certificates
    # of views 5 and 21 it breaks the contract in both, flagged view 21
    # first: the views processor 0 entered come before those only later
    # processors did, as when the spans were rebuilt processor by processor
    records = run_records(n=4, offsets="adversarial_spread", seed=3, network="fixed_delta",
                          delta_actual="1/5", stop="horizon", horizon=40)
    assert [v for _t, v, _s in scanned(records).procs[0].entries][4:6] == [4, 21]
    bad = without_quorum_certificates(records, 0, (5, 21))
    found = [v.detail for v in violations(bad) if v.invariant == "underlying_contract"]
    assert found == [
        "processor 0 lacked the view 21 quorum by 236 ticks",
        "processor 0 lacked the view 5 quorum by 90 ticks",
    ]


def test_a_delivery_sent_before_gst_is_late_only_after_gst_plus_delta():
    # view 0's proposal and votes go out before gst and arrive delta_cap
    # after it, more than delta_cap after their send: on time, so view 0 is
    # checked, and processor 1, without its quorum certificate, is flagged
    records = run_records(n=4, gst=3, stop="horizon", horizon=33)
    bad = without_quorum_certificates(records, 1, (0,))
    found = [v.detail for v in violations(bad) if v.invariant == "underlying_contract"]
    assert found == ["processor 1 lacked the view 0 quorum by 270 ticks"]


def test_leader_outside_the_first_quorum_leaves_the_view_unchecked(base):
    # the lost-quorum fault, with view v's leader entering v only after the
    # others hold a quorum there: the contract needs the leader among the
    # first n-t, so it says nothing about v
    bad, v, _p = lost_quorum_certificate(base)
    lead = leader_of(v, params_from(base))
    t_v = first_entry_times(bad)[v]

    def leaders_view_v(r):
        own = r["kind"] == "deliver" and r["recipient"] == lead or r.get("proc") == lead
        return own and r.get("proc_view") == v

    for r in bad:
        if leaders_view_v(r) and time_of(bad, r) == t_v:
            r["proc_view"] = v - 1
    assert find(bad, lambda r: leaders_view_v(r) and time_of(bad, r) > t_v)  # it enters v later
    found = violations(bad)
    assert not any(
        x.invariant == "underlying_contract" and f"the view {v} quorum" in x.detail for x in found
    )


@pytest.mark.parametrize("ptype", ["proposal", "vote", "quorum_certificate"])
def test_late_delivery_makes_the_view_untimely(base, ptype):
    # the lost-quorum fault, plus one delivery of view v's traffic one tick
    # past its bound: the view's traffic missed the actual delay, so the
    # contract does not apply to v
    bad, v, _p = lost_quorum_certificate(base)
    i = find(
        bad,
        lambda r: r["kind"] == "deliver"
        and sent(bad, r)["payload"]["type"] == ptype
        and sent(bad, r)["payload"]["view"] == v
        and sent(bad, r)["sender"] != r["recipient"],
    )
    send = sent(bad, bad[i])
    assert send["sender"] not in {c["proc"] for c in bad[0]["config"]["corruptions"]}
    send["deliver_times"][send["recipients"].index(bad[i]["recipient"])] += 1
    bad[i]["proc_clock"] += 1  # the recipient's clock ran on with it
    found = violations(bad)
    assert ("delivery_bound", i) in {(x.invariant, x.seq) for x in found}
    assert not any(
        x.invariant == "underlying_contract" and f"view {v} quorum" in x.detail for x in found
    )


def test_late_delivery_from_a_corrupted_sender_leaves_the_view_timely(base):
    # as above, with a vote of view v one tick late, but from a processor
    # corrupted since the start: the contract still applies, and p still
    # lacks the quorum
    bad, v, p = lost_quorum_certificate(base)
    lead = leader_of(v, params_from(bad))

    def late_vote(recs):
        return find(
            recs,
            lambda r: r["kind"] == "deliver"
            and sent(recs, r)["payload"]["type"] == "vote"
            and sent(recs, r)["payload"]["view"] == v
            and sent(recs, r)["sender"] not in (lead, p),
        )

    q = sent(bad, bad[late_vote(bad)])["sender"]
    bad[0]["config"]["corruptions"] = [{"proc": q, "strategy": "silent", "time": 0}]
    corrupt = {"kind": "corrupt", "time": 0, "proc": q, "strategy": "silent"}
    bad = renumbered([bad[0], corrupt, *bad[1:]], bad)
    i = late_vote(bad)
    send = sent(bad, bad[i])
    send["deliver_times"][send["recipients"].index(bad[i]["recipient"])] += 1
    bad[i]["proc_clock"] += 1
    found = violations(bad)
    assert ("delivery_bound", i) in {(x.invariant, x.seq) for x in found}
    assert any(
        x.invariant == "underlying_contract"
        and f"processor {p} lacked the view {v} quorum" in x.detail
        for x in found
    )


@pytest.mark.parametrize(
    "kw",
    [
        dict(stop="horizon", horizon=60),
        dict(corruptions=(Corruption(0, "silent"), Corruption(4, "vote_stuffer")),
             network="uniform_random", gst=13, seed=3),
        dict(corruptions=(Corruption(0, "silent"),), gst=11),
        dict(network="uniform_random", seed=9, gst=7),
        dict(leaders="random_permutations", seed=4, offsets="adversarial_spread"),
        dict(offsets="two_cluster", network="fixed_delta", delta_actual="1/5",
             stop="horizon", horizon=40),
        dict(drift_epsilon="1/20", offsets="adversarial_spread", seed=2, gst=9),
        dict(sync_windows=[(5, 20), (40, None)], gst=5, network="uniform_random", seed=1),
    ],
)
def test_linear_passes_match_quadratic_oracle(kw):
    violations(run_records(**kw))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_linear_passes_match_quadratic_oracle_on_random_edits(base, data):
    stamps = [i for i, r in enumerate(base) if r["kind"] in ("deliver", "threshold")]
    bad = copied(base)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        i = data.draw(st.sampled_from(stamps))
        if data.draw(st.booleans()):
            bad[i]["proc_view"] = data.draw(st.integers(min_value=0, max_value=16))
        elif bad[i]["kind"] == "deliver":
            clock = data.draw(st.integers(min_value=0, max_value=90))
            bad[i]["proc_clock"] = clock * base[0]["grid"]
    violations(bad)


# -- structural rejection ------------------------------------------------------


def test_headerless_trace_rejected(base):
    with pytest.raises(TraceAnalysisError):
        analyze(base[1:])


@pytest.mark.parametrize(
    "edit",
    [
        lambda cfg: cfg.pop("gamma"),
        lambda cfg: cfg.update(offsets=cfg["offsets"][:-1]),
        lambda cfg: cfg.update(gst="1/7"),  # off the grid: not whole ticks
        lambda cfg: cfg["offsets"].__setitem__(0, 1.5),
        lambda cfg: cfg.update(horizon=[3]),
        lambda cfg: cfg.update(t=3),  # 3t >= n
        lambda cfg: cfg.update(corruptions=[{"proc": 1}]),
    ],
)
def test_malformed_header_rejected(base, edit):
    bad = copied(base)
    edit(bad[0]["config"])
    with pytest.raises(TraceAnalysisError, match="header is missing or malformed"):
        analyze(bad)


def found_run():
    """The n=4, horizon-30, seed-0 run the record-level faults below edit."""
    return Simulation(SimConfig(n=4, stop="horizon", horizon=30, seed=0)).run()


def corrupting(*procs, strategy="silent", time=0):
    return lambda cfg: cfg.update(
        corruptions=[{"proc": p, "strategy": strategy, "time": time} for p in procs]
    )


# One structural fault in found_run's header per case (n=4, t=1), and
# the message the header is refused with.
HEADER_FAULTS = [
    ("network", lambda cfg: cfg.update(network="pigeon"), "unknown network strategy 'pigeon'"),
    ("leaders", lambda cfg: cfg.update(leaders="bogus"), "unknown leader mode 'bogus'"),
    ("stop", lambda cfg: cfg.update(stop="never"), "unknown stop mode 'never'"),
    ("x", lambda cfg: cfg.update(x=1), "clock spacing multiplier must be at least 2"),
    ("n", lambda cfg: cfg.update(n=1, t=0), "need at least two processors"),
    (
        "gamma",
        lambda cfg: cfg.update(gamma=cfg["gamma"] + 1),
        "gamma must be x * delta_cap, got 181",
    ),
    ("rate-0", lambda cfg: cfg["rates"].__setitem__(0, 0), "clock rates must be positive"),
    (
        "rate-negative",
        lambda cfg: cfg["rates"].__setitem__(0, "-1/2"),
        "clock rates must be positive",
    ),
    ("rates", lambda cfg: cfg["rates"].pop(), "need one clock rate per processor"),
    ("offsets", lambda cfg: cfg["offsets"].pop(), "need one offset per processor"),
    (
        "delta_actual",
        lambda cfg: cfg.update(delta_actual=0),
        "actual delay must lie in (0, delta_cap]",
    ),
    (
        "horizon",
        lambda cfg: cfg.update(horizon=0),
        "horizon must extend past the stabilisation time",
    ),
    ("gst", lambda cfg: cfg.update(gst=-5), "stabilisation time cannot be negative"),
    ("sync_windows", lambda cfg: cfg.update(sync_windows=[[100, 50]]), "empty synchronous window"),
    ("strategy", corrupting(3, strategy="sneaky"), "unknown byzantine strategy 'sneaky'"),
    ("duplicate", corrupting(3, 3), "duplicate corruption target"),
    ("corruption-time", corrupting(3, time=-1), "corruption time cannot be negative"),
    ("all-corrupted", corrupting(0, 1, 2, 3), "every processor is corrupted"),
]


@pytest.mark.parametrize(
    "edit, fault", [c[1:] for c in HEADER_FAULTS], ids=[c[0] for c in HEADER_FAULTS]
)
def test_each_structural_header_fault_is_located(edit, fault, tmp_path, capsys):
    records = copied(found_run())
    edit(records[0]["config"])
    message = f"header is missing or malformed: {fault}"
    with pytest.raises(TraceAnalysisError, match=f"^{re.escape(message)}$"):
        analyze(records)
    path = tmp_path / "bad.jsonl"
    path.write_text(to_jsonl(records), encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"malformed trace: {message}\n"


def dispersed(records):
    records = copied(records)
    records[0]["config"]["offsets"][-1] = 100 * records[0]["grid"]
    return records


@pytest.mark.parametrize(
    "edit, invariant",
    [
        (dispersed, "dagger"),
        (lambda records: corrupted_from_start(records, 0, 1), "qc_honesty"),  # more than t=1
    ],
    ids=["dispersed-offsets", "over-resilience"],
)
def test_policy_header_faults_still_read_and_are_flagged(edit, invariant, tmp_path, capsys):
    records = edit(found_run())
    assert invariant in ids(records)
    path = tmp_path / "flagged.jsonl"
    path.write_text(to_jsonl(records), encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(path)]) == 1
    assert f'"{invariant}"' in capsys.readouterr().out


def test_every_non_integer_view_is_located():
    # each deliver's proc_view off the integers in turn: every one is named,
    # also where the edited view breaks no invariant
    records = found_run()
    delivers = [i for i, r in enumerate(records) if r["kind"] == "deliver"]
    assert len(delivers) == 195
    for i in delivers:
        bad = list(records)  # analyze only reads, so one new record will do
        bad[i] = {**records[i], "proc_view": records[i]["proc_view"] + 0.5}
        message = f"deliver record at seq {i}: field 'proc_view' is malformed"
        with pytest.raises(TraceAnalysisError, match=message):
            analyze(bad)


def test_a_delivery_happens_at_its_announced_time():
    # a deliver record has no time of its own: with every entry of one
    # broadcast's deliver_times moved far out, each of its deliveries is read
    # there, and each is flagged, the sender's own for not being instantaneous
    records = copied(found_run())
    i = find(records, lambda r: r["kind"] == "send" and len(r["recipients"]) > 1)
    records[i]["deliver_times"] = [10**6] * len(records[i]["recipients"])
    delivered = {
        j: r["recipient"] for j, r in enumerate(records) if r["kind"] == "deliver" and r["send"] == i
    }
    assert len(delivered) == len(records[i]["recipients"])
    found = {v.seq: v.detail for v in violations(records) if v.invariant == "delivery_bound"}
    for j, p in delivered.items():
        if p == records[i]["sender"]:
            assert found[j] == "self delivery not instantaneous"
        else:
            assert found[j].startswith("delivery at 1000000 outside ")


def test_duplicate_delivery_rejected():
    # one non-self deliver record repeated right after itself
    records = found_run()
    i = find(
        records,
        lambda r: r["kind"] == "deliver" and sent(records, r)["sender"] != r["recipient"],
    )
    bad = duplicated(records, i)
    message = (
        f"deliver record at seq {i + 1}: send record at seq {bad[i]['send']} "
        f"was already delivered to recipient {bad[i]['recipient']}"
    )
    with pytest.raises(TraceAnalysisError, match=re.escape(message)):
        analyze(bad)
    assert ReferenceAnalyzer(bad).analyze().violations == []  # the old scan saw nothing


def after_last_delivery(records, extra, pick):
    """A copy of ``records`` with the deliver record ``extra(send seq, send)``
    inserted right after the last delivery of the first send ``pick``
    accepts, and the seq it is inserted at."""
    i = find(records, lambda r: r["kind"] == "send" and pick(r))
    last = rfind(records, lambda r: r["kind"] == "deliver" and r["send"] == i)
    out = list(records)
    out.insert(last + 1, extra(i, records[i]))
    return renumbered(out, records), last + 1


def deliver_of(i, recipient):
    return {"kind": "deliver", "send": i, "recipient": recipient, "proc_view": 0, "proc_clock": 0}


def delivered_again(i, send):
    return deliver_of(i, send["recipients"][-1])


def to_another(i, send):
    return deliver_of(i, next(p for p in range(4) if p not in send["recipients"]))  # n=4


@pytest.mark.parametrize("read", [list, iter], ids=["list", "stream"])
@pytest.mark.parametrize(
    "extra,pick,why",
    [
        (delivered_again, lambda r: len(r["recipients"]) > 1, "was already delivered to recipient"),
        (to_another, lambda r: len(r["recipients"]) == 1, "does not list recipient"),
    ],
    ids=["duplicate", "non_recipient"],
)
def test_a_deliver_after_a_sends_last_delivery_is_refused(read, extra, pick, why):
    # by then every recipient had the send delivered, and the join index
    # keeps only its recipients
    bad, at = after_last_delivery(found_run(), extra, pick)
    deliver = bad[at]
    message = (
        f"deliver record at seq {at}: send record at seq {deliver['send']} "
        f"{why} {deliver['recipient']}"
    )
    with pytest.raises(TraceAnalysisError, match=re.escape(message) + "$"):
        analyze(read(bad))


def owed_sends(records) -> set[int]:
    """The seqs of the sends that some recipient had no delivery of."""
    delivered = {(r["send"], r["recipient"]) for r in records if r["kind"] == "deliver"}
    return {
        i
        for i, r in enumerate(records)
        if r["kind"] == "send" and any((i, p) not in delivered for p in r["recipients"])
    }


@pytest.mark.parametrize("read", [list, iter], ids=["list", "stream"])
def test_the_join_index_keeps_only_sends_still_owed_a_delivery(base, read):
    # a horizon cuts the last sends' deliveries off
    analyzer = _Analyzer(read(base))
    analyzer.scan()
    sends = {i for i, r in enumerate(base) if r["kind"] == "send"}
    owed = owed_sends(base)
    assert owed and len(owed) < len(sends)
    assert set(analyzer.sends) == owed
    assert set(analyzer.delivered) == sends - owed


def listed_twice(send):
    # index() would join each deliver to the first of the two, so the second
    # would stay owed for good, and the trace analyze clean
    send["recipients"] *= 2
    send["deliver_times"] *= 2


def listed_none(send):
    # it would stay in the join index for good, owed to nobody
    send["recipients"], send["deliver_times"] = [], []


@pytest.mark.parametrize("edit", [listed_twice, listed_none], ids=["twice", "none"])
@pytest.mark.parametrize("read", ["list", "stream", "replay"])
def test_a_send_listing_a_recipient_twice_or_none_is_located(read, edit, tmp_path, capsys):
    records = copied(found_run())
    i = find(records, lambda r: r["kind"] == "send" and len(r["recipients"]) == 1)
    edit(records[i])
    bad = records[i]["recipients"]
    message = f"send record at seq {i}: field 'recipients' is malformed: {bad!r}"
    if read == "replay":
        path = tmp_path / "bad.jsonl"
        path.write_text(to_jsonl(records), encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", str(path)]) == 2
        assert f"malformed trace: {message}\n" == capsys.readouterr().err
        return
    with pytest.raises(TraceAnalysisError, match=re.escape(message) + "$"):
        analyze(records if read == "list" else iter(records))


def test_a_recipient_that_cannot_be_hashed_is_located():
    records = copied(found_run())
    i = find(records, lambda r: r["kind"] == "send" and len(r["recipients"]) == 1)
    records[i]["recipients"] = [[1]]
    message = f"send record at seq {i}: field 'recipients' is malformed: [[1]]"
    with pytest.raises(TraceAnalysisError, match=re.escape(message) + "$"):
        analyze(records)


def recounted_quorum(spans, need, gst):
    """``_first_quorum`` as first written: every candidate instant recounts
    every span."""
    candidates = sorted({gst} | {s[0] for s in spans if s[0] > gst})
    for cand in candidates:
        members = {p: until for start, until, p in spans if start <= cand < until}
        if len(members) >= need:
            return cand, members
    return None


@settings(max_examples=300, deadline=None)
@given(
    bounds=st.lists(
        st.tuples(st.integers(0, 12), st.one_of(st.integers(0, 14), st.just(INF))), max_size=8
    ),
    need=st.integers(1, 6),
    gst=st.integers(0, 10),
)
# A span that starts and ends at gst holds no instant: the ends loop pops it
# in the pass that adds it, so the starts loop's ``until > at`` and
# ``until >= at`` agree.
@example(bounds=[(5, 5), (5, INF), (3, INF)], need=3, gst=5)
@example(bounds=[(5, 5), (5, INF), (3, INF)], need=2, gst=5)
# A span that ends before it starts: the ends loop passes its end at 4, and
# only the starts loop's ``until > at`` keeps it out at 6.
@example(bounds=[(6, 3), (4, INF)], need=2, gst=0)
def test_first_quorum_matches_a_recount(bounds, need, gst):
    # spans may be empty or end before they start, as an edited trace's can
    spans = [(start, until, p) for p, (start, until) in enumerate(bounds)]
    assert _first_quorum(spans, need, gst) == recounted_quorum(spans, need, gst)


def test_quorum_sweep_matches_quadratic_oracle_over_acceptance_matrix():
    for cell in matrix_cells():
        records = Simulation(build_config(cell)).run()
        assert analyze(records) == QuadraticAnalyzer(records).analyze(), cell


def rebuilt_spans(analyzer):
    """Each view's ``(start, until, proc)`` spans as first written: rebuilt
    after the scan from every never-corrupted processor's entries, each
    entry's span ending at the processor's next entry."""
    spans = {}
    for p in analyzer.resolved.never_corrupted:
        ents = analyzer.procs[p].entries
        for i, (when, view, _seq) in enumerate(ents):
            until = ents[i + 1][0] if i + 1 < len(ents) else INF
            spans.setdefault(view, []).append((when, until, p))
    return spans


def test_scan_spans_match_a_rebuild_from_the_entries_over_acceptance_matrix():
    for cell in matrix_cells():
        analyzer = scanned(Simulation(build_config(cell)).run())
        got = {view: sorted(spans) for view, spans in analyzer.spans.items()}
        assert got == {view: sorted(spans) for view, spans in rebuilt_spans(analyzer).items()}, cell


def negative_recipient(records):
    """One deliver's recipient, and its send's matching recipients entry, as -1."""
    i = find(
        records,
        lambda r: r["kind"] == "deliver"
        and r["recipient"] == 3
        and sent(records, r)["sender"] != 3,
    )
    src = sent(records, records[i])
    src["recipients"][src["recipients"].index(3)] = -1
    records[i]["recipient"] = -1
    return records[i]["send"], "recipients"


def negative_sender(records):
    """One send's sender, 3, as -1."""
    i = find(records, lambda r: r["kind"] == "send" and r["sender"] == 3)
    records[i]["sender"] = -1
    return i, "sender"


@pytest.mark.parametrize("edit", [negative_recipient, negative_sender])
def test_negative_processor_id_is_located(edit, tmp_path, capsys):
    # Python reads a negative index from the end, so -1 would be processor n-1
    records = copied(found_run())
    seq, name = edit(records)
    assert ReferenceAnalyzer(records).analyze()  # the old scan raised nothing
    message = f"send record at seq {seq}: field '{name}' is malformed"
    with pytest.raises(TraceAnalysisError, match=re.escape(message)):
        analyze(records)
    path = tmp_path / "bad.jsonl"
    path.write_text(to_jsonl(records), encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    assert f"malformed trace: {message}" in capsys.readouterr().err


def one_as(records, kind, name, value):
    """In the first ``kind`` record whose field ``name`` (``payload.<x>``
    inside its payload) is processor 1 or lists it, that 1 set to ``value``,
    which compares and hashes like 1; the record's index."""
    *inside, key = name.split(".")
    for i, rec in enumerate(records):
        if rec["kind"] != kind:
            continue
        where = rec[inside[0]] if inside else rec
        found = where.get(key)
        if found == 1 and type(found) is int:
            where[key] = value
            return i
        if type(found) is list and 1 in found:
            found[found.index(1)] = value
            return i
    raise AssertionError(f"no {kind} record names processor 1 in {name}")


@pytest.mark.parametrize("value", [True, 1.0])
@pytest.mark.parametrize(
    "kind,name",
    [
        ("send", "sender"),
        ("send", "recipients"),
        ("deliver", "recipient"),
        ("form_qc", "signers"),
        # not processor ids, but read as such all the same
        ("deliver", "send"),
        ("send", "payload.signer"),
        ("send", "payload.signers"),
        ("send", "payload.leader"),
    ],
)
def test_a_processor_id_that_is_not_an_int_is_located(kind, name, value):
    # JSON true and 1.0 both read back equal to 1, as a key and in a set
    records = copied(found_run())
    i = one_as(records, kind, name, value)
    *inside, key = name.split(".")
    bad = (records[i][inside[0]] if inside else records[i])[key]
    message = f"{kind} record at seq {i}: field {name!r} is malformed: {bad!r}"
    with pytest.raises(TraceAnalysisError, match=re.escape(message)):
        analyze(records)


def test_a_processor_id_that_is_true_fails_replay(tmp_path, capsys):
    records = copied(found_run())
    i = one_as(records, "send", "sender", True)
    path = tmp_path / "bad.jsonl"
    path.write_text(to_jsonl(records), encoding="utf-8")
    assert read_trace(path)[i]["sender"] is True  # written as JSON true
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    message = f"malformed trace: send record at seq {i}: field 'sender' is malformed: True"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind,proc", [("form_vc", 2), ("form_qc", 1)])
def test_a_certificate_formed_by_a_non_leader_is_flagged(kind, proc):
    records = copied(found_run())
    i = find(records, lambda r: r["kind"] == kind)
    assert records[i]["proc"] == leader_of(records[i]["view"], params_from(records)) != proc
    records[i]["proc"] = proc
    assert [v[:2] for v in violations(records)] == [("aggregator_leader", i)]


def proposal(records, index):
    """The seq of the proposal at ``index`` among those of found_run,
    checked to be by its view's leader and to name it."""
    sends = [i for i, r in enumerate(records) if r["kind"] == "send"]
    i = [i for i in sends if records[i]["payload"]["type"] == "proposal"][index]
    sender, payload = records[i]["sender"], records[i]["payload"]
    assert payload["leader"] == sender == leader_of(payload["view"], params_from(records))
    return i


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p.update(leader=p["leader"] + 1),  # a leader other than its sender
        lambda p: p.update(view=p["view"] + 3),  # a view its sender does not lead
        lambda p: p.update(view=-1),  # a view nobody leads
    ],
    ids=["leader", "view", "negative_view"],
)
def test_a_correct_proposal_naming_another_leader_is_flagged(edit):
    records = copied(found_run())
    i = proposal(records, 1)
    edit(records[i]["payload"])
    assert [v[:2] for v in violations(records)] == [("proposal_leader", i)]


def test_a_corrupted_proposer_may_name_any_leader():
    records = copied(
        Simulation(
            SimConfig(
                n=4, corruptions=[Corruption(0, "selective_vc")], stop="horizon", horizon=30
            )
        ).run()
    )
    sends = [r for r in records if r["kind"] == "send" and r["payload"]["type"] == "proposal"]
    assert 0 in {r["sender"] for r in sends}
    for r in sends:
        if r["sender"] == 0:
            r["payload"]["leader"] = 2
    assert violations(records) == []


@pytest.mark.parametrize(
    "kind,seq,name,value",
    [
        ("form_qc", 50, "view", True),
        ("form_qc", 50, "view", 1.0),
        ("form_qc", 31, "view", -1),
        ("form_vc", 21, "view", -3),
        # equal to the view held and the view sent: no view changes here
        ("deliver", 4, "proc_view", 0.0),
        ("send", 6, "payload.view", 0.0),
    ],
)
def test_words_and_form_views_are_read_exactly(kind, seq, name, value):
    records = copied(found_run())
    *inside, key = name.split(".")
    where = records[seq][inside[0]] if inside else records[seq]
    assert records[seq]["kind"] == kind and type(where[key]) is int
    where[key] = value
    message = f"{kind} record at seq {seq}: field {name!r} is malformed: {value!r}"
    with pytest.raises(TraceAnalysisError, match=re.escape(message)):
        analyze(records)


def test_a_negative_form_view_fails_replay(tmp_path, capsys):
    # leader_of refuses a negative view with a ValueError, which is no trace error
    records = copied(found_run())
    i = find(records, lambda r: r["kind"] == "form_qc")
    records[i]["view"] = -1
    path = tmp_path / "bad.jsonl"
    path.write_text(to_jsonl(records), encoding="utf-8")
    capsys.readouterr()
    assert main(["replay", str(path)]) == 2
    message = f"malformed trace: form_qc record at seq {i}: field 'view' is malformed: -1"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,name",
    [("send", "time"), ("deliver", "proc_clock"), ("threshold", "boundary_clock"), ("send", "deliver_times")],
)
def test_a_rational_tick_is_located(kind, name):
    # trace v3 wrote a drifted clock's time between two ticks as a "p/q"
    # string; v4 refines the grid instead and reads no such string
    records = copied(found_run())
    i = find(records, lambda r: r["kind"] == kind)
    if name == "deliver_times":  # any entry, delivered or not
        times = records[i]["deliver_times"]
        times[-1] = f"{2 * times[-1] + 1}/2"
        message = f"send record at seq {i}: field 'deliver_times' is malformed: {times!r}"
    else:
        value = records[i][name] = f"{2 * records[i][name] + 1}/2"
        message = f"malformed time {value!r} at seq {i}"
    with pytest.raises(TraceAnalysisError, match=re.escape(message)):
        analyze(records)


@pytest.mark.parametrize("value", ["1/2", "x", True, 1.0])
def test_an_undelivered_deliver_time_is_read_exactly(value):
    # an entry that no deliver record reads is checked with its send record
    records = copied(found_run())
    delivered = {(r["send"], r["recipient"]) for r in records if r["kind"] == "deliver"}
    i = next(
        i
        for i, r in enumerate(records)
        if r["kind"] == "send" and any((i, q) not in delivered for q in r["recipients"])
    )
    at = next(j for j, q in enumerate(records[i]["recipients"]) if (i, q) not in delivered)
    records[i]["deliver_times"][at] = value
    message = f"send record at seq {i}: field 'deliver_times' is malformed: "
    with pytest.raises(TraceAnalysisError, match=re.escape(message)):
        analyze(records)


def test_a_threshold_one_sub_tick_late_is_a_violation():
    # drifting clocks put every time on a multiple of q, the lcm of the rates'
    # denominators; one tick later, off that grid, the clock reads past the
    # boundary, which the scaled clocks flag rather than fail to divide
    records = copied(
        run_records(drift_epsilon="1/20", offsets="adversarial_spread", stop="horizon", horizon=30)
    )
    q = scanned(records).q
    i = find(records, lambda r: r["kind"] == "threshold" and r["time"] > 0)
    assert q > 1 and records[i]["time"] % q == 0
    records[i]["time"] += 1
    assert ("clock_monotonicity", i) in {v[:2] for v in violations(records)}


def every_kind_run():
    """A pinned run with a record of every kind, ``wake`` and ``corrupt``
    among them, and a send of every payload type."""
    return Simulation(
        SimConfig(
            n=4, corruptions=[Corruption(3, "late_qc_relayer", 2)], stop="horizon", horizon=40
        )
    ).run()


def test_every_field_the_analysis_reads_is_located_when_missing():
    # each field of the tables deleted in turn, from the first record of its
    # kind or payload type: the scan reads every one, from a list or a stream
    records = every_kind_run()
    first = {}
    for i, r in enumerate(records):
        first.setdefault(r["kind"], i)
        if r["kind"] == "send":
            first.setdefault(r["payload"]["type"], i)
    fields = [(kind, name) for kind, row in RECORD_FIELDS.items() for name in row]
    fields += [(ptype, f"payload.{name}") for ptype, row in PAYLOAD_FIELDS.items() for name in row]
    for owner, name in fields:
        bad = copied(records)
        rec = bad[first[owner]]
        *inside, key = name.split(".")
        del (rec[inside[0]] if inside else rec)[key]
        message = f"{rec['kind']} record at seq {first[owner]}: field {name!r} is missing"
        for given in (bad, iter(bad)):
            with pytest.raises(TraceAnalysisError) as info:
                analyze(given)
            assert str(info.value) == message, (owner, name)


# (record kind or payload type, field) -> how the scan words a value of the
# wrong type planted there, where that is not "is malformed: <value>" ("is
# no payload type: <value>" for payload.type); a tick field's is _ticks'
PLANTED_MESSAGES = {
    ("send", "payload"): "is not an object: 'x'",
    ("corrupt", "strategy"): "is malformed: 7, where the header has 'late_qc_relayer'",
    ("end", "reason"): "is malformed: 7 under stop mode 'horizon'",
}
PLANTED = [(kind, name) for kind, row in RECORD_FIELDS.items() for name in row] + [
    (ptype, f"payload.{name}")
    for ptype, row in PAYLOAD_FIELDS.items()
    for name in ("type", "view", *row)
]


@pytest.mark.parametrize("owner,name", PLANTED, ids=[f"{o}.{n}" for o, n in PLANTED])
def test_a_planted_field_is_located_alike_by_every_reader(
    tmp_path, capsys, monkeypatch, owner, name
):
    # a value of the wrong type in the first record of its kind or payload
    # type gives one message from a list, a stream and viewsync replay, and
    # the replay reads the file once
    records = every_kind_run()
    seq = find(records, lambda r: owner in (r["kind"], r.get("payload", {}).get("type")))
    *inside, key = name.split(".")
    shape = PAYLOAD_FIELDS.get(owner, {}).get(key, "int") if inside else RECORD_FIELDS[owner][key]
    bad = 7 if shape == "str" else "x"
    rec = records[seq]
    (rec[inside[0]] if inside else rec)[key] = bad
    if shape == "tick":
        message = f"malformed time {bad!r} at seq {seq}"
    else:
        tail = "is no payload type" if name == "payload.type" else "is malformed"
        tail = PLANTED_MESSAGES.get((owner, name), f"{tail}: {bad!r}")
        message = f"{rec['kind']} record at seq {seq}: field {name!r} {tail}"
    for given in (records, iter(records)):
        with pytest.raises(TraceAnalysisError) as info:
            analyze(given)
        assert str(info.value) == message
    path = tmp_path / "planted.jsonl"
    write_trace(records, path)

    def refuse(path):
        raise AssertionError("a second read of the trace")

    monkeypatch.setattr("viewsync.trace.read_trace", refuse)
    opened = []
    line_blocks = viewsync.trace._line_blocks
    monkeypatch.setattr("viewsync.trace._line_blocks", lambda p: opened.append(p) or line_blocks(p))
    with pytest.raises(TraceAnalysisError) as info:
        replay_cell(path)
    assert str(info.value) == message and opened == [path]
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == f"malformed trace: {message}\n"


@pytest.mark.parametrize("seq, whole", [(5, False), (1, True)], ids=["bare_at_5", "copy_at_1"])
def test_a_second_header_is_located(tmp_path, capsys, seq, whole):
    # a bare header record inside the trace, or a copy of the header right
    # after it, with the deliveries renumbered past it: one message from a
    # list, a stream, replay_cell and viewsync replay
    records = every_kind_run()
    header = records[0] if whole else {"kind": "header"}
    bad = renumbered([*records[:seq], header, *records[seq:]], records)
    message = f"header record at seq {seq}: a trace has one header, at seq 0"
    for given in (bad, iter(bad)):
        with pytest.raises(TraceAnalysisError) as info:
            analyze(given)
        assert str(info.value) == message
    path = tmp_path / "two-headers.jsonl"
    write_trace(bad, path)
    with pytest.raises(TraceAnalysisError) as info:
        replay_cell(path)
    assert str(info.value) == message
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == f"malformed trace: {message}\n"


@pytest.mark.parametrize("proc", ["x", None, 99, -1, 1.5, [1], True])
def test_a_wake_record_names_a_processor(proc):
    records = every_kind_run()
    seq = find(records, lambda r: r["kind"] == "wake")
    records[seq]["proc"] = proc
    message = f"wake record at seq {seq}: field 'proc' is malformed: {proc!r}"
    for given in (records, iter(records)):
        with pytest.raises(TraceAnalysisError) as info:
            analyze(given)
        assert str(info.value) == message


@pytest.mark.parametrize("kind", ["threshold", "form_vc", "form_qc", "corrupt"])
@pytest.mark.parametrize("proc", [-1, 4, True, 1.0])  # True and 1.0 pass for 1 in a set
def test_processor_id_out_of_range_is_located(kind, proc):
    records = copied(
        Simulation(
            SimConfig(n=4, corruptions=[Corruption(3, "silent", 2)], stop="horizon", horizon=30)
        ).run()
    )
    i = find(records, lambda r: r["kind"] == kind)
    records[i]["proc"] = proc
    message = f"{kind} record at seq {i}: field 'proc' is malformed: {proc}"
    with pytest.raises(TraceAnalysisError, match=re.escape(message)):
        analyze(records)


@pytest.mark.parametrize("read", [list, iter], ids=["list", "stream"])
@pytest.mark.parametrize(
    "field, value, problem",
    [
        ("strategy", "nonsense", "'nonsense', where the header has 'early_signer'"),
        ("strategy", 1.5, "1.5, where the header has 'early_signer'"),
        ("strategy", "silent", "'silent', where the header has 'early_signer'"),
        ("time", 1, "1, where the header has 0"),
        ("proc", 3, "3 is not a corruption the header lists"),
    ],
)
def test_a_corrupt_record_that_differs_from_the_header_is_located(read, field, value, problem):
    records = copied(
        Simulation(
            SimConfig(n=7, corruptions=[Corruption(0, "early_signer", 0)], stop="horizon",
                      horizon=30)
        ).run()
    )
    i = find(records, lambda r: r["kind"] == "corrupt")
    assert analyze(read(records)).violations == []
    records[i][field] = value
    message = f"corrupt record at seq {i}: field {field!r} is malformed: {problem}"
    with pytest.raises(TraceAnalysisError, match=re.escape(message) + "$"):
        analyze(read(records))


def corrupting_run(strategy, time):
    """found_run's configuration with processor 3 corrupted under
    ``strategy`` at ``time``: the runs whose ``corrupt`` record, deleted or
    listed twice, used to analyze clean."""
    return Simulation(
        SimConfig(n=4, stop="horizon", horizon=30, seed=0,
                  corruptions=[Corruption(3, strategy, time)])
    ).run()


def deleted_corrupt(records, c):
    return renumbered(records[:c] + records[c + 1:], records)


def located(records, read, message, tmp_path, capsys):
    """``message`` is the TraceAnalysisError a list, a stream or ``viewsync
    replay`` (exit 2) gives for ``records``."""
    if read == "replay":
        path = tmp_path / "bad.jsonl"
        path.write_text(to_jsonl(records), encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", str(path)]) == 2
        assert capsys.readouterr().err == f"malformed trace: {message}\n"
        return
    with pytest.raises(TraceAnalysisError, match=re.escape(message) + "$"):
        analyze(records if read == "list" else iter(records))


@pytest.mark.parametrize("read", ["list", "stream", "replay"])
@pytest.mark.parametrize("strategy, time", [("crash_leader", 5), ("late_qc_relayer", 2)])
def test_a_corruption_without_its_corrupt_record_is_located(read, strategy, time, tmp_path,
                                                            capsys):
    records = corrupting_run(strategy, time)
    assert analyze(records).violations == []
    c = find(records, lambda r: r["kind"] == "corrupt")
    bad = deleted_corrupt(records, c)
    end = bad[-1]
    message = (
        f"trace ends at seq {len(bad) - 1}, time {end['time']}, with no corrupt record "
        f"for processor 3, which the header corrupts at {records[c]['time']}"
    )
    located(bad, read, message, tmp_path, capsys)


@pytest.mark.parametrize("read", ["list", "stream", "replay"])
@pytest.mark.parametrize("strategy, time", [("crash_leader", 5), ("late_qc_relayer", 2)])
def test_a_corrupt_record_listed_twice_is_located(read, strategy, time, tmp_path, capsys):
    records = corrupting_run(strategy, time)
    c = find(records, lambda r: r["kind"] == "corrupt")
    message = (
        f"corrupt record at seq {c + 1}: field 'proc' is malformed: "
        "3 was corrupted by an earlier corrupt record"
    )
    located(duplicated(records, c), read, message, tmp_path, capsys)


def test_a_corruption_after_the_trace_ends_needs_no_corrupt_record():
    # a corruption past the horizon never happens, so the run writes no record
    records = run_records(n=4, corruptions=(Corruption(3, "crash_leader", 31),), stop="horizon",
                          horizon=30)
    assert not any(r["kind"] == "corrupt" for r in records)
    assert analyze(records).violations == []


def test_a_corruption_at_the_end_time_needs_its_corrupt_record():
    """Kills flipping ``c.time <= end_time`` to ``<`` in
    ``metrics._Analyzer._check_corrupted``: a corruption at the horizon
    happens, so the run writes its corrupt record before the end record,
    and a trace without it is refused (one a tick later needs none: the
    test above)."""
    records = run_records(n=4, corruptions=(Corruption(3, "crash_leader", 30),), stop="horizon",
                          horizon=30)
    c = find(records, lambda r: r["kind"] == "corrupt")
    end = records[-1]["time"]
    assert records[c]["time"] == end and analyze(records).violations == []
    bad = deleted_corrupt(records, c)
    message = (
        f"trace ends at seq {len(bad) - 1}, time {end}, with no corrupt record "
        f"for processor 3, which the header corrupts at {end}"
    )
    with pytest.raises(TraceAnalysisError, match=re.escape(message) + "$"):
        analyze(bad)


def test_a_forged_signer_is_flagged_and_signs_for_nobody():
    # a corrupted sender's view message naming correct processor 3: a
    # forgery, which the model excludes, flagged at its send's seq and not
    # credited to 3 (who never signs view 15) in certificate checks
    records = copied(
        Simulation(
            SimConfig(n=7, corruptions=[Corruption(0, "early_signer", 0)], stop="horizon",
                      horizon=30)
        ).run()
    )
    i = find(
        records,
        lambda r: r["kind"] == "send"
        and r["payload"] == {"type": "view_message", "view": 15, "signer": 0},
    )
    assert not any(
        r["kind"] == "send" and r["sender"] == 3 and r["payload"]["type"] == "view_message"
        and r["payload"]["view"] == 15
        for r in records
    )
    records[i]["payload"]["signer"] = 3
    want = Violation("signing_clock", i, "processor 0 signed as processor 3")
    for read in (list, iter):
        assert want in analyze(read(records)).violations
    scan = _Analyzer(records)
    scan.scan()
    assert (3, "view_msg", 15) not in scan.signatures
    assert (0, "view_msg", 15) not in scan.signatures


@pytest.mark.parametrize("read", [list, iter], ids=["list", "stream"])
def test_a_forged_vote_is_flagged_from_any_sender(read):
    records = copied(
        run_records(n=7, corruptions=(Corruption(0, "vote_stuffer", 0),), stop="horizon",
                    horizon=30)
    )
    i = find(
        records,
        lambda r: r["kind"] == "send" and r["sender"] == 0 and r["payload"]["type"] == "vote",
    )
    records[i]["payload"]["signer"] = 3
    assert Violation("vote_view", i, "processor 0 signed as processor 3") in analyze(
        read(records)
    ).violations


@pytest.mark.parametrize("read", [list, iter], ids=["list", "stream"])
@pytest.mark.parametrize("reason", ["t_star", "sync_plus", "", "Horizon", 0, None, ["horizon"]])
def test_an_end_reason_the_run_cannot_give_is_located(read, reason):
    # found_run stops at its horizon, for "horizon", which is its stop mode
    records = copied(found_run())
    records[-1]["reason"] = reason
    message = (
        f"end record at seq {len(records) - 1}: field 'reason' is malformed: "
        f"{reason!r} under stop mode 'horizon'"
    )
    with pytest.raises(TraceAnalysisError, match=re.escape(message) + "$"):
        analyze(read(records))


def test_an_end_reason_is_the_horizon_or_the_stop_mode():
    records = copied(run_records(n=4, stop="t_star"))
    assert records[-1]["reason"] == "t_star"
    want = analyze(records)
    # a run with no t_star ends at its horizon: here, one where this run stopped
    records[-1]["reason"] = "horizon"
    records[0]["config"]["horizon"] = records[-1]["time"]
    got = analyze(records)
    assert replace(got, run=want.run) == want and got.run.horizon == records[-1]["time"]
    records[-1]["reason"] = "sync_plus"
    with pytest.raises(TraceAnalysisError, match="field 'reason' is malformed: 'sync_plus'"):
        analyze(records)


@pytest.mark.parametrize("read", ["list", "stream", "replay"])
@pytest.mark.parametrize("shift", [-1, 1])
def test_a_horizon_end_off_the_headers_horizon_is_located(read, shift, tmp_path, capsys):
    # a run that stops at its horizon writes its end record there; one a
    # tick either side claims a horizon the run did not run to
    records = copied(found_run())
    end, horizon = len(records) - 1, records[0]["config"]["horizon"]
    assert records[end] == {"kind": "end", "time": horizon, "reason": "horizon"}
    records[end]["time"] = horizon + shift
    message = (
        f"end record at seq {end}: field 'time' is malformed: {horizon + shift}, "
        f"where the header's horizon is {horizon}"
    )
    located(records, read, message, tmp_path, capsys)


def test_an_end_record_before_the_last_is_located(tmp_path, capsys):
    # found_run's end record, at the header's horizon, planted again at seq
    # 5 with the deliveries renumbered past it, so that only the rule that a
    # trace ends at its end record refuses it: one message from a list, a
    # stream, a list parsed back from its text, replay_cell and viewsync replay
    records = found_run()
    seq = 5
    bad = renumbered([*records[:seq], records[-1], *records[seq:]], records)
    assert bad[seq]["time"] == bad[0]["config"]["horizon"]
    message = (
        f"{bad[seq + 1]['kind']} record at seq {seq + 1}: "
        f"a trace ends at its end record, at seq {seq}"
    )
    for given in (bad, iter(bad), parse_jsonl(to_jsonl(bad))):
        with pytest.raises(TraceAnalysisError) as info:
            analyze(given)
        assert str(info.value) == message
    path = tmp_path / "early-end.jsonl"
    write_trace(bad, path)
    with pytest.raises(TraceAnalysisError) as info:
        replay_cell(path)
    assert str(info.value) == message
    assert main(["replay", str(path)]) == 2
    assert capsys.readouterr().err == f"malformed trace: {message}\n"


def test_header_corruption_out_of_range_rejected():
    records = copied(
        Simulation(SimConfig(n=4, corruptions=[Corruption(3, "silent")], seed=0)).run()
    )
    records[0]["config"]["corruptions"][0]["proc"] = -1
    with pytest.raises(TraceAnalysisError, match="corruptions\\[0\\].proc: -1 is not a processor"):
        analyze(records)


@pytest.mark.parametrize(
    "edit,problem",
    [
        (lambda r: r.pop("deliver_times"), "is missing"),
        (lambda r: r["deliver_times"].pop(), "has 6 entries for 7 recipients"),
        (lambda r: r["deliver_times"].append(0), "has 8 entries for 7 recipients"),
        (lambda r: r.update(deliver_times=5), "is malformed: 5"),
    ],
)
def test_malformed_deliver_times_is_named(base, edit, problem):
    i = find(base, lambda r: r["kind"] == "send" and len(r["recipients"]) == 7)
    bad = copied(base)
    edit(bad[i])
    message = f"send record at seq {i}: field 'deliver_times' {problem}"
    with pytest.raises(TraceAnalysisError, match=re.escape(message)):
        analyze(bad)


def test_unknown_record_kind_rejected(base):
    bad = mutated(base, 3, kind="telemetry")
    with pytest.raises(TraceAnalysisError):
        analyze(bad)


def test_config_mismatch_rejected(base):
    other = SimConfig(n=4, delta_cap=2)
    with pytest.raises(TraceAnalysisError):
        assert_invariants(base, config=other)


# -- headline metrics and standalone oracles -----------------------------------


def test_first_sync_is_strictly_after_stabilisation(base):
    params = params_from(base)
    forms = [
        (r["time"], r["view"])
        for r in base
        if r["kind"] == "form_qc"
    ]
    t0 = forms[0][0]
    later = compute_t_star(base, t0, params)
    assert later > t0
    assert later == min(when for when, _ in forms if when > t0)


def test_analyzer_matches_standalone_oracles():
    cases = [
        dict(),
        dict(corruptions=(Corruption(0, "silent"),), gst=11),
        dict(network="uniform_random", seed=9, gst=7),
        dict(leaders="random_permutations", seed=4, offsets="adversarial_spread"),
    ]
    for kw in cases:
        records = run_records(**kw)
        cfg = records[0]["config"]
        params = params_from(records)
        m = analyze(records)
        t_star = compute_t_star(records, cfg["gst"], params)
        if m.t_star is None:
            assert t_star == math.inf
        else:
            assert from_ticks(t_star, records[0]["grid"]) == m.t_star
        assert m.words_counted == count_words(records, cfg["gst"], cfg["delta_cap"], t_star)
        assert m.f_star == compute_f_star(records, params)
        assert m.violations == []


def test_f_star_param_mismatch_rejected(base):
    params = ProtocolParams(4, 1, 3, 6, RoundRobinSchedule(4))
    with pytest.raises(TraceAnalysisError):
        compute_f_star(base, params)


def test_f_star_counts_corrupted_leader_groups():
    records = run_records(corruptions=(Corruption(0, "silent"),), gst=0)
    assert compute_f_star(records, params_from(records)) == 1
    clean = run_records()
    assert compute_f_star(clean, params_from(clean)) == 0


# -- streaming -----------------------------------------------------------------


class WatchedRecord(dict):
    """A record a weak reference can watch."""


def test_streamed_analysis_retains_no_records():
    records = run_records(
        n=4, corruptions=(Corruption(0, "early_signer"),), stop="horizon", horizon=40
    )
    kinds = {r["kind"] for r in records}
    assert {"send", "deliver", "threshold", "form_vc", "form_qc"} <= kinds
    watched = []  # (position, weak reference) of every record but the header

    def stream():
        for i, rec in enumerate(records):
            # the scan holds the record it is reading (i - 1), and no older one
            held = [j for j, ref in watched if j < i - 1 and ref() is not None]
            assert held == [], [records[j]["kind"] for j in held]
            rec = WatchedRecord(rec)
            if i:
                watched.append((i, weakref.ref(rec)))
            yield rec

    was_enabled = gc.isenabled()
    gc.disable()  # a record kept alive by a cycle counts as kept
    try:
        got = analyze(stream())
        assert [j for j, ref in watched if ref() is not None] == []
    finally:
        if was_enabled:
            gc.enable()
    assert len(watched) == len(records) - 1
    assert got == analyze(records)


def test_the_analyzer_sets_fewer_attributes_than_cpython_reads_fast():
    # see the comment on _Analyzer: at 30, every attribute read in the scan slows
    assert len(vars(_Analyzer(found_run()))) < 30


def test_every_analyzer_reads_a_stream():
    records = run_records(
        n=4, corruptions=(Corruption(0, "late_qc_relayer"),), stop="horizon", horizon=40
    )
    want = analyze(records)
    assert analyze(iter(records)) == want
    assert QuadraticAnalyzer(iter(records)).analyze() == want
    assert ReferenceAnalyzer(iter(records)).analyze() == want
    assert compute_f_star(iter(records), params_from(records)) == want.f_star


def test_a_stream_is_located_as_a_list_is(base):
    bad = copied(base)
    seq = find(bad, lambda r: r["kind"] == "deliver")
    bad[seq].pop("proc_clock")
    message = f"deliver record at seq {seq}: field 'proc_clock' is missing"
    with pytest.raises(TraceAnalysisError, match=f"^{re.escape(message)}$"):
        analyze(iter(bad))
    with pytest.raises(TraceAnalysisError, match=f"^{re.escape(message)}$"):
        analyze(bad)

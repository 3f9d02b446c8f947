"""Byzantine strategy catalog.

A corrupted processor is driven by a control object instead of the correct
handlers. Three strategies are passive (the processor falls silent apart from
a one-shot signature flood at corruption time); three are active (the correct
handlers still run, but the control filters or augments the resulting actions
before the host performs them). The host decides each of these once:
``simnet.Simulation._apply_corruption`` marks a passive processor silent, so
no handler runs for it again, and ``Simulation._dispatch`` is the one place
that calls ``transform``, on each action list of an active one. Signing power
is exactly simulated unforgeability: a corrupted processor may send its own
signature for any view at any time after corruption, but can never produce
another processor's signature, so certificates still require genuine
contributions. The ledger has one writer, ``Simulation.send``, which records
every vote and view message as it is sent, the floods here included.

Every choice a strategy makes (subsets, release delays) is drawn from a
dedicated per-processor seeded generator, keeping runs replayable. Only the
strategies that draw build one.
"""

from __future__ import annotations

import random

from .certificates import QuorumCertificate, ViewCertificate, ViewMessage
from .core import ALL, Action, FormVC, Send, leader_of
from .underlying import FormQC, Proposal, Vote

SILENT = "silent"
CRASH_LEADER = "crash_leader"
SELECTIVE_VC = "selective_vc"
EARLY_SIGNER = "early_signer"
VOTE_STUFFER = "vote_stuffer"
LATE_QC_RELAYER = "late_qc_relayer"

BYZANTINE_STRATEGIES = (
    SILENT,
    CRASH_LEADER,
    SELECTIVE_VC,
    EARLY_SIGNER,
    VOTE_STUFFER,
    LATE_QC_RELAYER,
)

# Passive strategies stop reacting to deliveries and clock thresholds entirely.
PASSIVE_STRATEGIES = frozenset({SILENT, EARLY_SIGNER, VOTE_STUFFER})
# The strategies that make random choices (_subset and _stash).
_DRAWING_STRATEGIES = frozenset({SELECTIVE_VC, LATE_QC_RELAYER})


class ByzantineControl:
    """Per-processor adversary hook; the host consults it once corrupted.

    ``strategy`` is one of ``BYZANTINE_STRATEGIES``: ``simnet.Resolved``
    refuses any other before a run builds its controls.
    """

    def __init__(self, proc: int, strategy: str, n: int, seed: int):
        self.proc = proc
        self.strategy = strategy
        self.n = n
        self.rng = random.Random(seed) if strategy in _DRAWING_STRATEGIES else None
        self._relayed_views: set[int] = set()

    @property
    def passive(self) -> bool:
        return self.strategy in PASSIVE_STRATEGIES

    def on_corrupt(self, host, now) -> None:
        """One-shot behavior at corruption time (signature floods)."""
        run = host.resolved
        if self.strategy == EARLY_SIGNER:
            params = run.params
            for v in range(0, run.max_flood_view + 1, params.k):
                host.send(self.proc, leader_of(v, params), ViewMessage(v, self.proc), now)
        elif self.strategy == VOTE_STUFFER:
            params = run.params
            for v in range(0, run.max_flood_view + 1):
                host.send(self.proc, leader_of(v, params), Vote(v, self.proc), now)

    def transform(self, actions: list[Action], host, now) -> list[Action]:
        """Rewrite the correct handlers' actions per strategy."""
        if self.strategy == CRASH_LEADER:
            return [a for a in actions if not self._leader_output(a)]
        if self.strategy == SELECTIVE_VC:
            out: list[Action] = []
            for a in actions:
                if isinstance(a, Send) and a.to == ALL and isinstance(a.payload, ViewCertificate):
                    out.extend(Send(q, a.payload) for q in self._subset())
                else:
                    out.append(a)
            return out
        if self.strategy == LATE_QC_RELAYER:
            out = []
            for a in actions:
                if isinstance(a, Send) and isinstance(a.payload, QuorumCertificate):
                    self._stash(a.payload, host, now)
                else:
                    out.append(a)
            return out
        raise AssertionError(f"transform called for passive strategy {self.strategy}")

    def saw_qc(self, qc: QuorumCertificate, host, now) -> None:
        """Delivery-side hook: the relayer re-releases certificates it receives."""
        if self.strategy == LATE_QC_RELAYER:
            self._stash(qc, host, now)

    def on_wake(self, payload, now, host) -> None:
        qc, subset = payload
        for q in subset:
            host.send(self.proc, q, qc, now)

    @staticmethod
    def _leader_output(action: Action) -> bool:
        if isinstance(action, (FormVC, FormQC)):
            return True
        return isinstance(action, Send) and isinstance(
            action.payload, (Proposal, ViewCertificate, QuorumCertificate)
        )

    def _subset(self) -> list[int]:
        size = self.rng.randint(1, self.n - 1)
        return sorted(self.rng.sample(range(self.n), size))

    def _stash(self, qc: QuorumCertificate, host, now) -> None:
        if qc.view in self._relayed_views:
            return
        self._relayed_views.add(qc.view)
        others = [q for q in range(self.n) if q != self.proc]
        size = self.rng.randint(1, len(others))
        subset = sorted(self.rng.sample(others, size))
        run = host.resolved
        # a whole number of base ticks, as on a grid without drift
        delay = run.unit * self.rng.randint(run.delta_cap // run.unit, run.period // run.unit)
        host.schedule_wake(self.proc, (qc, subset), now + delay)

"""Certificates over view numbers and the simulated signature ledger.

Two certificate kinds exist: a view certificate (t+1 distinct signed view
messages for one view, aggregated by that view's leader) and a quorum
certificate (n-t distinct signed votes, produced by the round structure of the
underlying protocol). Signatures are simulated: the ledger records who signed
what, and validation is a membership query. Certificate objects can only be
built through the forming functions, which keeps unforgeability constructive:
no certificate exists in a run unless enough signatures were actually issued.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class CertificateError(ValueError):
    """Raised when a forming/validation precondition fails."""


@dataclass(frozen=True, slots=True)
class ViewMessage:
    """A processor's signed announcement that its clock reached a view's start."""

    view: int
    signer: int


@dataclass(frozen=True, slots=True)
class ViewCertificate:
    """Aggregate of t+1 distinct view messages for one view."""

    view: int
    signers: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class QuorumCertificate:
    """Aggregate of n-t distinct votes certifying completion of one view."""

    view: int
    signers: tuple[int, ...]


SIGN_VIEW = "view_msg"
SIGN_VOTE = "vote"


class SignatureLedger:
    """Append-only record of (signer, kind, view) signature events.

    A correct processor signs a view message only when its clock sits exactly on
    that view's start time, and a vote only while the view is current; Byzantine
    processors may append anything once corrupted. Entries are never removed,
    so prior signatures of a later-corrupted processor stay valid.

    Each kind keeps one ``{view: bitmask}`` map, where bit s is set once
    signer s signed that view: one int per view instead of one tuple per
    signature. A signer is a processor id, so ``record`` refuses one that is
    not a non-negative int (a bool included), and ``holds`` is False for it.
    """

    def __init__(self) -> None:
        self._signed: dict[str, dict[int, int]] = {SIGN_VIEW: {}, SIGN_VOTE: {}}

    def record(self, signer: int, kind: str, view: int) -> None:
        if kind not in (SIGN_VIEW, SIGN_VOTE):
            raise ValueError(f"unknown signature kind {kind!r}")
        if type(signer) is not int or signer < 0:
            raise ValueError(f"signer {signer!r} is not a processor id")
        signed = self._signed[kind]
        signed[view] = signed.get(view, 0) | 1 << signer

    def holds(self, signer: int, kind: str, view: int) -> bool:
        signed = self._signed.get(kind)
        if signed is None or type(signer) is not int or signer < 0:
            return False
        return signed.get(view, 0) >> signer & 1 == 1


def _distinct_signers(items: Iterable[tuple[int, int]], view: int, what: str) -> tuple[int, ...]:
    signers: list[int] = []
    for item_view, signer in items:
        if item_view != view:
            raise CertificateError(f"{what} for view {item_view} mixed into view {view}")
        if signer not in signers:
            signers.append(signer)
    return tuple(sorted(signers))


def form_vc(view: int, messages: Iterable[ViewMessage], t: int) -> ViewCertificate:
    """Aggregate view messages into a certificate; needs t+1 distinct signers."""
    signers = _distinct_signers(((m.view, m.signer) for m in messages), view, "view message")
    if len(signers) < t + 1:
        raise CertificateError(
            f"view certificate for view {view} needs {t + 1} distinct signers, got {len(signers)}"
        )
    return ViewCertificate(view, signers)


def validate_vc(vc: ViewCertificate, n: int, t: int, ledger: SignatureLedger) -> bool:
    """Check signer count, id range and that the ledger holds every signature."""
    signers = set(vc.signers)
    if len(signers) != len(vc.signers) or len(signers) < t + 1:
        return False
    if not all(0 <= s < n for s in signers):
        return False
    return all(ledger.holds(s, SIGN_VIEW, vc.view) for s in signers)


def form_qc(view: int, votes: Iterable[tuple[int, int]], n: int, t: int) -> QuorumCertificate:
    """Aggregate (view, signer) votes into a certificate; needs n-t distinct signers."""
    signers = _distinct_signers(votes, view, "vote")
    if len(signers) < n - t:
        raise CertificateError(
            f"quorum certificate for view {view} needs {n - t} distinct signers, got {len(signers)}"
        )
    return QuorumCertificate(view, signers)


def validate_qc(qc: QuorumCertificate, n: int, t: int, ledger: SignatureLedger) -> bool:
    """Check signer count, id range and that the ledger holds every signature."""
    signers = set(qc.signers)
    if len(signers) != len(qc.signers) or len(signers) < n - t:
        return False
    if not all(0 <= s < n for s in signers):
        return False
    return all(ledger.holds(s, SIGN_VOTE, qc.view) for s in signers)

"""Certificate formation, validation, and the simulated signature ledger."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from viewsync.certificates import (
    CertificateError,
    QuorumCertificate,
    SignatureLedger,
    SIGN_VIEW,
    SIGN_VOTE,
    ViewCertificate,
    ViewMessage,
    form_qc,
    form_vc,
    validate_qc,
    validate_vc,
)


def test_form_vc_minimal_quorum():
    vc = form_vc(3, [ViewMessage(3, 0), ViewMessage(3, 2)], t=1)
    assert vc.view == 3
    assert vc.signers == (0, 2)


def test_form_vc_duplicate_signer_rejected():
    with pytest.raises(CertificateError):
        form_vc(3, [ViewMessage(3, 0), ViewMessage(3, 0)], t=1)


def test_form_vc_t2_boundary():
    vc = form_vc(0, [ViewMessage(0, 1), ViewMessage(0, 3), ViewMessage(0, 5)], t=2)
    assert vc.view == 0
    assert vc.signers == (1, 3, 5)


def test_form_vc_mixed_views_rejected():
    with pytest.raises(CertificateError):
        form_vc(3, [ViewMessage(3, 0), ViewMessage(6, 2)], t=1)


def test_form_qc_boundary_n4():
    qc = form_qc(5, [(5, 0), (5, 1), (5, 2)], n=4, t=1)
    assert qc.view == 5
    assert qc.signers == (0, 1, 2)


def test_form_qc_insufficient():
    with pytest.raises(CertificateError):
        form_qc(5, [(5, 0), (5, 1)], n=4, t=1)


def test_form_qc_boundary_n7():
    qc = form_qc(0, [(0, s) for s in (6, 4, 2, 1, 0)], n=7, t=2)
    assert qc.signers == (0, 1, 2, 4, 6)


def test_form_qc_duplicates_collapse():
    # 4 votes but only 2 distinct signers: below the n-t=3 threshold.
    with pytest.raises(CertificateError):
        form_qc(5, [(5, 0), (5, 0), (5, 1), (5, 1)], n=4, t=1)


def test_validate_vc_against_ledger():
    ledger = SignatureLedger()
    ledger.record(0, SIGN_VIEW, 3)
    ledger.record(2, SIGN_VIEW, 3)
    vc = ViewCertificate(3, (0, 2))
    assert validate_vc(vc, n=4, t=1, ledger=ledger)
    # Signer 1 never signed view 3: forged certificate fails.
    assert not validate_vc(ViewCertificate(3, (0, 1)), n=4, t=1, ledger=ledger)


def test_validate_vc_structural():
    ledger = SignatureLedger()
    for s in (0, 1, 9):
        ledger.record(s, SIGN_VIEW, 0)
    assert validate_vc(ViewCertificate(0, (0, 1)), n=4, t=1, ledger=ledger)
    assert not validate_vc(ViewCertificate(0, (0,)), n=4, t=1, ledger=ledger)
    assert not validate_vc(ViewCertificate(0, (0, 9)), n=4, t=1, ledger=ledger)
    assert not validate_vc(ViewCertificate(0, (0, 0)), n=4, t=1, ledger=ledger)


def test_validate_vc_byzantine_early_signers_pass():
    # Byzantine processors may sign any view at any time; a VC made purely of
    # their signatures validates. t+1 signers with at most t Byzantine still
    # forces one correct contributor, but that is a run-level property, not a
    # ledger check.
    ledger = SignatureLedger()
    ledger.record(3, SIGN_VIEW, 9)
    ledger.record(1, SIGN_VIEW, 9)
    assert validate_vc(ViewCertificate(9, (1, 3)), n=4, t=1, ledger=ledger)


def test_validate_qc_against_ledger():
    ledger = SignatureLedger()
    for s in (0, 1, 2):
        ledger.record(s, SIGN_VOTE, 5)
    assert validate_qc(QuorumCertificate(5, (0, 1, 2)), n=4, t=1, ledger=ledger)
    assert not validate_qc(QuorumCertificate(5, (0, 1, 3)), n=4, t=1, ledger=ledger)
    assert not validate_qc(QuorumCertificate(5, (0, 1)), n=4, t=1, ledger=ledger)


def test_ledger_kinds_are_disjoint():
    ledger = SignatureLedger()
    ledger.record(0, SIGN_VIEW, 3)
    assert ledger.holds(0, SIGN_VIEW, 3)
    assert not ledger.holds(0, SIGN_VOTE, 3)
    with pytest.raises(ValueError):
        ledger.record(0, "block", 3)


@pytest.mark.parametrize("signer", [-1, True, 1.0, "1", None])
def test_ledger_refuses_a_signer_that_is_not_a_processor_id(signer):
    ledger = SignatureLedger()
    ledger.record(1, SIGN_VOTE, 3)
    with pytest.raises(ValueError, match="is not a processor id"):
        ledger.record(signer, SIGN_VOTE, 3)
    assert not ledger.holds(signer, SIGN_VOTE, 3)  # True and 1.0 do not pass for 1


@given(
    st.lists(
        st.tuples(
            st.sampled_from([0, 1, 62, 63, 64, 65, 99, 1000]),  # past one machine word
            st.sampled_from([SIGN_VIEW, SIGN_VOTE]),
            st.integers(-3, 5),
        ),
        max_size=40,
    )
)
def test_ledger_holds_exactly_what_was_recorded(events):
    ledger = SignatureLedger()
    for event in events:  # repeats included
        ledger.record(*event)
    recorded = set(events)
    for signer in (0, 1, 2, 62, 63, 64, 65, 66, 99, 999, 1000, 1001):
        assert not ledger.holds(signer, "block", 0)
        for kind in (SIGN_VIEW, SIGN_VOTE):
            for view in range(-3, 6):
                assert ledger.holds(signer, kind, view) is ((signer, kind, view) in recorded)


@given(st.sets(st.integers(0, 30), min_size=1, max_size=31), st.integers(0, 9))
def test_form_vc_signers_sorted_and_exact(signers, t):
    msgs = [ViewMessage(0, s) for s in signers]
    if len(signers) >= t + 1:
        vc = form_vc(0, msgs, t)
        assert vc.signers == tuple(sorted(signers))
    else:
        with pytest.raises(CertificateError):
            form_vc(0, msgs, t)


@given(st.sets(st.integers(0, 30), min_size=1, max_size=31))
def test_form_qc_threshold_is_n_minus_t(signers):
    n, t = 31, 10
    votes = [(7, s) for s in signers]
    if len(signers) >= n - t:
        qc = form_qc(7, votes, n, t)
        ledger = SignatureLedger()
        for s in signers:
            ledger.record(s, SIGN_VOTE, 7)
        assert validate_qc(qc, n, t, ledger)
    else:
        with pytest.raises(CertificateError):
            form_qc(7, votes, n, t)

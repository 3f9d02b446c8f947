"""Deterministic simulation and invariant checking for clock-driven view synchronisation."""

from .certificates import (
    CertificateError,
    QuorumCertificate,
    SignatureLedger,
    ViewCertificate,
    ViewMessage,
    form_qc,
    form_vc,
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
    clock_time,
    is_boundary,
    leader_of,
    on_clock_reaches,
    on_qc,
    on_vc,
    on_view_message,
)
from .adversary import BYZANTINE_STRATEGIES
from .constants import RESPONSE_STEPS_C, WORD_RATE_W
from .harness import (
    ExperimentError,
    ExperimentSpec,
    build_config,
    config_hash,
    replay_cell,
    run_cell,
    run_experiment,
)
from .metrics import (
    RunMetrics,
    TraceAnalysisError,
    Violation,
    analyze,
)
from .simnet import (
    Corruption,
    Resolved,
    SimConfig,
    Simulation,
    SimulationError,
    check_dagger,
    default_resilience,
    delivery_time,
    generate_initial_offsets,
    resolve,
    subseed,
)
from .trace import Record, TraceParseError, parse_jsonl, read_trace, to_jsonl, write_trace
from .underlying import FormQC, Proposal, UnderlyingState, Vote, on_enter_view, on_proposal, on_vote

__version__ = "0.1.0"

"""Staged reasoning search at inference time.

Parses and enforces the four-stage tagged response format and runs
best-of-N, stage-wise beam search, and stage-wise retracing search against
pluggable generator and reward backends, with reward calibration, a dataset
pipeline, and a benchmark/scaling harness.
"""

from .backends import (
    BackendError,
    EndpointConfig,
    Generator,
    GeneratorRequest,
    HttpGenerator,
    HttpRewardScorer,
    MalformedReplyError,
    RewardRequest,
    RewardScore,
    RewardScorer,
    SamplingParams,
    SimWorld,
    SimWorldConfig,
    TransportError,
    oracle_correct,
)
from .search import (
    BudgetLedger,
    CalibrationStats,
    Candidate,
    ConfigError,
    EmptyCorpusError,
    InsufficientCandidatesError,
    LoopSemantics,
    SearchConfig,
    SearchError,
    SearchExhaustedError,
    SearchResult,
    SearchTrace,
    Strategy,
    backtrack_cutoff,
    best_of_n,
    calibrate,
    run_strategy,
    select_top,
    stage_wise_beam,
    swires,
)
from .stages import (
    CANONICAL_ORDER,
    DEFAULT_SCHEMA,
    MissingStageError,
    OutOfOrderError,
    StageBlock,
    StageFormatError,
    StageKind,
    StagedResponse,
    StrayTextError,
    UnbalancedTagError,
    parse_staged,
    render_staged,
    stop_marker,
)

__version__ = "0.1.0"

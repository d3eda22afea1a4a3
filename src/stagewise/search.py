"""Inference-time search over staged responses.

Three strategies share one generation/scoring engine:

* best-of-N: sample N complete responses, score each once, keep the best.
* stage-wise beam search: per stage, generate M candidates across the
  surviving beams, score them, and keep the top N.
* stage-wise retracing search (SWIRES): beam search whose caption/reasoning
  body re-runs when no reasoning clears a calibrated reward cutoff, pooling
  reasoning candidates across passes.

All randomness is routed through per-call seeds derived from
(run seed, question, stage, pass, slot), so runs against the sim backend are
bit-reproducible and the strategies share one RNG stream discipline: a
retracing search that never retraces emits the same trace as a beam search.
"""

from __future__ import annotations

import enum
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from statistics import fmean, stdev
from typing import Callable, Optional, Sequence

from .backends import (
    BackendError,
    Generator,
    GeneratorRequest,
    RewardRequest,
    RewardScorer,
    SamplingParams,
    stable_u64,  # noqa: F401  (perfbench's tracer patches search.stable_u64)
    stable_u64_prefix,
    text_digest,
)
from .jsonl import read_jsonl
from .stages import (
    CANONICAL_ORDER,
    EMPTY_RESPONSE,
    StagedResponse,
    StageFormatError,
    StageKind,
    parse_complete_continuation,
    parse_stage_continuation,
    render_staged,
    stop_marker,
)

NEG_INF = float("-inf")


class SearchError(Exception):
    """Base class for search failures.

    A failure raised while a search runs carries that search's
    ``BudgetLedger`` as ``ledger``: every backend call started before it.
    """

    ledger = None


class ConfigError(SearchError):
    """Invalid search or application configuration."""


class InsufficientCandidatesError(SearchError):
    """Fewer candidates available than the selection requires."""


class SearchExhaustedError(SearchError):
    """Every candidate of a stage failed to parse across all passes."""


class EmptyCorpusError(ConfigError):
    """Calibration requires a non-empty corpus."""


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationStats:
    """Mean and sample standard deviation (n-1 convention) of reward scores."""

    reward_mean: float
    reward_std: float
    sample_count: int = 1

    def __post_init__(self) -> None:
        if self.reward_std < 0:
            raise ValueError("reward_std must be >= 0")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")


# Reference reward statistics and cutoff z-score shipped as defaults; the
# z-score is the 60th-percentile standard-normal quantile.
DEFAULT_STATS = CalibrationStats(reward_mean=-0.77, reward_std=2.08, sample_count=1)
DEFAULT_CUTOFF_ZSCORE = 0.2533


def backtrack_cutoff(stats: CalibrationStats, z: float) -> float:
    """Reward threshold below which a pass's candidates trigger a retrace."""
    return stats.reward_mean + z * stats.reward_std


def calibrate(
    reward: RewardScorer,
    corpus: Sequence[tuple[str, StagedResponse]],
) -> CalibrationStats:
    """Score a corpus of (question, trajectory) pairs and fit reward stats.

    The trajectories are expected to run through the stage whose score
    distribution sets the retrace cutoff (the reasoning stage by default).
    Standard deviation uses the sample (n-1) convention and is 0.0 for a
    single-item corpus.
    """
    if not corpus:
        raise EmptyCorpusError("calibration corpus is empty")
    scores = [
        reward.score(RewardRequest(question=q, trajectory=traj)) for q, traj in corpus
    ]
    std = stdev(scores) if len(scores) > 1 else 0.0
    return CalibrationStats(fmean(scores), std, len(scores))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


class Strategy(enum.Enum):
    BEST_OF_N = "best_of_n"
    STAGE_BEAM = "beam"
    SWIRES = "swires"


class LoopSemantics(enum.Enum):
    """How the retrace bound counts passes.

    ALGORITHM_ONE caps the total number of caption/reasoning passes at C
    (always running at least one); MAIN_TEXT runs an initial pass plus up
    to C retraces (C+1 passes total).
    """

    ALGORITHM_ONE = "algorithm_one"
    MAIN_TEXT = "main_text"


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by the three strategies.

    ``candidates_per_stage`` (M) is how many candidates each searched stage
    generates; ``beam_width`` (N) how many survive selection, and it must
    divide M; ``retrace_limit`` (C) bounds retracing; the retrace cutoff is
    ``stats.reward_mean + cutoff_zscore * stats.reward_std``. Best-of-N uses
    ``beam_width`` as its N. ``pipeline`` may be any canonical-order
    subsequence of the four stages, which keeps degenerate single-stage
    searches expressible for oracle tests.
    """

    candidates_per_stage: int = 4
    beam_width: int = 2
    retrace_limit: int = 3
    cutoff_zscore: float = DEFAULT_CUTOFF_ZSCORE
    stats: CalibrationStats = DEFAULT_STATS
    min_pass_count: int = 1
    retrace_start: StageKind = StageKind.CAPTION
    summary_candidates: int = 1
    strategy: Strategy = Strategy.SWIRES
    loop_semantics: LoopSemantics = LoopSemantics.ALGORITHM_ONE
    pipeline: tuple[StageKind, ...] = CANONICAL_ORDER
    temperature: float = 1.0
    max_new_tokens: int = 1024

    @property
    def cutoff(self) -> float:
        return backtrack_cutoff(self.stats, self.cutoff_zscore)

    @property
    def max_passes(self) -> int:
        if self.loop_semantics is LoopSemantics.ALGORITHM_ONE:
            return max(1, self.retrace_limit)
        return self.retrace_limit + 1

    def validate(self) -> None:
        problems = []
        if self.candidates_per_stage < 1:
            problems.append("candidates_per_stage must be >= 1")
        if self.beam_width < 1:
            problems.append("beam_width must be >= 1")
        elif self.candidates_per_stage % self.beam_width != 0:
            problems.append("beam_width must divide candidates_per_stage")
        if self.retrace_limit < 0:
            problems.append("retrace_limit must be >= 0")
        if not 1 <= self.min_pass_count <= max(1, self.beam_width):
            problems.append("min_pass_count must be in [1, beam_width]")
        if self.summary_candidates < 1:
            problems.append("summary_candidates must be >= 1")
        if self.temperature < 0:
            problems.append("temperature must be >= 0")
        if self.max_new_tokens < 1:
            problems.append("max_new_tokens must be >= 1")
        if not isinstance(self.strategy, Strategy):
            problems.append(f"unknown strategy: {self.strategy!r}")
        if not isinstance(self.loop_semantics, LoopSemantics):
            problems.append(f"unknown loop semantics: {self.loop_semantics!r}")
        if not self.pipeline:
            problems.append("pipeline must not be empty")
        else:
            order = [s for s in CANONICAL_ORDER if s in self.pipeline]
            if len(set(self.pipeline)) != len(self.pipeline) or list(self.pipeline) != order:
                problems.append("pipeline must be a canonical-order subsequence of stages")
        if isinstance(self.strategy, Strategy) and self.strategy is Strategy.SWIRES and self.pipeline:
            if self.retrace_start not in self.pipeline:
                problems.append("retrace_start must be a pipeline stage")
            elif self.pipeline.index(self.retrace_start) >= len(self.pipeline) - 1:
                problems.append("retrace_start must precede the final pipeline stage")
        if problems:
            raise ConfigError("; ".join(problems))


# ---------------------------------------------------------------------------
# Candidates, accounting, traces
# ---------------------------------------------------------------------------


@dataclass
class Candidate:
    """A trajectory prefix plus the reward score of its newest stage.

    ``birth`` is (pass index, per-search generation sequence number); it is
    unique within a search and is the deterministic tie-break everywhere.
    ``score`` is None until the newest stage is scored.
    """

    trajectory: StagedResponse
    birth: tuple[int, int]
    score: Optional[float] = None


_ROOT = Candidate(EMPTY_RESPONSE, (-1, -1))


@dataclass
class BudgetLedger:
    """Exact backend call counts plus wall time, with per-stage breakdowns."""

    generator_calls: int = 0
    reward_calls: int = 0
    wall_time_s: float = 0.0
    generator_by_stage: dict[str, int] = field(default_factory=dict)
    reward_by_stage: dict[str, int] = field(default_factory=dict)

    def tally_generate(self, key: str) -> None:
        self.generator_calls += 1
        self.generator_by_stage[key] = self.generator_by_stage.get(key, 0) + 1

    def tally_score(self, key: str) -> None:
        self.reward_calls += 1
        self.reward_by_stage[key] = self.reward_by_stage.get(key, 0) + 1

    def add(self, other: "BudgetLedger") -> None:
        self.generator_calls += other.generator_calls
        self.reward_calls += other.reward_calls
        self.wall_time_s += other.wall_time_s
        for key, n in other.generator_by_stage.items():
            self.generator_by_stage[key] = self.generator_by_stage.get(key, 0) + n
        for key, n in other.reward_by_stage.items():
            self.reward_by_stage[key] = self.reward_by_stage.get(key, 0) + n

    def counts_dict(self) -> dict:
        """Deterministic view: every call count, no wall-clock time."""
        return {
            "generator_calls": self.generator_calls,
            "reward_calls": self.reward_calls,
            "generator_by_stage": dict(self.generator_by_stage),
            "reward_by_stage": dict(self.reward_by_stage),
        }


# Built once: json.dumps with any keyword argument builds a new encoder per call.
_TRACE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class SearchTrace:
    """Ordered audit log of every generation, score, selection, and retrace.

    Serializes to line-delimited JSON: one header record followed by one
    record per event. Events carry no wall-clock data, so two runs with the
    same seeds produce byte-identical event records.
    """

    def __init__(self, header: Optional[dict] = None):
        self.header: dict = dict(header or {})
        self.events: list[dict] = []

    def log(self, event: str, fields: dict) -> None:
        record = {"seq": len(self.events), "event": event}
        record.update(fields)
        self.events.append(record)

    def events_jsonl(self) -> str:
        return "\n".join(map(_TRACE_ENCODER.encode, self.events))

    def to_jsonl(self) -> str:
        head = _TRACE_ENCODER.encode({"record": "header", **self.header})
        body = self.events_jsonl()
        return head + ("\n" + body if body else "")

    def write(self, path) -> None:
        """Write the trace to ``path``: over any file there, then cut to length.

        A run that rewrites the traces of an earlier run overwrites each file
        in place and keeps its inode; truncating it to zero first made each
        write several times slower on ext4. A new file gets the same mode as
        ``open(path, "w")`` gives. Nothing is fsynced.
        """
        data = (self.to_jsonl() + "\n").encode("utf-8")
        # O_BINARY (Windows only) keeps the C runtime from translating newlines.
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)

    @staticmethod
    def read(path) -> tuple[dict, list[dict]]:
        """The header and events of a trace; a bad line raises ValueError naming FILE:LINE."""
        records = read_jsonl(path, "trace record", dict)
        header = next((r for r in reversed(records) if r.get("record") == "header"), {})
        return header, [r for r in records if r.get("record") != "header"]


@dataclass
class SearchResult:
    answer: StagedResponse
    ledger: BudgetLedger
    trace: Optional[SearchTrace] = None

    @property
    def final_text(self) -> str:
        return self.answer.final_text


def select_top(cands: Sequence[Candidate], n: int, stage: StageKind) -> list[Candidate]:
    """Top-n candidates by score; ties go to the earlier birth.

    ``stage`` is the stage just scored, the newest of every candidate.
    """
    if n > len(cands):
        raise InsufficientCandidatesError(
            f"need {n} candidates at {stage.name}, have {len(cands)}"
        )
    if any(c.score is None for c in cands):
        raise SearchError(f"candidate not scored at stage {stage.name}")
    return sorted(cands, key=lambda c: (-c.score, c.birth))[:n]


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class _Engine:
    """Shared per-search state: seeds, births, ledger, trace, concurrency.

    The three strategies are arrangements of the same steps: generate a batch
    for a target (``expand_and_score``), keep the best (``select``), walk
    stages once (``stage_steps``) and finish on the final batch
    (``conclude``). A best-of-N engine targets the whole response in one
    call; the stage searches target one stage per call.
    """

    def __init__(
        self,
        question: str,
        cfg: SearchConfig,
        generator: Generator,
        reward: RewardScorer,
        image_ref: Optional[str],
        run_seed: int,
        collect_trace: bool,
        parallelism: int,
    ):
        cfg.validate()
        self.started = time.perf_counter()
        self.question = question
        self.cfg = cfg
        self.generator = generator
        self.reward = reward
        self.image_ref = image_ref
        self.parallelism = max(1, parallelism)
        self.whole_response = cfg.strategy is Strategy.BEST_OF_N
        self.qdigest = text_digest(question)
        self.trace = _make_trace(cfg, self.qdigest, run_seed) if collect_trace else None
        self.ledger = BudgetLedger()
        self._tally_lock = threading.Lock()
        self._seq = 0
        self._seed = stable_u64_prefix(str(run_seed), self.qdigest)

    def __enter__(self) -> "_Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Attach the ledger so far to a failure, so its caller can record it."""
        if isinstance(exc, (BackendError, SearchError)):
            self.ledger.wall_time_s = time.perf_counter() - self.started
            exc.ledger = self.ledger

    def call_seed(self, stage: StageKind, pass_index: int, slot: int) -> int:
        """stable_u64(run seed, question digest, stage, pass, slot)."""
        return self._seed(stage.value, str(pass_index), str(slot))

    def run_calls(self, fn: Callable, items: list) -> list:
        """``fn`` of each item, in item order; concurrently up to ``parallelism``."""
        if self.parallelism > 1 and len(items) > 1:
            with ThreadPoolExecutor(max_workers=min(self.parallelism, len(items))) as pool:
                return list(pool.map(fn, items))
        return [fn(item) for item in items]

    def batch_plan(self, stage: StageKind, total: int) -> tuple[int, bool]:
        """Batch size and whether to score it for a pass-0 pipeline stage.

        The summary stage generates ``summary_candidates`` and is scored only
        when there are several; any other stage generates ``total``.
        """
        if stage is StageKind.SUMMARY:
            total = self.cfg.summary_candidates
            return total, total > 1
        return total, True

    # Each backend call is tallied as it starts, so the ledger of a search
    # that fails partway still counts every call made, the failing one too.

    def _generate(self, label: str, request: GeneratorRequest) -> str:
        with self._tally_lock:
            self.ledger.tally_generate(label)
        return self.generator.generate(request)

    def _score(self, label: str, candidate: Candidate) -> float:
        with self._tally_lock:
            self.ledger.tally_score(label)
        return self.reward.score(
            RewardRequest(self.question, candidate.trajectory, self.image_ref)
        )

    # -- the one generate/parse/score step ---------------------------------

    def _child(self, parent: Candidate, stages, raw: str, birth) -> Candidate:
        """Parse one reply into a child of ``parent``; raises StageFormatError."""
        if self.whole_response:
            return Candidate(parse_complete_continuation(raw, stages), birth)
        block = parse_stage_continuation(raw, stages[0])
        return Candidate(parent.trajectory.append(block), birth)

    def expand_and_score(
        self,
        stages: tuple[StageKind, ...],
        pass_index: int,
        parents: Sequence[Candidate],
        total: int,
        do_score: bool,
    ) -> list[Candidate]:
        """Generate ``total`` children of ``parents`` for ``stages``, then score.

        A best-of-N engine parses each reply as a complete response over
        ``stages`` and logs and tallies it under ``"response"``; otherwise
        ``stages`` is one stage and each reply is that stage's continuation.
        Each child's score is the score of its newest stage. Children are
        assigned to parents evenly (earlier parents absorb any remainder).
        Results are processed in slot order regardless of the backend's
        concurrency, so traces and ledgers do not depend on thread
        scheduling. Candidates whose continuation fails to parse are logged
        with score -inf and dropped; they never reach the reward backend.
        """
        assignments: list[Candidate] = []
        per_parent, remainder = divmod(total, len(parents))
        for rank, parent in enumerate(parents):
            assignments.extend([parent] * (per_parent + (1 if rank < remainder else 0)))

        label = "response" if self.whole_response else stages[0].value
        stop = stop_marker(stages[-1])
        sampling = SamplingParams(self.cfg.temperature, self.cfg.max_new_tokens, stop)
        requests = [
            GeneratorRequest(
                question=self.question,
                target_stages=stages,
                prior_stages=parent.trajectory,
                image_ref=self.image_ref,
                sampling=sampling,
                seed=self.call_seed(stages[0], pass_index, slot),
            )
            for slot, parent in enumerate(assignments)
        ]
        raws = self.run_calls(partial(self._generate, label), requests)

        if self.trace is not None:
            input_digests = {
                id(p): text_digest(self.question + "\n" + render_staged(p.trajectory))
                for p in parents
            }
        # Per slot: the parsed child, or the text of its parse error.
        outcomes: list[Candidate | str] = []
        for slot, (parent, raw) in enumerate(zip(assignments, raws)):
            birth = (pass_index, self._seq)
            self._seq += 1
            try:
                outcome = self._child(parent, stages, raw, birth)
            except StageFormatError as exc:
                outcome = f"{type(exc).__name__}: {exc}"
            outcomes.append(outcome)
            if self.trace is not None:
                event = {
                    "stage": label,
                    "pass": pass_index,
                    "slot": slot,
                    "birth": list(birth),
                    "parent": None if parent is _ROOT else list(parent.birth),
                    "input_digest": input_digests[id(parent)],
                    "output_digest": text_digest(raw),
                }
                if isinstance(outcome, str):
                    event["parse_error"] = outcome
                self.trace.log("generate", event)

        scorable = [c for c in outcomes if not isinstance(c, str)]
        if not do_score:
            return scorable
        values = self.run_calls(partial(self._score, label), scorable)
        for candidate, value in zip(scorable, values):
            candidate.score = value
        if self.trace is not None:
            for slot, outcome in enumerate(outcomes):
                event = {"stage": label, "pass": pass_index, "slot": slot}
                if isinstance(outcome, str):
                    event.update(score=NEG_INF, parse_error=outcome)
                else:
                    event.update(birth=list(outcome.birth), score=outcome.score)
                self.trace.log("score", event)
        return scorable

    # -- steps the strategies are built from -------------------------------

    def select(
        self, stage: StageKind, pass_index: int, cands: Sequence[Candidate]
    ) -> list[Candidate]:
        """Keep the top ``beam_width`` (or all, if fewer) and log the choice."""
        kept = select_top(cands, min(self.cfg.beam_width, len(cands)), stage)
        if self.trace is not None:
            self.trace.log(
                "select",
                {
                    "stage": stage.value,
                    "pass": pass_index,
                    "kept": [list(c.birth) for c in kept],
                },
            )
        return kept

    def stage_steps(
        self, stages: Sequence[StageKind], survivors: list[Candidate]
    ) -> list[Candidate]:
        """Pass-0 beam steps over ``stages``: generate, score, keep the top N."""
        for stage in stages:
            total, do_score = self.batch_plan(stage, self.cfg.candidates_per_stage)
            batch = self.expand_and_score((stage,), 0, survivors, total, do_score)
            if not batch:
                raise SearchExhaustedError(f"all candidates failed to parse at {stage.name}")
            survivors = self.select(stage, 0, batch) if do_score else batch
        return survivors

    def conclude(
        self,
        stages: tuple[StageKind, ...],
        parents: Sequence[Candidate],
        total: int,
        do_score: bool = True,
    ) -> SearchResult:
        """Generate the final batch and return its best candidate as the answer."""
        final = stages[-1]
        batch = self.expand_and_score(stages, 0, parents, total, do_score)
        if not batch:
            if self.whole_response:
                raise SearchExhaustedError("no complete response parsed")
            raise SearchExhaustedError(f"all candidates failed to parse at {final.name}")
        winner = select_top(batch, 1, final)[0] if do_score else batch[0]
        self.ledger.wall_time_s = time.perf_counter() - self.started
        if self.trace is not None:
            self.trace.log(
                "answer",
                {
                    "stage": final.value,
                    "birth": list(winner.birth),
                    "score": winner.score,
                },
            )
        return SearchResult(winner.trajectory, self.ledger, self.trace)


def _make_trace(cfg: SearchConfig, question_digest: str, run_seed: int) -> SearchTrace:
    return SearchTrace(
        {
            "strategy": cfg.strategy.value,
            "question_digest": question_digest,
            "run_seed": run_seed,
            "config": {
                "candidates_per_stage": cfg.candidates_per_stage,
                "beam_width": cfg.beam_width,
                "retrace_limit": cfg.retrace_limit,
                "cutoff_zscore": cfg.cutoff_zscore,
                "reward_mean": cfg.stats.reward_mean,
                "reward_std": cfg.stats.reward_std,
                "min_pass_count": cfg.min_pass_count,
                "summary_candidates": cfg.summary_candidates,
                "loop_semantics": cfg.loop_semantics.value,
                "pipeline": [s.value for s in cfg.pipeline],
            },
        }
    )


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def _with_strategy(cfg: SearchConfig, strategy: Strategy) -> SearchConfig:
    """``cfg`` set to ``strategy``: the same object when it already is."""
    return cfg if cfg.strategy is strategy else replace(cfg, strategy=strategy)


def best_of_n(
    question: str,
    n: int,
    generator: Generator,
    reward: RewardScorer,
    *,
    cfg: Optional[SearchConfig] = None,
    image_ref: Optional[str] = None,
    run_seed: int = 0,
    collect_trace: bool = True,
    parallelism: int = 1,
) -> SearchResult:
    """Generate n complete responses in one call each and keep the best.

    Each response is parsed as a full pipeline; responses that fail to parse
    are recorded with score -inf and never scored by the reward backend.
    """
    cfg = _with_strategy(cfg or SearchConfig(), Strategy.BEST_OF_N)
    engine = _Engine(question, cfg, generator, reward, image_ref, run_seed, collect_trace, parallelism)
    if n < 1:
        raise ConfigError("best_of_n requires n >= 1")
    with engine:
        return engine.conclude(cfg.pipeline, [_ROOT], n)


def stage_wise_beam(
    question: str,
    cfg: SearchConfig,
    generator: Generator,
    reward: RewardScorer,
    *,
    image_ref: Optional[str] = None,
    run_seed: int = 0,
    collect_trace: bool = True,
    parallelism: int = 1,
) -> SearchResult:
    """Per-stage generate-M / keep-top-N search over the pipeline.

    The summary stage generates ``summary_candidates`` (one by default,
    unscored when single); every other searched stage generates M candidates
    distributed over the current survivors; the final stage extends each
    survivor once and the highest-scoring conclusion wins.
    """
    cfg = _with_strategy(cfg, Strategy.STAGE_BEAM)
    pipeline = cfg.pipeline
    with _Engine(question, cfg, generator, reward, image_ref, run_seed, collect_trace, parallelism) as engine:
        survivors = engine.stage_steps(pipeline[:-1], [_ROOT])
        # After earlier stages the final one extends each survivor once; as
        # the only stage it draws M candidates, which makes it best-of-M.
        per_stage = len(survivors) if len(pipeline) > 1 else cfg.candidates_per_stage
        total, do_score = engine.batch_plan(pipeline[-1], per_stage)
        return engine.conclude(pipeline[-1:], survivors, total, do_score)


def swires(
    question: str,
    cfg: SearchConfig,
    generator: Generator,
    reward: RewardScorer,
    *,
    image_ref: Optional[str] = None,
    run_seed: int = 0,
    collect_trace: bool = True,
    parallelism: int = 1,
) -> SearchResult:
    """Stage-wise retracing search.

    One summary is generated up front. Each pass regenerates the body stages
    (caption through reasoning by default): M captions scored and pruned to
    the top N, then M reasonings (M/N per kept caption) scored and appended
    to a persistent pool. A pass is accepted when at least ``min_pass_count``
    of its reasonings score strictly above the calibrated cutoff; otherwise
    the search retraces, up to the pass bound set by ``loop_semantics`` and
    ``retrace_limit``. The top N pooled reasonings each generate one
    conclusion and the best-scoring conclusion is the answer.
    """
    cfg = _with_strategy(cfg, Strategy.SWIRES)
    with _Engine(question, cfg, generator, reward, image_ref, run_seed, collect_trace, parallelism) as engine:
        pipeline = cfg.pipeline
        start_index = pipeline.index(cfg.retrace_start)
        body = pipeline[start_index:-1]
        pool_stage = body[-1]

        # Fixed prefix: generated once, outside the retrace loop.
        prefix_survivors = engine.stage_steps(pipeline[:start_index], [_ROOT])

        cutoff = cfg.cutoff
        pool: list[Candidate] = []
        last_pass = 0
        for pass_index in range(cfg.max_passes):
            last_pass = pass_index
            parents = prefix_survivors
            cleared = 0
            for stage in body[:-1]:
                batch = engine.expand_and_score(
                    (stage,), pass_index, parents, cfg.candidates_per_stage, True
                )
                if not batch:
                    parents = []
                    break
                parents = engine.select(stage, pass_index, batch)
            if parents:
                additions = engine.expand_and_score(
                    (pool_stage,), pass_index, parents, cfg.candidates_per_stage, True
                )
                pool.extend(additions)
                cleared = sum(1 for c in additions if c.score > cutoff)
            if cleared >= cfg.min_pass_count:
                break
            if pass_index + 1 < cfg.max_passes and engine.trace is not None:
                engine.trace.log(
                    "retrace",
                    {
                        "stage": pool_stage.value,
                        "pass": pass_index,
                        "threshold": cutoff,
                        "cleared": cleared,
                        "required": cfg.min_pass_count,
                    },
                )

        if not pool:
            raise SearchExhaustedError(
                f"all candidates failed to parse at {pool_stage.name} across all passes"
            )
        kept = engine.select(pool_stage, last_pass, pool)
        return engine.conclude(pipeline[-1:], kept, len(kept))


def run_strategy(
    question: str,
    cfg: SearchConfig,
    generator: Generator,
    reward: RewardScorer,
    *,
    image_ref: Optional[str] = None,
    run_seed: int = 0,
    collect_trace: bool = True,
    parallelism: int = 1,
) -> SearchResult:
    """Dispatch to the configured strategy under one seeding discipline."""
    kwargs = dict(
        image_ref=image_ref,
        run_seed=run_seed,
        collect_trace=collect_trace,
        parallelism=parallelism,
    )
    if cfg.strategy is Strategy.BEST_OF_N:
        return best_of_n(question, cfg.beam_width, generator, reward, cfg=cfg, **kwargs)
    if cfg.strategy is Strategy.STAGE_BEAM:
        return stage_wise_beam(question, cfg, generator, reward, **kwargs)
    if cfg.strategy is Strategy.SWIRES:
        return swires(question, cfg, generator, reward, **kwargs)
    raise ConfigError(f"unknown strategy: {cfg.strategy!r}")

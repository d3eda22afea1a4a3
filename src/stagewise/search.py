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
from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from .backends import (
    BackendError,
    Generator,
    GeneratorRequest,
    MalformedReplyError,
    RewardRequest,
    RewardScorer,
    SamplingParams,
    SeedPrefix,
    stable_u64,  # noqa: F401  (perfbench's tracer patches search.stable_u64)
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

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

NEG_INF = float("-inf")

# Stage -> its label in seeds, ledgers and traces, read from a dict on the hot
# path: ``StageKind.value`` is a Python-level property call.
_LABEL = {kind: kind.value for kind in CANONICAL_ORDER}


class SearchError(Exception):
    """Base class for search failures.

    A failure raised while a search runs carries that search's
    ``BudgetLedger`` as ``ledger``: every backend call started before it.
    """

    ledger = None


class ConfigError(SearchError):
    """Invalid search or application configuration, or a file that cannot be read or written."""


@contextmanager
def reading(path):
    """Turn an OSError in the block into ConfigError("cannot read PATH: ..."),
    and a ValueError, a loader's "FILE:LINE: bad ...", into one of its message."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# A class: run_benchmark enters one twice per item, where a @contextmanager cost 2% of sim-bench-traced's searches/s.
class writing(AbstractContextManager):
    """Turn an OSError in the block into ConfigError("cannot write PATH: ...")."""

    def __init__(self, path):
        self.path = path

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {self.path}: {exc}") from exc


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
    single-item corpus. Scores too large to fit their mean or std in a float
    raise MalformedReplyError.
    """
    if not corpus:
        raise EmptyCorpusError("calibration corpus is empty")
    from statistics import fmean, stdev  # imported here: a search never needs it

    scores = [
        reward.score(RewardRequest(question=q, trajectory=traj)) for q, traj in corpus
    ]
    try:
        return CalibrationStats(fmean(scores), stdev(scores) if len(scores) > 1 else 0.0, len(scores))
    except OverflowError as exc:
        raise MalformedReplyError(f"reward scores overflow a float in their mean or std: {exc}") from None


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
    ``stats.reward_mean + cutoff_zscore * stats.reward_std``. Best-of-N
    samples ``beam_width`` responses and ignores ``candidates_per_stage``,
    so there N need not divide M. ``pipeline`` may be any canonical-order
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

    @cached_property
    def _trace_config(self) -> str:
        """A trace header's ``config`` as JSON, encoded once per instance.

        Kept on the instance, not looked up by an equal config: configs that
        compare equal can still encode differently (``1`` and ``1.0``, ``0.0``
        and ``-0.0``). It is no field, so ``==``, ``hash`` and ``repr`` skip it.
        """
        return _TRACE_ENCODER.encode({
            "candidates_per_stage": self.candidates_per_stage,
            "beam_width": self.beam_width,
            "retrace_limit": self.retrace_limit,
            "cutoff_zscore": self.cutoff_zscore,
            "reward_mean": self.stats.reward_mean,
            "reward_std": self.stats.reward_std,
            "min_pass_count": self.min_pass_count,
            "summary_candidates": self.summary_candidates,
            "loop_semantics": self.loop_semantics.value,
            "pipeline": [_LABEL[s] for s in self.pipeline],
        })

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
        elif self.strategy is not Strategy.BEST_OF_N and self.candidates_per_stage % self.beam_width:
            problems.append("beam_width must divide candidates_per_stage")
        if self.retrace_limit < 0:
            problems.append("retrace_limit must be >= 0")
        if self.strategy is Strategy.SWIRES and not 1 <= self.min_pass_count <= max(1, self.beam_width):
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
        if self.strategy is Strategy.SWIRES and self.pipeline:
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


def _number(value) -> str:
    """``value`` as ``_TRACE_ENCODER`` writes it; finite floats and ints without the encoder."""
    if type(value) is float and isfinite(value):
        return float.__repr__(value)
    if type(value) is int:
        return int.__repr__(value)
    return _TRACE_ENCODER.encode(value)


# Each event line is written exactly as ``_TRACE_ENCODER`` would write the
# event's dict, keys in sorted order, with ``seq`` the line's index among the
# events.

_NEG_INF_JSON = _number(NEG_INF)


def _batch_lines(lines: list[str], batch: tuple, inputs: dict) -> None:
    """A batch's ``generate`` lines in slot order, then its ``score`` lines if it was scored.

    ``inputs`` caches, by ``id`` of the parent, the JSON of each parent's
    input digest and birth, taken once per serialisation.
    """
    label, pass_index, first_seq, question, parents, raws, outcomes, scored = batch
    tail = f',"stage":{_quote(label)}}}'
    seq = len(lines)
    for slot, (parent, raw, outcome) in enumerate(zip(parents, raws, outcomes)):
        cached = inputs.get(id(parent))
        if cached is None:
            digest = _quote(text_digest(question + "\n" + render_staged(parent.trajectory)))
            birth = parent.birth
            cached = inputs[id(parent)] = (digest, "null" if parent is _ROOT else f"[{birth[0]},{birth[1]}]")
        error_json = f'"parse_error":{_quote(outcome)},' if type(outcome) is str else ""
        lines.append(
            f'{{"birth":[{pass_index},{first_seq + slot}],"event":"generate",'
            f'"input_digest":{cached[0]},"output_digest":{_quote(text_digest(raw))},'
            f'"parent":{cached[1]},{error_json}"pass":{pass_index},"seq":{seq},"slot":{slot}{tail}'
        )
        seq += 1
    if not scored:
        return
    for slot, outcome in enumerate(outcomes):
        if type(outcome) is str:
            lines.append(
                f'{{"event":"score","parse_error":{_quote(outcome)},"pass":{pass_index},'
                f'"score":{_NEG_INF_JSON},"seq":{seq},"slot":{slot}{tail}'
            )
        else:
            birth, score = outcome.birth, outcome.score
            # A finite float is written as its repr, as _number would write it.
            score_json = repr(score) if type(score) is float and isfinite(score) else _number(score)
            lines.append(
                f'{{"birth":[{birth[0]},{birth[1]}],"event":"score","pass":{pass_index},'
                f'"score":{score_json},"seq":{seq},"slot":{slot}{tail}'
            )
        seq += 1


class SearchTrace:
    """Ordered audit log of every generation, score, selection, and retrace.

    Serializes to line-delimited JSON: one header record followed by one
    record per event, whose ``seq`` is its line's index among the events.
    Events carry no wall-clock data, so two runs with the same seeds produce
    byte-identical event records. Each ``select``, ``retrace``, ``answer``
    and ``log`` event is formatted when it is logged. A generate/score batch
    is kept as one compact entry and formatted only when the trace is
    serialized, after the search has stopped its clock: the digests of each
    reply and of each parent's input are taken then too. The header line is
    fixed when the trace is made.
    """

    def __init__(self, header: str):
        if not isinstance(header, str):
            raise TypeError(f"a trace takes its header line as a str, got {type(header).__name__}")
        self._header = header
        # Finished event lines, and one tuple per batch for ``_batch_lines``.
        self._entries: list = []
        # The event lines logged so far, a batch's included: the next line's seq.
        self._count = 0

    @property
    def header(self) -> dict:
        """The header record, decoded from its line: a fresh copy each time."""
        return json.loads(self._header)

    @property
    def events(self) -> list[dict]:
        """The event records, decoded from their serialized lines."""
        body = self.events_jsonl()
        return [json.loads(line) for line in body.split("\n")] if body else []

    def _finish(self, line: str) -> None:
        self._entries.append(line)
        self._count += 1

    def log(self, event: str, fields: dict) -> None:
        """An event of any kind from its fields, as ``_TRACE_ENCODER`` writes it."""
        self._finish(_TRACE_ENCODER.encode({"seq": self._count, "event": event, **fields}))

    def log_batch(self, label: str, pass_index: int, first_seq: int, question: str,
                  parents: Sequence[Candidate], raws: Sequence[str],
                  outcomes: Sequence[Union[Candidate, str]], scored: bool) -> None:
        """A batch: a ``generate`` event per slot, then a ``score`` event per slot if ``scored``.

        Slot ``i`` was generated from ``parents[i]``, got reply ``raws[i]`` and
        birth ``(pass_index, first_seq + i)``. ``outcomes[i]`` is the slot's
        candidate, whose score is read when written, or the text of its
        reply's parse error. A failed slot's ``score`` event has score -inf
        and no birth. A ``generate`` event's ``input_digest`` is
        ``text_digest`` of the question, a newline and the parent's rendered
        trajectory, and its ``output_digest`` is ``text_digest(raw)``.
        """
        self._entries.append((label, pass_index, first_seq, question, parents, raws, outcomes, scored))
        self._count += 2 * len(raws) if scored else len(raws)

    def log_select(self, label: str, pass_index: int, kept: list[tuple[int, int]]) -> None:
        """A ``select`` event: the births of the candidates kept, best first."""
        kept_json = ",".join([f"[{birth[0]},{birth[1]}]" for birth in kept])
        self._finish(
            f'{{"event":"select","kept":[{kept_json}],"pass":{pass_index},"seq":{self._count},'
            f'"stage":{_quote(label)}}}'
        )

    def log_retrace(self, label: str, pass_index: int, threshold, cleared: int, required) -> None:
        """A ``retrace`` event: ``cleared`` candidates beat ``threshold``, fewer than ``required``."""
        self._finish(
            f'{{"cleared":{cleared},"event":"retrace","pass":{pass_index},'
            f'"required":{_number(required)},"seq":{self._count},"stage":{_quote(label)},'
            f'"threshold":{_number(threshold)}}}'
        )

    def log_answer(self, label: str, birth: tuple[int, int], score) -> None:
        """The ``answer`` event: the winner's birth and score (None if unscored)."""
        self._finish(
            f'{{"birth":[{birth[0]},{birth[1]}],"event":"answer","score":{_number(score)},'
            f'"seq":{self._count},"stage":{_quote(label)}}}'
        )

    def events_jsonl(self) -> str:
        lines: list[str] = []
        inputs: dict = {}
        for entry in self._entries:
            if type(entry) is str:
                lines.append(entry)
            else:
                _batch_lines(lines, entry, inputs)
        return "\n".join(lines)

    def to_jsonl(self) -> str:
        body = self.events_jsonl()
        return self._header + ("\n" + body if body else "")

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
    for c in cands:
        if c.score is None:
            raise SearchError(f"candidate not scored at stage {stage.name}")
    return sorted(cands, key=_rank)[:n]


def _rank(c: Candidate) -> tuple:
    return -c.score, c.birth


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


def check_parallelism(parallelism: int) -> None:
    """Raise ConfigError for a cap on backend calls in flight below 1."""
    if parallelism < 1:
        raise ConfigError("parallelism must be >= 1")


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
        check_parallelism(parallelism)
        self.started = time.perf_counter()
        self.question = question
        self.cfg = cfg
        self.generator = generator
        self.reward = reward
        self.image_ref = image_ref
        self.parallelism = parallelism
        self.whole_response = cfg.strategy is Strategy.BEST_OF_N
        self.qdigest = text_digest(question)
        self.trace = _make_trace(cfg, self.qdigest, run_seed) if collect_trace else None
        self.ledger = BudgetLedger()
        # The helper threads of run_calls, made by the first concurrent batch.
        self._pool: Optional[ThreadPoolExecutor] = None
        self._seq = 0
        self._seed = SeedPrefix(str(run_seed), self.qdigest)

    def __enter__(self) -> "_Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Stop the helper pool; attach the ledger so far to a failure, for its caller to record."""
        if self._pool is not None:
            self._pool.shutdown()
        if isinstance(exc, (BackendError, SearchError)):
            self.ledger.wall_time_s = time.perf_counter() - self.started
            exc.ledger = self.ledger

    def run_calls(self, fn: Callable, items: list, tally: Callable[[str], None], key: str) -> list:
        """``fn`` of each item, in item order; at most ``parallelism`` calls in flight.

        Each call is tallied, ``tally(key)``, when a runner takes its item,
        so the ledger counts every call started, a failing one too, and no
        call that never started. At parallelism 1, or for one item, the
        calls run inline in order. Otherwise the calling thread and
        ``min(parallelism, len(items)) - 1`` threads of the search's helper
        pool each take the next item not yet taken until none is left. Once
        a call has raised, no runner takes another item of the batch: the
        calls already running finish, then the exception of the earliest
        failed item is raised.
        """
        if self.parallelism == 1 or len(items) < 2:
            results = []
            for item in items:
                tally(key)
                results.append(fn(item))
            return results
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor  # imported here: most searches run inline

            self._pool = ThreadPoolExecutor(max_workers=self.parallelism - 1)
        results = [None] * len(items)
        errors: dict[int, BaseException] = {}
        untaken = iter(range(len(items)))
        lock = threading.Lock()

        def runner() -> None:
            while True:
                with lock:
                    index = None if errors else next(untaken, None)
                    if index is None:
                        return
                    tally(key)
                try:
                    results[index] = fn(items[index])
                except BaseException as exc:
                    with lock:
                        errors[index] = exc

        helpers = [self._pool.submit(runner) for _ in range(min(self.parallelism, len(items)) - 1)]
        runner()
        for helper in helpers:
            helper.result()
        if errors:
            raise errors[min(errors)]
        return results

    def batch_plan(self, stage: StageKind, total: int) -> tuple[int, bool]:
        """Batch size and whether to score it for a pass-0 pipeline stage.

        The summary stage generates ``summary_candidates`` and is scored only
        when there are several; any other stage generates ``total``.
        """
        if stage is StageKind.SUMMARY:
            total = self.cfg.summary_candidates
            return total, total > 1
        return total, True

    # -- the one generate/parse/score step ---------------------------------

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
        scheduling. Candidates whose continuation fails to parse are dropped;
        they never reach the reward backend. A traced search logs the batch
        as one entry once it is scored (``SearchTrace.log_batch``), and the
        trace formats its events and takes their digests when written.
        """
        assignments: list[Candidate] = []
        per_parent, remainder = divmod(total, len(parents))
        for rank, parent in enumerate(parents):
            assignments.extend([parent] * (per_parent + (1 if rank < remainder else 0)))

        whole_response = self.whole_response
        first = stages[0]
        label = "response" if whole_response else _LABEL[first]
        question, image_ref = self.question, self.image_ref
        sampling = SamplingParams(self.cfg.temperature, self.cfg.max_new_tokens, stop_marker(stages[-1]))
        # Slot seeds: stable_u64(run seed, question digest, stage, pass, slot).
        seed = self._seed.extend(_LABEL[first], str(pass_index)).derive
        requests = [
            GeneratorRequest(question, stages, parent.trajectory, image_ref, None, sampling, seed(str(slot)))
            for slot, parent in enumerate(assignments)
        ]
        raws = self.run_calls(self.generator.generate, requests, self.ledger.tally_generate, label)

        scorable: list[Candidate] = []
        # Per slot: its candidate, or the text of its reply's parse error.
        outcomes: list[Union[Candidate, str]] = []
        first_seq = self._seq
        self._seq = first_seq + len(raws)
        for slot, (parent, raw) in enumerate(zip(assignments, raws)):
            birth = (pass_index, first_seq + slot)
            try:
                if whole_response:
                    child = Candidate(parse_complete_continuation(raw, stages), birth)
                else:
                    block = parse_stage_continuation(raw, first)
                    child = Candidate(parent.trajectory.append(block), birth)
            except StageFormatError as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
            else:
                scorable.append(child)
                outcomes.append(child)

        if do_score:
            values = self.run_calls(
                self.reward.score,
                [RewardRequest(question, c.trajectory, image_ref) for c in scorable],
                self.ledger.tally_score,
                label,
            )
            for candidate, value in zip(scorable, values):
                candidate.score = value
        if self.trace is not None:
            self.trace.log_batch(label, pass_index, first_seq, question, assignments, raws, outcomes, do_score)
        return scorable

    # -- steps the strategies are built from -------------------------------

    def select(
        self, stage: StageKind, pass_index: int, cands: Sequence[Candidate]
    ) -> list[Candidate]:
        """Keep the top ``beam_width`` (or all, if fewer) and log the choice."""
        kept = select_top(cands, min(self.cfg.beam_width, len(cands)), stage)
        if self.trace is not None:
            self.trace.log_select(_LABEL[stage], pass_index, [c.birth for c in kept])
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
            self.trace.log_answer(_LABEL[final], winner.birth, winner.score)
        return SearchResult(winner.trajectory, self.ledger, self.trace)


def _make_trace(cfg: SearchConfig, question_digest: str, run_seed: int) -> SearchTrace:
    """A search's trace, its header line formatted around the config's JSON, encoded once."""
    return SearchTrace(
        f'{{"config":{cfg._trace_config},"question_digest":{_quote(question_digest)},"record":"header",'
        f'"run_seed":{_number(run_seed)},"strategy":{_quote(cfg.strategy.value)}}}'
    )


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def _with_strategy(cfg: SearchConfig, strategy: Strategy) -> SearchConfig:
    """``cfg`` set to ``strategy``: the same object when it already is."""
    return cfg if cfg.strategy is strategy else replace(cfg, strategy=strategy)


def best_of_n(
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
    """Generate N (``beam_width``) complete responses, one call each; keep the best.

    Each response is parsed as a full pipeline; responses that fail to parse
    are recorded with score -inf and never scored by the reward backend.
    """
    cfg = _with_strategy(cfg, Strategy.BEST_OF_N)
    with _Engine(question, cfg, generator, reward, image_ref, run_seed, collect_trace, parallelism) as engine:
        return engine.conclude(cfg.pipeline, [_ROOT], cfg.beam_width)


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
        for pass_index in range(cfg.max_passes):
            parents = prefix_survivors
            for stage in body[:-1]:
                batch = engine.expand_and_score(
                    (stage,), pass_index, parents, cfg.candidates_per_stage, True
                )
                if not batch:
                    # Every reply failed to parse: the pass ends before its pool stage.
                    cleared = 0
                    break
                parents = engine.select(stage, pass_index, batch)
            else:
                additions = engine.expand_and_score(
                    (pool_stage,), pass_index, parents, cfg.candidates_per_stage, True
                )
                pool.extend(additions)
                cleared = sum(1 for c in additions if c.score > cutoff)
            if cleared >= cfg.min_pass_count:
                break
            if pass_index + 1 < cfg.max_passes and engine.trace is not None:
                engine.trace.log_retrace(
                    _LABEL[pool_stage], pass_index, cutoff, cleared, cfg.min_pass_count
                )

        if not pool:
            raise SearchExhaustedError(
                f"all candidates failed to parse at {pool_stage.name} across all passes"
            )
        kept = engine.select(pool_stage, pass_index, pool)
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
    # Looked up at call time: perfbench's tracer patches these module names.
    search = {
        Strategy.BEST_OF_N: best_of_n,
        Strategy.STAGE_BEAM: stage_wise_beam,
        Strategy.SWIRES: swires,
    }.get(cfg.strategy)
    if search is None:
        raise ConfigError(f"unknown strategy: {cfg.strategy!r}")
    return search(question, cfg, generator, reward, image_ref=image_ref, run_seed=run_seed,
                  collect_trace=collect_trace, parallelism=parallelism)

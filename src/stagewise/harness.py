"""Benchmark runner, scaling-curve driver, and sim-world verification oracles.

Questions load from line-delimited JSON, run under any strategy with exact
call accounting, and grade locally (option-letter extraction for multiple
choice, normalized exact match for free-form). Against the simulated world
the oracle grader reads the hidden correctness mark instead, and closed-form
enumeration of small worlds provides exact accuracies that Monte Carlo runs
of the real engine must reproduce.
"""

from __future__ import annotations

import json
import math
import os
import re
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .backends import (
    BackendError,
    Generator,
    RewardScorer,
    SimWorld,
    SimWorldConfig,
    oracle_correct,
    stable_u64,
    text_digest,
)
from .jsonl import id_field, read_jsonl, string_field, trim_partial_last_line
from .search import (
    BudgetLedger,
    CalibrationStats,
    ConfigError,
    LoopSemantics,
    SearchConfig,
    SearchError,
    Strategy,
    run_strategy,
    stage_wise_beam,
)
from .stages import CANONICAL_ORDER, StagedResponse, StageKind

MULTIPLE_CHOICE = "multiple_choice"
FREE_FORM = "free_form"

class EmptyBenchmarkError(ConfigError):
    """No items left to run (empty input or over-restrictive filter)."""


class UngradableError(Exception):
    """No option letter could be extracted from a multiple-choice conclusion."""


@dataclass(frozen=True)
class BenchmarkItem:
    id: str
    question: str
    kind: str = FREE_FORM
    options: dict[str, str] = field(default_factory=dict)
    gold: str = ""
    image_ref: Optional[str] = None
    category: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in (MULTIPLE_CHOICE, FREE_FORM):
            raise ValueError(f"unknown item kind: {self.kind!r}")
        if self.kind == MULTIPLE_CHOICE and self.gold.upper() not in {
            k.upper() for k in self.options
        }:
            raise ValueError(f"gold {self.gold!r} is not an option letter")


def _item(data: dict) -> BenchmarkItem:
    return BenchmarkItem(
        id=id_field(data),
        question=string_field(data, "question"),
        kind=data.get("kind", FREE_FORM),
        options=dict(data.get("options", {})),
        gold=string_field(data, "gold") if "gold" in data else "",
        image_ref=string_field(data, "image_ref", optional=True),
        category=string_field(data, "category", optional=True),
    )


def load_items(path) -> list[BenchmarkItem]:
    """The items of ``path``; two items whose ids read the same (``5`` and ``"5"``) are an error."""
    seen: set[str] = set()

    def build(data: dict) -> BenchmarkItem:
        item = _item(data)
        if item.id in seen:
            raise ValueError(f"id {item.id!r} repeats an earlier item's id")
        seen.add(item.id)
        return item

    return read_jsonl(path, "benchmark item", build)


# Percent-encodes what an item id cannot carry into a file name, "%" too, so ids stay distinct.
_FILE_NAME_ESCAPES = str.maketrans({c: f"%{ord(c):02X}" for c in "%/\\\0"})
_NAME_MAX = 255  # bytes in one file name on common file systems
_NON_WORD = re.compile(r"[^\w\s]")


def _trace_file_name(item_id: str) -> str:
    """``trace-<id>.jsonl``; past ``_NAME_MAX`` bytes the id is cut on a character
    boundary and ``-<text_digest(id)>`` keeps distinct ids apart."""
    stem, suffix = "trace-" + item_id.translate(_FILE_NAME_ESCAPES), ".jsonl"
    if len((stem + suffix).encode("utf-8")) > _NAME_MAX:
        suffix = f"-{text_digest(item_id)}.jsonl"
        stem = stem.encode("utf-8")[: _NAME_MAX - len(suffix)].decode("utf-8", "ignore")
    return stem + suffix


def grade(item: BenchmarkItem, conclusion: str) -> bool:
    """Grade a conclusion against the item's gold answer.

    Multiple choice: the first standalone option letter after normalization
    (trim, strip punctuation, uppercase) is matched against the gold letter;
    no letter at all raises UngradableError. Free-form: case-insensitive,
    whitespace-normalized exact match.
    """
    if item.kind == MULTIPLE_CHOICE:
        letters = {k.upper() for k in item.options}
        tokens = _NON_WORD.sub(" ", conclusion).upper().split()
        for token in tokens:
            if token in letters:
                return token == item.gold.upper()
        raise UngradableError(f"no option letter in {conclusion!r}")
    normalize = lambda s: " ".join(s.split()).casefold()
    return normalize(conclusion) == normalize(item.gold)


def oracle_grade(item: BenchmarkItem, conclusion: str) -> bool:
    """Sim-world grading: read the hidden correctness mark of the conclusion."""
    return oracle_correct(conclusion)


GraderFn = Callable[[BenchmarkItem, str], bool]

# Built once: json.dumps with any keyword argument builds a new encoder per call.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


@dataclass
class RunRecord:
    item_id: str
    strategy: str
    param: Optional[float]
    conclusion: str
    correct: bool
    ungradable: bool = False
    error: Optional[str] = None
    generator_calls: int = 0
    reward_calls: int = 0
    wall_time_s: float = 0.0
    trace_file: Optional[str] = None

    def to_json(self) -> str:
        return _RECORD_ENCODER.encode(self.__dict__)


@dataclass
class BenchmarkResult:
    accuracy: float
    ledger: BudgetLedger
    records: list[RunRecord]


def filter_items(
    items: Sequence[BenchmarkItem], categories: Optional[Iterable[str]]
) -> list[BenchmarkItem]:
    if categories is None:
        return list(items)
    wanted = {c.casefold() for c in categories}
    return [i for i in items if (i.category or "").casefold() in wanted]


def run_benchmark(
    items: Sequence[BenchmarkItem],
    cfg: SearchConfig,
    generator: Generator,
    reward: RewardScorer,
    *,
    out_dir=None,
    grader: GraderFn = grade,
    run_seed: int = 0,
    categories: Optional[Iterable[str]] = None,
    collect_traces: bool = False,
    parallelism: int = 1,
    param: Optional[float] = None,
) -> BenchmarkResult:
    """Run every item under one strategy configuration and grade the answers.

    Per-item seeds derive from (run seed, item id), so results do not depend
    on execution order. Backend and search failures are recorded per item
    and counted incorrect, with the calls the search made before it failed
    in the record and the totals; the run continues.
    """
    selected = filter_items(items, categories)
    if not selected:
        raise EmptyBenchmarkError("no benchmark items to run")
    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        records_path = out_path / "run_records.jsonl"
        trim_partial_last_line(records_path)

    # A trace is built only to be written.
    collect_trace = collect_traces and out_path is not None
    totals = BudgetLedger()
    records: list[RunRecord] = []
    # Each record is flushed as its item finishes, so a run that dies keeps the records before it.
    with open(records_path, "a", encoding="utf-8") if out_path is not None else nullcontext() as records_file:
        for item in selected:
            record = RunRecord(
                item_id=item.id,
                strategy=cfg.strategy.value,
                param=param,
                conclusion="",
                correct=False,
            )
            item_seed = stable_u64(str(run_seed), item.id)
            result = None
            try:
                result = run_strategy(
                    item.question,
                    cfg,
                    generator,
                    reward,
                    image_ref=item.image_ref,
                    run_seed=item_seed,
                    collect_trace=collect_trace,
                    parallelism=parallelism,
                )
                ledger = result.ledger
            except (BackendError, SearchError) as exc:
                record.error = f"{type(exc).__name__}: {exc}"
                # The calls a failed search made before it failed still count.
                ledger = exc.ledger
            if ledger is not None:
                record.generator_calls = ledger.generator_calls
                record.reward_calls = ledger.reward_calls
                record.wall_time_s = ledger.wall_time_s
                totals.add(ledger)
            if result is not None:
                record.conclusion = result.final_text
                try:
                    record.correct = grader(item, record.conclusion)
                except UngradableError:
                    record.ungradable = True
                if result.trace is not None:
                    trace_file = out_path / _trace_file_name(item.id)
                    result.trace.write(trace_file)
                    record.trace_file = str(trace_file)
            records.append(record)
            if records_file is not None:
                records_file.write(record.to_json() + "\n")
                records_file.flush()

    return BenchmarkResult(sum(1 for r in records if r.correct) / len(records), totals, records)


# ---------------------------------------------------------------------------
# Scaling experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridCell:
    param: float
    config: SearchConfig

    @property
    def strategy(self) -> Strategy:
        return self.config.strategy


@dataclass
class ScalingPoint:
    strategy: str
    param: float
    accuracy: float
    generator_calls: int
    reward_calls: int
    wall_time_s: float


BEST_OF_N_GRID = (1, 3, 4, 8)
BEAM_CANDIDATE_GRID = (1, 4, 6, 19)
RETRACE_GRID = (0, 1, 3)


def default_grid(base: Optional[SearchConfig] = None) -> list[GridCell]:
    """Default scaling sweep: best-of-N over N, beam over candidate count,
    retracing search over the retrace budget (initial pass + C retraces)."""
    base = base or SearchConfig()
    cells: list[GridCell] = []
    for n in BEST_OF_N_GRID:
        cells.append(GridCell(n, replace(base, strategy=Strategy.BEST_OF_N, beam_width=n)))
    for m in BEAM_CANDIDATE_GRID:
        width = 2 if m % 2 == 0 else 1
        cells.append(
            GridCell(
                m,
                replace(base, strategy=Strategy.STAGE_BEAM, candidates_per_stage=m, beam_width=width),
            )
        )
    for retraces in RETRACE_GRID:
        cells.append(
            GridCell(
                retraces,
                replace(
                    base,
                    strategy=Strategy.SWIRES,
                    retrace_limit=retraces,
                    loop_semantics=LoopSemantics.MAIN_TEXT,
                ),
            )
        )
    return cells


CURVE_HEADER = "strategy,param,calls,reward_calls,wall_time_s,accuracy"


def scaling_experiment(
    items: Sequence[BenchmarkItem],
    generator: Generator,
    reward: RewardScorer,
    grid: Optional[Sequence[GridCell]] = None,
    *,
    out_csv=None,
    out_dir=None,
    grader: GraderFn = grade,
    run_seed: int = 0,
    zero_wall_time: bool = False,
    parallelism: int = 1,
) -> list[ScalingPoint]:
    """Run every grid cell over the items and emit one curve point per cell.

    With ``zero_wall_time`` the wall-time column is written as 0.000 so that
    repeated runs under the same seeds produce byte-identical tables.
    """
    cells = list(grid) if grid is not None else default_grid()
    if not cells:
        raise EmptyBenchmarkError("scaling grid is empty")
    points: list[ScalingPoint] = []
    for cell in cells:
        started = time.perf_counter()
        result = run_benchmark(
            items,
            cell.config,
            generator,
            reward,
            out_dir=out_dir,
            grader=grader,
            run_seed=run_seed,
            parallelism=parallelism,
            param=cell.param,
        )
        elapsed = 0.0 if zero_wall_time else time.perf_counter() - started
        points.append(
            ScalingPoint(
                strategy=cell.strategy.value,
                param=cell.param,
                accuracy=result.accuracy,
                generator_calls=result.ledger.generator_calls,
                reward_calls=result.ledger.reward_calls,
                wall_time_s=elapsed,
            )
        )
    if out_csv is not None:
        write_curve_csv(points, out_csv)
    return points


def write_curve_csv(points: Sequence[ScalingPoint], path) -> None:
    lines = [CURVE_HEADER]
    for p in points:
        lines.append(
            f"{p.strategy},{p.param:g},{p.generator_calls},{p.reward_calls},"
            f"{p.wall_time_s:.3f},{p.accuracy:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_sim_items(count: int, prefix: str = "sim") -> list[BenchmarkItem]:
    """Synthetic free-form items for sim-world runs under the oracle grader."""
    return [
        BenchmarkItem(id=f"{prefix}-{i}", question=f"{prefix} question {i}")
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Exact-accuracy oracles for small sim worlds
# ---------------------------------------------------------------------------
#
# The oracles below never call the search engine. They are closed forms of
# the documented selection rules under these restrictions: beam width 1,
# recovery probability 0, zero reward noise (so selection always prefers a
# correct candidate). Within those bounds they are exact for any per-stage
# success probabilities, candidate count, and pass budget.


def _chain_probability(world: SimWorldConfig) -> float:
    p = 1.0
    for kind in CANONICAL_ORDER:
        p *= world.success[kind]
    return p


def _require_oracle_world(world: SimWorldConfig) -> None:
    if world.noise_std != 0:
        raise ValueError("oracle enumeration requires noise_std == 0")
    if any(r != 0 for r in world.recovery.values()):
        raise ValueError("oracle enumeration requires recovery == 0")


def enumerate_best_of_n_accuracy(world: SimWorldConfig, n: int) -> float:
    """P(best-of-n returns a correct answer) under a separating reward."""
    _require_oracle_world(world)
    return 1.0 - (1.0 - _chain_probability(world)) ** n


def _pass_success_probability(world: SimWorldConfig, m: int) -> float:
    """P(one caption/reasoning pass yields a correct reasoning), beam width 1.

    Correct-first selection keeps a correct caption when any of the M is
    correct; with recovery 0 only its M reasonings can then be correct.
    """
    qc = world.success[StageKind.CAPTION]
    qr = world.success[StageKind.REASONING]
    return (1.0 - (1.0 - qc) ** m) * (1.0 - (1.0 - qr) ** m)


def enumerate_stage_beam_accuracy(world: SimWorldConfig, m: int) -> float:
    """Exact beam-width-1 accuracy of stage-wise beam search: one SWIRES pass."""
    return enumerate_swires_accuracy(world, m, passes=1)


def enumerate_swires_accuracy(world: SimWorldConfig, m: int, passes: int) -> float:
    """Exact beam-width-1 accuracy of retracing search over ``passes`` passes.

    With a separating reward and a cutoff between the two reward means, a
    pass is accepted exactly when it produced a correct reasoning, and the
    pooled selection returns a correct reasoning exactly when any pass did.
    """
    _require_oracle_world(world)
    if passes < 1:
        raise ValueError("passes must be >= 1")
    qs = world.success[StageKind.SUMMARY]
    qco = world.success[StageKind.CONCLUSION]
    per_pass = _pass_success_probability(world, m)
    return qs * (1.0 - (1.0 - per_pass) ** passes) * qco


# ---------------------------------------------------------------------------
# Monte Carlo against the engine, and the simcheck suite
# ---------------------------------------------------------------------------


# Fewer trials than this (about 50 ms of searches) are not worth a process of their own.
MIN_TRIALS_PER_WORKER = 250


def _available_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _correct_in_range(cfg: SearchConfig, sim: SimWorld, run_seed: int, start: int, stop: int) -> int:
    """Correct answers among trials ``start`` to ``stop - 1``; each trial depends on its index alone."""
    correct = 0
    for i in range(start, stop):
        result = run_strategy(
            f"mc question {i}",
            cfg,
            sim,
            sim,
            run_seed=stable_u64(str(run_seed), str(i)),
            collect_trace=False,
        )
        if oracle_correct(result.final_text):
            correct += 1
    return correct


class _ForkedRange:
    """A forked child that counts one range of trials and replies once over a pipe.

    The reply is the pickled count, or the pickled exception the range
    raised. The child writes nothing else, flushes none of the stdio buffers
    it inherited and leaves by ``os._exit``, so it never returns into its
    caller's stack. A fork copies only the calling thread; the child runs
    only sim searches at parallelism 1, which start no thread and take no
    lock that another thread of the caller could hold.
    """

    def __init__(self, count: Callable[[int, int], int], start: int, stop: int):
        import pickle

        self.trials = f"{start}..{stop - 1}"
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(read_fd)
                try:
                    reply = pickle.dumps(count(start, stop))
                except BaseException as exc:  # sent to the caller, which raises it
                    reply = _pickled_exception(exc)
                with open(write_fd, "wb") as pipe:
                    pipe.write(reply)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")
        self.replied = False
        self.status: Optional[int] = None

    def result(self) -> int:
        """The child's count; its exception is raised here."""
        import pickle

        data = self.pipe.read()
        self.replied = True
        if not data:
            self.reap()
            raise RuntimeError(
                f"Monte Carlo worker for trials {self.trials} ended without a reply "
                f"(exit code {os.waitstatus_to_exitcode(self.status)})"
            )
        reply = pickle.loads(data)
        if isinstance(reply, BaseException):
            raise reply
        return reply

    def reap(self) -> None:
        """Wait for the child, killing it first if its reply was not read."""
        if self.status is not None:
            return
        if not self.replied:
            import signal

            os.kill(self.pid, signal.SIGKILL)
        self.pipe.close()
        _, self.status = os.waitpid(self.pid, 0)


def _pickled_exception(exc: BaseException) -> bytes:
    """``exc`` pickled; one that does not survive the round trip goes as a RuntimeError naming it."""
    import pickle

    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))


def monte_carlo_accuracy(
    cfg: SearchConfig,
    world: SimWorldConfig,
    trials: int,
    *,
    run_seed: int = 0,
) -> float:
    """Fraction of ``trials`` independent sim searches returning a correct answer.

    The trials are split into contiguous ranges, one per worker: up to one
    per CPU available to the process, each of at least
    ``MIN_TRIALS_PER_WORKER`` trials. The calling process runs the first
    range and forked children run the others; where the platform has no
    ``fork`` the calling process runs them all. Trial ``i`` depends on
    ``i`` and ``run_seed`` alone, so the result is the same for any worker
    count. Every child is waited for before this returns or raises. A range
    that fails raises its exception here, the first range in trial order
    first, as the same loop run in one process would.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    cfg.validate()
    count = partial(_correct_in_range, cfg, SimWorld(world), run_seed)
    workers = max(1, min(_available_cpus(), trials // MIN_TRIALS_PER_WORKER)) if hasattr(os, "fork") else 1
    bounds = [trials * k // workers for k in range(workers + 1)]
    children: list[_ForkedRange] = []
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            children.append(_ForkedRange(count, start, stop))
        correct = count(bounds[0], bounds[1])
        for child in children:
            correct += child.result()
    finally:
        for child in children:
            child.reap()
    return correct / trials


def standard_error(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


# Small world used by the simcheck suite: two stochastic stages bracketed by
# deterministic ones, separating reward, cutoff 0 strictly between the means.
SIMCHECK_WORLD = SimWorldConfig(
    success={
        StageKind.SUMMARY: 1.0,
        StageKind.CAPTION: 0.5,
        StageKind.REASONING: 0.6,
        StageKind.CONCLUSION: 1.0,
    },
    noise_std=0.0,
    rng_seed=7,
)


def _simcheck_config(**overrides) -> SearchConfig:
    base = SearchConfig(
        candidates_per_stage=2,
        beam_width=1,
        retrace_limit=1,
        stats=CalibrationStats(0.0, 0.0, 1),
        cutoff_zscore=0.0,
    )
    return replace(base, **overrides)


def run_simcheck(trials: int = 20_000, run_seed: int = 0) -> list[dict]:
    """Compare exact enumeration with engine Monte Carlo on the small world.

    Returns one row per check with the exact value, the Monte Carlo value,
    and whether they agree within three standard errors.
    """
    world = SIMCHECK_WORLD
    checks: list[tuple[str, float, SearchConfig]] = [
        (
            "best_of_n(n=2)",
            enumerate_best_of_n_accuracy(world, 2),
            _simcheck_config(strategy=Strategy.BEST_OF_N, beam_width=2),
        ),
        (
            "beam(m=2,n=1)",
            enumerate_stage_beam_accuracy(world, 2),
            _simcheck_config(strategy=Strategy.STAGE_BEAM),
        ),
        (
            "swires(m=2,n=1,single pass)",
            enumerate_swires_accuracy(world, 2, passes=1),
            _simcheck_config(strategy=Strategy.SWIRES, loop_semantics=LoopSemantics.ALGORITHM_ONE),
        ),
        (
            "swires(m=2,n=1,two passes)",
            enumerate_swires_accuracy(world, 2, passes=2),
            _simcheck_config(strategy=Strategy.SWIRES, loop_semantics=LoopSemantics.MAIN_TEXT),
        ),
    ]
    rows = []
    for name, exact, cfg in checks:
        measured = monte_carlo_accuracy(cfg, world, trials, run_seed=run_seed)
        tolerance = 3.0 * standard_error(exact, trials)
        rows.append(
            {
                "check": name,
                "exact": exact,
                "monte_carlo": measured,
                "delta": measured - exact,
                "tolerance_3se": tolerance,
                "ok": abs(measured - exact) <= tolerance,
            }
        )
    return rows


def sample_calibration_corpus(
    questions: Sequence[str],
    generator: Generator,
    reward: RewardScorer,
    *,
    run_seed: int = 0,
) -> list[tuple[str, StagedResponse]]:
    """Single-rollout trajectories through the reasoning stage for reward calibration."""
    rollout_cfg = SearchConfig(
        strategy=Strategy.STAGE_BEAM,
        candidates_per_stage=1,
        beam_width=1,
        pipeline=CANONICAL_ORDER[:3],
    )
    corpus = []
    for i, question in enumerate(questions):
        result = stage_wise_beam(
            question,
            rollout_cfg,
            generator,
            reward,
            run_seed=stable_u64(str(run_seed), "calibration", str(i)),
            collect_trace=False,
        )
        corpus.append((question, result.answer))
    return corpus

"""Benchmark runner, scaling-curve driver, and sim-world verification oracles.

Questions load from line-delimited JSON, run under any strategy with exact
call accounting, and grade locally (option-letter extraction for multiple
choice, normalized exact match for free-form). Against the simulated world
the oracle grader reads the hidden correctness mark instead, and closed-form
enumeration of small worlds provides exact accuracies that Monte Carlo runs
of the real engine must reproduce.
"""

from __future__ import annotations

import math
import os
import re
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Optional, Sequence

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
from .jsonl import append_record, id_field, open_append, read_jsonl, string_field
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
    in the record and the totals; the run continues. Each record is appended
    to ``out_dir/run_records.jsonl`` by ``jsonl.append_record`` as its item
    finishes. A bad ``cfg`` raises its ConfigError before anything else is
    done, and an ``out_dir`` that cannot be made, or whose records file
    ``jsonl.open_append`` cannot open, raises ConfigError before any backend call.
    """
    cfg.validate()
    selected = filter_items(items, categories)
    if not selected:
        raise EmptyBenchmarkError("no benchmark items to run")
    out_path = Path(out_dir) if out_dir is not None else None
    records_file = None
    if out_path is not None:
        try:
            out_path.mkdir(parents=True, exist_ok=True)
            records_file = open_append(out_path / "run_records.jsonl")
        except OSError as exc:
            raise ConfigError(f"cannot write {out_dir}: {exc}") from exc

    # A trace is built only to be written.
    collect_trace = collect_traces and out_path is not None
    totals = BudgetLedger()
    records: list[RunRecord] = []
    with records_file or nullcontext():
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
                append_record(records_file, record.__dict__)

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
    repeated runs under the same seeds produce byte-identical tables. Every
    cell's config is validated before the first cell runs.
    """
    cells = list(grid) if grid is not None else default_grid()
    if not cells:
        raise EmptyBenchmarkError("scaling grid is empty")
    for cell in cells:
        cell.config.validate()
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
# Trials per range a worker takes from the queue: about 2 ms of searches, so
# the workers finish within about one range of each other.
TRIALS_PER_RANGE = 10
# Ranges per call at most. Their 4-byte tokens (4000 bytes) fit a Linux pipe's
# smallest buffer, one 4096-byte page, so the caller writes them all before any
# reader exists without blocking; at 1e5 trials a range holds 100.
MAX_RANGES = 1000
_TOKEN_BYTES = 4


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


def _taken(queue: int):
    """The range indices this process takes from the queue, one token per read, until end of file."""
    while token := os.read(queue, _TOKEN_BYTES):
        yield int.from_bytes(token, "little")


def _map_forked(fn: Callable[[int, int], object], bounds: Sequence[int], workers: int) -> list:
    """``fn(start, stop)`` for each pair of consecutive ``bounds``, in range order.

    ``workers`` processes share the ranges through one queue: the calling
    process writes one token per range into a pipe and closes its write end,
    then forks ``workers - 1`` children. No reader exists while it writes,
    so a caller passes at most ``MAX_RANGES`` ranges. Each worker, the
    caller too, reads one token, runs that range and reads the next, until
    the pipe is empty; a worker that finishes early takes more ranges, so
    none waits long for another. A child replies once over a pipe of its own
    with its pickled ``{range index: result}``, or with its first failure
    and that range's index; it writes nothing else, flushes none of the
    stdio buffers it inherited and leaves by ``os._exit``, so it never
    returns into its caller's stack. A fork copies only the calling thread,
    so ``fn`` must start no thread and take no lock that another thread of
    the caller could hold; sim searches at parallelism 1 do neither.

    Failures: a child whose range raised takes no more tokens and drains
    the queue, so the others stop after their current range. A range of
    the caller's that raises is raised at once. Otherwise, once every child
    has replied, the failure of the earliest range among the replies is
    raised; a child that ends without a reply raises ``RuntimeError`` naming
    its exit code. Every child is waited for once before this returns or
    raises; a child whose reply was not read is killed first.
    """
    import pickle
    import signal

    ranges = list(zip(bounds, bounds[1:]))
    queue, tokens = os.pipe()
    children: list[tuple[int, BinaryIO]] = []  # (pid, read end), in fork order, not yet waited for
    try:
        with open(tokens, "wb") as pipe:
            pipe.write(b"".join(i.to_bytes(_TOKEN_BYTES, "little") for i in range(len(ranges))))
        for _ in range(workers - 1):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    done, failed = {}, None
                    for index in _taken(queue):
                        try:
                            done[index] = fn(*ranges[index])
                        except BaseException as exc:  # sent to the caller, which raises it
                            failed = (index, _picklable(exc))
                            while os.read(queue, 4096):
                                pass
                            break
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps((done, failed)))
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        results = {index: fn(*ranges[index]) for index in _taken(queue)}
        failures = []
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if not data:
                raise RuntimeError(
                    f"forked worker {pid} ended without a reply "
                    f"(exit code {os.waitstatus_to_exitcode(status)})"
                )
            done, failed = pickle.loads(data)
            results.update(done)
            if failed is not None:
                failures.append(failed)
        if failures:
            raise min(failures)[1]
        return [results[index] for index in range(len(ranges))]
    finally:
        os.close(queue)
        for pid, pipe in children:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def _picklable(exc: BaseException) -> BaseException:
    """``exc`` if it survives a pickle round trip, else a RuntimeError naming it."""
    import pickle

    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def monte_carlo_accuracy(
    cfg: SearchConfig,
    world: SimWorldConfig,
    trials: int,
    *,
    run_seed: int = 0,
) -> float:
    """Fraction of ``trials`` independent sim searches returning a correct answer.

    The trials are cut into ranges of ``TRIALS_PER_RANGE`` trials, or into
    ``MAX_RANGES`` larger ones when there are more, and ``_map_forked`` hands
    them out from one queue to its workers: the calling process and forked
    children, up to one worker per CPU available to the process and one per
    ``MIN_TRIALS_PER_WORKER`` trials; where the platform has no ``fork`` the
    caller runs every range. Trial ``i`` depends on ``i`` and ``run_seed``
    alone, so the result is the same for any worker count and any schedule.
    Every child is waited for before this returns or raises. A failure in
    the caller's own range raises at once; otherwise the failure of the
    earliest range among the children's replies is raised, and a child that
    ended without a reply raises ``RuntimeError`` naming its exit code.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    cfg.validate()
    count = partial(_correct_in_range, cfg, SimWorld(world), run_seed)
    workers = max(1, min(_available_cpus(), trials // MIN_TRIALS_PER_WORKER)) if hasattr(os, "fork") else 1
    ranges = min(MAX_RANGES, -(-trials // TRIALS_PER_RANGE))
    bounds = [trials * k // ranges for k in range(ranges + 1)]
    return sum(_map_forked(count, bounds, workers)) / trials


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

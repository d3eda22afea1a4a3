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
import re
import time
from dataclasses import dataclass, field, replace
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
)
from .jsonl import read_jsonl, trim_partial_last_line
from .search import (
    BudgetLedger,
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
        id=str(data["id"]),
        question=data["question"],
        kind=data.get("kind", FREE_FORM),
        options=dict(data.get("options", {})),
        gold=str(data.get("gold", "")),
        image_ref=data.get("image_ref"),
        category=data.get("category"),
    )


def load_items(path) -> list[BenchmarkItem]:
    return read_jsonl(path, "benchmark item", _item)


_NON_WORD = re.compile(r"[^\w\s]")


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

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, ensure_ascii=False)


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

    # A trace is built only to be written.
    collect_trace = collect_traces and out_path is not None
    totals = BudgetLedger()
    records: list[RunRecord] = []
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
                trace_file = out_path / f"trace-{item.id}.jsonl"
                result.trace.write(trace_file)
                record.trace_file = str(trace_file)
        records.append(record)

    accuracy = sum(1 for r in records if r.correct) / len(records)
    if out_path is not None:
        records_path = out_path / "run_records.jsonl"
        trim_partial_last_line(records_path)
        with open(records_path, "a", encoding="utf-8") as fh:
            for record in records:
                fh.write(record.to_json() + "\n")
    return BenchmarkResult(accuracy, totals, records)


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
        cells.append(
            GridCell(
                n,
                replace(base, strategy=Strategy.BEST_OF_N, candidates_per_stage=n, beam_width=n),
            )
        )
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


def monte_carlo_accuracy(
    cfg: SearchConfig,
    world: SimWorldConfig,
    trials: int,
    *,
    run_seed: int = 0,
) -> float:
    """Fraction of ``trials`` independent sim searches returning a correct answer."""
    sim = SimWorld(world)
    correct = 0
    for i in range(trials):
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
    from .search import CalibrationStats

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
            _simcheck_config(strategy=Strategy.BEST_OF_N, candidates_per_stage=2, beam_width=2),
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

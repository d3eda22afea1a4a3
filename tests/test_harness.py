import errno
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from stagewise import harness
from stagewise.backends import (
    CORRECT_MARK,
    BackendError,
    EndpointConfig,
    Generator,
    HttpGenerator,
    HttpRewardScorer,
    RewardScorer,
    SimWorld,
    SimWorldConfig,
    TransportError,
    text_digest,
)
from stagewise.harness import (
    BEAM_CANDIDATE_GRID,
    BEST_OF_N_GRID,
    CURVE_HEADER,
    RETRACE_GRID,
    SIMCHECK_WORLD,
    BenchmarkItem,
    EmptyBenchmarkError,
    UngradableError,
    default_grid,
    exact_accuracy,
    grade,
    load_items,
    make_sim_items,
    monte_carlo_accuracy,
    oracle_grade,
    run_benchmark,
    run_simcheck,
    sample_calibration_corpus,
    scaling_experiment,
    standard_error,
    write_curve_csv,
)
from stagewise.search import (
    CalibrationStats,
    ConfigError,
    LoopSemantics,
    SearchConfig,
    SearchExhaustedError,
    SearchTrace,
    Strategy,
    calibrate,
    swires,
)
from stagewise.stages import StageKind

from conftest import CountingGenerator, ScriptedGenerator, ScriptedScorer


def _mc_item(gold="B", options=None):
    return BenchmarkItem(
        id="i1",
        question="pick one",
        kind="multiple_choice",
        options=options or {"A": "first", "B": "second", "C": "third"},
        gold=gold,
    )


# ---------------------------------------------------------------------------
# Grading
# ---------------------------------------------------------------------------


def test_grade_multiple_choice_exact_letter():
    assert grade(_mc_item(), "B") is True
    assert grade(_mc_item(), "A") is False


def test_grade_multiple_choice_letter_in_sentence():
    assert grade(_mc_item(), "The answer is B.") is True
    assert grade(_mc_item(), "the answer is (b)") is True


def test_grade_multiple_choice_first_letter_wins():
    assert grade(_mc_item(), "A or B") is False  # A extracted first


def test_grade_multiple_choice_ungradable():
    with pytest.raises(UngradableError):
        grade(_mc_item(), "maybe")
    with pytest.raises(UngradableError):
        grade(_mc_item(), "")


def test_grade_non_option_letters_ignored():
    # X is standalone but not an option letter.
    assert grade(_mc_item(), "X marks B") is True


def test_grade_free_form_normalized_match():
    item = BenchmarkItem(id="f", question="q", kind="free_form", gold="Blue  Whale")
    assert grade(item, "blue whale") is True
    assert grade(item, "  BLUE   WHALE \n") is True
    assert grade(item, "blue") is False


def test_grade_is_pure():
    item = _mc_item()
    assert grade(item, "B") == grade(item, "B")


def test_item_validation():
    with pytest.raises(ValueError):
        BenchmarkItem(id="x", question="q", kind="multiple_choice", options={"A": "a"}, gold="B")
    with pytest.raises(ValueError):
        BenchmarkItem(id="x", question="q", kind="essay")


def test_load_items(tmp_path):
    path = tmp_path / "items.jsonl"
    rows = [
        {"id": "1", "question": "q1", "kind": "multiple_choice",
         "options": {"A": "x", "B": "y"}, "gold": "A", "category": "math"},
        {"id": "2", "question": "q2", "gold": "blue"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    items = load_items(path)
    assert [i.id for i in items] == ["1", "2"]
    assert items[0].category == "math"
    assert items[1].kind == "free_form"


def test_load_items_gold_is_a_string_and_empty_when_absent(tmp_path):
    path = tmp_path / "items.jsonl"
    path.write_text(json.dumps({"id": "a", "question": "q"}) + "\n")
    assert load_items(path)[0].gold == ""
    path.write_text(json.dumps({"id": "a", "question": "q", "gold": None}) + "\n")
    with pytest.raises(ValueError, match=r"items.jsonl:1: bad benchmark item: gold must be a string"):
        load_items(path)


# ---------------------------------------------------------------------------
# Benchmark runner
# ---------------------------------------------------------------------------


def _perfect_sim():
    return SimWorld(SimWorldConfig(success=1.0, rng_seed=1))


def test_run_benchmark_perfect_world_accuracy_one(tmp_path):
    sim = _perfect_sim()
    items = make_sim_items(8)
    result = run_benchmark(
        items, SearchConfig(), sim, sim, out_dir=tmp_path, grader=oracle_grade
    )
    assert result.accuracy == 1.0
    assert len(result.records) == 8
    assert result.ledger.generator_calls == 8 * 11
    log = (tmp_path / "run_records.jsonl").read_text().strip().splitlines()
    assert len(log) == 8


def test_run_benchmark_cuts_a_cut_short_records_line_before_appending(tmp_path):
    records = tmp_path / "run_records.jsonl"
    whole = json.dumps({"item_id": "w"}) + "\n"
    records.write_text(whole + '{"item_id": "x", "strategy"')
    sim = _perfect_sim()
    run_benchmark(make_sim_items(2), SearchConfig(), sim, sim, out_dir=tmp_path, grader=oracle_grade)
    text = records.read_text()
    assert text.startswith(whole)
    rows = [json.loads(line) for line in text.splitlines()]
    assert [r["item_id"] for r in rows] == ["w", "sim-0", "sim-1"]


def test_run_benchmark_appends_after_records_that_end_in_a_bare_cr(tmp_path):
    # open_append cut after the last LF only, so both records were cut away.
    records = tmp_path / "run_records.jsonl"
    earlier = "".join(json.dumps({"item_id": k}) + "\r" for k in ("w1", "w2"))
    records.write_bytes(earlier.encode("ascii"))
    sim = _perfect_sim()
    run_benchmark(make_sim_items(1), SearchConfig(), sim, sim, out_dir=tmp_path, grader=oracle_grade)
    text = records.read_bytes().decode("utf-8")
    assert text.startswith(earlier)
    assert [json.loads(line)["item_id"] for line in text.splitlines()] == ["w1", "w2", "sim-0"]


def test_run_records_line_is_sorted_json_with_raw_utf8_text(tmp_path):
    sim = _perfect_sim()
    items = [BenchmarkItem(id="é-日本", question="què?")]
    result = run_benchmark(items, SearchConfig(), sim, sim, out_dir=tmp_path, grader=oracle_grade, param=2.0)
    (record,) = result.records
    expected = dict(
        item_id="é-日本", strategy="swires", param=2.0, conclusion=record.conclusion, correct=True,
        ungradable=False, error=None, generator_calls=record.generator_calls,
        reward_calls=record.reward_calls, wall_time_s=record.wall_time_s, trace_file=None,
    )
    line = json.dumps(expected, sort_keys=True, ensure_ascii=False) + "\n"
    assert (tmp_path / "run_records.jsonl").read_bytes() == line.encode("utf-8")


def test_run_benchmark_appends_each_record_as_its_item_finishes(tmp_path):
    # A directory at item 2's trace path makes the run raise after item 1.
    items = make_sim_items(2)
    (tmp_path / f"trace-{items[1].id}.jsonl").mkdir()
    sim = _perfect_sim()
    with pytest.raises(ConfigError) as excinfo:
        run_benchmark(
            items, SearchConfig(), sim, sim, out_dir=tmp_path, grader=oracle_grade, collect_traces=True
        )
    assert str(excinfo.value).startswith(f"cannot write {tmp_path / f'trace-{items[1].id}.jsonl'}: ")
    assert isinstance(excinfo.value.__cause__, IsADirectoryError)
    rows = [json.loads(line) for line in (tmp_path / "run_records.jsonl").read_text().splitlines()]
    assert [r["item_id"] for r in rows] == [items[0].id]


def test_run_benchmark_bad_config_raises_before_any_call_or_file(tmp_path):
    sim = _perfect_sim()
    generator = CountingGenerator(sim)
    out_dir = tmp_path / "runs"
    cfg = SearchConfig(candidates_per_stage=3, beam_width=2)
    with pytest.raises(ConfigError) as excinfo:
        run_benchmark(make_sim_items(3), cfg, generator, sim, out_dir=out_dir)
    assert str(excinfo.value) == "beam_width must divide candidates_per_stage"
    assert generator.calls == 0
    assert not out_dir.exists()


def test_run_benchmark_parallelism_below_one_raises_before_any_call_or_file(tmp_path):
    sim = _perfect_sim()
    generator = CountingGenerator(sim)
    out_dir = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"^parallelism must be >= 1$"):
        run_benchmark(make_sim_items(2), SearchConfig(), generator, sim, out_dir=out_dir, parallelism=0)
    assert generator.calls == 0
    assert not out_dir.exists()


def test_scaling_experiment_bad_cell_raises_before_any_cell_runs(tmp_path):
    sim = _perfect_sim()
    generator = CountingGenerator(sim)
    grid = [harness.GridCell(1, SearchConfig()), harness.GridCell(2, SearchConfig(beam_width=3))]
    with pytest.raises(ConfigError):
        scaling_experiment(make_sim_items(2), generator, sim, grid, out_dir=tmp_path / "runs")
    assert generator.calls == 0
    assert not (tmp_path / "runs").exists()


def test_scaling_experiment_empty_grid_raises_before_any_call(tmp_path):
    sim = _perfect_sim()
    generator = CountingGenerator(sim)
    with pytest.raises(EmptyBenchmarkError, match="scaling grid is empty"):
        scaling_experiment(make_sim_items(2), generator, sim, [], out_dir=tmp_path / "runs")
    assert generator.calls == 0
    assert not (tmp_path / "runs").exists()


def test_run_benchmark_without_items_raises_before_any_call(tmp_path):
    sim = _perfect_sim()
    generator = CountingGenerator(sim)
    with pytest.raises(EmptyBenchmarkError, match="no benchmark items to run"):
        run_benchmark([], SearchConfig(), generator, sim, out_dir=tmp_path / "runs")
    assert generator.calls == 0
    assert not (tmp_path / "runs").exists()


def test_run_benchmark_backend_failure_counts_incorrect():
    gen = ScriptedGenerator([TransportError("down")])
    result = run_benchmark(
        make_sim_items(3), SearchConfig(), gen, ScriptedScorer([0.0]), grader=oracle_grade
    )
    assert result.accuracy == 0.0
    assert all(r.error for r in result.records)


class _LockedCounter:
    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def next(self) -> int:
        with self._lock:
            self.calls += 1
            return self.calls


class _CountingGenerator(Generator):
    """Counts calls across threads; appends an unclosed tag at ``corrupt``."""

    def __init__(self, inner, corrupt=None):
        self.inner = inner
        self.corrupt = corrupt
        self.counter = _LockedCounter()

    def generate(self, request):
        self.counter.next()
        raw = self.inner.generate(request)
        if request.target_stages == (self.corrupt,):
            raw += " <CAPTION>"
        return raw


class _FailingScorer(RewardScorer):
    """Counts calls across threads and raises TransportError on call ``k``."""

    def __init__(self, inner, k):
        self.inner = inner
        self.k = k
        self.counter = _LockedCounter()

    def score(self, request):
        if self.counter.next() == self.k:
            raise TransportError("scorer down")
        return self.inner.score(request)


@pytest.mark.parametrize("parallelism", [1, 4])
def test_run_benchmark_failed_search_records_calls_made(parallelism):
    # Default SWIRES: 1 summary, then 4 captions generated and scored, then
    # 4 reasonings generated; the 6th reward call is the 2nd reasoning score.
    sim = SimWorld(SimWorldConfig())
    gen = _CountingGenerator(sim)
    scorer = _FailingScorer(sim, k=6)
    result = run_benchmark(
        make_sim_items(2), SearchConfig(), gen, scorer, grader=oracle_grade, parallelism=parallelism
    )
    failed, passed = result.records
    assert failed.error == "TransportError: scorer down"
    assert passed.error is None and passed.correct
    assert failed.generator_calls == 9
    if parallelism == 1:
        assert failed.reward_calls == 6
    else:
        # The reasoning scores run together; each call that started counts.
        assert 6 <= failed.reward_calls <= 8
    assert failed.generator_calls + passed.generator_calls == gen.counter.calls
    assert failed.reward_calls + passed.reward_calls == scorer.counter.calls
    assert result.ledger.generator_calls == gen.counter.calls
    assert result.ledger.reward_calls == scorer.counter.calls


@pytest.mark.parametrize("collect_traces", [False, True], ids=["untraced", "traced"])
def test_run_benchmark_records_a_generator_reply_that_is_not_utf8(stub_server, tmp_path, collect_traces):
    # JSON can escape a lone surrogate; every reply to the first item's question carries one.
    def reply(body):
        question = next(m["content"] for m in body["messages"] if m["role"] == "user")
        text = "text \ud800" if question == "sim question 0" else "text"
        return 200, {"choices": [{"message": {"content": text}}]}

    generator = HttpGenerator(EndpointConfig(stub_server(reply, keep_alive=True).url, retries=0))
    try:
        result = run_benchmark(
            make_sim_items(2), SearchConfig(), generator, ScriptedScorer([1.0]),
            out_dir=tmp_path, grader=lambda item, text: text == "text", collect_traces=collect_traces,
        )
    finally:
        generator.close()
    failed, passed = result.records
    assert failed.error == (
        "MalformedReplyError: reply text content is not valid UTF-8 text: surrogates not allowed"
    )
    assert (failed.generator_calls, failed.reward_calls, failed.trace_file) == (1, 0, None)
    assert passed.error is None and passed.correct
    assert (passed.trace_file is not None) == collect_traces
    lines = (tmp_path / "run_records.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["item_id"] for line in lines] == ["sim-0", "sim-1"]


@pytest.mark.parametrize(
    "body, error",
    [
        (b'{"score": 1' + b"0" * 399 + b"}", "reward score must fit a float, got an integer of 400 digits"),
        (b"[" * 100_000 + b"]" * 100_000, "non-JSON reply: maximum recursion depth exceeded"),
    ],
    ids=["integer-too-large-for-a-float", "nested-past-the-recursion-limit"],
)
def test_run_benchmark_records_a_reward_reply_no_score_fits_and_goes_on(raw_server, tmp_path, body, error):
    # These replies raised OverflowError and RecursionError out of run_benchmark, before any record.
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
    scorer = HttpRewardScorer(EndpointConfig(raw_server([reply]).url, retries=0))
    try:
        result = run_benchmark(
            make_sim_items(2), SearchConfig(), SimWorld(SimWorldConfig()), scorer,
            out_dir=tmp_path, grader=oracle_grade,
        )
    finally:
        scorer.close()
    assert [record.error.startswith(f"MalformedReplyError: {error}") for record in result.records] == [True, True]
    assert [(record.generator_calls, record.reward_calls) for record in result.records] == [(5, 1), (5, 1)]
    lines = (tmp_path / "run_records.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["item_id"] for line in lines] == ["sim-0", "sim-1"]


def test_run_benchmark_exhausted_search_records_calls_made():
    # Every reasoning fails to parse, so each of the 3 passes generates and
    # scores 4 captions and generates 4 reasonings, after 1 summary.
    sim = SimWorld(SimWorldConfig())
    gen = _CountingGenerator(sim, corrupt=StageKind.REASONING)
    scorer = _FailingScorer(sim, k=0)
    result = run_benchmark(make_sim_items(1), SearchConfig(), gen, scorer, grader=oracle_grade)
    (record,) = result.records
    assert record.error == (
        "SearchExhaustedError: all candidates failed to parse at REASONING across all passes"
    )
    assert (record.generator_calls, record.reward_calls) == (25, 12)
    assert (gen.counter.calls, scorer.counter.calls) == (25, 12)
    assert (result.ledger.generator_calls, result.ledger.reward_calls) == (25, 12)

    with pytest.raises(SearchExhaustedError) as info:
        swires("q", SearchConfig(), _CountingGenerator(sim, corrupt=StageKind.REASONING), sim)
    assert info.value.ledger.counts_dict() == {
        "generator_calls": 25,
        "reward_calls": 12,
        "generator_by_stage": {"summary": 1, "caption": 12, "reasoning": 12},
        "reward_by_stage": {"caption": 12},
    }


def test_run_benchmark_ungradable_flagged():
    sim = _perfect_sim()
    items = [_mc_item()]  # sim text carries no option letters
    result = run_benchmark(items, SearchConfig(), sim, sim, grader=grade)
    assert result.accuracy == 0.0
    assert result.records[0].ungradable is True


def test_run_benchmark_order_independent_per_item_seeds():
    sim = SimWorld(SimWorldConfig(success=0.7, rng_seed=3))
    items = make_sim_items(6)
    forward = run_benchmark(items, SearchConfig(), sim, sim, grader=oracle_grade, run_seed=9)
    reverse = run_benchmark(
        list(reversed(items)), SearchConfig(), sim, sim, grader=oracle_grade, run_seed=9
    )
    by_id_fwd = {r.item_id: r.conclusion for r in forward.records}
    by_id_rev = {r.item_id: r.conclusion for r in reverse.records}
    assert by_id_fwd == by_id_rev
    assert forward.accuracy == reverse.accuracy


def test_run_benchmark_traces_persisted(tmp_path):
    sim = _perfect_sim()
    result = run_benchmark(
        make_sim_items(2),
        SearchConfig(),
        sim,
        sim,
        out_dir=tmp_path,
        grader=oracle_grade,
        collect_traces=True,
    )
    for record in result.records:
        assert record.trace_file and (tmp_path / record.trace_file.split("/")[-1]).exists()


def test_run_benchmark_trace_files_of_ids_that_are_not_file_names(tmp_path):
    items = [BenchmarkItem(id=i, question=f"question {i}") for i in ("a/b", "../x", "a%2Fb")]
    sim = _perfect_sim()
    out = tmp_path / "out"
    result = run_benchmark(
        items, SearchConfig(), sim, sim, out_dir=out, grader=oracle_grade, collect_traces=True
    )
    files = [Path(record.trace_file) for record in result.records]
    assert sorted(files) == sorted(out.glob("trace-*.jsonl"))
    assert len(set(files)) == len(items)
    for item, path in zip(items, files):
        header, events = SearchTrace.read(path)
        assert header["question_digest"] == text_digest(item.question) and events


@pytest.mark.parametrize(
    "out_dir",
    [".", "./out", "out/", "out//deep/./x", "absolute", "path"],
)
def test_run_benchmark_trace_file_is_the_joined_path(tmp_path, monkeypatch, out_dir):
    # record.trace_file, and so run_records.jsonl, holds str(Path(out_dir) / name):
    # "." gives the bare name, not "./name".
    monkeypatch.chdir(tmp_path)
    if out_dir == "absolute":
        out_dir = str(tmp_path / "abs")
    elif out_dir == "path":
        out_dir = Path("out")
    items = [BenchmarkItem(id=i, question=f"question {i}") for i in ("a/b", "../x", "plain")]
    sim = _perfect_sim()
    result = run_benchmark(
        items, SearchConfig(), sim, sim, out_dir=out_dir, grader=oracle_grade, collect_traces=True
    )
    expected = [str(Path(out_dir) / harness.trace_file_name(item.id)) for item in items]
    assert [record.trace_file for record in result.records] == expected
    lines = (Path(out_dir) / "run_records.jsonl").read_text().splitlines()
    assert [json.loads(line)["trace_file"] for line in lines] == expected
    assert all(Path(path).is_file() for path in expected)


def test_run_benchmark_rewrites_traces_of_an_earlier_run(tmp_path):
    # Item ids repeat, so the second run writes over the first run's trace
    # files; each must end up byte-equal to the same run in a fresh directory.
    sim = SimWorld(SimWorldConfig(success=0.6, noise_std=0.5, rng_seed=4))
    items = make_sim_items(6)

    def run(out_dir, run_seed):
        run_benchmark(
            items, SearchConfig(), sim, sim, out_dir=out_dir, grader=oracle_grade,
            run_seed=run_seed, collect_traces=True,
        )
        return {p.name: p.read_bytes() for p in sorted(out_dir.glob("trace-*.jsonl"))}

    first = run(tmp_path / "reused", run_seed=1)
    second = run(tmp_path / "reused", run_seed=2)
    fresh = run(tmp_path / "fresh", run_seed=2)
    assert len(second) == len(items)
    assert second == fresh
    assert any(len(first[name]) > len(second[name]) for name in first)


def test_ledger_totals_equal_sum_of_records():
    sim = SimWorld(SimWorldConfig(success=0.8, rng_seed=2))
    result = run_benchmark(make_sim_items(5), SearchConfig(), sim, sim, grader=oracle_grade)
    assert result.ledger.generator_calls == sum(r.generator_calls for r in result.records)
    assert result.ledger.reward_calls == sum(r.reward_calls for r in result.records)


# ---------------------------------------------------------------------------
# Scaling experiment
# ---------------------------------------------------------------------------


def test_default_grid_shape():
    grid = default_grid()
    assert len(grid) == len(BEST_OF_N_GRID) + len(BEAM_CANDIDATE_GRID) + len(RETRACE_GRID) == 11
    by_strategy = {}
    for cell in grid:
        by_strategy.setdefault(cell.strategy, []).append(cell.param)
    assert by_strategy[Strategy.BEST_OF_N] == [1, 3, 4, 8]
    assert by_strategy[Strategy.STAGE_BEAM] == [1, 4, 6, 19]
    assert by_strategy[Strategy.SWIRES] == [0, 1, 3]
    for cell in grid:
        cell.config.validate()


def test_scaling_single_cell_calls_equal_items(tmp_path):
    sim = _perfect_sim()
    items = make_sim_items(5)
    cell = default_grid()[0]  # best_of_n, n=1
    points = scaling_experiment(items, sim, sim, [cell], grader=oracle_grade)
    write_curve_csv(points, tmp_path / "curve.csv")
    assert len(points) == 1
    assert points[0].generator_calls == len(items)
    table = (tmp_path / "curve.csv").read_text().splitlines()
    assert table[0] == CURVE_HEADER
    assert len(table) == 2


def test_scaling_full_grid_rows_and_determinism(tmp_path):
    sim = SimWorld(SimWorldConfig(success=0.8, noise_std=0.5, rng_seed=4))
    items = make_sim_items(3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        points = scaling_experiment(items, sim, sim, grader=oracle_grade, run_seed=3, zero_wall_time=True)
        write_curve_csv(points, path)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().strip().splitlines()
    assert len(lines) == 1 + 11


def test_scaling_point_counts_match_run_records(tmp_path):
    sim = SimWorld(SimWorldConfig(success=0.9, rng_seed=8))
    items = make_sim_items(4)
    cell = default_grid()[5]  # a beam cell
    points = scaling_experiment(
        items, sim, sim, [cell], out_dir=tmp_path, grader=oracle_grade
    )
    records = [
        json.loads(line)
        for line in (tmp_path / "run_records.jsonl").read_text().splitlines()
    ]
    assert points[0].generator_calls == sum(r["generator_calls"] for r in records)
    assert points[0].reward_calls == sum(r["reward_calls"] for r in records)


# ---------------------------------------------------------------------------
# Enumeration oracles and simcheck
# ---------------------------------------------------------------------------


def _old_pass_success(m):
    """The closed forms ``exact_accuracy`` replaced, restated on SIMCHECK_WORLD as a reference."""
    qc, qr = SIMCHECK_WORLD.success[StageKind.CAPTION], SIMCHECK_WORLD.success[StageKind.REASONING]
    return (1 - (1 - qc) ** m) * (1 - (1 - qr) ** m)


def _old_swires(m, passes):
    qs, qco = SIMCHECK_WORLD.success[StageKind.SUMMARY], SIMCHECK_WORLD.success[StageKind.CONCLUSION]
    return qs * (1 - (1 - _old_pass_success(m)) ** passes) * qco


def _old_best_of_n(n):
    chain = 1.0
    for q in SIMCHECK_WORLD.success.values():
        chain *= q
    return 1 - (1 - chain) ** n


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_exact_accuracy_agrees_with_the_old_closed_forms(m):
    world = SIMCHECK_WORLD
    best_of = harness._simcheck_config(strategy=Strategy.BEST_OF_N, beam_width=m)
    assert exact_accuracy(best_of, world) == pytest.approx(_old_best_of_n(m), abs=1e-12)
    beam = harness._simcheck_config(strategy=Strategy.STAGE_BEAM, candidates_per_stage=m)
    assert exact_accuracy(beam, world) == pytest.approx(_old_swires(m, 1), abs=1e-12)
    for passes in (1, 2, 3):
        for semantics, retraces in ((LoopSemantics.ALGORITHM_ONE, passes), (LoopSemantics.MAIN_TEXT, passes - 1)):
            cfg = harness._simcheck_config(
                strategy=Strategy.SWIRES, candidates_per_stage=m, retrace_limit=retraces, loop_semantics=semantics
            )
            assert cfg.max_passes == passes
            assert exact_accuracy(cfg, world) == pytest.approx(_old_swires(m, passes), abs=1e-12)


@pytest.mark.parametrize(
    "world, cfg",
    [
        (replace(SIMCHECK_WORLD, noise_std=0.5), harness._simcheck_config(strategy=Strategy.BEST_OF_N)),
        (replace(SIMCHECK_WORLD, mean_incorrect=1.0), harness._simcheck_config(strategy=Strategy.BEST_OF_N)),
        (replace(SIMCHECK_WORLD, mean_correct=-2.0), harness._simcheck_config(strategy=Strategy.SWIRES)),
        (replace(SIMCHECK_WORLD, recovery={StageKind.REASONING: 0.1}), harness._simcheck_config()),
        (SIMCHECK_WORLD, harness._simcheck_config(strategy=Strategy.STAGE_BEAM, beam_width=2)),
        (SIMCHECK_WORLD, harness._simcheck_config(strategy=Strategy.SWIRES, beam_width=2)),
    ],
    ids=["noise", "equal-means", "reversed-means", "recovery", "beam-width-2", "swires-width-2"],
)
def test_exact_accuracy_refuses_a_world_or_config_outside_its_domain(world, cfg):
    with pytest.raises(ValueError, match="exact_accuracy requires"):
        exact_accuracy(cfg, world)


# Summary and conclusion are stochastic here too, so summary_candidates and
# sub-pipelines change the answer. World and run seeds were fixed before the
# first run.
_ORACLE_WORLD = SimWorldConfig(
    success={StageKind.SUMMARY: 0.7, StageKind.CAPTION: 0.5, StageKind.REASONING: 0.6, StageKind.CONCLUSION: 0.9},
    rng_seed=31,
)
_ORACLE_TRIALS = 10_000


@pytest.mark.parametrize(
    "cfg",
    [
        harness._simcheck_config(
            strategy=Strategy.SWIRES,
            summary_candidates=3,
            retrace_limit=2,
            loop_semantics=LoopSemantics.MAIN_TEXT,
            stats=CalibrationStats(-2.0, 0.0),
        ),
        harness._simcheck_config(
            strategy=Strategy.SWIRES,
            retrace_start=StageKind.SUMMARY,
            retrace_limit=2,
            loop_semantics=LoopSemantics.MAIN_TEXT,
            stats=CalibrationStats(1.0, 0.0),
        ),
        harness._simcheck_config(
            strategy=Strategy.STAGE_BEAM,
            candidates_per_stage=3,
            pipeline=(StageKind.CAPTION, StageKind.REASONING, StageKind.CONCLUSION),
        ),
        harness._simcheck_config(
            strategy=Strategy.BEST_OF_N, beam_width=3, pipeline=(StageKind.CAPTION, StageKind.CONCLUSION)
        ),
        # One-stage pipelines: the answer is the one batch's best, drawn at M, or at the summary count.
        harness._simcheck_config(
            strategy=Strategy.STAGE_BEAM, candidates_per_stage=3, pipeline=(StageKind.CAPTION,)
        ),
        harness._simcheck_config(
            strategy=Strategy.STAGE_BEAM, summary_candidates=2, pipeline=(StageKind.SUMMARY,)
        ),
    ],
    ids=["swires-summaries-3-cutoff-below", "swires-from-summary-cutoff-at-correct", "beam-sub-pipeline",
         "best-of-3-sub-pipeline", "beam-caption-only", "beam-summary-only"],
)
def test_exact_accuracy_matches_monte_carlo_within_3_se(cfg):
    exact = exact_accuracy(cfg, _ORACLE_WORLD)
    measured = monte_carlo_accuracy(cfg, _ORACLE_WORLD, _ORACLE_TRIALS, run_seed=17)
    assert abs(measured - exact) <= 3.0 * standard_error(exact, _ORACLE_TRIALS), (exact, measured)


def test_run_simcheck_small_sample():
    rows = run_simcheck(trials=2500, run_seed=2)
    assert len(rows) == 4
    assert all(row["ok"] for row in rows)
    # Single-pass retracing equals plain beam search by construction.
    by_name = {row["check"]: row for row in rows}
    assert (
        by_name["swires(m=2,n=1,single pass)"]["monte_carlo"]
        == by_name["beam(m=2,n=1)"]["monte_carlo"]
    )


def test_monte_carlo_accuracy_deterministic():
    cfg = SearchConfig(strategy=Strategy.BEST_OF_N, candidates_per_stage=2, beam_width=2)
    world = SimWorldConfig(success=0.5, rng_seed=6)
    a = monte_carlo_accuracy(cfg, world, 500, run_seed=1)
    b = monte_carlo_accuracy(cfg, world, 500, run_seed=1)
    assert a == b


# ---------------------------------------------------------------------------
# Monte Carlo over forked workers
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children the calling process forks; a child's copy holds those forked before it."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _cpus(monkeypatch, count):
    monkeypatch.setattr(harness, "_available_cpus", lambda: count)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _scripted_trials(monkeypatch, every=None):
    """Stand-in searches: each trial runs ``every()`` if given, then answers correctly."""

    def fake_run_strategy(*args, **kwargs):
        if every is not None:
            every()
        return SimpleNamespace(final_text=CORRECT_MARK)

    monkeypatch.setattr(harness, "run_strategy", fake_run_strategy)


def _by_process(in_caller=None, in_child=None):
    """An action that runs ``in_caller`` in the test's own process and ``in_child`` in a forked child."""
    caller = os.getpid()

    def action():
        chosen = in_caller if os.getpid() == caller else in_child
        if chosen is not None:
            chosen()

    return action


@contextmanager
def _within(seconds):
    """Turns a call that blocks for ``seconds`` into a TimeoutError."""

    def blocked(signum, frame):
        raise TimeoutError(f"blocked for {seconds} s")

    previous = signal.signal(signal.SIGALRM, blocked)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _raise(exc):
    def action():
        raise exc

    return action


def _hang():
    time.sleep(30)


def _pause():
    # Long enough per trial that a child always takes a range before the caller runs out.
    time.sleep(0.002)


class _UnpicklableError(Exception):
    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@needs_fork
@pytest.mark.parametrize("trials", [1001, 757])
def test_monte_carlo_accuracy_is_identical_for_any_worker_count(monkeypatch, forks, trials):
    cfg = harness._simcheck_config(strategy=Strategy.SWIRES, loop_semantics=LoopSemantics.MAIN_TEXT)
    values = []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        forks.clear()
        values.append(monte_carlo_accuracy(cfg, SIMCHECK_WORLD, trials, run_seed=5))
        assert len(forks) == cpus - 1
        _assert_no_child_left()
    assert values[0] == values[1] == values[2]


@needs_fork
def test_monte_carlo_accuracy_is_identical_with_a_slowed_child(monkeypatch, forks):
    cfg = harness._simcheck_config(strategy=Strategy.SWIRES, loop_semantics=LoopSemantics.MAIN_TEXT)
    _cpus(monkeypatch, 1)
    alone = monte_carlo_accuracy(cfg, SIMCHECK_WORLD, 1001, run_seed=5)
    real_run_strategy = harness.run_strategy
    slow_in_child = _by_process(in_child=lambda: time.sleep(0.001))

    def slowed(*args, **kwargs):
        slow_in_child()
        return real_run_strategy(*args, **kwargs)

    monkeypatch.setattr(harness, "run_strategy", slowed)
    _cpus(monkeypatch, 2)
    assert monte_carlo_accuracy(cfg, SIMCHECK_WORLD, 1001, run_seed=5) == alone
    assert len(forks) == 1
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_map_forked_returns_each_range_result_in_range_order(forks, workers):
    shards = harness._map_forked(lambda start, stop: list(range(start, stop)), [0, 3, 7, 10], workers)
    assert shards == [[0, 1, 2], [3, 4, 5, 6], [7, 8, 9]]
    assert len(forks) == workers - 1
    _assert_no_child_left()


@needs_fork
def test_run_simcheck_rows_are_identical_at_one_and_two_workers(monkeypatch, forks):
    rows = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        rows.append(run_simcheck(trials=2500, run_seed=2))
    assert len(forks) == 4  # one child per check at two workers
    assert rows[0] == rows[1]


@needs_fork
def test_monte_carlo_accuracy_gives_each_worker_at_least_min_trials(monkeypatch, forks):
    _cpus(monkeypatch, 8)
    _scripted_trials(monkeypatch)
    monte_carlo_accuracy(SearchConfig(), SIMCHECK_WORLD, 2 * harness.MIN_TRIALS_PER_WORKER)
    assert len(forks) == 1
    forks.clear()
    monte_carlo_accuracy(SearchConfig(), SIMCHECK_WORLD, 2 * harness.MIN_TRIALS_PER_WORKER - 1)
    assert forks == []


@needs_fork
def test_map_forked_runs_each_range_once_with_more_workers_than_cpus(forks):
    # A token read by two workers, or by none, would repeat or lose a range.
    with _within(60):
        shards = harness._map_forked(lambda start, stop: (start, stop, os.getpid()), range(1001), 4)
    assert [shard[:2] for shard in shards] == [(i, i + 1) for i in range(1000)]
    assert {shard[2] for shard in shards} <= {os.getpid(), *forks}
    assert len(forks) == 3
    _assert_no_child_left()


@needs_fork
def test_map_forked_gives_a_slow_worker_fewer_ranges(forks):
    # The child sleeps 20 ms on each range, the caller 2 ms; a fixed split would give each 20 of 40.
    caller = os.getpid()

    def whose(start, stop):
        time.sleep(0.002 if os.getpid() == caller else 0.02)
        return os.getpid()

    pids = harness._map_forked(whose, range(41), 2)
    assert set(pids) <= {caller, *forks}
    assert pids.count(caller) > 20
    _assert_no_child_left()


@needs_fork
def test_map_forked_raises_the_earliest_of_two_child_failures(tmp_path, forks):
    # The first child runs one range for 0.2 s, then fails on its next one and drains the queue.
    # The second fails on its first range, taken before that, but only after 0.4 s, so it replies
    # with the earlier range even though it is read second. The caller paces itself at 50 ms a range.
    caller = os.getpid()

    def fail_in_children(start, stop):
        if os.getpid() == caller:
            time.sleep(0.05)
            return None
        first_child = not forks
        ran = tmp_path / str(os.getpid())
        if first_child and not ran.exists():
            ran.write_text("")
            time.sleep(0.2)
            return None
        if not first_child:
            time.sleep(0.4)
        (tmp_path / f"failed-{start}").write_text("")
        raise ValueError(start)

    with pytest.raises(ValueError) as excinfo:
        harness._map_forked(fail_in_children, range(41), 3)
    failed = sorted(int(p.name.split("-")[1]) for p in tmp_path.glob("failed-*"))
    assert len(failed) == 2
    assert excinfo.value.args == (failed[0],)
    assert len(forks) == 2
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize(
    "raised, expected",
    [
        (BackendError("reply for trial 900 is malformed"), BackendError("reply for trial 900 is malformed")),
        (_UnpicklableError("no reply", 900), RuntimeError("_UnpicklableError: no reply at 900")),
    ],
)
def test_monte_carlo_exception_in_a_child_is_raised_by_the_caller(monkeypatch, forks, raised, expected):
    _cpus(monkeypatch, 2)
    caller_trials = []

    def paced():
        caller_trials.append(None)
        _pause()

    _scripted_trials(monkeypatch, every=_by_process(in_caller=paced, in_child=_raise(raised)))
    with pytest.raises(type(expected)) as excinfo:
        monte_carlo_accuracy(SearchConfig(), SIMCHECK_WORLD, 1000)
    assert type(excinfo.value) is type(expected)
    assert str(excinfo.value) == str(expected)
    # The child drained the queue when its first range failed, so the caller stopped early.
    assert len(caller_trials) < 500
    assert len(forks) == 1
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("raised", [ValueError("trial failed"), KeyboardInterrupt()])
def test_monte_carlo_failure_in_the_callers_range_kills_and_reaps_children(monkeypatch, forks, raised):
    # Whichever ranges the caller takes raise; whichever a child takes would hang it for 30 s.
    _cpus(monkeypatch, 3)
    _scripted_trials(monkeypatch, every=_by_process(in_caller=_raise(raised), in_child=_hang))
    started = time.monotonic()
    with pytest.raises(type(raised)):
        monte_carlo_accuracy(SearchConfig(), SIMCHECK_WORLD, 1000)
    assert time.monotonic() - started < 20
    assert len(forks) == 2
    _assert_no_child_left()


@needs_fork
def test_map_forked_fork_that_fails_raises_its_error_and_reaps_the_child_forked_before(monkeypatch, forks):
    counting_fork = os.fork

    def fork_once():
        if forks:
            raise OSError(errno.EAGAIN, "fork refused")
        return counting_fork()

    monkeypatch.setattr(os, "fork", fork_once)
    fd_dir = "/proc/self/fd"
    open_fds = len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
    with pytest.raises(OSError, match="fork refused"):
        harness._map_forked(lambda start, stop: stop - start, range(41), 3)
    assert len(forks) == 1
    _assert_no_child_left()
    if open_fds is not None:  # the queue and both ends of the failed fork's reply pipe are closed
        assert len(os.listdir(fd_dir)) == open_fds


@needs_fork
def test_monte_carlo_child_that_dies_without_a_reply_raises(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    _scripted_trials(monkeypatch, every=_by_process(in_caller=_pause, in_child=lambda: os._exit(3)))
    with pytest.raises(RuntimeError) as excinfo:
        monte_carlo_accuracy(SearchConfig(), SIMCHECK_WORLD, 1000)
    assert str(excinfo.value) == f"forked worker {forks[0]} ended without a reply (exit code 3)"
    _assert_no_child_left()


@needs_fork
def test_monte_carlo_large_call_writes_every_token_before_any_worker_reads(monkeypatch, forks):
    # Uncapped, 200,000 trials would be 20,000 ranges: 80,000 bytes of tokens, more than a Linux
    # pipe holds by default (65,536), so the write before the first fork would block for good.
    _cpus(monkeypatch, 2)
    _scripted_trials(monkeypatch)
    range_counts = []
    real_map_forked = harness._map_forked

    def counting_map_forked(fn, bounds, workers):
        range_counts.append(len(bounds) - 1)
        return real_map_forked(fn, bounds, workers)

    monkeypatch.setattr(harness, "_map_forked", counting_map_forked)
    with _within(60):
        assert monte_carlo_accuracy(SearchConfig(), SIMCHECK_WORLD, 200_000) == 1.0
    assert range_counts == [harness.MAX_RANGES]
    assert harness.MAX_RANGES * harness._TOKEN_BYTES <= 4096
    assert len(forks) == 1
    _assert_no_child_left()


@pytest.mark.parametrize("trials", [0, -5])
def test_monte_carlo_accuracy_rejects_fewer_than_one_trial(forks, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        monte_carlo_accuracy(SearchConfig(), SIMCHECK_WORLD, trials)
    assert forks == []


def test_monte_carlo_accuracy_bad_config_raises_one_config_error_before_forking(monkeypatch, forks):
    _cpus(monkeypatch, 2)
    cfg = SearchConfig(candidates_per_stage=3, beam_width=2)
    with pytest.raises(ConfigError) as excinfo:
        monte_carlo_accuracy(cfg, SIMCHECK_WORLD, 1000)
    assert str(excinfo.value) == "beam_width must divide candidates_per_stage"
    assert forks == []


# ---------------------------------------------------------------------------
# Calibration sampling
# ---------------------------------------------------------------------------


def test_sample_calibration_corpus_through_reasoning():
    sim = SimWorld(SimWorldConfig(success=0.7, noise_std=0.4, rng_seed=5))
    questions = [f"cal {i}" for i in range(10)]
    corpus = sample_calibration_corpus(questions, sim, sim)
    assert len(corpus) == 10
    for question, trajectory in corpus:
        assert trajectory.kinds == (
            StageKind.SUMMARY,
            StageKind.CAPTION,
            StageKind.REASONING,
        )
    stats = calibrate(sim, corpus)
    assert stats.sample_count == 10
    assert stats.reward_std > 0

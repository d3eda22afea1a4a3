import inspect
import json
import os
import random
import re
import threading
import time
from dataclasses import replace

import pytest

from stagewise.backends import (
    CORRECT_MARK,
    INCORRECT_MARK,
    EndpointConfig,
    Generator,
    GeneratorRequest,
    HttpGenerator,
    HttpRewardScorer,
    MalformedReplyError,
    RewardRequest,
    RewardScorer,
    SamplingParams,
    SimWorld,
    SimWorldConfig,
    TransportError,
    oracle_correct,
    stable_u64,
    text_digest,
)
from stagewise import search
from stagewise.search import (
    CalibrationStats,
    Candidate,
    ConfigError,
    EmptyCorpusError,
    InsufficientCandidatesError,
    LoopSemantics,
    SearchConfig,
    SearchError,
    SearchExhaustedError,
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
from stagewise.stages import (
    CANONICAL_ORDER,
    DEFAULT_SCHEMA,
    StageBlock,
    StagedResponse,
    StageFormatError,
    StageKind,
    parse_staged,
    render_staged,
)

from conftest import CountingGenerator, CountingScorer, ScriptedGenerator, ScriptedScorer

ALWAYS_PASS = CalibrationStats(-1e18, 0.0)  # cutoff below every reachable score
NEVER_PASS = CalibrationStats(1e18, 0.0)  # cutoff above every reachable score


def _world(**kwargs):
    defaults = dict(
        success={
            StageKind.CAPTION: 0.6,
            StageKind.REASONING: 0.6,
            StageKind.CONCLUSION: 0.9,
        },
        noise_std=0.8,
        rng_seed=3,
    )
    defaults.update(kwargs)
    return SimWorld(SimWorldConfig(**defaults))


# ---------------------------------------------------------------------------
# Threshold and calibration
# ---------------------------------------------------------------------------


def test_backtrack_cutoff_reference_constants():
    # Computed independently: -0.77 + 0.2533 * 2.08 = -0.243136.
    assert backtrack_cutoff(CalibrationStats(-0.77, 2.08), 0.2533) == pytest.approx(
        -0.243136, abs=1e-9
    )


def test_backtrack_cutoff_degenerate_inputs():
    assert backtrack_cutoff(CalibrationStats(0.0, 1.0), 0.0) == 0.0
    assert backtrack_cutoff(CalibrationStats(5.0, 0.0), 0.2533) == 5.0


@pytest.mark.parametrize(
    "kwargs, message",
    [({"reward_std": -1.0}, "reward_std must be >= 0"), ({"sample_count": 0}, "sample_count must be positive")],
    ids=["negative-std", "no-samples"],
)
def test_calibration_stats_refuse_a_negative_std_or_no_samples(kwargs, message):
    with pytest.raises(ValueError, match=message):
        CalibrationStats(**{"reward_mean": 0.0, "reward_std": 1.0, **kwargs})


def test_calibrate_textbook_sample_std():
    traj = StagedResponse((StageBlock(StageKind.SUMMARY, "s"),))
    scorer = ScriptedScorer([1.0, 2.0, 3.0])
    stats = calibrate(scorer, [("a", traj), ("b", traj), ("c", traj)])
    assert stats.reward_mean == pytest.approx(2.0)
    assert stats.reward_std == pytest.approx(1.0)
    assert stats.sample_count == 3


def test_calibrate_single_item_std_zero():
    traj = StagedResponse((StageBlock(StageKind.SUMMARY, "s"),))
    stats = calibrate(ScriptedScorer([2.0]), [("a", traj)])
    assert stats.reward_mean == 2.0
    assert stats.reward_std == 0.0
    assert stats.sample_count == 1


def test_calibrate_balanced_corpus_mean_zero():
    sim = SimWorld(SimWorldConfig(noise_std=0.0))
    good = StagedResponse((StageBlock(StageKind.REASONING, f"r {CORRECT_MARK}"),))
    bad = StagedResponse((StageBlock(StageKind.REASONING, f"r {INCORRECT_MARK}"),))
    stats = calibrate(sim, [("a", good), ("b", bad), ("c", good), ("d", bad)])
    assert stats.reward_mean == pytest.approx(0.0)


def test_calibrate_empty_corpus():
    with pytest.raises(EmptyCorpusError):
        calibrate(ScriptedScorer([1.0]), [])


@pytest.mark.parametrize(
    "scores, reason",
    [([1.7e308] * 3, "intermediate overflow in fsum"),
     ([1.7e308, -1.7e308], "integer division result too large for a float")],
    ids=["mean", "std"],
)
def test_calibrate_scores_whose_fit_overflows_are_a_malformed_reply(scores, reason):
    # Finite scores whose sum, or sum of squares, is past the float range.
    traj = StagedResponse((StageBlock(StageKind.SUMMARY, "s"),))
    scorer = ScriptedScorer(scores)
    with pytest.raises(MalformedReplyError, match=f"reward scores overflow a float in their mean or std: {reason}"):
        calibrate(scorer, [(str(k), traj) for k in range(len(scores))])
    assert scorer.calls == len(scores)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def _cand(score, birth, stage=StageKind.CAPTION):
    traj = StagedResponse((StageBlock(stage, f"t{birth}"),))
    return Candidate(traj, birth, score)


def test_select_top_by_score():
    cands = [_cand(3.0, (0, 0)), _cand(1.0, (0, 1)), _cand(2.0, (0, 2))]
    kept = select_top(cands, 2, StageKind.CAPTION)
    assert [c.score for c in kept] == [3.0, 2.0]


def test_select_top_tie_breaks_by_birth():
    cands = [_cand(1.0, (0, 2)), _cand(1.0, (0, 0)), _cand(1.0, (0, 1))]
    kept = select_top(cands, 1, StageKind.CAPTION)
    assert kept[0].birth == (0, 0)
    # Earlier pass beats later pass at equal score.
    cands = [_cand(1.0, (1, 0)), _cand(1.0, (0, 5))]
    assert select_top(cands, 1, StageKind.CAPTION)[0].birth == (0, 5)


def test_select_top_matches_sort_oracle():
    rng = random.Random(5)
    for _ in range(200):
        n_cands = rng.randint(1, 12)
        cands = [
            _cand(rng.choice([0.0, 0.5, 1.0, 2.5]), (0, i)) for i in range(n_cands)
        ]
        k = rng.randint(1, n_cands)
        kept = select_top(cands, k, StageKind.CAPTION)
        oracle = sorted(cands, key=lambda c: (-c.score, c.birth))[:k]
        assert kept == oracle


def test_select_top_insufficient():
    with pytest.raises(InsufficientCandidatesError):
        select_top([_cand(1.0, (0, 0))], 2, StageKind.CAPTION)


def test_select_top_rejects_unscored_candidate():
    with pytest.raises(SearchError, match="not scored"):
        select_top([_cand(1.0, (0, 0)), _cand(None, (0, 1))], 1, StageKind.CAPTION)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        SearchConfig(candidates_per_stage=4, beam_width=3).validate()
    with pytest.raises(ConfigError):
        SearchConfig(beam_width=0).validate()
    with pytest.raises(ConfigError):
        SearchConfig(min_pass_count=5).validate()
    with pytest.raises(ConfigError):
        SearchConfig(pipeline=(StageKind.CAPTION, StageKind.SUMMARY)).validate()
    with pytest.raises(ConfigError):
        SearchConfig(
            strategy=Strategy.SWIRES, pipeline=(StageKind.CONCLUSION,)
        ).validate()


def _with(field, value):
    """The default (frozen) config with ``field`` set to ``value``, of any type."""
    cfg = SearchConfig()
    object.__setattr__(cfg, field, value)
    return cfg


_S, _C, _R, _F = CANONICAL_ORDER
# Each config has exactly one problem; validate must name it in these words.
_CONFIG_PROBLEMS = [
    (SearchConfig(candidates_per_stage=0), "candidates_per_stage must be >= 1"),
    (SearchConfig(beam_width=0), "beam_width must be >= 1"),
    (SearchConfig(candidates_per_stage=4, beam_width=3), "beam_width must divide candidates_per_stage"),
    (SearchConfig(retrace_limit=-1), "retrace_limit must be >= 0"),
    (SearchConfig(min_pass_count=5), "min_pass_count must be in [1, beam_width]"),
    (SearchConfig(summary_candidates=0), "summary_candidates must be >= 1"),
    (SearchConfig(temperature=-0.5), "temperature must be >= 0"),
    (SearchConfig(max_new_tokens=0), "max_new_tokens must be >= 1"),
    (_with("strategy", "mystery"), "unknown strategy: 'mystery'"),
    (_with("loop_semantics", "sideways"), "unknown loop semantics: 'sideways'"),
    (SearchConfig(pipeline=()), "pipeline must not be empty"),
    (SearchConfig(pipeline=(_C, _S)), "pipeline must be a canonical-order subsequence of stages"),
    (SearchConfig(pipeline=(_S, _R, _F)), "retrace_start must be a pipeline stage"),
    (SearchConfig(retrace_start=_F), "retrace_start must precede the final pipeline stage"),
]


@pytest.mark.parametrize("cfg, message", _CONFIG_PROBLEMS, ids=[m for _, m in _CONFIG_PROBLEMS])
def test_config_validate_names_each_problem(cfg, message):
    with pytest.raises(ConfigError) as err:
        cfg.validate()
    assert str(err.value) == message


@pytest.mark.parametrize("strategy", [Strategy.BEST_OF_N, Strategy.STAGE_BEAM])
def test_config_min_pass_count_binds_only_swires(strategy):
    # Only SWIRES reads min_pass_count; a width-1 cell of the scale grid inherits it.
    SearchConfig(strategy=strategy, beam_width=1, min_pass_count=2).validate()


def test_config_unknown_strategy_is_config_error():
    cfg = SearchConfig()
    object.__setattr__(cfg, "strategy", "mystery")
    with pytest.raises(ConfigError):
        run_strategy("q", cfg, _world(), _world())


def test_config_max_passes_semantics():
    assert SearchConfig(retrace_limit=3).max_passes == 3
    assert SearchConfig(retrace_limit=0).max_passes == 1
    assert (
        SearchConfig(retrace_limit=3, loop_semantics=LoopSemantics.MAIN_TEXT).max_passes
        == 4
    )


# ---------------------------------------------------------------------------
# best_of_n
# ---------------------------------------------------------------------------


def test_best_of_one_single_calls():
    sim = _world()
    gen, rew = CountingGenerator(sim), CountingScorer(sim)
    result = best_of_n("q", SearchConfig(beam_width=1), gen, rew, run_seed=1)
    assert gen.calls == 1 and rew.calls == 1
    assert result.ledger.generator_calls == 1
    assert result.ledger.reward_calls == 1
    assert result.answer.kinds == CANONICAL_ORDER


def test_best_of_n_ledger_counts_exact():
    sim = _world()
    gen, rew = CountingGenerator(sim), CountingScorer(sim)
    result = best_of_n("q", SearchConfig(beam_width=5), gen, rew, run_seed=1)
    assert (gen.calls, rew.calls) == (5, 5)
    assert (result.ledger.generator_calls, result.ledger.reward_calls) == (5, 5)


@pytest.mark.parametrize("n", [1, 3, 5])
def test_best_of_n_spends_and_records_beam_width(n):
    # N is beam_width whether or not it divides the default M=4.
    sim = _world()
    gen = CountingGenerator(sim)
    result = best_of_n("q", SearchConfig(beam_width=n), gen, sim, run_seed=1)
    assert gen.calls == result.ledger.generator_calls == n
    assert result.trace.header["config"]["beam_width"] == n


def test_best_of_n_constant_reward_returns_first():
    # Equal means: every score ties, so the earliest-birth candidate wins and
    # accuracy equals the single-response accuracy.
    sim = SimWorld(
        SimWorldConfig(
            success={StageKind.CONCLUSION: 0.5},
            mean_correct=0.0,
            mean_incorrect=0.0,
            rng_seed=5,
        )
    )
    for i in range(40):
        many = best_of_n(f"q{i}", SearchConfig(beam_width=6), sim, sim, run_seed=i, collect_trace=False)
        one = best_of_n(f"q{i}", SearchConfig(beam_width=1), sim, sim, run_seed=i, collect_trace=False)
        assert many.final_text == one.final_text


def test_best_of_n_parse_failure_scores_neg_inf():
    replies = [
        "<SUMMARY>s</SUMMARY><CAPTION>c</CAPTION><REASONING>r</REASONING><CONCLUSION>good",
        "garbage with no tags",
    ]
    gen = ScriptedGenerator(replies)
    rew = ScriptedScorer([0.5])
    result = best_of_n("q", SearchConfig(), gen, rew)
    assert result.final_text == "good"
    assert rew.calls == 1  # the unparseable candidate never reaches the scorer
    failures = [e for e in result.trace.events if e.get("parse_error")]
    assert any(e["event"] == "score" and e["score"] == float("-inf") for e in failures)


def test_best_of_n_all_parse_failures_exhausts():
    gen = ScriptedGenerator(["junk"])
    with pytest.raises(SearchExhaustedError):
        best_of_n("q", SearchConfig(beam_width=3), gen, ScriptedScorer([0.0]))


def test_best_of_n_requires_positive_n():
    with pytest.raises(ConfigError):
        best_of_n("q", SearchConfig(beam_width=0), _world(), _world())


def test_run_strategy_best_of_n_reports_the_config_problem():
    cfg = SearchConfig(strategy=Strategy.BEST_OF_N, beam_width=0)
    with pytest.raises(ConfigError, match="^beam_width must be >= 1$"):
        run_strategy("q", cfg, _world(), _world())


# ---------------------------------------------------------------------------
# stage_wise_beam
# ---------------------------------------------------------------------------


def test_beam_ledger_at_defaults():
    sim = _world()
    gen, rew = CountingGenerator(sim), CountingScorer(sim)
    cfg = SearchConfig()
    result = stage_wise_beam("q", cfg, gen, rew, run_seed=0)
    # 1 summary + M captions + M reasonings + N conclusions.
    assert result.ledger.generator_calls == 1 + 4 + 4 + 2 == gen.calls
    # The single summary is unscored; every other candidate is scored once.
    assert result.ledger.reward_calls == 4 + 4 + 2 == rew.calls
    assert result.ledger.generator_by_stage == {
        "summary": 1,
        "caption": 4,
        "reasoning": 4,
        "conclusion": 2,
    }


def test_beam_equal_m_and_n_keeps_all():
    sim = _world()
    cfg = SearchConfig(candidates_per_stage=2, beam_width=2)
    result = stage_wise_beam("q", cfg, sim, sim, run_seed=0)
    selects = [e for e in result.trace.events if e["event"] == "select"]
    for event in selects:
        assert len(event["kept"]) == 2  # no pruning when M == N


def test_beam_scores_summaries_when_multiple():
    sim = _world()
    gen, rew = CountingGenerator(sim), CountingScorer(sim)
    cfg = SearchConfig(summary_candidates=3)
    result = stage_wise_beam("q", cfg, gen, rew, run_seed=0)
    assert result.ledger.generator_by_stage["summary"] == 3
    assert result.ledger.reward_by_stage["summary"] == 3


def test_beam_separating_reward_optimality():
    # With zero noise, whenever any generated conclusion is correct (score
    # 1.0) the returned answer must be correct: argmax never prefers an
    # incorrect candidate over a correct one.
    sim = _world(noise_std=0.0)
    answered_incorrectly = 0
    for i in range(200):
        result = stage_wise_beam(f"q{i}", SearchConfig(), sim, sim, run_seed=i)
        conclusion_scores = [
            e["score"]
            for e in result.trace.events
            if e["event"] == "score" and e["stage"] == "conclusion"
        ]
        if any(s == 1.0 for s in conclusion_scores):
            assert oracle_correct(result.final_text) is True
        else:
            answered_incorrectly += 1
            assert oracle_correct(result.final_text) is False
    assert 0 < answered_incorrectly < 200  # both branches exercised


def test_beam_deterministic_and_parallelism_invariant():
    sim = _world()
    cfg = SearchConfig()
    a = stage_wise_beam("q", cfg, sim, sim, run_seed=9, parallelism=1)
    b = stage_wise_beam("q", cfg, sim, sim, run_seed=9, parallelism=4)
    assert a.answer == b.answer
    assert a.trace.events_jsonl() == b.trace.events_jsonl()
    assert a.ledger.counts_dict() == b.ledger.counts_dict()


class _InFlightTap(Generator, RewardScorer):
    """``inner`` behind a short wait; records the calls in flight and the threads making them."""

    def __init__(self, inner):
        self.inner = inner
        self.lock = threading.Lock()
        self.in_flight = self.peak = 0
        self.threads = set()

    def _call(self, method, request):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            self.threads.add(threading.current_thread().name)
        try:
            time.sleep(0.005)
            return method(request)
        finally:
            with self.lock:
                self.in_flight -= 1

    def generate(self, request):
        return self._call(self.inner.generate, request)

    def score(self, request):
        return self._call(self.inner.score, request)


@pytest.mark.parametrize("parallelism", [2, 3, 4])
def test_search_calls_in_flight_stay_within_parallelism(parallelism):
    sim = _world()
    tap = _InFlightTap(sim)
    result = swires("q", SearchConfig(), tap, tap, run_seed=9, parallelism=parallelism)
    assert 1 < tap.peak <= parallelism
    # The calling thread makes calls too, beside one pool of parallelism - 1 helpers.
    assert threading.current_thread().name in tap.threads
    assert len(tap.threads) <= parallelism
    want = swires("q", SearchConfig(), sim, sim, run_seed=9)
    assert result.trace.events_jsonl() == want.trace.events_jsonl()
    assert result.ledger.counts_dict() == want.ledger.counts_dict()


@pytest.mark.parametrize("strategy", [best_of_n, stage_wise_beam, swires, run_strategy], ids=lambda f: f.__name__)
def test_search_defaults_to_run_seed_0_and_one_call_at_a_time(strategy):
    sim = _world()
    tap = _InFlightTap(sim)
    result = strategy("q", SearchConfig(), tap, tap)
    want = strategy("q", SearchConfig(), sim, sim, run_seed=0, parallelism=1)
    assert result.trace.to_jsonl() == want.trace.to_jsonl()
    assert result.ledger.counts_dict() == want.ledger.counts_dict()
    assert tap.peak == 1 and tap.threads == {threading.current_thread().name}


def _engine(parallelism):
    sim = _world()
    return search._Engine("q", SearchConfig(), sim, sim, None, 0, False, parallelism)


def test_run_calls_runs_on_the_calling_thread_and_one_helper_pool():
    barrier = threading.Barrier(2, timeout=10)

    def call(i):
        barrier.wait()  # passes only with two calls in flight at once
        return i, threading.current_thread().name

    before = threading.active_count()
    with _engine(2) as engine:
        tally = engine.ledger.tally_generate
        results = engine.run_calls(call, list(range(4)), tally, "x")
        results += engine.run_calls(call, [4, 5], tally, "x")
    assert [i for i, _ in results] == list(range(6))
    assert engine.ledger.generator_by_stage == {"x": 6}
    names = {name for _, name in results}
    assert threading.current_thread().name in names and len(names) == 2
    assert threading.active_count() == before


def test_run_calls_starts_no_call_after_a_failure_and_raises_the_earliest():
    started, finished = [], []

    def call(i):
        started.append(i)
        if i == 0:
            time.sleep(0.05)
            finished.append(i)
            raise ValueError("slot 0")
        if i == 1:
            raise ValueError("slot 1")
        return i

    with _engine(2) as engine:
        with pytest.raises(ValueError, match="slot 0"):
            engine.run_calls(call, list(range(6)), engine.ledger.tally_score, "x")
    # Slot 1 fails first, while slot 0 still runs; slot 0 finishes and its error wins.
    assert sorted(started) in ([0], [0, 1])
    assert finished == [0]
    assert engine.ledger.reward_by_stage == {"x": len(started)}


class _FailingTap(Generator, RewardScorer):
    """The sim behind a tally, by stage, of the calls that enter it.

    A generate call whose seed is in ``fail_generate`` raises, and so does a
    score call of a block generated with a seed in ``fail_score``: the sim's
    block text carries its seed.
    """

    def __init__(self, inner, fail_generate=(), fail_score=()):
        self.inner = inner
        self.fail_generate = set(fail_generate)
        self.fail_score = [f"{seed:016x}-0" for seed in fail_score]
        self.lock = threading.Lock()
        self.generated, self.scored = {}, {}

    def generate(self, request):
        stage = request.target_stages[0].value
        with self.lock:
            self.generated[stage] = self.generated.get(stage, 0) + 1
        if request.seed in self.fail_generate:
            raise TransportError("generator down")
        return self.inner.generate(request)

    def score(self, request):
        last = request.trajectory.blocks[-1]
        with self.lock:
            self.scored[last.kind.value] = self.scored.get(last.kind.value, 0) + 1
        if any(mark in last.text for mark in self.fail_score):
            raise TransportError("scorer down")
        return self.inner.score(request)


@pytest.mark.parametrize("parallelism", [1, 2, 4])
@pytest.mark.parametrize(
    "call, slots",
    [
        ("generate", [(_C, 0)]),
        ("generate", [(_C, 2)]),
        ("generate", [(_C, 1), (_C, 3)]),
        ("generate", [(_R, 3)]),
        ("generate", [(_F, 1)]),
        ("score", [(_C, 1)]),
        ("score", [(_R, 0)]),
        ("score", [(_R, 2), (_R, 3)]),
        ("score", [(_F, 0)]),
    ],
)
def test_ledger_of_a_failed_search_counts_exactly_the_calls_that_entered(parallelism, call, slots):
    # Pass-0 slots of one batch fail; every call a runner took is counted,
    # the failing ones too, and no call that never started.
    seeds = [stable_u64("9", text_digest("q"), stage.value, "0", str(slot)) for stage, slot in slots]
    tap = _FailingTap(_world(), **{f"fail_{call}": seeds})
    with pytest.raises(TransportError) as failure:
        swires("q", SearchConfig(), tap, tap, run_seed=9, parallelism=parallelism)
    ledger = failure.value.ledger
    assert ledger.generator_by_stage == tap.generated
    assert ledger.reward_by_stage == tap.scored
    assert ledger.generator_calls == sum(tap.generated.values())
    assert ledger.reward_calls == sum(tap.scored.values())
    if parallelism == 1:  # calls run in slot order, so the batch stops at its first failure
        stage, slot = slots[0]
        assert (tap.generated if call == "generate" else tap.scored)[stage.value] == slot + 1


class _SeedTap(Generator, RewardScorer):
    """The sim, recording each generate request's seed by the digest of its reply."""

    def __init__(self, inner):
        self.inner = inner
        self.lock = threading.Lock()
        self.seeds = {}

    def generate(self, request):
        raw = self.inner.generate(request)
        with self.lock:
            self.seeds[text_digest(raw)] = request.seed
        return raw

    def score(self, request):
        return self.inner.score(request)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_every_generate_call_is_seeded_by_run_question_stage_pass_and_slot(strategy):
    tap = _SeedTap(_world())
    cfg = SearchConfig(strategy=strategy, stats=NEVER_PASS, summary_candidates=2)
    result = run_strategy("seeded question", cfg, tap, tap, run_seed=11, parallelism=3)
    qdigest = result.trace.header["question_digest"]
    events = [e for e in result.trace.events if e["event"] == "generate"]
    # The sim's replies carry their seed, so distinct seeds give distinct digests.
    assert len(events) == len(tap.seeds) == result.ledger.generator_calls
    if strategy is Strategy.SWIRES:  # every pass retraces, up to the pass bound
        assert {e["pass"] for e in events} == set(range(cfg.max_passes))
    for e in events:
        # Best-of-N logs its calls under "response" and seeds them by the first stage.
        stage = cfg.pipeline[0].value if e["stage"] == "response" else e["stage"]
        want = stable_u64("11", qdigest, stage, str(e["pass"]), str(e["slot"]))
        assert tap.seeds[e["output_digest"]] == want, e


class _DownAtReasoning(RewardScorer):
    def __init__(self, inner):
        self.inner = inner

    def score(self, request):
        if request.trajectory.blocks[-1].kind is StageKind.REASONING:
            raise TransportError("scorer down")
        return self.inner.score(request)


def test_search_stops_its_helper_threads_whether_it_succeeds_or_fails():
    sim = _world()
    before = threading.active_count()
    swires("q", SearchConfig(), sim, sim, parallelism=4)
    assert threading.active_count() == before
    with pytest.raises(TransportError) as info:
        swires("q", SearchConfig(), sim, _DownAtReasoning(sim), parallelism=4)
    assert threading.active_count() == before
    # 4 caption scores, then the first reasoning score fails and the other three may start.
    assert 5 <= info.value.ledger.reward_calls <= 8


def test_beam_reduced_pipeline_single_stage_equals_best_of_m():
    sim = SimWorld(
        SimWorldConfig(success={StageKind.CONCLUSION: 0.5}, noise_std=0.8, rng_seed=9)
    )
    pipe = (StageKind.CONCLUSION,)
    cfg = SearchConfig(candidates_per_stage=4, beam_width=1, pipeline=pipe)
    for seed in range(25):
        rb = stage_wise_beam("single", cfg, sim, sim, run_seed=seed, collect_trace=False)
        rn = best_of_n("single", replace(cfg, beam_width=4), sim, sim, run_seed=seed, collect_trace=False)
        assert rb.answer == rn.answer


def test_beam_exhausts_when_everything_fails_to_parse():
    # A continuation is unparseable only when it embeds another tag string.
    gen = ScriptedGenerator(["</CAPTION> stray close tag"])
    with pytest.raises(SearchExhaustedError):
        stage_wise_beam("q", SearchConfig(), gen, ScriptedScorer([0.0]))


# ---------------------------------------------------------------------------
# swires
# ---------------------------------------------------------------------------


def test_swires_first_pass_accept_eleven_calls():
    sim = _world()
    gen, rew = CountingGenerator(sim), CountingScorer(sim)
    cfg = SearchConfig(stats=ALWAYS_PASS)
    result = swires("q", cfg, gen, rew, run_seed=0)
    assert gen.calls == 11 == result.ledger.generator_calls
    assert rew.calls == 10 == result.ledger.reward_calls
    assert not [e for e in result.trace.events if e["event"] == "retrace"]


def test_swires_never_pass_twenty_seven_calls():
    sim = _world()
    gen, rew = CountingGenerator(sim), CountingScorer(sim)
    cfg = SearchConfig(stats=NEVER_PASS)
    result = swires("q", cfg, gen, rew, run_seed=0)
    assert gen.calls == 27 == result.ledger.generator_calls
    retraces = [e for e in result.trace.events if e["event"] == "retrace"]
    assert len(retraces) == 2  # a third pass runs but no further retrace fires
    assert all(e["threshold"] == backtrack_cutoff(NEVER_PASS, 0.2533) for e in retraces)


def test_swires_caption_always_wrong_retraces_to_limit():
    sim = _world(success={StageKind.CAPTION: 0.0}, noise_std=0.0)
    gen = CountingGenerator(sim)
    # Cutoff strictly between the means: passes require a correct reasoning.
    cfg = SearchConfig(stats=CalibrationStats(0.0, 0.0))
    result = swires("q", cfg, gen, sim, run_seed=0)
    assert gen.calls == 27
    assert oracle_correct(result.final_text) is False


def test_swires_trace_identical_to_beam_when_cutoff_never_fires():
    sim = _world()
    cfg = SearchConfig(stats=ALWAYS_PASS)
    for seed in (0, 7, 123):
        rs = swires("q", cfg, sim, sim, run_seed=seed)
        rb = stage_wise_beam("q", cfg, sim, sim, run_seed=seed)
        assert rs.trace.events_jsonl() == rb.trace.events_jsonl()
        assert rs.answer == rb.answer
        assert rs.ledger.generator_calls == rb.ledger.generator_calls


def test_swires_c_zero_trace_identical_to_beam_under_dispatch():
    sim = _world()
    base = SearchConfig(retrace_limit=0, stats=NEVER_PASS)
    rs = run_strategy("q", base, sim, sim, run_seed=11)
    rb = run_strategy(
        "q",
        SearchConfig(strategy=Strategy.STAGE_BEAM, retrace_limit=0, stats=NEVER_PASS),
        sim,
        sim,
        run_seed=11,
    )
    assert rs.trace.events_jsonl() == rb.trace.events_jsonl()
    assert rs.answer == rb.answer


def test_swires_pool_monotonicity():
    # The final selected reasoning score is at least the best first-pass
    # reasoning score: the pool only grows and selection is argmax.
    sim = _world()
    cfg = SearchConfig(stats=CalibrationStats(0.9, 0.0))  # often forces retraces
    for seed in range(30):
        result = swires("q", cfg, sim, sim, run_seed=seed)
        scores = [
            e["score"]
            for e in result.trace.events
            if e["event"] == "score" and e["stage"] == "reasoning"
        ]
        first_pass_best = max(scores[:4])
        kept_event = [
            e
            for e in result.trace.events
            if e["event"] == "select" and e["stage"] == "reasoning"
        ][-1]
        kept_births = [tuple(b) for b in kept_event["kept"]]
        by_birth = {
            tuple(e["birth"]): e["score"]
            for e in result.trace.events
            if e["event"] == "score" and e["stage"] == "reasoning"
        }
        assert max(by_birth[b] for b in kept_births) >= first_pass_best


def test_swires_min_pass_count_two_requires_two_clearing():
    sim = _world(noise_std=0.0, success={StageKind.CAPTION: 1.0, StageKind.REASONING: 0.5})
    cfg = SearchConfig(min_pass_count=2, stats=CalibrationStats(0.0, 0.0))
    gen = CountingGenerator(sim)
    result = swires("q", cfg, gen, sim, run_seed=2)
    # Each pass accepts only when >= 2 of its 4 reasonings score above 0.
    events = result.trace.events
    per_pass = {}
    for e in events:
        if e["event"] == "score" and e["stage"] == "reasoning":
            per_pass.setdefault(e["pass"], []).append(e["score"])
    last = max(per_pass)
    for p, scores in per_pass.items():
        cleared = sum(1 for s in scores if s > 0.0)
        if p < last:
            assert cleared < 2  # earlier passes must have failed the predicate
    assert gen.calls == result.ledger.generator_calls


def test_swires_cutoff_strictly_greater():
    # Scores exactly equal to the cutoff do not clear it.
    sim = _world(noise_std=0.0)  # correct reasoning scores exactly 1.0
    cfg = SearchConfig(stats=CalibrationStats(1.0, 0.0))
    result = swires("q", cfg, sim, sim, run_seed=4)
    assert result.ledger.generator_calls == 27  # never accepted


def test_swires_pass_ending_before_its_pool_stage_clears_none():
    # Every caption of pass 0 fails to parse, so that pass scores no reasoning:
    # its retrace reports 0 cleared, though any reasoning would have cleared.
    sim = _world()
    cfg = SearchConfig(stats=CalibrationStats(-100.0, 0.0))

    class BrokenFirstCaptions(Generator):
        captions = 0

        def generate(self, request):
            if request.target_stages == (StageKind.CAPTION,):
                self.captions += 1
                if self.captions <= cfg.candidates_per_stage:
                    return "</CAPTION> broken"
            return sim.generate(request)

    events = swires("q", cfg, BrokenFirstCaptions(), sim, run_seed=0).trace.events
    assert [(e["pass"], e["cleared"]) for e in events if e["event"] == "retrace"] == [(0, 0)]
    kept = [e for e in events if e["event"] == "select" and e["stage"] == "reasoning"][-1]
    assert kept["pass"] == 1 and {birth[0] for birth in kept["kept"]} == {1}
    assert events[-1]["event"] == "answer"


def test_swires_main_text_semantics_pass_budget():
    sim = _world()
    cfg = SearchConfig(
        retrace_limit=1, loop_semantics=LoopSemantics.MAIN_TEXT, stats=NEVER_PASS
    )
    result = swires("q", cfg, sim, sim, run_seed=0)
    # Initial pass + one retrace: 1 + 2*(M+M) + N at defaults.
    assert result.ledger.generator_calls == 1 + 2 * 8 + 2


@pytest.mark.parametrize("strategy", list(Strategy))
def test_search_parallelism_below_one_raises_before_any_call(strategy):
    sim = _world()
    gen, rew = CountingGenerator(sim), CountingScorer(sim)
    with pytest.raises(ConfigError, match=r"^parallelism must be >= 1$"):
        run_strategy("q", SearchConfig(strategy=strategy), gen, rew, parallelism=0)
    assert gen.calls == rew.calls == 0


def test_searches_share_one_signature():
    assert inspect.signature(best_of_n) == inspect.signature(stage_wise_beam) == inspect.signature(swires)


def test_run_strategy_dispatch_and_seeding_discipline():
    sim = _world()
    cfg = SearchConfig(strategy=Strategy.BEST_OF_N, candidates_per_stage=2, beam_width=2)
    direct = best_of_n("q", cfg, sim, sim, run_seed=3)
    routed = run_strategy("q", cfg, sim, sim, run_seed=3)
    assert direct.answer == routed.answer
    assert direct.trace.events_jsonl() == routed.trace.events_jsonl()


def test_results_are_bit_identical_across_runs():
    sim = _world()
    for cfg in (
        SearchConfig(strategy=Strategy.SWIRES),
        SearchConfig(strategy=Strategy.STAGE_BEAM),
        SearchConfig(strategy=Strategy.BEST_OF_N, candidates_per_stage=4, beam_width=4),
    ):
        a = run_strategy("q", cfg, sim, sim, run_seed=77)
        b = run_strategy("q", cfg, sim, sim, run_seed=77)
        assert a.answer == b.answer
        assert a.trace.to_jsonl() == b.trace.to_jsonl()
        assert a.ledger.counts_dict() == b.ledger.counts_dict()


# Non-ASCII text, a quote, a backslash, control characters and a lone surrogate.
_BAD_REPLY = '!bad \u00e9"\\ \x00\x1f\x7f\u2028 \ud800'
_WHOLE_REPLY = "<SUMMARY>s</SUMMARY><CAPTION>c</CAPTION><REASONING>r</REASONING><CONCLUSION>good"


class _AwkwardGenerator(Generator):
    """Every third reply is ``_BAD_REPLY``; the rest parse."""

    def __init__(self):
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        if self.calls % 3 == 2:
            return _BAD_REPLY
        return _WHOLE_REPLY if len(request.target_stages) > 1 else f"text {self.calls}"


class _AwkwardScorer(ScriptedScorer):
    """Cycles through scores of every JSON number form the trace may hold."""

    def score(self, request):
        self.calls += 1
        return self.scores[self.calls % len(self.scores)]


def _quoting_errors(parse):
    """``parse``, except that a reply starting "!" fails with an error quoting it verbatim."""

    def wrapped(raw, *args):
        if raw.startswith("!"):
            raise StageFormatError(raw)
        return parse(raw, *args)

    return wrapped


_STAGE_EVENTS = {"generate", "score", "select", "answer"}


@pytest.mark.parametrize(
    "cfg, kinds",
    [
        (SearchConfig(strategy=Strategy.BEST_OF_N, beam_width=6), {"generate", "score", "answer"}),
        (SearchConfig(strategy=Strategy.STAGE_BEAM), _STAGE_EVENTS),
        # A lone unscored summary is the answer, so its score is null.
        (SearchConfig(strategy=Strategy.STAGE_BEAM, pipeline=(StageKind.SUMMARY,)), {"generate", "answer"}),
        (SearchConfig(strategy=Strategy.SWIRES, stats=NEVER_PASS), _STAGE_EVENTS | {"retrace"}),
        (SearchConfig(strategy=Strategy.SWIRES, stats=CalibrationStats(float("inf"), 0.0)),
         _STAGE_EVENTS | {"retrace"}),
        (SearchConfig(strategy=Strategy.SWIRES, stats=CalibrationStats(float("nan"), 0.0)),
         _STAGE_EVENTS | {"retrace"}),
    ],
    ids=["best_of_n", "beam", "beam-unscored-answer", "swires", "swires-inf-cutoff", "swires-nan-cutoff"],
)
def test_trace_lines_are_canonical_json_of_their_events(monkeypatch, cfg, kinds):
    # The parse error quotes the reply as it came, lone surrogate included,
    # so the digest of the reply is taken over its UTF-8 bytes with surrogates passed.
    monkeypatch.setattr(search, "parse_stage_continuation", _quoting_errors(search.parse_stage_continuation))
    monkeypatch.setattr(search, "parse_complete_continuation", _quoting_errors(search.parse_complete_continuation))
    monkeypatch.setattr(
        search, "text_digest", lambda text: text_digest(text.encode("utf-8", "surrogatepass").decode("latin-1"))
    )
    scores = [-0.0, 1e300, 7, True, 0.1, -1e-300, float("inf"), float("nan"), 0]
    result = run_strategy("q \u00e9", cfg, _AwkwardGenerator(), _AwkwardScorer(scores), run_seed=3)
    trace = result.trace
    lines = trace.events_jsonl().split("\n")
    assert trace.to_jsonl().split("\n")[1:] == lines
    assert trace.to_jsonl().split("\n")[0] == search._TRACE_ENCODER.encode({"record": "header", **trace.header})
    for line in lines:
        assert search._TRACE_ENCODER.encode(json.loads(line)) == line
    events = trace.events
    assert events == [json.loads(line) for line in trace.events_jsonl().splitlines()]
    assert [e["seq"] for e in events] == list(range(len(events)))
    errors = {e["parse_error"] for e in events if "parse_error" in e}
    assert errors == ({"StageFormatError: " + _BAD_REPLY} if "score" in kinds else set())
    assert {e["event"] for e in events} == kinds
    for event in events:
        if event["event"] == "retrace":
            assert repr(event["threshold"]) == repr(cfg.cutoff)
        if event["event"] == "answer" and "score" not in kinds:
            assert event["score"] is None


def _header_line(trace):
    return trace.to_jsonl().split("\n")[0]


def _encoded_header(trace):
    return search._TRACE_ENCODER.encode({"record": "header", **trace.header})


def test_trace_headers_of_configs_differing_in_one_field_stay_apart():
    # Equal configs can encode apart (1 and 1.0), so neither may write the other's JSON.
    sim = _world()
    configs = [
        SearchConfig(),
        SearchConfig(beam_width=4),
        SearchConfig(cutoff_zscore=1),
        SearchConfig(cutoff_zscore=1.0),
        SearchConfig(stats=CalibrationStats(0.5, -0.0)),
        SearchConfig(stats=CalibrationStats(0.5, 0.0)),
        SearchConfig(pipeline=(StageKind.CAPTION, StageKind.CONCLUSION)),
    ]
    assert configs[2] == configs[3] and configs[4] == configs[5]
    for _ in range(2):
        traces = [run_strategy("q", cfg, sim, sim, run_seed=5).trace for cfg in configs]
        lines = [_header_line(trace) for trace in traces]
        for trace, line in zip(traces, lines):
            assert line == _encoded_header(trace)
        assert len(set(lines)) == len(configs)
    assert '"cutoff_zscore":1,' in lines[2] and '"cutoff_zscore":1.0,' in lines[3]
    assert '"reward_std":-0.0,' in lines[4] and '"reward_std":0.0,' in lines[5]


def test_trace_header_is_a_decoded_copy_of_its_line():
    sim = _world()
    trace = run_strategy("q", SearchConfig(cutoff_zscore=1), sim, sim, run_seed=5).trace
    written = trace.to_jsonl()
    header = trace.header
    assert header == json.loads(_header_line(trace)) and header["record"] == "header"
    header["config"]["beam_width"] = 2.0
    header["run_seed"] = 6
    assert trace.header != header and trace.to_jsonl() == written


@pytest.mark.parametrize(
    "change",
    [
        lambda h: h["config"].update(beam_width=2.0),
        lambda h: h["config"].update(reward_std=-0.0),
        lambda h: h["config"].update(cutoff_zscore=True),
        lambda h: h["config"]["pipeline"].append("extra"),
        lambda h: h["config"]["pipeline"].__setitem__(0, "Caption"),
        lambda h: h["config"].update(extra=1),
        lambda h: h["config"].pop("beam_width"),
        lambda h: h.update(config=tuple(h["config"])),
        lambda h: h.update(record="mine"),
        lambda h: h.update(run_seed=5.0),
        lambda h: h.update(strategy=None),
        lambda h: h.pop("question_digest"),
        lambda h: h.update(note="a"),
    ],
    ids=[
        "int-as-float", "zero-as-minus-zero", "float-as-bool", "stage-added", "stage-renamed",
        "config-key-added", "config-key-removed", "config-not-a-dict", "record-key", "seed-as-float",
        "strategy-none", "header-key-removed", "header-key-added",
    ],
)
def test_trace_header_edited_leaves_the_made_trace_unchanged(change):
    # Editing the decoded copy leaves the made trace as it was.
    sim = _world()
    cfg = SearchConfig(stats=CalibrationStats(0.5, 0.0), cutoff_zscore=1)
    trace = run_strategy("q", cfg, sim, sim, run_seed=5).trace
    made = _header_line(trace)
    header = trace.header
    change(header)
    assert _header_line(trace) == made == _encoded_header(trace)


def test_trace_takes_its_header_as_a_line_not_a_dict():
    with pytest.raises(TypeError, match="header line as a str, got dict"):
        SearchTrace({"strategy": "swires"})


def test_trace_round_trips_through_file(tmp_path):
    sim = _world()
    result = run_strategy("q", SearchConfig(), sim, sim, run_seed=5)
    path = tmp_path / "trace.jsonl"
    result.trace.write(path)
    header, events = type(result.trace).read(path)
    assert header["strategy"] == "swires"
    assert len(events) == len(result.trace.events)
    assert events[0]["event"] == "generate"


@pytest.mark.parametrize("parallelism", [1, 3])
@pytest.mark.parametrize("strategy", list(Strategy))
def test_trace_takes_its_digests_when_written(monkeypatch, strategy, parallelism):
    # A traced search digests only its question. The trace digests each reply,
    # and each distinct parent's input once, when it is serialized.
    digested, rendered = [], []

    def digest(text):
        digested.append(text)
        return text_digest(text)

    def render(trajectory):
        rendered.append(trajectory)
        return render_staged(trajectory)

    monkeypatch.setattr(search, "text_digest", digest)
    monkeypatch.setattr(search, "render_staged", render)
    sim = _world()
    cfg = SearchConfig(strategy=strategy, stats=NEVER_PASS)  # SWIRES runs every pass
    result = run_strategy("digested question", cfg, sim, sim, run_seed=7, parallelism=parallelism)
    assert (digested, rendered) == (["digested question"], [])

    del digested[:]
    events = [json.loads(line) for line in result.trace.to_jsonl().split("\n")[1:]]
    generated = [e for e in events if e["event"] == "generate"]
    parents = {None if e["parent"] is None else tuple(e["parent"]) for e in generated}
    assert len(digested) == len(generated) + len(parents)
    assert len(rendered) == len(parents)
    if strategy is Strategy.SWIRES:
        # Every pass extends the same summaries: their inputs are digested once.
        assert sum(e["event"] == "retrace" for e in events) == cfg.max_passes - 1 > 0


def test_log_records_mixed_with_engine_batches_take_their_line_index(monkeypatch):
    traces = []
    make_trace = search._make_trace

    def keep_trace(*args):
        traces.append(make_trace(*args))
        return traces[-1]

    monkeypatch.setattr(search, "_make_trace", keep_trace)
    sim = _world()

    class Noting(Generator):
        """Logs a note into the search's trace at each call, in the middle of its batch."""

        def generate(self, request):
            traces[-1].log("note", {"stage": request.target_stages[0].value})
            return sim.generate(request)

    cfg = SearchConfig(stats=NEVER_PASS)
    result = swires("q", cfg, Noting(), sim, run_seed=2)
    events = [json.loads(line) for line in result.trace.to_jsonl().split("\n")[1:]]
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert events[0]["event"] == "note"  # a batch is logged once it is done
    assert sum(e["event"] == "note" for e in events) == result.ledger.generator_calls

    def unnumbered(events):
        return [{k: v for k, v in e.items() if k != "seq"} for e in events if e["event"] != "note"]

    plain = swires("q", cfg, sim, sim, run_seed=2).trace.events
    assert unnumbered(events) == unnumbered(plain)


@pytest.mark.parametrize("bad_line", ["{bad", "[1]"])
def test_trace_read_names_file_and_line_of_a_bad_line(tmp_path, bad_line):
    path = tmp_path / "trace.jsonl"
    _trace_of(3).write(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(bad_line + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: bad trace record: "):
        SearchTrace.read(path)


def _trace_of(events: int) -> SearchTrace:
    trace = search._make_trace(SearchConfig(), "d", events)
    for i in range(events):
        trace.log("generate", {"stage": "caption", "text": "é" * 40 + str(i)})
    return trace


def test_trace_write_short_over_longer_file_cuts_to_length(tmp_path):
    path = tmp_path / "trace.jsonl"
    _trace_of(30).write(path)
    inode = path.stat().st_ino
    short = _trace_of(2)
    short.write(path)
    assert path.read_bytes() == (short.to_jsonl() + "\n").encode("utf-8")
    assert path.stat().st_ino == inode


def test_trace_write_long_over_shorter_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"old bytes\n")
    long = _trace_of(30)
    long.write(path)
    assert path.read_bytes() == (long.to_jsonl() + "\n").encode("utf-8")


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_trace_write_new_file_mode_matches_open_w(tmp_path, umask):
    trace = _trace_of(3)
    old = os.umask(umask)
    try:
        trace.write(tmp_path / "trace.jsonl")
        with open(tmp_path / "reference", "w"):
            pass
    finally:
        os.umask(old)
    assert (tmp_path / "trace.jsonl").read_bytes() == (trace.to_jsonl() + "\n").encode("utf-8")
    assert (tmp_path / "trace.jsonl").stat().st_mode == (tmp_path / "reference").stat().st_mode


def test_trace_replay_reproduces_answer():
    # Re-running the strategy named in a trace header against the same sim
    # world and seed reproduces the same final answer.
    sim = _world()
    cfg = SearchConfig()
    result = run_strategy("replayable", cfg, sim, sim, run_seed=13)
    header = result.trace.header
    assert header["run_seed"] == 13
    again = run_strategy("replayable", cfg, sim, sim, run_seed=header["run_seed"])
    assert again.final_text == result.final_text
    assert again.trace.events_jsonl() == result.trace.events_jsonl()


def test_collect_trace_false_keeps_ledger():
    sim = _world()
    result = run_strategy("q", SearchConfig(), sim, sim, run_seed=1, collect_trace=False)
    assert result.trace is None
    assert result.ledger.generator_calls >= 11


# ---------------------------------------------------------------------------
# Over HTTP
# ---------------------------------------------------------------------------

_CLOSING = {DEFAULT_SCHEMA.close(kind): kind for kind in CANONICAL_ORDER}


def _sim_replies(sim, scored):
    """Generator and reward reply functions that rebuild each request from its body.

    Each rebuilt reward request is appended to ``scored``.
    """

    def generate(body):
        messages = body["messages"]
        prefix = next((m["content"] for m in messages if m["role"] == "assistant"), "")
        stop = body["stop"][0]
        request = GeneratorRequest(
            question=next(m["content"] for m in messages if m["role"] == "user"),
            target_stages=(_CLOSING[stop],),
            prior_stages=parse_staged(prefix),
            sampling=SamplingParams(stop=stop),
            seed=body["seed"],
        )
        return 200, {"choices": [{"message": {"content": sim.generate(request)}}]}

    def score(body):
        request = RewardRequest(body["question"], parse_staged(body["response"]))
        scored.append(request)
        return 200, {"score": sim.score(request)}

    return generate, score


class _WireSeeds(Generator):
    """``sim`` with each seed reduced mod 2**63, as ``HttpGenerator`` sends it."""

    def __init__(self, sim):
        self.sim = sim

    def generate(self, request):
        return self.sim.generate(replace(request, seed=request.seed % 2**63))


@pytest.mark.parametrize("parallelism", [1, 4])
def test_http_swires_equals_in_process_search(stub_server, parallelism):
    sim = _world(success=0.7)  # a wrong summary too, so the prior stages matter
    wire_scored = []
    gen_server, reward_server = (
        stub_server(fn, keep_alive=True) for fn in _sim_replies(sim, wire_scored)
    )
    generator = HttpGenerator(EndpointConfig(gen_server.url, retries=0))
    reward = HttpRewardScorer(EndpointConfig(reward_server.url, retries=0))
    local = CountingScorer(sim)
    retraced = 0
    try:
        for question in ("a", "question 11"):
            want = swires(question, SearchConfig(), _WireSeeds(sim), local, run_seed=11)
            got = swires(
                question, SearchConfig(), generator, reward, run_seed=11, parallelism=parallelism
            )
            assert got.answer == want.answer
            assert got.ledger.counts_dict() == want.ledger.counts_dict()
            assert got.trace.events_jsonl() == want.trace.events_jsonl()
            retraced += sum(e["event"] == "retrace" for e in want.trace.events)
    finally:
        generator.close()
        reward.close()
    assert retraced > 0  # the retrace path went over the wire too
    # SimWorld scores only the last block, so equal answers cannot show a
    # client that sends less: compare the whole trajectories scored.
    def sent(requests):
        return sorted((r.question, render_staged(r.trajectory)) for r in requests)

    assert sent(wire_scored) == sent(local.requests)

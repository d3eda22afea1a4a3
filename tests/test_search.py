import os
import random
import re
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
    RewardRequest,
    SamplingParams,
    SimWorld,
    SimWorldConfig,
    oracle_correct,
)
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
    result = best_of_n("q", 1, gen, rew, run_seed=1)
    assert gen.calls == 1 and rew.calls == 1
    assert result.ledger.generator_calls == 1
    assert result.ledger.reward_calls == 1
    assert result.answer.is_complete


def test_best_of_n_ledger_counts_exact():
    sim = _world()
    gen, rew = CountingGenerator(sim), CountingScorer(sim)
    result = best_of_n("q", 5, gen, rew, run_seed=1)
    assert (gen.calls, rew.calls) == (5, 5)
    assert (result.ledger.generator_calls, result.ledger.reward_calls) == (5, 5)


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
        many = best_of_n(f"q{i}", 6, sim, sim, run_seed=i, collect_trace=False)
        one = best_of_n(f"q{i}", 1, sim, sim, run_seed=i, collect_trace=False)
        assert many.final_text == one.final_text


def test_best_of_n_parse_failure_scores_neg_inf():
    replies = [
        "<SUMMARY>s</SUMMARY><CAPTION>c</CAPTION><REASONING>r</REASONING><CONCLUSION>good",
        "garbage with no tags",
    ]
    gen = ScriptedGenerator(replies)
    rew = ScriptedScorer([0.5])
    result = best_of_n("q", 2, gen, rew)
    assert result.final_text == "good"
    assert rew.calls == 1  # the unparseable candidate never reaches the scorer
    failures = [e for e in result.trace.events if e.get("parse_error")]
    assert any(e["event"] == "score" and e["score"] == float("-inf") for e in failures)


def test_best_of_n_all_parse_failures_exhausts():
    gen = ScriptedGenerator(["junk"])
    with pytest.raises(SearchExhaustedError):
        best_of_n("q", 3, gen, ScriptedScorer([0.0]))


def test_best_of_n_requires_positive_n():
    with pytest.raises(ConfigError):
        best_of_n("q", 0, _world(), _world())


def test_run_strategy_best_of_n_reports_the_config_problem():
    # The engine validates the config before best_of_n checks its own n.
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


def test_beam_reduced_pipeline_single_stage_equals_best_of_m():
    sim = SimWorld(
        SimWorldConfig(success={StageKind.CONCLUSION: 0.5}, noise_std=0.8, rng_seed=9)
    )
    pipe = (StageKind.CONCLUSION,)
    cfg = SearchConfig(candidates_per_stage=4, beam_width=1, pipeline=pipe)
    for seed in range(25):
        rb = stage_wise_beam("single", cfg, sim, sim, run_seed=seed, collect_trace=False)
        rn = best_of_n("single", 4, sim, sim, cfg=cfg, run_seed=seed, collect_trace=False)
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


def test_swires_main_text_semantics_pass_budget():
    sim = _world()
    cfg = SearchConfig(
        retrace_limit=1, loop_semantics=LoopSemantics.MAIN_TEXT, stats=NEVER_PASS
    )
    result = swires("q", cfg, sim, sim, run_seed=0)
    # Initial pass + one retrace: 1 + 2*(M+M) + N at defaults.
    assert result.ledger.generator_calls == 1 + 2 * 8 + 2


def test_run_strategy_dispatch_and_seeding_discipline():
    sim = _world()
    cfg = SearchConfig(strategy=Strategy.BEST_OF_N, candidates_per_stage=2, beam_width=2)
    direct = best_of_n("q", 2, sim, sim, cfg=cfg, run_seed=3)
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


def test_trace_round_trips_through_file(tmp_path):
    sim = _world()
    result = run_strategy("q", SearchConfig(), sim, sim, run_seed=5)
    path = tmp_path / "trace.jsonl"
    result.trace.write(path)
    header, events = type(result.trace).read(path)
    assert header["strategy"] == "swires"
    assert len(events) == len(result.trace.events)
    assert events[0]["event"] == "generate"


@pytest.mark.parametrize("bad_line", ["{bad", "[1]"])
def test_trace_read_names_file_and_line_of_a_bad_line(tmp_path, bad_line):
    path = tmp_path / "trace.jsonl"
    _trace_of(3).write(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(bad_line + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: bad trace record: "):
        SearchTrace.read(path)


def _trace_of(events: int) -> SearchTrace:
    trace = SearchTrace({"strategy": "swires", "run_seed": events})
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

"""Acceptance suite: one test per exit criterion, printing PASS/FAIL lines.

Statistical criteria run at full scale by default (>=1e5 Monte Carlo trials,
>=1e4 benchmark items); set STAGEWISE_ACCEPT_TRIALS / STAGEWISE_ACCEPT_ITEMS
to smaller values for quick local iteration. Run with ``pytest -v -s`` to see
every criterion line.
"""

import json
import math
import os
import random
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from stagewise.backends import SimWorld, SimWorldConfig
from stagewise.datagen import (
    GENERATION_PROMPT,
    STATUS_FORMAT_INVALID,
    STATUS_VALID,
    VERIFICATION_PROMPT_TEMPLATE,
    SourceRecord,
    run_pipeline,
)
from stagewise.harness import (
    default_grid,
    make_sim_items,
    monte_carlo_accuracy,
    oracle_grade,
    run_simcheck,
    sample_calibration_corpus,
    scaling_experiment,
    standard_error,
)
from stagewise.search import (
    CalibrationStats,
    LoopSemantics,
    SearchConfig,
    Strategy,
    backtrack_cutoff,
    best_of_n,
    calibrate,
    stage_wise_beam,
    swires,
)
from stagewise.stages import (
    CANONICAL_ORDER,
    MissingStageError,
    OutOfOrderError,
    StageKind,
    StrayTextError,
    UnbalancedTagError,
    parse_staged,
    render_staged,
)

from conftest import CountingGenerator, CountingScorer, ScriptedGenerator, random_staged_response

TRIALS = int(os.environ.get("STAGEWISE_ACCEPT_TRIALS", "100000"))
ITEMS = int(os.environ.get("STAGEWISE_ACCEPT_ITEMS", "10000"))
DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(label: str):
    try:
        yield
    except Exception:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


def test_a1_threshold_exactness():
    with criterion("A1 threshold formula on reference constants"):
        value = backtrack_cutoff(CalibrationStats(-0.77, 2.08), 0.2533)
        assert abs(value - (-0.243136)) < 1e-9


def test_a2_call_accounting():
    sim = SimWorld(
        SimWorldConfig(
            success={StageKind.CAPTION: 0.6, StageKind.REASONING: 0.6},
            noise_std=0.5,
            rng_seed=2,
        )
    )
    with criterion("A2 swires defaults: 11 calls when the first pass is accepted"):
        gen, rew = CountingGenerator(sim), CountingScorer(sim)
        cfg = SearchConfig(stats=CalibrationStats(-1e18, 0.0))
        result = swires("q", cfg, gen, rew, run_seed=0)
        assert gen.calls == 11
        assert result.ledger.generator_calls == 11
        assert rew.calls == result.ledger.reward_calls
    with criterion("A2 swires defaults: 27 calls when no pass is ever accepted"):
        gen, rew = CountingGenerator(sim), CountingScorer(sim)
        cfg = SearchConfig(stats=CalibrationStats(1e18, 0.0))
        result = swires("q", cfg, gen, rew, run_seed=0)
        assert gen.calls == 27
        assert result.ledger.generator_calls == 27
        assert rew.calls == result.ledger.reward_calls


def test_a3_oracle_equivalence_small_world():
    # simcheck's four checks: best-of-2, beam and SWIRES under both loop
    # semantics on SIMCHECK_WORLD, whose caption and reasoning are the two
    # stochastic stages; M=2, N=1, C=1, zero reward noise, cutoff 0 between
    # the reward means.
    rows = run_simcheck(trials=TRIALS, run_seed=11)
    with criterion("A3 runs simcheck's four checks, in order"):
        # A check dropped from simcheck would otherwise drop out of A3 unseen.
        assert [row["check"] for row in rows] == [
            "best_of_n(n=2)",
            "beam(m=2,n=1)",
            "swires(m=2,n=1,single pass)",
            "swires(m=2,n=1,two passes)",
        ]
    for row in rows:
        exact, measured = row["exact"], row["monte_carlo"]
        with criterion(f"A3 {row['check']} matches exact_accuracy within 3 standard errors at {TRIALS} trials"):
            assert abs(measured - exact) <= 3.0 * standard_error(exact, TRIALS), (
                f"exact={exact:.5f} measured={measured:.5f}"
            )


W1 = SimWorldConfig(
    success={
        StageKind.SUMMARY: 1.0,
        StageKind.CAPTION: 0.6,
        StageKind.REASONING: 0.6,
        StageKind.CONCLUSION: 0.9,
    },
    recovery=0.0,
    mean_correct=1.0,
    mean_incorrect=-1.0,
    noise_std=0.8,
    rng_seed=21,
)


def test_a4_scaling_curve_strategy_ordering():
    sim = SimWorld(W1)
    with criterion("A4 cutoff calibrated from sampled reasoning rewards"):
        corpus = sample_calibration_corpus(
            [f"cal {i}" for i in range(400)], sim, sim, run_seed=1
        )
        stats = calibrate(sim, corpus)
        cutoff = backtrack_cutoff(stats, 0.2533)
        assert W1.mean_incorrect < cutoff < W1.mean_correct

    base = SearchConfig(stats=stats)
    items = make_sim_items(ITEMS, prefix="w1")
    points = scaling_experiment(
        items,
        sim,
        sim,
        grid=default_grid(base),
        grader=oracle_grade,
        run_seed=3,
        zero_wall_time=True,
    )
    by_strategy: dict[str, list] = {}
    for p in points:
        by_strategy.setdefault(p.strategy, []).append(p)

    def mean_and_se(rows):
        k = len(rows)
        mean = sum(r.accuracy for r in rows) / k
        var = sum(standard_error(r.accuracy, ITEMS) ** 2 for r in rows)
        return mean, math.sqrt(var) / k

    bon_mean, bon_se = mean_and_se(by_strategy["best_of_n"])
    beam_mean, beam_se = mean_and_se(by_strategy["beam"])
    swires_mean, swires_se = mean_and_se(by_strategy["swires"])
    print(
        f"A4 means: best_of_n={bon_mean:.4f} beam={beam_mean:.4f} "
        f"swires={swires_mean:.4f} over {ITEMS} items per cell"
    )
    with criterion("A4 swires outperforms beam by more than 2 standard errors"):
        assert swires_mean - beam_mean > 2.0 * math.hypot(swires_se, beam_se)
    with criterion("A4 beam outperforms best-of-N by more than 2 standard errors"):
        assert beam_mean - bon_mean > 2.0 * math.hypot(beam_se, bon_se)


def test_a5_best_of_n_closed_form():
    # Only the conclusion stage is stochastic: a complete response is correct
    # with p = 0.5 independently; the reward separates perfectly.
    world = SimWorldConfig(
        success={StageKind.CONCLUSION: 0.5}, noise_std=0.0, rng_seed=13
    )
    for n in (1, 3, 4, 8):
        expected = 1.0 - 0.5**n
        with criterion(
            f"A5 best_of_{n} accuracy matches 1-(1-p)^n within 3 standard errors"
        ):
            cfg = SearchConfig(
                strategy=Strategy.BEST_OF_N, candidates_per_stage=n, beam_width=n
            )
            measured = monte_carlo_accuracy(cfg, world, TRIALS, run_seed=n)
            assert abs(measured - expected) <= 3.0 * standard_error(expected, TRIALS), (
                f"n={n} expected={expected:.5f} measured={measured:.5f}"
            )


def test_a6_equivalences():
    sim = SimWorld(W1)
    with criterion("A6 swires with cutoff -inf is trace-identical to beam"):
        cfg = SearchConfig(stats=CalibrationStats(float("-inf"), 0.0))
        for seed in (0, 5, 91):
            rs = swires("q", cfg, sim, sim, run_seed=seed)
            rb = stage_wise_beam("q", cfg, sim, sim, run_seed=seed)
            assert rs.trace.events_jsonl() == rb.trace.events_jsonl()
            assert rs.answer == rb.answer
    with criterion("A6 swires with C=0 is trace-identical to beam"):
        for semantics in LoopSemantics:
            cfg = SearchConfig(
                retrace_limit=0,
                loop_semantics=semantics,
                stats=CalibrationStats(1e18, 0.0),
            )
            rs = swires("q2", cfg, sim, sim, run_seed=17)
            rb = stage_wise_beam("q2", cfg, sim, sim, run_seed=17)
            assert rs.trace.events_jsonl() == rb.trace.events_jsonl()
            assert rs.answer == rb.answer
    with criterion("A6 one-stage beam(N=1) is answer-identical to best_of_M"):
        world = SimWorldConfig(
            success={StageKind.CONCLUSION: 0.5}, noise_std=0.8, rng_seed=29
        )
        single = SimWorld(world)
        cfg = SearchConfig(
            candidates_per_stage=4, beam_width=1, pipeline=(StageKind.CONCLUSION,)
        )
        for seed in range(40):
            rb = stage_wise_beam(
                "one", cfg, single, single, run_seed=seed, collect_trace=False
            )
            rn = best_of_n(
                "one", replace(cfg, beam_width=4), single, single, run_seed=seed, collect_trace=False
            )
            assert rb.answer == rn.answer
            assert render_staged(rb.answer) == render_staged(rn.answer)


def test_a7_parser_and_prompt_goldens():
    with criterion("A7 parser round-trips a 10^4-case generated corpus"):
        rng = random.Random(20240817)
        for _ in range(10_000):
            resp = random_staged_response(rng)
            assert parse_staged(render_staged(resp)) == resp
    with criterion("A7 every parser error class fires on a targeted fixture"):
        with pytest.raises(UnbalancedTagError):
            parse_staged("<SUMMARY>a</SUMMARY><CONCLUSION>d")
        with pytest.raises(OutOfOrderError):
            parse_staged("<CAPTION>b</CAPTION><SUMMARY>a</SUMMARY>")
        with pytest.raises(MissingStageError):
            parse_staged("<SUMMARY>a</SUMMARY>", require_complete=True)
        with pytest.raises(StrayTextError):
            parse_staged("stray <SUMMARY>a</SUMMARY>")
    with criterion("A7 generation prompt matches its golden file byte-exactly"):
        golden = (DATA / "generation_prompt.txt").read_text(encoding="utf-8")
        assert GENERATION_PROMPT == golden
    with criterion("A7 verification prompt matches its golden file byte-exactly"):
        golden = (DATA / "verification_prompt.txt").read_text(encoding="utf-8")
        assert VERIFICATION_PROMPT_TEMPLATE == golden


def test_a8_datagen_pipeline_contracts(tmp_path):
    well_formed = (
        "<SUMMARY>s</SUMMARY><CAPTION>c</CAPTION>"
        "<REASONING>r</REASONING><CONCLUSION>B</CONCLUSION>"
    )
    with criterion("A8 format-invalid outputs are filtered before judging"):
        gen = ScriptedGenerator([well_formed, "no close tag <SUMMARY>s", well_formed])
        judge = CountingGenerator(ScriptedGenerator(["valid"]))
        sources = [SourceRecord(f"s{i}", f"q{i}", "B") for i in range(3)]
        counts = run_pipeline(sources, gen, judge, tmp_path / "a.jsonl")
        assert counts[STATUS_FORMAT_INVALID] == 1
        assert judge.calls == 2  # judge calls equal the format-valid count
        assert counts[STATUS_VALID] == 2
    with criterion("A8 resume performs zero duplicate generator calls"):
        out = tmp_path / "b.jsonl"
        gen = CountingGenerator(ScriptedGenerator([well_formed]))
        judge = ScriptedGenerator(["valid"])
        sources = [SourceRecord(f"s{i}", f"q{i}", "B") for i in range(4)]
        run_pipeline(sources, gen, judge, out)
        first_calls = gen.calls
        counts = run_pipeline(sources, gen, judge, out)
        assert gen.calls == first_calls
        assert counts["skipped"] == 4
        ids = [json.loads(line)["id"] for line in out.read_text().splitlines()]
        assert sorted(ids) == sorted(s.id for s in sources)


@pytest.mark.skipif(
    not (
        os.environ.get("STAGEWISE_SMOKE_GENERATOR_URL")
        and os.environ.get("STAGEWISE_SMOKE_REWARD_URL")
    ),
    reason="live endpoints not configured (optional, not gating)",
)
def test_a9_live_smoke(tmp_path):
    from stagewise.backends import EndpointConfig, HttpGenerator, HttpRewardScorer

    generator = HttpGenerator(
        EndpointConfig(
            base_url=os.environ["STAGEWISE_SMOKE_GENERATOR_URL"],
            model=os.environ.get("STAGEWISE_SMOKE_MODEL", ""),
        )
    )
    reward = HttpRewardScorer(
        EndpointConfig(
            base_url=os.environ["STAGEWISE_SMOKE_REWARD_URL"],
            model=os.environ.get("STAGEWISE_SMOKE_REWARD_MODEL", ""),
        )
    )
    with criterion("A9 live swires run completes with a well-formed trace"):
        result = swires(
            "What color is a clear daytime sky?", SearchConfig(), generator, reward
        )
        assert result.answer.kinds == CANONICAL_ORDER
        path = tmp_path / "live-trace.jsonl"
        result.trace.write(path)
        header, events = type(result.trace).read(path)
        assert header["strategy"] == "swires"
        assert events

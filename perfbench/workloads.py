"""The three workloads, each with its set-up, its rounds and its correctness checks.

A run repeats whole rounds until its time is up. Only calls into the
package's public functions are timed (``Meter.timed``); building inputs and
checking outputs between them is not. Every check is computed apart from
the program: closed forms for Monte Carlo accuracy, call-count formulas and
counting wrappers for ledgers, and an in-process run for the HTTP path.
"""

from __future__ import annotations

import json
import math
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from hashlib import blake2b
from pathlib import Path
from typing import Optional

from stagewise import harness
from stagewise.backends import (
    EndpointConfig,
    Generator,
    HttpGenerator,
    HttpRewardScorer,
    RewardScorer,
    SimWorld,
    SimWorldConfig,
)
from stagewise.search import CalibrationStats, LoopSemantics, SearchConfig, Strategy, calibrate
from stagewise.stages import StageKind

HERE = Path(__file__).resolve().parent
CORRECT_MARK = "[[sim::ok]]"
# A 3-SE check errs on a correct program once in 370 draws; it runs for five
# configurations in every run of every campaign, so the gate sits at 5 SE
# (about one false alarm in 1.7 million checks).
ACCURACY_Z_GATE = 5.0


def derive(*parts) -> int:
    """64-bit value from the benchmark seed and a path of labels."""
    key = "|".join(["perfbench", *map(str, parts)]).encode("utf-8")
    return int.from_bytes(blake2b(key, digest_size=8).digest(), "big")


def make_items(seed: int, round_index: int, count: int) -> list[harness.BenchmarkItem]:
    """Fresh questions every round under the same ids.

    The ids name the trace files, so each round overwrites the files of the
    round before. Creating and deleting a new set per round made system time
    grow from run to run on an ext4 volume mounted with ``discard``.
    """
    return [
        harness.BenchmarkItem(
            id=f"item-{i}",
            question=f"perfbench question {derive(seed, round_index, i):016x}",
        )
        for i in range(count)
    ]


def _cpu_s() -> float:
    """CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# The host's CPU speed swings by a fifth and more over minutes, so a fixed
# reference kernel is timed before each timed call, and times are reported
# scaled to a host that runs the kernel in REFERENCE_NOMINAL_S of thread CPU.
REFERENCE_ITEMS = 800
REFERENCE_NOMINAL_S = 0.010


def reference_s() -> float:
    """Thread CPU time of the reference kernel: fixed pure-Python work of the package's kinds.

    It touches nothing of the package, so a change to the program cannot
    move it. Thread CPU time leaves out waiting for other threads, so busy
    work the program leaves running is not scaled away.
    """
    started = time.thread_time()
    table = {}
    for i in range(REFERENCE_ITEMS):
        text = f"<caption>reference {i} {i * 7919 % 1009}</caption>"
        key = int.from_bytes(blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")
        table[key] = text
        json.dumps({"stage": "caption", "text": text, "score": i / 7.0, "birth": [i, i % 3]}, sort_keys=True)
        text.find("</caption>", 3)
    sorted(table.items())
    return time.thread_time() - started


class Meter:
    """Totals over the timed calls of a run, with the reference kernel timed before each call."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.searches = 0
        self.failed = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.call_wall: list[float] = []
        self.call_cpu: list[float] = []
        self.call_wait: list[float] = []  # the stub's fixed delay on each call's critical path
        self.reference: list[float] = []  # one before each call, one after the last
        self.search_ms: list[float] = []
        self.search_wait_ms: list[float] = []
        self.search_call: list[int] = []  # the timed call each latency sample came from
        self.problems: list[str] = []

    def timed(self, fn, stub: Optional["Stub"] = None):
        """Call ``fn`` inside the measured window; return its result, wall time and stub counter deltas."""
        self.reference.append(reference_s())
        before = stub.stats() if stub else None
        cpu0 = _cpu_s()
        if self.tracer is not None:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            if self.tracer is not None:
                self.tracer.active = False
            cpu1 = _cpu_s()
        cpu = cpu1 - cpu0
        delta = None
        if before is not None:
            after = stub.stats()
            delta = {k: after[k] - before[k] for k in before}
            cpu += delta["cpu_s"]
        self.wall_s += t1 - t0
        self.cpu_s += cpu
        self.call_wall.append(t1 - t0)
        self.call_cpu.append(cpu)
        self.call_wait.append(0.0)
        return result, t1 - t0, delta

    def sample(self, ms: float, wait_ms: float = 0.0) -> None:
        """One search's latency, from the latest timed call, and the stub delay it waited through."""
        self.search_ms.append(ms)
        self.search_wait_ms.append(wait_ms)
        self.search_call.append(len(self.call_wall) - 1)
        self.call_wait[-1] += wait_ms / 1000.0

    def slowness(self) -> list[float]:
        """Per timed call: the reference kernel's time around it over the nominal time."""
        if len(self.reference) == len(self.call_wall):
            self.reference.append(reference_s())
        ref = self.reference
        return [(ref[i] + ref[i + 1]) / 2 / REFERENCE_NOMINAL_S for i in range(len(self.call_wall))]

    def scaled(self) -> tuple[float, float, list[float]]:
        """Timed wall seconds, CPU seconds and latency samples at the nominal host speed.

        Each call's times are divided by the host's slowness around it,
        except the stub's fixed delay on the critical path, which no host
        speed changes.
        """
        slowness = self.slowness()

        def at_nominal(t, wait, k):
            return wait + (t - wait) / k

        wall = sum(map(at_nominal, self.call_wall, self.call_wait, slowness))
        cpu = sum(c / k for c, k in zip(self.call_cpu, slowness))
        samples = [
            at_nominal(ms, wait, slowness[i])
            for ms, wait, i in zip(self.search_ms, self.search_wait_ms, self.search_call)
        ]
        return wall, cpu, samples

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)


class CountingGenerator(Generator):
    def __init__(self, inner: Generator):
        self.inner = inner
        self.calls = 0

    def generate(self, request):
        self.calls += 1
        return self.inner.generate(request)


class CountingScorer(RewardScorer):
    def __init__(self, inner: RewardScorer):
        self.inner = inner
        self.calls = 0

    def score(self, request):
        self.calls += 1
        return self.inner.score(request)


class WireSeedSim(Generator, RewardScorer):
    """The sim world as the HTTP path sees it: seeds reduced mod 2**63 as on the wire."""

    def __init__(self, world: SimWorldConfig):
        self.sim = SimWorld(world)

    def generate(self, request):
        if request.seed is not None:
            request = replace(request, seed=request.seed % (2**63))
        return self.sim.generate(request)

    def score(self, request):
        return self.sim.score(request)


class Stub:
    """The loopback endpoint process (``stub.py``) and its control pipe."""

    def __init__(self, root: Path, world: SimWorldConfig, delay_ms: float, time_layers: bool):
        cmd = [sys.executable, str(HERE / "stub.py"), "--world", json.dumps(world.as_dict()), "--delay-ms", str(delay_ms)]
        if time_layers:
            cmd.append("--time-layers")
        self.proc = subprocess.Popen(cmd, cwd=root, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("stub exited before reporting its port")
        self.port = json.loads(line)["port"]

    def stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        """End of input stops the stub; kill it if it does not exit in time."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Workload:
    """Set-up, rounds and checks of one workload, plus the counts its layer metrics need."""

    name = ""
    times_each_search = True  # False where searches run inside one timed call
    trace_bytes = 0  # bytes of trace files written
    stub_counts: Optional[dict] = None  # stub counter totals over the timed calls
    ledger_calls = 0  # generator plus reward calls in the ledgers of the HTTP searches
    wall_ms = 0.0  # summed wall time of the HTTP searches
    barrier_ms = 0.0  # summed stub delay times sequential request waves
    stub_delay_ms = 0.0

    def __init__(self, root: Path, seed: int, out_dir: Path, traced: bool):
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        self.traced = traced

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int, meter: Meter) -> None:
        raise NotImplementedError

    def finish(self, meter: Meter) -> dict:
        """Final checks over the whole run; returns notes to print."""
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# sim-oracle
# ---------------------------------------------------------------------------

# Same values as the simcheck world and the A5 world of the acceptance suite,
# restated here so that the benchmark's inputs and its closed forms cannot
# drift with the program.
SIMCHECK = SimWorldConfig(
    success={StageKind.SUMMARY: 1.0, StageKind.CAPTION: 0.5, StageKind.REASONING: 0.6, StageKind.CONCLUSION: 1.0},
    noise_std=0.0,
    rng_seed=7,
)
A5_WORLD = SimWorldConfig(success={StageKind.CONCLUSION: 0.5}, noise_std=0.0, rng_seed=13)
ORACLE_TRIALS = 1000  # trials per monte_carlo_accuracy call, one call per configuration per round


def _chain(world: SimWorldConfig) -> float:
    return math.prod(world.success.values())


def _pass_success(world: SimWorldConfig, m: int) -> float:
    """Beam width 1, separating reward, no recovery: some caption and some child reasoning correct."""
    qc, qr = world.success[StageKind.CAPTION], world.success[StageKind.REASONING]
    return (1 - (1 - qc) ** m) * (1 - (1 - qr) ** m)


def _through_passes(world: SimWorldConfig, m: int, passes: int) -> float:
    outer = world.success[StageKind.SUMMARY] * world.success[StageKind.CONCLUSION]
    return outer * (1 - (1 - _pass_success(world, m)) ** passes)


@dataclass
class OracleCase:
    name: str
    world: SimWorldConfig
    cfg: SearchConfig
    exact: float


class SimOracle(Workload):
    """Its searches run inside ``monte_carlo_accuracy``, so its latency samples are per-call means."""

    name = "sim-oracle"
    times_each_search = False

    def __init__(self, root: Path, seed: int, out_dir: Path, traced: bool):
        super().__init__(root, seed, out_dir, traced)
        self.correct: dict[str, int] = {}
        self.trials: dict[str, int] = {}

    def setup(self) -> None:
        swires = SearchConfig(
            candidates_per_stage=2,
            beam_width=1,
            retrace_limit=1,
            stats=CalibrationStats(0.0, 0.0),
            cutoff_zscore=0.0,
        )
        self.cases = [
            OracleCase(
                "best_of_2",
                SIMCHECK,
                SearchConfig(strategy=Strategy.BEST_OF_N, candidates_per_stage=2, beam_width=2),
                1 - (1 - _chain(SIMCHECK)) ** 2,
            ),
            OracleCase(
                "beam_m2_n1",
                SIMCHECK,
                SearchConfig(strategy=Strategy.STAGE_BEAM, candidates_per_stage=2, beam_width=1),
                _through_passes(SIMCHECK, 2, 1),
            ),
            OracleCase("swires_one_pass", SIMCHECK, swires, _through_passes(SIMCHECK, 2, 1)),
            OracleCase(
                "swires_two_pass",
                SIMCHECK,
                replace(swires, loop_semantics=LoopSemantics.MAIN_TEXT),
                _through_passes(SIMCHECK, 2, 2),
            ),
            OracleCase(
                "best_of_8_a5",
                A5_WORLD,
                SearchConfig(strategy=Strategy.BEST_OF_N, candidates_per_stage=8, beam_width=8),
                1 - (1 - _chain(A5_WORLD)) ** 8,
            ),
        ]

    def run_round(self, r: int, meter: Meter) -> None:
        for case in self.cases:
            run_seed = derive(self.seed, r, case.name)
            accuracy, elapsed, _ = meter.timed(
                lambda: harness.monte_carlo_accuracy(case.cfg, case.world, ORACLE_TRIALS, run_seed=run_seed)
            )
            meter.searches += ORACLE_TRIALS
            meter.sample(elapsed * 1000.0 / ORACLE_TRIALS)
            self.correct[case.name] = self.correct.get(case.name, 0) + round(accuracy * ORACLE_TRIALS)
            self.trials[case.name] = self.trials.get(case.name, 0) + ORACLE_TRIALS

    def finish(self, meter: Meter) -> dict:
        report = {}
        for case in self.cases:
            trials = self.trials[case.name]
            measured = self.correct[case.name] / trials
            se = math.sqrt(max(case.exact * (1 - case.exact), 1e-12) / trials)
            z = (measured - case.exact) / se
            report[case.name] = f"exact={case.exact:.5f} monte_carlo={measured:.5f} z={z:+.2f} trials={trials}"
            meter.check(
                abs(z) <= ACCURACY_Z_GATE,
                f"{case.name}: Monte Carlo {measured:.5f} is {z:+.2f} SE from exact {case.exact:.5f}",
            )
        return report


# ---------------------------------------------------------------------------
# sim-bench-traced
# ---------------------------------------------------------------------------

# Noisy and hard: about half of all SWIRES searches retrace at least once.
BENCH_WORLD = SimWorldConfig(
    success={StageKind.SUMMARY: 0.95, StageKind.CAPTION: 0.3, StageKind.REASONING: 0.3, StageKind.CONCLUSION: 0.9},
    noise_std=0.2,
    rng_seed=5,
)
CALIBRATION_QUESTIONS = 300
BENCH_ITEMS = 40  # items per strategy per round
M, N = 4, 2  # shipped candidates_per_stage and beam_width


def expected_calls(strategy: Strategy, passes: int) -> tuple[int, int]:
    """(generator, reward) calls of one search at M, N when nothing fails to parse."""
    if strategy is Strategy.BEST_OF_N:
        return M, M
    return 1 + 2 * M * passes + N, 2 * M * passes + N


def check_trace(path: Path, strategy: Strategy, max_passes: int, meter: Meter) -> tuple[int, int, int]:
    """Parse a written trace and check its answer; return its passes, generate and score events."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    events = [json.loads(line) for line in lines[1:]]
    meter.check(header.get("record") == "header" and header.get("strategy") == strategy.value, f"{path.name}: bad header")
    meter.check([e["seq"] for e in events] == list(range(len(events))), f"{path.name}: event seq not 0..n-1")
    final = "response" if strategy is Strategy.BEST_OF_N else "conclusion"
    scores = [e for e in events if e["event"] == "score" and e["stage"] == final]
    answers = [e for e in events if e["event"] == "answer"]
    if not scores or len(answers) != 1:
        meter.check(False, f"{path.name}: {len(scores)} final scores, {len(answers)} answers")
        return 0, 0, 0
    best = max(e["score"] for e in scores)
    winner = min(tuple(e["birth"]) for e in scores if e["score"] == best)
    answer = answers[0]
    meter.check(
        answer["score"] == best and tuple(answer["birth"]) == winner,
        f"{path.name}: answer {answer} is not the best conclusion ({best}, {winner})",
    )
    passes = 1 + sum(1 for e in events if e["event"] == "retrace")
    meter.check(passes <= max_passes, f"{path.name}: {passes} passes > {max_passes}")
    generated = sum(1 for e in events if e["event"] == "generate")
    scored = sum(1 for e in events if e["event"] == "score")
    return passes, generated, scored


class SimBenchTraced(Workload):
    name = "sim-bench-traced"

    def setup(self) -> None:
        self.sim = SimWorld(BENCH_WORLD)
        # The corpus does not depend on --seed: the calibrated cutoff sets how
        # often SWIRES retraces, and a per-seed corpus moved the work per
        # search by up to a tenth between seeds.
        questions = [f"calibration {derive('cal', i):016x}" for i in range(CALIBRATION_QUESTIONS)]
        corpus = harness.sample_calibration_corpus(questions, self.sim, self.sim, run_seed=derive("cal"))
        stats = calibrate(self.sim, corpus)
        self.configs = [
            SearchConfig(strategy=Strategy.BEST_OF_N, candidates_per_stage=M, beam_width=M, stats=stats),
            SearchConfig(strategy=Strategy.STAGE_BEAM, stats=stats),
            SearchConfig(strategy=Strategy.SWIRES, stats=stats),
        ]

    def run_round(self, r: int, meter: Meter) -> None:
        items = make_items(self.seed, r, BENCH_ITEMS)
        for cfg in self.configs:
            gen, rew = CountingGenerator(self.sim), CountingScorer(self.sim)
            out = self.out_dir / "records" / cfg.strategy.value
            result, _, _ = meter.timed(
                lambda: harness.run_benchmark(
                    items,
                    cfg,
                    gen,
                    rew,
                    out_dir=out,
                    grader=harness.oracle_grade,
                    run_seed=derive(self.seed, r, cfg.strategy.value),
                    collect_traces=True,
                )
            )
            self._check(cfg, result, gen, rew, meter)

    def _check(self, cfg: SearchConfig, result, gen, rew, meter: Meter) -> None:
        records = result.records
        meter.searches += len(records)
        meter.failed += sum(1 for rec in records if rec.error)
        label = cfg.strategy.value
        meter.check(sum(rec.generator_calls for rec in records) == gen.calls == result.ledger.generator_calls,
                    f"{label}: ledger generator calls != counted {gen.calls}")
        meter.check(sum(rec.reward_calls for rec in records) == rew.calls == result.ledger.reward_calls,
                    f"{label}: ledger reward calls != counted {rew.calls}")
        for rec in records:
            if rec.error:
                continue
            meter.sample(rec.wall_time_s * 1000.0)
            meter.check(rec.correct == (CORRECT_MARK in rec.conclusion), f"{rec.item_id}: grade disagrees with the mark")
            path = Path(rec.trace_file)
            self.trace_bytes += path.stat().st_size
            passes, generated, scored = check_trace(path, cfg.strategy, cfg.max_passes, meter)
            expected = expected_calls(cfg.strategy, passes)
            meter.check(
                (rec.generator_calls, rec.reward_calls) == expected == (generated, scored),
                f"{rec.item_id} {label}: calls {(rec.generator_calls, rec.reward_calls)}, "
                f"trace {(generated, scored)}, closed form {expected} at {passes} passes",
            )


# ---------------------------------------------------------------------------
# http-swires
# ---------------------------------------------------------------------------

# Easier than BENCH_WORLD: 85% of searches take one pass, 13% two, 2% three.
# Latency is multimodal in the pass count, so the median must sit well inside
# the one-pass mode to be steady; the retraces show in the tail.
HTTP_WORLD = SimWorldConfig(
    success={StageKind.SUMMARY: 1.0, StageKind.CAPTION: 0.5, StageKind.REASONING: 0.5, StageKind.CONCLUSION: 0.9},
    noise_std=0.2,
    rng_seed=5,
)
# At 5 ms the client and stub spent 60-90 ms of CPU per search against about
# 55 ms of delay on the critical path, so on 2 CPUs the run tracked the
# machine's speed (35-54% spread between runs). At 20 ms the sequential
# stage round-trips dominate, as they do against a real endpoint.
STUB_DELAY_MS = 20.0
HTTP_ITEMS = 8  # items per round
PARALLELISM = 2


def stage_barriers(cfg: SearchConfig, passes: int, parallelism: int) -> int:
    """Sequential request waves of one SWIRES search over the four-stage pipeline."""
    waves = lambda batch: -(-batch // parallelism)  # noqa: E731
    per_pass = 2 * waves(cfg.candidates_per_stage) * 2  # caption and reasoning: generate, then score
    return waves(cfg.summary_candidates) + passes * per_pass + 2 * waves(cfg.beam_width)


class HttpSwires(Workload):
    name = "http-swires"
    stub_delay_ms = STUB_DELAY_MS

    def __init__(self, root: Path, seed: int, out_dir: Path, traced: bool):
        super().__init__(root, seed, out_dir, traced)
        self.stub: Optional[Stub] = None
        self.cfg = SearchConfig()  # shipped defaults: SWIRES, M=4, N=2, C=3
        self.stub_counts = dict.fromkeys(
            ("requests", "connections", "in_flight_sum", "generate_ns", "generate_calls", "score_ns", "score_calls"), 0
        )
        self.peak_in_flight = 0

    def setup(self) -> None:
        self.stub = Stub(self.root, HTTP_WORLD, STUB_DELAY_MS, self.traced)
        base = f"http://127.0.0.1:{self.stub.port}"
        self.generator = HttpGenerator(EndpointConfig(base_url=f"{base}/generate"))
        self.reward = HttpRewardScorer(EndpointConfig(base_url=f"{base}/reward"))
        self.reference = WireSeedSim(HTTP_WORLD)

    def run_round(self, r: int, meter: Meter) -> None:
        items = make_items(self.seed, r, HTTP_ITEMS)
        run_seed = derive(self.seed, r, "http")
        reference = harness.run_benchmark(
            items, self.cfg, self.reference, self.reference, grader=harness.oracle_grade, run_seed=run_seed
        )
        fields = ("item_id", "conclusion", "correct", "ungradable", "error", "generator_calls", "reward_calls")
        # One timed call per item: item seeds derive from the run seed and
        # the item id, so the searches are those of one call over the round,
        # and the reference kernel between calls follows the host's speed.
        for item, want in zip(items, reference.records):
            result, _, delta = meter.timed(
                lambda: harness.run_benchmark(
                    [item],
                    self.cfg,
                    self.generator,
                    self.reward,
                    out_dir=self.out_dir / "records",
                    grader=harness.oracle_grade,
                    run_seed=run_seed,
                    parallelism=PARALLELISM,
                ),
                stub=self.stub,
            )
            for key in self.stub_counts:
                self.stub_counts[key] += delta[key]
            (got,) = result.records
            meter.searches += 1
            calls = got.generator_calls + got.reward_calls
            self.ledger_calls += calls
            meter.check(delta["requests"] == calls, f"round {r} {item.id}: stub saw {delta['requests']} requests, ledger {calls}")
            if got.error:
                meter.failed += 1
                continue
            meter.check(
                all(getattr(got, f) == getattr(want, f) for f in fields),
                f"round {r} {item.id}: HTTP record differs from the in-process run",
            )
            passes = (got.generator_calls - 1 - self.cfg.beam_width) // (2 * self.cfg.candidates_per_stage)
            wait_ms = STUB_DELAY_MS * stage_barriers(self.cfg, passes, PARALLELISM)
            self.wall_ms += got.wall_time_s * 1000.0
            self.barrier_ms += wait_ms
            meter.sample(got.wall_time_s * 1000.0, wait_ms)
        self.peak_in_flight = max(self.peak_in_flight, self.stub.stats()["peak_in_flight"])

    def finish(self, meter: Meter) -> dict:
        counts = self.stub_counts
        return {"stub": f"{counts['requests']} requests over {counts['connections']} connections in the timed calls, "
                        f"peak in flight {self.peak_in_flight}, {self.stub.stats()['threads']} stub threads at the end"}

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None


WORKLOADS = {w.name: w for w in (SimOracle, SimBenchTraced, HttpSwires)}

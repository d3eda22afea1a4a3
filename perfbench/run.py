"""Outside-in benchmark of the stagewise package: sim and HTTP regimes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-oracle --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` wraps the package's public functions, keeps one span per call
in memory, writes the spans under ``.perfbench_out/<workload>/spans`` and
reports the per-layer metrics. Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

STRATEGY_SPANS = ("search.best_of_n", "search.stage_wise_beam", "search.swires")
HTTP_SPANS = ("backends.HttpGenerator.generate", "backends.HttpRewardScorer.score")


def import_probe() -> None:
    """Import the package in a fresh interpreter: the cold-start share of set-up."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", "import stagewise"], cwd=ROOT, env=env, check=True)


class LedgerTap:
    """Adds up the ledger of every search ``harness`` runs while the tracer records."""

    def __init__(self, harness, tracer):
        self.harness = harness
        self.original = harness.run_strategy
        self.searches = self.generator_calls = self.reward_calls = self.passes = 0

        def tapped(question, cfg, *args, **kwargs):
            result = self.original(question, cfg, *args, **kwargs)
            if not tracer.active:
                return result
            ledger = result.ledger
            self.searches += 1
            self.generator_calls += ledger.generator_calls
            self.reward_calls += ledger.reward_calls
            # Each caption/reasoning pass generates M candidates at retrace_start.
            openings = ledger.generator_by_stage.get(cfg.retrace_start.value, 0)
            self.passes += max(1, openings // cfg.candidates_per_stage)
            return result

        harness.run_strategy = tapped

    def uninstall(self) -> None:
        self.harness.run_strategy = self.original


def layer_metrics(stats: dict, tap: LedgerTap, workload, meter) -> tuple[dict, dict]:
    """Per-layer metrics from span stats: (measured on every workload, workload-specific)."""

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    def mean_us(name):
        return stats[name]["total_ns"] / stats[name]["calls"] / 1000.0 if calls(name) else 0.0

    searches = max(1, tap.searches)
    stub = workload.stub_counts
    if stub is not None:
        generate_us = stub["generate_ns"] / max(1, stub["generate_calls"]) / 1000.0
        score_us = stub["score_ns"] / max(1, stub["score_calls"]) / 1000.0
    else:
        generate_us, score_us = mean_us("backends.SimWorld.generate"), mean_us("backends.SimWorld.score")
    requests = stub["requests"] if stub else 0
    common = {
        "stages.parse_stage_us": (mean_us("stages.parse_stage_continuation"), "us"),
        "stages.parse_calls_per_search": (
            (calls("stages.parse_stage_continuation") + calls("stages.parse_complete_continuation")) / searches,
            "count",
        ),
        "backends.stable_u64_us": (mean_us("backends.stable_u64"), "us"),
        "backends.text_digest_us": (mean_us("backends.text_digest"), "us"),
        "backends.sim_generate_us": (generate_us, "us"),
        "backends.sim_score_us": (score_us, "us"),
        "backends.connections_per_request": (stub["connections"] / requests if requests else 0.0, "ratio"),
        "backends.in_flight_mean": (stub["in_flight_sum"] / requests if requests else 0.0, "count"),
        "backends.attempts_per_call": (requests / workload.ledger_calls if requests else 0.0, "ratio"),
        "search.engine_self_us_per_search": (
            sum(stats[n]["self_ns"] for n in STRATEGY_SPANS if n in stats) / searches / 1000.0,
            "us",
        ),
        "search.select_top_us": (mean_us("search.select_top"), "us"),
        "search.swires_us": (mean_us("search.swires"), "us"),
        "search.trace_bytes_per_search": (workload.trace_bytes / searches, "B"),
        "search.critical_path_ratio": (workload.wall_ms / workload.barrier_ms if workload.barrier_ms else 0.0, "ratio"),
        "search.generator_calls_per_search": (tap.generator_calls / searches, "count"),
        "search.reward_calls_per_search": (tap.reward_calls / searches, "count"),
        "search.passes_per_search": (tap.passes / searches, "count"),
        "search.scored_per_generated": (tap.reward_calls / max(1, tap.generator_calls), "ratio"),
        "process.cpu_per_wall": (meter.cpu_s / meter.wall_s, "ratio"),
    }
    specific = {}

    def add(key, name, value, unit):
        if calls(name):
            specific[key] = (value, unit)

    add("stages.parse_complete_us", "stages.parse_complete_continuation",
        mean_us("stages.parse_complete_continuation"), "us")
    add("stages.render_us", "stages.render_staged", mean_us("stages.render_staged"), "us")
    add("search.best_of_n_us", "search.best_of_n", mean_us("search.best_of_n"), "us")
    add("search.beam_us", "search.stage_wise_beam", mean_us("search.stage_wise_beam"), "us")
    add("search.trace_log_us", "search.SearchTrace.log", mean_us("search.SearchTrace.log"), "us")
    add("search.trace_serialise_us_per_search", "search.SearchTrace.to_jsonl",
        stats.get("search.SearchTrace.to_jsonl", {}).get("total_ns", 0) / searches / 1000.0, "us")
    add("harness.self_us_per_item", "harness.run_benchmark",
        stats.get("harness.run_benchmark", {}).get("self_ns", 0) / searches / 1000.0, "us")
    add("harness.grade_us", "harness.oracle_grade", mean_us("harness.oracle_grade"), "us")
    http = [d for n in HTTP_SPANS if n in stats for d in stats[n]["durations"]]
    if http:
        p50 = median(http) / 1e6
        specific["backends.http_call_ms_p50"] = (p50, "ms")
        specific["backends.http_overhead_ms"] = (p50 - workload.stub_delay_ms, "ms")
    return common, specific


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stagewise outside-in benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stagewise" / "__init__.py").is_file():
        print(f"perfbench: no stagewise sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stagewise
    from stagewise import harness

    import tracing
    from workloads import REFERENCE_NOMINAL_S, WORKLOADS, Meter, reference_s

    if Path(stagewise.__file__).resolve().parent != (SRC / "stagewise").resolve():
        print(f"perfbench: imported {stagewise.__file__}, not the checkout's package", file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    traced = args.trace == 1
    out_dir = ROOT / ".perfbench_out" / args.workload
    workload = WORKLOADS[args.workload](ROOT, args.seed, out_dir, traced)
    tracer = tap = None
    setup_s: list[float] = []  # scaled to the nominal host speed
    setup_raw_s: list[float] = []

    def set_up() -> None:
        workload.close()  # a set-up replaces the one before; stopping that is not set-up time
        before = reference_s()
        started = time.perf_counter()
        import_probe()
        workload.setup()
        elapsed = time.perf_counter() - started
        slowness = (before + reference_s()) / 2 / REFERENCE_NOMINAL_S
        setup_raw_s.append(elapsed)
        setup_s.append(elapsed / slowness)

    try:
        set_up()
        if traced:
            tracer = tracing.Tracer()
            tap = LedgerTap(harness, tracer)
            tracing.install(tracer)
        meter = Meter(tracer)
        rounds = 0
        started = time.perf_counter()
        while rounds == 0 or time.perf_counter() - started < args.seconds:
            # Later set-ups are spread over the run, so that their median
            # samples the same machine states as the timed rounds.
            due = len(setup_s) * args.seconds / SETUP_REPEATS
            if len(setup_s) < SETUP_REPEATS and time.perf_counter() - started >= due:
                set_up()
            workload.run_round(rounds, meter)
            rounds += 1
        while len(setup_s) < SETUP_REPEATS:
            set_up()
        notes = workload.finish(meter)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if tap is not None:
            tap.uninstall()
        workload.close()
        shutil.rmtree(out_dir / "records", ignore_errors=True)

    wall_s, cpu_s, samples = meter.scaled()
    e2e = {
        "setup_s": (median(setup_s), "s"),
        "searches_per_s": (meter.searches / wall_s, "1/s"),
        "search_ms_p50": (median(samples), "ms"),
        "cpu_ms_per_search": (cpu_s * 1000.0 / meter.searches, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {rounds} rounds, "
          f"{meter.searches} searches attempted, {meter.failed} failed, {meter.wall_s:.3f} s timed")
    slowness = meter.slowness()
    cuts = quantiles(slowness, n=4) if len(slowness) > 1 else slowness * 3
    print(f"  host slowness (reference kernel / {REFERENCE_NOMINAL_S * 1000:g} ms): median {median(slowness):.3f}, "
          f"quartiles {cuts[0]:.3f}-{cuts[2]:.3f} over {len(slowness)} timed calls")
    print(f"  as measured: searches_per_s = {meter.searches / meter.wall_s:.6g} 1/s, "
          f"search_ms_p50 = {median(meter.search_ms):.6g} ms, "
          f"cpu_ms_per_search = {meter.cpu_s * 1000.0 / meter.searches:.6g} ms, setup_s = {median(setup_raw_s):.6g} s")
    for name, text in notes.items():
        print(f"  check {name}: {text}")
    for message in meter.problems:
        print(f"  INCORRECT {message}")
    for name, (value, unit) in e2e.items():
        print(f"  {name} = {value:.6g} {unit}")
    if workload.times_each_search and len(samples) >= 200:
        cuts = quantiles(samples, n=100)
        print(f"  search_ms_p95 = {cuts[94]:.6g} ms over {len(samples)} timed searches")
        if len(samples) >= 1000:
            print(f"  search_ms_p99 = {cuts[98]:.6g} ms over {len(samples)} timed searches")
    metrics = e2e
    if traced:
        tracer.write(out_dir / "spans")
        stats = tracer.summarise(keep_durations=frozenset(HTTP_SPANS))
        common, specific = layer_metrics(stats, tap, workload, meter)
        print(f"  spans recorded = {tracer.span_count()} (written to {out_dir / 'spans'})")
        for name, (value, unit) in {**common, **specific}.items():
            print(f"  {name} = {value:.6g} {unit}")
        metrics = common
    result = {
        "correct": not meter.problems,
        "attempted": meter.searches,
        "failed": meter.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

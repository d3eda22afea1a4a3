"""perfbench imports names from the package and its tracer patches more;
renaming one breaks the benchmark, so these tests break first."""

import importlib.util
import sys
from pathlib import Path

import pytest

from stagewise import backends, harness, search

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Every namespace the tracer patches.
_OWNERS = (
    backends,
    harness,
    search,
    backends.SimWorld,
    backends.HttpGenerator,
    backends.HttpRewardScorer,
    search.SearchTrace,
)


def _load(monkeypatch, name: str):
    """``perfbench/<name>.py`` run as a module of its own, for this test only."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the stub prepends src/ when it loads
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["stub", "workloads"])
def test_perfbench_module_imports_the_names_it_uses(monkeypatch, name):
    _load(monkeypatch, name)


def test_perfbench_tracer_installs_and_restores_the_originals(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    before = [dict(vars(owner)) for owner in _OWNERS]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert search.select_top is not before[2]["select_top"]
    finally:
        tracer.uninstall()
    for owner, names in zip(_OWNERS, before):
        after = vars(owner)
        assert all(after[name] is value for name, value in names.items()), owner


@pytest.mark.parametrize("strategy", list(search.Strategy))
def test_perfbench_tracer_sees_the_continuation_parsers(monkeypatch, strategy):
    # perfbench's per-layer parse metrics count spans of the parsers as the
    # engine calls them; a shortcut past that call site would read zero.
    tracing = _load(monkeypatch, "tracing")
    world = backends.SimWorld(backends.SimWorldConfig(success=0.5, noise_std=0.3, rng_seed=2))
    cfg = search.SearchConfig(strategy=strategy)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        tracer.active = True
        search.run_strategy("traced question", cfg, world, world, run_seed=3, collect_trace=False)
    finally:
        tracer.uninstall()
    stats = tracer.summarise()
    whole = strategy is search.Strategy.BEST_OF_N
    name = "stages.parse_complete_continuation" if whole else "stages.parse_stage_continuation"
    # Every generated reply is parsed once, through the patched call site.
    assert stats[name]["calls"] == stats["backends.SimWorld.generate"]["calls"] > 0


@pytest.mark.parametrize("strategy", list(search.Strategy))
def test_perfbench_tracer_sees_the_engine_call_sites(monkeypatch, strategy):
    # The engine hands backend calls to its runners, and the trace digests
    # inputs and replies when written; the tracer must still see each call
    # where it is made.
    tracing = _load(monkeypatch, "tracing")
    world = backends.SimWorld(backends.SimWorldConfig(success=0.5, noise_std=0.3, rng_seed=2))
    cfg = search.SearchConfig(strategy=strategy)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        tracer.active = True
        result = search.run_strategy("traced question", cfg, world, world, run_seed=3, collect_trace=True)
        result.trace.to_jsonl()
    finally:
        tracer.uninstall()
    stats = tracer.summarise()
    # The question's digest, then the digests the trace takes when written.
    assert stats["backends.text_digest"]["calls"] >= 2
    assert stats["backends.SimWorld.generate"]["calls"] == result.ledger.generator_calls > 0
    assert stats["backends.SimWorld.score"]["calls"] == result.ledger.reward_calls > 0
    # Every selection the trace logs, plus the pick of the answer.
    selects = sum(1 for event in result.trace.events if event["event"] == "select")
    assert stats["search.select_top"]["calls"] == selects + 1
    if strategy is not search.Strategy.BEST_OF_N:
        assert selects > 0

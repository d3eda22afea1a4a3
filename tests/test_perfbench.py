"""perfbench's tracer patches names in the package; renaming one breaks it."""

import importlib.util
from pathlib import Path

from stagewise import backends, harness, search

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

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


def test_perfbench_tracer_installs_and_restores_the_originals():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
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

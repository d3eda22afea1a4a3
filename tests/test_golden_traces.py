"""Golden-trace gate: the searches' observable bytes over a fixed grid.

One sha256 covers, for every run of the grid, the trace JSONL, the ledger
call counts and the answer, or the type and message of the error the run
raised. The grid spans all three strategies, both loop semantics, retrace
bounds, pool and summary settings, reduced pipelines, parallelism 1 and 4,
and a generator wrapper that corrupts a deterministic share of replies so
that parse failures reach every stage and every exhaustion path.

A refactor of the search engine must leave the digest unchanged. A change
that alters traces, ledgers, answers or error messages on purpose updates
``GOLDEN_SHA256`` and says why.
"""

import hashlib
from dataclasses import replace

from stagewise.backends import Generator, SimWorld, SimWorldConfig
from stagewise.search import (
    CalibrationStats,
    LoopSemantics,
    SearchConfig,
    SearchError,
    Strategy,
    best_of_n,
    run_strategy,
)
from stagewise.stages import StageKind

GOLDEN_SHA256 = "a468cb705b156fabeccd28cd3f13e834866142956d7c997adc143138c71a8585"

S, C, R, F = (
    StageKind.SUMMARY,
    StageKind.CAPTION,
    StageKind.REASONING,
    StageKind.CONCLUSION,
)

WORLD = SimWorld(
    SimWorldConfig(
        success={S: 0.9, C: 0.6, R: 0.6, F: 0.8},
        noise_std=0.8,
        rng_seed=41,
    )
)

# Cutoff 0.2533: a correct reasoning clears it about 77% of the time, an
# incorrect one about 4%, so SWIRES both accepts and retraces.
BASE = SearchConfig(stats=CalibrationStats(0.0, 1.0))

VARIANTS = {
    "default": {},
    "main_text": dict(loop_semantics=LoopSemantics.MAIN_TEXT),
    "c0": dict(retrace_limit=0),
    "c0_main_text": dict(retrace_limit=0, loop_semantics=LoopSemantics.MAIN_TEXT),
    "c1_main_text": dict(retrace_limit=1, loop_semantics=LoopSemantics.MAIN_TEXT),
    "min_pass_2": dict(min_pass_count=2),
    "high_cutoff": dict(stats=CalibrationStats(0.9, 0.5)),
    "summary_2": dict(summary_candidates=2),
    "start_summary": dict(retrace_start=S),
    "start_reasoning": dict(retrace_start=R),
    "m4_n1": dict(candidates_per_stage=4, beam_width=1),
    "m3_n3_summary_3": dict(candidates_per_stage=3, beam_width=3, summary_candidates=3),
    "only_conclusion": dict(pipeline=(F,)),
    "only_conclusion_m4_n1": dict(pipeline=(F,), candidates_per_stage=4, beam_width=1),
    "only_summary": dict(pipeline=(S,)),
    "summary_conclusion": dict(pipeline=(S, F), retrace_start=S),
    "summary_conclusion_2": dict(pipeline=(S, F), retrace_start=S, summary_candidates=2),
}

# (k, stage): corrupt replies whose request seed is divisible by k, at one
# target stage or, with stage None, at all. k=1 corrupts every such reply.
CORRUPTION = (
    (None, None),
    (7, None),
    (3, None),
    (2, None),
    (1, None),
    (1, C),
    (1, R),
    (2, R),
    (1, F),
)


class CorruptingGenerator(Generator):
    """Appends an unclosed open tag to the replies a corruption spec selects."""

    def __init__(self, inner: Generator, k, stage):
        self.inner = inner
        self.k = k
        self.stage = stage

    def generate(self, request):
        raw = self.inner.generate(request)
        if self.k is None or request.seed % self.k != 0:
            return raw
        if self.stage is not None and request.target_stages != (self.stage,):
            return raw
        return raw + " <CAPTION>"


def _runs():
    for name, overrides in VARIANTS.items():
        cfg = replace(BASE, **overrides)
        runners = [(s.value, replace(cfg, strategy=s), run_strategy) for s in Strategy]
        runners.append(("best_of_3", replace(cfg, beam_width=3), best_of_n))
        for label, run_cfg, search in runners:
            for parallelism in (1, 4):
                for k, stage in CORRUPTION:
                    for question in ("q-a", "q-b", "q-c"):
                        where = stage.value if stage else "all"
                        tag = f"{name}|{label}|p{parallelism}|k{k}@{where}|{question}"
                        yield tag, run_cfg, search, parallelism, (k, stage), question


def _record(run_cfg, search, parallelism, corruption, question) -> str:
    gen = CorruptingGenerator(WORLD, *corruption)
    try:
        result = search(question, run_cfg, gen, WORLD, run_seed=5, parallelism=parallelism)
    except SearchError as exc:
        return f"error {type(exc).__name__}: {exc}"
    return "\n".join(
        [
            result.trace.to_jsonl(),
            repr(sorted(result.ledger.counts_dict().items())),
            repr(result.answer),
        ]
    )


def grid_digest() -> str:
    h = hashlib.sha256()
    for label, *run in _runs():
        h.update(f"== {label}\n".encode())
        h.update(_record(*run).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_golden_trace_digest():
    assert grid_digest() == GOLDEN_SHA256

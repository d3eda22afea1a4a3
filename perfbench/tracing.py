"""Outside-in span tracing: wrap the package's public functions where they are called.

A ``Tracer`` replaces module attributes and class methods of the imported
``stagewise`` modules with wrappers that record one span per call: a name,
a start and end (``perf_counter_ns``) and the enclosing span. Spans live in
per-thread arrays so worker threads never interleave their writes; a span
opened on a worker thread with nothing open on that thread takes as parent
the innermost span open on the thread that started the tracer, which is the
search that handed the work to the pool. Nothing under ``src/`` changes:
``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from array import array
from pathlib import Path

_INDEX_BITS = 32
_INDEX_MASK = (1 << _INDEX_BITS) - 1
NO_PARENT = -1


class _Buffer:
    """Spans recorded by one thread, as parallel arrays."""

    def __init__(self, slot: int):
        self.base = slot << _INDEX_BITS
        self.names = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.stack: list[int] = []


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner_buf = self._buffer()
        self._patches: list[tuple[object, str, object]] = []
        self.active = False

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self.buffers))
                self.buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            buf = getattr(self._local, "buf", None) or self._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                owner = self._owner_buf.stack
                parent = owner[-1] if owner else NO_PARENT
            index = len(buf.starts)
            buf.names.append(nid)
            buf.parents.append(parent)
            buf.ends.append(0)
            stack.append(buf.base | index)
            buf.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.ends[index] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module global or a class method) by its traced form."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    def span_count(self) -> int:
        return sum(len(b.starts) for b in self.buffers)

    def write(self, out_dir: Path) -> None:
        """Write every span: ``spans.json`` (names, buffer layout) and ``spans.bin``.

        ``spans.bin`` holds, per buffer in order, its ``count`` name ids
        (int32), starts, ends and parents (int64, native byte order). A parent
        is ``slot << 32 | index`` of the enclosing span, or -1.
        """
        out_dir.mkdir(parents=True, exist_ok=True)
        layout = []
        with open(out_dir / "spans.bin", "wb") as fh:
            for slot, buf in enumerate(self.buffers):
                layout.append({"slot": slot, "count": len(buf.starts)})
                for column in (buf.names, buf.starts, buf.ends, buf.parents):
                    column.tofile(fh)
        meta = {"names": self.names, "buffers": layout, "clock": "perf_counter_ns"}
        (out_dir / "spans.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")

    def summarise(self, keep_durations: frozenset = frozenset()) -> dict[str, dict]:
        """Per span name: call count, total and self time (ns).

        Names in ``keep_durations`` also get every span's duration listed.

        Self time is a span's duration minus the part of it its children
        cover. Children on the span's own thread nest and never overlap, so
        their durations add; children on worker threads can overlap each
        other, so for a span with any, the union of all its children's
        intervals is taken instead.
        """
        child_ns = [array("q", bytes(8 * len(b.starts))) for b in self.buffers]
        pooled: dict[int, list[tuple[int, int]]] = {}
        for buf in self.buffers:
            for i, parent in enumerate(buf.parents):
                if parent == NO_PARENT:
                    continue
                slot, index = parent >> _INDEX_BITS, parent & _INDEX_MASK
                start, end = buf.starts[i], buf.ends[i]
                child_ns[slot][index] += end - start
                if self.buffers[slot] is not buf:
                    pooled.setdefault(parent, [])
        if pooled:
            for buf in self.buffers:
                for i, parent in enumerate(buf.parents):
                    if parent in pooled:
                        pooled[parent].append((buf.starts[i], buf.ends[i]))
            for parent, intervals in pooled.items():
                child_ns[parent >> _INDEX_BITS][parent & _INDEX_MASK] = _covered(intervals)

        kept = {self._name_ids[n] for n in keep_durations if n in self._name_ids}
        stats = {name: {"calls": 0, "total_ns": 0, "self_ns": 0, "durations": []} for name in self.names}
        for slot, buf in enumerate(self.buffers):
            covered = child_ns[slot]
            for i, nid in enumerate(buf.names):
                entry = stats[self.names[nid]]
                duration = buf.ends[i] - buf.starts[i]
                entry["calls"] += 1
                entry["total_ns"] += duration
                entry["self_ns"] += duration - covered[i]
                if nid in kept:
                    entry["durations"].append(duration)
        return stats


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def install(tracer: Tracer) -> None:
    """Wrap the public functions of stages, backends, search and harness at their call sites."""
    from stagewise import backends, harness, search

    for module in (search, harness, backends):
        tracer.patch(module, "stable_u64", "backends.stable_u64")
    tracer.patch(search, "text_digest", "backends.text_digest")
    tracer.patch(search, "parse_stage_continuation", "stages.parse_stage_continuation")
    tracer.patch(search, "parse_complete_continuation", "stages.parse_complete_continuation")
    tracer.patch(backends, "render_staged", "stages.render_staged")
    tracer.patch(backends.SimWorld, "generate", "backends.SimWorld.generate")
    tracer.patch(backends.SimWorld, "score", "backends.SimWorld.score")
    tracer.patch(backends.HttpGenerator, "generate", "backends.HttpGenerator.generate")
    tracer.patch(backends.HttpRewardScorer, "score", "backends.HttpRewardScorer.score")
    tracer.patch(search, "select_top", "search.select_top")
    tracer.patch(search, "best_of_n", "search.best_of_n")
    tracer.patch(search, "stage_wise_beam", "search.stage_wise_beam")
    tracer.patch(search, "swires", "search.swires")
    tracer.patch(search.SearchTrace, "log", "search.SearchTrace.log")
    tracer.patch(search.SearchTrace, "to_jsonl", "search.SearchTrace.to_jsonl")
    tracer.patch(search.SearchTrace, "write", "search.SearchTrace.write")
    tracer.patch(harness, "run_strategy", "search.run_strategy")
    tracer.patch(harness, "run_benchmark", "harness.run_benchmark")
    tracer.patch(harness, "monte_carlo_accuracy", "harness.monte_carlo_accuracy")
    tracer.patch(harness, "oracle_grade", "harness.oracle_grade")

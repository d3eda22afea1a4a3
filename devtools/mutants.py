"""Mutation runner for named line ranges of ``src/stagewise``, with the standard library and pytest alone.

Makes single-token mutants from the AST: a comparison swapped (``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in``
and ``not in``), an integer literal plus or minus one, one ``and``/``or``
swapped, and a ``not`` dropped. Each mutant patches a copy of the package by
byte offsets and runs a pytest subset with ``-x`` on it, in a child process
with a timeout (3 x the unmutated run + 30 s) and a 2 GiB address-space limit
(``RLIMIT_AS``), on 2 workers. The subset fails (the mutant is killed),
passes (it survives), or the child hits a limit: it times out, fails to
allocate memory, a thread or a process, or ends by a signal. That counts as
killed and is listed apart. Survivors on the equivalence list
(``devtools/mutants_equivalent.json``: mutants that change no behaviour, each
with its reason) are reported apart from the others. Writes a JSON report and
exits 1 if a survivor is not on the list.

    python devtools/mutants.py                            # the default ranges and tests
    python devtools/mutants.py --range search.py:select_top --tests tests/test_search.py
    python devtools/mutants.py --list                     # print the mutants, run nothing

A range is ``FILE:NAME`` or ``FILE:FIRST..LAST``: the top-level definitions
or assignments of those names in ``src/stagewise/FILE``, and every line from
the first through the last. Ranges that overlap the Monte Carlo fork pool
are refused: a mutant there can fork or allocate without bound.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stagewise"
EQUIVALENT = Path(__file__).resolve().parent / "mutants_equivalent.json"
DEFAULT_RANGES = ("search.py:_Engine..run_strategy", "harness.py:exact_accuracy", "harness.py:_any_correct")
DEFAULT_TESTS = ("tests/test_search.py", "tests/test_golden_traces.py", "tests/test_harness.py", "tests/test_stages.py")
# Top-level names whose lines no range may overlap: their mutants can fork or allocate without bound.
REFUSED = {"harness.py": ("_map_forked", "monte_carlo_accuracy", "_available_cpus",
                          "MIN_TRIALS_PER_WORKER", "TRIALS_PER_RANGE", "MAX_RANGES")}
WORKERS = 2
MEMORY = 2048 * 1024 * 1024  # bytes of address space per run (RLIMIT_AS)

_SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
          "is": "is not", "is not": "is", "in": "not in", "not in": "in"}
# The one operator in the text between two operands of a comparison, or of an and/or.
_COMPARISON = re.compile(r"is\s+not|not\s+in|[<>=!]=|[<>]|\bis\b|\bin\b")
_BOOLEAN = re.compile(r"\b(?:and|or)\b")
# How a run that the address-space limit stops can end, when it ends by no signal.
_OUT_OF_MEMORY = re.compile(r"MemoryError|can't start new thread|Cannot allocate memory|\[Errno 12\]")


@dataclass
class Mutant:
    file: str  # relative to src/stagewise
    line: int
    where: str  # the enclosing definitions, dotted
    source: str  # the mutated line, stripped
    column: int  # of the replaced text in that line, in bytes
    change: str  # "OLD -> NEW"
    start: int  # byte offsets of the replaced text in the file
    end: int
    new: str

    @property
    def key(self) -> tuple:
        """What the equivalence list matches: no line number, so edits elsewhere keep the entry."""
        return (self.file, self.where, self.source, self.column, self.change)


class Source:
    """A file's bytes, with (line, column) of the AST turned into byte offsets."""

    def __init__(self, path: Path):
        self.data = path.read_bytes()
        self.starts = [0]
        for line in self.data.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))

    def offset(self, line: int, col: int) -> int:
        return self.starts[line - 1] + col  # the AST's columns count UTF-8 bytes

    def text(self, start: int, end: int) -> str:
        return self.data[start:end].decode("utf-8")

    def line(self, number: int) -> str:
        return self.text(self.starts[number - 1], self.starts[number]).strip()


def top_level_spans(tree: ast.Module) -> dict[str, tuple[int, int]]:
    """Each top-level def, class or assigned name, with its first (decorators too) and last line."""
    spans = {}
    for node in tree.body:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            spans[node.name] = (first, node.end_lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    spans[target.id] = (first, node.end_lineno)
    return spans


def resolve_range(spec: str) -> tuple[str, int, int]:
    """``FILE:FIRST[..LAST]`` as (file, first line, last line); SystemExit on an unknown or refused range."""
    file, _, names = spec.partition(":")
    path = PACKAGE / file
    if not names or not path.is_file():
        raise SystemExit(f"bad range {spec!r}: give FILE:NAME or FILE:FIRST..LAST of a file in {PACKAGE}")
    spans = top_level_spans(ast.parse(path.read_bytes()))
    first_name, _, last_name = names.partition("..")
    try:
        first, last = spans[first_name][0], spans[last_name or first_name][1]
    except KeyError as exc:
        raise SystemExit(f"bad range {spec!r}: {file} has no top-level {exc.args[0]!r}") from None
    if first > last:
        raise SystemExit(f"bad range {spec!r}: {last_name!r} comes before {first_name!r}")
    for name in REFUSED.get(file, ()):
        low, high = spans[name]
        if low <= last and first <= high:
            raise SystemExit(f"refused range {spec!r}: it overlaps {name} (lines {low}-{high}), "
                             "where a mutant can fork or allocate without bound")
    return file, first, last


def _enclosing(tree: ast.Module):
    """Each node of ``tree`` with the dotted names of the definitions around it."""
    stack = [(tree, "<module>")]
    while stack:
        node, where = stack.pop()
        yield node, where
        inner = where
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = node.name if where == "<module>" else f"{where}.{node.name}"
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def _in_f_strings(tree: ast.Module) -> set[int]:
    """The ids of nodes inside f-strings, whose positions are not those of their text before Python 3.12."""
    return {id(sub) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr) for sub in ast.walk(node)}


def _gap(src: Source, left: ast.AST, right: ast.AST) -> tuple[int, str]:
    """The text between two operands, without its comments, and its start offset."""
    start = src.offset(left.end_lineno, left.end_col_offset)
    text = src.text(start, src.offset(right.lineno, right.col_offset))
    return start, re.sub(r"#[^\n]*", lambda m: " " * len(m.group().encode("utf-8")), text)


def make_mutants(file: str, first: int, last: int) -> list[Mutant]:
    """The mutants of lines ``first`` to ``last`` of ``file``, in source order."""
    src = Source(PACKAGE / file)
    tree = ast.parse(src.data)
    skip = _in_f_strings(tree)
    found = []

    def add(line, where, start, end, new):
        change = f"{src.text(start, end).strip()} -> {new}"
        found.append(Mutant(file, line, where, src.line(line), start - src.starts[line - 1], change, start, end, new))

    def add_in_gap(where, left, right, pattern, swaps):
        start, text = _gap(src, left, right)
        match = pattern.search(text)
        prefix = len(text[: match.start()].encode("utf-8"))
        line = left.end_lineno + text[: match.start()].count("\n")
        old = " ".join(match.group().split())
        add(line, where, start + prefix, start + prefix + len(match.group().encode("utf-8")), swaps[old])

    for node, where in _enclosing(tree):
        line = getattr(node, "lineno", 0)
        if not first <= line <= last or id(node) in skip:
            continue
        if isinstance(node, ast.Compare):
            for left, right in zip([node.left, *node.comparators], node.comparators):
                add_in_gap(where, left, right, _COMPARISON, _SWAPS)
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            start, end = src.offset(node.lineno, node.col_offset), src.offset(node.end_lineno, node.end_col_offset)
            for new in (node.value + 1, node.value - 1):
                add(line, where, start, end, f"({new})" if new < 0 else str(new))
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                add_in_gap(where, left, right, _BOOLEAN, {"and": "or", "or": "and"})
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            start = src.offset(node.lineno, node.col_offset)  # "not", and the space after it, go
            add(line, where, start, start + len(re.match(rb"not\s*", src.data[start:]).group()), "")
    return sorted(found, key=lambda m: (m.start, m.change))


def patched(data: bytes, mutant: Mutant) -> bytes:
    """``data`` with the mutant's text put in: every kind of mutant keeps the file's syntax."""
    return data[: mutant.start] + mutant.new.encode("utf-8") + data[mutant.end :]


# The child limits its own address space, then runs pytest: a preexec_fn is not safe in a threaded parent.
_CHILD = ("import resource, sys; limit = int(sys.argv.pop(1)); "
          "resource.setrlimit(resource.RLIMIT_AS, (limit, limit)); import pytest; sys.exit(pytest.main(sys.argv[1:]))")


def run_tests(src_dir: Path, tests: list[str], timeout: float) -> tuple[str, float, str]:
    """Run ``tests`` on the package in ``src_dir``: the outcome, the seconds it took, and its first failure."""

    env = {**os.environ, "PYTHONPATH": str(src_dir), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-c", _CHILD, str(MEMORY), "-x", "-q", "-p", "no:cacheprovider", *tests]
    started = time.monotonic()
    # Its own session, so a timeout ends any process the tests forked too.
    child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return "timeout", time.monotonic() - started, ""
    seconds = time.monotonic() - started
    text = out.decode("utf-8", "replace")
    failure = next((line for line in text.splitlines() if line.startswith(("FAILED ", "ERROR "))), "")
    if child.returncode == 0:
        return "survived", seconds, ""
    if child.returncode < 0:
        return "signal", seconds, failure
    if _OUT_OF_MEMORY.search(text):
        return "memory", seconds, failure
    return "killed", seconds, failure


def _copy_package(into: Path) -> Path:
    target = into / "src" / "stagewise"
    shutil.copytree(PACKAGE, target, ignore=shutil.ignore_patterns("__pycache__"))
    return target.parent


def load_equivalent(path: Path) -> dict[tuple, str]:
    entries = json.loads(path.read_text(encoding="utf-8"))
    return {(e["file"], e["where"], e["source"], e["column"], e["change"]): e["reason"] for e in entries}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--range", dest="ranges", action="append", metavar="FILE:FIRST[..LAST]",
                        help=f"a line range to mutate (repeatable; default: {', '.join(DEFAULT_RANGES)})")
    parser.add_argument("--tests", nargs="+", default=list(DEFAULT_TESTS), help="the pytest subset each mutant runs")
    parser.add_argument("--equivalent", type=Path, default=EQUIVALENT, help="the equivalence list (JSON)")
    parser.add_argument("--report", type=Path, default=Path("mutants-report.json"), help="JSON report path")
    parser.add_argument("--list", action="store_true", help="print the mutants and run nothing")
    args = parser.parse_args(argv)

    mutants = [m for spec in args.ranges or DEFAULT_RANGES for m in make_mutants(*resolve_range(spec))]
    if args.list:
        for m in mutants:
            print(f"{m.file}:{m.line} {m.where}: {m.change}    {m.source}")
        print(f"{len(mutants)} mutant(s)")
        return 0
    originals = {m.file: (PACKAGE / m.file).read_bytes() for m in mutants}
    equivalent = load_equivalent(args.equivalent)

    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        trees = [_copy_package(Path(scratch) / f"w{k}") for k in range(WORKERS)]
        outcome, baseline, failure = run_tests(trees[0], args.tests, timeout=3600)
        if outcome != "survived":
            print(f"the unmutated tree does not pass the tests ({outcome}): {failure}", file=sys.stderr)
            return 2
        timeout = 3 * baseline + 30
        print(f"{len(mutants)} mutant(s); unmutated run {baseline:.1f} s; timeout {timeout:.0f} s", flush=True)
        free = queue.SimpleQueue()  # one run per tree at a time: a worker takes one and puts it back
        for tree in trees:
            free.put(tree)

        def run(mutant: Mutant) -> dict:
            tree = free.get()
            path = tree / "stagewise" / mutant.file
            try:
                path.write_bytes(patched(originals[mutant.file], mutant))
                result, seconds, first_failure = run_tests(tree, args.tests, timeout)
            finally:
                path.write_bytes(originals[mutant.file])
                free.put(tree)
            row = {**asdict(mutant), "outcome": result, "seconds": round(seconds, 2), "failure": first_failure}
            if result == "survived" and mutant.key in equivalent:
                row["outcome"], row["reason"] = "equivalent", equivalent[mutant.key]
            # One write per line: the workers' lines would interleave with print's two.
            sys.stdout.write(f"{row['outcome']:>10} {mutant.file}:{mutant.line} {mutant.where}: {mutant.change}\n")
            sys.stdout.flush()
            return row

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            rows = list(pool.map(run, mutants))

    counts = {name: sum(r["outcome"] == name for r in rows)
              for name in ("killed", "timeout", "memory", "signal", "equivalent", "survived")}
    report = {"ranges": args.ranges or list(DEFAULT_RANGES), "tests": args.tests, "baseline_s": round(baseline, 2),
              "timeout_s": timeout, "memory_mb": MEMORY >> 20, "mutants": len(rows), "counts": counts,
              "killed_by_limit": [r for r in rows if r["outcome"] in ("timeout", "memory", "signal")],
              "survivors": [r for r in rows if r["outcome"] == "survived"], "runs": rows}
    args.report.write_text(json.dumps(report, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{len(rows)} mutant(s): " + ", ".join(f"{n} {name}" for name, n in counts.items()) + f"; report {args.report}")
    for row in report["survivors"]:
        print(f"survivor {row['file']}:{row['line']} {row['where']}: {row['change']}    {row['source']}")
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

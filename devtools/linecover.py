"""Statement coverage of ``src/stagewise`` by the test suite, with the standard library alone.

Runs pytest in this process under ``sys.settrace`` and ``threading.settrace``,
records each line of ``src/stagewise/*.py`` that ran, and prints, per file,
every statement that no test ran. A statement counts as run when any line of
its own ran: for a compound statement, its header (decorators included) or,
for ``try``, its first body statement. Docstrings, ``global`` and
``nonlocal`` statements, and annotations without a value compile to no code
and are skipped. Forked children are not traced: their lines show as not run.

    python devtools/linecover.py                # tests/, without test_acceptance.py
    python devtools/linecover.py -q tests/test_stages.py

Arguments are passed to pytest as they are. Exits with pytest's exit code.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stagewise"
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                "--ignore", str(ROOT / "tests" / "test_acceptance.py")]


def statements(path: Path) -> dict[int, set[int]]:
    """Each statement of ``path`` that compiles to code, by its first line, with the lines that count as its own."""
    found: dict[int, set[int]] = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.AnnAssign) and node.value is None:
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue  # a docstring, or a string that compiles to nothing
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            own = {node.lineno, body[0].lineno}
        elif isinstance(body, list) and body:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            own = set(range(first, body[0].lineno))
        else:
            own = set(range(node.lineno, node.end_lineno + 1))
        found[node.lineno] = own
    return found


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in ran else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(argv or DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for name, path in files.items():
        text = path.read_text(encoding="utf-8").splitlines()
        missed = [line for line, own in sorted(statements(path).items()) if not own & ran[name]]
        total += len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} statement(s) not run")
        for line in missed:
            print(f"  {line}: {text[line - 1].strip()}")
    print(f"{total} statement(s) not run in {len(files)} file(s)")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

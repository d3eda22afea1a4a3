"""Line-delimited JSON files: one reader for every input, one cut before appends."""

from __future__ import annotations

import json
import mmap
import os
from typing import Callable


def read_jsonl(path, what: str, build: Callable[[dict], object]) -> list:
    """``build(obj)`` for each line of ``path``, a JSON object, in file order.

    Blank lines are skipped. A line that is not JSON or not an object, or
    whose object ``build`` rejects with KeyError, TypeError or ValueError,
    raises ``ValueError("FILE:LINE: bad <what>: <reason>")``.
    """
    built = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
                built.append(build(obj))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad {what}: {exc}") from exc
    return built


def trim_partial_last_line(path) -> None:
    """Cut an unterminated last line, left by a killed run, before an append.

    The search for the last newline runs back from the end of a memory map,
    so it reads only the file's tail. A missing file stays missing.
    """
    if not os.path.exists(path) or not os.path.getsize(path):
        return
    with open(path, "r+b") as fh:
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
            end, size = view.rfind(b"\n") + 1, len(view)
        if end < size:
            fh.truncate(end)

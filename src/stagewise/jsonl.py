"""Line-delimited JSON record files: one reader for inputs and earlier outputs,
one open to append that first cuts a line a killed run left short, one record writer;
and the one JSON decoder of input files and the config."""

from __future__ import annotations

import json
import os
from typing import Callable, Optional


class RepeatedKeyError(ValueError):
    """A JSON object names one key twice; ``json.loads`` alone would keep the last."""


def _object_of_unique_keys(pairs: list) -> dict:
    """A JSON object's dict; a key it names twice raises RepeatedKeyError."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise RepeatedKeyError(f"key {key!r} appears twice in one object")
            seen.add(key)
    return data


# Built once: json.loads with any keyword argument builds a new decoder per call.
_DECODER = json.JSONDecoder(object_pairs_hook=_object_of_unique_keys)


def decode(text: str):
    """``text`` as JSON, each object a dict.

    A key named twice in one object raises RepeatedKeyError, and nesting
    deeper than the interpreter's recursion limit ValueError, where
    ``json.loads`` raises RecursionError.
    """
    try:
        return _DECODER.decode(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def read_jsonl(path, what: str, build: Callable[[dict], object]) -> list:
    """``build(obj)`` for each line of ``path``, a JSON object, in file order.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``; blank lines are skipped. A line
    that is not UTF-8, not JSON (as ``decode`` reads it) or not an object, or
    whose object ``build`` rejects with KeyError, TypeError or ValueError, raises
    ``ValueError("FILE:LINE: bad <what>: <reason>")``.
    """
    built = []
    # Bytes that are not UTF-8 are carried as lone surrogates until their
    # line is decoded, so the error can name that line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():
                    line = line.encode("utf-8", "surrogateescape").decode("utf-8")
                obj = decode(line)
                if not isinstance(obj, dict):
                    raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
                built.append(build(obj))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad {what}: {exc}") from exc
    return built


def string_field(data: dict, key: str, optional: bool = False) -> Optional[str]:
    """``data[key]``, TypeError unless a string; ``optional`` lets it be absent or null (None).

    A string that does not encode as UTF-8 (a lone surrogate escape such as
    ``"\\ud800"``) raises ValueError: every text is hashed and written as UTF-8.
    """
    value = data.get(key) if optional else data[key]
    if not isinstance(value, str) and not (optional and value is None):
        raise TypeError(f"{key} must be a string, got {value!r}")
    if value is not None and not value.isascii():
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{key} is not valid UTF-8 text: {value!r}") from None
    return value


def id_field(data: dict) -> str:
    """``data["id"]``: a JSON string, or a JSON integer read as its decimal text."""
    value = data["id"]
    if type(value) is int:
        return str(value)
    if not isinstance(value, str):
        raise TypeError(f"id must be a string or an integer, got {value!r}")
    return string_field(data, "id")


# Built once: json.dumps with any keyword argument builds a new encoder per call.
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def open_append(path):
    """``path`` opened to append UTF-8 text, after cutting an unterminated last line.

    A line ends at ``\\n`` or ``\\r``, as ``read_jsonl`` reads it. The search for
    the last line end runs back from the end of a memory map, so it reads only
    the file's tail. A missing file is made.
    """
    if os.path.exists(path) and os.path.getsize(path):
        import mmap  # imported here: only appends to an existing file need it

        with open(path, "r+b") as fh:
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
                lf = view.rfind(b"\n")
                end, size = max(lf, view.rfind(b"\r", lf + 1)) + 1, len(view)
            if end < size:
                fh.truncate(end)
    return open(path, "a", encoding="utf-8")


def append_record(fh, record: dict) -> None:
    """Write ``record`` as one line, then flush it, so a run that dies keeps the records before it."""
    fh.write(_RECORD_ENCODER.encode(record) + "\n")
    fh.flush()

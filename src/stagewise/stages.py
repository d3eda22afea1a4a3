"""Four-stage tagged response format: grammar, parser, and renderer.

A staged response is a sequence of tagged blocks, one per reasoning stage,
in the canonical order summary -> caption -> reasoning -> conclusion. The
tags are fixed, the ones the generation prompt spells out: ``<SUMMARY>``
opens the summary stage and ``</SUMMARY>`` closes it, and likewise for
``CAPTION``, ``REASONING`` and ``CONCLUSION``. ``DEFAULT_SCHEMA`` is that
one tag table. The parser is strict: stray text, unbalanced tags, and
out-of-order stages are errors, never silently repaired.

The continuation parsers, called once per generated reply, take a shortcut
and fall back to ``parse_staged``. A one-stage body that holds no tag is
returned directly as the block's text; a whole response whose blocks come
in pipeline order with no ``<`` in any body is split in one pass. Anything
else goes to ``parse_staged`` as the same string it always did, so results,
error types and messages are the full parser's either way.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Optional, Sequence


class StageKind(enum.Enum):
    SUMMARY = "summary"
    CAPTION = "caption"
    REASONING = "reasoning"
    CONCLUSION = "conclusion"

    # Members are singletons, so identity hashing is exact, and it skips the
    # Python-level Enum.__hash__ on every enum-keyed dict lookup.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "StageKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown stage name: {name!r}") from None


CANONICAL_ORDER: tuple[StageKind, ...] = (
    StageKind.SUMMARY,
    StageKind.CAPTION,
    StageKind.REASONING,
    StageKind.CONCLUSION,
)


class StageFormatError(ValueError):
    """Base class for staged-response format violations."""


class UnbalancedTagError(StageFormatError):
    """An opening tag has no matching closing tag before other tags or EOF."""


class OutOfOrderError(StageFormatError):
    """A stage repeats or appears after a canonically later stage."""


class MissingStageError(StageFormatError):
    """A complete response was required but stages are missing."""


class StrayTextError(StageFormatError):
    """Non-whitespace text found outside any tag pair."""


_OPEN = {kind: f"<{kind.name}>" for kind in CANONICAL_ORDER}
_CLOSE = {kind: f"</{kind.name}>" for kind in CANONICAL_ORDER}
# Open tag -> (stage, its close tag), and one pattern matching any tag. No tag
# is a substring of another, so at most one tag matches at any offset; no open
# tag starts with whitespace, which the parser skips before it looks for one.
_OPENING = {_OPEN[kind]: (kind, _CLOSE[kind]) for kind in CANONICAL_ORDER}
_SCANNER = re.compile("|".join(map(re.escape, [*_OPEN.values(), *_CLOSE.values()])))


class _TagTable:
    """The fixed tags: ``<NAME>`` opens a stage and ``</NAME>`` closes it."""

    def open(self, kind: StageKind) -> str:
        return _OPEN[kind]

    def close(self, kind: StageKind) -> str:
        return _CLOSE[kind]


DEFAULT_SCHEMA = _TagTable()


# The hot frozen dataclasses below (and the request types in ``backends``)
# write their fields straight into the instance dict. The generated __init__
# of a frozen dataclass sets each field through ``object.__setattr__``, which
# takes about twice as long; the fields, equality, hash and repr are the
# dataclass's own either way.


@dataclass(frozen=True)
class StageBlock:
    """One stage's inner text, tags stripped and surrounding whitespace trimmed."""

    kind: StageKind
    text: str

    def __init__(self, kind: StageKind, text: str) -> None:
        fields = self.__dict__
        fields["kind"] = kind
        fields["text"] = text


@dataclass(frozen=True)
class StagedResponse:
    """An ordered sequence of stage blocks forming a (possibly partial) response."""

    blocks: tuple[StageBlock, ...] = ()

    def __init__(self, blocks: tuple[StageBlock, ...] = ()) -> None:
        self.__dict__["blocks"] = blocks

    @property
    def kinds(self) -> tuple[StageKind, ...]:
        return tuple(b.kind for b in self.blocks)

    @property
    def final_text(self) -> str:
        """Text of the last block; the answer surfaced to the caller."""
        if not self.blocks:
            return ""
        return self.blocks[-1].text

    def append(self, block: StageBlock) -> "StagedResponse":
        return StagedResponse(self.blocks + (block,))


EMPTY_RESPONSE = StagedResponse()

# str.isspace and the \s class agree on every code point.
_NON_SPACE = re.compile(r"\S")


def parse_staged(
    text: str,
    *,
    require_complete: bool = False,
    expected_order: Sequence[StageKind] = CANONICAL_ORDER,
) -> StagedResponse:
    """Parse tagged text into a StagedResponse.

    Blocks must follow ``expected_order``: each block strictly later in the
    order than the one before (no repeats, no going back); with
    ``require_complete`` every expected stage must be present. Whitespace
    between blocks is ignored; any other text outside a tag pair is an
    error. Inner text is trimmed but otherwise preserved byte-for-byte.

    Raises:
        StrayTextError: non-whitespace text outside any tag pair.
        UnbalancedTagError: an open tag without its matching close tag next.
        OutOfOrderError: a block that repeats or goes backward in the order.
        MissingStageError: require_complete and fewer blocks than expected.
    """
    order = tuple(expected_order)
    match_tag = _SCANNER.match
    find_tag = _SCANNER.search
    opening = _OPENING

    blocks: list[StageBlock] = []
    prev_pos = -1
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            rest = _NON_SPACE.search(text, i)
            if rest is None:
                break
            i = rest.start()
        # A block must open right here; a close tag here is stray text too.
        tag = match_tag(text, i)
        entry = opening.get(tag.group()) if tag is not None else None
        if entry is None:
            snippet = text[i : i + 24]
            raise StrayTextError(f"stray text at offset {i}: {snippet!r}")
        kind, close = entry
        body_start = tag.end()
        # The matching close tag must be the next tag of any kind; an
        # intervening tag means the block was never properly closed. At most
        # one tag matches at any offset, so the leftmost match is that tag.
        next_tag = find_tag(text, body_start)
        if next_tag is None or next_tag.group() != close:
            raise UnbalancedTagError(
                f"{tag.group()} at offset {i} has no matching {close}"
            )
        if kind not in order:
            raise OutOfOrderError(f"stage {kind.name} is not expected here")
        pos = order.index(kind)
        if pos <= prev_pos:
            raise OutOfOrderError(
                f"stage {kind.name} repeats or appears after a later stage"
            )
        prev_pos = pos
        blocks.append(StageBlock(kind, text[body_start : next_tag.start()].strip()))
        i = next_tag.end()

    if require_complete and len(blocks) < len(order):
        seen = {b.kind for b in blocks}
        missing = ", ".join(k.name for k in order if k not in seen)
        raise MissingStageError(f"incomplete response; missing {missing}")
    return StagedResponse(tuple(blocks))


def render_staged(resp: StagedResponse) -> str:
    """Render blocks in order, each wrapped in its tag pair, newline-separated."""
    return "\n".join(f"{_OPEN[b.kind]}{b.text}{_CLOSE[b.kind]}" for b in resp.blocks)


def stop_marker(kind: StageKind) -> str:
    """Closing tag for a stage; used as the generation stop sequence."""
    return _CLOSE[kind]


def parse_stage_continuation(raw: str, kind: StageKind) -> StageBlock:
    """Parse one stage's generated continuation (stop marker already stripped).

    Accepts text with or without the leading open tag and rejects any other
    embedded tag, reusing the full parser's error surface: a body holding no
    tag is the block's text as it stands, and any other body goes to
    ``parse_staged`` wrapped in the stage's tags for its error: with a third
    tag between that pair, it raises for every such text.
    """
    body = raw.strip()
    open_tag = _OPEN[kind]
    inner = body[len(open_tag) :] if body.startswith(open_tag) else body
    if _SCANNER.search(inner) is not None:
        parse_staged(open_tag + inner + _CLOSE[kind], require_complete=True, expected_order=(kind,))
    return StageBlock(kind, inner.strip())


# Pipeline -> the pattern that splits its complete continuation in one pass:
# each stage's open tag, a body holding no ``<``, and its close tag, in
# pipeline order with whitespace between blocks; the final close tag is the
# stop marker, already cut off.
_COMPLETE_PATTERNS: dict[tuple[StageKind, ...], re.Pattern[str]] = {}


def _complete_pattern(pipeline: tuple[StageKind, ...]) -> Optional[re.Pattern[str]]:
    """The pattern for ``pipeline``; None when a stage repeats or is not a stage."""
    pattern = _COMPLETE_PATTERNS.get(pipeline)
    if pattern is None:
        kinds = set(pipeline)
        if len(kinds) != len(pipeline) or not kinds <= _OPEN.keys():
            return None
        blocks = [rf"\s*{_OPEN[kind]}([^<]*){_CLOSE[kind]}" for kind in pipeline[:-1]]
        pattern = re.compile("".join(blocks) + rf"\s*{_OPEN[pipeline[-1]]}([^<]*)")
        _COMPLETE_PATTERNS[pipeline] = pattern
    return pattern


def parse_complete_continuation(raw: str, pipeline: Sequence[StageKind]) -> StagedResponse:
    """Parse a whole-response continuation truncated at the final stop marker.

    Text that the pipeline's pattern matches in full, every body free of
    ``<``, is split in one pass; any other text goes to ``parse_staged`` with
    the final close tag put back, for the full parser's errors.
    """
    stages = tuple(pipeline)
    pattern = _complete_pattern(stages)
    match = pattern.fullmatch(raw) if pattern is not None else None
    if match is None:
        return parse_staged(
            raw + _CLOSE[stages[-1]], require_complete=True, expected_order=pipeline
        )
    return StagedResponse(
        tuple([StageBlock(kind, text.strip()) for kind, text in zip(stages, match.groups())])
    )

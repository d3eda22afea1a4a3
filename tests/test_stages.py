import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stagewise import stages
from stagewise.stages import (
    CANONICAL_ORDER,
    DEFAULT_SCHEMA,
    EMPTY_RESPONSE,
    MissingStageError,
    OutOfOrderError,
    StageBlock,
    StagedResponse,
    StageFormatError,
    StageKind,
    StrayTextError,
    UnbalancedTagError,
    parse_complete_continuation,
    parse_stage_continuation,
    parse_staged,
    render_staged,
    stop_marker,
)

from stagewise.datagen import GENERATION_PROMPT

from conftest import random_staged_response

WELL_FORMED = (
    "<SUMMARY>a</SUMMARY><CAPTION>b</CAPTION>"
    "<REASONING>c</REASONING><CONCLUSION>d</CONCLUSION>"
)


def test_parse_minimal_complete():
    resp = parse_staged(WELL_FORMED, require_complete=True)
    assert [b.text for b in resp.blocks] == ["a", "b", "c", "d"]
    assert resp.kinds == CANONICAL_ORDER


def test_parse_unbalanced_tag():
    with pytest.raises(UnbalancedTagError):
        parse_staged("<SUMMARY>a</SUMMARY><CONCLUSION>d", require_complete=False)


def test_parse_out_of_order():
    with pytest.raises(OutOfOrderError):
        parse_staged(
            "<CAPTION>b</CAPTION><SUMMARY>a</SUMMARY>"
            "<REASONING>c</REASONING><CONCLUSION>d</CONCLUSION>"
        )


def test_parse_repeat_is_out_of_order():
    with pytest.raises(OutOfOrderError):
        parse_staged("<SUMMARY>a</SUMMARY><SUMMARY>b</SUMMARY>")


def test_parse_skipped_stage_partial_ok_complete_missing():
    text = "<SUMMARY>a</SUMMARY><REASONING>c</REASONING>"
    resp = parse_staged(text)  # forward skips are legal in a partial parse
    assert resp.kinds == (StageKind.SUMMARY, StageKind.REASONING)
    with pytest.raises(MissingStageError) as err:
        parse_staged(text, require_complete=True)
    assert "CAPTION" in str(err.value)


def test_parse_missing_stage():
    with pytest.raises(MissingStageError):
        parse_staged("<SUMMARY>a</SUMMARY>", require_complete=True)
    with pytest.raises(MissingStageError):
        parse_staged("", require_complete=True)


def test_parse_stray_text():
    with pytest.raises(StrayTextError):
        parse_staged("hello <SUMMARY>a</SUMMARY>")
    with pytest.raises(StrayTextError):
        parse_staged(WELL_FORMED + " trailing prose")
    with pytest.raises(StrayTextError):
        parse_staged("</SUMMARY>")  # bare close tag is outside any pair


def test_parse_whitespace_between_blocks_ignored():
    spaced = WELL_FORMED.replace("><", ">\n\n  <")
    resp = parse_staged(spaced, require_complete=True)
    assert [b.text for b in resp.blocks] == ["a", "b", "c", "d"]


def test_parse_inner_whitespace_trimmed_content_preserved():
    resp = parse_staged("<SUMMARY>  two  words \n</SUMMARY>")
    assert resp.blocks[0].text == "two  words"


def test_parse_nested_tag_is_unbalanced():
    with pytest.raises(UnbalancedTagError):
        parse_staged("<SUMMARY>a<CAPTION>b</CAPTION></SUMMARY>")


def test_parse_empty_input():
    assert parse_staged("") == EMPTY_RESPONSE
    assert parse_staged("  \n\t ") == EMPTY_RESPONSE


def test_parse_is_case_sensitive():
    with pytest.raises(StrayTextError):
        parse_staged("<summary>a</summary>")


def test_parse_expected_order_prefix_rule():
    pipeline = (StageKind.CONCLUSION,)
    resp = parse_staged("<CONCLUSION>d</CONCLUSION>", expected_order=pipeline)
    assert resp.kinds == pipeline
    with pytest.raises(OutOfOrderError):
        parse_staged("<SUMMARY>a</SUMMARY>", expected_order=pipeline)


def test_parser_totality_exactly_one_error_kind():
    rng = random.Random(4242)
    pieces = [
        "<SUMMARY>", "</SUMMARY>", "<CAPTION>", "</CAPTION>", "<REASONING>",
        "</REASONING>", "<CONCLUSION>", "</CONCLUSION>", "a", " ", "\n", "x y",
    ]
    for _ in range(2000):
        text = "".join(rng.choice(pieces) for _ in range(rng.randint(0, 8)))
        try:
            parse_staged(text)
        except (UnbalancedTagError, OutOfOrderError, StrayTextError, MissingStageError):
            pass  # exactly one of the declared error kinds


def test_render_empty_and_single():
    assert render_staged(EMPTY_RESPONSE) == ""
    one = StagedResponse((StageBlock(StageKind.SUMMARY, "a"),))
    assert render_staged(one) == "<SUMMARY>a</SUMMARY>"


def test_round_trip_generated_corpus():
    rng = random.Random(17)
    for _ in range(10_000):
        resp = random_staged_response(rng)
        assert parse_staged(render_staged(resp)) == resp


def test_prefix_monotonicity():
    rng = random.Random(99)
    for _ in range(300):
        resp = random_staged_response(rng)
        rendered = render_staged(resp)
        parsed = parse_staged(rendered)
        assert parsed == resp
        # Truncating after block j must parse to the first j blocks.
        offset = 0
        for j, block in enumerate(resp.blocks, start=1):
            close = DEFAULT_SCHEMA.close(block.kind)
            offset = rendered.index(close, offset) + len(close)
            prefix = parse_staged(rendered[:offset])
            assert prefix.blocks == resp.blocks[:j]


def test_stop_marker():
    assert stop_marker(StageKind.SUMMARY) == "</SUMMARY>"
    assert stop_marker(StageKind.CONCLUSION) == "</CONCLUSION>"


# The scanner relies on these: at most one tag matches at any offset, and
# the whitespace skipped between blocks never hides the start of an open tag.
_OPEN_TAGS = tuple(DEFAULT_SCHEMA.open(kind) for kind in CANONICAL_ORDER)
_TAGS = _OPEN_TAGS + tuple(DEFAULT_SCHEMA.close(kind) for kind in CANONICAL_ORDER)


def test_fixed_tags_are_distinct_and_none_is_a_substring_of_another():
    assert len(set(_TAGS)) == len(_TAGS) == 8
    assert all(a not in b for a in _TAGS for b in _TAGS if a != b)


@pytest.mark.parametrize("lead", [" ", "\t", "\n", "　"])
def test_schema_rejects_open_tag_starting_with_whitespace(lead):
    # The parser skips whitespace before an open tag, so no fixed open tag
    # may start with it; the skipped lead must still leave each block parsed.
    assert all(tag and not tag[0].isspace() for tag in _OPEN_TAGS)
    assert not any(tag.startswith(lead) for tag in _OPEN_TAGS)
    spaced = WELL_FORMED.replace("><", ">" + lead + "<")
    resp = parse_staged(lead + spaced, require_complete=True)
    assert [b.text for b in resp.blocks] == ["a", "b", "c", "d"]


def test_generation_prompt_spells_out_every_tag():
    for tag in _TAGS:
        assert tag in GENERATION_PROMPT, tag


def test_parse_stage_continuation_with_and_without_open_tag():
    block = parse_stage_continuation("<REASONING>because", StageKind.REASONING)
    assert block == StageBlock(StageKind.REASONING, "because")
    block = parse_stage_continuation("  because  ", StageKind.REASONING)
    assert block.text == "because"


def test_parse_stage_continuation_rejects_embedded_tags():
    with pytest.raises(StageFormatError):
        parse_stage_continuation("<SUMMARY>a</CAPTION>", StageKind.SUMMARY)


def test_staged_response_helpers():
    resp = parse_staged(WELL_FORMED)
    assert resp.blocks[1] == StageBlock(StageKind.CAPTION, "b")
    assert resp.blocks[3] == StageBlock(StageKind.CONCLUSION, "d")
    assert resp.final_text == "d"
    assert EMPTY_RESPONSE.final_text == ""
    grown = EMPTY_RESPONSE.append(StageBlock(StageKind.SUMMARY, "s"))
    assert grown.kinds == (StageKind.SUMMARY,)


# ---------------------------------------------------------------------------
# Differential test against the string-scanning parser the scanner replaced
# ---------------------------------------------------------------------------


def _reference_parse_staged(text, require_complete=False, expected_order=CANONICAL_ORDER):
    """``parse_staged`` as it was before the precompiled scanner, over the fixed tags."""
    schema, all_tags = DEFAULT_SCHEMA, _TAGS
    order = tuple(expected_order)
    opens = {schema.open(kind): kind for kind in CANONICAL_ORDER}

    blocks = []
    prev_pos = -1
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        kind = None
        for tag, k in opens.items():
            if text.startswith(tag, i):
                kind = k
                break
        if kind is None:
            snippet = text[i : i + 24]
            raise StrayTextError(f"stray text at offset {i}: {snippet!r}")
        body_start = i + len(schema.open(kind))
        close = schema.close(kind)
        next_pos, next_tag = -1, ""
        for tag in all_tags:
            p = text.find(tag, body_start)
            if p != -1 and (next_pos == -1 or p < next_pos):
                next_pos, next_tag = p, tag
        if next_pos == -1 or next_tag != close:
            raise UnbalancedTagError(
                f"{schema.open(kind)} at offset {i} has no matching {close}"
            )
        if kind not in order:
            raise OutOfOrderError(f"stage {kind.name} is not expected here")
        pos = order.index(kind)
        if pos <= prev_pos:
            raise OutOfOrderError(
                f"stage {kind.name} repeats or appears after a later stage"
            )
        prev_pos = pos
        blocks.append(StageBlock(kind, text[body_start:next_pos].strip()))
        i = next_pos + len(close)

    if require_complete and len(blocks) < len(order):
        seen = {b.kind for b in blocks}
        missing = ", ".join(k.name for k in order if k not in seen)
        raise MissingStageError(f"incomplete response; missing {missing}")
    return StagedResponse(tuple(blocks))


_S, _C, _R, _F = CANONICAL_ORDER

_WHITESPACE = (" ", "\n", "\t", "\r\n", "\x0b", "\x1c", "\x85", "\xa0", " ", " ", "　")
_STRAY = ("x", "abc", "<", ">", "</", "<<", "SUMMARY", "[[sim::ok]]", "é", "日本", "​", "{", "$")
_ORDERS = (
    CANONICAL_ORDER,
    (_R,),
    (_F,),
    (_S, _F),
    (_C, _R, _F),
    (_F, _R, _C, _S),
)


def _fragment(rng: random.Random) -> str:
    schema, tags = DEFAULT_SCHEMA, _TAGS
    roll = rng.random()
    if roll < 0.3:
        kind = rng.choice(CANONICAL_ORDER)
        inner = "".join(rng.choice(("", "text ", "1.5", " ", "\n", " ")) for _ in range(rng.randint(0, 3)))
        return f"{schema.open(kind)}{inner}{schema.close(kind)}"
    if roll < 0.5:
        return rng.choice(tags)
    if roll < 0.65:
        # Half of a tag; a later fragment may complete it across the join.
        tag = rng.choice(tags)
        cut = rng.randint(1, len(tag) - 1)
        return tag[:cut] if rng.random() < 0.5 else tag[cut:]
    if roll < 0.85:
        return "".join(rng.choice(_WHITESPACE) for _ in range(rng.randint(1, 3)))
    if roll < 0.95:
        return rng.choice(_STRAY)
    return rng.choice(tags).lower()


def _outcome(parse, text, require_complete, order):
    try:
        return ("ok", parse(text, require_complete=require_complete, expected_order=order))
    except StageFormatError as exc:
        return (type(exc), str(exc))


def test_parser_matches_reference_on_generated_corpus():
    rng = random.Random(20241)
    seen = set()
    for _ in range(2000):
        text = "".join(_fragment(rng) for _ in range(rng.randint(0, 8)))
        for require_complete in (False, True):
            for order in _ORDERS:
                want = _outcome(_reference_parse_staged, text, require_complete, order)
                got = _outcome(parse_staged, text, require_complete, order)
                assert got == want, (text, require_complete, order)
                seen.add(want[0])
    # The corpus reaches every outcome, not just the easy ones.
    assert seen == {"ok", StrayTextError, UnbalancedTagError, OutOfOrderError, MissingStageError}


# ---------------------------------------------------------------------------
# Differential tests: the continuation parsers' shortcuts against their
# plain forms over ``parse_staged``
# ---------------------------------------------------------------------------


def _reference_stage_continuation(raw, kind):
    """``parse_stage_continuation`` as a wrapper over ``parse_staged`` alone."""
    body = raw.strip()
    if not body.startswith(DEFAULT_SCHEMA.open(kind)):
        body = DEFAULT_SCHEMA.open(kind) + body
    resp = parse_staged(
        body + DEFAULT_SCHEMA.close(kind), require_complete=True, expected_order=(kind,)
    )
    return resp.blocks[0]


def _reference_complete_continuation(raw, pipeline):
    """``parse_complete_continuation`` as a wrapper over ``parse_staged`` alone."""
    return parse_staged(
        raw + DEFAULT_SCHEMA.close(tuple(pipeline)[-1]),
        require_complete=True,
        expected_order=pipeline,
    )


_BODY_PIECES = (
    "text ", "1.5", "<", ">", "<>", "a < b", "b > a", "</", "/>", "<<", "[[sim::ok]]",
    *(tag.lower() for tag in _TAGS),
    *(tag[:cut] for tag in _TAGS for cut in (1, 2, len(tag) - 1)),
    *(tag[cut:] for tag in _TAGS for cut in (1, len(tag) - 1)),
    *_WHITESPACE,
)


def _body(rng: random.Random) -> str:
    """Block text that may hold ``<``, ``>``, lowercase tags, half-tags and whitespace."""
    pieces = _BODY_PIECES if rng.random() < 0.6 else _BODY_PIECES + _TAGS
    return "".join(rng.choice(pieces) for _ in range(rng.randint(0, 4)))


def _space(rng: random.Random) -> str:
    return "".join(rng.choice(_WHITESPACE) for _ in range(rng.choice((0, 0, 1, 2))))


def _stage_continuation(rng: random.Random, kind: StageKind) -> str:
    """A generated one-stage reply: fragments, or an optional open tag and a body."""
    if rng.random() < 0.3:
        return "".join(_fragment(rng) for _ in range(rng.randint(0, 4)))
    head = rng.choice((DEFAULT_SCHEMA.open(kind), DEFAULT_SCHEMA.open(rng.choice(CANONICAL_ORDER)), ""))
    return _space(rng) + head + _body(rng) + _space(rng)


def _complete_continuation(rng: random.Random, pipeline) -> str:
    """A whole-response reply cut at the final stop marker, mostly well formed."""
    if rng.random() < 0.2:
        return "".join(_fragment(rng) for _ in range(rng.randint(0, 8)))
    kinds = list(pipeline)
    roll = rng.random()
    if roll < 0.1 and kinds:
        del kinds[rng.randrange(len(kinds))]
    elif roll < 0.2:
        kinds.append(rng.choice(CANONICAL_ORDER))
    elif roll < 0.3:
        rng.shuffle(kinds)
    text = "".join(
        _space(rng) + DEFAULT_SCHEMA.open(kind) + _body(rng) + DEFAULT_SCHEMA.close(kind)
        for kind in kinds
    )
    if kinds and text.endswith(DEFAULT_SCHEMA.close(kinds[-1])) and rng.random() < 0.9:
        text = text[: -len(DEFAULT_SCHEMA.close(kinds[-1]))]
    return text + (_space(rng) if rng.random() < 0.2 else "")


def _continuation_outcome(parse, raw, target):
    try:
        return ("ok", parse(raw, target))
    except StageFormatError as exc:
        return (type(exc), str(exc))


class _FallbackCounter:
    """Stands in for ``stages.parse_staged`` and counts the calls that reach it."""

    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return parse_staged(*args, **kwargs)


def test_stage_continuation_matches_reference_and_reaches_both_paths(monkeypatch):
    fallback = _FallbackCounter()
    monkeypatch.setattr(stages, "parse_staged", fallback)
    rng = random.Random(1701)
    paths = {kind: set() for kind in CANONICAL_ORDER}
    outcomes = set()
    for _ in range(3000):
        for kind in CANONICAL_ORDER:
            raw = _stage_continuation(rng, kind)
            want = _continuation_outcome(_reference_stage_continuation, raw, kind)
            calls = fallback.calls
            got = _continuation_outcome(parse_stage_continuation, raw, kind)
            assert got == want, (raw, kind)
            paths[kind].add("fallback" if fallback.calls > calls else "shortcut")
            outcomes.add(want[0])
    assert all(seen == {"shortcut", "fallback"} for seen in paths.values()), paths
    assert outcomes == {"ok", StrayTextError, UnbalancedTagError, OutOfOrderError}


# Text around a tag: pieces that may make a second tag, a half-tag, or whitespace alone.
_AROUND = st.lists(st.sampled_from(_BODY_PIECES + _TAGS + _STRAY), max_size=3).map("".join)
_UNTAGGED = st.lists(st.sampled_from(_BODY_PIECES + _STRAY), max_size=3).map("".join).filter(
    lambda text: not any(tag in text for tag in _TAGS)
)
_STAGE_TEXT = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@_STAGE_TEXT
@given(st.sampled_from(CANONICAL_ORDER), st.booleans(), _AROUND, st.sampled_from(_TAGS), _AROUND)
def test_stage_continuation_body_holding_a_tag_raises_what_parse_staged_raises(kind, opened, before, tag, after):
    open_tag, close_tag = DEFAULT_SCHEMA.open(kind), DEFAULT_SCHEMA.close(kind)
    raw = (open_tag if opened else "") + before + tag + after
    # The body after the optional open tag: it holds a tag unless the drawn one was that open tag.
    body = raw.strip()
    inner = body[len(open_tag):] if body.startswith(open_tag) else body
    assume(any(other in inner for other in _TAGS))
    with pytest.raises(StageFormatError) as want:
        parse_staged(open_tag + inner + close_tag, require_complete=True, expected_order=(kind,))
    with pytest.raises(StageFormatError) as got:
        parse_stage_continuation(raw, kind)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@_STAGE_TEXT
@given(st.sampled_from(CANONICAL_ORDER), st.booleans(), _UNTAGGED)
def test_stage_continuation_body_holding_no_tag_is_its_stripped_text(kind, opened, text):
    raw = (DEFAULT_SCHEMA.open(kind) if opened else "") + text
    assert parse_stage_continuation(raw, kind) == StageBlock(kind, text.strip())


def test_complete_continuation_matches_reference_and_reaches_both_paths(monkeypatch):
    fallback = _FallbackCounter()
    monkeypatch.setattr(stages, "parse_staged", fallback)
    rng = random.Random(1702)
    paths = {order: set() for order in _ORDERS}
    outcomes = set()
    for _ in range(3000):
        for order in _ORDERS:
            raw = _complete_continuation(rng, order)
            want = _continuation_outcome(_reference_complete_continuation, raw, order)
            calls = fallback.calls
            got = _continuation_outcome(parse_complete_continuation, raw, order)
            assert got == want, (raw, order)
            paths[order].add("fallback" if fallback.calls > calls else "shortcut")
            outcomes.add(want[0])
            if want[0] == "ok" and fallback.calls > calls:
                paths[order].add("fallback-ok")
    assert all(seen == {"shortcut", "fallback", "fallback-ok"} for seen in paths.values()), paths
    assert outcomes == {"ok", StrayTextError, UnbalancedTagError, OutOfOrderError, MissingStageError}


def test_complete_continuation_of_a_pipeline_with_a_repeated_stage_is_out_of_order():
    # A pipeline that repeats a stage has no shortcut pattern; the full parser
    # rejects the second block, as it always did.
    raw = "<SUMMARY>a</SUMMARY><SUMMARY>b"
    pipeline = (StageKind.SUMMARY, StageKind.SUMMARY)
    got = _continuation_outcome(parse_complete_continuation, raw, pipeline)
    assert got == _continuation_outcome(_reference_complete_continuation, raw, pipeline)
    assert got[0] is OutOfOrderError

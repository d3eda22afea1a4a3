import json

import pytest

from stagewise.backends import (
    CORRECT_MARK,
    SimWorld,
    SimWorldConfig,
    TransportError,
)
from stagewise.datagen import (
    GENERATION_PROMPT,
    STATUS_FORMAT_INVALID,
    STATUS_JUDGED_INVALID,
    STATUS_RETRYABLE,
    STATUS_VALID,
    VERIFICATION_PROMPT_TEMPLATE,
    SourceRecord,
    build_user_content,
    build_verification_prompt,
    flatten_sources,
    load_sources,
    parse_verdict,
    run_pipeline,
)
from stagewise.search import ConfigError
from stagewise.stages import CANONICAL_ORDER, MissingStageError, StrayTextError, parse_staged

from conftest import CountingGenerator, ScriptedGenerator

WELL_FORMED = (
    "<SUMMARY>plan</SUMMARY>\n<CAPTION>scene</CAPTION>\n"
    "<REASONING>logic</REASONING>\n<CONCLUSION>B</CONCLUSION>"
)

# Golden copies: the deliverable prompt texts are pinned byte-for-byte.
GOLDEN_GENERATION_PROMPT = """I have an image and a question that I want you to answer. I need you to strictly follow the format with four specific sections: SUMMARY, CAPTION, REASONING, and CONCLUSION. It is crucial that you adhere to this structure exactly as outlined and that the final answer in the CONCLUSION matches the standard correct answer precisely.

To explain further:
In SUMMARY, briefly explain what steps you'll take to solve the problem.
In CAPTION, describe the contents of the image, specifically focusing on details relevant to the question.
In REASONING, outline a step-by-step thought process you would use to solve the problem based on the image.
In CONCLUSION, give the final answer in a direct format, and it must match the correct answer exactly.
If it's a multiple choice question, the conclusion should only include the option without repeating what the option is.

Here's how the format should look:

<SUMMARY> [Summarize how you will approach the problem and explain the steps you will take to reach the answer.] </SUMMARY>

<CAPTION> [Provide a detailed description of the image, particularly emphasizing the aspects related to the question.] </CAPTION>

<REASONING> [Provide a chain-of-thought, logical explanation of the problem. This should outline step-by-step reasoning.] </REASONING>

<CONCLUSION> [State the final answer in a clear and direct format. It must match the correct answer exactly.] </CONCLUSION>
(Do not forget </CONCLUSION>!)

Please apply this format meticulously to analyze the given image and answer the related question, ensuring that the answer matches the standard one perfectly."""

GOLDEN_VERIFICATION_TEMPLATE = """Evaluate whether the assistant's response is valid. Respond with 'valid' if the assistant's response is not a refusal and it aligns with the standard answer in meaning. Respond with 'invalid' if the response is a refusal or differs from the standard answer in a meaningful way.

A refusal means the assistant states it cannot recognize a specific person/object or refuses to answer the question. Do not consider a response to be a refusal just because it includes the word 'no' or other negative terms.

Standard answer: {standard_answer}

Assistant's response: {assistant_response}"""


def _record(id="r1", question="What shape?", gold="B", image="img://1"):
    return SourceRecord(id=id, question=question, gold_answer=gold, image_ref=image)


def test_generation_prompt_golden():
    assert GENERATION_PROMPT == GOLDEN_GENERATION_PROMPT


def test_verification_template_golden():
    assert VERIFICATION_PROMPT_TEMPLATE == GOLDEN_VERIFICATION_TEMPLATE


def _generation_requests(tmp_path, *records):
    gen = CountingGenerator(ScriptedGenerator([WELL_FORMED]))
    run_pipeline(records, gen, ScriptedGenerator(["valid"]), tmp_path / "out.jsonl")
    return gen.requests


def test_generation_prompt_required_substrings(tmp_path):
    (request,) = _generation_requests(tmp_path, _record())
    assert "SUMMARY, CAPTION, REASONING, and CONCLUSION" in request.system_prompt
    assert "(Do not forget" in request.system_prompt


def test_generation_prompt_instruction_fixed_user_content_varies(tmp_path):
    a, b = _generation_requests(
        tmp_path, _record(id="a", question="Q one?"), _record(id="b", question="Q two?")
    )
    assert a.system_prompt == b.system_prompt == GENERATION_PROMPT
    assert a.question == build_user_content(_record(question="Q one?"))
    assert b.question == build_user_content(_record(question="Q two?"))
    assert a.question != b.question


def test_user_content_carries_gold_answer_and_image():
    content = build_user_content(_record())
    assert "Question: What shape?" in content
    assert "Standard correct answer: B" in content
    assert "Image: img://1" in content


def _read_output(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _one_record(tmp_path, reply):
    """The single output record of a run whose generator replies ``reply``."""
    out = tmp_path / "out.jsonl"
    run_pipeline([_record()], ScriptedGenerator([reply]), ScriptedGenerator(["valid"]), out)
    (row,) = _read_output(out)
    return row


def test_validate_and_extract_success(tmp_path):
    assert parse_staged(WELL_FORMED, require_complete=True).kinds == CANONICAL_ORDER
    row = _one_record(tmp_path, WELL_FORMED)
    assert row["status"] == STATUS_VALID
    assert row["conclusion"] == "B"


def test_validate_and_extract_missing_stage(tmp_path):
    text = WELL_FORMED.replace("<REASONING>logic</REASONING>\n", "")
    with pytest.raises((MissingStageError, StrayTextError)):
        parse_staged(text, require_complete=True)
    row = _one_record(tmp_path, text)
    assert row["status"] == STATUS_FORMAT_INVALID
    assert row["conclusion"] is None


def test_validate_and_extract_trailing_prose(tmp_path):
    text = WELL_FORMED + "\nby the way..."
    with pytest.raises(StrayTextError):
        parse_staged(text, require_complete=True)
    row = _one_record(tmp_path, text)
    assert row["status"] == STATUS_FORMAT_INVALID
    assert row["conclusion"] is None


def test_verification_prompt_substitution():
    prompt = build_verification_prompt("B", "B")
    assert "Standard answer: B" in prompt
    assert "Assistant's response: B" in prompt


def test_verification_prompt_literal_braces_no_recursion():
    prompt = build_verification_prompt("{assistant_response}", "{x} and {y}")
    assert "Standard answer: {assistant_response}" in prompt
    assert "Assistant's response: {x} and {y}" in prompt


def test_verification_prompt_empty_response_allowed():
    prompt = build_verification_prompt("B", "")
    assert prompt.endswith("Assistant's response: ")


def test_parse_verdict_first_token_rule():
    assert parse_verdict("valid") is True
    assert parse_verdict("  Valid.") is True
    assert parse_verdict("Invalid — the response is a refusal.") is False
    assert parse_verdict("INVALID because reasons") is False
    # Anything else is not a "valid" verdict.
    assert parse_verdict("I think so") is False
    assert parse_verdict("validated") is False
    assert parse_verdict("") is False


def test_judge_validity_calls_judge_with_prompt(tmp_path):
    judge = CountingGenerator(ScriptedGenerator(["valid"]))
    counts = run_pipeline([_record()], ScriptedGenerator([WELL_FORMED]), judge, tmp_path / "out.jsonl")
    assert counts[STATUS_VALID] == 1
    (request,) = judge.requests
    assert request.question == build_verification_prompt("B", "B")
    assert "Standard answer: B" in request.question
    assert request.target_stages == ()


def _sources_file(tmp_path, rows):
    path = tmp_path / "sources.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def test_load_sources_and_flatten(tmp_path):
    path = _sources_file(
        tmp_path,
        [
            {"id": "a", "question": "q1", "gold_answer": "x"},
            {
                "id": "b",
                "question": "q2",
                "gold_answer": "y",
                "turns": [{"question": "q2b", "gold_answer": "z"}],
            },
        ],
    )
    sources = load_sources(path)
    flat = flatten_sources(sources)
    assert [s.id for s in flat] == ["a", "b", "b#turn1"]
    assert "Previous question: q2" in flat[2].question
    assert "Previous answer: y" in flat[2].question
    assert flat[2].gold_answer == "z"


def test_load_sources_reads_an_integer_id_as_its_decimal_text(tmp_path):
    path = _sources_file(tmp_path, [{"id": 7, "question": "q", "gold_answer": "x"}])
    assert load_sources(path)[0].id == "7"


def test_pipeline_all_valid_with_stub_backends(tmp_path):
    sources = [SourceRecord("s1", "q1", "B"), SourceRecord("s2", "q2", "C")]
    gen = ScriptedGenerator([WELL_FORMED])
    judge = ScriptedGenerator(["valid"])
    out = tmp_path / "out.jsonl"
    counts = run_pipeline(sources, gen, judge, out)
    assert counts[STATUS_VALID] == 2
    rows = _read_output(out)
    assert {r["status"] for r in rows} == {STATUS_VALID}
    assert rows[0]["conclusion"] == "B"
    assert rows[0]["judge_verdict_raw"] == "valid"


def test_pipeline_record_line_is_sorted_json_with_raw_utf8_text(tmp_path):
    response = WELL_FORMED.replace(">B<", ">Ω<")
    out = tmp_path / "out.jsonl"
    run_pipeline([SourceRecord("é1", "日本?", "Ω")], ScriptedGenerator([response]), ScriptedGenerator(["valid"]), out)
    expected = dict(
        id="é1", question="日本?", gold_answer="Ω", raw_response=response, status=STATUS_VALID,
        image_ref=None, conclusion="Ω", judge_verdict_raw="valid",
    )
    line = json.dumps(expected, sort_keys=True, ensure_ascii=False) + "\n"
    assert out.read_bytes() == line.encode("utf-8")


def test_pipeline_format_invalid_never_judged(tmp_path):
    bad = WELL_FORMED.replace("</CONCLUSION>", "")  # forgot the final close tag
    gen = ScriptedGenerator([bad])
    judge = CountingGenerator(ScriptedGenerator(["valid"]))
    out = tmp_path / "out.jsonl"
    counts = run_pipeline([SourceRecord("s1", "q", "B")], gen, judge, out)
    assert counts[STATUS_FORMAT_INVALID] == 1
    assert judge.calls == 0  # validation strictly precedes judging


def test_pipeline_judge_calls_equal_format_valid_count(tmp_path):
    replies = [WELL_FORMED, "junk", WELL_FORMED, "<SUMMARY>only</SUMMARY>"]
    gen = ScriptedGenerator(replies)
    judge = CountingGenerator(ScriptedGenerator(["valid", "invalid"]))
    sources = [SourceRecord(f"s{i}", f"q{i}", "B") for i in range(4)]
    counts = run_pipeline(sources, gen, judge, tmp_path / "out.jsonl")
    assert judge.calls == 2
    assert counts[STATUS_VALID] + counts[STATUS_JUDGED_INVALID] == 2
    assert counts[STATUS_FORMAT_INVALID] == 2


def test_pipeline_unparseable_verdict_becomes_judged_invalid(tmp_path):
    gen = ScriptedGenerator([WELL_FORMED])
    judge = ScriptedGenerator(["hmm, unsure"])
    out = tmp_path / "out.jsonl"
    counts = run_pipeline([SourceRecord("s1", "q", "B")], gen, judge, out)
    assert counts[STATUS_JUDGED_INVALID] == 1
    rows = _read_output(out)
    assert rows[0]["judge_verdict_raw"] == "hmm, unsure"


def test_pipeline_backend_error_marks_retryable_and_continues(tmp_path):
    gen = ScriptedGenerator([TransportError("down"), WELL_FORMED])
    judge = ScriptedGenerator(["valid"])
    sources = [SourceRecord("s1", "q1", "B"), SourceRecord("s2", "q2", "B")]
    counts = run_pipeline(sources, gen, judge, tmp_path / "out.jsonl")
    assert counts[STATUS_RETRYABLE] == 1
    assert counts[STATUS_VALID] == 1


@pytest.mark.parametrize("failing", ["generator", "judge"])
def test_pipeline_backend_failure_writes_no_record_and_next_run_retries(tmp_path, failing):
    sources = [SourceRecord(f"s{i}", f"q{i}", "B") for i in range(3)]
    out = tmp_path / "out.jsonl"
    gen_replies, judge_replies = [WELL_FORMED], ["valid"]
    if failing == "generator":
        gen_replies = [WELL_FORMED, TransportError("down"), WELL_FORMED]
    else:
        judge_replies = ["valid", TransportError("down"), "valid"]
    first = run_pipeline(sources, ScriptedGenerator(gen_replies), ScriptedGenerator(judge_replies), out)
    assert first[STATUS_RETRYABLE] == 1
    assert first[STATUS_VALID] == 2
    assert [r["id"] for r in _read_output(out)] == ["s0", "s2"]
    gen = CountingGenerator(ScriptedGenerator([WELL_FORMED]))
    second = run_pipeline(sources, gen, ScriptedGenerator(["valid"]), out)
    assert gen.calls == 1
    assert [r.question for r in gen.requests] == [build_user_content(sources[1])]
    assert second == {
        STATUS_VALID: 1,
        STATUS_FORMAT_INVALID: 0,
        STATUS_JUDGED_INVALID: 0,
        STATUS_RETRYABLE: 0,
        "skipped": 2,
    }
    rows = _read_output(out)
    assert sorted(r["id"] for r in rows) == ["s0", "s1", "s2"]
    assert {r["status"] for r in rows} == {STATUS_VALID}


def test_pipeline_resume_skips_existing_without_new_calls(tmp_path):
    sources = [SourceRecord(f"s{i}", f"q{i}", "B") for i in range(3)]
    out = tmp_path / "out.jsonl"
    gen = CountingGenerator(ScriptedGenerator([WELL_FORMED]))
    judge = ScriptedGenerator(["valid"])
    first = run_pipeline(sources, gen, judge, out)
    assert first[STATUS_VALID] == 3
    calls_after_first = gen.calls
    second = run_pipeline(sources, gen, judge, out)
    assert gen.calls == calls_after_first  # zero duplicate generator calls
    assert second["skipped"] == 3
    rows = _read_output(out)
    assert len(rows) == 3  # every id appears exactly once


def test_pipeline_resume_after_truncated_last_line(tmp_path):
    # A run killed mid-write leaves an unterminated last line. Resuming
    # treats that record as absent, regenerates it, and appends cleanly.
    sources = [SourceRecord(f"s{i}", f"q{i}", "B") for i in range(3)]
    out = tmp_path / "out.jsonl"
    judge = ScriptedGenerator(["valid"])
    run_pipeline(sources[:2], ScriptedGenerator([WELL_FORMED]), judge, out)
    data = out.read_bytes()
    out.write_bytes(data[: len(data) - 20])
    gen = CountingGenerator(ScriptedGenerator([WELL_FORMED]))
    counts = run_pipeline(sources, gen, judge, out)
    assert counts["skipped"] == 1
    assert counts[STATUS_VALID] == 2 == gen.calls
    assert out.read_bytes().endswith(b"\n")
    rows = _read_output(out)
    assert [r["id"] for r in rows] == ["s0", "s1", "s2"]


def test_pipeline_resume_over_records_that_end_in_a_bare_cr(tmp_path):
    # read_jsonl ends a line at a bare CR, so open_append must too: cutting
    # after the last LF emptied the file, and both records were generated again.
    sources = [SourceRecord(f"s{i}", f"q{i}", "B") for i in range(2)]
    out = tmp_path / "out.jsonl"
    run_pipeline(sources, ScriptedGenerator([WELL_FORMED]), ScriptedGenerator(["valid"]), out)
    data = out.read_bytes().replace(b"\n", b"\r")
    out.write_bytes(data)
    gen = CountingGenerator(ScriptedGenerator([WELL_FORMED]))
    counts = run_pipeline(sources, gen, ScriptedGenerator(["valid"]), out)
    assert (counts["skipped"], counts[STATUS_VALID], gen.calls) == (2, 0, 0)
    assert out.read_bytes() == data


def test_pipeline_reads_output_ids_as_input_ids_are_read(tmp_path):
    out = tmp_path / "out.jsonl"
    out.write_text(json.dumps({"id": 5}) + "\n")
    gen = CountingGenerator(ScriptedGenerator([WELL_FORMED]))
    sources = [SourceRecord("5", "q5", "B"), SourceRecord("6", "q6", "B")]
    counts = run_pipeline(sources, gen, ScriptedGenerator(["valid"]), out)
    assert (counts["skipped"], counts[STATUS_VALID], gen.calls) == (1, 1, 1)
    out.write_text(json.dumps({"id": None}) + "\n")
    with pytest.raises(ConfigError, match=r":1: bad output record: id must be a string or an integer"):
        run_pipeline(sources, gen, ScriptedGenerator(["valid"]), out)
    assert gen.calls == 1


def test_pipeline_status_partition_unique_ids(tmp_path):
    replies = [WELL_FORMED, "junk", TransportError("down")]
    gen = ScriptedGenerator(replies)
    judge = ScriptedGenerator(["invalid"])
    sources = [SourceRecord(f"s{i}", f"q{i}", "B") for i in range(3)]
    out = tmp_path / "out.jsonl"
    counts = run_pipeline(sources, gen, judge, out)
    rows = _read_output(out)
    # The source whose generator call failed has no record; it is only counted.
    assert [r["id"] for r in rows] == ["s0", "s1"]
    assert [r["status"] for r in rows] == [STATUS_JUDGED_INVALID, STATUS_FORMAT_INVALID]
    assert counts[STATUS_RETRYABLE] == 1


def test_pipeline_end_to_end_on_sim_world(tmp_path):
    # The sim emits complete staged responses and judges via its own marks.
    sim = SimWorld(SimWorldConfig(success=1.0))
    sources = [SourceRecord(f"s{i}", f"q{i} {CORRECT_MARK}", "B") for i in range(4)]
    counts = run_pipeline(sources, sim, sim, tmp_path / "out.jsonl")
    assert counts[STATUS_VALID] == 4

"""Structured-response dataset pipeline.

For each source QA pair, in one straight line: prompt a generator for a
four-stage response, parse it as a complete staged response, ask a judge
model whether its conclusion matches the gold answer, and read the verdict.
Each id gets at most one line-delimited JSON record, whose status is
``valid``, ``format_invalid`` or ``judged_invalid``. Reruns skip ids already
present; a source whose backend call failed has no record, so the next run
generates it again.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .backends import (
    BackendError,
    Generator,
    GeneratorRequest,
    SamplingParams,
    stable_u64,
)
from .jsonl import append_record, id_field, open_append, read_jsonl, string_field
from .search import reading, writing
from .stages import CANONICAL_ORDER, StageFormatError, parse_staged

log = logging.getLogger(__name__)

GENERATION_PROMPT = """I have an image and a question that I want you to answer. I need you to strictly follow the format with four specific sections: SUMMARY, CAPTION, REASONING, and CONCLUSION. It is crucial that you adhere to this structure exactly as outlined and that the final answer in the CONCLUSION matches the standard correct answer precisely.

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

VERIFICATION_PROMPT_TEMPLATE = """Evaluate whether the assistant's response is valid. Respond with 'valid' if the assistant's response is not a refusal and it aligns with the standard answer in meaning. Respond with 'invalid' if the response is a refusal or differs from the standard answer in a meaningful way.

A refusal means the assistant states it cannot recognize a specific person/object or refuses to answer the question. Do not consider a response to be a refusal just because it includes the word 'no' or other negative terms.

Standard answer: {standard_answer}

Assistant's response: {assistant_response}"""

# Sampling for the four-stage generation call.
GENERATION_TEMPERATURE = 1.0
GENERATION_MAX_NEW_TOKENS = 2048

STATUS_VALID = "valid"
STATUS_FORMAT_INVALID = "format_invalid"
STATUS_JUDGED_INVALID = "judged_invalid"
# Not a record status: the count of sources whose backend call failed.
STATUS_RETRYABLE = "retryable"


@dataclass(frozen=True)
class SourceRecord:
    """One QA pair to annotate; multi-turn pairs carry extra (q, a) turns."""

    id: str
    question: str
    gold_answer: str
    image_ref: Optional[str] = None
    turns: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("source id must be non-empty")
        if not self.question:
            raise ValueError("source question must be non-empty")


@dataclass
class GeneratedRecord:
    id: str
    question: str
    gold_answer: str
    raw_response: str
    status: str
    image_ref: Optional[str] = None
    conclusion: Optional[str] = None
    judge_verdict_raw: Optional[str] = None


def _source(data: dict) -> SourceRecord:
    turns = data.get("turns", [])
    if not isinstance(turns, list) or not all(isinstance(turn, dict) for turn in turns):
        raise TypeError(f"turns must be a JSON array of objects, got {turns!r}")
    return SourceRecord(
        id=id_field(data),
        question=string_field(data, "question"),
        gold_answer=string_field(data, "gold_answer"),
        image_ref=string_field(data, "image_ref", optional=True),
        turns=tuple((string_field(turn, "question"), string_field(turn, "gold_answer")) for turn in turns),
    )


def load_sources(path) -> list[SourceRecord]:
    """The sources of ``path``; an id that repeats an earlier one, a turn's
    ``<id>#turn<k>`` included, is an error, since output records are keyed by id."""
    seen: set[str] = set()

    def build(data: dict) -> SourceRecord:
        source = _source(data)
        for record in flatten_sources([source]):
            if record.id in seen:
                raise ValueError(f"id {record.id!r} repeats an earlier source's id")
            seen.add(record.id)
        return source

    return read_jsonl(path, "source record", build)


def flatten_sources(sources: Iterable[SourceRecord]) -> list[SourceRecord]:
    """Expand multi-turn sources to one record per turn, prior turns as context."""
    flat: list[SourceRecord] = []
    for src in sources:
        flat.append(
            SourceRecord(src.id, src.question, src.gold_answer, src.image_ref)
        )
        context = [(src.question, src.gold_answer)]
        for k, (question, answer) in enumerate(src.turns, start=1):
            prefix = "\n".join(
                f"Previous question: {q}\nPrevious answer: {a}" for q, a in context
            )
            flat.append(
                SourceRecord(
                    id=f"{src.id}#turn{k}",
                    question=f"{prefix}\n{question}",
                    gold_answer=answer,
                    image_ref=src.image_ref,
                )
            )
            context.append((question, answer))
    return flat


def build_user_content(record: SourceRecord) -> str:
    """Question, image reference, and gold answer delivered alongside the instruction."""
    lines = [f"Question: {record.question}"]
    if record.image_ref:
        lines.append(f"Image: {record.image_ref}")
    lines.append(f"Standard correct answer: {record.gold_answer}")
    return "\n".join(lines)


def build_verification_prompt(standard_answer: str, assistant_response: str) -> str:
    """Substitute both placeholders verbatim, with no recursive expansion."""
    head, rest = VERIFICATION_PROMPT_TEMPLATE.split("{standard_answer}")
    mid, tail = rest.split("{assistant_response}")
    return head + standard_answer + mid + assistant_response + tail


_FIRST_WORD = re.compile(r"[a-z]+")


def parse_verdict(reply: str) -> bool:
    """True only when the reply's first alphabetic token is ``valid``."""
    match = _FIRST_WORD.search(reply.lower())
    return match is not None and match.group(0) == "valid"


def run_pipeline(
    sources: Sequence[SourceRecord],
    generator: Generator,
    judge: Generator,
    output_path,
) -> dict[str, int]:
    """Append one record per source whose id ``output_path`` lacks.

    A source whose generator or judge call raises BackendError gets no
    record, so the next run generates it again. Returns counts per written
    status, plus ``retryable`` for those sources and ``skipped`` for ids
    already present. ``jsonl.open_append`` first cuts a last line a killed
    run left unterminated; the ids are then read as the inputs are, by
    ``id_field``. A file that cannot be opened to append or read, or a line
    that is not a record with an id, raises ConfigError before any backend
    call. An append that fails later raises ConfigError too, keeping the
    records before it, which the next run skips.
    """
    counts = dict.fromkeys(
        (STATUS_VALID, STATUS_FORMAT_INVALID, STATUS_JUDGED_INVALID, STATUS_RETRYABLE, "skipped"), 0
    )
    with writing(output_path):
        out = open_append(output_path)
    with out:
        with reading(output_path):
            existing = set(read_jsonl(output_path, "output record", id_field))
        for record in flatten_sources(sources):
            if record.id in existing:
                counts["skipped"] += 1
                continue
            try:
                generated = _process_one(record, generator, judge)
            except BackendError as exc:
                log.warning("backend failed for %s; the next run retries it: %s", record.id, exc)
                counts[STATUS_RETRYABLE] += 1
                continue
            with writing(output_path):
                append_record(out, generated.__dict__)
            counts[generated.status] += 1
            existing.add(record.id)
    return counts


def _process_one(record: SourceRecord, generator: Generator, judge: Generator) -> GeneratedRecord:
    """Generate, parse, judge, verdict. A format-invalid response never
    reaches the judge; a backend failure propagates as BackendError."""
    raw = generator.generate(
        GeneratorRequest(
            question=build_user_content(record),
            target_stages=CANONICAL_ORDER,
            image_ref=record.image_ref,
            system_prompt=GENERATION_PROMPT,
            sampling=SamplingParams(GENERATION_TEMPERATURE, GENERATION_MAX_NEW_TOKENS, stop=None),
            seed=stable_u64("datagen", record.id),
        )
    )
    out = GeneratedRecord(
        id=record.id,
        question=record.question,
        gold_answer=record.gold_answer,
        image_ref=record.image_ref,
        raw_response=raw,
        status=STATUS_FORMAT_INVALID,
    )
    try:
        out.conclusion = parse_staged(raw, require_complete=True).final_text
    except StageFormatError as exc:
        log.debug("format-invalid response for %s: %s", record.id, exc)
        return out
    prompt = build_verification_prompt(record.gold_answer, out.conclusion)
    out.judge_verdict_raw = judge.generate(
        GeneratorRequest(
            question=prompt,
            target_stages=(),
            sampling=SamplingParams(temperature=0.0, max_new_tokens=16, stop=None),
            seed=stable_u64(prompt),
        )
    )
    out.status = STATUS_VALID if parse_verdict(out.judge_verdict_raw) else STATUS_JUDGED_INVALID
    return out

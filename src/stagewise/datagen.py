"""Structured-response dataset pipeline.

For each source QA pair: prompt a generator for a four-stage response,
validate the format, extract the conclusion, and ask a judge model whether
the conclusion matches the gold answer. Records persist as line-delimited
JSON with one terminal status each; reruns skip ids already present.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .backends import (
    BackendError,
    Generator,
    GeneratorRequest,
    SamplingParams,
    stable_u64,
)
from .jsonl import read_jsonl, trim_partial_last_line
from .stages import (
    CANONICAL_ORDER,
    StagedResponse,
    StageFormatError,
    StageKind,
    parse_staged,
)

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
STATUS_RETRYABLE = "retryable"


class FormatInvalidError(Exception):
    """Generated text does not comply with the four-stage format."""

    def __init__(self, cause: StageFormatError):
        super().__init__(str(cause))
        self.cause = cause


class UnparseableVerdictError(Exception):
    """Judge reply is neither 'valid' nor 'invalid'."""

    def __init__(self, raw: str):
        super().__init__(f"unparseable judge verdict: {raw!r}")
        self.raw = raw


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

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, ensure_ascii=False)


def _source(data: dict) -> SourceRecord:
    return SourceRecord(
        id=str(data["id"]),
        question=data["question"],
        gold_answer=str(data["gold_answer"]),
        image_ref=data.get("image_ref"),
        turns=tuple(
            (turn["question"], str(turn["gold_answer"])) for turn in data.get("turns", [])
        ),
    )


def load_sources(path) -> list[SourceRecord]:
    return read_jsonl(path, "source record", _source)


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


def build_generation_prompt(record: SourceRecord) -> str:
    """Full generation prompt: the fixed instruction followed by the record's content."""
    return GENERATION_PROMPT + "\n\n" + build_user_content(record)


def validate_and_extract(raw: str) -> tuple[StagedResponse, str]:
    """Parse a complete four-stage response and return it with its conclusion text."""
    try:
        parsed = parse_staged(raw, require_complete=True)
    except StageFormatError as exc:
        raise FormatInvalidError(exc) from exc
    return parsed, parsed.text_of(StageKind.CONCLUSION) or ""


def build_verification_prompt(standard_answer: str, assistant_response: str) -> str:
    """Substitute both placeholders verbatim, with no recursive expansion."""
    head, rest = VERIFICATION_PROMPT_TEMPLATE.split("{standard_answer}")
    mid, tail = rest.split("{assistant_response}")
    return head + standard_answer + mid + assistant_response + tail


_FIRST_WORD = re.compile(r"[a-z]+")


def parse_verdict(reply: str) -> bool:
    """Map a judge reply to valid/invalid by its first alphabetic token."""
    match = _FIRST_WORD.search(reply.strip().lower())
    token = match.group(0) if match else ""
    if token == "valid":
        return True
    if token == "invalid":
        return False
    raise UnparseableVerdictError(reply)


def _judge_request(prompt: str) -> GeneratorRequest:
    return GeneratorRequest(
        question=prompt,
        target_stages=(),
        sampling=SamplingParams(temperature=0.0, max_new_tokens=16, stop=None),
        seed=stable_u64(prompt),
    )


def _judge_reply(judge: Generator, standard_answer: str, conclusion: str) -> str:
    """The judge's raw reply on whether the conclusion matches the gold answer."""
    prompt = build_verification_prompt(standard_answer, conclusion)
    return judge.generate(_judge_request(prompt))


def judge_validity(judge: Generator, standard_answer: str, conclusion: str) -> bool:
    """Ask the judge whether the conclusion matches the gold answer."""
    return parse_verdict(_judge_reply(judge, standard_answer, conclusion))


def read_existing_ids(path) -> set[str]:
    """Ids of the records already written to ``path``.

    An unterminated last line is a record cut short by a killed run; it
    counts as absent, so its source is generated again. A complete line
    that is not a record with an ``id`` raises ValueError naming its line.
    """
    ids: set[str] = set()
    path = Path(path)
    if not path.exists():
        return ids
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.endswith(b"\n"):
                break
            line = line.strip()
            if not line:
                continue
            try:
                ids.add(json.loads(line)["id"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad output record: {exc}") from exc
    return ids


def run_pipeline(
    sources: Sequence[SourceRecord],
    generator: Generator,
    judge: Generator,
    output_path,
    *,
    resume: bool = True,
) -> dict[str, int]:
    """Generate, validate, judge, and persist one record per source.

    Validation strictly precedes judging: format-invalid generations never
    reach the judge. Backend failures mark the record retryable and the run
    continues. Returns counts per status (plus ``skipped`` for resumed ids).
    """
    existing = read_existing_ids(output_path) if resume else set()
    counts = {
        STATUS_VALID: 0,
        STATUS_FORMAT_INVALID: 0,
        STATUS_JUDGED_INVALID: 0,
        STATUS_RETRYABLE: 0,
        "skipped": 0,
    }
    flat = flatten_sources(sources)
    trim_partial_last_line(output_path)
    with open(output_path, "a", encoding="utf-8") as out:
        for record in flat:
            if record.id in existing:
                counts["skipped"] += 1
                continue
            existing.add(record.id)
            generated = _process_one(record, generator, judge)
            counts[generated.status] += 1
            out.write(generated.to_json() + "\n")
            out.flush()
    return counts


def _process_one(
    record: SourceRecord,
    generator: Generator,
    judge: Generator,
) -> GeneratedRecord:
    out = GeneratedRecord(
        id=record.id,
        question=record.question,
        gold_answer=record.gold_answer,
        image_ref=record.image_ref,
        raw_response="",
        status=STATUS_RETRYABLE,
    )
    request = GeneratorRequest(
        question=build_user_content(record),
        target_stages=CANONICAL_ORDER,
        image_ref=record.image_ref,
        system_prompt=GENERATION_PROMPT,
        sampling=SamplingParams(GENERATION_TEMPERATURE, GENERATION_MAX_NEW_TOKENS, stop=None),
        seed=stable_u64("datagen", record.id),
    )
    try:
        out.raw_response = generator.generate(request)
    except BackendError as exc:
        log.warning("generator failed for %s: %s", record.id, exc)
        return out
    try:
        _, conclusion = validate_and_extract(out.raw_response)
    except FormatInvalidError as exc:
        out.status = STATUS_FORMAT_INVALID
        out.judge_verdict_raw = None
        log.debug("format-invalid response for %s: %s", record.id, exc)
        return out
    out.conclusion = conclusion
    try:
        out.judge_verdict_raw = _judge_reply(judge, record.gold_answer, conclusion)
    except BackendError as exc:
        log.warning("judge failed for %s: %s", record.id, exc)
        out.status = STATUS_RETRYABLE
        return out
    try:
        out.status = STATUS_VALID if parse_verdict(out.judge_verdict_raw) else STATUS_JUDGED_INVALID
    except UnparseableVerdictError:
        out.status = STATUS_JUDGED_INVALID
    return out

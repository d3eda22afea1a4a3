"""Generator and reward-scorer backends.

Two implementations of each interface: HTTP clients speaking a
chat-completions-style wire format, and a seeded simulated world that stands
in for a real model + reward model at desk scale. The sim is a pure function
of (config, request): it draws latent per-stage correctness from configured
probabilities and emits synthetic text carrying an in-band correctness mark
that only the sim scorer and the oracle grader ever read.
"""

from __future__ import annotations

import abc
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from hashlib import blake2b
from typing import Callable, Mapping, Optional, Sequence, Union
from urllib.parse import urlsplit

from .stages import (
    CANONICAL_ORDER,
    DEFAULT_SCHEMA,
    EMPTY_RESPONSE,
    StagedResponse,
    StageKind,
    render_staged,
)

RewardScore = float  # scalar reward, higher is better; always finite

_TWO64 = 2**64
# The standard normal inverse CDF, bound by the first noisy SimWorld.score:
# only a noisy world needs ``statistics``.
_inv_normal_cdf: Optional[Callable[[float], float]] = None


def _load_inv_normal_cdf() -> Callable[[float], float]:
    global _inv_normal_cdf
    from statistics import NormalDist

    _inv_normal_cdf = NormalDist().inv_cdf
    return _inv_normal_cdf


class BackendError(Exception):
    """Base class for backend failures.

    Raised out of a search, it carries that search's ``BudgetLedger`` as
    ``ledger``: every backend call started before it, the failing one too.
    """

    ledger = None


class TransportError(BackendError):
    """Timeout, connection failure, or error status after retries exhausted."""


class MalformedReplyError(BackendError):
    """The endpoint replied but the reply carries no usable content."""


def _seed_key(parts: Sequence[str]) -> bytes:
    """The bytes a seed is hashed from: its parts joined by ``|``."""
    return "|".join(parts).encode("utf-8")


def stable_u64(*parts: str) -> int:
    """Keyed 64-bit value from a tuple of string parts; stable across runs."""
    h = blake2b(_seed_key(parts), digest_size=8)
    return int.from_bytes(h.digest(), "big")


class SeedPrefix:
    """The leading parts of ``stable_u64`` keys, hashed once, for seeds derived in bulk.

    ``SeedPrefix(*a).derive(*b) == stable_u64(*a, *b)`` for any non-empty
    ``b``, and ``SeedPrefix(*a).extend(*b)`` derives what ``SeedPrefix(*a, *b)``
    derives. Both copy the hashed state and hash only their own parts.
    """

    __slots__ = ("_head",)

    def __init__(self, *prefix: str) -> None:
        # Keying an empty last part appends the separator that precedes the rest.
        self._head = blake2b(_seed_key(prefix + ("",)), digest_size=8)

    def extend(self, *more: str) -> "SeedPrefix":
        longer = object.__new__(SeedPrefix)
        longer._head = head = self._head.copy()
        head.update(_seed_key(more + ("",)))
        return longer

    def derive(self, *rest: str) -> int:
        h = self._head.copy()
        h.update("|".join(rest).encode("utf-8"))  # _seed_key(rest), without the call
        return int.from_bytes(h.digest(), "big")


def text_digest(text: str) -> str:
    """Short stable digest used to reference texts in traces."""
    return blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = 1.0
    max_new_tokens: int = 1024
    stop: Optional[str] = None


_DEFAULT_SAMPLING = SamplingParams()


# A search builds a request for every backend call, so both request types
# fill their instance dict directly, like ``stages.StageBlock``: the generated
# frozen __init__ takes about twice as long.


@dataclass(frozen=True)
class GeneratorRequest:
    """Context for generating one candidate continuation.

    ``target_stages`` lists the consecutive stages this call must produce:
    a single stage during stage-level search, the whole pipeline for
    one-shot complete responses, or empty for a plain (judge-style)
    completion. ``prior_stages`` is the trajectory prefix ending immediately
    before the first target stage.
    """

    question: str
    target_stages: tuple[StageKind, ...]
    prior_stages: StagedResponse = EMPTY_RESPONSE
    image_ref: Optional[str] = None
    system_prompt: Optional[str] = None
    sampling: SamplingParams = _DEFAULT_SAMPLING
    seed: Optional[int] = None

    def __init__(
        self,
        question: str,
        target_stages: tuple[StageKind, ...],
        prior_stages: StagedResponse = EMPTY_RESPONSE,
        image_ref: Optional[str] = None,
        system_prompt: Optional[str] = None,
        sampling: SamplingParams = _DEFAULT_SAMPLING,
        seed: Optional[int] = None,
    ) -> None:
        fields = self.__dict__
        fields["question"] = question
        fields["target_stages"] = target_stages
        fields["prior_stages"] = prior_stages
        fields["image_ref"] = image_ref
        fields["system_prompt"] = system_prompt
        fields["sampling"] = sampling
        fields["seed"] = seed


@dataclass(frozen=True)
class RewardRequest:
    """A trajectory prefix to be scored, through the stage under evaluation."""

    question: str
    trajectory: StagedResponse
    image_ref: Optional[str] = None

    def __init__(
        self, question: str, trajectory: StagedResponse, image_ref: Optional[str] = None
    ) -> None:
        fields = self.__dict__
        fields["question"] = question
        fields["trajectory"] = trajectory
        fields["image_ref"] = image_ref


class Generator(abc.ABC):
    @abc.abstractmethod
    def generate(self, request: GeneratorRequest) -> str:
        """Return the raw text of one candidate continuation.

        The text is truncated at the request's stop sequence with the stop
        sequence itself stripped.
        """


class RewardScorer(abc.ABC):
    @abc.abstractmethod
    def score(self, request: RewardRequest) -> RewardScore:
        """Return a finite scalar score for the trajectory; higher is better."""


# ---------------------------------------------------------------------------
# HTTP backends
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EndpointConfig:
    """Connection settings for one HTTP endpoint.

    The auth token is read from the environment variable named by
    ``token_env``, never from configuration files. Retries back off at
    ``backoff_s`` seconds, quadrupling per attempt (1 s then 4 s at the
    defaults). A retried reply with ``Retry-After`` in whole seconds waits
    that long instead, at most ``RETRY_AFTER_CAP_S``.
    """

    base_url: str
    model: str = ""
    token_env: str = "STAGEWISE_API_KEY"
    timeout_s: float = 30.0
    retries: int = 2
    backoff_s: float = 1.0

    def __post_init__(self) -> None:
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http(s) URL with a host: {self.base_url!r}")
        url.port  # raises ValueError on a malformed port
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0):
            raise ValueError(f"timeout_s must be a positive finite number, got {self.timeout_s!r}")
        if not (math.isfinite(self.backoff_s) and self.backoff_s >= 0):
            raise ValueError(f"backoff_s must be a finite number >= 0, got {self.backoff_s!r}")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


class _HttpClient:
    """JSON POSTs to one endpoint over keep-alive connections shared by threads.

    A call takes an idle connection or opens one, so the client never holds
    more connections than there were concurrent calls. A connection goes
    back after its reply is read in full, unless the server said it will
    close it; any failure closes it. ``_post`` makes every attempt of a call.
    """

    def __init__(self, config: EndpointConfig):
        # The HTTP stack loads with the first client, so sim-only runs skip it.
        import http.client

        self.config = config
        url = urlsplit(config.base_url)
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        if url.scheme == "https":
            import ssl

            context = ssl.create_default_context()
            self._open = lambda: http.client.HTTPSConnection(
                url.hostname, url.port, timeout=config.timeout_s, context=context
            )
        else:
            self._open = lambda: http.client.HTTPConnection(
                url.hostname, url.port, timeout=config.timeout_s
            )
        # What a failed attempt can raise, to be tried again.
        self._attempt_errors = (OSError, http.client.HTTPException)
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the client's idle keep-alive connections."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _take(self) -> Optional[http.client.HTTPConnection]:
        """An idle connection the server has not closed, or None."""
        while True:
            with self._lock:
                if not self._idle:
                    return None
                conn = self._idle.pop()
            if not _readable(conn.sock):
                return conn
            # An idle keep-alive socket only turns readable when the server
            # closed it (or broke protocol); either way it cannot carry a request.
            conn.close()

    def _send(self, data: bytes, headers: dict) -> tuple[int, Mapping[str, str], bytes]:
        """Send one POST and return the reply's status, headers and body."""
        conn = self._take()
        reused = conn is not None
        if conn is None:
            conn = self._open()
        try:
            try:
                conn.request("POST", self._path, data, headers)
                reply = conn.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # RemoteDisconnected is a ConnectionResetError. A reused
                # connection that fails before any status line arrives was
                # closed by the server before it read the request, so the
                # request goes out once more on a fresh connection.
                if not reused:
                    raise
                conn.close()
                conn = self._open()
                conn.request("POST", self._path, data, headers)
                reply = conn.getresponse()
            reply_data = reply.read()
        except BaseException:
            conn.close()
            raise
        if reply.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.append(conn)
        return reply.status, reply.headers, reply_data

    def _post(self, body: dict) -> dict:
        """POST ``body``, after the ``model`` key, and return the decoded JSON reply."""
        config = self.config
        try:
            data = json.dumps({"model": config.model, **body}, allow_nan=False).encode("utf-8")
        except ValueError as exc:
            raise TransportError(
                f"request body for {config.base_url} is not valid JSON: {exc}"
            ) from exc
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(config.token_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        last_error: Optional[Exception] = None
        wait: Optional[int] = None
        for attempt in range(config.retries + 1):
            if attempt > 0:
                time.sleep(config.backoff_s * 4 ** (attempt - 1) if wait is None else wait)
                wait = None
            try:
                status, reply_headers, reply = self._send(data, headers)
            except self._attempt_errors as exc:
                last_error = exc
                continue
            if status // 100 == 2:
                try:
                    return json.loads(reply)
                except ValueError as exc:
                    raise MalformedReplyError(f"non-JSON reply: {exc}") from exc
            last_error = TransportError(f"HTTP {status} from {config.base_url}")
            if not _retryable(status):
                break
            wait = _retry_after_s(reply_headers.get("Retry-After", ""))
        raise TransportError(
            f"request to {config.base_url} failed after {attempt + 1} attempts: {last_error}"
        )


def _readable(sock) -> bool:
    import select

    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


def _retryable(status: int) -> bool:
    """Statuses a later attempt can pass: request timeout, rate limit, server error."""
    return status in (408, 429) or status >= 500


# Longest wait a Retry-After header can impose before the next attempt.
RETRY_AFTER_CAP_S = 60


def _retry_after_s(value: str) -> Optional[int]:
    """The capped wait a ``Retry-After`` value asks for, if it is delay-seconds.

    An HTTP-date or any other form gives None, and the caller backs off as usual.
    """
    value = value.strip()
    if value.isascii() and value.isdigit():
        return min(int(value), RETRY_AFTER_CAP_S)
    return None


def _truncate_at_stop(text: str, stop: Optional[str]) -> str:
    if stop:
        cut = text.find(stop)
        if cut != -1:
            return text[:cut]
    return text


class HttpGenerator(_HttpClient, Generator):
    """Chat-completions-style generator client.

    Request body: ``model``, ``messages`` (optional system, user carrying the
    question and optional image reference, optional assistant prefix holding
    the rendered prior stages), ``stop``, ``temperature``, ``max_tokens`` and
    optional ``seed``. The reply's first choice text is returned; text that
    does not encode as UTF-8 (a lone surrogate escape) is a malformed reply.
    """

    def generate(self, request: GeneratorRequest) -> str:
        body = {
            "messages": self._messages(request),
            "temperature": request.sampling.temperature,
            "max_tokens": request.sampling.max_new_tokens,
        }
        if request.sampling.stop:
            body["stop"] = [request.sampling.stop]
        if request.seed is not None:
            # Endpoints expect a signed 64-bit value at most.
            body["seed"] = request.seed % (2**63)
        reply = self._post(body)
        try:
            choice = reply["choices"][0]
            text = choice["message"]["content"] if "message" in choice else choice["text"]
        except (KeyError, IndexError, TypeError):
            raise MalformedReplyError("reply lacks choices[0] text content") from None
        if not isinstance(text, str):
            raise MalformedReplyError("reply text content is not a string")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            # JSON can escape a lone surrogate, which no trace or record can write.
            raise MalformedReplyError(
                f"reply text content is not valid UTF-8 text: {exc.reason}"
            ) from None
        return _truncate_at_stop(text, request.sampling.stop)

    def _messages(self, request: GeneratorRequest) -> list[dict]:
        messages: list[dict] = []
        if request.system_prompt:
            messages.append({"role": "system", "content": request.system_prompt})
        content: Union[str, list]
        if request.image_ref:
            content = [
                {"type": "text", "text": request.question},
                {"type": "image_url", "image_url": {"url": request.image_ref}},
            ]
        else:
            content = request.question
        messages.append({"role": "user", "content": content})
        if request.prior_stages.blocks:
            messages.append(
                {"role": "assistant", "content": render_staged(request.prior_stages)}
            )
        return messages


class HttpRewardScorer(_HttpClient, RewardScorer):
    """Reward endpoint client.

    Request body: ``model``, ``question``, ``response`` (the rendered
    trajectory) and ``image_ref`` when the request has one. The reply must
    carry a single numeric ``score`` field.
    """

    def score(self, request: RewardRequest) -> RewardScore:
        body = {"question": request.question, "response": render_staged(request.trajectory)}
        if request.image_ref:
            body["image_ref"] = request.image_ref
        reply = self._post(body)
        value = reply.get("score") if isinstance(reply, dict) else None
        # A JSON number only: float() would also take "0.5" and true.
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MalformedReplyError(f"reply lacks a numeric 'score' field, got {value!r}")
        value = float(value)
        if not math.isfinite(value):
            raise MalformedReplyError(f"reward score {value!r} is not finite")
        return value


# ---------------------------------------------------------------------------
# Simulated world
# ---------------------------------------------------------------------------

CORRECT_MARK = "[[sim::ok]]"
INCORRECT_MARK = "[[sim::bad]]"


def oracle_correct(text: str) -> bool:
    """Read the hidden correctness mark of a sim-generated text."""
    if CORRECT_MARK in text:
        return True
    if INCORRECT_MARK in text:
        return False
    raise MalformedReplyError("text carries no sim correctness mark")


def _normalize_stage_map(
    value: Union[float, Mapping], default: float
) -> dict[StageKind, float]:
    if isinstance(value, Mapping):
        given = {}
        for key, p in value.items():
            kind = StageKind.from_name(str(key))
            if kind in given:
                raise ValueError(f"stage {kind.value!r} is named twice in one stage map")
            given[kind] = p
        table = {kind: float(given.get(kind, default)) for kind in CANONICAL_ORDER}
    else:
        table = {kind: float(value) for kind in CANONICAL_ORDER}
    for kind, p in table.items():
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability for {kind.name} out of [0,1]: {p}")
    return table


@dataclass(frozen=True)
class SimWorldConfig:
    """Latent-correctness generative model for desk-scale oracle testing.

    ``success`` gives each stage's probability of being correct when every
    prior stage is correct; ``recovery`` applies when some prior stage is
    incorrect (0 by default: errors are never silently repaired). Either is
    one probability for every stage, or a map keyed by stage or stage name
    in which a stage left out keeps the default; a key that names no stage
    is a ValueError. Rewards are emitted at ``mean_correct``/
    ``mean_incorrect`` plus Gaussian noise; ``noise_std == 0`` is the
    perfect separating-reward regime.
    """

    success: Union[float, Mapping[Union[StageKind, str], float]] = 1.0
    recovery: Union[float, Mapping[Union[StageKind, str], float]] = 0.0
    mean_correct: float = 1.0
    mean_incorrect: float = -1.0
    noise_std: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "success", _normalize_stage_map(self.success, 1.0))
        object.__setattr__(self, "recovery", _normalize_stage_map(self.recovery, 0.0))
        for name in ("mean_correct", "mean_incorrect", "noise_std"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")

    def as_dict(self) -> dict:
        return {
            "success": {k.value: v for k, v in self.success.items()},
            "recovery": {k.value: v for k, v in self.recovery.items()},
            "mean_correct": self.mean_correct,
            "mean_incorrect": self.mean_incorrect,
            "noise_std": self.noise_std,
            "rng_seed": self.rng_seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SimWorldConfig":
        return cls(**data)


# Per stage: the open tag, the label its sim text starts with, the close tag.
_SIM_TAGS = {
    kind: (DEFAULT_SCHEMA.open(kind), kind.value, DEFAULT_SCHEMA.close(kind))
    for kind in CANONICAL_ORDER
}


def _unit(value: int) -> float:
    """A 64-bit hash value as a uniform draw in (0, 1)."""
    return (value + 0.5) / _TWO64


class SimWorld(Generator, RewardScorer):
    """Deterministic generator + scorer over a latent-correctness world.

    Every output is a pure function of (config, request): correctness draws
    and reward noise come from a keyed hash, so repeated runs and arbitrary
    thread schedules reproduce identical bytes. A request with empty
    ``target_stages`` is treated as a judge-style completion and answers
    "valid"/"invalid" from the correctness mark embedded in the prompt;
    any other request must carry a ``seed`` (ValueError otherwise).
    The hash keys are built from ``config.rng_seed`` at construction, so
    a world with another config is a new ``SimWorld``.
    """

    def __init__(self, config: SimWorldConfig = SimWorldConfig()):
        self.config = config
        # Draws hash (rng_seed, "gen" or "score", ...); the first two parts are fixed.
        self._gen_u64 = SeedPrefix(str(config.rng_seed), "gen").derive
        self._score_u64 = SeedPrefix(str(config.rng_seed), "score").derive

    def generate(self, request: GeneratorRequest) -> str:
        if not request.target_stages:
            return "valid" if CORRECT_MARK in request.question else "invalid"
        seed = request.seed
        if seed is None:
            raise ValueError("SimWorld.generate needs a request seed; got seed=None")
        all_ok = True
        for block in request.prior_stages.blocks:
            if not oracle_correct(block.text):
                all_ok = False
                break
        seed_text = str(seed)
        seed_hex = f"{seed & 0xFFFFFFFFFFFFFFFF:016x}"
        success, recovery = self.config.success, self.config.recovery
        gen_u64 = self._gen_u64
        parts = []
        for i, kind in enumerate(request.target_stages):
            p = (success if all_ok else recovery)[kind]
            stage_ok = _unit(gen_u64(seed_text, str(i))) < p
            all_ok = all_ok and stage_ok
            open_tag, label, close_tag = _SIM_TAGS[kind]
            mark = CORRECT_MARK if stage_ok else INCORRECT_MARK
            parts.append(f"{open_tag}{label} {seed_hex}-{i} {mark}{close_tag}")
        return _truncate_at_stop("\n".join(parts), request.sampling.stop)

    def score(self, request: RewardRequest) -> RewardScore:
        if not request.trajectory.blocks:
            raise MalformedReplyError("cannot score an empty trajectory")
        last = request.trajectory.blocks[-1]
        value = (
            self.config.mean_correct
            if oracle_correct(last.text)
            else self.config.mean_incorrect
        )
        if self.config.noise_std > 0:
            u = _unit(self._score_u64(last.text))
            value += self.config.noise_std * (_inv_normal_cdf or _load_inv_normal_cdf())(u)
        return value

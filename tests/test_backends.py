import dataclasses
import hashlib
import inspect
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import stagewise
from stagewise.backends import (
    CORRECT_MARK,
    INCORRECT_MARK,
    EndpointConfig,
    GeneratorRequest,
    HttpGenerator,
    HttpRewardScorer,
    MalformedReplyError,
    RewardRequest,
    SamplingParams,
    SeedPrefix,
    SimWorld,
    SimWorldConfig,
    TransportError,
    oracle_correct,
    stable_u64,
)
from stagewise.stages import (
    CANONICAL_ORDER,
    EMPTY_RESPONSE,
    StageBlock,
    StagedResponse,
    StageKind,
    parse_staged,
)


def _single_stage_request(kind=StageKind.SUMMARY, seed=1, prior=EMPTY_RESPONSE, stop=None):
    if stop is None:
        stop = f"</{kind.name}>"
    return GeneratorRequest(
        question="q",
        target_stages=(kind,),
        prior_stages=prior,
        sampling=SamplingParams(stop=stop),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Sim world
# ---------------------------------------------------------------------------


def test_sim_always_correct_when_success_is_one():
    sim = SimWorld(SimWorldConfig(success=1.0))
    for seed in range(50):
        raw = sim.generate(_single_stage_request(seed=seed))
        assert CORRECT_MARK in raw
        assert raw.startswith("<SUMMARY>")
        assert "</SUMMARY>" not in raw  # stop marker stripped


def test_sim_always_incorrect_when_success_is_zero():
    sim = SimWorld(SimWorldConfig(success={StageKind.CAPTION: 0.0}))
    prior = parse_staged(sim.generate(_single_stage_request(seed=3)) + "</SUMMARY>")
    for seed in range(50):
        raw = sim.generate(
            _single_stage_request(StageKind.CAPTION, seed=seed, prior=prior)
        )
        assert INCORRECT_MARK in raw


def test_sim_recovery_zero_propagates_errors():
    sim = SimWorld(SimWorldConfig(success={StageKind.SUMMARY: 0.0}))
    bad_prior = StagedResponse((StageBlock(StageKind.SUMMARY, f"s {INCORRECT_MARK}"),))
    for seed in range(30):
        raw = sim.generate(
            _single_stage_request(StageKind.CAPTION, seed=seed, prior=bad_prior)
        )
        assert INCORRECT_MARK in raw


def test_sim_generate_deterministic_across_instances():
    cfg = SimWorldConfig(success=0.5, noise_std=0.7, rng_seed=11)
    a, b = SimWorld(cfg), SimWorld(cfg)
    for seed in range(100):
        req = _single_stage_request(seed=seed)
        assert a.generate(req) == b.generate(req)


def test_sim_generate_requires_a_seed():
    # A staged request without a seed has no draw to make; a judge-style
    # request (no target stages) reads the marks and needs none.
    sim = SimWorld(SimWorldConfig())
    with pytest.raises(ValueError, match="seed"):
        sim.generate(_single_stage_request(seed=None))
    assert sim.generate(GeneratorRequest(question=CORRECT_MARK, target_stages=())) == "valid"


def test_sim_score_deterministic_full_precision():
    cfg = SimWorldConfig(noise_std=0.5, rng_seed=2)
    a, b = SimWorld(cfg), SimWorld(cfg)
    traj = StagedResponse((StageBlock(StageKind.SUMMARY, f"text {CORRECT_MARK}"),))
    req = RewardRequest("q", traj)
    assert a.score(req) == b.score(req)
    assert a.score(req) == a.score(req)


def test_sim_score_separates_correct_from_incorrect():
    sim = SimWorld(SimWorldConfig(mean_correct=1.0, mean_incorrect=-1.0, noise_std=0.0))
    good = StagedResponse((StageBlock(StageKind.SUMMARY, f"a {CORRECT_MARK}"),))
    bad = StagedResponse((StageBlock(StageKind.SUMMARY, f"a {INCORRECT_MARK}"),))
    assert sim.score(RewardRequest("q", good)) == 1.0
    assert sim.score(RewardRequest("q", bad)) == -1.0


def test_sim_separating_reward_sorts_correct_first():
    sim = SimWorld(SimWorldConfig(noise_std=0.0))
    trajs = []
    for i in range(20):
        mark = CORRECT_MARK if i % 3 == 0 else INCORRECT_MARK
        trajs.append(StagedResponse((StageBlock(StageKind.SUMMARY, f"t{i} {mark}"),)))
    ranked = sorted(trajs, key=lambda t: -sim.score(RewardRequest("q", t)))
    flags = [oracle_correct(t.blocks[0].text) for t in ranked]
    assert flags == sorted(flags, reverse=True)


def test_sim_multi_stage_generation_parses_and_chains():
    sim = SimWorld(SimWorldConfig(success=1.0))
    req = GeneratorRequest(
        question="q",
        target_stages=CANONICAL_ORDER,
        sampling=SamplingParams(stop="</CONCLUSION>"),
        seed=5,
    )
    raw = sim.generate(req)
    resp = parse_staged(raw + "</CONCLUSION>", require_complete=True)
    assert all(oracle_correct(b.text) for b in resp.blocks)


def test_sim_multi_stage_without_stop_renders_complete():
    sim = SimWorld(SimWorldConfig(success=1.0))
    req = GeneratorRequest(
        question="q",
        target_stages=CANONICAL_ORDER,
        sampling=SamplingParams(stop=None),
        seed=5,
    )
    resp = parse_staged(sim.generate(req), require_complete=True)
    assert resp.is_complete


def test_sim_judge_mode_reads_marks():
    sim = SimWorld(SimWorldConfig())
    judge_req = GeneratorRequest(question=f"answer {CORRECT_MARK}", target_stages=())
    assert sim.generate(judge_req) == "valid"
    judge_req = GeneratorRequest(question=f"answer {INCORRECT_MARK}", target_stages=())
    assert sim.generate(judge_req) == "invalid"


def test_sim_score_requires_mark_and_nonempty():
    sim = SimWorld(SimWorldConfig())
    with pytest.raises(MalformedReplyError):
        sim.score(RewardRequest("q", EMPTY_RESPONSE))
    unmarked = StagedResponse((StageBlock(StageKind.SUMMARY, "plain"),))
    with pytest.raises(MalformedReplyError):
        sim.score(RewardRequest("q", unmarked))


def test_sim_world_config_validation():
    with pytest.raises(ValueError):
        SimWorldConfig(success=1.5)
    with pytest.raises(ValueError):
        SimWorldConfig(noise_std=-0.1)


def test_sim_world_config_round_trips_via_dict():
    cfg = SimWorldConfig(success={StageKind.CAPTION: 0.25}, noise_std=0.3, rng_seed=4)
    again = SimWorldConfig.from_dict(cfg.as_dict())
    assert again == cfg


def test_sim_world_config_stage_maps_take_stage_names():
    by_kind = SimWorldConfig(
        success={StageKind.CAPTION: 0.2, StageKind.REASONING: 0.7}, recovery={StageKind.CONCLUSION: 0.4}
    )
    by_name = SimWorldConfig(success={"caption": 0.2, "Reasoning": 0.7}, recovery={"conclusion": 0.4})
    assert by_name == by_kind
    assert by_name.success == {_S: 1.0, _C: 0.2, _R: 0.7, _F: 1.0}
    assert SimWorldConfig.from_dict(by_name.as_dict()) == by_name


@pytest.mark.parametrize("field", ["success", "recovery"])
@pytest.mark.parametrize("key", ["bogus", 5, ""])
def test_sim_world_config_stage_key_that_names_no_stage_raises(field, key):
    # An unknown key used to be dropped, leaving every stage at the default.
    with pytest.raises(ValueError, match="unknown stage name"):
        SimWorldConfig(**{field: {"caption": 0.2, key: 0.3}})


@pytest.mark.parametrize("field", ["success", "recovery"])
@pytest.mark.parametrize(
    "keys", [(StageKind.CAPTION, "caption"), ("caption", " CAPTION "), ("Caption", StageKind.CAPTION)]
)
def test_sim_world_config_stage_named_twice_raises(field, keys):
    # The later key used to win without a word.
    first, second = keys
    with pytest.raises(ValueError, match="stage 'caption' is named twice in one stage map"):
        SimWorldConfig(**{field: {first: 0.2, second: 0.9}})


_S, _C, _R, _F = CANONICAL_ORDER
_PIN_WORLDS = (
    SimWorldConfig(success=0.5, rng_seed=3),
    SimWorldConfig(
        success={_S: 0.9, _C: 0.4, _R: 0.5, _F: 0.8},
        recovery={_C: 0.3, _R: 0.6, _F: 0.5},
        rng_seed=11,
    ),
    SimWorldConfig(
        success=0.7, recovery=0.2, mean_correct=0.5, mean_incorrect=-1.5, noise_std=0.8,
        rng_seed=2**40,
    ),
)
_PIN_SEEDS = (0, 1, 977, 2**63, 2**64 - 1)
_GOOD_SUMMARY = StageBlock(_S, f"summary pinned {CORRECT_MARK}")
_BAD_SUMMARY = StageBlock(_S, f"summary pinned {INCORRECT_MARK}")
# (prior blocks, target stages): every single stage, the whole pipeline, and
# targets after a correct and after an incorrect prefix (the recovery branch).
_PIN_TARGETS = (
    *(((), (kind,)) for kind in CANONICAL_ORDER),
    ((), CANONICAL_ORDER),
    ((_GOOD_SUMMARY,), (_C,)),
    ((_BAD_SUMMARY,), (_C,)),
    ((_GOOD_SUMMARY,), (_C, _R, _F)),
    ((_BAD_SUMMARY,), (_C, _R, _F)),
    ((_BAD_SUMMARY, StageBlock(_C, f"caption pinned {CORRECT_MARK}")), (_R,)),
)
# sha256 of every SimWorld.generate and SimWorld.score output over the grid
# above. The sim is the referee of every accuracy check, so its bytes must
# not move unless moving them is the point of a change.
SIM_OUTPUTS_SHA256 = "e66f120e31b2bcfdb52ff6b304b73c2d464a9c431ae3b1198aeabe19adf84a1d"


def test_sim_outputs_are_pinned():
    digest = hashlib.sha256()
    recovered = 0
    for config in _PIN_WORLDS:
        world = SimWorld(config)
        for prior_blocks, targets in _PIN_TARGETS:
            prior = StagedResponse(prior_blocks)
            for seed in _PIN_SEEDS:
                for stop in (None, f"</{targets[-1].name}>"):
                    request = GeneratorRequest(
                        question="pinned question", target_stages=targets, prior_stages=prior,
                        sampling=SamplingParams(stop=stop), seed=seed,
                    )
                    text = world.generate(request)
                    digest.update(text.encode("utf-8") + b"\0")
                    if stop is not None:
                        continue
                    blocks = parse_staged(text, require_complete=True, expected_order=targets).blocks
                    if not all(oracle_correct(b.text) for b in prior_blocks):
                        recovered += oracle_correct(blocks[0].text)
                    for k in range(1, len(blocks) + 1):
                        trajectory = StagedResponse(prior_blocks + blocks[:k])
                        score = world.score(RewardRequest("pinned question", trajectory))
                        digest.update(float.hex(score).encode("ascii") + b"\0")
        for question in (f"judge {CORRECT_MARK}", f"judge {INCORRECT_MARK}"):
            digest.update(world.generate(GeneratorRequest(question, ())).encode("utf-8") + b"\0")
    assert recovered > 0  # the grid reaches the recovery branch
    assert digest.hexdigest() == SIM_OUTPUTS_SHA256


def test_stable_u64_is_stable():
    assert stable_u64("a", "b") == stable_u64("a", "b")
    assert stable_u64("a", "b") != stable_u64("a", "c")
    assert stable_u64("a", "b") == stable_u64("a|b")  # parts join with |
    assert 0 <= stable_u64("x") < 2**64


# ---------------------------------------------------------------------------
# HTTP backends
# ---------------------------------------------------------------------------


def _endpoint(url, retries=0, backoff=0.01):
    return EndpointConfig(
        base_url=url, model="test-model", retries=retries, backoff_s=backoff, timeout_s=5
    )


def test_http_generator_wire_format(stub_server):
    server = stub_server(
        [(200, {"choices": [{"message": {"content": "<SUMMARY>hi</SUMMARY> extra"}}]})]
    )
    gen = HttpGenerator(_endpoint(server.url))
    prior = StagedResponse((StageBlock(StageKind.SUMMARY, "s"),))
    req = GeneratorRequest(
        question="what?",
        target_stages=(StageKind.CAPTION,),
        prior_stages=prior,
        image_ref="file:///img.png",
        system_prompt="sys",
        sampling=SamplingParams(temperature=0.7, max_new_tokens=64, stop="</SUMMARY>"),
        seed=123,
    )
    out = gen.generate(req)
    assert out == "<SUMMARY>hi"  # truncated at stop, stop stripped

    body = server.requests[0]["body"]
    assert body["model"] == "test-model"
    assert body["temperature"] == 0.7
    assert body["max_tokens"] == 64
    assert body["stop"] == ["</SUMMARY>"]
    assert body["seed"] == 123
    assert body["messages"][0] == {"role": "system", "content": "sys"}
    assert body["messages"][1]["role"] == "user"
    assert body["messages"][1]["content"] == [
        {"type": "text", "text": "what?"},
        {"type": "image_url", "image_url": {"url": "file:///img.png"}},
    ]
    assert body["messages"][2] == {"role": "assistant", "content": "<SUMMARY>s</SUMMARY>"}


def test_http_generator_plain_user_content_without_image(stub_server):
    server = stub_server([(200, {"choices": [{"message": {"content": "ok"}}]})])
    gen = HttpGenerator(_endpoint(server.url))
    gen.generate(GeneratorRequest(question="q", target_stages=(StageKind.SUMMARY,)))
    body = server.requests[0]["body"]
    assert body["messages"][0] == {"role": "user", "content": "q"}
    assert "stop" not in body  # no stop requested
    assert "seed" not in body


def test_http_generator_auth_header_from_env(stub_server, monkeypatch):
    server = stub_server([(200, {"choices": [{"message": {"content": "ok"}}]})])
    monkeypatch.setenv("STAGEWISE_API_KEY", "sekrit")
    gen = HttpGenerator(_endpoint(server.url))
    gen.generate(GeneratorRequest(question="q", target_stages=(StageKind.SUMMARY,)))
    assert server.requests[0]["headers"]["Authorization"] == "Bearer sekrit"


def test_http_generator_retries_then_succeeds(stub_server):
    server = stub_server(
        [
            (500, {"error": "boom"}),
            (503, {"error": "again"}),
            (200, {"choices": [{"message": {"content": "fine"}}]}),
        ]
    )
    gen = HttpGenerator(_endpoint(server.url, retries=2))
    assert gen.generate(GeneratorRequest(question="q", target_stages=(StageKind.SUMMARY,))) == "fine"
    assert len(server.requests) == 3


def test_http_generator_retries_exactly_then_raises(stub_server):
    server = stub_server([(500, {"error": "boom"})])
    gen = HttpGenerator(_endpoint(server.url, retries=2))
    with pytest.raises(TransportError):
        gen.generate(GeneratorRequest(question="q", target_stages=(StageKind.SUMMARY,)))
    assert len(server.requests) == 3  # initial attempt + exactly two retries


@pytest.mark.parametrize("status", [408, 429])
def test_http_generator_retries_timeout_and_rate_limit(stub_server, status):
    server = stub_server(
        [(status, {"error": "later"}), (200, {"choices": [{"message": {"content": "fine"}}]})]
    )
    gen = HttpGenerator(_endpoint(server.url, retries=2))
    assert gen.generate(GeneratorRequest(question="q", target_stages=(StageKind.SUMMARY,))) == "fine"
    assert len(server.requests) == 2


def test_http_generator_client_error_is_not_retried(stub_server):
    server = stub_server([(404, {"error": "no route"})])
    gen = HttpGenerator(_endpoint(server.url, retries=2, backoff=5))
    with pytest.raises(TransportError, match="HTTP 404"):
        gen.generate(GeneratorRequest(question="q", target_stages=(StageKind.SUMMARY,)))
    assert len(server.requests) == 1


def _record_sleeps(monkeypatch):
    sleeps = []
    monkeypatch.setattr("stagewise.backends.time.sleep", sleeps.append)
    return sleeps


@pytest.mark.parametrize(
    "status, value, waited",
    [(429, "2", 2), (503, "0", 0), (429, "9999", 60)],
)
def test_http_retry_after_seconds_replace_backoff(stub_server, monkeypatch, status, value, waited):
    sleeps = _record_sleeps(monkeypatch)
    server = stub_server(
        [
            (status, {"error": "later"}, {"Retry-After": value}),
            (200, {"choices": [{"message": {"content": "fine"}}]}),
        ]
    )
    gen = HttpGenerator(_endpoint(server.url, retries=2, backoff=0.5))
    assert gen.generate(GeneratorRequest(question="q", target_stages=(StageKind.SUMMARY,))) == "fine"
    assert sleeps == [waited]
    assert len(server.requests) == 2


@pytest.mark.parametrize(
    "value", ["Wed, 21 Oct 2026 07:28:00 GMT", "-1", "1.5", "soon", ""]
)
def test_http_retry_after_not_seconds_falls_back_to_backoff(stub_server, monkeypatch, value):
    sleeps = _record_sleeps(monkeypatch)
    server = stub_server(
        [
            (503, {"error": "later"}, {"Retry-After": value}),
            (503, {"error": "later"}),
            (200, {"choices": [{"message": {"content": "fine"}}]}),
        ]
    )
    gen = HttpGenerator(_endpoint(server.url, retries=2, backoff=0.5))
    assert gen.generate(GeneratorRequest(question="q", target_stages=(StageKind.SUMMARY,))) == "fine"
    assert sleeps == [0.5, 2.0]


def test_http_retry_after_applies_only_to_its_own_reply(stub_server, monkeypatch):
    sleeps = _record_sleeps(monkeypatch)
    server = stub_server(
        [
            (429, {"error": "later"}, {"Retry-After": "3"}),
            (500, {"error": "boom"}),
            (200, {"choices": [{"message": {"content": "fine"}}]}),
        ]
    )
    gen = HttpGenerator(_endpoint(server.url, retries=2, backoff=0.5))
    assert gen.generate(GeneratorRequest(question="q", target_stages=(StageKind.SUMMARY,))) == "fine"
    assert sleeps == [3, 2.0]


def test_http_retry_after_on_client_error_is_not_retried(stub_server, monkeypatch):
    sleeps = _record_sleeps(monkeypatch)
    server = stub_server([(400, {"error": "bad"}, {"Retry-After": "1"})])
    gen = HttpGenerator(_endpoint(server.url, retries=2, backoff=0.5))
    with pytest.raises(TransportError, match="HTTP 400"):
        gen.generate(GeneratorRequest(question="q", target_stages=(StageKind.SUMMARY,)))
    assert len(server.requests) == 1
    assert sleeps == []


def test_http_generator_unencodable_body_is_transport_without_request(stub_server):
    server = stub_server([(200, {"choices": [{"message": {"content": "ok"}}]})])
    gen = HttpGenerator(_endpoint(server.url, retries=2, backoff=5))
    request = GeneratorRequest(
        question="q",
        target_stages=(StageKind.SUMMARY,),
        sampling=SamplingParams(temperature=float("nan")),
    )
    with pytest.raises(TransportError, match="not valid JSON"):
        gen.generate(request)
    assert server.requests == []


def test_http_generator_connection_error_is_transport():
    gen = HttpGenerator(
        EndpointConfig(base_url="http://127.0.0.1:9", retries=0, timeout_s=0.2)
    )
    with pytest.raises(TransportError):
        gen.generate(GeneratorRequest(question="q", target_stages=(StageKind.SUMMARY,)))


def test_http_generator_malformed_reply(stub_server):
    server = stub_server([(200, {"nonsense": True})])
    gen = HttpGenerator(_endpoint(server.url))
    with pytest.raises(MalformedReplyError):
        gen.generate(GeneratorRequest(question="q", target_stages=(StageKind.SUMMARY,)))


def test_http_generator_reply_that_is_not_utf8_is_malformed(stub_server):
    server = stub_server([(200, {"choices": [{"message": {"content": "a \ud800 b"}}]})])
    gen = HttpGenerator(_endpoint(server.url))
    with pytest.raises(MalformedReplyError, match="not valid UTF-8 text"):
        gen.generate(GeneratorRequest(question="q", target_stages=(StageKind.SUMMARY,)))


def test_http_reward_wire_format_and_value(stub_server):
    server = stub_server([(200, {"score": -0.25})])
    scorer = HttpRewardScorer(_endpoint(server.url))
    traj = StagedResponse(
        (StageBlock(StageKind.SUMMARY, "s"), StageBlock(StageKind.CAPTION, "c"))
    )
    value = scorer.score(RewardRequest("why?", traj))
    assert value == -0.25
    body = server.requests[0]["body"]
    assert body == {
        "model": "test-model",
        "question": "why?",
        "response": "<SUMMARY>s</SUMMARY>\n<CAPTION>c</CAPTION>",
    }


def test_http_reward_sends_image_ref(stub_server):
    server = stub_server([(200, {"score": 0.5})])
    scorer = HttpRewardScorer(_endpoint(server.url))
    traj = StagedResponse((StageBlock(StageKind.SUMMARY, "s"),))
    assert scorer.score(RewardRequest("why?", traj, image_ref="img://7")) == 0.5
    assert server.requests[0]["body"] == {
        "model": "test-model",
        "question": "why?",
        "response": "<SUMMARY>s</SUMMARY>",
        "image_ref": "img://7",
    }


def test_http_reward_rejects_nonfinite_and_missing(stub_server):
    traj = StagedResponse((StageBlock(StageKind.SUMMARY, "s"),))
    server = stub_server([(200, {"score": "NaN"})])
    with pytest.raises(MalformedReplyError):
        HttpRewardScorer(_endpoint(server.url)).score(RewardRequest("q", traj))
    server = stub_server([(200, {"reward": 1.0})])
    with pytest.raises(MalformedReplyError):
        HttpRewardScorer(_endpoint(server.url)).score(RewardRequest("q", traj))
    # Only a JSON number is a score: not a numeric string, a bool, null, a list, or a reply that is no object.
    not_numbers = [{"score": "0.5"}, {"score": True}, {"score": False}, {"score": None}, {"score": [1.0]}, [1.0]]
    server = stub_server([(200, payload) for payload in not_numbers] + [(200, {"score": 2}), (200, {"score": -0.5})])
    scorer = HttpRewardScorer(_endpoint(server.url))
    for _ in not_numbers:
        with pytest.raises(MalformedReplyError):
            scorer.score(RewardRequest("q", traj))
    assert [scorer.score(RewardRequest("q", traj)) for _ in range(2)] == [2.0, -0.5]


def test_endpoint_config_validation():
    with pytest.raises(ValueError):
        EndpointConfig(base_url="http://x", timeout_s=0)
    with pytest.raises(ValueError):
        EndpointConfig(base_url="http://x", retries=-1)
    for bad in ({"timeout_s": math.inf}, {"timeout_s": math.nan}, {"backoff_s": -1.0},
                {"backoff_s": math.inf}, {"backoff_s": math.nan}):
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", **bad)
    EndpointConfig(base_url="http://x", backoff_s=0.0)
    for url in ("ftp://x/v1", "localhost:8000/v1", "http:///v1", "http://x:port/v1"):
        with pytest.raises(ValueError):
            EndpointConfig(base_url=url)


def test_sim_world_config_rejects_nonfinite_means_and_noise():
    for bad in ({"noise_std": math.inf}, {"noise_std": math.nan}, {"mean_correct": math.inf},
                {"mean_incorrect": -math.inf}, {"mean_correct": math.nan}):
        with pytest.raises(ValueError):
            SimWorldConfig(**bad)


# ---------------------------------------------------------------------------
# HTTP transport: keep-alive connections
# ---------------------------------------------------------------------------


def _sent_question(body):
    """The question a generator or a reward request carries."""
    return body["question"] if "question" in body else body["messages"][0]["content"]


def _echo_question(body):
    """The question back: as a generator's text, or "q<k>" as a reward score of k."""
    if "question" in body:
        return 200, {"score": float(body["question"][1:])}
    return 200, {"choices": [{"message": {"content": _sent_question(body)}}]}


def _ask(client, question):
    """The question through either client, a reward score read back as "q<score>"."""
    if isinstance(client, HttpRewardScorer):
        traj = StagedResponse((StageBlock(StageKind.SUMMARY, "s"),))
        return f"q{client.score(RewardRequest(question, traj)):g}"
    return client.generate(GeneratorRequest(question=question, target_stages=(StageKind.SUMMARY,)))


_CLIENTS = pytest.mark.parametrize(
    "client_cls", [HttpGenerator, HttpRewardScorer], ids=["generator", "reward"]
)


@_CLIENTS
def test_http_sequential_calls_reuse_one_connection(stub_server, client_cls):
    server = stub_server(_echo_question, keep_alive=True)
    gen = client_cls(_endpoint(server.url))
    try:
        assert [_ask(gen, f"q{k}") for k in range(5)] == [f"q{k}" for k in range(5)]
    finally:
        gen.close()
    assert len(server.requests) == 5
    assert len({r["port"] for r in server.requests}) == 1


@_CLIENTS
def test_http_server_closing_idle_connections_costs_no_retry(stub_server, client_cls):
    # HTTP/1.1 without "Connection: close", yet the server hangs up after
    # each reply: every reuse finds a dead connection, which must be
    # replaced without a backoff and without a second request reaching it.
    server = stub_server(_echo_question, keep_alive=True, drop_after_reply=True)
    gen = client_cls(_endpoint(server.url, retries=2, backoff=5))
    started = time.monotonic()
    try:
        assert [_ask(gen, f"q{k}") for k in range(3)] == ["q0", "q1", "q2"]
    finally:
        gen.close()
    assert time.monotonic() - started < 2.5
    assert [_sent_question(r["body"]) for r in server.requests] == ["q0", "q1", "q2"]


def test_http_client_shared_by_threads_matches_each_reply(stub_server):
    server = stub_server(_echo_question, keep_alive=True)
    gen = HttpGenerator(_endpoint(server.url))
    threads_n, calls_n = 8, 10
    start = threading.Barrier(threads_n)
    mismatches = []

    def worker(t):
        start.wait(timeout=10)
        for k in range(calls_n):
            question = f"t{t}-{k}"
            reply = _ask(gen, question)
            if reply != question:
                mismatches.append((question, reply))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        gen.close()
    assert mismatches == []
    assert len(server.requests) == threads_n * calls_n
    assert len({r["port"] for r in server.requests}) <= threads_n


def test_import_does_not_load_requests():
    env = {**os.environ, "PYTHONPATH": str(Path(stagewise.__file__).resolve().parents[1])}
    probe = "import sys, stagewise; print('requests' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "False"


def test_import_does_not_load_http_stack():
    env = {**os.environ, "PYTHONPATH": str(Path(stagewise.__file__).resolve().parents[1])}
    probe = "import sys, stagewise; print(sorted({'http.client', 'ssl'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"


def test_stable_u64_prefix_equals_stable_u64():
    for prefix in [(), ("7",), ("7", "gen"), ("", "a|b"), ("é", "日本", "")]:
        derive = SeedPrefix(*prefix).derive
        for rest in [("x",), ("", ""), ("caption", "0", "3"), ("a|b",)]:
            assert derive(*rest) == stable_u64(*prefix, *rest), (prefix, rest)
            for more in [(), ("",), ("caption", "0"), ("日本",)]:
                longer = SeedPrefix(*prefix).extend(*more)
                assert longer.derive(*rest) == stable_u64(*prefix, *more, *rest), (prefix, more, rest)


@pytest.mark.parametrize("cls", [GeneratorRequest, RewardRequest, StageBlock, StagedResponse])
def test_hand_written_inits_take_the_dataclass_fields(cls):
    # These frozen dataclasses fill their instance dict in their own __init__;
    # it must take exactly the declared fields, in order, with their defaults.
    params = list(inspect.signature(cls).parameters.values())
    declared = dataclasses.fields(cls)
    assert [p.name for p in params] == [f.name for f in declared]
    for param, field in zip(params, declared):
        assert param.default is (
            inspect.Parameter.empty if field.default is dataclasses.MISSING else field.default
        ), field.name
    values = {f.name: object() for f in declared}
    made = cls(**values)
    assert vars(made) == values
    assert made == cls(*values.values()) and hash(made) == hash(cls(**values))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(made, declared[0].name, None)

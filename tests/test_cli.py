import argparse
import errno
import json
import os
import shutil
import subprocess
import sys
from enum import Enum
from pathlib import Path

import pytest

import stagewise
from stagewise.backends import CORRECT_MARK, INCORRECT_MARK, SimWorld
from stagewise.cli import (
    EXIT_BACKEND,
    EXIT_CONFIG,
    EXIT_OK,
    apply_flags,
    build_parser,
    load_config,
    main,
)
from stagewise import search
from stagewise.search import ConfigError, LoopSemantics, SearchTrace, Strategy


def _last_json_line(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1]), out


def _write_items(tmp_path, count=3):
    path = tmp_path / "items.jsonl"
    rows = [{"id": f"i{k}", "question": f"q{k}"} for k in range(count)]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return path


def _write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


# ---------------------------------------------------------------------------
# Config loading and flag precedence
# ---------------------------------------------------------------------------


def test_load_config_defaults_when_absent():
    cfg = load_config(None)
    assert cfg.backend == "sim"
    assert cfg.search.candidates_per_stage == 4


def test_load_config_rejects_unknown_keys(tmp_path):
    from stagewise.search import ConfigError

    path = _write_config(tmp_path, {"search": {"beem_width": 2}})
    with pytest.raises(ConfigError):
        load_config(path)
    path = _write_config(tmp_path, {"wat": 1})
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_sections(tmp_path):
    path = _write_config(
        tmp_path,
        {
            "backend": "sim",
            "sim": {"success": {"caption": 0.5}, "noise_std": 0.2, "rng_seed": 3},
            "search": {
                "strategy": "beam",
                "candidates_per_stage": 6,
                "beam_width": 2,
                "reward_mean": -0.5,
                "reward_std": 1.5,
            },
            "run_seed": 42,
        },
    )
    cfg = load_config(path)
    assert cfg.search.strategy is Strategy.STAGE_BEAM
    assert cfg.search.candidates_per_stage == 6
    assert cfg.search.stats.reward_mean == -0.5
    assert cfg.run_seed == 42
    from stagewise.stages import StageKind

    assert cfg.sim.success[StageKind.CAPTION] == 0.5


def test_flags_override_config(tmp_path):
    path = _write_config(tmp_path, {"search": {"candidates_per_stage": 8, "beam_width": 2}})
    parser = build_parser()
    args = parser.parse_args(
        ["solve", "q", "--config", str(path), "--m", "4", "--n", "2",
         "--strategy", "swires", "--retraces", "5", "--z", "0.1",
         "--reward-mean", "0.0", "--reward-std", "2.0", "--min-pass", "2",
         "--loop-semantics", "main_text", "--seed", "7", "--parallelism", "2"]
    )
    cfg = apply_flags(load_config(args.config), args)
    assert cfg.search.candidates_per_stage == 4
    assert cfg.search.retrace_limit == 5
    assert cfg.search.cutoff_zscore == 0.1
    assert cfg.search.stats.reward_mean == 0.0
    assert cfg.search.min_pass_count == 2
    assert cfg.search.loop_semantics is LoopSemantics.MAIN_TEXT
    assert cfg.run_seed == 7
    assert cfg.parallelism == 2


def test_config_file_search_section_equals_flags(tmp_path):
    from stagewise.cli import _SEARCH_SETTINGS

    settings = {
        "strategy": ("BEAM", "beam"),
        "candidates_per_stage": (6, "6"),
        "beam_width": (3, "3"),
        "retrace_limit": (2, "2"),
        "cutoff_zscore": (1, "1"),
        "reward_mean": (0.25, "0.25"),
        "reward_std": (1.5, "1.5"),
        "min_pass_count": (2, "2"),
        "loop_semantics": ("main_text", "main_text"),
    }
    assert set(settings) == {k for k, flag in _SEARCH_SETTINGS.items() if flag}
    path = _write_config(tmp_path, {"search": {k: v for k, (v, _) in settings.items()}})
    from_file = load_config(path).search
    argv = ["solve", "q"]
    for key, (_, text) in settings.items():
        argv += [_SEARCH_SETTINGS[key][0], text]
    from_flags = apply_flags(load_config(None), build_parser().parse_args(argv)).search
    assert repr(from_file) == repr(from_flags)
    assert from_file.strategy is Strategy.STAGE_BEAM
    assert from_file.cutoff_zscore == 1.0


def test_readme_search_table_matches_the_cli_settings():
    # Drift check: the README's table of `search` keys lists each setting
    # the CLI takes, in order, with its JSON type and its flag (or none).
    from stagewise.cli import _SEARCH_SETTINGS, _default

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    intro = "The `search` keys, their JSON types, and the flags that override them:"
    lines = readme.split(intro, 1)[1].strip().splitlines()
    rows = []
    for line in lines[2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        rows.append(tuple(cell.strip().strip("`") for cell in line.strip("|").split("|")))

    def json_type(default):
        if isinstance(default, Enum):
            return "string"
        return "integer" if isinstance(default, int) else "number"

    assert rows == [
        (key, json_type(_default(key)), flag[0] if flag else "none")
        for key, flag in _SEARCH_SETTINGS.items()
    ]


def test_readme_command_table_matches_each_subparsers_flags():
    # Drift check: the README's table of subcommands lists, in parser order,
    # every option each one takes; "search flags" stands for the flags of
    # the search-key table.
    from stagewise.cli import _SEARCH_SETTINGS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = readme.split("Each subcommand takes only the flags it reads:", 1)[1].strip().splitlines()
    search_flags = [flag[0] for flag in _SEARCH_SETTINGS.values() if flag]
    table = {}
    for line in lines[2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        command, flags = (cell.strip() for cell in line.strip("|").split("|"))
        table[command.strip("`")] = [
            option for cell in flags.split(", ")
            for option in (search_flags if cell == "search flags" else [cell.strip("`")])
        ]
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert table == {
        name: [o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help")]
        for name, sub in subparsers.choices.items()
    }


def test_readme_config_example_loads(tmp_path):
    # Drift check: the JSON example under "Config file" is a config that
    # loads, so a key renamed or refused there fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "config.json"
    path.write_text(example, encoding="utf-8")
    assert load_config(str(path)).generator.model == "my-vlm"


@pytest.mark.parametrize(
    "setting",
    [
        {"search": {"candidates_per_stage": "4"}},
        {"search": {"retrace_limit": 1.5}},
        {"search": {"beam_width": True}},
        {"search": {"reward_mean": "0.5"}},
        {"search": {"cutoff_zscore": float("nan")}},
        {"search": {"strategy": "bon"}},
        {"search": []},
        {"generator": "x"},
        {"parallelism": 0},
        ["--parallelism", "0"],
        ["--reward-mean", "nan"],
        {"sim": {"rng_seed": 1.5}},
        {"sim": {"success": "0.5"}},
        {"sim": {"success": {"caption": "0.5"}}},
        {"sim": {"noise_std": True}},
        {"generator": {"base_url": "http://x", "model": 5}},
        {"search": {"cutoff_zscore": float("inf")}},
        {"search": {"temperature": float("inf")}},
        ["--z", "inf"],
        ["--reward-mean", "inf"],
        ["--z", "inf", "--reward-std", "0"],
        {"search": {"cutoff_zscore": 10**400}},
        {"search": {"beam_width": 10**400}},
        {"sim": {"noise_std": 10**400}},
        {"sim": {"success": {"caption": 0.2, "Caption": 0.9}}},
    ],
    ids=["string-int", "float-int", "bool-int", "string-real", "nan-real", "alias",
         "search-list", "generator-string", "parallelism-0", "parallelism-flag-0",
         "nan-flag", "sim-float-int", "sim-string-real", "sim-string-stage-map",
         "sim-bool-real", "endpoint-int-string", "infinite-cutoff", "infinite-temperature",
         "infinite-z-flag", "infinite-reward-mean-flag", "nan-cutoff-flags",
         "huge-int-cutoff", "huge-int-beam-width", "huge-int-noise", "stage-named-twice"],
)
def test_bad_setting_exits_2(tmp_path, capsys, setting):
    if isinstance(setting, dict):
        setting = ["--config", str(_write_config(tmp_path, setting))]
    assert main(["solve", "q", *setting]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "data, key",
    [
        ({"search": {"cutoff_zscore": 10**400}}, "cutoff_zscore"),
        ({"search": {"beam_width": -(10**400)}}, "beam_width"),
        ({"sim": {"noise_std": 10**400}}, "sim.noise_std"),
        ({"sim": {"success": {"caption": 10**400}}}, "sim.success.caption"),
        ({"parallelism": 10**400}, "parallelism"),
    ],
)
def test_number_too_large_for_a_float_exits_2_naming_its_key(tmp_path, capsys, monkeypatch, data, key):
    # Such an integer made float() and math.isnan raise OverflowError, a traceback with exit 1.
    calls = []
    monkeypatch.setattr(SimWorld, "generate", lambda self, request: calls.append(request))
    assert main(["solve", "q", "--config", str(_write_config(tmp_path, data))]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {key} must fit a float, got an integer of 401 digits\n"
    assert calls == []


@pytest.mark.parametrize(
    "text",
    [b'{"search": {', b'{"search": {"cutoff_zscore": 1' + b"0" * 5000 + b"}}", b'{"search": {}}\xff',
     b'{"search": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"],
    ids=["truncated", "integer-past-the-digit-limit", "not-utf-8", "nested-past-the-recursion-limit"],
)
def test_config_file_json_cannot_read_exits_2(tmp_path, capsys, text):
    # The last three raised ValueError, UnicodeDecodeError and RecursionError from json.load: a traceback, exit 1.
    config = tmp_path / "config.json"
    config.write_bytes(text)
    assert main(["solve", "q", "--config", str(config)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config {config} is not valid JSON: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"search": {"beam_width": 2, "beam_width": 1}}', "beam_width"),
        ('{"sim": {"success": {"caption": 0.2, "caption": 0.9}}}', "caption"),
        ('{"run_seed": 1, "backend": "sim", "run_seed": 2}', "run_seed"),
    ],
    ids=["search-key", "stage-in-a-success-map", "top-level-key"],
)
def test_config_key_named_twice_exits_2_naming_it_before_any_call(tmp_path, capsys, monkeypatch, text, key):
    # json.load kept the last of the two: the first config ran width 1 and exited 0.
    calls = []
    monkeypatch.setattr(SimWorld, "generate", lambda self, request: calls.append(request))
    config = tmp_path / "config.json"
    config.write_text(text)
    assert main(["solve", "q", "--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: config key {key!r} appears twice in one object\n"
    assert calls == []


@pytest.mark.parametrize(
    "section, setting",
    [
        ("generator", {"backoff_s": -1.0, "retries": 1}),
        ("generator", {"timeout_s": float("inf")}),
        ("reward", {"backoff_s": float("inf")}),
        ("sim", {"noise_std": float("inf")}),
        ("sim", {"mean_correct": float("inf")}),
        ("sim", {"mean_incorrect": float("-inf")}),
        # Past what socket timeouts and time.sleep take: OverflowError at the first connection or retry.
        ("generator", {"timeout_s": 1e10}),
        ("reward", {"backoff_s": 1e10, "retries": 1}),
        ("generator", {"retries": 600, "backoff_s": 1e-9}),
        # Hosts the IDNA codec refuses: UnicodeError at the first request, or as the client was made.
        ("generator", {"base_url": "http://a..b/v1"}),
        ("reward", {"base_url": f"http://{'a' * 64}.example/v1"}),
        ("generator", {"base_url": "http://\ud800x/v1"}),
        # Port 0: every connection is refused, after every backoff at the default retries.
        ("reward", {"base_url": "http://127.0.0.1:0/v1"}),
        # Hosts IDNA takes but no name lookup finds: every call fails to resolve.
        ("generator", {"base_url": "http://a b/v1"}),
        ("generator", {"base_url": "http://a;b/v1"}),
        ("reward", {"base_url": 'http://a"b/v1'}),
        ("reward", {"base_url": "http://a,b/v1"}),
        ("generator", {"base_url": "http://a%20b/v1"}),
        ("reward", {"base_url": "http://a\x7f/v1"}),
        ("generator", {"base_url": "http://a\u0000b/v1"}),
    ],
    ids=["negative-backoff", "infinite-timeout", "infinite-backoff", "infinite-noise",
         "infinite-mean-correct", "infinite-mean-incorrect", "timeout-past-the-platform",
         "backoff-past-the-platform", "retries-whose-last-backoff-is-past-the-platform",
         "host-with-an-empty-label", "host-with-a-64-byte-label", "host-with-a-lone-surrogate",
         "port-0", "host-with-a-space", "host-with-a-semicolon", "host-with-a-quote",
         "host-with-a-comma", "host-with-a-percent-escape", "host-with-a-delete", "host-with-a-nul"],
)
def test_setting_that_would_fail_mid_run_exits_2_before_any_request(
    tmp_path, capsys, monkeypatch, stub_server, section, setting
):
    # Python's JSON writer and reader carry Infinity; the config load must refuse it.
    server = stub_server([(200, {"score": 1.0})])
    calls = []
    monkeypatch.setattr(SimWorld, "generate", lambda self, request: calls.append(request))
    endpoint = {"base_url": server.url, "retries": 0}
    data = {"generator": dict(endpoint), "reward": dict(endpoint)}
    data["backend"] = "sim" if section == "sim" else "http"
    data[section] = {**data.get(section, {}), **setting}
    assert main(["solve", "q", "--config", str(_write_config(tmp_path, data))]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid config value:")
    assert next(iter(setting)) in err
    assert server.requests == [] and calls == []


def test_infinite_search_temperature_sends_no_request(tmp_path, capsys, stub_server):
    # The request body could not be JSON; the config load refuses it first.
    server = stub_server([(200, {"score": 1.0})])
    endpoint = {"base_url": server.url, "retries": 0}
    config = _write_config(
        tmp_path,
        {"backend": "http", "generator": endpoint, "reward": endpoint,
         "search": {"temperature": float("inf")}},
    )
    items = _write_items(tmp_path, 2)
    out = tmp_path / "out"
    assert main(["bench", "--items", str(items), "--out", str(out), "--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: temperature must be finite, got inf\n"
    assert server.requests == []
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read config {path}: [Errno 2] "),
        ("DIRECTORY", "cannot read config {path}: [Errno 21] "),
        ("[1]", "config root must be a JSON object"),
        ('{"backend": "grpc"}', "backend must be 'sim' or 'http', got 'grpc'"),
    ],
    ids=["missing-file", "directory", "root-not-an-object", "unknown-backend"],
)
def test_config_file_that_gives_no_config_exits_2_saying_why(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    if text == "DIRECTORY":
        path.mkdir()
    elif text is not None:
        path.write_text(text)
    assert main(["solve", "q", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: " + message.format(path=path))


def test_endpoint_type_error_names_the_key(tmp_path, capsys):
    path = _write_config(tmp_path, {"generator": {"base_url": "http://x", "retries": "2"}})
    assert main(["solve", "q", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: generator.retries must be an integer, got '2'\n"


def test_endpoint_string_type_error_names_the_key_as_a_number_does(tmp_path, capsys):
    path = _write_config(tmp_path, {"generator": {"base_url": "http://x", "model": 1}})
    assert main(["solve", "q", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: generator.model must be a string, got 1\n"


def test_endpoint_user_and_password_exit_2_before_any_request_and_are_not_printed(
    tmp_path, capsys, stub_server
):
    # The client would drop them and print the URL, password and all, in each failure.
    server = stub_server([(200, {"score": 1.0})])
    endpoint = {"base_url": server.url.replace("http://", "http://user:pw@"), "retries": 0}
    path = _write_config(tmp_path, {"backend": "http", "generator": endpoint, "reward": endpoint})
    assert main(["solve", "q", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: invalid config value: "
        "base_url must hold no user name or password; the token comes from token_env\n"
    )
    assert server.requests == []


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_endpoint_string_setting_not_utf8_exits_2_before_any_request(tmp_path, capsys, stub_server, command):
    # os.environ.get raised UnicodeEncodeError on the name at the first request.
    server = stub_server([(200, {"score": 1.0})])
    endpoint = {"base_url": server.url, "retries": 0}
    data = {"backend": "http", "generator": {**endpoint, "token_env": "\ud800"}, "reward": endpoint}
    path = _write_config(tmp_path, data)
    out = tmp_path / "out"
    args = ["q"] if command == "solve" else ["--items", str(_write_items(tmp_path, 2)), "--out", str(out)]
    assert main([command, *args, "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: invalid config value: generator.token_env is not valid UTF-8 text: '\\ud800'\n"
    )
    assert server.requests == [] and not out.exists()


def test_token_that_is_not_printable_ascii_exits_2_at_load(tmp_path, capsys, monkeypatch, stub_server):
    # Read at each request, after the call was tallied, it made bench exit 0 with two error records.
    monkeypatch.setenv("STAGEWISE_API_KEY", "tök")
    server = stub_server([(200, {"score": 1.0})])
    endpoint = {"base_url": server.url, "retries": 0}
    path = _write_config(tmp_path, {"backend": "http", "generator": endpoint, "reward": endpoint})
    out = tmp_path / "out"
    argv = ["bench", "--items", str(_write_items(tmp_path, 2)), "--out", str(out), "--config", str(path)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: invalid config value: the token in STAGEWISE_API_KEY is not printable ASCII\n"
    )
    assert server.requests == [] and not out.exists()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_sim_default_world(capsys, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    code = main(["solve", "what?", "--seed", "1", "--trace", str(trace_path)])
    assert code == EXIT_OK
    summary, out = _last_json_line(capsys)
    assert summary["command"] == "solve"
    assert summary["generator_calls"] == 11
    assert "[CONCLUSION]" in "\n".join(out)
    assert "ANSWER:" in "\n".join(out)
    assert trace_path.exists()


def test_solve_makes_a_trace_only_to_write_it(tmp_path, monkeypatch, capsys):
    made = []
    make_trace = search._make_trace
    monkeypatch.setattr(search, "_make_trace", lambda *args: made.append(args) or make_trace(*args))
    assert main(["solve", "q"]) == EXIT_OK
    assert made == []
    assert main(["solve", "q", "--trace", str(tmp_path / "trace.jsonl")]) == EXIT_OK
    assert len(made) == 1


def test_solve_swires_no_retrace_matches_beam_output(capsys):
    args = ["--seed", "5", "--reward-mean", "-1000000", "--reward-std", "0"]
    assert main(["solve", "same?", "--strategy", "swires", "--retraces", "0", *args]) == EXIT_OK
    swires_out = capsys.readouterr().out
    assert main(["solve", "same?", "--strategy", "beam", *args]) == EXIT_OK
    beam_out = capsys.readouterr().out
    assert swires_out == beam_out


def test_solve_bad_endpoint_exits_3(tmp_path, capsys):
    config = _write_config(
        tmp_path,
        {
            "backend": "http",
            "generator": {"base_url": "http://127.0.0.1:9", "retries": 0, "timeout_s": 0.2},
            "reward": {"base_url": "http://127.0.0.1:9", "retries": 0, "timeout_s": 0.2},
        },
    )
    code = main(["solve", "q", "--config", str(config)])
    assert code == EXIT_BACKEND


@pytest.mark.parametrize(
    "args, name",
    [(["caf\udce9"], "question"), (["q", "--image", "caf\udce9"], "--image")],
    ids=["question", "image"],
)
def test_solve_argument_not_utf8_exits_2_before_any_call(tmp_path, capsys, monkeypatch, args, name):
    # An argument of bytes that are not UTF-8 reaches Python with surrogate escapes.
    calls = []
    monkeypatch.setattr(SimWorld, "generate", lambda self, request: calls.append(request))
    trace = tmp_path / "trace.jsonl"
    assert main(["solve", *args, "--trace", str(trace)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {name} is not valid UTF-8 text: 'caf\\udce9'\n"
    assert calls == [] and not trace.exists()


def test_solve_config_error_exits_2(capsys):
    assert main(["solve", "q", "--m", "4", "--n", "3"]) == EXIT_CONFIG


def test_solve_best_of_n_spends_n_whatever_m(capsys):
    assert main(["solve", "q", "--strategy", "best_of_n", "--n", "3"]) == EXIT_OK
    summary, _ = _last_json_line(capsys)
    assert summary["generator_calls"] == 3


def test_solve_search_exhausted_exits_4(tmp_path, stub_server):
    from stagewise.cli import EXIT_EXHAUSTED

    # Every continuation embeds a stray close tag, so no candidate parses.
    server = stub_server(
        [(200, {"choices": [{"message": {"content": "</CAPTION> broken"}}]})]
    )
    config = _write_config(
        tmp_path,
        {
            "backend": "http",
            "generator": {"base_url": server.url, "retries": 0},
            "reward": {"base_url": server.url, "retries": 0},
        },
    )
    assert main(["solve", "q", "--config", str(config)]) == EXIT_EXHAUSTED


def test_http_backend_without_endpoints_is_config_error(capsys):
    assert main(["solve", "q", "--backend", "http"]) == EXIT_CONFIG


def test_calibrate_http_without_a_reward_endpoint_exits_2(tmp_path, capsys, stub_server):
    server = stub_server([(200, {"score": 1.0})])
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"question": "q", "response": "<SUMMARY>s</SUMMARY>"}) + "\n")
    config = _write_config(tmp_path, {"backend": "http", "generator": {"base_url": server.url}})
    assert main(["calibrate", "--corpus", str(corpus), "--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: http backend requires a reward endpoint config\n"
    assert server.requests == []


# ---------------------------------------------------------------------------
# bench / scale
# ---------------------------------------------------------------------------


def test_bench_summary(tmp_path, capsys):
    items = _write_items(tmp_path, 4)
    code = main(
        ["bench", "--items", str(items), "--out", str(tmp_path / "out"), "--seed", "3"]
    )
    assert code == EXIT_OK
    summary, _ = _last_json_line(capsys)
    assert summary["command"] == "bench"
    assert summary["items"] == 4
    assert summary["accuracy"] == 1.0  # default sim world always correct


def test_bench_save_traces_without_out_exits_2(tmp_path, capsys, monkeypatch):
    items = _write_items(tmp_path, 2)
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--items", str(items), "--save-traces"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "config error: --save-traces needs --out\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["items.jsonl"]


def test_bench_save_traces_of_ids_too_long_for_a_file_name(tmp_path, capsys):
    # 1 + 279 two-byte characters: the cut lands inside a character.
    shared = "x" + "\u00e9" * 279
    items = tmp_path / "items.jsonl"
    items.write_text("".join(json.dumps({"id": shared + c * 20, "question": "q"}) + "\n" for c in "ab"))
    out = tmp_path / "out"
    assert main(["bench", "--items", str(items), "--out", str(out), "--save-traces"]) == EXIT_OK
    files = sorted(out.glob("trace-*.jsonl"))
    assert len(files) == 2
    for path in files:
        assert len(path.name.encode("utf-8")) <= 255
        header, events = SearchTrace.read(path)
        assert header["strategy"] == "swires" and events


def _write_categorized_items(tmp_path):
    # Item c has no category, so only an empty name could select it.
    items = tmp_path / "items.jsonl"
    rows = [{"id": "a", "question": "q", "category": "math"}, {"id": "b", "question": "q", "category": "Science"},
            {"id": "c", "question": "q"}]
    items.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return items


@pytest.mark.parametrize(
    "names, selected",
    [("math", "a"), (" MATH ", "a"), ("math, science", "ab"), ("science ,math", "ab"), ("None,null,math", "a")],
)
def test_bench_categories_selects_the_items_whose_category_is_a_trimmed_name_ignoring_case(
    tmp_path, capsys, names, selected
):
    out = tmp_path / "out"
    assert main(["bench", "--items", str(_write_categorized_items(tmp_path)), "--out", str(out),
                 "--categories", names]) == EXIT_OK
    with open(out / "run_records.jsonl", encoding="utf-8") as fh:
        assert "".join(json.loads(line)["item_id"] for line in fh) == selected


@pytest.mark.parametrize("names", ["math,", ",", "", "math, ,science"])
def test_bench_categories_with_an_empty_name_exits_2_before_any_call_or_output(
    tmp_path, capsys, monkeypatch, names
):
    items = _write_categorized_items(tmp_path)
    calls = []
    monkeypatch.setattr(SimWorld, "generate", lambda self, request: calls.append(request))
    out = tmp_path / "out"
    assert main(["bench", "--items", str(items), "--out", str(out), "--categories", names]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: --categories holds an empty name: {names!r}\n"
    assert captured.out == ""
    assert calls == [] and not out.exists()


def test_scale_default_grid_row_count(tmp_path, capsys):
    items = _write_items(tmp_path, 2)
    table = tmp_path / "curve.csv"
    code = main(
        ["scale", "--items", str(items), "--out", str(table), "--seed", "1",
         "--zero-wall-time"]
    )
    assert code == EXIT_OK
    summary, _ = _last_json_line(capsys)
    assert summary["rows"] == 11
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "strategy,param,calls,reward_calls,wall_time_s,accuracy"
    assert len(lines) == 12


def test_scale_reruns_identical_bytes(tmp_path, capsys):
    items = _write_items(tmp_path, 2)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["scale", "--items", str(items), "--out", str(a), "--seed", "9", "--zero-wall-time"])
    main(["scale", "--items", str(items), "--out", str(b), "--seed", "9", "--zero-wall-time"])
    assert a.read_bytes() == b.read_bytes()


def test_scale_min_pass_above_a_cells_width_runs_every_cell(tmp_path, capsys):
    # min_pass_count binds SWIRES alone, so the width-1 cells run as well.
    items = _write_items(tmp_path, 3)
    table, logs = tmp_path / "curve.csv", tmp_path / "logs"
    code = main(
        ["scale", "--items", str(items), "--out", str(table), "--log-dir", str(logs),
         "--min-pass", "2", "--seed", "1", "--zero-wall-time"]
    )
    assert code == EXIT_OK
    rows = table.read_text().strip().splitlines()[1:]
    assert len(rows) == 11
    assert all(int(row.split(",")[2]) > 0 for row in rows)
    records = [json.loads(line) for line in (logs / "run_records.jsonl").read_text().splitlines()]
    assert len(records) == 33
    assert all(r["error"] is None and r["generator_calls"] > 0 for r in records)


def test_scale_grid_cell_with_a_bad_config_exits_2_before_any_file(tmp_path, capsys):
    # Base beam is valid at --min-pass 5; the grid's SWIRES cells (width 2) are not.
    items = _write_items(tmp_path, 2)
    table, logs = tmp_path / "curve.csv", tmp_path / "logs"
    config = _write_config(tmp_path, {"search": {"strategy": "beam"}})
    code = main(
        ["scale", "--items", str(items), "--out", str(table), "--log-dir", str(logs),
         "--config", str(config), "--min-pass", "5"]
    )
    assert code == EXIT_CONFIG
    assert "min_pass_count must be in [1, beam_width]" in capsys.readouterr().err
    assert not table.exists() and not logs.exists()


@pytest.mark.parametrize(
    "flags",
    [["--strategy", "best_of_n"], ["--retraces", "7"], ["--loop-semantics", "algorithm_one"]],
    ids=["strategy", "retraces", "loop-semantics"],
)
def test_scale_flag_for_a_setting_the_grid_fixes_is_a_usage_error(tmp_path, capsys, monkeypatch, flags):
    # default_grid sets each cell's strategy, retrace budget and loop semantics,
    # so these flags left the curve byte-identical.
    monkeypatch.chdir(tmp_path)
    items = _write_items(tmp_path, 2)
    calls = []
    monkeypatch.setattr(SimWorld, "generate", lambda self, request: calls.append(request))
    monkeypatch.setattr(SimWorld, "score", lambda self, request: calls.append(request))
    with pytest.raises(SystemExit) as exit_:
        main(["scale", "--items", str(items), "--out", "curve.csv", "--log-dir", "logs", *flags])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {' '.join(flags)}" in err
    assert "Traceback" not in err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["items.jsonl"]


# ---------------------------------------------------------------------------
# calibrate / datagen / simcheck
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "endpoints", [("generator", "reward"), ("reward",)], ids=["both-endpoints", "reward-only"]
)
def test_calibrate_fixture_corpus(tmp_path, capsys, stub_server, endpoints):
    server = stub_server([(200, {"score": 1.0}), (200, {"score": 2.0}), (200, {"score": 3.0})])
    corpus = tmp_path / "corpus.jsonl"
    rows = [
        {"question": f"q{k}", "response": "<SUMMARY>s</SUMMARY><CAPTION>c</CAPTION><REASONING>r</REASONING>"}
        for k in range(3)
    ]
    corpus.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    config = _write_config(
        tmp_path, {"backend": "http", **{side: {"base_url": server.url} for side in endpoints}}
    )
    stats_out = tmp_path / "stats.json"
    code = main(
        ["calibrate", "--corpus", str(corpus), "--config", str(config), "--out", str(stats_out)]
    )
    assert code == EXIT_OK
    summary, _ = _last_json_line(capsys)
    assert summary["reward_mean"] == pytest.approx(2.0)
    assert summary["reward_std"] == pytest.approx(1.0)
    assert summary["sample_count"] == 3
    saved = json.loads(stats_out.read_text())
    assert saved["reward_mean"] == pytest.approx(2.0)


def test_calibrate_http_scores_whose_fit_overflows_exit_3(tmp_path, capsys, stub_server):
    # Each score fits a float; their sum does not.
    server = stub_server([(200, {"score": 1.7e308})])
    corpus = tmp_path / "corpus.jsonl"
    rows = [{"question": f"q{k}", "response": "<SUMMARY>s</SUMMARY>"} for k in range(3)]
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
    config = _write_config(tmp_path, {"backend": "http", "reward": {"base_url": server.url}})
    stats_out = tmp_path / "stats.json"
    code = main(["calibrate", "--corpus", str(corpus), "--config", str(config), "--out", str(stats_out)])
    assert code == EXIT_BACKEND
    captured = capsys.readouterr()
    assert captured.err == (
        "backend failure: reward scores overflow a float in their mean or std: intermediate overflow in fsum\n"
    )
    assert captured.out == ""
    assert len(server.requests) == 3
    assert not stats_out.exists()


def test_datagen_http_with_dedicated_judge(tmp_path, capsys, stub_server):
    staged = ("<SUMMARY>s</SUMMARY><CAPTION>c</CAPTION>"
              "<REASONING>r</REASONING><CONCLUSION>B</CONCLUSION>")
    gen_server = stub_server([(200, {"choices": [{"message": {"content": staged}}]})])
    judge_server = stub_server([(200, {"choices": [{"message": {"content": "valid"}}]})])
    config = _write_config(
        tmp_path,
        {
            "backend": "http",
            "generator": {"base_url": gen_server.url},
            "judge": {"base_url": judge_server.url},
        },
    )
    sources = tmp_path / "sources.jsonl"
    sources.write_text(json.dumps({"id": "s1", "question": "q", "gold_answer": "B"}) + "\n")
    out = tmp_path / "generated.jsonl"
    code = main(["datagen", "--sources", str(sources), "--out", str(out),
                 "--config", str(config)])
    assert code == EXIT_OK
    summary, _ = _last_json_line(capsys)
    assert summary["valid"] == 1
    assert len(gen_server.requests) == 1
    assert len(judge_server.requests) == 1
    judge_body = judge_server.requests[0]["body"]
    assert "Standard answer: B" in judge_body["messages"][0]["content"]


def test_datagen_on_sim(tmp_path, capsys):
    sources = tmp_path / "sources.jsonl"
    rows = [{"id": f"s{k}", "question": f"q{k}", "gold_answer": "B"} for k in range(3)]
    sources.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = tmp_path / "generated.jsonl"
    code = main(["datagen", "--sources", str(sources), "--out", str(out)])
    assert code == EXIT_OK
    summary, _ = _last_json_line(capsys)
    assert summary["command"] == "datagen"
    assert summary["valid"] == 3
    # Rerun resumes: everything skipped.
    code = main(["datagen", "--sources", str(sources), "--out", str(out)])
    assert code == EXIT_OK
    summary, _ = _last_json_line(capsys)
    assert summary["skipped"] == 3
    assert summary["valid"] == 0


_NON_SEARCH_ARGV = {
    "calibrate": ["calibrate", "--corpus", "CORPUS"],
    "datagen": ["datagen", "--sources", "SOURCES", "--out", "generated.jsonl"],
    "simcheck": ["simcheck", "--trials", "300"],
}


def _non_search_inputs(tmp_path):
    marked = f"<SUMMARY>s {CORRECT_MARK}</SUMMARY><CAPTION>c {CORRECT_MARK}</CAPTION>"
    (tmp_path / "CORPUS").write_text(json.dumps({"question": "q", "response": marked}) + "\n")
    (tmp_path / "SOURCES").write_text(json.dumps({"id": "s", "question": "q", "gold_answer": "B"}) + "\n")


@pytest.mark.parametrize(
    "command, flags",
    [
        ("calibrate", ["--m", "3"]),
        ("datagen", ["--m", "3"]),
        ("simcheck", ["--m", "3"]),
        ("calibrate", ["--seed", "1"]),
        ("datagen", ["--seed", "1"]),
        ("calibrate", ["--parallelism", "2"]),
        ("datagen", ["--parallelism", "2"]),
        ("simcheck", ["--parallelism", "2"]),
        ("simcheck", ["--backend", "sim"]),
        ("datagen", ["--strategy", "beam"]),
    ],
)
def test_flag_a_command_does_not_read_is_a_usage_error(tmp_path, capsys, monkeypatch, command, flags):
    monkeypatch.chdir(tmp_path)
    _non_search_inputs(tmp_path)
    calls = []
    monkeypatch.setattr(SimWorld, "generate", lambda self, request: calls.append(request))
    monkeypatch.setattr(SimWorld, "score", lambda self, request: calls.append(request))
    with pytest.raises(SystemExit) as exit_:
        main([*_NON_SEARCH_ARGV[command], *flags])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {' '.join(flags)}" in err
    assert "Traceback" not in err
    assert calls == []
    assert not (tmp_path / "generated.jsonl").exists()


@pytest.mark.parametrize("command", sorted(_NON_SEARCH_ARGV))
def test_command_that_never_searches_ignores_an_invalid_search_section(tmp_path, capsys, monkeypatch, command):
    # beam_width 2 does not divide 3, and parallelism caps a search's calls: only a search checks either.
    monkeypatch.chdir(tmp_path)
    _non_search_inputs(tmp_path)
    argv = _NON_SEARCH_ARGV[command]
    expected = main(argv)
    assert expected != EXIT_CONFIG
    expected_out = capsys.readouterr().out
    for data in ({"search": {"candidates_per_stage": 3}}, {"parallelism": 0}):
        (tmp_path / "generated.jsonl").unlink(missing_ok=True)
        config = _write_config(tmp_path, data)
        assert main([*argv, "--config", str(config)]) == expected
        captured = capsys.readouterr()
        assert captured.out == expected_out
        assert captured.err == ""


@pytest.mark.parametrize(
    "argv, output",
    [
        (["solve", "q", "--trace", "trace.jsonl"], "trace.jsonl"),
        (["bench", "--items", "ITEMS", "--out", "runs"], "runs"),
        (["scale", "--items", "ITEMS", "--out", "curve.csv", "--log-dir", "logs"], "curve.csv"),
    ],
    ids=["solve", "bench", "scale"],
)
def test_searching_command_still_checks_the_search_section_first(
    tmp_path, capsys, monkeypatch, argv, output
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ITEMS").write_text(json.dumps({"id": "a", "question": "q"}) + "\n")
    config = _write_config(tmp_path, {"search": {"candidates_per_stage": 3}})
    before = sorted(p.name for p in tmp_path.iterdir())
    calls = []
    monkeypatch.setattr(SimWorld, "generate", lambda self, request: calls.append(request))
    monkeypatch.setattr(SimWorld, "score", lambda self, request: calls.append(request))
    assert main([*argv, "--config", str(config)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: beam_width must divide candidates_per_stage\n"
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "q", "--trace", "trace.jsonl"],
        ["bench", "--items", "ITEMS", "--out", "runs", "--save-traces"],
        ["scale", "--items", "ITEMS", "--out", "curve.csv", "--log-dir", "logs"],
    ],
    ids=["solve", "bench", "scale"],
)
def test_searching_command_refuses_parallelism_0_before_any_call_or_output(tmp_path, capsys, monkeypatch, argv):
    # The engine refuses it for solve; run_benchmark for bench and scale's first cell, before out_dir is made.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ITEMS").write_text(json.dumps({"id": "a", "question": "q"}) + "\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    calls = []
    monkeypatch.setattr(SimWorld, "generate", lambda self, request: calls.append(request))
    assert main([*argv, "--parallelism", "0"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: parallelism must be >= 1\n"
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["calibrate", "--corpus", "CORPUS", "--out", "gone/stats.json"],
        ["scale", "--items", "ITEMS", "--out", "gone/curve.csv"],
        ["solve", "q", "--trace", "gone/trace.jsonl"],
    ],
    ids=["calibrate", "scale", "solve"],
)
def test_output_written_after_the_calls_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch, argv):
    # Its directory goes while the calls run: the write raised FileNotFoundError, a traceback with exit 1.
    monkeypatch.chdir(tmp_path)
    _non_search_inputs(tmp_path)
    (tmp_path / "ITEMS").write_text(json.dumps({"id": "a", "question": "q"}) + "\n")
    (tmp_path / "gone").mkdir()
    score = SimWorld.score

    def score_after_removing_the_directory(self, request):
        shutil.rmtree(tmp_path / "gone", ignore_errors=True)
        return score(self, request)

    monkeypatch.setattr(SimWorld, "score", score_after_removing_the_directory)
    assert main(argv) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert err.startswith(f"config error: cannot write {argv[-1]}: [Errno {errno.ENOENT}] ")
    assert out == ""  # no answer or summary beside the config error


_GOOD_RESPONSE = "<SUMMARY>s</SUMMARY><CAPTION>c</CAPTION><REASONING>r</REASONING>"


@pytest.mark.parametrize(
    "command, flag, lines, where",
    [
        ("bench", "--items", None, "in.jsonl"),
        ("bench", "--items", ['{"id": "a", "question": "q"}', "{not json"], "in.jsonl:2"),
        ("scale", "--items", ['{"question": "q"}'], "in.jsonl:1"),
        ("calibrate", "--corpus", [json.dumps({"response": _GOOD_RESPONSE})], "in.jsonl:1"),
        ("calibrate", "--corpus", ["", "{not json"], "in.jsonl:2"),
        ("datagen", "--sources", ['{"id": "s", "question": "q"}'], "in.jsonl:1"),
        ("datagen", "--sources", None, "in.jsonl"),
        ("bench", "--items", ['{"id": "a", "question": 5}'], "in.jsonl:1"),
        ("datagen", "--sources", ['{"id": "s", "question": ["x"], "gold_answer": "B"}'], "in.jsonl:1"),
        (
            "datagen",
            "--sources",
            ['{"id": "s", "question": "q", "gold_answer": "B", '
             '"turns": [{"question": 3, "gold_answer": "C"}]}'],
            "in.jsonl:1",
        ),
        ("calibrate", "--corpus", [json.dumps({"question": 7, "response": _GOOD_RESPONSE})], "in.jsonl:1"),
        ("bench", "--items", ['{"id": "a", "question": "q", "category": 5}'], "in.jsonl:1"),
        ("bench", "--items", ['{"id": "a", "question": "q", "image_ref": 7}'], "in.jsonl:1"),
        ("datagen", "--sources", ['{"id": "s", "question": "q", "gold_answer": "B", "image_ref": 5}'], "in.jsonl:1"),
        ("bench", "--items", ['{"id": null, "question": "q"}'], "in.jsonl:1"),
        ("bench", "--items", ['{"id": true, "question": "q"}'], "in.jsonl:1"),
        ("bench", "--items", ['{"id": 5.0, "question": "q"}'], "in.jsonl:1"),
        ("bench", "--items", ['{"id": ["a"], "question": "q"}'], "in.jsonl:1"),
        ("bench", "--items", ['{"id": {"a": 1}, "question": "q"}'], "in.jsonl:1"),
        ("bench", "--items", ['{"id": 5, "question": "q1"}', '{"id": "5", "question": "q2"}'], "in.jsonl:2"),
        ("bench", "--items", ['{"id": "a", "question": "q1"}', '{"id": "a", "question": "q2"}'], "in.jsonl:2"),
        ("bench", "--items", [r'{"id": "a", "question": "q \ud800"}'], "in.jsonl:1"),
        ("datagen", "--sources", [r'{"id": "s", "question": "\ud800", "gold_answer": "B"}'], "in.jsonl:1"),
        ("calibrate", "--corpus", [json.dumps({"question": "q \ud800", "response": _GOOD_RESPONSE})], "in.jsonl:1"),
        ("datagen", "--sources", ['{"id": null, "question": "q", "gold_answer": "B"}'], "in.jsonl:1"),
        (
            "datagen",
            "--sources",
            ['{"id": "None", "question": "q1", "gold_answer": "B"}', '{"id": "None", "question": "q2", "gold_answer": "B"}'],
            "in.jsonl:2",
        ),
        (
            "datagen",
            "--sources",
            ['{"id": 5, "question": "q1", "gold_answer": "B"}', '{"id": "5", "question": "q2", "gold_answer": "B"}'],
            "in.jsonl:2",
        ),
        (
            "datagen",
            "--sources",
            ['{"id": "s", "question": "q1", "gold_answer": "B", "turns": [{"question": "t", "gold_answer": "C"}]}',
             '{"id": "s#turn1", "question": "q2", "gold_answer": "B"}'],
            "in.jsonl:2",
        ),
        ("datagen", "--sources", ['{"id": "s", "question": "q", "gold_answer": null}'], "in.jsonl:1"),
        (
            "datagen",
            "--sources",
            ['{"id": "s", "question": "q", "gold_answer": "B", "turns": [{"question": "t", "gold_answer": null}]}'],
            "in.jsonl:1",
        ),
        ("bench", "--items", ['{"id": "a", "question": "q", "gold": null}'], "in.jsonl:1"),
        ("bench", "--items", ['{"id": "a", "question": "q", "gold": 5}'], "in.jsonl:1"),
        ("datagen", "--sources", ['{"id": "", "question": "q", "gold_answer": "B"}'], "in.jsonl:1"),
        ("datagen", "--sources", ['{"id": "s", "question": "", "gold_answer": "B"}'], "in.jsonl:1"),
        *(
            ("bench", "--items", [json.dumps({"id": "a", "question": "q", "kind": "multiple_choice",
                                              "options": options, "gold": "A"})], "in.jsonl:1")
            for options in (["AB", "CD"], {"A": "x", "a": "y"}, {"A": 5, "B": "y"}, "AB", None)
        ),
        *(
            ("calibrate", "--corpus", [json.dumps({"question": "q", "response": response})], "in.jsonl:1")
            for response in ("", "   ", 5, None)
        ),
        # Nested past the recursion limit: json.loads raised RecursionError, a traceback with exit 1.
        ("bench", "--items", ['{"id": "a", "question": "q"}', '{"id": "b", "question": "q", "options": '
                              + "[" * 100_000 + "]" * 100_000 + "}"], "in.jsonl:2"),
        ("calibrate", "--corpus", ['{"question": "q", "response": ' + "[" * 100_000 + "]" * 100_000 + "}"],
         "in.jsonl:1"),
        ("datagen", "--sources", ['{"id": "s", "question": "q", "gold_answer": "B", "turns": '
                                  + '{"t": ' * 100_000 + "1" + "}" * 100_000 + "}"], "in.jsonl:1"),
        # A key named twice: json.loads kept the last, so the item ran "q2" and bench exited 0.
        ("bench", "--items", ['{"id": "a", "question": "q1", "question": "q2"}'], "in.jsonl:1"),
        ("calibrate", "--corpus", [json.dumps({"question": "q", "response": _GOOD_RESPONSE})[:-1]
                                   + ', "question": "q2"}'], "in.jsonl:1"),
        ("datagen", "--sources", ['{"id": "s", "question": "q", "gold_answer": "B", '
                                  '"turns": [{"question": "t", "gold_answer": "C", "gold_answer": "D"}]}'],
         "in.jsonl:1"),
    ],
)
def test_bad_input_file_exits_2_naming_file_and_line(
    tmp_path, capsys, command, flag, lines, where
):
    path = tmp_path / "in.jsonl"
    if lines is not None:
        path.write_text("\n".join(lines) + "\n")
    argv = [command, flag, str(path)]
    if command in ("scale", "datagen"):
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"{tmp_path / where}" in err


@pytest.mark.parametrize(
    "command, flag, good",
    [
        ("bench", "--items", '{"id": "a", "question": "q"}'),
        ("datagen", "--sources", '{"id": "s", "question": "q", "gold_answer": "B"}'),
        ("calibrate", "--corpus", json.dumps({"question": "q", "response": _GOOD_RESPONSE})),
    ],
)
def test_undecodable_input_line_exits_2_naming_file_and_line(tmp_path, capsys, command, flag, good):
    path = tmp_path / "in.jsonl"
    # Line 1 is good UTF-8 text and ends in \r\n, line 2 is blank and ends in
    # \r, and line 3 holds the byte 0xff, which is not UTF-8.
    first = good.replace('"q"', '"q é"').encode("utf-8")
    bad = good.replace('"q"', '"q \xff"').encode("latin-1")
    path.write_bytes(first + b"\r\n\r" + bad + b"\n")
    argv = [command, flag, str(path)]
    if command == "datagen":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}:3: bad "), err
    assert "can't decode byte 0xff" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--items", "EMPTY"],
        ["bench", "--items", "ONE", "--categories", "nope"],
        ["scale", "--items", "EMPTY", "--out", "c.csv"],
        ["calibrate", "--corpus", "EMPTY"],
        ["simcheck", "--trials", "0"],
        ["simcheck", "--trials", "-3"],
    ],
    ids=["bench-empty", "bench-no-category", "scale-empty", "calibrate-empty",
         "trials-0", "trials-negative"],
)
def test_nothing_to_run_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "EMPTY").write_text("\n")
    (tmp_path / "ONE").write_text(json.dumps({"id": "a", "question": "q"}) + "\n")
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("bad_line", ['{"id":"s0"', '{"question": "q"}'])
def test_datagen_resume_into_corrupt_middle_line_exits_2(tmp_path, capsys, bad_line):
    sources = tmp_path / "sources.jsonl"
    sources.write_text(json.dumps({"id": "s0", "question": "q", "gold_answer": "B"}) + "\n")
    out = tmp_path / "generated.jsonl"
    before = bad_line + "\n" + json.dumps({"id": "s1"}) + "\n"
    out.write_text(before)
    assert main(["datagen", "--sources", str(sources), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {out}:1: bad output record")
    assert out.read_text() == before


def _datagen_files(tmp_path, out_lines):
    sources = tmp_path / "sources.jsonl"
    rows = [{"id": f"s{k}", "question": f"q{k}", "gold_answer": "B"} for k in range(3)]
    sources.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    out = tmp_path / "generated.jsonl"
    out.write_text("".join(line + "\n" for line in out_lines))
    return sources, out


def test_datagen_reads_the_output_file_once(tmp_path, capsys, monkeypatch):
    import builtins

    sources, out = _datagen_files(tmp_path, [json.dumps({"id": "s0"})])
    reads = []
    real_open = builtins.open

    def counting_open(file, mode="r", *args, **kwargs):
        if os.fspath(file) == os.fspath(out) and "r" in mode and "+" not in mode:
            reads.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["datagen", "--sources", str(sources), "--out", str(out)]) == EXIT_OK
    assert len(reads) == 1
    summary, _ = _last_json_line(capsys)
    assert (summary["skipped"], summary["valid"]) == (1, 2)


def test_datagen_corrupt_line_between_records_exits_2_naming_it(tmp_path, capsys):
    before = [json.dumps({"id": "s0"}), '{"id": "s1"', json.dumps({"id": "s2"})]
    sources, out = _datagen_files(tmp_path, before)
    assert main(["datagen", "--sources", str(sources), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {out}:2: bad output record")
    assert out.read_text() == "".join(line + "\n" for line in before)


def test_datagen_output_path_that_cannot_be_read_exits_2(tmp_path, capsys):
    sources, _ = _datagen_files(tmp_path, [])
    out = tmp_path / "a-directory"
    out.mkdir()
    assert main(["datagen", "--sources", str(sources), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: cannot write {out}: [Errno ")


def test_datagen_corrupt_line_before_a_cut_short_tail_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(SimWorld, "generate", lambda self, request: calls.append(request))
    sources, out = _datagen_files(tmp_path, [])
    complete = json.dumps({"id": "s0"}) + "\n" + '{"id": "s1"' + "\n"
    out.write_text(complete + '{"id": "s2", "quest')
    assert main(["datagen", "--sources", str(sources), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {out}:2: bad output record")
    assert calls == []
    # The cut comes first: the unterminated tail is gone, the complete lines stay.
    assert out.read_text() == complete


def test_datagen_other_value_error_in_the_pipeline_is_not_an_input_error(tmp_path, monkeypatch):
    from stagewise import datagen

    def broken(record, generator, judge):
        raise ValueError("not about the output file")

    monkeypatch.setattr(datagen, "_process_one", broken)
    sources, out = _datagen_files(tmp_path, [json.dumps({"id": "s0"})])
    with pytest.raises(ValueError, match="not about the output file") as err:
        main(["datagen", "--sources", str(sources), "--out", str(out)])
    assert not isinstance(err.value, ConfigError)


@pytest.mark.parametrize(
    "argv, path",
    [
        (["bench", "--items", "ITEMS", "--out", "FILE"], "FILE"),
        (["bench", "--items", "ITEMS", "--out", "FILE/sub", "--save-traces"], "FILE/sub"),
        (["solve", "q", "--trace", "missing/trace.jsonl"], "missing/trace.jsonl"),
        (["scale", "--items", "ITEMS", "--out", "missing/curve.csv"], "missing/curve.csv"),
        (["scale", "--items", "ITEMS", "--out", "curve.csv", "--log-dir", "FILE/logs"], "FILE/logs"),
        (["calibrate", "--corpus", "CORPUS", "--out", "missing/stats.json"], "missing/stats.json"),
        (["datagen", "--sources", "SOURCES", "--out", "missing/generated.jsonl"], "missing/generated.jsonl"),
    ],
    ids=["bench-out-is-a-file", "bench-out-under-a-file", "solve-trace", "scale-out", "scale-log-dir",
         "calibrate-out", "datagen-out"],
)
def test_output_path_that_cannot_be_written_exits_2_before_any_call(tmp_path, capsys, monkeypatch, argv, path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "FILE").write_text("not a directory\n")
    (tmp_path / "ITEMS").write_text(json.dumps({"id": "a", "question": "q"}) + "\n")
    (tmp_path / "CORPUS").write_text(json.dumps({"question": "q", "response": "<SUMMARY>s</SUMMARY>"}) + "\n")
    (tmp_path / "SOURCES").write_text(json.dumps({"id": "s", "question": "q", "gold_answer": "B"}) + "\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    calls = []
    monkeypatch.setattr(SimWorld, "generate", lambda self, request: calls.append(request))
    monkeypatch.setattr(SimWorld, "score", lambda self, request: calls.append(request))
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {path}: [Errno ")
    assert "Traceback" not in err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["scale", "--items", "BAD", "--out", "missing/curve.csv"],
        ["calibrate", "--corpus", "BAD", "--out", "missing/stats.json"],
        ["datagen", "--sources", "BAD", "--out", "missing/generated.jsonl"],
    ],
    ids=["scale", "calibrate", "datagen"],
)
def test_output_is_checked_before_the_input_is_read(tmp_path, capsys, monkeypatch, argv):
    # Both are bad: the output's error comes first, since each command checks its outputs first.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BAD").write_text("{not json\n")
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: cannot write {argv[-1]}: [Errno {errno.ENOENT}] ")


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["datagen", "--config", "c.json", "--sources", "s.jsonl", "--out", "c.json"], ("--out", "--config")),
        (["datagen", "--sources", "s.jsonl", "--out", "s.jsonl"], ("--out", "--sources")),
        (["scale", "--items", "i.jsonl", "--out", "i.jsonl"], ("--out", "--items")),
        (["calibrate", "--corpus", "k.jsonl", "--out", "k.jsonl"], ("--out", "--corpus")),
        (["solve", "q", "--config", "c.json", "--trace", "c.json"], ("--trace", "--config")),
    ],
    ids=["datagen-out-is-config", "datagen-out-is-sources", "scale-out-is-items", "calibrate-out-is-corpus",
         "solve-trace-is-config"],
)
def test_output_path_that_is_an_input_file_exits_2_leaving_it_unchanged(tmp_path, capsys, monkeypatch, argv, flags):
    # json.dump leaves the config, and a killed run may leave the sources, without a
    # final newline: open_append would cut that line before appending to the file.
    monkeypatch.chdir(tmp_path)
    with open("c.json", "w", encoding="utf-8") as fh:
        json.dump({"backend": "sim"}, fh)
    Path("s.jsonl").write_text(json.dumps({"id": "s", "question": "q", "gold_answer": "B"}))
    Path("i.jsonl").write_text(json.dumps({"id": "a", "question": "q"}) + "\n")
    Path("k.jsonl").write_text("".join(
        json.dumps({"question": "q", "response": f"<SUMMARY>s {mark}</SUMMARY>"}) + "\n"
        for mark in (CORRECT_MARK, INCORRECT_MARK)
    ))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    calls = []
    for name in ("generate", "score"):
        call = getattr(SimWorld, name)
        monkeypatch.setattr(SimWorld, name, lambda self, request, call=call: calls.append(request) or call(self, request))
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == f"config error: {flags[0]} and {flags[1]} name the same file: {argv[-1]}\n"
    assert captured.out == ""
    assert calls == []
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_bench_trace_that_cannot_be_written_mid_run_exits_2_keeping_earlier_records(tmp_path, capsys):
    # A directory where item b's trace goes: its calls are made, its trace cannot be written.
    items = tmp_path / "items.jsonl"
    items.write_text("".join(json.dumps({"id": i, "question": "q"}) + "\n" for i in "ab"))
    out = tmp_path / "out"
    (out / "trace-b.jsonl").mkdir(parents=True)
    assert main(["bench", "--items", str(items), "--out", str(out), "--save-traces"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / 'trace-b.jsonl'}: [Errno ")
    assert "Traceback" not in err
    # Item a's record stays; b gets none, since a record names only a trace that was written.
    (record,) = [json.loads(line) for line in (out / "run_records.jsonl").read_text().splitlines()]
    assert record["item_id"] == "a" and record["trace_file"] == str(out / "trace-a.jsonl")
    assert SearchTrace.read(record["trace_file"])[1]


def test_bench_record_that_cannot_be_appended_mid_run_exits_2(tmp_path, capsys, monkeypatch):
    from stagewise import harness

    appended = []

    def append_record(fh, record):
        appended.append(record["item_id"])
        if len(appended) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_append_record(fh, record)

    real_append_record = harness.append_record
    monkeypatch.setattr(harness, "append_record", append_record)
    items = _write_items(tmp_path, 3)
    out = tmp_path / "out"
    assert main(["bench", "--items", str(items), "--out", str(out)]) == EXIT_CONFIG
    records = out / "run_records.jsonl"
    assert capsys.readouterr().err == (
        f"config error: cannot write {records}: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    )
    assert appended == ["i0", "i1"]
    assert [json.loads(line)["item_id"] for line in records.read_text().splitlines()] == ["i0"]


def test_datagen_record_that_cannot_be_appended_mid_run_exits_2_and_the_next_run_resumes(
    tmp_path, capsys, monkeypatch
):
    from stagewise import datagen

    appended = []

    def append_record(fh, record):
        appended.append(record["id"])
        if len(appended) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        real_append_record(fh, record)

    real_append_record = datagen.append_record
    sources = tmp_path / "sources.jsonl"
    sources.write_text("".join(json.dumps({"id": f"s{k}", "question": f"q{k}", "gold_answer": "B"}) + "\n"
                               for k in range(3)))
    out = tmp_path / "generated.jsonl"
    argv = ["datagen", "--sources", str(sources), "--out", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(datagen, "append_record", append_record)
        assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {out}: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert "Traceback" not in err
    assert appended == ["s0", "s1"]
    assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["s0"]
    # Unpatched, the next run keeps s0 and writes the two sources that have no record.
    assert main(argv) == EXIT_OK
    summary, _ = _last_json_line(capsys)
    assert summary["skipped"] == 1 and summary["valid"] == 2
    assert [json.loads(line)["id"] for line in out.read_text().splitlines()] == ["s0", "s1", "s2"]


@pytest.mark.parametrize("existing", [True, False], ids=["existing-file", "new-file"])
def test_output_check_leaves_no_trace_of_itself_when_the_run_fails(tmp_path, capsys, existing):
    # The corpus reply carries no sim mark, so scoring it is a backend failure.
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"question": "q", "response": "<SUMMARY>s</SUMMARY>"}) + "\n")
    stats = tmp_path / "stats.json"
    if existing:
        stats.write_text("old\n")
    assert main(["calibrate", "--corpus", str(corpus), "--out", str(stats)]) == EXIT_BACKEND
    assert capsys.readouterr().err.startswith("backend failure:")
    if existing:
        assert stats.read_text() == "old\n"
    else:
        assert not stats.exists()


def test_import_leaves_out_the_modules_only_some_runs_need():
    # Each is imported where it is first needed: the helper pool of a
    # concurrent batch, a noisy sim score or calibration, an append's cut.
    env = {**os.environ, "PYTHONPATH": str(Path(stagewise.__file__).resolve().parents[1])}
    lazy = ["concurrent.futures", "statistics", "mmap", "logging"]
    code = f"import sys, stagewise; print([m for m in {lazy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


def test_negative_reward_std_flag_exits_2(capsys):
    assert main(["solve", "q", "--reward-std", "-1"]) == EXIT_CONFIG
    assert "reward_std must be >= 0" in capsys.readouterr().err


def test_simcheck_passes(capsys):
    code = main(["simcheck", "--trials", "2000", "--seed", "4"])
    assert code == EXIT_OK
    summary, out = _last_json_line(capsys)
    assert summary["all_within_3se"] is True
    assert summary["checks"] == 4
    assert sum("ok " in line for line in out) >= 4


def test_simcheck_process_prints_its_summary_once():
    # 2000 trials per check are enough to fork workers; a worker that went on
    # into the CLI, or flushed the stdio buffers it inherited, would print again.
    env = {**os.environ, "PYTHONPATH": str(Path(stagewise.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-m", "stagewise.cli", "simcheck", "--trials", "2000"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == EXIT_OK, out.stderr
    lines = out.stdout.splitlines()
    assert sum(line.startswith("{") for line in lines) == 1
    assert json.loads(lines[-1]) == {"all_within_3se": True, "checks": 4, "command": "simcheck"}
    assert len(lines) == 5
    assert out.stderr == ""


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    text = capsys.readouterr().out
    for flag in ("--strategy", "--m", "--n", "--retraces", "--z", "--reward-mean",
                 "--reward-std", "--min-pass", "--loop-semantics", "--seed",
                 "--parallelism", "--trace", "--backend", "--config"):
        assert flag in text

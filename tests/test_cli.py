import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stagewise
from stagewise.cli import (
    EXIT_BACKEND,
    EXIT_CONFIG,
    EXIT_OK,
    apply_flags,
    build_parser,
    load_config,
    main,
)
from stagewise.search import LoopSemantics, SearchTrace, Strategy


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
    ],
    ids=["string-int", "float-int", "bool-int", "string-real", "nan-real", "alias",
         "search-list", "generator-string", "parallelism-0", "parallelism-flag-0",
         "nan-flag", "sim-float-int", "sim-string-real", "sim-string-stage-map",
         "sim-bool-real", "endpoint-int-string"],
)
def test_bad_setting_exits_2(tmp_path, capsys, setting):
    if isinstance(setting, dict):
        setting = ["--config", str(_write_config(tmp_path, setting))]
    assert main(["solve", "q", *setting]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "Traceback" not in err


def test_endpoint_type_error_names_the_key(tmp_path, capsys):
    path = _write_config(tmp_path, {"generator": {"base_url": "http://x", "retries": "2"}})
    assert main(["solve", "q", "--config", str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: generator.retries must be an integer, got '2'\n"


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

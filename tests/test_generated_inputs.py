"""Generated inputs: each one gives its defined outcome, whatever its values.

Endpoint sections go through ``load_config``: each loads, and then an HTTP
client builds from it without a network call, or raises ConfigError. The
``search`` section and ``parallelism`` go through ``solve`` on the sim: each
run exits 0, 2 or 4, and exit 2 comes before any backend call or trace file.
Items, sources and corpus files go through ``bench``, ``datagen`` and
``calibrate`` on the sim: each run exits 0 or 2, and exit 2 comes before any
backend call or output. An input file that sits where ``bench`` or
``scale`` would write in its output directory, the run records or an item's
trace, exits 2 before any backend call or write. Reply bodies from a
generator and a reward endpoint go through ``bench``: each run exits 0, every
item fails only as a malformed reply or an exhausted search, and the records
count every request the endpoints saw; replies of other statuses than 200
may fail an item as a transport error too. Judge replies go through
``datagen``: each run exits 0 with one record per verdict or generated text
that does not parse, and a rerun generates again each source whose call
failed. The examples are derandomized and their counts fixed, so every run
of the suite draws the same ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import socket
import tempfile
from enum import Enum
from pathlib import Path
from unittest import mock
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import StubServer
from stagewise.backends import CORRECT_MARK, INCORRECT_MARK, HttpGenerator, SimWorld
from stagewise.cli import (
    _SEARCH_SETTINGS,
    EXIT_CONFIG,
    EXIT_EXHAUSTED,
    EXIT_OK,
    _default,
    load_config,
    main,
)
from stagewise.harness import RECORDS_FILE, trace_file_name
from stagewise.search import ConfigError

_EXAMPLES = settings(derandomize=True, max_examples=200, deadline=None, database=None)

# Values of the wrong kind or past any range, for every setting.
_JUNK = st.sampled_from([True, False, None, "", "4", "inf", [], {}, math.inf, -math.inf, math.nan, 10**400])
_NESTED = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
_SURROGATES = st.sampled_from(["\ud800", "a\udfff", "\udc80b"])


def _mostly(good, bad):
    """``good`` five times in six, else ``bad``: most examples then hold only good parts and get past the checks."""
    return st.sampled_from([good] * 5 + [bad]).flatmap(lambda strategy: strategy)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "config.json"


def _write(path, data) -> str:
    # json.dumps writes Infinity, NaN and lone surrogates, which the config reader takes in.
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Endpoint sections
# ---------------------------------------------------------------------------

# The hosts found by hand to load and then fail every call, and other refused ones.
_HAND_HOSTS = ["a b", "a;b", 'a"b', "a,b", "a%20b", "a\x7f", "a\u0000b", "[v1.x]"]
_BAD_HOSTS = st.one_of(
    st.sampled_from(_HAND_HOSTS + ["a..b", "a" * 64 + ".example", "\ud800x", "[::1", "::1", "", "[127.0.0.1]"]),
    st.text(st.characters(codec="utf-8") | st.sampled_from(".-_:[]@%/?#"), max_size=12),
    st.text(max_size=6),
)
_HOSTS = _mostly(
    st.sampled_from(["127.0.0.1", "[::1]", "[2001:db8::7]", "bücher.example", "x_y-1.example", "localhost"])
    | st.from_regex(r"[A-Za-z0-9_-]{1,10}(\.[A-Za-z0-9_-]{1,10}){0,2}", fullmatch=True),
    _BAD_HOSTS,
)
_USERINFO = _mostly(st.just(""), st.sampled_from(["user:pw@", "user@", ":pw@", "@"]))
_PORTS = _mostly(st.just("") | st.integers(1, 65535).map(lambda port: f":{port}"),
                 st.sampled_from([":0", ":", ":x", ":65536", ":-1", ":99999999"]))
_PATHS = _mostly(st.sampled_from(["", "/", "/v1", "/v1?a=1&b=%20"]) | st.from_regex(r"(/[!-~]{0,6}){0,2}", fullmatch=True),
                 st.sampled_from(["/a b", "/café", "/a\x00b", "?q=a b"]) | st.text(max_size=8))
_SECONDS = _mostly(st.floats(0.001, 100) | st.integers(0, 100),
                   st.floats(-1, 1e6, allow_nan=False) | st.integers(-2, 10**6) | _JUNK)
_RETRIES = _mostly(st.integers(0, 5), st.integers(-2, 40) | _JUNK)
# os.environ holds neither a NUL nor a lone surrogate.
_TOKENS = _mostly(
    st.just("") | st.from_regex(r"[!-~][ -~]{0,10}", fullmatch=True),
    st.sampled_from(["tok\r\nX-Injected: 1", "tök", "\t", "\x7f"])
    | st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\x00"), max_size=8),
)


@st.composite
def _endpoints(draw):
    scheme = draw(_mostly(st.sampled_from(["http", "https"]), st.sampled_from(["ftp", "", "HTTP"])))
    url = scheme + "://" + draw(_USERINFO) + draw(_HOSTS) + draw(_PORTS) + draw(_PATHS)
    section = {"base_url": url}
    for key, values in (("timeout_s", _SECONDS), ("retries", _RETRIES), ("backoff_s", _SECONDS)):
        if draw(st.booleans()):
            section[key] = draw(values)
    return section, draw(_TOKENS)


def _with_hand_examples(test):
    """``test`` run on each URL found by hand, besides the drawn ones."""
    urls = [f"http://{host}/v1" for host in _HAND_HOSTS] + ["http://user:pw@127.0.0.1/v1", "http://127.0.0.1:0/v1"]
    for url in urls:
        test = example(({"base_url": url}, ""))(test)
    return test


@_EXAMPLES
@given(_endpoints())
@_with_hand_examples
def test_endpoint_section_loads_into_a_client_or_is_a_config_error(config_path, drawn):
    section, token = drawn
    path = _write(config_path, {"backend": "http", "generator": section})
    no_network = mock.Mock(side_effect=AssertionError("a network call"))
    with mock.patch.dict(os.environ, {"STAGEWISE_API_KEY": token}), \
            mock.patch.object(socket, "create_connection", no_network), \
            mock.patch.object(socket, "getaddrinfo", no_network):
        try:
            cfg = load_config(path)
        except ConfigError:
            return
        client = HttpGenerator(cfg.generator)
        client.close()
    # A loaded config sends what it names: no user info, which the client would drop, and a
    # request head of the fixed header lines, naming a host a lookup can find and a port a
    # connection can reach.
    assert "@" not in urlsplit(cfg.generator.base_url).netloc
    head = (cfg.generator._head + "0" + cfg.generator._tail).encode("ascii").split(b"\r\n")
    names = [line.split(b":", 1)[0] for line in head[1:-2]]
    assert head[-2:] == [b"", b""]
    assert re.fullmatch(rb"Host: (\[[0-9A-Za-z:.%_-]+\]|[A-Za-z0-9._-]+)(:[1-9][0-9]*)?", head[1])
    assert names == [b"Host", b"Accept-Encoding", b"Content-Length", b"Content-Type"] + (
        [b"Authorization"] if token else []
    )
    no_network.assert_not_called()


# ---------------------------------------------------------------------------
# The search section and parallelism, through solve
# ---------------------------------------------------------------------------


def _setting_values(key):
    default = _default(key)
    if isinstance(default, Enum):
        values = [member.value for member in type(default)]
        return _mostly(st.sampled_from(values + [value.upper() for value in values]), st.just("bon") | _JUNK)
    if isinstance(default, int):  # sizes and retrace counts: small, so no example runs long
        return _mostly(st.integers(1, 8), st.integers(-2, 0) | st.floats(-2, 8) | _JUNK)
    return _mostly(st.floats(0.01, 3), st.floats(-3, 0) | _JUNK)


_SEARCH = st.fixed_dictionaries({}, optional={key: _setting_values(key) for key in _SEARCH_SETTINGS})
_PARALLELISM = _mostly(st.integers(1, 8), st.integers(-2, 0) | st.floats(-1, 4) | _JUNK)


@_EXAMPLES
@given(_SEARCH, st.none() | _PARALLELISM)
@example({}, 0)
@example({"beam_width": 2, "candidates_per_stage": 3}, 1)
def test_search_settings_through_solve_exit_0_2_or_4_and_2_before_any_call(config_path, search, parallelism):
    data = {"search": search} if parallelism is None else {"search": search, "parallelism": parallelism}
    path = _write(config_path, data)
    trace = config_path.with_name("trace.jsonl")
    trace.unlink(missing_ok=True)
    calls = []
    generate = SimWorld.generate

    def counting_generate(self, request):
        calls.append(request)
        return generate(self, request)

    err = io.StringIO()
    with mock.patch.object(SimWorld, "generate", counting_generate), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["solve", "q", "--config", path, "--trace", str(trace)])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_EXHAUSTED)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("config error: ")
        assert calls == [] and not trace.exists()


# ---------------------------------------------------------------------------
# Items, sources and corpus files, through bench, datagen and calibrate
# ---------------------------------------------------------------------------

_BAD_VALUES = _SURROGATES | _JUNK | _NESTED
_TEXTS = _mostly(st.text(max_size=8), _BAD_VALUES)
_IDS = _mostly(st.text(min_size=1, max_size=3) | st.integers(-2, 20), _BAD_VALUES)
_OPTIONAL_TEXTS = _mostly(st.none() | st.text(max_size=8), _BAD_VALUES)
# Corpus responses: stage blocks whose last one carries the sim's mark, which the sim scores, or junk.
_RESPONSES = _mostly(
    st.sampled_from([
        f"<SUMMARY>s {CORRECT_MARK}</SUMMARY>",
        f"<SUMMARY>s</SUMMARY>\n<CAPTION>c</CAPTION>\n<REASONING>r {INCORRECT_MARK}</REASONING>",
        f"<CONCLUSION>B {CORRECT_MARK}</CONCLUSION>",
    ]),
    st.text(max_size=8) | st.sampled_from(["<SUMMARY>", "</CAPTION> s", "<SUMMARY>s</CAPTION>"]) | _SURROGATES | _JUNK,
)


def _record(required, optional):
    """An object of the keys a record builder reads: mostly with every required
    key, else with any of them missing."""
    return _mostly(
        st.fixed_dictionaries(required, optional=optional),
        st.fixed_dictionaries({}, optional={**required, **optional}),
    )


_ITEM = _record(
    {"id": _IDS, "question": _TEXTS},
    {
        "kind": _mostly(st.sampled_from(["free_form", "multiple_choice"]), st.just("essay") | _JUNK),
        "options": _mostly(st.dictionaries(st.sampled_from("ABCab"), st.text(max_size=4), max_size=3),
                           st.dictionaries(st.sampled_from("AB"), _JUNK, max_size=2) | _JUNK | _NESTED),
        "gold": _mostly(st.sampled_from(["A", "b", "C", "B"]), _TEXTS),
        "image_ref": _OPTIONAL_TEXTS,
        "category": _OPTIONAL_TEXTS,
    },
)
_TURN = _record({"question": _TEXTS, "gold_answer": _TEXTS}, {})
_SOURCE = _record(
    {"id": _IDS, "question": _TEXTS, "gold_answer": _TEXTS},
    {"image_ref": _OPTIONAL_TEXTS, "turns": _mostly(st.lists(_TURN, max_size=2), _JUNK | _NESTED)},
)
_CORPUS_RECORD = _record({"question": _TEXTS, "response": _RESPONSES}, {})

# Lines no record builder takes: blank, not an object, not JSON, not UTF-8, a repeated key.
_BAD_LINES = st.sampled_from(
    [b"", b"  \t", b"[1]", b'"x"', b"5", b"null", b"{", b"{}}", b"\xff\xfe", b"\xed\xa0\x80", b'{"id": 1, "id": 2}']
)


def _lines(record):
    # ensure_ascii=False writes a lone surrogate as raw bytes, which are not UTF-8.
    encoded = st.tuples(record, st.booleans()).map(
        lambda drawn: json.dumps(drawn[0], ensure_ascii=drawn[1]).encode("utf-8", "surrogatepass")
    )
    return st.lists(_mostly(encoded, _BAD_LINES), max_size=3)


_INPUT_FILES = {
    "bench": ("--items", _lines(_ITEM), "out"),
    "datagen": ("--sources", _lines(_SOURCE), "generated.jsonl"),
    "calibrate": ("--corpus", _lines(_CORPUS_RECORD), "stats.json"),
}


@_EXAMPLES
@given(st.sampled_from(sorted(_INPUT_FILES)), st.data())
def test_input_file_exits_0_or_2_and_2_before_any_call_or_output(command, data):
    flag, lines, out_name = _INPUT_FILES[command]
    body = data.draw(lines)
    end = data.draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    calls = []
    generate, score = SimWorld.generate, SimWorld.score

    def counting_generate(self, request):
        calls.append(request)
        return generate(self, request)

    def counting_score(self, request):
        calls.append(request)
        return score(self, request)

    err = io.StringIO()
    with tempfile.TemporaryDirectory() as scratch, \
            mock.patch.object(SimWorld, "generate", counting_generate), \
            mock.patch.object(SimWorld, "score", counting_score), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        source = os.path.join(scratch, "input.jsonl")
        with open(source, "wb") as fh:
            fh.write(b"".join(line + end for line in body))
        out = os.path.join(scratch, out_name)
        code = main([command, flag, source, "--out", out])
        written = os.path.lexists(out)
    assert code in (EXIT_OK, EXIT_CONFIG), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("config error: ")
        assert calls == [] and not written


# ---------------------------------------------------------------------------
# Output directories that hold an input file
# ---------------------------------------------------------------------------

# Ids that a trace file name escapes ("/", "%") or cuts to 255 bytes, among drawn ones.
_DIR_IDS = st.lists(
    st.text(st.characters(codec="utf-8"), min_size=1, max_size=4)
    | st.sampled_from(["a/b", "/", "50%", "%2F", "..", "x" * 300, "é" * 200]),
    min_size=1, max_size=4, unique=True,
)
# Command -> its argv, the flag naming the directory it writes, and the flags naming files it reads.
_DIR_COMMANDS = {
    "bench": (["bench"], "--out", ("--items", "--config")),
    "bench --save-traces": (["bench", "--save-traces"], "--out", ("--items", "--config")),
    "scale": (["scale"], "--log-dir", ("--items", "--config", "--out")),
}


@st.composite
def _collisions(draw):
    """A command, its item ids, the input flag whose file sits where the run
    writes in its directory, that file (None for the records, else the index of
    the item whose trace it is), and how the flag names it."""
    command = draw(st.sampled_from(sorted(_DIR_COMMANDS)))
    ids = draw(_DIR_IDS)
    flag = draw(st.sampled_from(_DIR_COMMANDS[command][2]))
    at = draw(st.none() | st.integers(0, len(ids) - 1)) if command == "bench --save-traces" else None
    # The table is an output too: it collides when it is not made yet.
    vias = ["path", "symlink", "hard link"] + (["absent path", "absent symlink"] if flag == "--out" else [])
    return command, ids, flag, at, draw(st.sampled_from(vias))


def _dir_argv(scratch, command, ids, flag, name, via="path", category=None, spelling="runs") -> list:
    """Write the items, a config and an old table under ``scratch``, with the
    file of ``flag`` at ``runs/name`` and named by ``via`` (an "absent" table
    is not written): ``command``'s argv."""
    argv, dir_flag, _ = _DIR_COMMANDS[command]
    runs = os.path.join(scratch, "runs")
    os.mkdir(runs)
    items = [json.dumps({"id": item_id, "question": "q", "category": f"c{k % 2}"}) for k, item_id in enumerate(ids)]
    contents = {  # none ends in a line end, which open_append would cut
        "--items": "\n".join(items).encode("utf-8"),
        "--config": json.dumps({"backend": "sim"}).encode("utf-8"),
        "--out": b"strategy,param",
    }
    paths = {key: os.path.join(scratch, key[2:]) for key in contents}
    for key in ("--items", "--config"):
        with open(paths[key], "wb") as fh:
            fh.write(contents[key])
    inside = os.path.join(runs, name)
    if flag != "--out":
        os.replace(paths[flag], inside)
    elif not via.startswith("absent"):
        with open(inside, "wb") as fh:
            fh.write(contents[flag])
    if via.endswith("path"):
        paths[flag] = inside
    else:
        (os.symlink if via.endswith("symlink") else os.link)(inside, paths[flag])
    argv = [*argv, "--items", paths["--items"], "--config", paths["--config"], dir_flag, os.path.join(scratch, spelling)]
    if command == "scale":
        argv += ["--out", paths["--out"]]
    return argv if category is None else [*argv, "--categories", category]


def _tree(root) -> dict:
    """Each path under ``root``, with a file's bytes or a link's target."""
    found = {}
    for parent, dirs, files in os.walk(root):
        found.update((os.path.join(parent, name), None) for name in dirs)
        for name in files:
            path = os.path.join(parent, name)
            found[path] = os.readlink(path) if os.path.islink(path) else Path(path).read_bytes()
    return found


def _run_counting_calls(argv):
    """``main(argv)``'s exit code, stderr, and the sim calls it made."""
    calls, err = [], io.StringIO()
    generate, score = SimWorld.generate, SimWorld.score
    with mock.patch.object(SimWorld, "generate", lambda self, request: calls.append(request) or generate(self, request)), \
            mock.patch.object(SimWorld, "score", lambda self, request: calls.append(request) or score(self, request)), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue(), calls


@settings(_EXAMPLES, max_examples=50)
@given(_collisions(), st.booleans(), st.sampled_from(["runs", "runs/", "./runs/../runs"]))
@example(("bench", ["a"], "--items", None, "path"), False, "runs")
@example(("scale", ["a"], "--items", None, "path"), False, "runs")
@example(("bench --save-traces", ["a"], "--items", 0, "path"), False, "runs")
@example(("scale", ["a"], "--out", None, "path"), False, "runs")
@example(("scale", ["a"], "--out", None, "absent path"), False, "runs")
def test_output_directory_file_that_is_an_input_exits_2_before_any_call_or_write(case, filtered, spelling):
    command, ids, flag, at, via = case
    name = RECORDS_FILE if at is None else trace_file_name(ids[at])
    # bench --categories keeps the category of the trace's item, or of the first item, and drops the other.
    category = f"c{(at or 0) % 2}" if filtered and command != "scale" else None
    with tempfile.TemporaryDirectory() as scratch:
        argv = _dir_argv(scratch, command, ids, flag, name, via, category, spelling)
        before = _tree(scratch)
        code, err, calls = _run_counting_calls(argv)
        after = _tree(scratch)
    dir_flag = _DIR_COMMANDS[command][1]
    assert code == EXIT_CONFIG, err
    assert err == f"config error: {dir_flag} and {flag} name the same file: {os.path.join(scratch, spelling, name)}\n"
    assert calls == []
    assert after == before


@pytest.mark.parametrize(
    "command, name, category",
    [
        ("bench", "items.jsonl", None),
        ("bench --save-traces", "items.jsonl", None),
        ("scale", "items.jsonl", None),
        # The run keeps only item a, so b's trace is no output of it.
        ("bench --save-traces", "trace-b.jsonl", "c0"),
    ],
)
def test_output_directory_holding_an_input_under_another_name_runs(tmp_path, command, name, category):
    argv = _dir_argv(str(tmp_path), command, ["a", "b"], "--items", name, category=category)
    items = (tmp_path / "runs" / name).read_bytes()
    code, err, calls = _run_counting_calls(argv)
    assert code == EXIT_OK, err
    assert calls
    assert (tmp_path / "runs" / name).read_bytes() == items
    assert (tmp_path / "runs" / RECORDS_FILE).is_file()


# ---------------------------------------------------------------------------
# Reply bodies, through bench over HTTP
# ---------------------------------------------------------------------------

# A tag-free text parses as the block of whichever stage was asked for.
_CONTENTS = _mostly(st.sampled_from(["s", "the answer is B", "  B  "]),
                    st.sampled_from(["</CAPTION> x", "<SUMMARY>"]) | _BAD_VALUES)
_JUNK_CHOICES = (
    st.sampled_from([{}, {"choices": []}, {"choices": [{}]}, {"choices": None}, {"choices": [{"message": {}}]}])
    | st.builds(lambda junk: {"choices": junk}, _JUNK) | _JUNK | _NESTED
)


def _choice(content):
    return {"choices": [{"message": {"content": content}}]}


_GENERATOR_BODIES = _mostly(st.builds(_choice, _CONTENTS), _JUNK_CHOICES)
_REWARD_BODIES = _mostly(
    st.builds(lambda score: {"score": score}, st.floats(-3, 3) | st.integers(-3, 3)),
    st.builds(lambda junk: {"score": junk}, _JUNK | _SURROGATES | st.just("0.5"))
    | st.sampled_from([{}, {"scores": 1.0}]) | _JUNK | _NESTED,
)


@pytest.fixture(scope="module")
def endpoints(tmp_path_factory):
    """A generator and a reward stub, a scratch directory with two items, and a
    config that points at the stubs; each example sets the bodies the stubs serve."""
    servers = StubServer([]), StubServer([])
    scratch = tmp_path_factory.mktemp("replies")
    items = scratch / "items.jsonl"
    items.write_text("".join(json.dumps({"id": i, "question": "q"}) + "\n" for i in "ab"))
    config = {
        "backend": "http",
        "generator": {"base_url": servers[0].url, "retries": 0},
        "reward": {"base_url": servers[1].url, "retries": 0},
        "search": {"candidates_per_stage": 2, "beam_width": 1, "retrace_limit": 1},
    }
    yield servers, scratch, str(items), config
    for server in servers:
        server.close()


def _with_hand_replies(test):
    """``test`` run on each junk reply listed by hand, besides the drawn ones: a draw
    reaches a given junk value only now and then, since an item stops at its first."""
    good_generator, good_reward = {"choices": [{"message": {"content": "s"}}]}, {"score": 1.0}
    test = example([good_generator], [good_reward])(test)
    for content in (None, 5, "\ud800", "</CAPTION> x"):
        test = example([{"choices": [{"message": {"content": content}}]}], [good_reward])(test)
    for body in ({}, None, "0.5", {"choices": "x"}):
        test = example([body], [good_reward])(test)
    for body in [{}] + [{"score": score} for score in (None, True, "0.5", math.nan, 10**400, "\ud800")]:
        test = example([good_generator], [body])(test)
    return test


# Fewer examples: each one runs two benches over loopback HTTP.
@settings(_EXAMPLES, max_examples=25)
@given(st.lists(_GENERATOR_BODIES, min_size=1, max_size=6), st.lists(_REWARD_BODIES, min_size=1, max_size=6))
@_with_hand_replies
def test_reply_bodies_through_bench_fail_items_only_as_malformed_or_exhausted(
    endpoints, generator_bodies, reward_bodies
):
    servers, scratch, items, config = endpoints
    for parallelism in (1, 2):
        # Served in request order, the last repeating.
        for server, bodies in zip(servers, (generator_bodies, reward_bodies)):
            server.server.script = [(200, body) for body in bodies]
            server.requests.clear()
        path = _write(scratch / "config.json", {**config, "parallelism": parallelism})
        out = tempfile.mkdtemp(dir=scratch)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["bench", "--items", items, "--config", path, "--out", out])
        assert code == EXIT_OK, err.getvalue()
        assert "Traceback" not in err.getvalue()
        with open(os.path.join(out, "run_records.jsonl"), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert [record["item_id"] for record in records] == ["a", "b"]
        for record in records:
            assert record["error"] is None or record["error"].startswith(
                ("MalformedReplyError:", "SearchExhaustedError:")
            ), record["error"]
        generator, reward = servers
        assert sum(record["generator_calls"] for record in records) == len(generator.requests)
        assert sum(record["reward_calls"] for record in records) == len(reward.requests)


_STATUSES = (201, 204, 301, 400, 404, 408, 429, 500, 503)
_RETRY_AFTER = st.sampled_from([{}, {"Retry-After": "0"}, {"Retry-After": "2"}, {"Retry-After": "120"},
                                {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, {"Retry-After": "x"}])


def _replies(bodies):
    """Mostly status 200, else another status with or without ``Retry-After``, each with a well-formed body."""
    return _mostly(st.tuples(st.just(200), bodies, st.just({})),
                   st.tuples(st.sampled_from(_STATUSES), bodies, _RETRY_AFTER))


def _with_hand_statuses(test):
    """``test`` run with each status other than 200 as the first generator reply,
    and two as the first reward reply, besides the drawn replies."""
    good_generator, good_reward = (200, _choice("s"), {}), (200, {"score": 1.0}, {})
    for k, status in enumerate(_STATUSES):
        headers = {"Retry-After": "1"} if k % 2 else {}
        test = example([(status, _choice("s"), headers), good_generator], [good_reward])(test)
    for status in (429, 503):
        test = example([good_generator], [(status, {"score": 1.0}, {"Retry-After": "1"}), good_reward])(test)
    return test


# At retries 0 no Retry-After wait is taken: a status that is not 2xx fails its call at once.
@settings(_EXAMPLES, max_examples=25)
@given(st.lists(_replies(st.builds(_choice, st.sampled_from(["s", "the answer is B", "  B  "]))), min_size=1, max_size=6),
       st.lists(_replies(st.builds(lambda score: {"score": score}, st.floats(-3, 3))), min_size=1, max_size=6))
@_with_hand_statuses
def test_reply_statuses_through_bench_fail_items_only_as_transport_malformed_or_exhausted(
    endpoints, generator_replies, reward_replies
):
    servers, scratch, items, config = endpoints
    for parallelism in (1, 2):
        for server, replies in zip(servers, (generator_replies, reward_replies)):
            server.server.script = replies
            server.requests.clear()
        path = _write(scratch / "config.json", {**config, "parallelism": parallelism})
        out = tempfile.mkdtemp(dir=scratch)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["bench", "--items", items, "--config", path, "--out", out])
        assert code == EXIT_OK, err.getvalue()
        assert "Traceback" not in err.getvalue()
        with open(os.path.join(out, "run_records.jsonl"), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert [record["item_id"] for record in records] == ["a", "b"]
        for record in records:
            assert record["error"] is None or record["error"].startswith(
                ("TransportError:", "MalformedReplyError:", "SearchExhaustedError:")
            ), record["error"]
        generator, reward = servers
        assert sum(record["generator_calls"] for record in records) == len(generator.requests)
        assert sum(record["reward_calls"] for record in records) == len(reward.requests)


# ---------------------------------------------------------------------------
# Judge replies, through datagen over HTTP
# ---------------------------------------------------------------------------

_FOUR_STAGES = "<SUMMARY>s</SUMMARY><CAPTION>c</CAPTION><REASONING>r</REASONING><CONCLUSION>{}</CONCLUSION>"
# Complete four-stage texts, which go on to the judge, and texts that do not parse as one.
_GENERATED_TEXTS = _mostly(st.sampled_from([_FOUR_STAGES.format("B"), _FOUR_STAGES.format("the answer is C")]),
                           st.sampled_from(["", "B", "<SUMMARY>s</SUMMARY>", "<CONCLUSION>B", _FOUR_STAGES.format("B") + " x"]))
_VERDICTS = st.sampled_from(["valid", "Valid.", " valid, it matches", "invalid", "not valid", ""]) | st.text(max_size=6)
_JUDGE_BODIES = _mostly(st.builds(_choice, _VERDICTS), st.builds(_choice, _BAD_VALUES) | _JUNK_CHOICES)
_DATAGEN_COUNTS = ("valid", "format_invalid", "judged_invalid")


@pytest.fixture(scope="module")
def judge_endpoints(tmp_path_factory):
    """A generator and a judge stub, three sources, and a config that points at
    the stubs; each example sets the replies the stubs serve."""
    servers = StubServer([]), StubServer([])
    scratch = tmp_path_factory.mktemp("judge")
    sources = scratch / "sources.jsonl"
    sources.write_text("".join(json.dumps({"id": f"s{k}", "question": "q", "gold_answer": "B"}) + "\n"
                               for k in range(3)))
    config = {
        "backend": "http",
        "generator": {"base_url": servers[0].url, "retries": 0},
        "judge": {"base_url": servers[1].url, "retries": 0},
    }
    path = _write(scratch / "config.json", config)
    yield servers, scratch, str(sources), path
    for server in servers:
        server.close()


def _datagen(sources, config, out):
    err, summary = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(summary), contextlib.redirect_stderr(err):
        code = main(["datagen", "--sources", sources, "--config", config, "--out", out])
    assert code == EXIT_OK, err.getvalue()
    assert "Traceback" not in err.getvalue()
    return json.loads(summary.getvalue())


def _with_hand_verdicts(test):
    """``test`` run on each junk judge reply listed by hand, besides the drawn ones."""
    for body in ({}, None, "0.5", [], {"choices": "x"}, {"choices": []}, {"choices": [{}]},
                 _choice(None), _choice(5), _choice(["valid"]), _choice("\ud800"), _choice("valid \udfff")):
        test = example([_FOUR_STAGES.format("B")], [body])(test)
    return test


@settings(_EXAMPLES, max_examples=25)
@given(st.lists(_GENERATED_TEXTS, min_size=1, max_size=4), st.lists(_JUDGE_BODIES, min_size=1, max_size=4))
@_with_hand_verdicts
def test_judge_replies_through_datagen_give_one_record_per_verdict_and_retry_the_rest(
    judge_endpoints, generated, judge_bodies
):
    (generator, judge), scratch, sources, config = judge_endpoints
    generator.server.script = [(200, _choice(text)) for text in generated]
    judge.server.script = [(200, body) for body in judge_bodies]
    generator.requests.clear()
    judge.requests.clear()
    out = os.path.join(tempfile.mkdtemp(dir=scratch), "generated.jsonl")
    counts = _datagen(sources, config, out)
    assert sum(counts[key] for key in (*_DATAGEN_COUNTS, "retryable")) == 3 and counts["skipped"] == 0
    with open(out, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert sorted(record["status"] for record in records) == sorted(
        status for status in _DATAGEN_COUNTS for _ in range(counts[status])
    )
    assert len({record["id"] for record in records}) == len(records)
    assert len(generator.requests) == 3
    assert len(judge.requests) == counts["valid"] + counts["judged_invalid"] + counts["retryable"]

    # A rerun skips every record and generates each retryable source again.
    judge.server.script = [(200, _choice("valid"))]
    rerun = _datagen(sources, config, out)
    assert rerun["skipped"] == len(records) and rerun["retryable"] == 0
    assert len(generator.requests) == 3 + counts["retryable"]

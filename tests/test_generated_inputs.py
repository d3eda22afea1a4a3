"""Generated inputs: each one gives its defined outcome, whatever its values.

Endpoint sections go through ``load_config``: each loads, and then an HTTP
client builds from it without a network call, or raises ConfigError. The
``search`` section and ``parallelism`` go through ``solve`` on the sim: each
run exits 0, 2 or 4, and exit 2 comes before any backend call or trace file.
The examples are derandomized and their counts fixed, so every run of the
suite draws the same ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import socket
from enum import Enum
from unittest import mock
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stagewise.backends import HttpGenerator, SimWorld
from stagewise.cli import (
    _SEARCH_SETTINGS,
    EXIT_CONFIG,
    EXIT_EXHAUSTED,
    EXIT_OK,
    _default,
    load_config,
    main,
)
from stagewise.search import ConfigError

_EXAMPLES = settings(derandomize=True, max_examples=200, deadline=None, database=None)

# Values of the wrong kind or past any range, for every setting.
_JUNK = st.sampled_from([True, False, None, "", "4", "inf", [], {}, math.inf, -math.inf, math.nan, 10**400])


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

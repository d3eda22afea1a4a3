"""Command-line entry point.

Subcommands: solve one question, run a benchmark, sweep the scaling grid,
calibrate reward statistics, run the dataset pipeline, and check the sim
engine against exact enumeration. Settings come from an optional JSON config
file with flags taking precedence; secrets only ever come from environment
variables.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Optional

from .backends import (
    BackendError,
    EndpointConfig,
    Generator,
    HttpGenerator,
    HttpRewardScorer,
    RewardScorer,
    SimWorld,
    SimWorldConfig,
)
from .datagen import load_sources, run_pipeline
from .harness import (
    RECORDS_FILE,
    default_grid,
    grade,
    load_items,
    oracle_grade,
    run_benchmark,
    run_simcheck,
    scaling_experiment,
    trace_file_name,
    write_curve_csv,
)
from .jsonl import RepeatedKeyError, decode, read_jsonl, string_field
from .search import (
    ConfigError,
    SearchConfig,
    SearchExhaustedError,
    calibrate,
    reading,
    run_strategy,
    writing,
)
from .stages import StagedResponse, parse_staged

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_BACKEND = 3
EXIT_EXHAUSTED = 4


@dataclass
class AppConfig:
    backend: str = "sim"
    generator: Optional[EndpointConfig] = None
    reward: Optional[EndpointConfig] = None
    judge: Optional[EndpointConfig] = None
    sim: SimWorldConfig = SimWorldConfig()
    search: SearchConfig = SearchConfig()
    run_seed: int = 0
    parallelism: int = 1


# Each search setting the config file takes, with the flag that overrides it
# and the flag's help; None marks a setting only the config file sets. A
# flag's parsed value is stored under its setting's name.
_SEARCH_SETTINGS = {
    "strategy": ("--strategy", "search strategy"),
    "candidates_per_stage": ("--m", "candidates generated per stage (best-of-N ignores it)"),
    "beam_width": ("--n", "beam width (and best-of-N's N)"),
    "retrace_limit": ("--retraces", "retrace budget C"),
    "cutoff_zscore": ("--z", "cutoff z-score"),
    "reward_mean": ("--reward-mean", "calibrated reward mean"),
    "reward_std": ("--reward-std", "calibrated reward std"),
    "min_pass_count": ("--min-pass", "reasonings that must clear the cutoff"),
    "loop_semantics": ("--loop-semantics", "how the retrace budget counts passes"),
    "summary_candidates": None,
    "temperature": None,
    "max_new_tokens": None,
}
# The settings ``default_grid`` fixes in every cell: ``scale`` takes no flag for them.
_GRID_SETTINGS = ("strategy", "retrace_limit", "loop_semantics")
_STATS_KEYS = ("reward_mean", "reward_std")
_DEFAULT_SEARCH = SearchConfig()
_TOP_KEYS = {f.name for f in fields(AppConfig)}


def _reject_unknown(data: dict, allowed, context: str) -> None:
    unknown = set(data).difference(allowed)
    if unknown:
        raise ConfigError(f"unknown {context} config keys: {sorted(unknown)}")


def _section(data: dict, name: str, allowed) -> dict:
    """The config file's ``name`` section: a JSON object of allowed keys."""
    section = data[name]
    if not isinstance(section, dict):
        raise ConfigError(f"{name} config must be a JSON object")
    _reject_unknown(section, allowed, name)
    return section


def _default(key: str):
    """The shipped value of a search setting."""
    return getattr(_DEFAULT_SEARCH.stats if key in _STATS_KEYS else _DEFAULT_SEARCH, key)


def _number(key: str, value, default):
    """``value`` checked against the type of ``default``.

    An integer setting takes an int; a real one takes any number but NaN
    (which Python's JSON reader and ``float()`` accept), as a float. A bool
    is neither, and neither is an integer too large for a float.
    """
    integer = isinstance(default, int)
    kind = "an integer" if integer else "a number"
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        raise ConfigError(f"{key} must fit a float, got an integer of {len(str(abs(value)))} digits") from None
    if math.isnan(real):
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    return value if integer else real


def _search_config(base: SearchConfig, settings: dict) -> SearchConfig:
    """``base`` with ``settings``, keyed as in ``_SEARCH_SETTINGS``, replaced.

    Enum settings are read by their value in any case, and a number must be
    finite; the reward mean and std replace those of ``base.stats``, which
    keeps its sample count.
    """
    kwargs = {}
    for key, value in settings.items():
        default = _default(key)
        if isinstance(default, Enum):
            try:
                kwargs[key] = type(default)(str(value).lower())
            except ValueError:
                raise ConfigError(f"unknown {key.replace('_', ' ')}: {value!r}") from None
        else:
            kwargs[key] = _number(key, value, default)
            if not math.isfinite(kwargs[key]):
                raise ConfigError(f"{key} must be finite, got {kwargs[key]!r}")
    stats = {key: kwargs.pop(key) for key in _STATS_KEYS if key in kwargs}
    if stats:
        try:
            kwargs["stats"] = replace(base.stats, **stats)
        except ValueError as exc:
            raise ConfigError(f"invalid reward stats: {exc}") from exc
    return replace(base, **kwargs)


def _typed_section(data: dict, name: str, cls) -> dict:
    """The ``name`` section with each value checked against its field of ``cls``.

    A field with a numeric default takes a number of that kind (``_number``),
    ``success`` and ``recovery`` an object of numbers too, any other a string
    of UTF-8 text (``string_field``).
    """
    defaults = {f.name: f.default for f in fields(cls)}
    checked = {}
    for key, value in _section(data, name, defaults).items():
        label, default = f"{name}.{key}", defaults[key]
        if key in ("success", "recovery") and isinstance(value, dict):
            value = {stage: _number(f"{label}.{stage}", p, 0.0) for stage, p in value.items()}
        elif isinstance(default, (int, float)):
            value = _number(label, value, default)
        else:
            try:
                value = string_field({label: value}, label)
            except TypeError as exc:  # a wrong type reads as _number's does
                raise ConfigError(str(exc)) from None
        checked[key] = value
    return checked


def load_config(path: Optional[str]) -> AppConfig:
    if path is None:
        return AppConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = decode(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except RepeatedKeyError as exc:
        raise ConfigError(f"config {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, an integer past int()'s digit limit, deep nesting
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(data, _TOP_KEYS, "top-level")
    cfg = AppConfig()
    try:
        if "backend" in data:
            cfg.backend = str(data["backend"])
        for side in ("generator", "reward", "judge"):
            if side in data:
                setattr(cfg, side, EndpointConfig(**_typed_section(data, side, EndpointConfig)))
        if "sim" in data:
            cfg.sim = SimWorldConfig.from_dict(_typed_section(data, "sim", SimWorldConfig))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
    if "search" in data:
        cfg.search = _search_config(cfg.search, _section(data, "search", _SEARCH_SETTINGS))
    for key in ("run_seed", "parallelism"):
        if key in data:
            setattr(cfg, key, _number(key, data[key], 0))
    if cfg.backend not in ("sim", "http"):
        raise ConfigError(f"backend must be 'sim' or 'http', got {cfg.backend!r}")
    return cfg


def apply_flags(cfg: AppConfig, args: argparse.Namespace) -> AppConfig:
    """``cfg`` with the flags given; each is stored under its setting's name."""
    given = {k: v for k, v in vars(args).items() if v is not None}
    search = _search_config(cfg.search, {k: given.pop(k) for k in _SEARCH_SETTINGS if k in given})
    return replace(cfg, search=search, **{k: v for k, v in given.items() if k in _TOP_KEYS})


def make_generator(cfg: AppConfig) -> Generator:
    if cfg.backend == "sim":
        return SimWorld(cfg.sim)
    if cfg.generator is None:
        raise ConfigError("http backend requires a generator endpoint config")
    return HttpGenerator(cfg.generator)


def make_reward(cfg: AppConfig) -> RewardScorer:
    if cfg.backend == "sim":
        return SimWorld(cfg.sim)
    if cfg.reward is None:
        raise ConfigError("http backend requires a reward endpoint config")
    return HttpRewardScorer(cfg.reward)


def _same_file(path: str, given: str) -> bool:
    """One existing file, by any link, or one path once links are resolved."""
    if os.path.exists(path) and os.path.exists(given):
        return os.path.samefile(path, given)
    return os.path.realpath(path) == os.path.realpath(given)


def _check_output(args: argparse.Namespace, out_flag: str, *input_flags: str, names=None) -> None:
    """Raise ConfigError, before any backend call or write, if the output that
    ``out_flag`` names is the file of ``--config`` or of an input flag, or
    cannot be written.

    An output must not be an input file (``_same_file``, whose resolved
    paths catch another output that is not made yet). It is then opened to
    append, which leaves one already there unchanged, and removed again if
    that made it. With ``names``, ``out_flag`` names a directory and the
    outputs are the files of those names in it; they are checked against the
    inputs alone, since the run makes the directory and opens them itself.
    """
    out = getattr(args, out_flag[2:].replace("-", "_"))
    if out is None:
        return
    for path in [out] if names is None else [os.path.join(out, name) for name in names]:
        for flag in ("--config", *input_flags):
            given = getattr(args, flag[2:].replace("-", "_"))
            if given is not None and _same_file(path, given):
                raise ConfigError(f"{out_flag} and {flag} name the same file: {path}")
    if names is None:
        existed = os.path.lexists(out)
        with writing(out):
            os.close(os.open(out, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o666))
            if not existed:
                os.unlink(out)


def _corpus_record(data: dict) -> tuple[str, StagedResponse]:
    question = string_field(data, "question")
    response = parse_staged(string_field(data, "response"))
    if not response.blocks:
        raise ValueError("response holds no stage block")
    return question, response


def _load_corpus(path) -> list[tuple[str, StagedResponse]]:
    """Calibration corpus: JSON lines of {question, response}; a response must hold a stage block."""
    return read_jsonl(path, "corpus record", _corpus_record)


def _grader_for(cfg: AppConfig):
    return oracle_grade if cfg.backend == "sim" else grade


def _summary(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_solve(cfg: AppConfig, args: argparse.Namespace) -> int:
    try:
        string_field(vars(args), "question")
        string_field({"--image": args.image}, "--image", optional=True)
    except ValueError as exc:  # an argument's bytes that are not UTF-8
        raise ConfigError(str(exc)) from None
    _check_output(args, "--trace")
    result = run_strategy(
        args.question,
        cfg.search,
        make_generator(cfg),
        make_reward(cfg),
        image_ref=args.image,
        run_seed=cfg.run_seed,
        collect_trace=args.trace is not None,
        parallelism=cfg.parallelism,
    )
    if args.trace:
        with writing(args.trace):
            result.trace.write(args.trace)
    for block in result.answer.blocks:
        print(f"[{block.kind.name}]")
        print(block.text)
    print(f"ANSWER: {result.final_text}")
    print(f"wall_time_s={result.ledger.wall_time_s:.3f}", file=sys.stderr)
    _summary(
        {
            "command": "solve",
            "conclusion": result.final_text,
            "generator_calls": result.ledger.generator_calls,
            "reward_calls": result.ledger.reward_calls,
        }
    )
    return EXIT_OK


def cmd_bench(cfg: AppConfig, args: argparse.Namespace) -> int:
    if args.save_traces and args.out is None:
        raise ConfigError("--save-traces needs --out")
    with reading(args.items):
        items = load_items(args.items)
    if args.categories is not None:
        names = {name.strip().casefold() for name in args.categories.split(",")}
        if "" in names:  # so an item without a category matches no name
            raise ConfigError(f"--categories holds an empty name: {args.categories!r}")
        items = [item for item in items if (item.category or "").casefold() in names]
    outputs = [RECORDS_FILE, *(trace_file_name(item.id) for item in items if args.save_traces)]
    _check_output(args, "--out", "--items", names=outputs)
    result = run_benchmark(
        items,
        cfg.search,
        make_generator(cfg),
        make_reward(cfg),
        out_dir=args.out,
        grader=_grader_for(cfg),
        run_seed=cfg.run_seed,
        collect_traces=args.save_traces,
        parallelism=cfg.parallelism,
    )
    _summary(
        {
            "command": "bench",
            "items": len(result.records),
            "accuracy": result.accuracy,
            "generator_calls": result.ledger.generator_calls,
            "reward_calls": result.ledger.reward_calls,
        }
    )
    return EXIT_OK


def cmd_scale(cfg: AppConfig, args: argparse.Namespace) -> int:
    _check_output(args, "--out", "--items")
    with reading(args.items):
        items = load_items(args.items)
    # --out too: the table, written after the last cell, would replace the records.
    _check_output(args, "--log-dir", "--items", "--out", names=[RECORDS_FILE])
    points = scaling_experiment(
        items,
        make_generator(cfg),
        make_reward(cfg),
        grid=default_grid(cfg.search),
        out_dir=args.log_dir,
        grader=_grader_for(cfg),
        run_seed=cfg.run_seed,
        zero_wall_time=args.zero_wall_time,
        parallelism=cfg.parallelism,
    )
    with writing(args.out):
        write_curve_csv(points, args.out)
    _summary({"command": "scale", "rows": len(points), "table": str(args.out)})
    return EXIT_OK


def cmd_calibrate(cfg: AppConfig, args: argparse.Namespace) -> int:
    _check_output(args, "--out", "--corpus")
    with reading(args.corpus):
        corpus = _load_corpus(args.corpus)
    stats = calibrate(make_reward(cfg), corpus)
    fitted = {
        "reward_mean": stats.reward_mean,
        "reward_std": stats.reward_std,
        "sample_count": stats.sample_count,
    }
    if args.out:
        with writing(args.out), open(args.out, "w", encoding="utf-8") as fh:
            json.dump(fitted, fh)
    _summary({"command": "calibrate", **fitted})
    return EXIT_OK


def cmd_datagen(cfg: AppConfig, args: argparse.Namespace) -> int:
    _check_output(args, "--out", "--sources")
    generator = make_generator(cfg)
    if cfg.backend == "http" and cfg.judge is not None:
        judge = HttpGenerator(cfg.judge)
    else:
        judge = generator  # same endpoint serves both roles; sim judges via its oracle
    with reading(args.sources):
        sources = load_sources(args.sources)
    counts = run_pipeline(sources, generator, judge, args.out)
    _summary({"command": "datagen", **counts})
    return EXIT_OK


def cmd_simcheck(cfg: AppConfig, args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    rows = run_simcheck(trials=args.trials, run_seed=cfg.run_seed)
    for row in rows:
        status = "ok" if row["ok"] else "FAIL"
        print(
            f"{status} {row['check']}: exact={row['exact']:.6f} "
            f"mc={row['monte_carlo']:.6f} delta={row['delta']:+.6f} "
            f"tol={row['tolerance_3se']:.6f}"
        )
    all_ok = all(row["ok"] for row in rows)
    _summary({"command": "simcheck", "checks": len(rows), "all_within_3se": all_ok})
    return EXIT_OK if all_ok else EXIT_ERROR


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stagewise",
        description="Staged reasoning search: best-of-N, stage-wise beam search, "
        "and stage-wise retracing search over generator/reward backends.",
    )
    # Each subcommand takes only the flags it reads, from these parents.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="PATH", help="JSON config file")
    backend = argparse.ArgumentParser(add_help=False, parents=[config])
    backend.add_argument("--backend", choices=["sim", "http"], help="backend kind")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", dest="run_seed", metavar="SEED", type=int,
                      help="run seed for full determinism on sim")

    def search_flags(skip=()) -> argparse.ArgumentParser:
        search = argparse.ArgumentParser(add_help=False, parents=[backend, seed])
        for key, flag in _SEARCH_SETTINGS.items():
            if flag is not None and key not in skip:
                default = _default(key)
                if isinstance(default, Enum):
                    kind = {"choices": [member.value for member in type(default)]}
                else:
                    kind = {"type": type(default)}
                search.add_argument(flag[0], dest=key, help=flag[1], **kind)
        search.add_argument("--parallelism", type=int, help="max concurrent backend calls")
        return search

    search = search_flags()

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", parents=[search], help="answer one question")
    p.add_argument("question")
    p.add_argument("--image", help="opaque image reference")
    p.add_argument("--trace", metavar="PATH", help="write the search trace here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", parents=[search], help="run a benchmark file")
    p.add_argument("--items", required=True, help="benchmark items (JSON lines)")
    p.add_argument("--out", help="output directory for run records and traces")
    p.add_argument("--categories", help="comma-separated category filter")
    p.add_argument("--save-traces", action="store_true", help="persist per-item traces (needs --out)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("scale", parents=[search_flags(_GRID_SETTINGS)], help="run the scaling grid")
    p.add_argument("--items", required=True, help="benchmark items (JSON lines)")
    p.add_argument("--out", required=True, help="curve table CSV path")
    p.add_argument("--log-dir", help="directory for per-cell run records")
    p.add_argument(
        "--zero-wall-time",
        action="store_true",
        help="write wall_time_s as 0.000 for byte-reproducible tables",
    )
    p.set_defaults(func=cmd_scale)

    p = sub.add_parser("calibrate", parents=[backend], help="fit reward statistics")
    p.add_argument("--corpus", required=True, help="JSON lines of {question, response}")
    p.add_argument("--out", help="write stats JSON here")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("datagen", parents=[backend], help="run the dataset pipeline")
    p.add_argument("--sources", required=True, help="source records (JSON lines)")
    p.add_argument("--out", required=True, help="output records path (JSON lines)")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("simcheck", parents=[config, seed], help="enumeration vs Monte Carlo")
    p.add_argument("--trials", type=int, default=20_000, help="Monte Carlo trials per check")
    p.set_defaults(func=cmd_simcheck)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = apply_flags(load_config(args.config), args)
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SearchExhaustedError as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_EXHAUSTED
    except BackendError as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())

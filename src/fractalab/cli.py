"""Command line entry point.

One subcommand per experiment kind, with the flags that ExperimentConfig's
field metadata declares. Values come from an optional JSON config file
(--config); any flag given on the command line overrides the file.
Exit codes: 0 success, 2 validation error, 3 budget error (refused()).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin

from .config import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    non_null,
    read_config_file,
    type_hints,
)
from .errors import BudgetError, ValidationError
from .runner import run_experiment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BUDGET = 3

_FLAGGED = [f for f in fields(ExperimentConfig) if "flag" in f.metadata]


def _build_parser(kind: str | None = None) -> argparse.ArgumentParser:
    """The subcommand ``kind`` alone when it names one, else all ten, with
    flags on all only when kind is None; the usage line and error texts are
    the same either way."""
    parser = argparse.ArgumentParser(
        prog="fractalab",
        description="Desk-scale experiments on Cantor-type measures: Fourier decay, "
        "additive energy, distance sets.",
    )
    lean = kind in EXPERIMENT_KINDS
    # the usage line names all ten kinds; with no metavar, an unknown kind's error says 'kind'
    metavar = "{" + ",".join(EXPERIMENT_KINDS) + "}" if lean else None
    sub = parser.add_subparsers(dest="kind", required=True, metavar=metavar)
    for name in [kind] if lean else EXPERIMENT_KINDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        if kind not in (None, name):
            continue
        p.add_argument("--config", type=Path, help="JSON config file; flags override it")
        for f in _FLAGGED:
            options = dict(f.metadata)
            p.add_argument(options.pop("flag"), **options)
    return parser


def _from_text(tp, text: str, f) -> object:
    """The JSON value of a field of type ``tp`` written as flag text:
    colon-separated parts for a fixed tuple or a record (A:B,
    START:STOP:COUNT, BASE:DIGITS:LEVEL), a comma-separated list or variadic
    tuple, or a single value."""
    flag = f.metadata["flag"]
    tp = non_null(tp)
    if get_origin(tp) is list or (get_origin(tp) is tuple and get_args(tp)[-1] is Ellipsis):
        return [_from_text(get_args(tp)[0], x, f) for x in text.split(",") if x]
    if get_origin(tp) is tuple or is_dataclass(tp):
        hints = type_hints(tp) if is_dataclass(tp) else None
        types = list(hints.values()) if hints else get_args(tp)
        texts = text.split(":")
        if len(texts) != len(types):
            raise ValidationError(f"{flag}: expected {f.metadata['metavar']}, got {text!r}")
        values = [_from_text(t, x, f) for t, x in zip(types, texts)]
        return dict(zip(hints, values)) if hints else values
    try:
        return tp(text)
    except ValueError as exc:
        raise ValidationError(f"{flag}: bad numbers in {text!r}") from exc


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    payload = read_config_file(args.config) if args.config is not None else {}
    payload["kind"] = args.kind
    types = type_hints(ExperimentConfig)
    for f in _FLAGGED:
        value = getattr(args, f.metadata["flag"][2:].replace("-", "_"))
        if isinstance(value, list):  # a repeatable flag
            value = [_from_text(get_args(types[f.name])[0], x, f) for x in value]
        elif isinstance(value, str):
            value = _from_text(types[f.name], value, f)
        if value is not None:
            payload[f.name] = value
    return ExperimentConfig.from_dict(payload)


def refused(exc: ValidationError | BudgetError) -> int:
    """Print a refused input to stderr as 'validation error: ' or 'budget
    error: ' and its message, with no traceback; return its exit code."""
    budget = isinstance(exc, BudgetError)
    print(f"{'budget' if budget else 'validation'} error: {exc}", file=sys.stderr)
    return EXIT_BUDGET if budget else EXIT_VALIDATION


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        config = _config_from_args(args)
        files = run_experiment(config)
    except (ValidationError, BudgetError) as exc:
        return refused(exc)
    for name in sorted(files):
        print(files[name])
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

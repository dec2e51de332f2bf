"""Experiment configuration: one JSON file, overridable by CLI flags.

``ExperimentConfig`` is the one description of a config field: its type, its
default, and in its metadata the field's command-line flag with the flag's
help text and argparse options. The CLI builds its subcommands from that
table.

A config is a flat record; unknown keys are rejected so typos surface as
validation errors with the offending field named. Loading checks every JSON
value against its field's declared type: ints widen to floats, numbers in a
text field (such as ``dims``) become their text, ``bool`` is never a
number, and no value may be NaN or infinite (JSON's ``NaN`` and ``Infinity``,
or a flag like ``--interval nan:1``); a missing required key, a wrong type or
a non-finite number raises ValidationError naming the field, and so does a
record's own check (such as a digit outside its base).
serialize(parse(text)) is idempotent: parsing normalizes, serialization is
canonical JSON.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ValidationError, over_budget
from .fourier import _MAX_BATCH, _WEIGHTS
from .measures import CantorSpec

# annotations are static: each record class's hints once per process, shared, read only
type_hints = functools.cache(get_type_hints)
_MAX_SWEEP = _MAX_BATCH // 64  # sweep points: the most t one sigma batch admits at 64 samples each

# Every experiment kind, with the fewest Cantor factors it runs on.
EXPERIMENT_KINDS = {
    "cantor": 1,
    "regularity": 1,
    "energy": 1,
    "spherical": 2,
    "solid": 1,
    "stationary": 0,
    "mattila": 2,
    "distance": 2,
    "thresholds": 0,
    "full-report": 2,
}


@dataclass(frozen=True)
class GeometricSweep:
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if not 0 < self.start < self.stop:
            raise ValidationError(
                f"sweep needs 0 < start < stop, got [{self.start}, {self.stop}]"
            )
        if self.count < 3:
            raise ValidationError(f"sweep needs at least 3 points, got {self.count}")
        over_budget(f"sweep of {self.count} points", self.count, _MAX_SWEEP, "lower the --sweep count")

    def values(self) -> list[float]:
        return [float(v) for v in np.geomspace(self.start, self.stop, self.count)]


def _flagged(default, flag: str, help: str | None = None, **options):
    """A config field set by the command-line ``flag``; ``help`` and the
    argparse ``options`` (metavar, choices, or action with const) describe
    the flag."""
    metadata = {"flag": flag, "help": help, **options}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class ExperimentConfig:
    kind: str
    output_dir: str = _flagged("out", "--output", "output directory")
    seed: int = _flagged(0, "--seed", "seed recorded in the manifest; every route is deterministic")
    factors: list[CantorSpec] = _flagged(
        [], "--factor", "factor spec like 3:0,2:8 (repeatable)",
        action="append", metavar="BASE:DIGITS:LEVEL")
    sweep: GeometricSweep | None = _flagged(
        None, "--sweep", "geometric sweep", metavar="START:STOP:COUNT")
    weight: str = _flagged(
        "sin_theta", "--weight", "angular weight of spherical and mattila", choices=_WEIGHTS)
    dz_k: float = _flagged(
        1.0, "--dz-k", "absolute constant in the energy-improvement exponent")
    dz_c_nu: float | None = _flagged(
        None, "--dz-c-nu", "regularity constant fed to the energy bound")
    alpha: float | None = _flagged(None, "--alpha", "reference dimension override")
    regularity_cap: float = _flagged(4.0, "--cap", "regularity pass cap")
    truncation: float | None = _flagged(None, "--truncation", "Mattila truncation T")
    bin_width: float = _flagged(0.01, "--bin-width", "distance histogram bin width")
    distance_weighted: bool = _flagged(
        False, "--weighted-distance", "weighted distance measure",
        action="store_const", const=True)
    coverage_widths: list[float] = _flagged([], "--widths", "comma-separated coverage widths")
    interval: tuple[float, float] = _flagged(
        (-1.0, 1.0), "--interval", "solid average interval", metavar="A:B")
    gaps: list[tuple[float, float]] = _flagged(
        [], "--gap", "gap vector (repeatable)", action="append", metavar="GX:GY")
    dims: list[str] = _flagged(
        [], "--dims", "comma-separated factor dimensions (floats or p/q)")
    mc_nodes: int = _flagged(
        20000, "--mc-nodes", "accepted and validated, read by nothing: d >= 3 takes an exact rule")

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValidationError(
                f"kind: unknown experiment {self.kind!r}; expected one of {tuple(EXPERIMENT_KINDS)}"
            )
        if self.weight not in _WEIGHTS:
            raise ValidationError(f"weight: must be one of {_WEIGHTS}, got {self.weight!r}")
        if not self.dz_k > 0:
            raise ValidationError(f"dz_k: must be positive, got {self.dz_k}")
        if not self.bin_width > 0:
            raise ValidationError(f"bin_width: must be positive, got {self.bin_width}")
        if self.interval[0] >= self.interval[1]:
            raise ValidationError(f"interval: empty interval {self.interval}")
        if self.mc_nodes < 4:
            raise ValidationError(f"mc_nodes: must be >= 4, got {self.mc_nodes}")
        if self.seed is not None and self.seed < 0:
            raise ValidationError(f"seed: must be >= 0, got {self.seed}")
        for x in self.dims:
            try:
                Fraction(str(x))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValidationError(f"dims: {x!r} is not a number or a fraction p/q") from exc
        need = EXPERIMENT_KINDS[self.kind]
        if len(self.factors) < need:
            raise ValidationError(
                f"factors: experiment {self.kind!r} needs >= {need} factors, "
                f"got {len(self.factors)}"
            )
        if self.kind == "thresholds" and not self.dims and not self.factors:
            raise ValidationError("dims: thresholds experiment needs dims or factors")
        if self.kind == "stationary" and not self.gaps:
            raise ValidationError("gaps: stationary experiment needs at least one gap vector")
        for k, gap in enumerate(self.gaps):
            if not 0.0 < math.hypot(*gap) < math.inf:
                raise ValidationError(f"gaps[{k}]: must be nonzero with a finite norm, got {list(gap)}")

    def to_dict(self) -> dict:
        return to_plain(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        return _load(ExperimentConfig, d, "")

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(_config_object(text))


def _config_object(text: str) -> dict:
    """The JSON object of a config file's text."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValidationError("config: JSON must be an object")
    return payload


def read_config_file(path) -> dict:
    """The JSON object of the config file at ``path``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"config: cannot read {path}: {exc}") from exc
    return _config_object(text)


def non_null(tp):
    """``tp`` without its ``| None``."""
    if get_origin(tp) is UnionType:
        (tp,) = [a for a in get_args(tp) if a is not type(None)]
    return tp


def to_plain(value):
    """The JSON form of a config value: records become dicts, tuples lists."""
    if is_dataclass(value):
        return {f.name: to_plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [to_plain(v) for v in value]
    return value


def _load(tp, value, path: str):
    """Check one JSON value against the declared type ``tp`` and build it;
    ``path`` names the value in error messages."""
    if value is None and type(None) in get_args(tp):
        return None
    tp = non_null(tp)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{path}: expected a list, got {value!r}")
        if origin is tuple and args[-1] is not Ellipsis:
            if len(value) != len(args):
                raise ValidationError(f"{path}: expected {len(args)} entries, got {value!r}")
        else:
            args = (args[0],) * len(value)
        items = [_load(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(args, value))]
        return items if origin is list else tuple(items)
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ValidationError(f"{path or 'config'}: expected an object, got {value!r}")
        hints = type_hints(tp)
        unknown = set(value) - set(hints)
        if unknown:
            raise ValidationError(f"unknown {path or 'config'} fields: {sorted(unknown)}")
        kw = {}
        for f in fields(tp):
            name = f"{path}.{f.name}" if path else f.name
            if f.name in value:
                kw[f.name] = _load(hints[f.name], value[f.name], name)
            elif f.default is MISSING and f.default_factory is MISSING:
                raise ValidationError(f"{name}: missing required field")
        try:
            return tp(**kw)
        except ValidationError as exc:  # a record's own check names no field
            if not path:
                raise
            raise ValidationError(f"{path}: {exc}") from exc
    accepted = {float: (int, float), str: (str, int, float)}.get(tp, tp)
    if isinstance(value, bool) != (tp is bool) or not isinstance(value, accepted):
        raise ValidationError(f"{path}: expected {tp.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"{path}: expected a finite number, got {value!r}")
    return tp(value)

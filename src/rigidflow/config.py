"""Flat key=value run configuration with command-line overrides."""

from __future__ import annotations

import math

from ._checks import FieldError
from .losses import CensusParams, LossWeights
from .masks import FBCheckParams
from .optimize import OptimizerConfig

__all__ = ["parse_kv_file", "parse_overrides", "optimizer_config_from"]

_FLOAT_KEYS = {
    "learning_rate",
    "beta1",
    "beta2",
    "adam_eps",
    "lambda_s",
    "lambda_f",
    "lambda_c",
    "census_epsilon",
    "census_charbonnier_eps",
    "fb_alpha1",
    "fb_alpha2",
}
_INT_KEYS = {"iterations", "scales", "cross_scales", "census_radius"}
_KNOWN = _FLOAT_KEYS | _INT_KEYS | {"scale_weights"}


def parse_kv_file(path) -> dict:
    """Read key=value lines; '#' starts a comment, blanks are skipped."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not (sep and key.strip()):
                raise ValueError(f"{path}:{lineno}: expected key=value")
            out[key.strip()] = value.strip()
    return out


def parse_overrides(items) -> dict:
    """--set style 'key=value' strings to a dict."""
    out = {}
    for item in items or ():
        key, sep, value = item.partition("=")
        if not (sep and key.strip()):
            raise ValueError(f"override '{item}': expected key=value")
        out[key.strip()] = value.strip()
    return out


def _parse(key: str, raw: str):
    """The value of one setting; ValueError naming the key and the text when
    it does not convert or, for a float, is not finite."""
    kind, what = (int, "an integer") if key in _INT_KEYS else (float, "a number")
    parts = raw.split(",") if key == "scale_weights" else [raw]
    try:
        values = [kind(part) for part in parts]
    except ValueError:
        if key == "scale_weights":
            what = "comma-separated numbers"
        raise ValueError(f"{key} must be {what}, got {raw!r}") from None
    if kind is float and not all(map(math.isfinite, values)):
        raise ValueError(f"{key} must be finite, got {raw!r}")
    return tuple(values) if key == "scale_weights" else values[0]


def optimizer_config_from(settings: dict) -> OptimizerConfig:
    """Build an OptimizerConfig from string settings; each ValueError names the key."""
    unknown = set(settings) - _KNOWN
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    vals = {key: _parse(key, raw) for key, raw in settings.items()}

    def nested(cls, prefix, *fields):
        # only the keys given: the dataclass keeps its own default elsewhere
        try:
            return cls(**{f: vals.pop(prefix + f) for f in fields if prefix + f in vals})
        except FieldError as exc:  # the message starts with the field; prefixed, the key
            raise ValueError(prefix + str(exc)) from None

    weights = nested(LossWeights, "", "lambda_s", "lambda_f", "lambda_c")
    census = nested(CensusParams, "census_", "radius", "epsilon", "charbonnier_eps")
    fb = nested(FBCheckParams, "fb_", "alpha1", "alpha2")
    return OptimizerConfig(weights=weights, census=census, fb_params=fb, **vals)

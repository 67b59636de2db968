"""Flat key=value run configuration with command-line overrides."""

from __future__ import annotations

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
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def parse_overrides(items) -> dict:
    """--set style 'key=value' strings to a dict."""
    out = {}
    for item in items or ():
        if "=" not in item:
            raise ValueError(f"override '{item}': expected key=value")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    return out


def optimizer_config_from(settings: dict) -> OptimizerConfig:
    """Build an OptimizerConfig from string settings; unknown keys error."""
    unknown = set(settings) - _KNOWN
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    vals: dict = {}
    for key, raw in settings.items():
        if key in _FLOAT_KEYS:
            vals[key] = float(raw)
        elif key in _INT_KEYS:
            vals[key] = int(raw)
        elif key == "scale_weights":
            vals[key] = tuple(float(v) for v in raw.split(","))

    def nested(cls, prefix, *fields):
        # only the keys given: the dataclass keeps its own default elsewhere
        return cls(**{f: vals.pop(prefix + f) for f in fields if prefix + f in vals})

    weights = nested(LossWeights, "", "lambda_s", "lambda_f", "lambda_c")
    census = nested(CensusParams, "census_", "radius", "epsilon", "charbonnier_eps")
    fb = nested(FBCheckParams, "fb_", "alpha1", "alpha2")
    return OptimizerConfig(weights=weights, census=census, fb_params=fb, **vals)

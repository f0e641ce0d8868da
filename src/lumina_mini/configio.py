"""Plain-text run configuration.

Format: sections in square brackets, ``key = value`` lines, ``#`` comments.
Every field has a default; unknown sections or keys are errors. Overrides use
dotted paths (``stages.low_res.steps=0``). ``format_config`` writes the fully
resolved snapshot, which reproduces the run when fed back in.
"""

from __future__ import annotations

import copy
from dataclasses import fields

from .errors import ConfigError
from .model import ModelConfig
from .trainer import StagePlan

# Each stage's own values; every other stage key takes STAGE_SHARED.
STAGES = {
    "low_res": dict(resolution=16, tier=1, steps=4000, lambda_aux=0.0, template="A"),
    "high_res": dict(resolution=32, tier=2, steps=800, lambda_aux=1.0, template="A"),
    "hq_tune": dict(resolution=32, tier=3, steps=400, lambda_aux=1.0, template="B"),
}
STAGE_SHARED = dict(
    batch_size=8, lr=8e-4, granularity_mix=(0.10, 0.40, 0.25, 0.25), cond_dropout=0.1,
    aux_factor=4, warmup_steps=100, grad_clip=1.0,
)


def default_config() -> dict:
    """Every section with its defaults; the model's are ``ModelConfig``'s own."""
    cfg = {
        "model": {f.name: f.default for f in fields(ModelConfig)},
        "data": {
            "n_total": 100000,
            "tier_fractions": (0.90, 0.09, 0.01),
            "seed": 7,
        },
        "train": {"seed": 0},
    }
    keys = [f.name for f in fields(StagePlan) if f.name != "name"]
    for name, own in STAGES.items():
        values = {**STAGE_SHARED, **own}
        cfg[f"stages.{name}"] = {key: values[key] for key in keys}
    return cfg


def _coerce(raw: str, default):
    """Parse raw as the type of default: int, float, tuple of either, or str."""
    raw = raw.strip()
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if isinstance(default, tuple):
            parts = [p for p in raw.replace("(", "").replace(")", "").split(",") if p.strip()]
            elem = int if isinstance(default[0], int) else float
            return tuple(elem(p) for p in parts)
    except ValueError:
        raise ConfigError(
            f"expected a {type(default).__name__} like {default!r}, got {raw!r}"
        ) from None
    return raw


def _set_key(cfg: dict, section: str, key: str, raw: str) -> None:
    if section not in cfg:
        raise ConfigError(f"unknown config section [{section}]")
    if key not in cfg[section]:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    cfg[section][key] = _coerce(raw, cfg[section][key])


def parse_config(text: str, base: dict | None = None) -> dict:
    cfg = copy.deepcopy(base) if base is not None else default_config()
    section = None
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in cfg:
                raise ConfigError(f"unknown config section [{section}] (line {lineno})")
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' (line {lineno}): {line!r}")
        if section is None:
            raise ConfigError(f"key outside any section (line {lineno}): {line!r}")
        key, raw = line.split("=", 1)
        _set_key(cfg, section, key.strip(), raw)
    return cfg


def apply_overrides(cfg: dict, overrides) -> dict:
    """Dotted-path overrides: 'stages.low_res.steps=0'."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        path, raw = item.split("=", 1)
        path = path.strip().lstrip("-")
        if "." not in path:
            raise ConfigError(f"override path needs a section: {item!r}")
        section, key = path.rsplit(".", 1)
        _set_key(cfg, section, key, raw)
    return cfg


def _format_value(v) -> str:
    if isinstance(v, tuple):
        return ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def format_config(cfg: dict) -> str:
    lines = []
    for section in cfg:
        lines.append(f"[{section}]")
        for key, value in cfg[section].items():
            lines.append(f"{key} = {_format_value(value)}")
        lines.append("")
    return "\n".join(lines)


def build_model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(**cfg["model"])


def build_stage_plans(cfg: dict) -> list:
    plans = []
    for name in STAGES:
        section = dict(cfg[f"stages.{name}"])
        plans.append(StagePlan(name=name, **section))
    return plans

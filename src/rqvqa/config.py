"""Run configuration: a flat key=value text file plus per-command overrides.

Example:

    # lines starting with # are comments
    seed = 7
    registry = toy
    train.learning_rate = 1e-4
    train.hidden = 512
    gms.grid_count = 4
    gms.patch_size = 8
    split.grouping = by-scene
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .features import ExtractionConfig
from .fusion import LOSSES, TrainConfig
from .harness import GROUPINGS, SplitConfig
from .preproc import read_key_values, split_key_value

# backbone sources take their widths from the first video's sidecar headers
REGISTRIES = ("toy", "backbone")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    registry: str = "toy"
    train: TrainConfig = field(default_factory=TrainConfig)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)
    split: SplitConfig = field(default_factory=SplitConfig)


def _one_of(choices: tuple[str, ...]):
    def parse(text: str) -> str:
        if text in choices:
            return text
        raise ConfigError(f"expected one of {', '.join(choices)}, got {text!r}")
    return parse


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ConfigError(f"expected an integer >= 0, got {text!r}")
    return value


# key -> (section attr or None for top level, field name, parser)
_KEYS = {
    "seed": (None, "seed", _non_negative_int),
    "registry": (None, "registry", _one_of(REGISTRIES)),
    "train.learning_rate": ("train", "learning_rate", float),
    "train.batch_size": ("train", "batch_size", int),
    "train.epochs": ("train", "epochs", int),
    "train.lr_decay_epoch": ("train", "lr_decay_epoch", int),
    "train.loss": ("train", "loss", _one_of(tuple(LOSSES))),
    "train.hidden": ("train", "hidden", int),
    "train.mhsa_heads": ("train", "mhsa_heads", int),
    "gms.grid_count": ("extraction", "gms_grid_count", int),
    "gms.patch_size": ("extraction", "gms_patch_size", int),
    "gms.seed": ("extraction", "gms_seed", _non_negative_int),
    "split.ratio": ("split", "ratio", float),
    "split.grouping": ("split", "grouping", _one_of(GROUPINGS)),
}


def _parse_setting(key: str, value: str):
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    section, attr, parse = _KEYS[key]
    try:
        return section, attr, parse(value)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{key}: {exc}") from None


def load_config(path: str | Path | None = None,
                overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from an optional file and key=value overrides.

    All settings are collected before any dataclass is constructed, so
    validation sees the final values regardless of key order.
    """
    settings: dict[str | None, dict[str, object]] = {}

    def collect(key: str, value: str):
        section, attr, parsed = _parse_setting(key, value)
        settings.setdefault(section, {})[attr] = parsed

    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file {path} not found")
        for _, key, value in read_key_values(path, ConfigError):
            collect(key, value)
    for item in overrides or []:
        collect(*split_key_value(item, f"override {item!r}", ConfigError))

    cfg = RunConfig(
        train=TrainConfig(**settings.get("train", {})),
        extraction=ExtractionConfig(**settings.get("extraction", {})),
        split=SplitConfig(**settings.get("split", {})),
        **settings.get(None, {}),
    )
    return cfg

"""Pipeline configuration: defaults plus a JSON key-value config file.

Every knob has a desk-scale default tuned for the synthetic benchmark, so
``adlink pipeline`` runs with no config at all. A config file overrides
per-section keys; unknown keys are rejected rather than silently ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path


@dataclass
class SynthConfig:
    n_sources: int = 50
    ads_per_source: tuple[int, int] = (20, 60)
    phones_per_source: tuple[int, int] = (3, 4)
    phone_visibility: float = 0.78
    ring_fraction: float = 0.3
    phone_collision_rate: float = 0.0
    repost_rate: float = 0.3
    time_span_days: int = 180
    noise_vocab_size: int = 3000


@dataclass
class SamplerConfig:
    n_pos: int = 4000
    n_neg: int = 4000
    # "candidates" draws negatives from the cross-component blocking
    # candidates, so the classifier trains on the pair population it will
    # score; "uniform" draws from all cross-component pairs.
    negative_source: str = "candidates"
    same_city_negatives: bool = False
    histogram_bins: int = 20


@dataclass
class ModelConfig:
    kind: str = "forest"  # "forest" | "logistic"
    n_trees: int = 100
    max_depth: int = 12
    min_leaf: int = 5
    features_per_split: int = 0  # 0 -> sqrt(d)
    l2: float = 1e-3
    epochs: int = 300
    lr: float = 0.5
    test_fraction: float = 0.3


@dataclass
class BlockingConfig:
    # The synthetic benchmark keys on per-source signature tokens whose
    # document frequency tracks ads-per-source, hence a ceiling at the top
    # of that range rather than the library default of 10.
    rarity_threshold: int = 60
    max_block_size: int = 200


@dataclass
class ResolveConfig:
    thresholds: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98)
    # largest component allowed, as a fraction of the corpus, on the merge
    # curve of every scored candidate (a sample's curve would underestimate
    # the low-threshold merge cascade)
    max_largest_fraction: float = 0.05


@dataclass
class ClusterConfig:
    min_size: int = 10
    max_rules: int = 4
    min_support: int = 3
    beam_width: int = 5
    n_quantiles: int = 16
    n_folds: int = 4
    n_random_baselines: int = 100
    n_trees: int = 30
    max_depth: int = 6
    min_leaf: int = 2
    labels_path: str = ""  # optional external cluster labels csv


@dataclass
class PipelineConfig:
    out_dir: str = "runs/default"
    seed: int = 7
    threads: int = 1
    input: str = ""  # source JSONL for `ingest`; empty -> synthetic
    synth: SynthConfig = field(default_factory=SynthConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    blocking: BlockingConfig = field(default_factory=BlockingConfig)
    resolve: ResolveConfig = field(default_factory=ResolveConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)

    def validate(self) -> None:
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.model.kind not in ("forest", "logistic"):
            raise ValueError(f"unknown model kind {self.model.kind!r}")
        if self.sampler.negative_source not in ("uniform", "candidates"):
            raise ValueError(f"unknown negative_source {self.sampler.negative_source!r}")
        if not 0.0 < self.model.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if len(set(self.resolve.thresholds)) < 2:
            raise ValueError("resolve.thresholds needs at least two distinct values")
        if not 0.0 < self.resolve.max_largest_fraction <= 1.0:
            raise ValueError("max_largest_fraction must be in (0, 1]")


_SECTIONS = {
    "synth": SynthConfig,
    "sampler": SamplerConfig,
    "model": ModelConfig,
    "blocking": BlockingConfig,
    "resolve": ResolveConfig,
    "cluster": ClusterConfig,
}
_TOP_LEVEL = {"out_dir", "seed", "threads", "input"}


def _apply(section_obj, values: dict, section_name: str):
    known = {f.name: f for f in fields(section_obj)}
    for key, value in values.items():
        if key not in known:
            raise ValueError(f"unknown config key {section_name}.{key}")
        current = getattr(section_obj, key)
        if isinstance(current, tuple):
            value = tuple(value)
        setattr(section_obj, key, value)


def load_config(path: str | Path | None) -> PipelineConfig:
    """Config file -> PipelineConfig; None loads pure defaults."""
    cfg = PipelineConfig()
    if path is None:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config root must be a JSON object")
    for key, value in raw.items():
        if key in _TOP_LEVEL:
            setattr(cfg, key, value)
        elif key in _SECTIONS:
            if not isinstance(value, dict):
                raise ValueError(f"config section {key} must be an object")
            _apply(getattr(cfg, key), value, key)
        else:
            raise ValueError(f"unknown config key {key}")
    cfg.validate()
    return cfg


def config_to_dict(cfg: PipelineConfig) -> dict:
    out: dict = {k: getattr(cfg, k) for k in sorted(_TOP_LEVEL)}
    for name in _SECTIONS:
        section = getattr(cfg, name)
        out[name] = {
            f.name: (list(v) if isinstance(v := getattr(section, f.name), tuple) else v)
            for f in fields(section)
        }
    return out

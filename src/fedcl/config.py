"""Experiment configuration: validated dataclasses, YAML loading, presets,
and the ablation arm definitions. The ``data`` section is
``datagen.ScenarioSpec``; ``ExperimentConfig.validate`` checks every section.

An arm names a (metadata_enabled, aggregation_mode) combination so every
ablation runs from one base config:

    fedavg      no metadata, sample-count aggregation
    fedmoco_m   metadata only
    fedmoco_s   self-adaptive aggregation only
    fedmoco     both modules
    oracle      single node holding the pooled data
"""

from __future__ import annotations

import copy
import math
import numbers
import re
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import yaml

from .datagen import ScenarioSpec
from .errors import ConfigError
from .evaluate import FineTuneConfig, ProbeConfig
from .nn import LayerShape, mlp_shapes
from .seeding import seed_for


@dataclass
class ExperimentConfig:
    # federation
    nodes: int = 3
    rounds: int = 200
    warmup_rounds: int = 50
    aggregation_mode: str = "self_adaptive"
    metadata_enabled: bool = True
    eta: float = 0.05
    # intra-node contrastive training
    queue_capacity: int = 1024
    batch_size: int = 64
    momentum_coeff: float = 0.999
    temperature: float = 0.2
    epochs_per_round: int = 1
    lr: float = 0.03
    lr_milestones: list = field(default_factory=lambda: [[120, 0.1], [160, 0.01]])
    sgd_momentum: float = 0.9
    weight_decay: float = 1e-4
    # encoder
    hidden_dims: list = field(default_factory=lambda: [64])
    feature_dim: int = 32
    # distribution metadata
    boxcox_lambda: float = 0.5
    # aggregation scoring
    probe_size: int = 100
    # data and seeds
    data: ScenarioSpec = field(default_factory=ScenarioSpec)
    seed: int = 0
    # evaluation
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    fine_tune: FineTuneConfig = field(default_factory=FineTuneConfig)
    run_probe: bool = True
    run_fine_tune: bool = False
    fine_tune_fraction: float = 0.03

    # -- validation -------------------------------------------------------

    def validate(self) -> "ExperimentConfig":
        _check_types(self)
        checks = [
            (self.nodes >= 1, "nodes: must be at least 1"),
            (self.rounds >= 0, "rounds: must be non-negative"),
            (0 <= self.warmup_rounds <= self.rounds, "warmup_rounds: must lie in [0, rounds]"),
            (self.aggregation_mode in ("self_adaptive", "fedavg"),
             f"aggregation_mode: unknown mode '{self.aggregation_mode}'"),
            (0 <= self.eta <= 1, "eta: must lie in [0, 1]"),
            (self.boxcox_lambda > 0, "boxcox_lambda: must be positive"),
            (self.queue_capacity >= 0, "queue_capacity: must be non-negative"),
            (self.batch_size >= 1, "batch_size: must be at least 1"),
            (0 <= self.momentum_coeff < 1, "momentum_coeff: must lie in [0, 1)"),
            (self.temperature > 0, "temperature: must be positive"),
            (self.epochs_per_round >= 1, "epochs_per_round: must be at least 1"),
            (self.lr >= 0, "lr: must be non-negative"),
            (0 <= self.sgd_momentum < 1, "sgd_momentum: must lie in [0, 1)"),
            (self.weight_decay >= 0, "weight_decay: must be non-negative"),
            (self.feature_dim >= 2, "feature_dim: must be at least 2"),
            (all(h >= 1 for h in self.hidden_dims), "hidden_dims: entries must be positive"),
            (self.probe_size >= 3, "probe_size: must be at least 3"),
            (self.seed >= 0, "seed: must be non-negative"),
            (0 < self.fine_tune_fraction <= 1, "fine_tune_fraction: must lie in (0, 1]"),
            (self.probe.epochs >= 1, "probe.epochs: must be at least 1"),
            (self.fine_tune.epochs >= 1, "fine_tune.epochs: must be at least 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        for pair in self.lr_milestones:
            if len(pair) != 2 or pair[0] < 1 or pair[1] <= 0:
                raise ConfigError(f"lr_milestones: bad entry {pair!r} (want [round, factor])")
        self.data.validate(self.nodes)
        per_class = (self.data.eval_per_class + 1) // 2  # labeled train images per class
        if self.run_fine_tune and math.floor(self.fine_tune_fraction * per_class) < 1:
            raise ConfigError(f"fine_tune_fraction: {self.fine_tune_fraction} of the {per_class} "
                              f"labeled train images per class leaves none to fine-tune on")
        return self

    # -- derived objects ---------------------------------------------------

    def encoder_shapes(self) -> tuple[LayerShape, ...]:
        return mlp_shapes(self.data.image_size ** 2, self.hidden_dims, self.feature_dim)

    def node_seed(self, node_id: int) -> int:
        return seed_for(self.seed, "node", node_id)

    def metadata_rounds(self) -> range:
        """The rounds that exchange metadata: every round after warm-up, when
        ``metadata_enabled`` is set."""
        if not self.metadata_enabled:
            return range(0)
        return range(self.warmup_rounds + 1, self.rounds + 1)

    def lr_at(self, round_index: int) -> float:
        factor = 1.0
        for milestone, f in sorted(tuple(p) for p in self.lr_milestones):
            if round_index >= milestone:
                factor = f
        return self.lr * factor


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A real number that a float holds: neither NaN nor infinite, nor an
    integer beyond the float range."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# Field annotation -> (type test, what the error asks for). Float fields take
# integers; integer fields refuse booleans, which Python counts as integers.
_TYPES = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _is_pair(value) -> bool:
    return isinstance(value, (list, tuple)) and all(map(_is_number, value))


_ITEMS = {
    "hidden_dims": (_is_int, "a list of integers"),
    "lr_milestones": (_is_pair, "a list of [round, factor] pairs"),
}


def _check_types(obj, prefix: str = "") -> None:
    """Raise ``ConfigError`` naming the first field of the config dataclass
    ``obj`` whose value has the wrong type; sections are checked under their
    dotted names. ``validate`` runs this before any range check, so a
    comparison never meets a string or a list."""
    for f in fields(obj):
        name, value = f"{prefix}{f.name}", getattr(obj, f.name)
        if is_dataclass(value):
            _check_types(value, f"{name}.")
            continue
        if f.name in _ITEMS:
            item_ok, want = _ITEMS[f.name]
            ok = isinstance(value, (list, tuple)) and all(map(item_ok, value))
        else:
            type_ok, want = _TYPES[f.type]
            ok = type_ok(value)
        if not ok:
            raise ConfigError(f"{name}: expected {want}, got {value!r}")


_NESTED = {"data": ScenarioSpec, "probe": ProbeConfig, "fine_tune": FineTuneConfig}


def _build(dc_cls, data: dict, prefix: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config'}: expected a mapping")
    known = {f.name for f in fields(dc_cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"{prefix}{key}: unknown field")
        if dc_cls is ExperimentConfig and key in _NESTED and not isinstance(value, _NESTED[key]):
            kwargs[key] = _build(_NESTED[key], value, f"{prefix}{key}.")
        else:
            kwargs[key] = value
    return dc_cls(**kwargs)


def from_dict(data: dict | None) -> ExperimentConfig:
    """Build a config from a (possibly partial) nested mapping; unknown keys
    are reported by their dotted path. ``None`` (an empty YAML file) is the
    empty mapping; any other non-mapping is refused."""
    return _build(ExperimentConfig, {} if data is None else data, "")


def to_dict(config: ExperimentConfig) -> dict:
    return asdict(config)


class YamlLoader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 floats such as ``1e-3`` (YAML 1.1 needs a dot)."""


YamlLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+.0123456789"))


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=YamlLoader)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc})") from exc
    except (yaml.YAMLError, RecursionError) as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    try:
        cfg = from_dict(raw)
        cfg.validate()
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


def save_config(config: ExperimentConfig, path) -> None:
    from .federation import write_atomic  # federation imports this module
    write_atomic(path, yaml.safe_dump(to_dict(config), sort_keys=True))


# -- ablation arms ----------------------------------------------------------

ARMS = {
    "fedavg": {"metadata_enabled": False, "aggregation_mode": "fedavg"},
    "fedmoco_m": {"metadata_enabled": True, "aggregation_mode": "fedavg"},
    "fedmoco_s": {"metadata_enabled": False, "aggregation_mode": "self_adaptive"},
    "fedmoco": {"metadata_enabled": True, "aggregation_mode": "self_adaptive"},
    "oracle": {"metadata_enabled": False, "aggregation_mode": "self_adaptive"},
}


def apply_arm(config: ExperimentConfig, arm: str) -> ExperimentConfig:
    """Copy of ``config`` with one arm's module toggles applied.

    The oracle arm pools every node's data into a single centralized node of
    the same total size (the class mix reverts to the full palette).
    """
    if arm not in ARMS:
        raise ConfigError(f"arms: unknown arm '{arm}' (choose from {sorted(ARMS)})")
    cfg = copy.deepcopy(config)
    for key, value in ARMS[arm].items():
        setattr(cfg, key, value)
    if arm == "oracle":
        total = sum(config.data.node_sizes(config.nodes))
        cfg.nodes = 1
        cfg.data.scenario = "equal"
        cfg.data.base_size = total
    return cfg.validate()


# -- presets ----------------------------------------------------------------

@dataclass(frozen=True)
class Preset:
    overrides: dict
    arms: tuple[str, ...] = ("fedmoco",)
    node_counts: tuple[int, ...] = ()  # empty: keep the overrides' node count


_DESK = {
    "nodes": 3,
    "rounds": 40,
    "warmup_rounds": 10,
    "queue_capacity": 256,
    "batch_size": 32,
    "data": {"base_size": 2000},
}

PRESETS = {
    "desk": Preset(dict(_DESK)),
    "table1-desk": Preset(dict(_DESK), arms=("fedavg", "fedmoco"), node_counts=(3, 6)),
    "ablation-desk": Preset(
        {**_DESK, "data": {"base_size": 800, "scenario": "label_skew"}},
        arms=("fedavg", "fedmoco_m", "fedmoco_s", "fedmoco"),
    ),
    "finetune-desk": Preset(
        # The noisier downstream rendering keeps 3%-label fine-tuning from
        # saturating, so the pretrained-vs-random gap stays measurable.
        {**_DESK, "data": {"base_size": 1200, "eval_noise": 0.55}, "run_fine_tune": True},
    ),
    "smoke": Preset(
        {
            "nodes": 3,
            "rounds": 4,
            "warmup_rounds": 1,
            "queue_capacity": 32,
            "batch_size": 16,
            "probe_size": 16,
            "data": {"base_size": 48, "eval_per_class": 40},
            "probe": {"epochs": 10},
        },
        arms=("fedavg", "fedmoco"),
    ),
}


def preset_config(name: str) -> tuple[ExperimentConfig, Preset]:
    if name not in PRESETS:
        raise ConfigError(f"preset: unknown preset '{name}' (choose from {sorted(PRESETS)})")
    preset = PRESETS[name]
    cfg = from_dict(copy.deepcopy(preset.overrides))
    cfg.validate()
    return cfg, preset

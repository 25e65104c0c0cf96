import copy
import dataclasses
import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcl.cli import _jsonl_records, main
from fedcl.config import (ARMS, ExperimentConfig, PRESETS, apply_arm,
                          from_dict, load_config, preset_config, save_config,
                          to_dict)
from fedcl.datagen import make_eval_split
from fedcl.errors import ConfigError
from fedcl.nn import LayerShape
from fedcl.seeding import seed_for


def small_config(**kw):
    base = {
        "nodes": 3, "rounds": 4, "warmup_rounds": 1,
        "queue_capacity": 16, "batch_size": 8, "probe_size": 8,
        "data": {"base_size": 12, "eval_per_class": 4},
    }
    base.update(kw)
    return from_dict(base)


def test_defaults_validate():
    cfg = ExperimentConfig()
    cfg.validate()
    assert cfg.encoder_shapes() == (LayerShape(64, 256), LayerShape(32, 64))


# The last five were settings once: a config.yaml that still holds one is
# refused, not read without it.
@pytest.mark.parametrize("key", ["data.nope", "mystery", "metadata_timing", "node_seeds",
                                 "data.noise_sigmas", "probe.seed", "fine_tune.seed"])
def test_unknown_keys_report_dotted_path(key, tmp_path):
    raw = to_dict(small_config())
    *sections, name = key.split(".")
    target = raw
    for section in sections:
        target = target[section]
    target[name] = 1
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: unknown field"):
        from_dict(raw)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    with pytest.raises(ConfigError, match=rf"config\.yaml: {re.escape(key)}: unknown field"):
        load_config(path)


def test_dict_roundtrip():
    cfg = small_config(eta=0.1, lr=0.05)
    assert from_dict(to_dict(cfg)) == cfg


def test_validate_messages_name_the_field(tmp_path):
    for overrides, needle in [
        ({"nodes": "3"}, "^nodes: expected an integer"),
        ({"nodes": True}, "^nodes: expected an integer"),
        ({"lr": "0.1"}, "^lr: expected a finite number"),
        ({"hidden_dims": 64}, "^hidden_dims: expected a list of integers"),
        ({"hidden_dims": [64.0]}, "^hidden_dims: expected a list of integers"),
        ({"lr_milestones": [5]}, "^lr_milestones: expected a list of"),
        ({"run_probe": 1}, "^run_probe: expected true or false"),
        ({"aggregation_mode": 3}, "^aggregation_mode: expected a string"),
        ({"data": {"base_size": "12"}}, "^data.base_size: expected an integer"),
        ({"fine_tune": {"epochs": "3"}}, "^fine_tune.epochs: expected an integer"),
        ({"eta": float("inf")}, r"^eta: expected a finite number, got inf"),
        ({"boxcox_lambda": float("nan")}, "^boxcox_lambda: expected a finite number, got nan"),
        ({"lr": float("inf")}, "^lr: expected a finite number"),
        ({"temperature": float("inf")}, "^temperature: expected a finite number"),
        ({"fine_tune_fraction": -float("inf")}, "^fine_tune_fraction: expected a finite number"),
        ({"lr": 10 ** 400}, "^lr: expected a finite number"),
        ({"lr_milestones": [[5, float("nan")]]}, "^lr_milestones: expected a list of"),
        # settings no run varied, now constants: a config that sets one is refused
        ({"cov_jitter": 1e-8}, "^cov_jitter: unknown field"),
        ({"data": {"eval_offset": 0.08}}, "^data.eval_offset: unknown field"),
        ({"data": {"eval_texture_freq": 1.5}}, "^data.eval_texture_freq: unknown field"),
        ({"probe": {"lr": 0.1}}, "^probe.lr: unknown field"),
        ({"probe": {"batch_size": 64}}, "^probe.batch_size: unknown field"),
        ({"fine_tune": {"lr": 0.01}}, "^fine_tune.lr: unknown field"),
        ({"fine_tune": {"batch_size": 32}}, "^fine_tune.batch_size: unknown field"),
        ({"fine_tune": {"momentum": 0.9}}, "^fine_tune.momentum: unknown field"),
        ({"fine_tune": {"weight_decay": 1e-4}}, "^fine_tune.weight_decay: unknown field"),
        ({"eta": 1.5}, r"^eta: must lie in \[0, 1\]"),
        ({"eta": -0.1}, r"^eta: must lie in \[0, 1\]"),
        ({"boxcox_lambda": 0.0}, "^boxcox_lambda: must be positive"),
        ({"boxcox_lambda": -1.0}, "^boxcox_lambda: must be positive"),
        ({"nodes": 0}, "nodes"),
        ({"rounds": 2, "warmup_rounds": 5}, "warmup_rounds"),
        ({"aggregation_mode": "mean"}, "aggregation_mode"),
        ({"temperature": 0.0}, "temperature"),
        ({"momentum_coeff": 1.0}, "momentum_coeff"),
        ({"fine_tune_fraction": 0.0}, "fine_tune_fraction"),
        ({"probe": {"epochs": 0}}, "probe.epochs"),
        ({"fine_tune": {"epochs": 0}}, "fine_tune.epochs"),
        ({"data": {"scenario": "mystery"}}, "data.scenario"),
    ]:
        with pytest.raises(ConfigError, match=needle):
            small_config(**overrides).validate()
    with pytest.raises(ConfigError, match="data.base_size"):
        small_config(data={"base_size": 2}).validate()
    for section in ("data", "probe", "fine_tune"):
        with pytest.raises(ConfigError, match=f"^{section}: expected a mapping"):
            small_config(**{section: None})
    small_config(lr=1, data={"gamma": 10, "base_size": 12}).validate()  # ints fill floats
    small_config(eta=1.0, boxcox_lambda=1e-3).validate()  # eta's top edge, a small lambda
    path = tmp_path / "config.yaml"
    path.write_text("nodes: '3'\n")
    with pytest.raises(ConfigError, match=r"config\.yaml: nodes: expected an integer, got '3'"):
        load_config(path)
    for text, needle in [("eta: .inf\n", "eta: expected a finite number, got inf"),
                         ("lr: .nan\n", "lr: expected a finite number, got nan")]:
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"config\.yaml: {needle}"):
            load_config(path)


def test_fine_tune_needs_one_labeled_image_per_class():
    """``fine_tune`` takes floor(fraction * n) of the n = ceil(eval_per_class
    / 2) labeled train images per class; a run where that is 0 is refused
    before it trains, and only when it fine-tunes."""
    small_config(run_fine_tune=True, data={"base_size": 12, "eval_per_class": 67}).validate()
    small_config(data={"base_size": 12, "eval_per_class": 65}).validate()
    with pytest.raises(ConfigError, match=r"^fine_tune_fraction: 0\.03 of the 33 labeled"):
        small_config(run_fine_tune=True, data={"base_size": 12, "eval_per_class": 65}).validate()


def test_lr_schedule_steps_down_at_milestones():
    cfg = small_config(lr=0.03, rounds=200, warmup_rounds=10,
                       lr_milestones=[[120, 0.1], [160, 0.01]])
    assert cfg.lr_at(1) == 0.03
    assert cfg.lr_at(119) == 0.03
    assert cfg.lr_at(120) == 0.03 * 0.1
    assert cfg.lr_at(159) == 0.03 * 0.1
    assert cfg.lr_at(160) == 0.03 * 0.01
    assert cfg.lr_at(200) == 0.03 * 0.01


def test_metadata_rounds_follow_warmup_and_the_switch():
    assert small_config(rounds=4, warmup_rounds=1).metadata_rounds() == range(2, 5)
    assert small_config(rounds=4, warmup_rounds=4).metadata_rounds() == range(5, 5)
    assert not small_config(rounds=4, warmup_rounds=0, metadata_enabled=False).metadata_rounds()


def test_node_seeds_derive_from_the_run_seed():
    cfg = small_config(seed=7)
    seeds = [cfg.node_seed(k) for k in range(3)]
    assert seeds == [seed_for(7, "node", k) for k in range(3)]
    assert len(set(seeds)) == 3


def test_arm_toggle_table():
    cfg = small_config()
    expected = {
        "fedavg": (False, "fedavg"),
        "fedmoco_m": (True, "fedavg"),
        "fedmoco_s": (False, "self_adaptive"),
        "fedmoco": (True, "self_adaptive"),
    }
    for arm, (meta, mode) in expected.items():
        out = apply_arm(cfg, arm)
        assert (out.metadata_enabled, out.aggregation_mode) == (meta, mode)
    assert set(expected) | {"oracle"} == set(ARMS)
    # the input config is never mutated
    assert cfg.aggregation_mode == "self_adaptive" and cfg.metadata_enabled


def test_oracle_arm_pools_everything():
    cfg = small_config(data={"base_size": 12, "scenario": "label_skew",
                             "eval_per_class": 4})
    out = apply_arm(cfg, "oracle")
    assert out.nodes == 1
    assert out.data.scenario == "equal"
    assert out.data.base_size == 36  # 3 nodes x 12 images pooled
    assert not out.metadata_enabled


def test_unknown_arm():
    with pytest.raises(ConfigError, match="arm"):
        apply_arm(small_config(), "fancy")


def test_yaml_roundtrip(tmp_path):
    cfg = small_config(eta=0.07)
    path = tmp_path / "exp.yaml"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_load_config_prefixes_file_errors(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("rounds: [unclosed\n")
    with pytest.raises(ConfigError, match="bad.yaml"):
        load_config(path)
    path.write_text("nodes: 0\n")
    with pytest.raises(ConfigError, match="bad.yaml"):
        load_config(path)


def test_presets_all_build(tmp_path):
    """Every config a `fedcl run --preset` sweep writes to config.yaml, built
    as cmd_run builds it (each arm at each node count), validates and reads
    back equal."""
    for name in PRESETS:
        base, preset = preset_config(name)
        base.validate()
        assert all(arm in ARMS for arm in preset.arms)
        for arm in preset.arms:
            for k in preset.node_counts or (None,):
                cfg = dataclasses.replace(copy.deepcopy(base), seed=3)
                if k is not None:
                    cfg.nodes = k
                cfg = apply_arm(cfg, arm).validate()
                path = tmp_path / f"{name}-{arm}-{k}.yaml"
                save_config(cfg, path)
                assert load_config(path) == cfg
    with pytest.raises(ConfigError, match="preset"):
        preset_config("imaginary")


def test_desk_preset_matches_documented_scale():
    cfg, _ = preset_config("desk")
    assert (cfg.nodes, cfg.rounds, cfg.warmup_rounds) == (3, 40, 10)
    assert cfg.data.base_size == 2000


def test_full_scale_defaults_match_documented_protocol():
    cfg = ExperimentConfig()
    assert (cfg.rounds, cfg.warmup_rounds) == (200, 50)
    assert (cfg.queue_capacity, cfg.momentum_coeff, cfg.temperature) == (1024, 0.999, 0.2)
    assert (cfg.eta, cfg.boxcox_lambda) == (0.05, 0.5)
    assert (cfg.lr, cfg.sgd_momentum, cfg.weight_decay) == (0.03, 0.9, 1e-4)


def _dotted(mapping, prefix=""):
    for key, value in mapping.items():
        if isinstance(value, dict):
            yield from _dotted(value, f"{prefix}{key}.")
        else:
            yield prefix + key


# Every value a config can set. A new setting is added here in the same
# change, where a reviewer sees the config grow.
SETTABLE = frozenset({
    "nodes", "rounds", "warmup_rounds", "aggregation_mode", "metadata_enabled", "eta",
    "queue_capacity", "batch_size", "momentum_coeff", "temperature", "epochs_per_round",
    "lr", "lr_milestones", "sgd_momentum", "weight_decay", "hidden_dims", "feature_dim",
    "boxcox_lambda", "probe_size", "seed", "run_probe", "run_fine_tune",
    "fine_tune_fraction", "data.scenario", "data.base_size", "data.gamma",
    "data.image_size", "data.eval_per_class", "data.eval_noise", "probe.epochs",
    "fine_tune.epochs",
})


def test_settable_values_are_pinned():
    assert len(SETTABLE) == 31
    assert set(_dotted(to_dict(ExperimentConfig()))) == SETTABLE


# A field and a value just outside its bound.
OUTSIDE = [("nodes", 0), ("rounds", -1), ("warmup_rounds", -1), ("queue_capacity", -1),
           ("batch_size", 0), ("probe_size", 2), ("feature_dim", 1), ("hidden_dims", [0]),
           ("eta", -0.1), ("eta", 1.1), ("fine_tune_fraction", 0.0),
           ("fine_tune_fraction", 1.1), ("data.scenario", "uniform"), ("data.base_size", 2),
           ("data.gamma", 0.0), ("data.gamma", 100.5), ("data.image_size", 7),
           ("data.eval_per_class", 1)]


@st.composite
def tiny_configs(draw):
    """A tiny config whose structural fields are drawn at and around their
    bounds; three draws in four put one field just outside. Optimizer values
    keep their defaults: a huge learning rate or a tiny temperature diverges
    numerically, which no bound here refuses."""
    rounds = draw(st.integers(0, 3))
    raw = {
        "nodes": draw(st.integers(1, 4)),
        "rounds": rounds,
        "warmup_rounds": draw(st.integers(0, rounds)),
        "queue_capacity": draw(st.integers(0, 5)),
        "batch_size": draw(st.integers(1, 9)),
        "probe_size": draw(st.integers(3, 9)),
        "feature_dim": draw(st.integers(2, 4)),
        "hidden_dims": draw(st.lists(st.integers(1, 5), max_size=2)),
        "eta": draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        "fine_tune_fraction": draw(st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True)),
        "run_fine_tune": draw(st.booleans()),
        "probe": {"epochs": 2},
        "fine_tune": {"epochs": 2},
        "data": {
            "scenario": draw(st.sampled_from(["equal", "size_skew", "label_skew"])),
            "base_size": draw(st.integers(3, 8)),
            "gamma": draw(st.just(100.0) | st.floats(0.0, 100.0, exclude_min=True)),
            "image_size": draw(st.sampled_from([8, 9, 16])),
            "eval_per_class": draw(st.integers(2, 8)),
        },
    }
    if draw(st.integers(0, 3)):
        key, value = draw(st.sampled_from(OUTSIDE))
        section, _, name = key.rpartition(".")
        (raw[section] if section else raw)[name] = value
    return raw


@settings(max_examples=300, deadline=None)
@given(raw=tiny_configs(), arm=st.sampled_from(sorted(ARMS)))
def test_every_accepted_config_runs_or_is_refused_by_name(raw, arm):
    """``fedcl run`` either refuses the config with a ``ConfigError`` naming
    one of its fields (exit 2), or trains and evaluates it into a run that
    passes ``fedcl audit`` with finite losses and scores and an evaluation
    split that is not constant."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tiny.yaml"
        path.write_text(yaml.safe_dump(raw))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["run", "--config", str(path), "--arms", arm, "--out", tmp])
        if code == 2:
            message = err.getvalue().removeprefix("config error: ").removeprefix(f"{path}: ")
            assert message.partition(":")[0] in SETTABLE, err.getvalue()
            return
        assert code == 0, err.getvalue()
        run_dir = Path(tmp) / "tiny" / arm / "seed-0"
        with redirect_stdout(io.StringIO()):
            assert main(["audit", str(run_dir)]) == 0
        losses = [rec["loss"] for rec in _jsonl_records(run_dir / "metrics.jsonl", {})]
        scores = [rec["value"] for rec in _jsonl_records(run_dir / "eval.jsonl", {})]
        assert np.isfinite(losses).all() and np.isfinite(scores).all()
        config = load_config(run_dir / "config.yaml")
        for split in make_eval_split(config.data, config.seed):
            assert np.ptp(split.pixels) > 0

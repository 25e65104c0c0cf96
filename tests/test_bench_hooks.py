"""The benchmark reaches into fedcl by name and reads fedcl's config.yaml by
key; a rename or a removed field in src/ must fail here, not only in a
benchmark run."""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest
import yaml

from fedcl import federation
from fedcl.config import apply_arm, from_dict, save_config

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"


def load_bench_module(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_bench_module("bench_tracer", TRACER)


@pytest.fixture(scope="module")
def bench_modules():
    """bench/checks.py, and bench/run.py, which imports it as ``checks``."""
    checks = load_bench_module("bench_checks", BENCH / "checks.py")
    saved = sys.modules.get("checks")
    sys.modules["checks"] = checks
    try:
        run = load_bench_module("bench_run", BENCH / "run.py")
    finally:
        if saved is None:
            del sys.modules["checks"]
        else:
            sys.modules["checks"] = saved
    return run, checks


def test_every_traced_target_resolves_as_install_looks_it_up():
    tracer = load_tracer()
    for name, module, path, _ in tracer.TRACED:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{name}: {module}.{path} not found"
        assert callable(vars(owner)[attr]), name


def test_functions_and_fields_the_bench_child_reads_exist():
    assert callable(federation.run_training)
    assert callable(federation.load_checkpoint)
    fields = {f.name for f in dataclasses.fields(federation.RunResult)}
    assert {"theta0", "messages", "config"} <= fields


@pytest.mark.parametrize("workload", ["desk", "wide", "crowd"])
def test_bench_checks_read_every_workload_config(workload, bench_modules, tmp_path):
    """The bench checks compute every expected value from the config.yaml
    that `fedcl run --arms fedmoco` writes; each key they read must be in it."""
    run, checks = bench_modules
    assert workload in run.WORKLOADS
    config = apply_arm(from_dict(run.workload_config(run.WORKLOADS[workload], 13)), "fedmoco")
    path = tmp_path / "config.yaml"
    save_config(config, path)
    cfg = yaml.safe_load(path.read_text())

    assert {"run_probe", "run_fine_tune", "epochs_per_round"} <= set(cfg)
    assert cfg["data"]["base_size"] == config.data.base_size
    assert checks.layer_dims(cfg) == [config.encoder_shapes()[0].cols,
                                      *[s.rows for s in config.encoder_shapes()]]
    assert checks.expected_message_counts(cfg) == federation.expected_counts(config)
    wire = checks.expected_wire_bytes(cfg)
    assert wire["params_down"] == wire["params_up"] > 0
    assert all(isinstance(checks.expected_synthetic_count(cfg, r), int)
               for r in range(1, cfg["rounds"] + 1))
    assert checks.expected_fine_tune_size(cfg) >= 0

"""The benchmark reaches into fedcl by name and reads fedcl's config.yaml by
key; a rename or a removed field in src/ must fail here, not only in a
benchmark run."""

import dataclasses
import importlib
import importlib.util
import os
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

from fedcl import cli, evaluate, federation, helper, nn
from fedcl.config import apply_arm, from_dict, preset_config, save_config, to_dict

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
    assert checks.expected_message_counts(cfg) == Counter(
        kind for _, kind, _, _ in federation.message_order(config))
    wire = checks.expected_wire_bytes(cfg)
    assert wire["params_down"] == wire["params_up"] > 0
    assert all(isinstance(checks.expected_synthetic_count(cfg, r), int)
               for r in range(1, cfg["rounds"] + 1))
    assert checks.expected_fine_tune_size(cfg) >= 0


def finish_smoke_run(bench_modules, run_dir, monkeypatch) -> int:
    """Train smoke with a 2-epoch fine-tune, finish it into ``run_dir`` as
    `fedcl run` does and check its eval.jsonl with bench/checks.py; returns
    the process id of the one `evaluate.fine_tune` call, whose result
    bench/child.py captures in the process that calls `cli.main`."""
    _, checks = bench_modules
    config, _ = preset_config("smoke")
    raw = to_dict(config)
    raw.update(run_fine_tune=True, fine_tune_fraction=0.25)
    raw["fine_tune"]["epochs"] = 2
    config = apply_arm(from_dict(raw), "fedmoco")
    fine_tunes = []
    real = evaluate.fine_tune

    def capturing(*args, **kwargs):
        fine_tunes.append((os.getpid(), real(*args, **kwargs)))
        return fine_tunes[-1][1]

    monkeypatch.setattr(evaluate, "fine_tune", capturing)
    cli._finish_run(run_dir, config, federation.run_training(config), "fedmoco")

    [(pid, ft)] = fine_tunes
    cfg = checks.run_config(run_dir)
    assert checks._check_eval(run_dir, cfg, {"fine_tune_train_size": ft.train_size}) == []
    return pid


def test_bench_eval_check_accepts_the_eval_records_fedcl_writes(bench_modules, tmp_path,
                                                               monkeypatch):
    """bench/checks.py reads eval.jsonl by metric name; a record it needs
    that `fedcl run` stops writing must fail here."""
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 1)
    assert finish_smoke_run(bench_modules, tmp_path, monkeypatch) == os.getpid()


def test_the_fine_tune_runs_in_the_calling_process_beside_the_forked_probe(
        bench_modules, tmp_path, monkeypatch):
    """On two CPUs the probe and the artifacts go to a forked process, but
    the fine-tune, whose result bench/child.py captures, stays here."""
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 2)
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    assert finish_smoke_run(bench_modules, tmp_path, monkeypatch) == os.getpid()
    assert len(forks) == helper.worker_count(3, 2)  # two for training, one for evaluation
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)

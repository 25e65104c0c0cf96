"""Rounds trained in two processes: ``run_training`` forks one helper that
trains the even-indexed nodes while the parent trains the odd ones.

``nn._usable_cpus`` is patched to 2 to force the helper (it then shares the
one CPU on a one-CPU machine) and to 1 to force the serial path. Every test
that forks checks that no child is left behind.
"""

import faulthandler
import os
from pathlib import Path

import numpy as np
import pytest

from fedcl import contrastive, federation, nn
from fedcl.cli import main
from fedcl.config import from_dict
from fedcl.errors import HelperError, ShapeError

PARENT = os.getpid()

TINY = {
    "nodes": 4, "rounds": 3, "warmup_rounds": 1,
    "queue_capacity": 16, "batch_size": 8, "probe_size": 8, "eta": 0.4,
    "data": {"base_size": 12, "eval_per_class": 4, "scenario": "label_skew"},
}


@pytest.fixture
def forks(monkeypatch):
    """The helper path forced; the list of fork calls made."""
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 2)
    calls = []
    real = os.fork

    def counting():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", counting)
    faulthandler.dump_traceback_later(120, exit=True)  # a hung pipe ends the session
    yield calls
    faulthandler.cancel_dump_traceback_later()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def failing_on(monkeypatch, nodes, make_error):
    """Patch ``local_update`` to raise ``make_error(k)`` on node k in ``nodes``."""
    real = contrastive.local_update
    config = from_dict(TINY)
    seeds = {config.node_seed(k): k for k in nodes}

    def patched(theta, images, synth, config, round_index, rng_seed):
        if rng_seed in seeds:
            raise make_error(seeds[rng_seed])
        return real(theta, images, synth, config, round_index, rng_seed)

    monkeypatch.setattr(contrastive, "local_update", patched)


def run_files(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "timing.jsonl"}


@pytest.mark.parametrize("args", [
    pytest.param(["--preset", "smoke"], id="smoke"),
    *[pytest.param(["--preset", "smoke", "--arms", "fedmoco", "--set", f"nodes={k}",
                    "--set", "data.scenario=label_skew", "--set", "eta=0.2",
                    "--set", "rounds=3", "--set", "data.base_size=24",
                    "--set", "data.eval_per_class=8", "--set", "probe.epochs=3"],
                   id=f"label-skew-{k}") for k in (3, 4)],
])
def test_serial_and_two_process_runs_write_the_same_bytes(tmp_path, monkeypatch, args):
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 1)
    assert main(["run", *args, "--out", str(tmp_path / "serial")]) == 0
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 2)
    assert main(["run", *args, "--out", str(tmp_path / "helper")]) == 0
    runs = len(list((tmp_path / "helper").rglob("digest.txt")))
    assert runs and len(forks) == runs
    serial, helper = run_files(tmp_path / "serial"), run_files(tmp_path / "helper")
    assert serial.keys() == helper.keys()
    assert [name for name in serial if serial[name] != helper[name]] == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_run_gives_back_its_cpus_and_blas_threads(forks):
    cpus = os.sched_getaffinity(0)
    threads = nn._openblas_thread_calls()[0]()
    result = federation.run_training(from_dict(TINY))
    assert forks == [PARENT]
    assert len(result.metrics) == 3
    assert os.sched_getaffinity(0) == cpus
    assert nn._openblas_thread_calls()[0]() == threads


def test_an_error_in_a_helper_node_reaches_the_caller(forks, monkeypatch):
    failing_on(monkeypatch, {2}, lambda k: ShapeError(f"node {k} in process {os.getpid()}"))
    with pytest.raises(ShapeError, match=r"node 2 in process (\d+)") as info:
        federation.run_training(from_dict(TINY))
    assert info.match(rf"process (?!{PARENT}\b)")


def test_an_unpicklable_helper_error_keeps_its_type_name_and_message(forks, monkeypatch):
    class TwoArgError(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a} and {b}")

    failing_on(monkeypatch, {0}, lambda k: TwoArgError("node", k))
    with pytest.raises(RuntimeError, match="^TwoArgError: node and 0$"):
        federation.run_training(from_dict(TINY))


@pytest.mark.parametrize("nodes, first", [({0, 1}, 0), ({1, 2}, 1), ({3}, 3)])
def test_the_first_failing_node_in_node_order_raises(forks, monkeypatch, nodes, first):
    """Nodes 0 and 2 train in the helper, 1 and 3 here; as on one process,
    the error of the lowest-indexed failing node is the one raised."""
    failing_on(monkeypatch, nodes, lambda k: ValueError(f"node {k} failed"))
    with pytest.raises(ValueError, match=f"^node {first} failed$"):
        federation.run_training(from_dict(TINY))


def test_a_helper_that_dies_mid_round_is_a_named_error(forks, monkeypatch):
    real = contrastive.local_update

    def dying(theta, images, synth, config, round_index, rng_seed):
        if os.getpid() != PARENT and round_index == 2:
            os._exit(3)
        return real(theta, images, synth, config, round_index, rng_seed)

    monkeypatch.setattr(contrastive, "local_update", dying)
    with pytest.raises(HelperError, match="exited before sending node 0's round 2 result"):
        federation.run_training(from_dict(TINY))


def test_a_non_finite_loss_in_a_helper_node_is_an_error_line(tmp_path, forks, monkeypatch,
                                                              capsys):
    real = contrastive.local_update

    def nan_in_helper(theta, images, synth, config, round_index, rng_seed):
        trained, losses = real(theta, images, synth, config, round_index, rng_seed)
        return trained, losses if os.getpid() == PARENT else [np.nan] * len(losses)

    monkeypatch.setattr(contrastive, "local_update", nan_in_helper)
    assert main(["run", "--preset", "smoke", "--arms", "fedavg", "--seed", "3",
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: fedavg seed=3: node 0, round 1: local loss is nan\n"
    assert not list(tmp_path.rglob("digest.txt"))


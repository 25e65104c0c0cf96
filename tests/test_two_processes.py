"""Rounds trained in several processes: of W = ``helper.worker_count``,
``run_training`` forks W - 1 workers, worker i training nodes i, i + W, ...,
while the parent trains the last share, receives in node order and
aggregates.

``nn._usable_cpus`` is patched to 2 to force the workers (they then share
the one CPU on a one-CPU machine) and to 1 to force the serial path. Every
test that forks checks that no child is left behind.
"""

import faulthandler
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from fedcl import contrastive, federation, helper, nn
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
    """The worker path forced; the list of fork calls made."""
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


@pytest.mark.parametrize("args, nodes", [
    pytest.param(["--preset", "smoke"], 3, id="smoke"),
    *[pytest.param(["--preset", "smoke", "--arms", "fedmoco", "--set", f"nodes={k}",
                    "--set", "data.scenario=label_skew", "--set", "eta=0.2",
                    "--set", "rounds=3", "--set", "data.base_size=24",
                    "--set", "data.eval_per_class=8", "--set", "probe.epochs=3"],
                   k, id=f"label-skew-{k}") for k in (3, 4)],
])
def test_serial_and_two_process_runs_write_the_same_bytes(tmp_path, monkeypatch, args, nodes):
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 1)
    assert main(["run", *args, "--out", str(tmp_path / "serial")]) == 0
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 2)
    assert main(["run", *args, "--out", str(tmp_path / "workers")]) == 0
    runs = len(list((tmp_path / "workers").rglob("digest.txt")))
    assert runs and len(forks) == runs * (helper.worker_count(nodes, 2) - 1)
    serial, workers = run_files(tmp_path / "serial"), run_files(tmp_path / "workers")
    assert serial.keys() == workers.keys()
    assert [name for name in serial if serial[name] != workers[name]] == []
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


def test_a_live_thread_keeps_every_node_in_this_process(forks, monkeypatch):
    """A fork would leave another thread's locks held in the child, so while
    one is alive the run forks nothing and matches a one-CPU run."""
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        threaded = federation.run_training(from_dict(TINY))
    finally:
        release.set()
        waiting.join()
    assert forks == []
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 1)
    serial = federation.run_training(from_dict(TINY))
    assert threaded.metrics == serial.metrics
    assert threaded.theta0.values.tobytes() == serial.theta0.values.tobytes()


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
    """Nodes 0 and 2 train in the worker, 1 and 3 here; as on one process,
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


@pytest.mark.parametrize("nodes, cpus, processes", [
    (2, 2, 2), (3, 2, 3), (4, 2, 2), (5, 2, 3), (16, 2, 2), (101, 2, 3), (3, 4, 3), (6, 4, 6),
    (1, 1, 0), (1, 2, 0), (1, 4, 0), (3, 1, 0),
])
def test_worker_count(nodes, cpus, processes):
    assert helper.worker_count(nodes, cpus) == processes


def echo(nodes, theta, round_index, store):
    for _ in nodes:
        yield theta, 0.0, 0, None, 0.0


def fd_target(pid, fd) -> str:
    return os.readlink(f"/proc/{pid}/fd/{fd}")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc/<pid>/fd")
@pytest.mark.parametrize("nodes", [3, 4])
def test_each_worker_holds_its_own_pipe_ends_and_one_cpu_when_pinned(forks, nodes):
    """Three processes on two CPUs share both; two keep one each, taken in
    turn from the parent's CPUs, so they share CPU 0 under ``taskset -c 0``."""
    config = from_dict({**TINY, "nodes": nodes})
    theta = nn.init_params(config.encoder_shapes(), 0)
    cpus = os.sched_getaffinity(0)
    count = helper.worker_count(nodes, 2)
    with helper.forked(echo, config, True) as workers:
        assert len(workers) == len(forks) == count - 1
        for worker in workers:  # a round trip: each worker has closed its fds
            worker.start(1, theta, {})
        results = [workers[k % count].receive(k, 1) for k in range(nodes) if k % count < count - 1]
        assert [r[0].values.tobytes() for r in results] == [theta.values.tobytes()] * len(results)
        own = {w.pid: sorted(fd_target("self", fd) for fd in (w._down, w._up)) for w in workers}
        pipes = {end for ends in own.values() for end in ends}
        ordered = sorted(cpus)
        for i, worker in enumerate(workers):
            held = [fd_target(worker.pid, fd) for fd in os.listdir(f"/proc/{worker.pid}/fd")]
            assert sorted(end for end in held if end in pipes) == own[worker.pid]
            pinned = {ordered[i % len(ordered)]} if count <= 2 else cpus
            assert os.sched_getaffinity(worker.pid) == pinned
        assert os.sched_getaffinity(0) == ({ordered[1 % len(ordered)]} if count <= 2 else cpus)
    assert os.sched_getaffinity(0) == cpus


def test_a_failed_fork_reaps_the_workers_already_forked(forks, monkeypatch):
    counting = os.fork

    def second_fails():
        if forks:
            raise BlockingIOError("fork refused")
        return counting()

    monkeypatch.setattr(os, "fork", second_fails)
    with pytest.raises(BlockingIOError, match="fork refused"):
        federation.run_training(from_dict({**TINY, "nodes": 3}))
    assert forks == [PARENT]

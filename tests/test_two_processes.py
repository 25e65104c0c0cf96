"""Rounds trained in several processes: of W = ``helper.worker_count``,
``run_training`` forks W - 1 workers, worker i training nodes i, i + W, ...,
while the parent trains the last share, receives in node order and
aggregates. After training, a run that fine-tunes forks one more worker
that probes and writes the training artifacts while the parent fine-tunes.

``nn._usable_cpus`` is patched to 2 to force the workers (they then share
the one CPU on a one-CPU machine) and to 1 to force the serial path. Every
test that forks checks that no child is left behind.
"""

import faulthandler
import os
import pickle
import re
import signal
import threading
from pathlib import Path

import numpy as np
import pytest

from fedcl import contrastive, evaluate, federation, helper, nn
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
def hang_guard():
    """A hung pipe ends the session after 120 s instead of hanging it."""
    faulthandler.dump_traceback_later(120, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def forks(monkeypatch, hang_guard):
    """The worker path forced; the list of fork calls made."""
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 2)
    calls = []
    real = os.fork

    def counting():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", counting)
    yield calls
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
@pytest.mark.usefixtures("hang_guard")
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


FINE_TUNE = ["--set", "run_fine_tune=true", "--set", "fine_tune_fraction=0.25",
             "--set", "fine_tune.epochs=2"]


@pytest.mark.usefixtures("hang_guard")
def test_a_forked_evaluation_writes_the_same_bytes_as_a_serial_one(tmp_path, monkeypatch):
    args = ["run", "--preset", "smoke", *FINE_TUNE]
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 1)
    assert main([*args, "--out", str(tmp_path / "serial")]) == 0
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    monkeypatch.setattr(nn, "_usable_cpus", lambda: 2)
    assert main([*args, "--out", str(tmp_path / "forked")]) == 0
    runs = len(list((tmp_path / "forked").rglob("digest.txt")))
    assert runs == 2 and len(forks) == runs * helper.worker_count(3, 2)
    serial, forked = run_files(tmp_path / "serial"), run_files(tmp_path / "forked")
    assert serial.keys() == forked.keys()
    assert [name for name in serial if serial[name] != forked[name]] == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("module, name, error", [
    (evaluate, "linear_probe", ValueError),
    (federation, "write_message_log", OSError),
], ids=["linear_probe", "write_message_log"])
def test_an_error_in_the_forked_evaluation_reaches_the_caller(tmp_path, forks, monkeypatch,
                                                              module, name, error):
    def failing(*args):
        raise error(f"{name} in process {os.getpid()}")

    monkeypatch.setattr(module, name, failing)
    with pytest.raises(error, match=rf"^{name} in process (?!{PARENT}$)\d+$"):
        main(["run", "--preset", "smoke", "--arms", "fedmoco", *FINE_TUNE,
              "--out", str(tmp_path)])
    assert len(forks) == helper.worker_count(3, 2)


def test_a_fine_tune_that_fails_here_waits_for_the_forked_writes(tmp_path, forks,
                                                                  monkeypatch):
    """The parent's error is raised once the forked process has written every
    training artifact; no temporary file, eval.jsonl or digest.txt is left."""
    def failing(*args):
        raise ValueError(f"fine-tune in process {os.getpid()}")

    monkeypatch.setattr(evaluate, "fine_tune", failing)
    with pytest.raises(ValueError, match=f"^fine-tune in process {PARENT}$"):
        main(["run", "--preset", "smoke", "--arms", "fedmoco", *FINE_TUNE,
              "--out", str(tmp_path)])
    assert len(forks) == helper.worker_count(3, 2)
    [run_dir] = tmp_path.glob("smoke/fedmoco/seed-0")
    assert sorted(p.name for p in run_dir.iterdir()) == [
        "audit.json", "checkpoint.bin", "config.yaml", "messages.log", "metrics.jsonl",
        "timing.jsonl"]


def dies_in_training(monkeypatch) -> str:
    """The fedmoco run's worker exits in round 2; returns the result it owed."""
    real = contrastive.local_update

    def dying(theta, images, synth, config, round_index, rng_seed):
        if os.getpid() != PARENT and config.metadata_enabled and round_index == 2:
            os._exit(3)
        return real(theta, images, synth, config, round_index, rng_seed)

    monkeypatch.setattr(contrastive, "local_update", dying)
    return "node 0's round 2 result"


def dies_in_evaluation(monkeypatch) -> str:
    """The fedmoco run's forked evaluation is killed while it writes."""
    real = federation.write_message_log

    def dying(messages, path):
        if os.getpid() != PARENT and "fedmoco" in str(path):
            os.kill(os.getpid(), signal.SIGKILL)
        return real(messages, path)

    monkeypatch.setattr(federation, "write_message_log", dying)
    return "the result of probing and writing "


@pytest.mark.parametrize("die", [dies_in_training, dies_in_evaluation])
def test_a_dead_worker_is_an_error_line(tmp_path, forks, monkeypatch, capsys, die):
    """One ``error:`` line and exit 1, as for a diverged run; the fedavg run
    finished before stays."""
    owed = die(monkeypatch)
    assert main(["run", "--preset", "smoke", "--seed", "3", *FINE_TUNE,
                 "--out", str(tmp_path)]) == 1
    [error] = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("warning:")]
    assert re.fullmatch(rf"error: fedmoco seed=3: worker process \d+ exited before sending "
                        rf"{re.escape(owed)}.*", error)
    assert [p.parent.parent.name for p in tmp_path.rglob("digest.txt")] == ["fedavg"]


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


def exit_in_training(monkeypatch):
    real = contrastive.local_update

    def dying(theta, images, synth, config, round_index, rng_seed):
        if os.getpid() != PARENT and round_index == 2:
            os._exit(3)
        return real(theta, images, synth, config, round_index, rng_seed)

    monkeypatch.setattr(contrastive, "local_update", dying)


def exit_mid_result(monkeypatch):
    """The worker trains nodes 0 and 2, so its third message is node 0's
    round 2 result: it sends the first half of that pickle and exits."""
    real, sent = helper._send, []

    def dying(file, obj):
        if os.getpid() == PARENT:
            return real(file, obj)
        sent.append(obj)
        if len(sent) < 3:
            return real(file, obj)
        data = pickle.dumps(obj, protocol=5)
        file.write(data[: len(data) // 2])
        file.flush()
        os._exit(3)

    monkeypatch.setattr(helper, "_send", dying)


@pytest.mark.parametrize("die", [exit_in_training, exit_mid_result])
def test_a_helper_that_dies_mid_round_is_a_named_error(forks, monkeypatch, die):
    die(monkeypatch)
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
            worker.start("round 1", theta, 1, {})
        results = [workers[k % count].receive(f"node {k}'s round 1 result")
                   for k in range(nodes) if k % count < count - 1]
        assert [r[0].values.tobytes() for r in results] == [theta.values.tobytes()] * len(results)
        own = {w.pid: sorted(fd_target("self", f.fileno()) for f in (w._down, w._up))
               for w in workers}
        pipes = {end for ends in own.values() for end in ends}
        ordered = sorted(cpus)
        for i, worker in enumerate(workers):
            held = [fd_target(worker.pid, fd) for fd in os.listdir(f"/proc/{worker.pid}/fd")]
            assert sorted(end for end in held if end in pipes) == own[worker.pid]
            pinned = {ordered[i % len(ordered)]} if count <= 2 else cpus
            assert os.sched_getaffinity(worker.pid) == pinned
        assert os.sched_getaffinity(0) == ({ordered[1 % len(ordered)]} if count <= 2 else cpus)
    assert os.sched_getaffinity(0) == cpus


def test_a_helper_that_died_between_rounds_is_a_named_error(forks):
    """The worker is dead but not yet reaped when round 2 starts; its parent
    end then holds bytes that ``close`` cannot flush."""
    config = from_dict(TINY)
    theta = nn.init_params(config.encoder_shapes(), 0)
    with helper.forked(echo, config, True) as workers:
        pid = workers[0].pid
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        with pytest.raises(HelperError, match=f"^worker process {pid} exited before round 2$"):
            workers[0].start("round 2", theta, 2, {})


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

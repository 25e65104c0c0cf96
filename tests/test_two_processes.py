"""Jobs run in several processes through ``helper.forked``: of W =
``helper.worker_count``, ``run_training`` forks W - 1 workers, worker i
training nodes i, i + W, ..., while the parent trains the last share. A run
that fine-tunes then forks one worker to probe and write while the parent
fine-tunes. ``helper._usable_cpus`` is patched to force the workers, which
may then share a CPU, or to 1 to force the serial path. Every test that
forks checks that no child is left.
"""

import contextlib
import errno
import os
import pickle
import re
import signal
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
SMOKE = ("run", "--preset", "smoke")  # eta 0.05: no synthetic negatives for K > 2
SMALL = (*SMOKE, "--set", "rounds=3", "--set", "data.base_size=24",
         "--set", "data.eval_per_class=8", "--set", "probe.epochs=3")
SKEW = ("--set", "data.scenario=label_skew")  # which needs two nodes
FINE_TUNE = ("--set", "run_fine_tune=true", "--set", "fine_tune_fraction=0.25",
             "--set", "fine_tune.epochs=2")
PROPERTY = settings(deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@contextlib.contextmanager
def usable_cpus(cpus: int):
    """``helper._usable_cpus`` patched to ``cpus``; yields the list of fork
    calls made, and checks on exit that no child is left."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(helper, "_usable_cpus", lambda: cpus)
        calls, real = [], os.fork
        mp.setattr(os, "fork", lambda: calls.append(os.getpid()) or real())
        yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(hang_guard):
    """The worker path forced; the list of fork calls made."""
    with usable_cpus(2) as calls:
        yield calls


def node_failed(k: int) -> Exception:
    return ValueError(f"node {k} failed")


def fail(mp, seed: int, failing, failure, round_index: int) -> None:
    """Patch ``local_update`` so that in round ``round_index`` of a run from
    ``seed`` each node k of ``failing`` raises ``failure(k)``, has a NaN loss
    ("nan"), or its worker exits ("exit"), or sends half the node's result
    and exits ("half")."""
    seeds = {from_dict({"seed": seed}).node_seed(k): k for k in failing}
    real_update, real_send, owed = contrastive.local_update, helper._send, []

    def update(theta, images, synth, config, r, rng_seed):
        k = seeds.get(rng_seed) if r == round_index else None
        if k is not None and callable(failure):
            raise failure(k)
        if k is not None and failure == "exit":
            assert os.getpid() != PARENT, f"node {k} trained in the parent"
            os._exit(3)
        trained, losses = real_update(theta, images, synth, config, r, rng_seed)
        if k is not None:
            owed.append(k)
        return trained, [np.nan] * len(losses) if k is not None and failure == "nan" else losses

    def send(file, obj):
        if failure != "half" or not owed:
            return real_send(file, obj)
        data = pickle.dumps(obj, protocol=5)
        file.write(data[: len(data) // 2])
        file.flush()
        os._exit(3)

    mp.setattr(contrastive, "local_update", update)
    mp.setattr(helper, "_send", send)


def run_files(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "timing.jsonl"}


@pytest.fixture(scope="module")
def serial_files(tmp_path_factory):
    """``run_files`` of a one-CPU ``main(args)`` run, made once per ``args``."""
    runs = {}

    def files(args: tuple) -> dict[str, bytes]:
        if args not in runs:
            out = tmp_path_factory.mktemp("serial")
            with usable_cpus(1):
                assert main([*args, "--out", str(out)]) == 0
            runs[args] = run_files(out)
        return runs[args]

    return files


def assert_serial_bytes(serial_files, out: Path, args: tuple, nodes: int, cpus: int,
                        fine_tune: bool) -> int:
    """Each run of ``main(args)`` forks W - 1 workers for training, W =
    ``worker_count(nodes, cpus)``, and one more to probe and write while the
    parent fine-tunes; every file but timing.jsonl holds the one-CPU run's
    bytes, and the CPUs and BLAS threads are given back. Returns the number
    of runs."""
    cpus_before, threads = os.sched_getaffinity(0), helper._openblas_thread_calls()[0]()
    with usable_cpus(cpus) as forks:
        assert main([*args, "--out", str(out)]) == 0
    runs = len(list(out.rglob("digest.txt")))
    per_run = max(helper.worker_count(nodes, cpus) - 1, 0) + (fine_tune and cpus > 1)
    assert runs and len(forks) == runs * per_run
    got, want = run_files(out), serial_files(args)
    assert got.keys() == want.keys()
    assert [name for name in want if got[name] != want[name]] == []
    assert os.sched_getaffinity(0) == cpus_before
    assert helper._openblas_thread_calls()[0]() == threads
    return runs


@settings(PROPERTY, max_examples=30)
@given(nodes=st.integers(1, 8), cpus=st.integers(1, 4), eta=st.sampled_from([0.05, 0.5]),
       arm=st.sampled_from(["fedavg", "fedmoco"]), fine_tune=st.booleans())
@example(nodes=7, cpus=4, eta=0.5, arm="fedmoco", fine_tune=False)  # W = 7
@example(nodes=5, cpus=4, eta=0.05, arm="fedavg", fine_tune=True)  # W = 5
@example(nodes=8, cpus=4, eta=0.5, arm="fedmoco", fine_tune=True)  # W = 4, pinned, cycled
@example(nodes=3, cpus=2, eta=0.5, arm="fedmoco", fine_tune=True)  # W = 3
@example(nodes=4, cpus=2, eta=0.05, arm="fedmoco", fine_tune=False)  # W = 2, pinned
@example(nodes=1, cpus=2, eta=0.5, arm="fedavg", fine_tune=True)  # W = 0
def test_any_process_count_writes_the_serial_bytes(serial_files, tmp_path_factory, hang_guard,
                                                   nodes, cpus, eta, arm, fine_tune):
    """eta 0.5 gives each node at least two draws per peer for K <= 8; eta
    0.05 gives none for K > 2."""
    args = (*SMALL, "--arms", arm, "--set", f"eta={eta}", "--set", f"nodes={nodes}",
            *(SKEW if nodes > 1 else ()), *(FINE_TUNE if fine_tune else ()))
    out = tmp_path_factory.mktemp("forked")
    assert assert_serial_bytes(serial_files, out, args, nodes, cpus, fine_tune) == 1


@pytest.mark.parametrize("args, nodes", [
    pytest.param(SMOKE, 3, id="smoke"),  # W = 3, unpinned
    *[pytest.param((*SMALL, "--arms", "fedmoco", "--set", f"nodes={k}", *SKEW,
                    "--set", "eta=0.2"), k, id=f"label-skew-{k}") for k in (3, 4)],  # W = 3, 2
])
def test_serial_and_two_process_runs_write_the_same_bytes(serial_files, tmp_path, hang_guard,
                                                          args, nodes):
    assert_serial_bytes(serial_files, tmp_path, args, nodes, 2, False)


def test_a_forked_evaluation_writes_the_same_bytes_as_a_serial_one(serial_files, tmp_path,
                                                                   hang_guard):
    assert assert_serial_bytes(serial_files, tmp_path, (*SMOKE, *FINE_TUNE), 3, 2, True) == 2


def test_a_run_gives_back_its_cpus_and_blas_threads(forks):
    cpus = os.sched_getaffinity(0)
    threads = helper._openblas_thread_calls()[0]()
    result = federation.run_training(from_dict(TINY))
    assert forks == [PARENT]
    assert len(result.metrics) == 3 * TINY["nodes"]  # one record per node and round
    assert os.sched_getaffinity(0) == cpus
    assert helper._openblas_thread_calls()[0]() == threads


@st.composite
def failures(draw) -> tuple:
    """(nodes, cpus, failing nodes, failure, round); a worker's exit fails
    only nodes that train in a worker."""
    failure = draw(st.sampled_from([node_failed, "nan", "exit", "half"]))
    least = 2 if failure in ("exit", "half") else 1
    nodes, cpus = draw(st.integers(least, 8)), draw(st.integers(least, 4))
    w = helper.worker_count(nodes, cpus)
    eligible = [k for k in range(nodes) if least == 1 or k % w != w - 1]
    failing = draw(st.sets(st.sampled_from(eligible), min_size=1))
    return nodes, cpus, failing, failure, draw(st.integers(1, 3))


@settings(PROPERTY, max_examples=40)
@given(failures())
@example((7, 4, {5, 6}, "nan", 3))
def test_the_first_failing_node_in_node_order_fails_the_run(hang_guard, case):
    """A raise or a NaN loss fails the run as on one process; a dead worker
    is a ``HelperError`` naming the first result it owed."""
    nodes, cpus, failing, failure, round_index = case
    scenario = "label_skew" if nodes > 1 else "equal"
    config = from_dict({**TINY, "nodes": nodes, "data": {**TINY["data"], "scenario": scenario}})
    if failure in ("exit", "half"):
        error = HelperError
        message = (rf"worker process \d+ exited before sending result {min(failing)} "
                   rf"of round {round_index}")
    else:
        with pytest.MonkeyPatch.context() as mp, usable_cpus(1):
            fail(mp, config.seed, failing, failure, round_index)
            with pytest.raises(Exception, match=f"node {min(failing)}\\b") as serial:
                federation.run_training(config)
        error, message = serial.type, re.escape(str(serial.value))
    with pytest.MonkeyPatch.context() as mp, usable_cpus(cpus):
        fail(mp, config.seed, failing, failure, round_index)
        with pytest.raises(error, match=f"^{message}$") as forked:
            federation.run_training(config)
    assert forked.type is error


def test_an_error_in_a_helper_node_reaches_the_caller(forks, monkeypatch):
    fail(monkeypatch, from_dict(TINY).seed, {2},
         lambda k: ShapeError(f"node {k} in process {os.getpid()}"), 1)
    with pytest.raises(ShapeError, match=r"node 2 in process (\d+)") as info:
        federation.run_training(from_dict(TINY))
    assert info.match(rf"process (?!{PARENT}\b)")


@pytest.mark.parametrize("nodes, first", [({0, 1}, 0), ({1, 2}, 1), ({3}, 3)])
def test_the_first_failing_node_in_node_order_raises(forks, monkeypatch, nodes, first):
    """Nodes 0 and 2 train in the worker, 1 and 3 here; as on one process,
    the error of the lowest-indexed failing node is the one raised."""
    fail(monkeypatch, from_dict(TINY).seed, nodes, node_failed, 1)
    with pytest.raises(ValueError, match=f"^node {first} failed$"):
        federation.run_training(from_dict(TINY))


@pytest.mark.parametrize("failure", ["exit", "half"], ids=["exit_in_training", "exit_mid_result"])
def test_a_helper_that_dies_mid_round_is_a_named_error(forks, monkeypatch, failure):
    """The worker trains nodes 0 and 2; it exits training node 0 in round 2,
    or sends half of that result and exits."""
    fail(monkeypatch, from_dict(TINY).seed, {0}, failure, 2)
    with pytest.raises(HelperError, match=r"^worker process \d+ exited before sending "
                                          r"result 0 of round 2$"):
        federation.run_training(from_dict(TINY))


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


def dies_in_evaluation(monkeypatch) -> None:
    """The seed-4 run's forked evaluation is killed while it writes."""
    real = federation.write_message_log

    def dying(messages, path):
        if os.getpid() != PARENT and "seed-4" in str(path):
            os.kill(os.getpid(), signal.SIGKILL)
        return real(messages, path)

    monkeypatch.setattr(federation, "write_message_log", dying)


@pytest.mark.parametrize("die, owed", [
    (lambda mp: fail(mp, 4, {0}, "exit", 2), "result 0 of round 2"),
    (dies_in_evaluation, "result 0 of evaluating "),
], ids=["dies_in_training", "dies_in_evaluation"])
def test_a_dead_worker_is_an_error_line(tmp_path, forks, monkeypatch, capsys, die, owed):
    """One ``error:`` line and exit 1, as for a diverged run; the run
    finished before stays."""
    die(monkeypatch)
    assert main(["run", "--preset", "smoke", "--arms", "fedmoco", "--seed", "3", "--seed", "4",
                 *FINE_TUNE, "--out", str(tmp_path)]) == 1
    [error] = [line for line in capsys.readouterr().err.splitlines()
               if not line.startswith("warning:")]
    assert re.fullmatch(rf"error: fedmoco seed=4: worker process \d+ exited before sending "
                        rf"{re.escape(owed)}.*", error)
    assert [p.parent.name for p in tmp_path.rglob("digest.txt")] == ["seed-3"]


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
    monkeypatch.setattr(helper, "_usable_cpus", lambda: 1)
    serial = federation.run_training(from_dict(TINY))
    assert threaded.metrics == serial.metrics
    assert threaded.theta0.values.tobytes() == serial.theta0.values.tobytes()


def test_an_unpicklable_helper_error_keeps_its_type_name_and_message(forks, monkeypatch):
    class TwoArgError(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a} and {b}")

    fail(monkeypatch, from_dict(TINY).seed, {0}, lambda k: TwoArgError("node", k), 1)
    with pytest.raises(RuntimeError, match="^TwoArgError: node and 0$"):
        federation.run_training(from_dict(TINY))


def test_a_non_finite_loss_in_a_helper_node_is_an_error_line(tmp_path, forks, monkeypatch,
                                                              capsys):
    fail(monkeypatch, 3, {0}, "nan", 1)  # node 0 trains in a worker
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


def worker_pids(monkeypatch) -> list[int]:
    """The pids of the processes forked from here on."""
    pids, counting = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(pid := counting()) or pid)
    return pids


def pipe_ends(pid) -> set[str]:
    """The pipes, as ``pipe:[inode]``, that process ``pid`` holds an fd of."""
    ends = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        with contextlib.suppress(FileNotFoundError):  # the fd listdir itself used
            if (target := os.readlink(f"/proc/{pid}/fd/{fd}")).startswith("pipe:"):
                ends.add(target)
    return ends


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc/<pid>/fd")
@pytest.mark.parametrize("nodes", [3, 4])
def test_each_worker_holds_its_own_pipe_ends_and_one_cpu_when_pinned(forks, monkeypatch,
                                                                      nodes):
    """Three processes on two CPUs share both; two keep one each, taken in
    turn from the parent's CPUs, so they share CPU 0 under ``taskset -c 0``."""
    pids = worker_pids(monkeypatch)
    theta = nn.init_params(from_dict({**TINY, "nodes": nodes}).encoder_shapes(), 0)
    cpus, before = os.sched_getaffinity(0), pipe_ends("self")
    count = helper.worker_count(nodes, 2)
    with helper.forked(echo, nodes) as run:
        results = run("round 1", theta, 1, {})  # a round trip: each worker has closed its fds
        assert len(pids) == len(forks) == count - 1
        assert [r[0].values.tobytes() for r in results] == [theta.values.tobytes()] * nodes
        new = pipe_ends("self") - before  # two per worker, its own
        held = [pipe_ends(pid) & new for pid in pids]
        assert [len(ends) for ends in held] == [2] * len(pids)
        assert set().union(*held) == new and len(new) == 2 * len(pids)
        ordered = sorted(cpus)
        for i, pid in enumerate(pids):
            pinned = {ordered[i % len(ordered)]} if count <= 2 else cpus
            assert os.sched_getaffinity(pid) == pinned
        assert os.sched_getaffinity(0) == ({ordered[1 % len(ordered)]} if count <= 2 else cpus)
    assert os.sched_getaffinity(0) == cpus


def test_a_helper_that_died_between_rounds_is_a_named_error(forks, monkeypatch):
    """The worker is dead but not yet reaped when round 2 starts; its parent
    end then holds bytes that ``close`` cannot flush."""
    pids = worker_pids(monkeypatch)
    theta = nn.init_params(from_dict(TINY).encoder_shapes(), 0)
    with helper.forked(echo, TINY["nodes"]) as run:
        run("round 1", theta, 1, {})
        [pid] = pids
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        with pytest.raises(HelperError, match=f"^worker process {pid} exited before round 2$"):
            run("round 2", theta, 2, {})


@pytest.mark.skipif(helper._openblas_thread_calls() is None, reason="numpy links another BLAS")
@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "forked"])
def test_every_share_runs_under_one_blas_thread(hang_guard, cpus):
    """Here and in a worker OpenBLAS runs one thread inside ``forked``, and
    has its own count back after."""
    get_threads, set_threads = helper._openblas_thread_calls()
    threads = get_threads()

    def share(jobs):
        for _ in jobs:
            yield os.getpid(), get_threads()

    set_threads(2)
    try:
        with usable_cpus(cpus) as forks, helper.forked(share, 2) as run:
            got = run("reading the thread count")
        assert len(forks) == cpus - 1
        assert [n for _, n in got] == [1, 1]
        assert (got[0][0] != PARENT) == (cpus > 1) and got[1][0] == PARENT
        assert get_threads() == 2
    finally:
        set_threads(threads)


def test_a_forked_evaluation_probes_and_fine_tunes_on_a_cpu_each(tmp_path, forks,
                                                                 monkeypatch):
    """The probe runs in the worker on the parent's first CPU, the fine-tune
    here on its second, cycled as ``forked`` places processes."""
    cpus, tuned_on = os.sched_getaffinity(0), []
    ordered, probed_on = sorted(cpus), tmp_path / "probed_on"
    real_probe, real_tune = evaluate.linear_probe, evaluate.fine_tune

    def probe(*args):
        probed_on.write_text(repr(sorted(os.sched_getaffinity(0))))
        return real_probe(*args)

    def fine_tune(*args):
        tuned_on.append(os.sched_getaffinity(0))
        return real_tune(*args)

    monkeypatch.setattr(evaluate, "linear_probe", probe)
    monkeypatch.setattr(evaluate, "fine_tune", fine_tune)
    assert main([*SMALL, "--arms", "fedmoco", *FINE_TUNE,
                 "--out", str(tmp_path / "runs")]) == 0
    assert len(forks) == helper.worker_count(3, 2)
    assert probed_on.read_text() == repr([ordered[0]])
    assert tuned_on == [{ordered[1 % len(ordered)]}]
    assert os.sched_getaffinity(0) == cpus


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
def test_a_failed_second_pipe_closes_the_first(monkeypatch):
    real, calls = os.pipe, []

    def second_fails():
        calls.append(1)
        if len(calls) == 2:
            raise OSError(errno.EMFILE, "too many open files")
        return real()

    before = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "pipe", second_fails)
    with pytest.raises(OSError, match="too many open files"):
        helper.Worker(echo, os.sched_getaffinity(0), ())
    assert len(os.listdir("/proc/self/fd")) == before


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

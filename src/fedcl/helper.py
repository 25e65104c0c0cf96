"""The worker processes that train a round's nodes beside this one.

``federation.run_training`` forks them after ``build_nodes``, so each
inherits every shard. Of W = ``worker_count`` processes, worker i trains
nodes i, i + W, ... and the parent nodes W - 1, 2W - 1, ... Each round,
``Worker.start`` sends a worker the round index, the broadcast θ and the
metadata store; it trains its nodes with the ``train`` function it was
forked with and answers with one message per node, which ``Worker.receive``
reads. Every message crosses its pipe as one protocol-5 pickle, so each
array is read once, into the buffer of the array it becomes; an error a
node raised is such a message too.

A node's result is ``(trained θ, mean loss, synthetic row count, upload or
None, RSA score)``. A worker holds only its own pipe ends, so one whose
parent dies meets the end of its input, or a broken pipe, and exits.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import signal
import threading

from . import nn
from .config import ExperimentConfig
from .errors import HelperError


def _send(file, obj) -> None:
    """Pickle ``obj`` to ``file`` and flush it: the reader waits for each
    message before it sends the next. Protocol 5 writes an array's buffer
    as it is, where protocol 4 copies it to bytes first."""
    pickle.dump(obj, file, protocol=5)
    file.flush()


def _picklable(exc: Exception) -> Exception:
    """``exc``, or a ``RuntimeError`` naming its type and message if it does
    not survive a pickle round trip."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


class Worker:
    """A forked process on ``cpus`` that runs ``train(theta, round_index,
    store)``, an iterator over its nodes' results, once per round; it first
    closes the ``inherited`` fds, the parent's ends of earlier workers."""

    def __init__(self, train, cpus, inherited) -> None:
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (down_r, down_w, up_r, up_w):
                os.close(fd)
            raise
        if self.pid == 0:  # the worker: never returns into the caller's stack
            code = 1
            try:
                for fd in (down_w, up_r, *inherited):
                    os.close(fd)
                os.sched_setaffinity(0, cpus)
                with open(down_r, "rb") as down, open(up_w, "wb") as up:
                    self._serve(down, up, train)
                code = 0
            finally:
                os._exit(code)
        os.close(down_r)
        os.close(up_w)
        self._down = open(down_w, "wb")
        self._up = open(up_r, "rb")

    @staticmethod
    def _serve(down, up, train) -> None:
        """Per round: read the round index, θ and the store, then send each
        node's result, or the error that ends the round; return at end of
        input."""
        while True:
            try:
                round_index, theta, store = pickle.load(down)
            except EOFError:
                return
            try:
                for result in train(theta, round_index, store):
                    _send(up, result)
            except Exception as exc:
                _send(up, _picklable(exc))

    def start(self, round_index: int, theta: nn.EncoderParams, store) -> None:
        try:
            _send(self._down, (round_index, theta, store))
        except BrokenPipeError as exc:
            raise HelperError(f"worker process {self.pid} exited before round "
                              f"{round_index}") from exc

    def receive(self, k: int, round_index: int) -> tuple:
        """Node k's result; what the node raised is raised here."""
        try:
            result = pickle.load(self._up)
        except (EOFError, pickle.UnpicklingError) as exc:
            raise HelperError(f"worker process {self.pid} exited before sending node {k}'s "
                              f"round {round_index} result") from exc
        if isinstance(result, Exception):
            raise result
        return result

    def close(self) -> None:
        """Stop the worker wherever it is and reap it. Closing the down pipe
        flushes what the worker never read, which can raise
        ``BrokenPipeError``; the file is closed all the same."""
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self._up.close()
        with contextlib.suppress(BrokenPipeError):
            self._down.close()


def worker_count(nodes: int, cpus: int) -> int:
    """Processes to train ``nodes`` nodes on ``cpus`` CPUs, or 0 for one: the
    fewest, at least one per CPU, none given more than a CPU's even share."""
    c = min(cpus, nodes)
    return 0 if c < 2 else next(w for w in range(c, nodes + 1) if -(-nodes // w) * c <= nodes)


@contextlib.contextmanager
def forked(train, config: ExperimentConfig, wanted: bool):
    """W - 1 ``Worker``s, W = ``worker_count``, worker i running ``train(range(i,
    nodes, W), theta, round_index, store)`` each round, or none: when not
    ``wanted``, with one node or one usable CPU, no ``fork`` or affinity call,
    or another thread alive, which a fork would leave holding its locks. If
    W ≤ the usable CPUs, process i (this one being W - 1) runs on this one's
    i-th CPU, cyclically, till exit; workers are reaped on exit or a failed fork."""
    count = worker_count(config.nodes, usable := nn._usable_cpus())
    if not (wanted and count and hasattr(os, "fork") and hasattr(os, "sched_setaffinity")
            and threading.active_count() == 1):
        yield []
        return
    cpus = os.sched_getaffinity(0)
    places = [{sorted(cpus)[i % len(cpus)]} if count <= usable else cpus for i in range(count)]
    workers: list[Worker] = []
    try:
        for i in range(count - 1):
            inherited = [f.fileno() for w in workers for f in (w._down, w._up)]
            workers.append(Worker(functools.partial(train, range(i, config.nodes, count)),
                                  places[i], inherited))
        os.sched_setaffinity(0, places[-1])
        yield workers
    finally:
        for worker in workers:
            worker.close()
        os.sched_setaffinity(0, cpus)

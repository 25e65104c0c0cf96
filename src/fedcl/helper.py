"""The worker processes that train a round's nodes beside this one.

``federation.run_training`` forks them after ``build_nodes``, so each
inherits every shard. Of W = ``worker_count`` processes, worker i trains
nodes i, i + W, ... and the parent nodes W - 1, 2W - 1, ... Each round,
``Worker.start`` sends a worker the round index, the broadcast θ and the
metadata store; it trains its nodes with the ``train`` function it was
forked with and answers with one message per node, which ``Worker.receive``
reads. Parameter vectors and metadata cross the pipes as raw float64 bytes;
only small headers are pickled, an error a node raised among them.

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

import numpy as np

from . import metadata as md
from . import nn
from .config import ExperimentConfig
from .errors import HelperError


def _write_all(fd: int, data) -> None:
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _read_into(fd: int, buffer) -> None:
    """Fill ``buffer`` from ``fd``; ``EOFError`` if the writer closed first."""
    view = memoryview(buffer).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise EOFError(f"pipe closed with {len(view)} bytes still to read")
        view = view[got:]


def _write_frame(fd: int, header, *arrays) -> None:
    """A pickled ``header``, then each float64 array as raw bytes."""
    head = pickle.dumps(header)
    _write_all(fd, len(head).to_bytes(8, "little") + head)
    for array in arrays:
        _write_all(fd, np.ascontiguousarray(array, dtype=np.float64))


def _read_header(fd: int):
    size = bytearray(8)
    _read_into(fd, size)
    head = bytearray(int.from_bytes(size, "little"))
    _read_into(fd, head)
    return pickle.loads(head)


def _read_array(fd: int, shape) -> np.ndarray:
    array = np.empty(shape)
    _read_into(fd, array)
    return array


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

    def __init__(self, train, config: ExperimentConfig, cpus, inherited) -> None:
        self._shapes = config.encoder_shapes()
        self._size = sum(s.size for s in self._shapes)
        self._d = config.feature_dim
        down_r, self._down = os.pipe()
        self._up, up_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (down_r, self._down, self._up, up_w):
                os.close(fd)
            raise
        if self.pid == 0:  # the worker: never returns into the caller's stack
            code = 1
            try:
                for fd in (self._down, self._up, *inherited):
                    os.close(fd)
                os.sched_setaffinity(0, cpus)
                self._serve(down_r, up_w, train)
                code = 0
            finally:
                os._exit(code)
        os.close(down_r)
        os.close(up_w)

    def _serve(self, fd_in: int, fd_out: int, train) -> None:
        """Per round: read the round index, θ and the store, then send each
        node's result, or the error that ends the round; return at end of
        input."""
        while True:
            try:
                round_index, stored = _read_header(fd_in)
            except EOFError:
                return
            theta = nn.EncoderParams(_read_array(fd_in, (self._size,)), self._shapes)
            store = {j: md.NodeMetadata(_read_array(fd_in, (self._d,)),
                                        _read_array(fd_in, (self._d, self._d)), j, r)
                     for j, r in stored}
            try:
                for theta_k, loss, count, upload, score in train(theta, round_index, store):
                    metadata = [] if upload is None else [upload.mu, upload.sigma]
                    _write_frame(fd_out, (loss, count, score, upload is not None),
                                 theta_k.values, *metadata)
            except Exception as exc:
                _write_frame(fd_out, _picklable(exc))

    def start(self, round_index: int, theta: nn.EncoderParams, store) -> None:
        metas = [meta for _, meta in sorted(store.items())]
        try:
            _write_frame(self._down, (round_index, [(m.node_id, m.round_index) for m in metas]),
                         theta.values, *(a for m in metas for a in (m.mu, m.sigma)))
        except BrokenPipeError as exc:
            raise HelperError(f"worker process {self.pid} exited before round "
                              f"{round_index}") from exc

    def receive(self, k: int, round_index: int) -> tuple:
        """Node k's result; what the node raised is raised here."""
        try:
            header = _read_header(self._up)
            if isinstance(header, Exception):
                raise header
            loss, count, score, uploaded = header
            theta_k = nn.EncoderParams(_read_array(self._up, (self._size,)), self._shapes)
            upload = None
            if uploaded:
                upload = md.NodeMetadata(_read_array(self._up, (self._d,)),
                                         _read_array(self._up, (self._d, self._d)),
                                         k, round_index)
        except EOFError as exc:
            raise HelperError(f"worker process {self.pid} exited before sending node {k}'s "
                              f"round {round_index} result") from exc
        return theta_k, loss, count, upload, score

    def close(self) -> None:
        """Stop the worker wherever it is and reap it."""
        os.close(self._down)
        os.close(self._up)
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)


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
            inherited = [fd for w in workers for fd in (w._down, w._up)]
            workers.append(Worker(functools.partial(train, range(i, config.nodes, count)),
                                  config, places[i], inherited))
        os.sched_setaffinity(0, places[-1])
        yield workers
    finally:
        for worker in workers:
            worker.close()
        os.sched_setaffinity(0, cpus)

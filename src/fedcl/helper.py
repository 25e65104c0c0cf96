"""Forked worker processes that work beside this one.

A ``Worker`` is forked with a job function and runs it on each argument
tuple that ``Worker.start`` sends, answering with each of the job's results,
which ``Worker.receive`` reads. Two callers use it, and both fork only where
``_may_fork`` allows:

- ``federation.run_training`` forks W - 1 workers (``forked``) after
  ``build_nodes``, so each inherits every shard. Of W = ``worker_count``
  processes, worker i trains nodes i, i + W, ... and the parent nodes
  W - 1, 2W - 1, ... Each round a worker is sent the broadcast θ, the round
  index and the metadata store, and sends back what its nodes' generator,
  ``federation._node_results``, yields: one result per node.
- ``cli`` finishes a run that fine-tunes through ``beside``: one worker
  probes the encoder and writes the training artifacts it inherited while
  the parent fine-tunes, and answers with the probe records.

Every message crosses its pipe as one protocol-5 pickle, so each array is
read once, into the buffer of the array it becomes; an error the job raised
is such a message too. A worker holds only its own pipe ends, and asks the
kernel (``prctl(PR_SET_PDEATHSIG)``) to SIGKILL it when its parent dies, so
a ``fedcl run`` killed by any signal leaves no worker training or writing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import pickle
import signal
import threading

from . import nn
from .errors import HelperError

PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>
try:
    _prctl = ctypes.CDLL(None).prctl  # libc's, where it has one
except (OSError, AttributeError):
    _prctl = None


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
    """A forked process on ``cpus`` that runs ``job(*args)``, an iterator over
    its results, for each argument tuple it is sent; it first closes the
    ``inherited`` fds, the parent's ends of earlier workers. It asks to be
    killed when its parent dies, and exits if the parent died before that."""

    def __init__(self, job, cpus, inherited) -> None:
        parent = os.getpid()
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
                if _prctl(PR_SET_PDEATHSIG, signal.SIGKILL) or os.getppid() != parent:
                    return
                for fd in (down_w, up_r, *inherited):
                    os.close(fd)
                os.sched_setaffinity(0, cpus)
                with open(down_r, "rb") as down, open(up_w, "wb") as up:
                    self._serve(down, up, job)
                code = 0
            finally:
                os._exit(code)
        os.close(down_r)
        os.close(up_w)
        self._down = open(down_w, "wb")
        self._up = open(up_r, "rb")

    @staticmethod
    def _serve(down, up, job) -> None:
        """Per argument tuple read: send each of ``job``'s results, or the
        error that ends the job; return at end of input."""
        while True:
            try:
                args = pickle.load(down)
            except EOFError:
                return
            try:
                for result in job(*args):
                    _send(up, result)
            except Exception as exc:
                _send(up, _picklable(exc))

    def start(self, what: str, *args) -> None:
        """Send ``args`` to the worker; ``what`` names the job in the error."""
        try:
            _send(self._down, args)
        except BrokenPipeError as exc:
            raise HelperError(f"worker process {self.pid} exited before {what}") from exc

    def receive(self, what: str):
        """The worker's next result, which ``what`` names in the error; what
        the job raised is raised here."""
        try:
            result = pickle.load(self._up)
        except (EOFError, pickle.UnpicklingError) as exc:
            raise HelperError(f"worker process {self.pid} exited before sending "
                              f"{what}") from exc
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


def _may_fork(wanted: bool) -> bool:
    """Whether to fork a worker: only if ``wanted``, the caller's own test,
    which includes that the BLAS hold took; not on one usable CPU, without a
    ``fork``, affinity or ``prctl`` call, or with another thread alive, which
    a fork would leave holding its locks."""
    return (wanted and nn._usable_cpus() > 1 and hasattr(os, "fork")
            and hasattr(os, "sched_setaffinity") and _prctl is not None
            and threading.active_count() == 1)


@contextlib.contextmanager
def forked(train, nodes: int, wanted: bool):
    """W - 1 ``Worker``s, W = ``worker_count``, worker i running ``train(range(i,
    nodes, W), theta, round_index, store)`` each round, or none: with one
    node, or where ``_may_fork`` says no. If W ≤ the usable CPUs, process i
    (this one being W - 1) runs on this one's i-th CPU, cyclically, till
    exit; workers are reaped on exit or a failed fork."""
    count = worker_count(nodes, usable := nn._usable_cpus())
    if not (count and _may_fork(wanted)):
        yield []
        return
    cpus = os.sched_getaffinity(0)
    places = [{sorted(cpus)[i % len(cpus)]} if count <= usable else cpus for i in range(count)]
    workers: list[Worker] = []
    try:
        for i in range(count - 1):
            inherited = [f.fileno() for w in workers for f in (w._down, w._up)]
            workers.append(Worker(functools.partial(train, range(i, nodes, count)),
                                  places[i], inherited))
        os.sched_setaffinity(0, places[-1])
        yield workers
    finally:
        for worker in workers:
            worker.close()
        os.sched_setaffinity(0, cpus)


def beside(job, work, wanted: bool, name: str) -> tuple:
    """``(job(), work())``: ``job`` run in one forked ``Worker`` on this
    process's CPUs while ``work`` runs here, or here first where ``_may_fork``
    says no. The worker is waited for even when ``work`` raises, then reaped;
    ``name`` names ``job`` in the error if the worker dies."""
    if not _may_fork(wanted):
        return job(), work()
    worker = Worker(lambda: [job()], os.sched_getaffinity(0), ())
    try:
        worker.start(name)
        try:
            done = work()
        finally:
            got = worker.receive(f"the result of {name}")
        return got, done
    finally:
        worker.close()

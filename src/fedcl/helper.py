"""Independent jobs run over forked processes, their results read in order.

``forked`` is the one way to do so: ``federation.run_training`` runs a
round's nodes through it, and ``cli._finish_run`` a run's probe and
fine-tune. It holds numpy's bundled OpenBLAS at one thread throughout, so no
result depends on its thread count, and forks ``Worker``s only where that
hold took and ``_may_fork`` allows; otherwise every job runs here, in order.

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
        parent, fds = os.getpid(), []
        try:
            fds += os.pipe()
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        down_r, down_w, up_r, up_w = fds
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


def worker_count(jobs: int, cpus: int) -> int:
    """Processes to run ``jobs`` jobs on ``cpus`` CPUs, or 0 for one: the
    fewest, at least one per CPU, none given more than a CPU's even share."""
    c = min(cpus, jobs)
    return 0 if c < 2 else next(w for w in range(c, jobs + 1) if -(-jobs // w) * c <= jobs)


def _may_fork() -> bool:
    """Whether to fork a worker: not without a ``fork``, affinity or
    ``prctl`` call, or with another thread alive, which a fork would leave
    holding its locks."""
    return (hasattr(os, "fork") and hasattr(os, "sched_setaffinity") and _prctl is not None
            and threading.active_count() == 1)


@contextlib.contextmanager
def forked(share, count: int):
    """Yields ``run(what, *args)``, which returns ``share(range(count),
    *args)``'s results in order; ``share`` yields one result per index it is
    given. Of W = ``worker_count(count, usable CPUs)`` processes, W - 1
    ``Worker``s run the shares i, i + W, ... and this one W - 1, 2W - 1, ...;
    with no fork, this one runs them all. If W ≤ the usable CPUs, process i
    (this one being W - 1) runs on this one's i-th CPU, cyclically, till
    exit. Workers are reaped on exit or a failed fork."""
    with nn.one_blas_thread() as held:
        processes = worker_count(count, usable := nn._usable_cpus())
        if not (processes and held and _may_fork()):
            yield functools.partial(_run, share, count, [])
            return
        cpus = os.sched_getaffinity(0)
        places = [{sorted(cpus)[i % len(cpus)]} if processes <= usable else cpus
                  for i in range(processes)]
        workers: list[Worker] = []
        try:
            for i in range(processes - 1):
                inherited = [f.fileno() for w in workers for f in (w._down, w._up)]
                workers.append(Worker(functools.partial(share, range(i, count, processes)),
                                      places[i], inherited))
            os.sched_setaffinity(0, places[-1])
            yield functools.partial(_run, share, count, workers)
        finally:
            for worker in workers:
                worker.close()
            os.sched_setaffinity(0, cpus)


def _run(share, count: int, workers, what: str, *args) -> list:
    """``forked``'s ``run``: result i comes from ``workers[i % W]``, or from
    here when i % W = W - 1, each of ours before the workers' results below
    it are read. An error raised by a job, here or in a worker, is raised
    here; if several raise, the first in order wins, as when one process runs
    them all. An interrupt here (a ``BaseException`` that is no
    ``Exception``, such as ``KeyboardInterrupt``) is raised at once. ``what``
    names the call in the error for a dead worker."""
    w = len(workers) + 1
    for worker in workers:
        worker.start(what, *args)
    own = range(w - 1, count, w)
    mine = share(own, *args)
    results: list = []

    def receive_below(k: int) -> None:  # the workers' results below k
        while len(results) < k:
            n = len(results)
            results.append(workers[n % w].receive(f"result {n} of {what}"))

    for k in own:
        try:
            result = next(mine)
        except Exception:
            receive_below(k)
            raise
        receive_below(k)
        results.append(result)
    receive_below(count)
    return results

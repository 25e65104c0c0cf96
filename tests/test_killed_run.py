"""A ``fedcl run`` killed by a signal it cannot handle, or does not, takes
its forked workers with it: each asked the kernel to SIGKILL it when its
parent dies (``helper.Worker``)."""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fedcl

FINE_TUNE = ("--set", "run_fine_tune=true", "--set", "fine_tune_fraction=0.25",
             "--set", "fine_tune.epochs=2")

KILLED_RUN = """
import os, sys, time
from pathlib import Path
from fedcl import nn
from fedcl.cli import main

parent, module, name, marker = os.getpid(), sys.argv[1], sys.argv[2], Path(sys.argv[3])
nn._usable_cpus = lambda: 2  # fork on one CPU too
real = getattr(sys.modules[module], name)

def stalled(*args):
    if os.getpid() != parent:  # a worker: say so, and stall
        marker.touch()
        time.sleep(60)
    return real(*args)

setattr(sys.modules[module], name, stalled)
sys.exit(main(sys.argv[4:]))
"""


def group_alive(pgid: int) -> bool:
    """Whether a process of group ``pgid`` is alive; a zombie is not."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        with contextlib.suppress(OSError):  # the process is gone
            state, _, group = stat.read_text().rpartition(")")[2].split()[:3]
            if int(group) == pgid and state not in "ZX":
                return True
    return False


def file_states(root: Path) -> dict:
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in root.rglob("*")}


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc/<pid>/stat")
@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
@pytest.mark.parametrize("stage", ["fedcl.contrastive.local_update",
                                   "fedcl.evaluate.linear_probe"], ids=["training", "evaluation"])
def test_a_killed_run_takes_its_workers_with_it(tmp_path, hang_guard, sig, stage):
    """``fedcl run``, in its own session, is killed while a worker trains or
    probes: within 5 s no process of its group is alive, and no file of its
    run directory changed after it was reaped."""
    marker, out = tmp_path / "stalled", tmp_path / "runs"
    src = str(Path(fedcl.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, "-c", KILLED_RUN, *stage.rsplit(".", 1), str(marker), "run",
           "--preset", "smoke", "--arms", "fedmoco", *FINE_TUNE, "--out", str(out)]
    with (open(tmp_path / "log", "wb") as log,
          subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                           start_new_session=True) as run):
        try:
            while not marker.exists():
                assert run.poll() is None, (tmp_path / "log").read_text()
                time.sleep(0.01)
            killed = time.monotonic()
            run.send_signal(sig)
            assert run.wait(timeout=10) == -sig
            written = file_states(out)
            while group_alive(run.pid):
                assert time.monotonic() - killed < 5, "a worker outlived fedcl run by 5 s"
                time.sleep(0.01)
            assert file_states(out) == written
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(run.pid, signal.SIGKILL)

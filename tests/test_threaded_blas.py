"""The golden-digest child at two OpenBLAS threads.

``federation.run_training`` holds numpy's bundled OpenBLAS at one thread for
the span of a run, and ``cli._finish_run`` for its evaluation, so every
workload's seed-13 run, wide's included, must give its pinned digest and its
pinned probe and fine-tune records at two threads too. On two CPUs wide's
probe runs in a process forked inside that hold, which it inherits. A change
that makes a trained bit depend on the BLAS thread count, or on which
process trains a node or probes, fails here.
"""

import json
import os
import subprocess
import sys

import numpy as np

from test_golden_digests import (CHILD, DIGESTS, FINE_TUNES, NUMPY_VERSION, PROBES, ROOT,
                                 SEED)


def test_two_blas_threads_keep_the_pinned_digests(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "bench"), str(tmp_path), str(SEED)],
        env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == {"digests": DIGESTS, "probes": PROBES, "fine_tunes": FINE_TUNES}, (
        f"run digests, probe or fine-tune records at two BLAS threads moved (constants "
        f"made with numpy {NUMPY_VERSION}, running numpy {np.__version__}): {got}")

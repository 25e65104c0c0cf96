"""The golden-digest child at two OpenBLAS threads.

Run bits that depend on the BLAS thread count are a known gap: the wide
workload's seed-13 digest moves with it (two of its matrix products sum in
another order on two threads), while desk and crowd keep their pinned
digests and every workload its pinned probe records. This test pins both
outcomes, so a change that makes another bit depend on the thread count, or
on how ``nn.forward_batch``'s helper thread is scheduled beside a threaded
BLAS, fails here. A change that makes the wide run thread-invariant drops
``WIDE_AT_TWO_THREADS`` and expects ``DIGESTS`` itself. OpenBLAS starts no
more threads than the process has CPUs, so on one CPU the wide run gives
its one-thread digest.
"""

import json
import os
import subprocess
import sys

import numpy as np

from test_golden_digests import CHILD, DIGESTS, NUMPY_VERSION, PROBES, ROOT, SEED

WIDE_AT_TWO_THREADS = "b1d86d15d8822269ff6b077201b2769e40458f58237f9157fcaba105089cf007"


def test_two_blas_threads_keep_the_pinned_digests(tmp_path):
    wide = WIDE_AT_TWO_THREADS if len(os.sched_getaffinity(0)) > 1 else DIGESTS["wide"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "bench"), str(tmp_path), str(SEED)],
        env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == {"digests": {**DIGESTS, "wide": wide}, "probes": PROBES}, (
        f"run digests or probe records at two BLAS threads moved (constants made with numpy "
        f"{NUMPY_VERSION}, running numpy {np.__version__}): {got}")

"""Seed-13 run digests of the three benchmark workloads, pinned.

Any change to the trained bits or the logged metrics of a run fails here.
A change that means to alter the numerics updates ``DIGESTS`` and says why.
The constants depend on numpy's float kernels and random streams, so they
are stored with the numpy version they were made with.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

NUMPY_VERSION = "2.4.6"
DIGESTS = {
    "desk": "3d262a79cf348f5ec3bf8fbb74e821adc992c1a2be0fe2725e369252d7ec1169",
    "wide": "0106b46b9098a09b5c5b2dce531301bf8859f842b4a8f424f59ccda0414cc345",
    "crowd": "55406071c9e8d650a9c4995ecaed3b1c999aad027aaac1fc1710ead931f422bb",
}
SEED = 13

# Builds each config the way bench/child.py's `fedcl run --arms fedmoco`
# does, from bench/run.py's workload table; run.py imports `checks`, so
# bench/ goes on sys.path first.
CHILD = """
import importlib.util, json, sys
from pathlib import Path
bench, out, seed = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])
sys.path.insert(0, str(bench))
spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
from fedcl import federation
from fedcl.config import apply_arm, from_dict
digests = {}
for name, overrides in run.WORKLOADS.items():
    config = apply_arm(from_dict(run.workload_config(overrides, seed)), "fedmoco")
    result = federation.run_training(config)
    run_dir = out / name
    run_dir.mkdir()
    federation.save_checkpoint(result.theta0, run_dir / "checkpoint.bin")
    federation.write_jsonl(federation.metrics_records(result.metrics),
                           run_dir / "metrics.jsonl")
    digests[name] = federation.run_digest(run_dir)
print(json.dumps(digests))
"""


def test_benchmark_workload_digests_are_pinned(tmp_path):
    # BLAS on one thread, as bench/run.py runs it: a threaded reduction may
    # sum in another order.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "bench"), str(tmp_path), str(SEED)],
        env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == DIGESTS, (
        f"run digests moved (constants made with numpy {NUMPY_VERSION}, "
        f"running numpy {np.__version__}): {got}")

"""Seed-13 run digests and image digests of the three benchmark workloads,
pinned.

Any change to the trained bits or the logged metrics of a run fails here,
and so does any change to the rendered shards or the evaluation split.
A change that means to alter the numerics updates ``DIGESTS`` or
``IMAGE_DIGESTS`` and says why. The constants depend on numpy's float
kernels and random streams, so they are stored with the numpy version they
were made with.
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
# sha256 over the image fingerprints (pixel bytes, then label text) of every
# node's shard in node order, and of the evaluation split's train then test part;
# the three workloads render the same evaluation split
EVAL_DIGEST = "123e93abc8651cb948f030badf6ac189fbd95d71503f72c899bd3ac471a60d07"
IMAGE_DIGESTS = {
    "desk": {"shards": "c5715ea490186c5f5dc1c8da8239200c070d718b64c8403eb354f32480a5f49b",
             "eval": EVAL_DIGEST},
    "wide": {"shards": "a327c66c5dc229ff7c33bf61d715f0354ecbe81c04bdf9067663c266fce9e0df",
             "eval": EVAL_DIGEST},
    "crowd": {"shards": "d7a51b3295897b32c271fb6dcf2ee4bb542474127a277fb1f322341807e8f29e",
              "eval": EVAL_DIGEST},
}
SEED = 13

# Loads bench/run.py's workload table; run.py imports `checks`, so bench/
# goes on sys.path first.
LOAD_WORKLOADS = """
import importlib.util, json, sys
from pathlib import Path
bench, out, seed = Path(sys.argv[1]), Path(sys.argv[2]), int(sys.argv[3])
sys.path.insert(0, str(bench))
spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
"""

# Builds each config the way bench/child.py's `fedcl run --arms fedmoco`
# does.
CHILD = LOAD_WORKLOADS + """
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


IMAGES_CHILD = LOAD_WORKLOADS + """
import hashlib
from fedcl import datagen
from fedcl.config import from_dict

# per image, the SHA-256 of its float64 pixel bytes followed by its label text
def fingerprints(images):
    return [hashlib.sha256(row.tobytes() + str(label).encode()).hexdigest()
            for row, label in zip(images.pixels, images.labels.tolist())]

def digest(batches):
    return hashlib.sha256("".join(sum(map(fingerprints, batches), [])).encode()).hexdigest()

digests = {}
for name, overrides in run.WORKLOADS.items():
    config = from_dict(run.workload_config(overrides, seed))
    shards = [datagen.generate_node_dataset(config.data, config.nodes, k, seed)
              for k in range(config.nodes)]
    digests[name] = {"shards": digest(shards),
                     "eval": digest(datagen.make_eval_split(config.data, seed))}
print(json.dumps(digests))
"""


def run_child(script: str, tmp_path) -> dict:
    """The JSON last line of ``script`` run on the workloads at ``SEED``."""
    # BLAS on one thread, as bench/run.py runs it: a threaded reduction may
    # sum in another order.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench"), str(tmp_path), str(SEED)],
        env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_workload_images_are_pinned(tmp_path):
    """Every workload's shards with their labels, and its evaluation split,
    which feeds no run digest."""
    got = run_child(IMAGES_CHILD, tmp_path)
    assert got == IMAGE_DIGESTS, (
        f"image digests moved (constants made with numpy {NUMPY_VERSION}, "
        f"running numpy {np.__version__}): {got}")


def test_benchmark_workload_digests_are_pinned(tmp_path):
    got = run_child(CHILD, tmp_path)
    assert got == DIGESTS, (
        f"run digests moved (constants made with numpy {NUMPY_VERSION}, "
        f"running numpy {np.__version__}): {got}")

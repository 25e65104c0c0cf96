"""Seed-13 run digests, linear-probe and fine-tune records and image digests
of the three benchmark workloads, pinned.

Any change to the trained bits or the logged metrics of a run fails here,
and so does any change to the linear probe's or the fine-tune's records, the
rendered shards or the evaluation split. A change that means to alter the
numerics updates ``DIGESTS``, ``PROBES``, ``FINE_TUNES`` or ``IMAGE_DIGESTS``
and says why. The constants depend on numpy's float kernels and random
streams and on the BLAS kernels of its OpenBLAS, which picks them at run
time for the CPU (the fine-tune's float32 products run on its sgemm
kernels). So they are stored with the numpy version and the OpenBLAS
runtime kernel they were made with.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

NUMPY_VERSION = "2.4.6"
BLAS_KERNEL = "SkylakeX"  # numpy's OpenBLAS, scipy_openblas_get_corename64_
DIGESTS = {
    "desk": "bec005295169490b184e86e571d273d8e903e7269f85b561d6992f464c1b741b",
    "wide": "2acc1fe001358ad0ce51242b81b269d2d22ff3c62aa105582372442eb7d1dfbe",
    "crowd": "40326d1ed2165203386c58468fd3bc7e85e84d54891d92226ea906c54cb9f1e9",
}
# eval.jsonl's probe records of those runs
PROBES = {
    "desk": {"probe_accuracy": 0.9583333333333334,
             "probe_accuracy_class_4": 0.94,
             "probe_accuracy_class_5": 0.9766666666666667},
    "wide": {"probe_accuracy": 0.9883333333333333,
             "probe_accuracy_class_4": 0.98,
             "probe_accuracy_class_5": 0.9966666666666667},
    "crowd": {"probe_accuracy": 0.7766666666666666,
              "probe_accuracy_class_4": 0.75,
              "probe_accuracy_class_5": 0.8033333333333333},
}
# eval.jsonl's fine-tune record of the workloads that set run_fine_tune, which
# fine-tune in float32
FINE_TUNES = {"wide": {"finetune_final_accuracy": 0.965}}
# sha256 over the image fingerprints (pixel bytes, then label text) of every
# node's shard in node order, and of the evaluation split's train then test part;
# the three workloads render the same evaluation split
EVAL_DIGEST = "8e41ad988091d6d47b975e2127f9380ec538ea10d2da281144978304d4c122d7"
IMAGE_DIGESTS = {
    "desk": {"shards": "36885ac0492b765bc6eac9810944d3dec53feb1d68fd6a5ba2abc7d79ef33d10",
             "eval": EVAL_DIGEST},
    "wide": {"shards": "c7289d9963d6d5074838d07e7d8d53dd97db2376cfe669fa718a79d18bb10fb6",
             "eval": EVAL_DIGEST},
    "crowd": {"shards": "705b80d8f4fbaeaa2970f909e2346e83da2b22fdb4b1ea38049ffb542bd429a6",
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
# does, and evaluates the trained encoder into a run directory through the
# entry point `fedcl run` uses for eval.jsonl: the probe forked while the
# parent fine-tunes on two CPUs, serially under `taskset -c 0`.
CHILD = LOAD_WORKLOADS + """
from fedcl import cli, federation
from fedcl.config import apply_arm, from_dict
digests, probes, fine_tunes = {}, {}, {}
for name, overrides in run.WORKLOADS.items():
    config = apply_arm(from_dict(run.workload_config(overrides, seed)), "fedmoco")
    run_dir = out / name
    records = cli._finish_run(run_dir, config, federation.run_training(config), "fedmoco")
    digests[name] = (run_dir / "digest.txt").read_text().strip()
    scores = {rec["metric"]: rec["value"] for rec in records}
    probes[name] = {metric: value for metric, value in scores.items()
                    if metric.startswith("probe_accuracy")}
    if config.run_fine_tune:
        fine_tunes[name] = {"finetune_final_accuracy": scores["finetune_final_accuracy"]}
print(json.dumps({"digests": digests, "probes": probes, "fine_tunes": fine_tunes}))
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


def blas_kernel() -> str:
    """The runtime kernel of the OpenBLAS that numpy's wheel bundles, or
    "unknown" where numpy links another BLAS."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob(
            "libscipy_openblas64_-*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def made_with() -> str:
    """Where the constants were made and where this runs: on another numpy
    or BLAS kernel, a moved constant may be a moved sum, not a moved bit."""
    return (f"constants made with numpy {NUMPY_VERSION} on OpenBLAS kernel {BLAS_KERNEL}, "
            f"running numpy {np.__version__} on kernel {blas_kernel()}")


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
    assert got == IMAGE_DIGESTS, f"image digests moved ({made_with()}): {got}"


def test_benchmark_workload_digests_are_pinned(tmp_path):
    """Every workload's run digest and its eval.jsonl probe and fine-tune
    records."""
    got = run_child(CHILD, tmp_path)
    assert got == {"digests": DIGESTS, "probes": PROBES, "fine_tunes": FINE_TUNES}, (
        f"run digests, probe or fine-tune records moved ({made_with()}): {got}")


def test_a_moved_pin_names_both_blas_kernels(monkeypatch):
    monkeypatch.setitem(globals(), "blas_kernel", lambda: "Haswell")
    assert made_with().endswith(f"on OpenBLAS kernel {BLAS_KERNEL}, running numpy "
                                f"{np.__version__} on kernel Haswell")

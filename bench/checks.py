"""Correctness checks on one `fedcl run` directory and its child report.

Every expected value is computed here from ``config.yaml`` alone, with the
protocol's own arithmetic written out again; nothing is asked of fedcl. A
check returns a list of problems, empty when the run is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import yaml

FLOAT_BYTES = 8
EVAL_CLASS_COUNT = 2  # the held-out downstream classes of the eval split


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def run_config(run_dir: Path) -> dict:
    """The resolved config fedcl wrote into the run directory."""
    return yaml.safe_load((run_dir / "config.yaml").read_text())


def layer_dims(cfg: dict) -> list[int]:
    return [cfg["data"]["image_size"] ** 2, *cfg["hidden_dims"], cfg["feature_dim"]]


def param_count(cfg: dict) -> int:
    dims = layer_dims(cfg)
    return sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(len(dims) - 1))


def metadata_rounds(cfg: dict) -> int:
    return cfg["rounds"] - cfg["warmup_rounds"] if cfg["metadata_enabled"] else 0


def expected_message_counts(cfg: dict) -> dict[str, int]:
    k, t, m = cfg["nodes"], cfg["rounds"], metadata_rounds(cfg)
    return {"params_down": k * t, "params_up": k * t,
            "metadata_down": k * m, "metadata_up": k * m}


def expected_wire_bytes(cfg: dict) -> dict[str, int]:
    """Every node downloads and uploads the parameter vector each round.
    From the first metadata round on, each node uploads its mean and
    covariance (d + d^2 values); a download carries the K-1 peer summaries
    uploaded the round before, so the first one carries none."""
    k, t, m = cfg["nodes"], cfg["rounds"], metadata_rounds(cfg)
    d = cfg["feature_dim"]
    params = FLOAT_BYTES * k * t * param_count(cfg)
    item = FLOAT_BYTES * (d + d * d)
    out = {"params_down": params, "params_up": params}
    if m:
        out["metadata_up"] = k * m * item
        out["metadata_down"] = k * (k - 1) * (m - 1) * item
    return out


def expected_synthetic_count(cfg: dict, round_index: int) -> int:
    k = cfg["nodes"]
    first_meta_round = cfg["warmup_rounds"] + 1
    if not cfg["metadata_enabled"] or k < 2 or round_index <= first_meta_round:
        return 0
    return (k - 1) * math.floor(cfg["eta"] * cfg["queue_capacity"] / (k - 1))


def expected_fine_tune_size(cfg: dict) -> int:
    """The eval split puts ceil(n/2) of each class's n images in train; the
    fine-tune keeps floor(fraction * that) of each class."""
    per_class_train = (cfg["data"]["eval_per_class"] + 1) // 2
    return EVAL_CLASS_COUNT * math.floor(cfg["fine_tune_fraction"] * per_class_train)


def wire_mb_per_round(report: dict, cfg: dict) -> float:
    return sum(report["wire_bytes"].values()) / cfg["rounds"] / 1e6


def run_digest(run_dir: Path) -> str:
    return (run_dir / "digest.txt").read_text().strip()


def _check_messages(run_dir: Path, cfg: dict, report: dict) -> list[str]:
    problems = []
    counts = Counter(rec["kind"] for rec in read_jsonl(run_dir / "messages.log"))
    want = expected_message_counts(cfg)
    for kind in sorted(set(want) | set(counts)):
        if counts.get(kind, 0) != want.get(kind, 0):
            problems.append(f"messages: {counts.get(kind, 0)} {kind}, expected {want.get(kind, 0)}")
    sent = report["wire_bytes"]
    want_bytes = expected_wire_bytes(cfg)
    for kind in sorted(set(want_bytes) | set(sent)):
        if sent.get(kind, 0) != want_bytes.get(kind, 0):
            problems.append(f"wire: {sent.get(kind, 0)} bytes of {kind}, "
                            f"expected {want_bytes.get(kind, 0)}")
    audit = json.loads((run_dir / "audit.json").read_text())
    if not audit["passed"]:
        problems.append(f"audit: violations {audit['violations']}")
    return problems


def _check_rounds(run_dir: Path, cfg: dict) -> list[str]:
    problems = []
    records = read_jsonl(run_dir / "metrics.jsonl")
    by_round: dict[int, list[dict]] = {}
    for rec in records:
        by_round.setdefault(rec["round"], []).append(rec)
    if sorted(by_round) != list(range(1, cfg["rounds"] + 1)):
        problems.append(f"metrics: rounds {sorted(by_round)}, expected 1..{cfg['rounds']}")
    for r, recs in sorted(by_round.items()):
        if sorted(rec["node"] for rec in recs) != list(range(cfg["nodes"])):
            problems.append(f"metrics: round {r} holds nodes {[rec['node'] for rec in recs]}")
        weights = [rec["weight"] for rec in recs]
        if min(weights) < 0 or abs(math.fsum(weights) - 1.0) > 1e-9:
            problems.append(f"weights: round {r} has {weights}, not a distribution")
        synth = expected_synthetic_count(cfg, r)
        for rec in recs:
            if not math.isfinite(rec["loss"]):
                problems.append(f"loss: round {r} node {rec['node']} is {rec['loss']}")
            if rec["rsa"] is None or not -1.0 <= rec["rsa"] <= 1.0:
                problems.append(f"rsa: round {r} node {rec['node']} is {rec['rsa']}")
            if rec["synthetic_count"] != synth:
                problems.append(f"synthetic: round {r} node {rec['node']} mixed in "
                                f"{rec['synthetic_count']}, expected {synth}")
    timing = read_jsonl(run_dir / "timing.jsonl")
    if [rec["round"] for rec in timing] != list(range(1, cfg["rounds"] + 1)):
        problems.append("timing: not one record per round")
    return problems


def _check_artifacts(run_dir: Path, cfg: dict, report: dict) -> list[str]:
    problems = []
    raw = (run_dir / "checkpoint.bin").read_bytes()
    header_line, _, body = raw.partition(b"\n")
    header = json.loads(header_line)
    dims = layer_dims(cfg)
    shapes = [[dims[i + 1], dims[i], True] for i in range(len(dims) - 1)]
    count = param_count(cfg)
    if header["shapes"] != shapes or header["count"] != count or len(body) != FLOAT_BYTES * count:
        problems.append(f"checkpoint: header {header} and {len(body)} body bytes "
                        f"do not match the {shapes} encoder")
    elif not np.all(np.isfinite(np.frombuffer(body, dtype="<f8"))):
        problems.append("checkpoint: non-finite parameters")
    if hashlib.sha256(body).hexdigest() != report["final_params_sha256"]:
        problems.append("checkpoint: body differs from the final in-memory parameters")
    if not report["checkpoint_reload_equal"]:
        problems.append("checkpoint: load_checkpoint does not give back the final parameters")
    digest = hashlib.sha256(raw + (run_dir / "metrics.jsonl").read_bytes()).hexdigest()
    if run_digest(run_dir) != digest:
        problems.append("digest: digest.txt does not match checkpoint.bin + metrics.jsonl")
    return problems


def _check_eval(run_dir: Path, cfg: dict, report: dict) -> list[str]:
    problems = []
    values = {rec["metric"]: rec["value"] for rec in read_jsonl(run_dir / "eval.jsonl")}
    if cfg["run_probe"] and not values.get("probe_accuracy", 0.0) > 0.5:
        problems.append(f"probe: accuracy {values.get('probe_accuracy')} is not above chance")
    if cfg["run_fine_tune"]:
        want = expected_fine_tune_size(cfg)
        if report["fine_tune_train_size"] != want:
            problems.append(f"fine-tune: trained on {report['fine_tune_train_size']} "
                            f"images, expected {want}")
        best, final = values.get("finetune_best_accuracy"), values.get("finetune_final_accuracy")
        if best is None or final is None or best < final:
            problems.append(f"fine-tune: best accuracy {best} below final {final}")
    return problems


def check_run(run_dir: Path, report: dict) -> list[str]:
    """Every problem found in one run directory, given its child report."""
    cfg = run_config(run_dir)
    return (_check_messages(run_dir, cfg, report) + _check_rounds(run_dir, cfg)
            + _check_artifacts(run_dir, cfg, report) + _check_eval(run_dir, cfg, report))

"""Self-tests of the benchmark on a smoke-sized workload.

    python3 -m pytest bench/selftest.py -q

The smoke workload goes through the same code path as the real ones
(``run.measure`` and ``run.run_child``), in a few seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from checks import check_run, read_jsonl  # noqa: E402

SMOKE = {
    "nodes": 3,
    "rounds": 3,
    "warmup_rounds": 1,
    "queue_capacity": 32,
    "batch_size": 16,
    "eta": 0.25,
    "probe_size": 16,
    "hidden_dims": [16],
    "feature_dim": 8,
    "run_fine_tune": True,
    "fine_tune_fraction": 0.1,
    "fine_tune": {"epochs": 5},
    "probe": {"epochs": 50},
    "data": {"base_size": 48, "eval_per_class": 40, "eval_noise": 0.15},
}

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _smoke_rep(tmp: Path, trace: bool) -> tuple[dict, Path]:
    config = tmp / "smoke.yaml"
    config.write_text(json.dumps(bench.workload_config(SMOKE, 0)))
    report, tail = bench.run_child(config, tmp / "rep", trace, timeout=120)
    assert report is not None and report["exit_code"] == 0, tail
    return report, Path(report["run_dir"])


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metrics_match_benchmark_json(tmp_path, trace, section):
    result = bench.measure("smoke", SMOKE, 0, 0, trace, tmp_path / "work")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == bench.MIN_REPS
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)


def test_traced_round_time_adds_up(tmp_path):
    report, run_dir = _smoke_rep(tmp_path, trace=True)
    trace = report["trace"]
    busy = trace["busy_s"]["federation.run_round"]
    own = trace["self_s"]["federation.run_round"]
    children = trace["edges"]["federation.run_round"]
    assert own >= 0
    assert math.isclose(own + sum(children.values()), busy, rel_tol=1e-9)
    assert {"contrastive.local_update", "rsa.rsa_score", "rsa.aggregate",
            "federation.MessageChannel.send"} <= set(children)
    # The program times each round around the traced call.
    rounds = sum(rec["seconds"] for rec in read_jsonl(run_dir / "timing.jsonl"))
    assert busy <= rounds <= busy + 0.01 * rounds + 1e-3


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("clean")
    report, run_dir = _smoke_rep(tmp, trace=False)
    assert check_run(run_dir, report) == []
    return report, run_dir


def _forge(clean_run, tmp_path, filename, edit):
    report, run_dir = clean_run
    forged = tmp_path / "run"
    shutil.copytree(run_dir, forged)
    path = forged / filename
    path.write_text(edit(path.read_text()))
    return check_run(forged, report)


def _records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _lines(records: list[dict]) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def test_tampered_digest_is_caught(clean_run, tmp_path):
    problems = _forge(clean_run, tmp_path, "digest.txt", lambda text: "0" * 64 + "\n")
    assert [p for p in problems if p.startswith("digest:")], problems


def test_dropped_message_is_caught(clean_run, tmp_path):
    def drop_upload(text):
        lines = text.splitlines(keepends=True)
        index = next(i for i, line in enumerate(lines) if '"params_up"' in line)
        return "".join(lines[:index] + lines[index + 1:])

    problems = _forge(clean_run, tmp_path, "messages.log", drop_upload)
    assert [p for p in problems if p.startswith("messages:")], problems


def test_altered_weight_is_caught(clean_run, tmp_path):
    def bump(text):
        records = _records(text)
        records[0]["weight"] += 1e-6
        return _lines(records)

    problems = _forge(clean_run, tmp_path, "metrics.jsonl", bump)
    assert [p for p in problems if p.startswith("weights:")], problems


def test_missing_synthetic_negatives_are_caught(clean_run, tmp_path):
    def zero(text):
        records = _records(text)
        for rec in records:
            rec["synthetic_count"] = 0
        return _lines(records)

    problems = _forge(clean_run, tmp_path, "metrics.jsonl", zero)
    assert [p for p in problems if p.startswith("synthetic:")], problems


def test_non_finite_loss_is_caught(clean_run, tmp_path):
    def poison(text):
        records = _records(text)
        records[-1]["loss"] = float("nan")
        return _lines(records)

    problems = _forge(clean_run, tmp_path, "metrics.jsonl", poison)
    assert [p for p in problems if p.startswith("loss:")], problems

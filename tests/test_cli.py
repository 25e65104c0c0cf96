import json
from pathlib import Path

import numpy as np
import pytest

from fedcl import federation
from fedcl.cli import main
from fedcl.config import from_dict, save_config
from fedcl.datagen import load_dataset
from fedcl.federation import read_jsonl, run_digest, write_jsonl

FAST = [
    "--set", "rounds=2", "--set", "warmup_rounds=1",
    "--set", "data.base_size=24", "--set", "data.eval_per_class=8",
    "--set", "queue_capacity=16", "--set", "batch_size=8",
    "--set", "probe_size=8", "--set", "probe.epochs=3",
]


def run_smoke(out, extra=()):
    return main(["run", "--preset", "smoke", "--arms", "fedavg",
                 "--seed", "3", "--out", str(out), *FAST, *extra])


def test_run_writes_expected_layout(tmp_path):
    assert run_smoke(tmp_path / "runs") == 0
    run_dir = tmp_path / "runs" / "smoke" / "fedavg" / "seed-3"
    for name in ("config.yaml", "checkpoint.bin", "metrics.jsonl",
                 "timing.jsonl", "messages.log", "audit.json", "eval.jsonl",
                 "digest.txt"):
        assert (run_dir / name).exists(), name
    audit = json.loads((run_dir / "audit.json").read_text())
    assert audit["passed"] is True
    rows = read_jsonl(run_dir / "eval.jsonl")
    assert any(r["metric"] == "probe_accuracy" for r in rows)
    assert all(r["model"] == "fedavg" and r["seed"] == 3 for r in rows)


def test_two_invocations_identical_digests(tmp_path):
    assert run_smoke(tmp_path / "a") == 0
    assert run_smoke(tmp_path / "b") == 0
    da = (tmp_path / "a" / "smoke" / "fedavg" / "seed-3" / "digest.txt").read_text()
    db = (tmp_path / "b" / "smoke" / "fedavg" / "seed-3" / "digest.txt").read_text()
    assert da == db


def test_run_from_config_file(tmp_path):
    cfg = from_dict({
        "nodes": 2, "rounds": 2, "warmup_rounds": 1, "queue_capacity": 16,
        "batch_size": 8, "probe_size": 8, "probe": {"epochs": 3},
        "data": {"base_size": 16, "eval_per_class": 8},
    })
    path = tmp_path / "mini.yaml"
    save_config(cfg, path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "runs")]) == 0
    assert (tmp_path / "runs" / "mini" / "fedmoco" / "seed-0" / "digest.txt").exists()


def test_preset_and_config_are_mutually_exclusive(tmp_path):
    assert main(["run", "--preset", "smoke", "--config", "x.yaml"]) == 2
    assert main(["run"]) == 2


def test_bad_set_key_is_a_config_error():
    assert main(["run", "--preset", "smoke", "--set", "no_such_field=1"]) == 2
    assert main(["run", "--preset", "smoke", "--set", "garbage"]) == 2


def test_unknown_arm_is_a_config_error():
    assert main(["run", "--preset", "smoke", "--arms", "bogus"]) == 2


def test_report_aggregates_by_unbiased_std(tmp_path, capsys):
    run_dir = tmp_path / "collection" / "modelx" / "seed-0"
    run_dir.mkdir(parents=True)
    rows = [{"model": "modelx", "seed": s, "metric": "probe_accuracy", "value": v}
            for s, v in [(0, 0.90), (1, 0.92), (2, 0.94)]]
    (run_dir / "eval.jsonl").write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert main(["report", str(tmp_path / "collection")]) == 0
    report = json.loads((tmp_path / "collection" / "report.json").read_text())
    row = next(r for r in report if r["metric"] == "probe_accuracy")
    assert row["mean"] == pytest.approx(0.92, abs=1e-12)
    assert row["std"] == pytest.approx(np.std([0.90, 0.92, 0.94], ddof=1), abs=1e-12)
    assert row["seeds"] == 3


def test_report_flags_single_seed(tmp_path, capsys):
    run_dir = tmp_path / "solo" / "m" / "seed-0"
    run_dir.mkdir(parents=True)
    (run_dir / "eval.jsonl").write_text(json.dumps(
        {"model": "m", "seed": 0, "metric": "probe_accuracy", "value": 0.9}) + "\n")
    assert main(["report", str(tmp_path / "solo")]) == 0
    out = capsys.readouterr().out
    assert "single-seed" in out


def test_report_empty_dir_fails(tmp_path):
    assert main(["report", str(tmp_path)]) == 1


def test_audit_passes_on_real_run(tmp_path):
    assert run_smoke(tmp_path / "runs") == 0
    run_dir = tmp_path / "runs" / "smoke" / "fedavg" / "seed-3"
    assert main(["audit", str(run_dir)]) == 0


def test_audit_fails_on_tampered_payload_tag(tmp_path):
    assert run_smoke(tmp_path / "runs") == 0
    run_dir = tmp_path / "runs" / "smoke" / "fedavg" / "seed-3"
    log = run_dir / "messages.log"
    tampered = log.read_text().replace('"payload": "params"',
                                       '"payload": "other:Images"', 1)
    log.write_text(tampered)
    assert main(["audit", str(run_dir)]) == 1


def test_audit_fails_on_dropped_message(tmp_path):
    assert run_smoke(tmp_path / "runs") == 0
    run_dir = tmp_path / "runs" / "smoke" / "fedavg" / "seed-3"
    log = run_dir / "messages.log"
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["audit", str(run_dir)]) == 1


def test_audit_fails_on_message_sent_the_wrong_way(tmp_path, capsys):
    assert run_smoke(tmp_path / "runs") == 0
    run_dir = tmp_path / "runs" / "smoke" / "fedavg" / "seed-3"
    records = read_jsonl(run_dir / "messages.log")
    i = next(i for i, r in enumerate(records) if r["kind"] == "params_up")
    records[i]["sender"] = "server"
    write_jsonl(records, run_dir / "messages.log")
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 1
    assert f"FAIL message {i}: params_up sent by 'server'" in capsys.readouterr().out


def test_audit_recomputes_the_digest(tmp_path, capsys):
    assert run_smoke(tmp_path / "runs") == 0
    run_dir = tmp_path / "runs" / "smoke" / "fedavg" / "seed-3"
    assert (run_dir / "digest.txt").read_text() == run_digest(run_dir) + "\n"
    metrics = run_dir / "metrics.jsonl"
    metrics.write_text(metrics.read_text().replace('"round": 2', '"round": 3', 1))
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 1
    assert "FAIL digest.txt does not match" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["config.yaml", "digest.txt", "checkpoint.bin"])
def test_audit_fails_on_a_missing_file(tmp_path, capsys, name):
    assert run_smoke(tmp_path / "runs") == 0
    run_dir = tmp_path / "runs" / "smoke" / "fedavg" / "seed-3"
    (run_dir / name).unlink()
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 1
    assert f"FAIL {name} missing" in capsys.readouterr().out


def test_run_writes_every_file_atomically(tmp_path, monkeypatch):
    written = []
    real = federation.write_atomic

    def recording(path, *chunks):
        written.append(path)
        real(path, *chunks)

    monkeypatch.setattr(federation, "write_atomic", recording)
    assert run_smoke(tmp_path / "runs") == 0
    run_dir = tmp_path / "runs" / "smoke" / "fedavg" / "seed-3"
    files = set(run_dir.iterdir())
    assert files == {run_dir / name for name in (
        "config.yaml", "checkpoint.bin", "metrics.jsonl", "timing.jsonl",
        "messages.log", "audit.json", "eval.jsonl", "digest.txt")}
    assert files <= {Path(p) for p in written}
    assert not list((tmp_path / "runs").rglob("*.tmp"))


def test_audit_missing_log(tmp_path):
    assert main(["audit", str(tmp_path)]) == 1


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2
    assert "config error" in capsys.readouterr().err


def test_unparseable_set_value_is_a_config_error(capsys):
    assert main(["run", "--preset", "smoke", "--set", "rounds=[oops"]) == 2
    assert "config error" in capsys.readouterr().err


def test_audit_walks_a_tree_of_runs(tmp_path, capsys):
    assert main(["run", "--preset", "smoke", "--seed", "3",
                 "--out", str(tmp_path / "runs"), *FAST]) == 0
    capsys.readouterr()
    assert main(["audit", str(tmp_path / "runs")]) == 0
    out = capsys.readouterr().out
    assert out.count("audit passed") == 2  # smoke preset runs two arms
    assert "fedavg" in out and "fedmoco" in out


def test_audit_tree_reports_single_bad_run(tmp_path):
    assert main(["run", "--preset", "smoke", "--seed", "3",
                 "--out", str(tmp_path / "runs"), *FAST]) == 0
    log = tmp_path / "runs" / "smoke" / "fedmoco" / "seed-3" / "messages.log"
    lines = log.read_text().splitlines()
    log.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["audit", str(tmp_path / "runs")]) == 1


def test_audit_tree_reports_a_config_that_does_not_load_and_goes_on(tmp_path, capsys):
    """A run directory whose config.yaml is refused (here it holds a removed
    key) fails on its own; the runs after it are still audited."""
    assert main(["run", "--preset", "smoke", "--arms", "fedavg", "--seed", "0", "--seed", "1",
                 "--out", str(tmp_path / "runs"), *FAST]) == 0
    config = tmp_path / "runs" / "smoke" / "fedavg" / "seed-0" / "config.yaml"
    config.write_text(config.read_text() + "metadata_timing: post_sync\n")
    capsys.readouterr()
    assert main(["audit", str(tmp_path / "runs")]) == 1
    out = capsys.readouterr().out
    assert "FAIL config.yaml: " in out and "metadata_timing: unknown field" in out
    assert out.count("audit passed") == 1
    assert out.index("seed-0") < out.index("FAIL") < out.index("seed-1") < out.index("passed")


def _cut_last_line(text):
    return text[: text.rindex("}")], len(text.splitlines())


def _drop_first_sender(text):
    first, rest = text.split("\n", 1)
    record = json.loads(first)
    del record["sender"]
    return json.dumps(record) + "\n" + rest, 1


@pytest.mark.parametrize("damage, reason", [
    (_cut_last_line, "not JSON"),
    (_drop_first_sender, "no string 'sender' field"),
])
def test_audit_tree_names_a_damaged_message_log_and_goes_on(tmp_path, capsys, damage, reason):
    """A truncated line or a record without a sender fails its run by line
    number; the run after it is still audited."""
    assert main(["run", "--preset", "smoke", "--arms", "fedavg", "--seed", "0", "--seed", "1",
                 "--out", str(tmp_path / "runs"), *FAST]) == 0
    log = tmp_path / "runs" / "smoke" / "fedavg" / "seed-0" / "messages.log"
    damaged, line = damage(log.read_text())
    log.write_text(damaged)
    capsys.readouterr()
    assert main(["audit", str(tmp_path / "runs")]) == 1
    out = capsys.readouterr().out
    assert f"FAIL messages.log: line {line}: {reason}" in out
    assert out.count("FAIL") == 1 and out.count("audit passed") == 1
    assert out.index("seed-0") < out.index("FAIL") < out.index("seed-1") < out.index("passed")


def test_export_data_writes_loadable_shards(tmp_path):
    dest = tmp_path / "data"
    assert main(["export-data", "--preset", "smoke", *FAST,
                 "--out", str(dest)]) == 0
    for k in range(3):
        shard = load_dataset(dest / f"node-{k}.bin")
        assert shard.pixels.shape == (24, 16, 16)
        assert set(shard.labels.tolist()) <= {0, 1, 2, 3}
    train = load_dataset(dest / "eval-train.bin")
    test = load_dataset(dest / "eval-test.bin")
    assert len(train) == 8 and len(test) == 8
    assert set(train.labels.tolist()) | set(test.labels.tolist()) == {4, 5}


def test_run_warns_once_when_synthetic_quota_is_zero(tmp_path, capsys):
    # smoke: eta 0.05 * capacity 16 / (K-1 = 2) = 0.4 floors to 0 per peer
    assert main(["run", "--preset", "smoke", "--arms", "fedmoco", "--seed", "3", "--seed", "4",
                 "--out", str(tmp_path / "runs"), *FAST]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning")]
    assert len(lines) == 1
    assert "eta=0.05" in lines[0] and "queue_capacity=16" in lines[0] and "K=3" in lines[0]
    assert "no synthetic negatives are mixed in" in lines[0]


def test_run_does_not_warn_with_a_nonzero_quota_or_no_metadata(tmp_path, capsys):
    assert main(["run", "--preset", "smoke", "--arms", "fedmoco", "fedavg", "--seed", "3",
                 "--out", str(tmp_path / "runs"), *FAST, "--set", "eta=0.25"]) == 0
    assert main(["run", "--preset", "smoke", "--arms", "fedmoco", "--seed", "3",
                 "--out", str(tmp_path / "zero"), *FAST, "--set", "eta=0"]) == 0
    assert "warning" not in capsys.readouterr().err

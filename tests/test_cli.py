import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcl import evaluate, federation
from fedcl.cli import _apply_overrides, _jsonl_records, main
from fedcl.config import ExperimentConfig, from_dict, load_config, save_config
from fedcl.datagen import load_dataset
from fedcl.federation import run_digest, write_jsonl

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
    rows = _jsonl_records(run_dir / "eval.jsonl", {})
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


def test_unknown_arm_is_a_config_error(capsys, monkeypatch):
    monkeypatch.setattr(federation, "run_training", _no_training)
    assert main(["run", "--preset", "smoke", "--arms", "fedavg", "bogus"]) == 2
    assert "config error: arms: unknown arm 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("flags, needle", [
    (["--seed", "1", "--seed", "2", "--seed", "1"], "--seed: 1"),
    (["--arms", "fedavg", "fedmoco", "fedavg"], "--arms: fedavg"),
])
def test_run_refuses_a_repeated_seed_or_arm(tmp_path, capsys, monkeypatch, flags, needle):
    """Both copies would train into one run directory."""
    monkeypatch.setattr(federation, "run_training", _no_training)
    assert main(["run", "--preset", "smoke", "--out", str(tmp_path), *flags]) == 2
    assert f"config error: {needle} given more than once" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", [["--arms", "x"], ["--name", "x"]])
def test_export_data_takes_no_run_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["export-data", "--preset", "smoke", "--out", str(tmp_path / "data"), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_runs_go_under_out_or_the_working_directory(tmp_path, monkeypatch):
    """Without ``--out`` a run lands in ./runs; no environment variable moves it."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("FEDCL_OUT", str(tmp_path / "env"))
    assert main(["run", "--preset", "smoke", "--arms", "fedavg", "--seed", "3", *FAST]) == 0
    assert (tmp_path / "runs" / "smoke" / "fedavg" / "seed-3" / "digest.txt").exists()
    assert not (tmp_path / "env").exists()


REMOVED = ["cov_jitter=1.0e-8", "data.eval_offset=0.08", "data.eval_texture_freq=1.5",
           "probe.lr=0.1", "probe.batch_size=64", "fine_tune.lr=0.01",
           "fine_tune.batch_size=32", "fine_tune.momentum=0.9", "fine_tune.weight_decay=1.0e-4"]


@pytest.mark.parametrize("assignment", REMOVED, ids=[a.partition("=")[0] for a in REMOVED])
def test_run_refuses_a_removed_setting_by_name(tmp_path, capsys, monkeypatch, assignment):
    """Settings no run varied are constants now; setting one, even to its old
    value, is refused through ``--set`` and in a ``--config`` file."""
    monkeypatch.setattr(federation, "run_training", _no_training)
    key = assignment.partition("=")[0]
    assert main(["run", "--preset", "smoke", "--set", assignment,
                 "--out", str(tmp_path / "runs")]) == 2
    assert f"config error: {key}: unknown field" in capsys.readouterr().err
    path = tmp_path / "old.yaml"
    path.write_text(yaml.safe_dump(_apply_overrides({}, [assignment])))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert f"config error: {path}: {key}: unknown field" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("document", ["[]", "false", "0", "''"])
def test_run_refuses_a_config_document_that_is_not_a_mapping(tmp_path, capsys, monkeypatch,
                                                             document):
    monkeypatch.setattr(federation, "run_training", _no_training)
    path = tmp_path / "bad.yaml"
    path.write_text(document + "\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert f"config error: {path}: config: expected a mapping" in capsys.readouterr().err


def test_an_empty_config_file_or_mapping_is_the_default_config(tmp_path):
    path = tmp_path / "empty.yaml"
    for text in ("", "{}\n"):
        path.write_text(text)
        assert load_config(path) == ExperimentConfig()


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


def test_a_rerun_that_stops_midway_leaves_no_completion_marker(tmp_path, monkeypatch, capsys):
    """A finished run's digest.txt and eval.jsonl go before its rerun writes
    anything, so a rerun interrupted in its fine-tune is neither audited
    against the old digest nor reported."""
    args = ["run", "--preset", "smoke", "--arms", "fedmoco", "--set", "run_fine_tune=true",
            "--set", "fine_tune_fraction=0.25", "--set", "fine_tune.epochs=2",
            "--out", str(tmp_path)]
    assert main(args) == 0

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(evaluate, "fine_tune", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main([*args, "--set", "rounds=3"])
    run_dir = tmp_path / "smoke" / "fedmoco" / "seed-0"
    assert (run_dir / "checkpoint.bin").exists()
    assert not (run_dir / "digest.txt").exists() and not (run_dir / "eval.jsonl").exists()
    capsys.readouterr()
    assert main(["report", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"no eval.jsonl records under {tmp_path}\n"


def _no_training(config):
    raise AssertionError("a run trained before the config error")


def test_run_refuses_a_fine_tune_without_labeled_images(tmp_path, capsys, monkeypatch):
    """The smoke preset's 20 labeled train images per class give 3% of them
    no image to fine-tune on: refused before any run trains or is written."""
    monkeypatch.setattr(federation, "run_training", _no_training)
    assert main(["run", "--preset", "smoke", "--arms", "fedmoco", "--set", "run_fine_tune=true",
                 "--out", str(tmp_path / "runs")]) == 2
    assert "config error: fine_tune_fraction" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_run_refuses_nodes_on_a_preset_with_node_counts(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(federation, "run_training", _no_training)
    assert main(["run", "--preset", "table1-desk", "--set", "nodes=2",
                 "--out", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert "config error: --set nodes" in err and "node_counts [3, 6]" in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("assignment,needle", [
    # ReLU features hold exact zeros: lam = 0 takes their log, lam < 0 a
    # negative power of zero, so a metadata round could not serve either
    ("boxcox_lambda=0.0", "boxcox_lambda: must be positive"),
    ("boxcox_lambda=-1.0", "boxcox_lambda: must be positive"),
    ("eta=2.0", "eta: must lie in [0, 1]"),
    ("eta=.inf", "eta: expected a finite number, got inf"),
    ("lr=.nan", "lr: expected a finite number, got nan"),
    ("lr=-1e-3", "lr: must be non-negative"),  # read as a number, then range-checked
], ids=["lambda-zero", "lambda-negative", "eta-above-one", "eta-inf", "lr-nan",
        "lr-negative-exponent"])
def test_run_refuses_a_bad_value_by_name(tmp_path, capsys, monkeypatch, assignment, needle):
    monkeypatch.setattr(federation, "run_training", _no_training)
    assert main(["run", "--preset", "smoke", "--arms", "fedmoco", "--set", assignment,
                 "--out", str(tmp_path / "runs")]) == 2
    assert f"config error: {needle}" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_set_values_and_config_files_read_yaml_12_floats(tmp_path):
    """``1e-3`` is a float, as YAML 1.2 reads it, both in a ``--set`` value
    and in a ``--config`` file; ``10`` stays an integer."""
    raw = _apply_overrides({}, ["lr=1e-3", "rounds=10", "data.gamma=2E+0"])
    assert raw == {"lr": 0.001, "rounds": 10, "data": {"gamma": 2.0}}
    assert type(raw["rounds"]) is int and type(raw["lr"]) is float
    path = tmp_path / "exp.yaml"
    path.write_text("lr: 1e-3\nrounds: 10\nwarmup_rounds: 1\n")
    cfg = load_config(path)
    assert (cfg.lr, cfg.rounds) == (0.001, 10) and type(cfg.rounds) is int
    assert run_smoke(tmp_path / "runs", ["--set", "lr=1e-3"]) == 0
    run_dir = tmp_path / "runs" / "smoke" / "fedavg" / "seed-3"
    assert load_config(run_dir / "config.yaml").lr == 0.001


def test_report_names_a_damaged_eval_file_and_summarizes_the_rest(tmp_path, capsys):
    assert main(["run", "--preset", "smoke", "--arms", "fedavg", "--seed", "0", "--seed", "1",
                 "--out", str(tmp_path / "runs"), *FAST]) == 0
    root = tmp_path / "runs" / "smoke"
    damaged = root / "fedavg" / "seed-0" / "eval.jsonl"
    damaged.write_bytes(damaged.read_bytes()[:50])
    capsys.readouterr()
    assert main(["report", str(root)]) == 1
    out, err = capsys.readouterr()
    assert f"error: {damaged}: line 1: not JSON" in err
    report = json.loads((root / "report.json").read_text())
    row = next(r for r in report if r["metric"] == "probe_accuracy")
    want = next(r["value"] for r in _jsonl_records(root / "fedavg" / "seed-1" / "eval.jsonl", {})
                if r["metric"] == "probe_accuracy")
    assert row["seeds"] == 1 and row["mean"] == want
    assert "probe_accuracy" in out
    # the summary at the end of a run into the same tree reads it the same way
    assert main(["run", "--preset", "smoke", "--arms", "fedavg", "--seed", "2",
                 "--out", str(tmp_path / "runs"), *FAST]) == 1
    out, err = capsys.readouterr()
    assert f"error: {damaged}: line 1: not JSON" in err
    assert re.search(r"fedavg +probe_accuracy +[0-9.]+ +[0-9.]+ +2\n", out)


@pytest.mark.parametrize("value", ["true", "NaN", "Infinity"])
def test_report_refuses_an_eval_value_that_is_not_a_finite_number(tmp_path, capsys, value):
    """JSON reads ``true`` as a bool and ``NaN`` or ``Infinity`` as a float;
    ``fedcl run`` writes none of them, and the mean of the rest stays finite."""
    root = tmp_path / "runs"
    for seed, line in [(0, f'"value": {value}'), (1, '"value": 0.75')]:
        (root / "m" / f"seed-{seed}").mkdir(parents=True)
        (root / "m" / f"seed-{seed}" / "eval.jsonl").write_text(
            f'{{"model": "m", "seed": {seed}, "metric": "probe_accuracy", {line}}}\n')
    assert main(["report", str(root)]) == 1
    damaged = root / "m" / "seed-0" / "eval.jsonl"
    assert f"error: {damaged}: line 1: no number 'value' field" in capsys.readouterr().err
    report = json.loads((root / "report.json").read_text())
    assert [(r["mean"], r["seeds"]) for r in report] == [(0.75, 1)]


def test_audit_passes_on_real_run(tmp_path):
    assert run_smoke(tmp_path / "runs") == 0
    run_dir = tmp_path / "runs" / "smoke" / "fedavg" / "seed-3"
    assert main(["audit", str(run_dir)]) == 0


def test_audit_fails_on_tampered_payload_tag(tmp_path, capsys):
    assert run_smoke(tmp_path / "runs") == 0
    run_dir = tmp_path / "runs" / "smoke" / "fedavg" / "seed-3"
    log = run_dir / "messages.log"
    tampered = log.read_text().replace('"payload": "params"',
                                       '"payload": "other:Images"', 1)
    log.write_text(tampered)
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == ["FAIL message 0: params_down of round 1 from 'server' to 'node-0' "
                     "carrying 'other:Images', expected params_down of round 1 from "
                     "'server' to 'node-0' carrying 'params'"]


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
    records = _jsonl_records(run_dir / "messages.log", {})
    i = next(i for i, r in enumerate(records) if r["kind"] == "params_up")
    records[i]["sender"] = "server"
    write_jsonl(records, run_dir / "messages.log")
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL message {i}: params_up of round 1 from 'server' to 'server' "
                     "carrying 'params', expected params_up of round 1 from 'node-0' to "
                     "'server' carrying 'params'"]


@pytest.mark.parametrize("at, key, value, fail", [
    (-1, "round", 1, "message {i}: params_up of round 1 from 'node-2' to 'server' carrying "
     "'params', expected params_up of round 2 from 'node-2' to 'server' carrying 'params'"),
    (-1, "round", 99, "message {i}: params_up of round 99 from 'node-2' to 'server' carrying "
     "'params', expected params_up of round 2 from 'node-2' to 'server' carrying 'params'"),
    (0, "round", "two", "messages.log: line {n}: no integer 'round' field"),
    (0, "round", True, "messages.log: line {n}: no integer 'round' field"),
    (0, "receiver", "node-77", "message {i}: params_down of round 1 from 'server' to "
     "'node-77' carrying 'params', expected params_down of round 1 from 'server' to "
     "'node-0' carrying 'params'"),
    (-1, "sender", "node-3", "message {i}: params_up of round 2 from 'node-3' to 'server' "
     "carrying 'params', expected params_up of round 2 from 'node-2' to 'server' "
     "carrying 'params'"),
    (0, "digest", None, "messages.log: line {n}: no 16-hex-digit 'digest' field"),
    (-1, "digest", "0123456789ABCDEF", "messages.log: line {n}: no 16-hex-digit 'digest' field"),
], ids=["backward_round", "round_past_the_last", "round_not_a_number", "round_a_bool",
        "unknown_receiver", "sender_past_the_last_node", "digest_missing",
        "digest_not_lowercase_hex"])
def test_audit_fails_on_a_forged_round_or_party(tmp_path, capsys, at, key, value, fail):
    """One forged field of the first or last message, or its digest removed
    (``None``) or malformed, fails that message by index, or by line when
    its round is not an integer or its digest not 16 lowercase hex digits,
    and nothing else."""
    assert run_smoke(tmp_path / "runs") == 0
    run_dir = tmp_path / "runs" / "smoke" / "fedavg" / "seed-3"
    records = _jsonl_records(run_dir / "messages.log", {})
    i = at % len(records)
    if value is None:
        del records[i][key]
    else:
        records[i][key] = value
    write_jsonl(records, run_dir / "messages.log")
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL " + fail.format(i=i, n=i + 1)]


def _swap_first_two(records):
    records[0], records[1] = records[1], records[0]
    return 0


def _first_params_up_on_top(records):
    i = next(i for i, r in enumerate(records) if r["kind"] == "params_up")
    records.insert(0, records.pop(i))
    return 0


def _two_params_down_to_one_node(records):
    records[1]["receiver"] = records[0]["receiver"]
    return 1


@pytest.mark.parametrize("forge", [_swap_first_two, _first_params_up_on_top,
                                   _two_params_down_to_one_node])
def test_audit_fails_on_messages_out_of_order(tmp_path, capsys, forge):
    """Swapping the first two ``params_down`` lines, moving round 1's first
    ``params_up`` to the top, or sending one node two ``params_down`` in a
    round and another none keeps every message valid on its own and every
    count; the audit names the first message out of the order the run's
    config.yaml sends in."""
    assert run_smoke(tmp_path / "runs") == 0
    run_dir = tmp_path / "runs" / "smoke" / "fedavg" / "seed-3"
    records = _jsonl_records(run_dir / "messages.log", {})
    i = forge(records)
    write_jsonl(records, run_dir / "messages.log")
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    want = records[i]
    assert fails == [f"FAIL message {i}: {want['kind']} of round {want['round']} from "
                     f"{want['sender']!r} to {want['receiver']!r} carrying 'params', "
                     f"expected params_down of round 1 from 'server' to 'node-{i}' "
                     f"carrying 'params'"]


def test_audit_stops_making_the_expected_order_at_the_first_difference(tmp_path, capsys,
                                                                    monkeypatch):
    """A config.yaml raised to 10,000 rounds expects some 60,000 messages
    more than the log holds. The audit makes the expected messages one at a
    time and fails at the end of the log, having made one more than the log
    holds; making them all first took 1.5 s and 54 MB per 400,000."""
    assert run_smoke(tmp_path / "runs") == 0
    run_dir = tmp_path / "runs" / "smoke" / "fedavg" / "seed-3"
    config = yaml.safe_load((run_dir / "config.yaml").read_text())
    config["rounds"] = 10_000
    (run_dir / "config.yaml").write_text(yaml.safe_dump(config))
    calls, real = [], federation._parties
    monkeypatch.setattr(federation, "_parties", lambda *a: calls.append(a) or real(*a))
    logged = len(_jsonl_records(run_dir / "messages.log", {}))
    capsys.readouterr()
    assert main(["audit", str(run_dir)]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails == [f"FAIL message {logged}: the end of the log, expected params_down of "
                     f"round 3 from 'server' to 'node-0' carrying 'params'"]
    assert len(calls) <= logged + 1


@pytest.fixture(scope="module")
def fedmoco_log(tmp_path_factory):
    """One fedmoco smoke run, with metadata in its second round: its
    directory, its message records and its round count."""
    root = tmp_path_factory.mktemp("fedmoco")
    assert main(["run", "--preset", "smoke", "--arms", "fedmoco", "--seed", "3",
                 "--out", str(root), *FAST]) == 0
    run_dir = root / "smoke" / "fedmoco" / "seed-3"
    return (run_dir, _jsonl_records(run_dir / "messages.log", {}),
            load_config(run_dir / "config.yaml").rounds)


@st.composite
def forged_logs(draw, records, rounds):
    """``records`` with one forgery: one line's kind, sender, receiver,
    round (-1..rounds+2) or payload tag set to a value the log holds, or to
    an unknown kind or node; or a line dropped, duplicated or swapped with
    another. The forgery may leave the log as it was."""
    records = copy.deepcopy(records)
    i = draw(st.integers(0, len(records) - 1))
    how = draw(st.sampled_from(["set", "drop", "duplicate", "swap"]))
    if how == "set":
        key = draw(st.sampled_from(["kind", "sender", "receiver", "round", "payload"]))
        unknown = {"kind": ["params_sideways"], "sender": ["node-77"],
                   "receiver": ["node-77"], "payload": []}
        if key == "round":
            records[i][key] = draw(st.integers(-1, rounds + 2))
        else:
            own = sorted({rec[key] for rec in records})
            records[i][key] = draw(st.sampled_from(own + unknown[key]))
    elif how == "drop":
        del records[i]
    elif how == "duplicate":
        records.insert(i, dict(records[i]))
    else:
        j = draw(st.integers(0, len(records) - 1))
        records[i], records[j] = records[j], records[i]
    return records


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_audit_passes_exactly_the_log_its_config_sends(fedmoco_log, data):
    """Whatever one forgery does to a real log, the audit passes it if and
    only if the records are still the ones the run wrote, and names a
    failing message otherwise. Digests are left alone: with no payloads in
    the run directory, the audit cannot recompute one, so a forged digest
    of the right form is not a failure it can see."""
    run_dir, records, rounds = fedmoco_log
    forged = data.draw(forged_logs(records, rounds))
    write_jsonl(forged, run_dir / "messages.log")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["audit", str(run_dir)])
    assert (status == 0) == (forged == records)
    if status:
        assert "FAIL message " in out.getvalue()


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
    for value in ("[oops", "[" * 100000 + "]" * 100000):  # the second nests too deep
        assert main(["run", "--preset", "smoke", "--set", f"rounds={value}"]) == 2
        assert "config error: --set rounds: value " in capsys.readouterr().err


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
    """A run directory whose config.yaml is refused (it holds a removed key,
    bytes that are not UTF-8, or YAML nested past the recursion limit) fails
    on its own with one FAIL line naming the file; the runs after it are
    still audited. ``fedcl run --config`` refuses the same file by name."""
    assert main(["run", "--preset", "smoke", "--arms", "fedavg", "--seed", "0", "--seed", "1",
                 "--out", str(tmp_path / "runs"), *FAST]) == 0
    config = tmp_path / "runs" / "smoke" / "fedavg" / "seed-0" / "config.yaml"
    for text, reason in [(config.read_bytes() + b"metadata_timing: post_sync\n",
                          "metadata_timing: unknown field"),
                         (b"rounds: 4\n\xff\n", "not UTF-8"),
                         (b"[" * 100000 + b"]" * 100000, "not valid YAML")]:
        config.write_bytes(text)
        capsys.readouterr()
        assert main(["audit", str(tmp_path / "runs")]) == 1
        out = capsys.readouterr().out
        assert f"FAIL config.yaml: {config}: " in out and reason in out
        assert out.count("FAIL") == 1 and out.count("audit passed") == 1
        assert out.index("seed-0") < out.index("FAIL") < out.index("seed-1") < out.index("passed")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "refused")]) == 2
        assert f"config error: {config}: " in capsys.readouterr().err
    assert not (tmp_path / "refused").exists()


def _cut_last_line(text):
    return text[: text.rindex("}")], len(text.splitlines())


def _nest_first_line(text):
    return "[" * 100000 + "]" * 100000 + text[text.index("\n"):], 1


def _drop_first_sender(text):
    first, rest = text.split("\n", 1)
    record = json.loads(first)
    del record["sender"]
    return json.dumps(record) + "\n" + rest, 1


@pytest.mark.parametrize("damage, reason", [
    (_cut_last_line, "not JSON"),
    (_nest_first_line, "not JSON"),
    (_drop_first_sender, "no string 'sender' field"),
])
def test_audit_tree_names_a_damaged_message_log_and_goes_on(tmp_path, capsys, damage, reason):
    """A truncated line, one nested past the recursion limit or a record
    without a sender fails its run by line number; the run after it is
    still audited."""
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


def test_audit_tree_fails_a_digest_that_is_not_text_and_goes_on(tmp_path, capsys):
    """A digest.txt holding bytes that are not UTF-8 fails its run as a
    digest mismatch; the run after it is still audited."""
    assert main(["run", "--preset", "smoke", "--arms", "fedavg", "--seed", "0", "--seed", "1",
                 "--out", str(tmp_path / "runs"), *FAST]) == 0
    (tmp_path / "runs" / "smoke" / "fedavg" / "seed-0" / "digest.txt").write_bytes(b"\xff\xfe")
    capsys.readouterr()
    assert main(["audit", str(tmp_path / "runs")]) == 1
    out = capsys.readouterr().out
    assert "FAIL digest.txt does not match" in out
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


@pytest.mark.parametrize("assignment, needle", [
    ("data.base_size=0", "data.base_size: must be at least 3"),
    ("nodes=0", "nodes: must be at least 1"),
    ("hidden_dims=[-5]", "hidden_dims: entries must be positive"),
], ids=["empty-shards", "no-nodes", "negative-width"])
def test_export_data_refuses_a_bad_value_by_name(tmp_path, capsys, assignment, needle):
    """``fedcl export-data`` validates its overridden config as ``fedcl run``
    does, and writes nothing."""
    assert main(["export-data", "--preset", "smoke", "--set", assignment,
                 "--out", str(tmp_path / "data")]) == 2
    assert f"config error: {needle}" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


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


@pytest.mark.parametrize("assignment,failure", [
    ("lr=1e300", "fedavg seed=0: message 3 (params_up): params_up carries non-finite values"),
    ("temperature=1e-300",
     "fedmoco seed=0: message 12 (metadata_up): metadata_up carries non-finite values"),
    ("boxcox_lambda=1e-300",
     "fedmoco seed=0: message 12 (metadata_up): metadata_up carries non-finite values"),
], ids=["huge-lr", "tiny-temperature", "tiny-lambda"])
def test_a_diverged_run_is_an_error_line_not_a_traceback(tmp_path, assignment, failure):
    """These values pass validation but overflow; the channel refuses the
    first non-finite payload. fedavg sends no metadata, so the two metadata
    failures leave its finished run directory in place. Stderr holds the
    error line alone, after the smoke preset's quota warning once fedmoco
    starts: no traceback and none of numpy's overflow warnings."""
    proc = subprocess.run(
        [sys.executable, "-m", "fedcl.cli", "run", "--preset", "smoke",
         "--arms", "fedavg", "fedmoco", "--set", assignment, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(Path(federation.__file__).parents[1])})
    assert proc.returncode == 1, proc.stderr
    quota = ("warning: fedmoco: eta=0.05 with queue_capacity=32 and K=3 gives "
             "floor(eta*capacity/(K-1)) = 0 synthetic negatives per peer; metadata is "
             "sent but no synthetic negatives are mixed in\n")
    assert proc.stderr == ("" if failure.startswith("fedavg") else quota) + f"error: {failure}\n"
    finished = sorted(p.parents[1].name for p in tmp_path.glob("smoke/*/seed-0/digest.txt"))
    assert finished == ([] if failure.startswith("fedavg") else ["fedavg"])
    if finished:
        assert main(["audit", str(tmp_path / "smoke" / "fedavg" / "seed-0")]) == 0

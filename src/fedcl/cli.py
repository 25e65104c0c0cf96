"""Command-line front end.

    fedcl run --preset desk --seed 0 --seed 1
    fedcl run --config exp.yaml --set rounds=20 --set data.base_size=500
    fedcl report runs/desk
    fedcl audit runs/desk/fedmoco/seed-0
    fedcl export-data --preset desk --out data/

`run` executes every requested (arm, node-count, seed) combination and lays
the results out under an output root (``--out``, else ./runs). Each run
directory gets the resolved config, the final encoder checkpoint, per-round
metrics and wall times, the message log with its audit verdict, evaluation
scores, and a digest of the checkpoint and metrics. Every file goes through
``federation.write_atomic``, so an interrupted run never leaves a
half-written artifact behind. A run that diverges (a non-finite payload or
loss) stops the command with an ``error:`` line and exit 1; SIGTERM stops it
with one ``error:`` line and exit 143 (128 + 15), once its forked workers
are reaped. The run directories finished before it stay.

`audit` compares each logged message's (round, kind, sender, receiver,
payload tag) with ``federation.message_order`` of the run's config.yaml, the
messages such a run sends, and names the first that differs, as in
``FAIL message 3: params_up of round 1 from 'server' to 'server' carrying
'params', expected params_up of round 1 from 'node-0' to 'server' carrying
'params'``; that one comparison settles every round, party, payload tag,
order and count. It checks digest.txt against ``federation.run_digest``.
Any mismatch, missing file, damaged messages.log line or config.yaml that
does not load is a FAIL, and a tree of runs is audited to the end.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import re
import signal
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import yaml

from . import datagen, evaluate, federation, helper, metadata
from .config import (ARMS, ExperimentConfig, PRESETS, YamlLoader, _is_number, apply_arm,
                     from_dict, load_config, preset_config, save_config, to_dict)
from .errors import ConfigError, HelperError, ProtocolError


def _apply_overrides(raw: dict, assignments: list[str]) -> dict:
    """Merge ``--set dotted.key=value`` pairs into a config dictionary.
    Values go through YAML parsing (``config.YamlLoader``) so `10`, `0.5`,
    `1e-3`, `true` and `[1,2]` arrive typed."""
    for item in assignments:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"--set expects dotted.key=value, got {item!r}")
        target = raw
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"--set {key}: {part} is not a section")
        try:
            target[parts[-1]] = yaml.load(value, Loader=YamlLoader)
        except (yaml.YAMLError, RecursionError) as exc:
            raise ConfigError(f"--set {key}: value {value!r} is not valid YAML "
                              f"({exc})") from exc
    return raw


def _model_label(arm: str, node_count: int | None) -> str:
    return arm if node_count is None else f"{arm}-k{node_count}"


def _write_training_artifacts(run_dir: Path, config: ExperimentConfig, result) -> None:
    save_config(config, run_dir / "config.yaml")
    federation.save_checkpoint(result.theta0, run_dir / "checkpoint.bin")
    federation.write_jsonl(result.metrics, run_dir / "metrics.jsonl")
    timing = [{"round": i + 1, "seconds": s} for i, s in enumerate(result.wall_times)]
    federation.write_jsonl(timing, run_dir / "timing.jsonl")
    federation.write_message_log(result.messages, run_dir / "messages.log")
    report = federation.audit_privacy(result.messages)
    federation.write_atomic(run_dir / "audit.json", json.dumps({
        "passed": report.passed,
        "counts": report.counts,
        "violations": report.violations,
    }, sort_keys=True, indent=2) + "\n")


def _finish_run(run_dir: Path, config: ExperimentConfig, result, model: str) -> list[dict]:
    """Evaluate a trained run and write its run directory; returns the
    eval.jsonl records. The probe, with the training artifacts written first,
    and a fine-tune are two jobs of ``helper.forked``: on two usable CPUs or
    more a run that fine-tunes probes and writes in a forked process while
    this one fine-tunes, each under one BLAS thread as in training, so the
    scores do not depend on its thread count. eval.jsonl and then digest.txt
    are written once both are done. A previous run's two are removed first,
    so a rerun that stops midway leaves no completion marker."""
    theta, seed = result.theta0, config.seed
    train, test = datagen.make_eval_split(config.data, seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    for name in ("digest.txt", "eval.jsonl"):
        (run_dir / name).unlink(missing_ok=True)

    def probe_and_write() -> list[dict]:
        _write_training_artifacts(run_dir, config, result)
        if not config.run_probe:
            return []
        probe = evaluate.linear_probe(theta, train, test, config.probe, seed)
        return [{"metric": "probe_accuracy", "value": probe.accuracy},
                *({"metric": f"probe_accuracy_class_{cls}", "value": acc}
                  for cls, acc in sorted(probe.per_class_accuracy.items()))]

    def fine_tune() -> list[dict]:
        ft = evaluate.fine_tune(theta, config.fine_tune_fraction, train, test,
                                config.fine_tune, seed)
        # finetune_best_accuracy, equal to the final accuracy, is kept only
        # because bench/checks.py reads it
        return [{"metric": "finetune_final_accuracy", "value": ft.final_accuracy},
                {"metric": "finetune_best_accuracy", "value": ft.final_accuracy}]

    jobs = [probe_and_write, *([fine_tune] if config.run_fine_tune else [])]
    with helper.forked(lambda share: (jobs[i]() for i in share), len(jobs)) as run:
        records = [{"model": model, "seed": seed, **rec}
                   for done in run(f"evaluating {run_dir}") for rec in done]
    federation.write_jsonl(records, run_dir / "eval.jsonl")
    federation.write_atomic(run_dir / "digest.txt", federation.run_digest(run_dir) + "\n")
    return records


def _load_base_config(args) -> tuple[ExperimentConfig, tuple[str, ...],
                                     tuple[int, ...], str]:
    """Resolve (config, arms, node_counts, name) of --preset or --config, with
    the --set overrides applied; the name is the preset's or the file's stem."""
    if bool(args.preset) == bool(args.config):
        raise ConfigError("exactly one of --preset or --config is required")
    if args.preset:
        config, preset = preset_config(args.preset)
        arms, node_counts, name = preset.arms, preset.node_counts, args.preset
    else:
        config = load_config(args.config)
        arms, node_counts, name = ("fedmoco",), (), Path(args.config).stem
    if args.set:
        config = from_dict(_apply_overrides(to_dict(config), args.set)).validate()
    return config, arms, node_counts, name


def _quota_warning(config: ExperimentConfig, label: str) -> str | None:
    """Warning text when a run sends metadata but its synthetic quota
    floors to zero, so no peer's negatives are ever mixed in."""
    if not (config.metadata_rounds() and config.eta > 0 and config.nodes > 1):
        return None
    if metadata.synthetic_quota(config.queue_capacity, config.eta, config.nodes):
        return None
    return (f"warning: {label}: eta={config.eta} with queue_capacity={config.queue_capacity} "
            f"and K={config.nodes} gives floor(eta*capacity/(K-1)) = 0 synthetic negatives "
            f"per peer; metadata is sent but no synthetic negatives are mixed in")


class _Terminated(BaseException):
    """SIGTERM, raised wherever a run's main thread is when it comes. Like
    ``KeyboardInterrupt`` it is no ``Exception``, so no job's error handling
    takes it for the job's own error."""


@contextlib.contextmanager
def _sigterm_raises():
    """Raise ``_Terminated`` on SIGTERM over the block, then restore the
    handler before it. The ``finally`` blocks it passes on the way out run:
    ``helper.forked`` reaps its workers, ``federation.write_atomic`` removes
    its temporary file."""
    def terminate(signum, frame):
        raise _Terminated("terminated by SIGTERM")

    before = signal.signal(signal.SIGTERM, terminate)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, before)


def cmd_run(args) -> int:
    for flag, values in (("--seed", args.seed), ("--arms", args.arms)):
        repeated = [value for value, n in Counter(values or ()).items() if n > 1]
        if repeated:
            # each would train again into the same run directory
            raise ConfigError(f"{flag}: {repeated[0]} given more than once")
    config, arms, node_counts, name = _load_base_config(args)
    arms = tuple(args.arms or arms)
    if node_counts and any(item.partition("=")[0] == "nodes" for item in args.set):
        raise ConfigError(f"--set nodes: preset '{args.preset}' runs node_counts "
                          f"{list(node_counts)}, which replace nodes")
    seeds = tuple(args.seed) if args.seed else (config.seed,)
    counts: tuple[int | None, ...] = tuple(node_counts) if node_counts else (None,)
    out_dir = Path(args.out or "./runs") / (args.name or name)

    planned = [(arm, k, s) for arm in arms for k in counts for s in seeds]
    # apply_arm copies and validates each config and refuses an unknown arm:
    # all are checked before the first run trains
    run_cfgs = [apply_arm(dataclasses.replace(config, seed=s, nodes=k or config.nodes), arm)
                for arm, k, s in planned]
    print(f"{len(planned)} run(s) -> {out_dir}")
    warned: set[str] = set()
    for (arm, k, seed), run_cfg in zip(planned, run_cfgs):
        label = _model_label(arm, k)
        warning = _quota_warning(run_cfg, label)
        if warning and warning not in warned:
            warned.add(warning)
            print(warning, file=sys.stderr)
        run_dir = out_dir / label / f"seed-{seed}"
        print(f"  {label} seed={seed} ... ", end="", flush=True)
        # A diverging encoder overflows in training, which then ends at the
        # error line below, or in a finished run's evaluation; neither needs
        # numpy's warnings on stderr.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                with _sigterm_raises():
                    eval_records = _finish_run(run_dir, run_cfg,
                                               federation.run_training(run_cfg), label)
            except (ProtocolError, FloatingPointError, HelperError, _Terminated) as exc:
                # the run diverged (the channel refused a non-finite payload,
                # or a node's loss was not finite), a worker process died, or
                # the command was terminated
                print("failed", flush=True)
                print(f"error: {label} seed={seed}: {exc}", file=sys.stderr)
                return 128 + signal.SIGTERM if isinstance(exc, _Terminated) else 1
        headline = next((r for r in eval_records if r["metric"] == "probe_accuracy"), None)
        if headline is None:
            headline = next(iter(eval_records), None)
        shown = f"{headline['metric']}={headline['value']:.4f}" if headline else "done"
        print(shown)

    rows, status = _collect_eval(out_dir)
    if rows:
        _print_table(_summarize(rows))
    return status


def _collect_eval(root: Path) -> tuple[list[dict], int]:
    """The records of every eval.jsonl under ``root``, and status 1 if a file
    with a damaged line was left out (named on stderr by path and line)."""
    rows: list[dict] = []
    status = 0
    for path in sorted(root.rglob("eval.jsonl")):
        try:
            rows.extend(_jsonl_records(path, _EVAL_FIELDS))
        except ValueError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            status = 1
    return rows, status


def _summarize(rows: list[dict]) -> list[dict]:
    grouped: dict[tuple[str, str], list[float]] = {}
    for row in rows:
        grouped.setdefault((row["model"], row["metric"]), []).append(float(row["value"]))
    summary = []
    for (model, metric), values in sorted(grouped.items()):
        arr = np.asarray(values, dtype=np.float64)
        summary.append({
            "model": model,
            "metric": metric,
            "mean": float(arr.mean()),
            "std": float(arr.std(ddof=1)) if arr.size > 1 else None,
            "seeds": int(arr.size),
        })
    return summary


def _print_table(summary: list[dict]) -> None:
    headline = [row for row in summary if "_class_" not in row["metric"]]
    if not headline:
        return
    width = max(len(r["model"]) for r in headline)
    mwidth = max(len(r["metric"]) for r in headline)
    print(f"\n{'model':<{width}}  {'metric':<{mwidth}}  mean      std       seeds")
    for row in headline:
        std = f"{row['std']:.4f}" if row["std"] is not None else "   --  "
        print(f"{row['model']:<{width}}  {row['metric']:<{mwidth}}  "
              f"{row['mean']:.4f}    {std}   {row['seeds']}")


def cmd_report(args) -> int:
    root = Path(args.run_dir)
    rows, status = _collect_eval(root)
    if not rows:
        if not status:
            print(f"no eval.jsonl records under {root}", file=sys.stderr)
        return 1
    summary = _summarize(rows)
    federation.write_atomic(root / "report.json", json.dumps(summary, indent=2) + "\n")
    _print_table(summary)
    single = [r["model"] for r in summary if r["seeds"] == 1]
    if single:
        print(f"\nnote: single-seed results for {', '.join(sorted(set(single)))}")
    print(f"\nwrote {root / 'report.json'}")
    return status


def cmd_audit(args) -> int:
    """Audit one run directory, or every run directory in a tree (see the
    module docstring for what is checked)."""
    root = Path(args.run_dir)
    if (root / "messages.log").exists():
        run_dirs = [root]
    else:
        run_dirs = sorted(p.parent for p in root.rglob("messages.log"))
    if not run_dirs:
        print(f"no messages.log found under {root}", file=sys.stderr)
        return 1
    worst = 0
    for run_dir in run_dirs:
        if len(run_dirs) > 1:
            print(f"== {run_dir} ==")
        worst = max(worst, _audit_one(run_dir))
    return worst


_LOG_FIELDS = {"kind": "string", "sender": "string", "receiver": "string", "round": "integer",
               "payload": "string", "digest": "16-hex-digit"}
_EVAL_FIELDS = {"model": "string", "metric": "string", "value": "number"}
_HEX16 = re.compile("[0-9a-f]{16}")
_FIELD_KINDS = {"string": lambda v: isinstance(v, str), "number": _is_number,
                "integer": lambda v: type(v) is int,
                "16-hex-digit": lambda v: isinstance(v, str) and bool(_HEX16.fullmatch(v))}


def _jsonl_records(path: Path, required: dict[str, str]) -> list[dict]:
    """The records of a JSON-lines file. Raises ``ValueError("line N: ...")``
    at the first line that is not a JSON object holding each ``required``
    field with a value of its kind: a string, a finite number that is not a
    bool, an integer that is not a bool, or 16 lowercase hex digits (a
    ``federation.payload_digest``)."""
    records = []
    for n, line in enumerate(path.read_bytes().splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"line {n}: not JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise ValueError(f"line {n}: not a JSON object")
        for key, kind in required.items():
            if not _FIELD_KINDS[kind](record.get(key)):
                raise ValueError(f"line {n}: no {kind} {key!r} field")
        records.append(record)
    return records


def _order_problems(records: list[dict], config) -> list[str]:
    """The first message, by index, where the log leaves the (round, kind,
    sender, receiver, payload tag) order a run of ``config`` sends in; none
    without a ``config``."""
    if config is None:
        return []
    got = [(rec["round"], rec["kind"], rec["sender"], rec["receiver"], rec["payload"])
           for rec in records]
    for i, (found, want) in enumerate(itertools.zip_longest(got, federation.message_order(config))):
        if found != want:
            return [f"message {i}: {_describe(found)}, expected {_describe(want)}"]
    return []


def _describe(message) -> str:
    if message is None:
        return "the end of the log"
    round_index, kind, sender, receiver, tag = message
    return f"{kind} of round {round_index} from {sender!r} to {receiver!r} carrying {tag!r}"


def _audit_one(run_dir: Path) -> int:
    try:
        records = _jsonl_records(run_dir / "messages.log", _LOG_FIELDS)
    except ValueError as exc:
        print(f"FAIL messages.log: {exc}")
        return 1
    config, problems = None, []
    config_path = run_dir / "config.yaml"
    if config_path.exists():
        try:
            config = load_config(config_path)
        except ConfigError as exc:
            problems.append(f"config.yaml: {exc}")
    else:
        problems.append("config.yaml missing: the message order cannot be checked")
    problems += _order_problems(records, config)

    try:
        recorded = (run_dir / "digest.txt").read_bytes().strip()
        if recorded != federation.run_digest(run_dir).encode():
            problems.append("digest.txt does not match checkpoint.bin + metrics.jsonl")
    except FileNotFoundError as exc:
        problems.append(f"{Path(exc.filename).name} missing: digest cannot be checked")

    counts = Counter(rec["kind"] for rec in records)
    for kind in sorted(counts):
        print(f"{kind:>14}: {counts[kind]}")
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return 1
    print(f"audit passed ({len(records)} messages)")
    return 0


def cmd_export_data(args) -> int:
    config, _, _, name = _load_base_config(args)
    dest = Path(args.out or f"./data-{name}")
    dest.mkdir(parents=True, exist_ok=True)
    for k in range(config.nodes):
        shard = datagen.generate_node_dataset(config.data, config.nodes, k, config.seed)
        datagen.export_dataset(shard, dest / f"node-{k}.bin")
        print(f"node-{k}: {len(shard)} images -> {dest / f'node-{k}.bin'}")
    train, test = datagen.make_eval_split(config.data, config.seed)
    datagen.export_dataset(train, dest / "eval-train.bin")
    datagen.export_dataset(test, dest / "eval-test.bin")
    print(f"eval split: {len(train)} train / {len(test)} test -> {dest}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedcl",
                                     description="Federated contrastive pre-training simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute training runs and evaluate them")
    run.add_argument("--preset", choices=sorted(PRESETS), help="named experiment preset")
    run.add_argument("--config", help="YAML config file")
    run.add_argument("--seed", type=int, action="append",
                     help="seed to run (repeatable; default: config seed)")
    run.add_argument("--arms", nargs="+", metavar="ARM",
                     help=f"override arm list ({', '.join(sorted(ARMS))})")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config field, e.g. --set data.base_size=500")
    run.add_argument("--out", help="output root (default ./runs)")
    run.add_argument("--name", help="run collection name (default: preset/config name)")
    run.set_defaults(func=cmd_run)

    report = sub.add_parser("report", help="aggregate eval results across seeds")
    report.add_argument("run_dir", help="directory produced by `fedcl run`")
    report.set_defaults(func=cmd_report)

    audit = sub.add_parser("audit", help="verify run directories: message log, its order, digest")
    audit.add_argument("run_dir", help="a run directory, or a tree of them")
    audit.set_defaults(func=cmd_audit)

    export = sub.add_parser("export-data", help="write node shards and eval split to disk")
    export.add_argument("--preset", choices=sorted(PRESETS))
    export.add_argument("--config")
    export.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    export.add_argument("--out", help="destination directory")
    export.set_defaults(func=cmd_export_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

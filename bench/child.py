"""One `fedcl run` in this process, timed or traced, with a JSON report.

    python3 bench/child.py --config CFG --out DIR --report REPORT [--trace]

The run goes through ``fedcl.cli.main`` exactly as ``fedcl run --config CFG
--arms fedmoco --out DIR --name bench`` would. Untraced, only the two set-up
calls (``federation.build_nodes`` and ``datagen.make_eval_split``) are
timed; traced, every function listed in ``tracer.TRACED`` is. The report
holds what the run directory does not: set-up and run wall time, peak
memory, payload bytes of every message sent, the fine-tune train size, and
whether the checkpoint reloads bit-equal to the final in-memory parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from tracer import SETUP, TRACED, Tracer, wire_bytes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_NAME = "bench"
ARM = "fedmoco"


def _capture(module, attr: str, into: dict, key: str) -> None:
    """Keep the return value of ``module.attr`` under ``into[key]``."""
    original = getattr(module, attr)

    def capturing(*args, **kwargs):
        into[key] = result = original(*args, **kwargs)
        return result

    setattr(module, attr, capturing)


def run(config: Path, out: Path, trace: bool) -> dict:
    from fedcl import cli, evaluate, federation

    tracer = Tracer()
    tracer.install(TRACED if trace else SETUP)
    captured: dict = {}
    _capture(federation, "run_training", captured, "result")
    _capture(evaluate, "fine_tune", captured, "fine_tune")

    argv = ["run", "--config", str(config), "--arms", ARM, "--out", str(out),
            "--name", RUN_NAME]
    started = time.perf_counter()
    code = cli.main(argv)
    run_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    result = captured["result"]
    seed = result.config.seed
    run_dir = out / RUN_NAME / ARM / f"seed-{seed}"
    final = result.theta0.values.astype("<f8").tobytes()
    reloaded = federation.load_checkpoint(run_dir / "checkpoint.bin")
    ft = captured.get("fine_tune")
    return {
        "exit_code": code,
        "run_dir": str(run_dir),
        "run_s": run_s,
        "setup_s": sum(tracer.busy(name) for name, *_ in SETUP),
        "peak_rss_mb": peak_rss_mb,
        "wire_bytes": wire_bytes(result.messages),
        "final_params_sha256": hashlib.sha256(final).hexdigest(),
        "checkpoint_reload_equal": (reloaded.values.astype("<f8").tobytes() == final
                                    and reloaded.shapes == result.theta0.shapes),
        "fine_tune_train_size": None if ft is None else ft.train_size,
        "trace": tracer.summary() if trace else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "fedcl" / "__init__.py").is_file():
        print(f"child: no fedcl package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report = run(args.config, args.out, args.trace)
    args.report.write_text(json.dumps(report, sort_keys=True))
    return 0 if report["exit_code"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

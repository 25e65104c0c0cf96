"""The benchmark reaches into fedcl by name; a rename in src/ must fail here,
not only in a traced benchmark run."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from fedcl import federation

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_as_install_looks_it_up():
    tracer = load_tracer()
    for name, module, path, _ in tracer.TRACED:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{name}: {module}.{path} not found"
        assert callable(vars(owner)[attr]), name


def test_functions_and_fields_the_bench_child_reads_exist():
    assert callable(federation.run_training)
    assert callable(federation.load_checkpoint)
    fields = {f.name for f in dataclasses.fields(federation.RunResult)}
    assert {"theta0", "messages", "config"} <= fields

"""Call spans around the public functions of each fedcl module.

A wrapper replaces a function in every ``fedcl`` module namespace that holds
it, because several modules import names directly (``from .nn import
forward_batch``) and a wrapper installed only on the defining module would
miss those calls. Methods are wrapped on their class.

Each span records its name, start, end and the index of the span that was
open when it began, so self time (a span's duration minus its direct
children's) can be computed. Spans stay in memory until ``summary`` is
called at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "fedcl"
FLOAT_BYTES = 8


def payload_values(payload) -> int:
    """Float64 values in a message payload: a parameter vector, one node's
    metadata (mean and covariance), or a list of metadata."""
    if isinstance(payload, list):
        return sum(payload_values(item) for item in payload)
    if hasattr(payload, "mu"):
        return payload.mu.size + payload.sigma.size
    if hasattr(payload, "values"):
        return payload.values.size
    return 0


def wire_bytes(messages) -> dict[str, int]:
    """Payload bytes by message kind, at 8 bytes per float64 value."""
    out: dict[str, int] = defaultdict(int)
    for msg in messages:
        out[msg.kind.value] += FLOAT_BYTES * payload_values(msg.payload)
    return dict(out)


def _rows(counts, args, result):
    counts["nn.forward_batch.rows"] += result.shape[0]


def _synthetic_rows(counts, args, result):
    counts["metadata.synthetic_rows"] += result.shape[0]


def _shard_images(counts, args, result):
    counts["datagen.images"] += len(result)


def _eval_images(counts, args, result):
    counts["datagen.images"] += len(result[0]) + len(result[1])


def _wire(counts, args, result):
    message = args[1]
    family = "params" if message.kind.value.startswith("params") else "metadata"
    counts[f"federation.wire.{family}_mb"] += FLOAT_BYTES * payload_values(message.payload) / 1e6


# (span name, module, attribute path, counter called with the result)
TRACED = (
    ("contrastive.augment", "contrastive", "augment", None),
    ("contrastive.local_update", "contrastive", "local_update", None),
    ("contrastive.queue", "contrastive", "NegativeQueue.push", None),
    ("contrastive.queue", "contrastive", "NegativeQueue.as_matrix", None),
    ("contrastive.momentum_update", "contrastive", "momentum_update", None),
    ("nn.loss_and_grad", "nn", "loss_and_grad", None),
    ("nn.backward_features", "nn", "backward_features", None),
    ("nn.forward_batch", "nn", "forward_batch", _rows),
    ("rsa.rsa_score", "rsa", "rsa_score", None),
    ("rsa.compute_rdm", "rsa", "compute_rdm", None),
    ("rsa.spearman", "rsa", "spearman", None),
    ("rsa.aggregate", "rsa", "aggregate", None),
    ("metadata.compute_metadata", "metadata", "compute_metadata", None),
    ("metadata.sample_synthetic", "metadata", "sample_synthetic", _synthetic_rows),
    ("datagen.generate_node_dataset", "datagen", "generate_node_dataset", _shard_images),
    ("datagen.make_eval_split", "datagen", "make_eval_split", _eval_images),
    ("evaluate.linear_probe", "evaluate", "linear_probe", None),
    ("evaluate.fine_tune", "evaluate", "fine_tune", None),
    ("federation.run_round", "federation", "run_round", None),
    ("federation.build_nodes", "federation", "build_nodes", None),
    ("federation.MessageChannel.send", "federation", "MessageChannel.send", _wire),
    ("federation.write_message_log", "federation", "write_message_log", None),
    ("federation.save_checkpoint", "federation", "save_checkpoint", None),
    ("federation.audit_privacy", "federation", "audit_privacy", None),
    ("seeding.rng_for", "seeding", "rng_for", None),
    ("cli.main", "cli", "main", None),
)

# The two calls that make up set-up time in an untraced run.
SETUP = tuple(t for t in TRACED
              if t[0] in ("federation.build_nodes", "datagen.make_eval_split"))


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: dict[str, float] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        spans, stack, counts = self.spans, self._open, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(counts, args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Replace each target in every loaded fedcl module."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, module, path, counter in targets:
            owner = sys.modules[f"{PACKAGE}.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original, counter)
            setattr(owner, attr, wrapper)
            if outer:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def busy(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def summary(self) -> dict:
        """Per span name: inclusive seconds, self seconds and call count;
        per (parent, child) name pair: the child's inclusive seconds."""
        busy: dict[str, float] = defaultdict(float)
        covered: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        edges: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, parent in self.spans:
            duration = end - start
            busy[name] += duration
            calls[name] += 1
            if parent >= 0:
                parent_name = self.spans[parent][0]
                covered[parent_name] += duration
                edges[parent_name][name] += duration
        return {
            "busy_s": dict(busy),
            "self_s": {name: busy[name] - covered[name] for name in busy},
            "calls": dict(calls),
            "counts": dict(self.counts),
            "edges": {p: dict(children) for p, children in edges.items()},
        }

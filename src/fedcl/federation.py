"""Round orchestration between the parameter server and its data nodes.

Every exchange goes through an append-only message log whose total order
is fixed by (round, phase, node); that log is the auditable protocol
surface. A node is its shard: node k's id is its index.

Per round: parameters go down and every node trains from them afresh (key
encoder equal to the query encoder, empty key queue, zero optimizer
momentum). After the warm-up phase, distribution metadata flows down before
any local update and back up after it, so a node only ever consumes
statistics its peers uploaded in the previous round. An upload summarizes
the node's features under the broadcast encoder.

Nodes train independently from the broadcast. A process's part of a
round is one generator, ``_node_results``: it draws its nodes' synthetic
negatives, factoring each peer covariance they sample once, then yields
each node's local update, upload and RSA score. ``run_training`` runs it
through ``helper.forked`` after ``build_nodes``, so forked processes inherit
every shard, and gets every node's result back in node order. This process
still sends every message and aggregates, so a run's bytes do not depend on
which process trained a node.

The wire contract (``CONTRACT``) and the run artifacts are defined here too.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from . import contrastive, datagen, nn, rsa
from . import metadata as md
from .config import ExperimentConfig
from .errors import ConfigError, ProtocolError, ShapeError
from .helper import forked
from .seeding import rng_for


class MessageKind(str, Enum):
    PARAMS_DOWN = "params_down"
    PARAMS_UP = "params_up"
    METADATA_DOWN = "metadata_down"
    METADATA_UP = "metadata_up"
    __str__ = str.__str__  # prints, hashes and compares as its wire name


SERVER = "server"

# The wire contract: each message kind's payload tag (see ``payload_tag``)
# and whether the server sends it (``*_down``) or a node does (``*_up``).
CONTRACT = {
    MessageKind.PARAMS_DOWN: ("params", True),
    MessageKind.PARAMS_UP: ("params", False),
    MessageKind.METADATA_DOWN: ("metadata_list", True),
    MessageKind.METADATA_UP: ("metadata", False),
}


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    sender: str
    receiver: str
    round_index: int
    payload: object


def _is_metadata(payload) -> bool:
    return (isinstance(payload, md.NodeMetadata) and payload.mu.ndim == 1
            and payload.sigma.shape == (payload.mu.size,) * 2)


def payload_tag(payload) -> str:
    """The wire type of a payload; metadata needs a d x d covariance."""
    if isinstance(payload, nn.EncoderParams):
        return "params"
    if _is_metadata(payload):
        return "metadata"
    if isinstance(payload, list) and all(_is_metadata(x) for x in payload):
        return "metadata_list"
    return f"other:{type(payload).__name__}"


def contract_violation(kind: str, sender: str, tag: str) -> str | None:
    """Why a (kind, sender, payload tag) triple breaks the wire contract,
    or None if it is clean."""
    if kind not in CONTRACT:
        return f"unknown message kind {kind!r}"
    want_tag, downward = CONTRACT[kind]
    if (sender == SERVER) != downward:
        return f"{kind} sent by {sender!r}"
    if tag != want_tag:
        return f"{kind} carries {tag!r}, expected {want_tag!r}"
    return None


def _finite(payload) -> bool:
    """Whether a contract-clean payload holds no NaN or infinity."""
    if isinstance(payload, list):
        return all(map(_finite, payload))
    if isinstance(payload, nn.EncoderParams):
        return bool(np.isfinite(payload.values).all())
    return bool(np.isfinite(payload.mu).all() and np.isfinite(payload.sigma).all())


def payload_violation(message: Message) -> str | None:
    """Why this message breaks the exchange contract, or None if clean.

    Only finite parameter vectors and distribution metadata (or lists of it)
    may travel, each in its own kind's direction. Images and per-sample
    feature arrays are prohibited in any position.
    """
    if isinstance(message.payload, datagen.Images):
        return "image payload"
    problem = contract_violation(message.kind, message.sender, payload_tag(message.payload))
    if problem is None and not _finite(message.payload):
        return f"{message.kind} carries non-finite values"
    return problem


def _parties(kind: MessageKind, node_id: int) -> tuple[str, str]:
    """(sender, receiver) of a ``kind`` message between the server and node
    ``node_id``, in the direction ``CONTRACT`` fixes for it."""
    node = f"node-{node_id}"
    return (SERVER, node) if CONTRACT[kind][1] else (node, SERVER)


def message_order(config: ExperimentConfig) -> list[tuple[int, str, str, str]]:
    """The (round, kind, sender, receiver) of every message a complete run
    logs, in log order (``run_round``): per round, parameters down to each
    node, then in a metadata round metadata down to each node and, after
    training, up from each; then parameters up from each node."""
    metadata = (MessageKind.METADATA_DOWN, MessageKind.METADATA_UP)
    return [(t, kind.value, *_parties(kind, k))
            for t in range(1, config.rounds + 1)
            for kind in (MessageKind.PARAMS_DOWN, *(metadata if t in config.metadata_rounds()
                                                    else ()), MessageKind.PARAMS_UP)
            for k in range(config.nodes)]


class MessageChannel:
    """Append-only log; a malformed or round-reversing message aborts the run."""

    def __init__(self) -> None:
        self.messages: list[Message] = []

    def send(self, message: Message) -> None:
        problem = payload_violation(message)
        last = self.messages[-1].round_index if self.messages else message.round_index
        if problem is None and message.round_index < last:
            problem = f"round {message.round_index} after round {last}"
        if problem is not None:
            raise ProtocolError(f"message {len(self.messages)} ({message.kind}): {problem}")
        self.messages.append(message)


@dataclass
class AuditReport:
    passed: bool
    counts: dict[str, int]
    violations: list[tuple[int, str]]


def audit_privacy(message_log) -> AuditReport:
    """Scan a message log for payload-contract violations and tally kinds.

    The scan re-checks every payload independently of whatever produced the
    log, so hand-forged entries are caught by index."""
    counts = {k.value: 0 for k in MessageKind}
    violations: list[tuple[int, str]] = []
    for i, msg in enumerate(message_log):
        kind = str(msg.kind)
        counts[kind] = counts.get(kind, 0) + 1
        problem = payload_violation(msg)
        if problem is not None:
            violations.append((i, problem))
    return AuditReport(not violations, counts, violations)


@dataclass
class ServerState:
    theta0: nn.EncoderParams
    metadata_store: dict[int, md.NodeMetadata] = field(default_factory=dict)


def _send(channel, kind: MessageKind, node_id: int, round_index: int, payload) -> None:
    """Send ``payload`` between the server and node ``node_id``, in the
    direction ``CONTRACT`` fixes for ``kind``."""
    channel.send(Message(kind, *_parties(kind, node_id), round_index, payload))


def _synthetic_negatives(store, nodes, config: ExperimentConfig,
                         round_index: int) -> dict[int, np.ndarray]:
    """Each node of ``nodes``'s synthetic negatives this round, by node id:
    its quota of draws from every peer's metadata in ``store``, in peer
    order, from the node's own stream. A covariance these nodes sample is
    factored once; no factor outlives the call, so none is held in training."""
    per_peer = md.synthetic_quota(config.queue_capacity, config.eta, config.nodes)
    peers = sorted(store.items()) if per_peer and round_index in config.metadata_rounds() else []
    factors = {j: md.psd_factor(meta.sigma) for j, meta in peers if any(k != j for k in nodes)}
    out = {}
    for k in nodes:
        draws = [(meta, factors[j]) for j, meta in peers if j != k]
        rng = rng_for(config.seed, "synthetic", round_index, k) if draws else None
        out[k] = np.concatenate([np.empty((0, config.feature_dim)), *(
            md.sample_synthetic(meta, per_peer, rng, config.boxcox_lambda, factor)
            for meta, factor in draws)])
    return out


def _probe_images(shard: np.ndarray, node_id: int, config: ExperimentConfig,
                  round_index: int) -> np.ndarray:
    size = min(config.probe_size, len(shard))
    rng = rng_for(config.seed, "probe", round_index, node_id)
    idx = rng.choice(len(shard), size=size, replace=False)
    return shard[np.sort(idx)]


def _node_results(shards, config: ExperimentConfig, nodes, theta, round_index: int, store):
    """One process's part of a round: per node k of ``nodes``, in turn, its
    local update from the broadcast ``theta`` with its synthetic negatives
    (all drawn first), in a metadata round the upload that summarizes its
    features under ``theta``, and its RSA score. Yields ``(trained θ, mean
    loss, synthetic row count, upload or None, score)``."""
    synth = _synthetic_negatives(store, nodes, config, round_index)
    for k in nodes:
        shard, negatives = shards[k], synth.pop(k)
        theta_k, batch_losses = contrastive.local_update(
            theta, shard, negatives, config, round_index, config.node_seed(k))
        loss = float(np.mean(batch_losses))
        if not np.isfinite(loss):
            raise FloatingPointError(f"node {k}, round {round_index}: local loss is {loss}")
        upload = None
        if round_index in config.metadata_rounds():
            upload = md.compute_metadata(nn.forward_batch(theta, shard), config.boxcox_lambda,
                                         node_id=k, round_index=round_index)
        score = rsa.rsa_score(theta, theta_k, _probe_images(shard, k, config, round_index))
        yield theta_k, loss, len(negatives), upload, score


def run_round(server: ServerState, shards, config: ExperimentConfig, round_index: int,
              channel: MessageChannel, train=None) -> list[dict]:
    """Advance one synchronization round. Node k trains on ``shards[k]`` from
    the seed ``config.node_seed(k)``, through ``train``, the ``run`` of the
    ``helper.forked`` that ``run_training`` enters, or here with no
    ``train``. Mutates ``server`` in place and returns the round's
    ``metrics.jsonl`` records, one per node in node order; nodes carry no
    state between rounds.
    """
    if not 1 <= round_index <= config.rounds:
        raise ValueError(f"round {round_index} outside [1, {config.rounds}]")
    theta = server.theta0
    for k in range(len(shards)):
        _send(channel, MessageKind.PARAMS_DOWN, k, round_index, theta)

    store: dict[int, md.NodeMetadata] = {}
    if round_index in config.metadata_rounds():
        store = server.metadata_store
        for k in range(len(shards)):
            _send(channel, MessageKind.METADATA_DOWN, k, round_index,
                  [meta for j, meta in sorted(store.items()) if j != k])

    trained, losses, counts, uploads, scores = zip(*(
        train(f"round {round_index}", theta, round_index, store) if train else
        _node_results(shards, config, range(len(shards)), theta, round_index, store)))

    if round_index in config.metadata_rounds():
        for k, upload in enumerate(uploads):
            _send(channel, MessageKind.METADATA_UP, k, round_index, upload)
        server.metadata_store.update(enumerate(uploads))
    for k, theta_k in enumerate(trained):
        _send(channel, MessageKind.PARAMS_UP, k, round_index, theta_k)

    if config.aggregation_mode == "self_adaptive":
        weights = rsa.self_adaptive_weights(scores)
    else:
        weights = rsa.fedavg_weights([len(shard) for shard in shards])
    server.theta0 = rsa.aggregate(trained, weights)
    return [{"round": round_index, "node": k, "lr": config.lr_at(round_index), "loss": loss,
             "synthetic_count": count, "rsa": score, "weight": float(weight)}
            for k, (loss, count, score, weight) in enumerate(zip(losses, counts, scores, weights))]


@dataclass
class RunResult:
    """Round t's aggregate is the ``params_down`` payload of round t + 1;
    the last round's is ``theta0``."""
    theta0: nn.EncoderParams
    metrics: list  # one list of run_round records per round
    messages: list
    wall_times: list
    config: ExperimentConfig


def build_nodes(config: ExperimentConfig) -> list[np.ndarray]:
    """Each node's private ``(n, H, W)`` shard, node k's at index k; nodes
    hold no parameters."""
    return [datagen.generate_node_dataset(config.data, config.nodes, k, config.seed).pixels
            for k in range(config.nodes)]


def run_training(config: ExperimentConfig) -> RunResult:
    """Full federated pre-training.

    With ``rounds == 0`` the result carries the freshly initialized
    parameters and an empty log."""
    config.validate()
    server = ServerState(nn.init_params(config.encoder_shapes(), config.seed))
    shards = build_nodes(config)
    channel = MessageChannel()
    metrics: list[list[dict]] = []
    wall_times: list[float] = []
    with forked(functools.partial(_node_results, shards, config), config.nodes) as train:
        for t in range(1, config.rounds + 1):
            started = time.perf_counter()
            metrics.append(run_round(server, shards, config, t, channel, train))
            wall_times.append(time.perf_counter() - started)
    return RunResult(server.theta0, metrics, channel.messages, wall_times, config)


# -- artifacts ----------------------------------------------------------------

def write_atomic(path, *chunks) -> None:
    """Write str or bytes-like chunks to a temporary sibling of ``path``,
    then ``os.replace`` it, so ``path`` is never left half-written. A write
    that fails or is interrupted removes the temporary file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def payload_digest(payload, memo=None) -> str:
    """16 hex digits of SHA-256 over a payload's little-endian values. With
    ``memo``, a dict by object id, an object already in it is not hashed
    again; the caller keeps every object it holds alive."""
    if memo is not None and id(payload) in memo:
        return memo[id(payload)]
    h = hashlib.sha256()
    if isinstance(payload, nn.EncoderParams):
        h.update(np.ascontiguousarray(payload.values, dtype="<f8"))
    elif isinstance(payload, md.NodeMetadata):
        h.update(np.ascontiguousarray(payload.mu, dtype="<f8"))
        h.update(np.ascontiguousarray(payload.sigma, dtype="<f8"))
        h.update(np.array([payload.node_id, payload.round_index], dtype="<i8").tobytes())
    elif isinstance(payload, list):
        for item in payload:
            h.update(payload_digest(item, memo).encode("utf-8"))
    else:
        h.update(repr(type(payload)).encode("utf-8"))
    digest = h.hexdigest()[:16]
    if memo is not None:
        memo[id(payload)] = digest
    return digest


def write_message_log(messages, path) -> None:
    """One JSON line per message: kind, sender, receiver, round, payload tag
    and digest. Payload contents themselves are not serialized. A payload
    sent more than once, such as a round's θ to every node or a node's
    metadata to each peer, is hashed once: ``messages`` keeps it alive."""
    memo: dict[int, str] = {}
    write_jsonl([{
        "kind": str(msg.kind),
        "sender": msg.sender,
        "receiver": msg.receiver,
        "round": msg.round_index,
        "payload": payload_tag(msg.payload),
        "digest": payload_digest(msg.payload, memo),
    } for msg in messages], path)


def save_checkpoint(params: nn.EncoderParams, path) -> None:
    """Binary checkpoint: one JSON header line (layer manifest, feature dim,
    value count) followed by the flat vector as little-endian float64."""
    header = {
        "shapes": [[s.rows, s.cols, True] for s in params.shapes],
        "feature_dim": int(params.feature_dim),
        "count": int(params.values.size),
    }
    write_atomic(path, json.dumps(header, sort_keys=True) + "\n",
                 np.ascontiguousarray(params.values, dtype="<f8"))


def _header_fields(header) -> tuple | None:
    """(shapes, count, feature_dim) of a well-typed checkpoint header, else None."""
    if not isinstance(header, dict):
        return None
    shapes, count, dim = header.get("shapes"), header.get("count"), header.get("feature_dim")
    if not (isinstance(shapes, list) and type(count) is int and type(dim) is int
            and all(isinstance(s, list) and list(map(type, s)) == [int, int, bool] and s[2]
                    for s in shapes)):
        return None
    return tuple(nn.LayerShape(rows, cols) for rows, cols, _ in shapes), count, dim


def load_checkpoint(path) -> nn.EncoderParams:
    """Read a ``save_checkpoint`` file; a malformed one raises ``ShapeError``
    naming the file. The header must describe a chaining layer manifest whose
    last layer has ``feature_dim`` rows, and every value must be finite."""
    with open(path, "rb") as fh:
        line, body = fh.readline(), fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as exc:
        raise ShapeError(f"{path}: header line is not JSON ({exc})") from exc
    fields = _header_fields(header)
    if fields is None:
        raise ShapeError(f"{path}: header is not an object with a list 'shapes' of "
                         f"[rows, cols, true] and integers 'count' and 'feature_dim'")
    shapes, count, feature_dim = fields
    try:
        nn.validate_shapes(shapes)
    except ConfigError as exc:
        raise ShapeError(f"{path}: {exc}") from exc
    size = sum(s.size for s in shapes)
    if size != count:
        raise ShapeError(f"{path}: header shapes hold {size} values, its count is {count}")
    if feature_dim != shapes[-1].rows:
        raise ShapeError(f"{path}: feature_dim is {feature_dim}, the last layer has "
                         f"{shapes[-1].rows} rows")
    if len(body) % 8:
        raise ShapeError(f"{path}: body holds {len(body)} bytes, not a whole number "
                         f"of float64 values")
    values = np.frombuffer(body, dtype="<f8").copy()
    if values.size != count:
        raise ShapeError(f"{path}: checkpoint body holds {values.size} values, "
                         f"header count is {count}")
    if not np.isfinite(values).all():
        raise ShapeError(f"{path}: body holds a NaN or infinite value")
    return nn.EncoderParams(values, shapes)


def metrics_records(metrics) -> list[dict]:
    """Flatten ``RunResult.metrics`` to the rows of metrics.jsonl. Timing is
    deliberately kept out of these records so identical runs serialize to
    identical bytes."""
    return [record for round_records in metrics for record in round_records]


def write_jsonl(records, path) -> None:
    write_atomic(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def run_digest(run_dir) -> str:
    """SHA-256 over a run directory's checkpoint.bin, then its metrics.jsonl."""
    h = hashlib.sha256()
    h.update((Path(run_dir) / "checkpoint.bin").read_bytes())
    h.update((Path(run_dir) / "metrics.jsonl").read_bytes())
    return h.hexdigest()

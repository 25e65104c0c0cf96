"""Round orchestration between the parameter server and its data nodes.

The simulation runs in one process, but every exchange goes through an
append-only message log whose total order is fixed by (round, phase, node);
that log is the auditable protocol surface. Node updates share no state
within a round, and aggregation accumulates in node-id order, so results do
not depend on the order node updates are executed in.

Per round: parameters go down and every node trains from them afresh (key
encoder equal to the query encoder, empty key queue, zero optimizer
momentum). After the warm-up phase, distribution metadata flows down before
any local update and back up after it, so a node only ever consumes
statistics its peers uploaded in the previous round. An upload summarizes
the node's features under the broadcast encoder.

The wire contract (``CONTRACT``) and the run artifacts are defined here too.
"""

from __future__ import annotations

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
from .errors import ProtocolError, ShapeError
from .seeding import rng_for


class MessageKind(str, Enum):
    PARAMS_DOWN = "params_down"
    PARAMS_UP = "params_up"
    METADATA_DOWN = "metadata_down"
    METADATA_UP = "metadata_up"


SERVER = "server"

# The wire contract: each message kind's payload tag (see ``payload_tag``)
# and whether the server sends it (``*_down``) or a node does (``*_up``).
CONTRACT = {
    "params_down": ("params", True),
    "params_up": ("params", False),
    "metadata_down": ("metadata_list", True),
    "metadata_up": ("metadata", False),
}


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    sender: str
    receiver: str
    round_index: int
    payload: object


def _kind_name(kind) -> str:
    return kind.value if isinstance(kind, MessageKind) else str(kind)


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
    kind = _kind_name(message.kind)
    problem = contract_violation(kind, message.sender, payload_tag(message.payload))
    if problem is None and not _finite(message.payload):
        return f"{kind} carries non-finite values"
    return problem


def expected_counts(config: ExperimentConfig) -> dict[str, int]:
    """Messages of each kind a complete run sends: every node downloads and
    uploads parameters each round; metadata flows only after warm-up."""
    k, t = config.nodes, config.rounds
    meta_rounds = max(0, t - config.warmup_rounds) if config.metadata_enabled else 0
    return {"params_down": k * t, "params_up": k * t,
            "metadata_down": k * meta_rounds, "metadata_up": k * meta_rounds}


class MessageChannel:
    """Append-only log; sending a malformed message aborts the run."""

    def __init__(self) -> None:
        self.messages: list[Message] = []

    def send(self, message: Message) -> None:
        problem = payload_violation(message)
        if problem is not None:
            raise ProtocolError(
                f"message {len(self.messages)} ({_kind_name(message.kind)}): {problem}"
            )
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
        kind = _kind_name(msg.kind)
        counts[kind] = counts.get(kind, 0) + 1
        problem = payload_violation(msg)
        if problem is not None:
            violations.append((i, problem))
    return AuditReport(not violations, counts, violations)


@dataclass
class ServerState:
    theta0: nn.EncoderParams
    metadata_store: dict[int, md.NodeMetadata] = field(default_factory=dict)


@dataclass
class FederatedNode:
    node_id: int
    images: np.ndarray  # (n, H, W); never leaves the node
    rng_seed: int

    @property
    def size(self) -> int:
        return self.images.shape[0]


@dataclass
class RoundMetrics:
    round_index: int
    lr: float
    losses: dict[int, float]
    rsa_scores: dict[int, float]
    weights: dict[int, float]
    synthetic_counts: dict[int, int]


def _node_name(node_id: int) -> str:
    return f"node-{node_id}"


def _peer_negatives(peers, per_peer: int, config: ExperimentConfig,
                    round_index: int, node_id: int) -> np.ndarray:
    d = config.feature_dim
    if per_peer <= 0 or not peers:
        return np.zeros((0, d))
    rng = rng_for(config.seed, "synthetic", round_index, node_id)
    rows = [md.sample_synthetic(meta, per_peer, rng, config.boxcox_lambda) for meta in peers]
    return np.vstack(rows)


def _probe_images(node: FederatedNode, config: ExperimentConfig, round_index: int) -> np.ndarray:
    size = min(config.probe_size, node.size)
    rng = rng_for(config.seed, "probe", round_index, node.node_id)
    idx = rng.choice(node.size, size=size, replace=False)
    return node.images[np.sort(idx)]


def run_round(server: ServerState, nodes, config: ExperimentConfig, round_index: int,
              channel: MessageChannel) -> RoundMetrics:
    """Advance one synchronization round. Mutates ``server`` in place and
    returns the round's metrics; nodes carry no state between rounds.

    ``nodes`` may arrive in any order; the message log and the aggregate
    are computed in node-id order regardless.
    """
    if not 1 <= round_index <= config.rounds:
        raise ValueError(f"round {round_index} outside [1, {config.rounds}]")
    lr = config.lr_at(round_index)
    meta_round = config.metadata_enabled and round_index > config.warmup_rounds
    by_id = sorted(nodes, key=lambda nd: nd.node_id)
    theta = server.theta0

    for node in by_id:
        channel.send(Message(MessageKind.PARAMS_DOWN, SERVER, _node_name(node.node_id),
                             round_index, theta))

    downloads: dict[int, list[md.NodeMetadata]] = {}
    per_peer = 0
    if meta_round:
        per_peer, _ = md.synthetic_quota(config.queue_capacity, config.eta, config.nodes)
        for node in by_id:
            peers = [server.metadata_store[j] for j in sorted(server.metadata_store)
                     if j != node.node_id]
            downloads[node.node_id] = peers
            channel.send(Message(MessageKind.METADATA_DOWN, SERVER,
                                 _node_name(node.node_id), round_index, peers))

    hp = contrastive.LocalHyperparams(
        batch_size=config.batch_size,
        lr=lr,
        sgd_momentum=config.sgd_momentum,
        weight_decay=config.weight_decay,
        momentum_coeff=config.momentum_coeff,
        temperature=config.temperature,
        queue_capacity=config.queue_capacity,
        epochs=config.epochs_per_round,
        round_index=round_index,
    )
    trained: dict[int, nn.EncoderParams] = {}
    uploads: dict[int, md.NodeMetadata] = {}
    losses: dict[int, float] = {}
    synthetic_counts: dict[int, int] = {}
    for node in nodes:  # caller-supplied processing order
        synth = _peer_negatives(downloads.get(node.node_id, []), per_peer, config,
                                round_index, node.node_id)
        trained[node.node_id], batch_losses = contrastive.local_update(
            theta, node.images, synth, hp, node.rng_seed)
        losses[node.node_id] = loss = float(np.mean(batch_losses))
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"node {node.node_id}, round {round_index}: local loss is {loss}")
        synthetic_counts[node.node_id] = int(synth.shape[0])
        if meta_round:
            uploads[node.node_id] = md.compute_metadata(
                nn.forward_batch(theta, node.images), config.boxcox_lambda,
                config.cov_jitter, node.node_id, round_index)

    if meta_round:
        for node in by_id:
            channel.send(Message(MessageKind.METADATA_UP, _node_name(node.node_id),
                                 SERVER, round_index, uploads[node.node_id]))
        server.metadata_store.update(uploads)
    for node in by_id:
        channel.send(Message(MessageKind.PARAMS_UP, _node_name(node.node_id),
                             SERVER, round_index, trained[node.node_id]))

    scores = {
        node.node_id: rsa.rsa_score(theta, trained[node.node_id],
                                    _probe_images(node, config, round_index))
        for node in by_id
    }
    if config.aggregation_mode == "self_adaptive":
        weights = rsa.self_adaptive_weights([scores[node.node_id] for node in by_id])
    else:
        weights = rsa.fedavg_weights([node.size for node in by_id])

    server.theta0 = rsa.aggregate([trained[node.node_id] for node in by_id], weights)
    return RoundMetrics(
        round_index, lr, losses, scores,
        {node.node_id: float(w) for node, w in zip(by_id, weights)},
        synthetic_counts,
    )


@dataclass
class RunResult:
    """Round t's aggregate is the ``params_down`` payload of round t + 1;
    the last round's is ``theta0``."""
    theta0: nn.EncoderParams
    metrics: list
    messages: list
    wall_times: list
    config: ExperimentConfig


def build_nodes(config: ExperimentConfig) -> list[FederatedNode]:
    """Each node's private shard and seed; nodes hold no parameters."""
    nodes = []
    for k in range(config.nodes):
        shard = datagen.generate_node_dataset(config.data, config.nodes, k, config.seed)
        nodes.append(FederatedNode(k, shard.pixels, config.node_seed(k)))
    return nodes


def run_training(config: ExperimentConfig) -> RunResult:
    """Full federated pre-training.

    With ``rounds == 0`` the result carries the freshly initialized
    parameters and an empty log."""
    config.validate()
    server = ServerState(nn.init_params(config.encoder_shapes(), config.seed))
    nodes = build_nodes(config)
    channel = MessageChannel()
    metrics: list[RoundMetrics] = []
    wall_times: list[float] = []
    for t in range(1, config.rounds + 1):
        started = time.perf_counter()
        metrics.append(run_round(server, nodes, config, t, channel))
        wall_times.append(time.perf_counter() - started)
    return RunResult(server.theta0, metrics, channel.messages, wall_times, config)


# -- artifacts ----------------------------------------------------------------

def write_atomic(path, *chunks) -> None:
    """Write str or bytes-like chunks to a temporary sibling of ``path``,
    then ``os.replace`` it, so ``path`` is never left half-written."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    os.replace(tmp, path)


def payload_digest(payload) -> str:
    h = hashlib.sha256()
    if isinstance(payload, nn.EncoderParams):
        h.update(np.ascontiguousarray(payload.values, dtype="<f8"))
    elif isinstance(payload, md.NodeMetadata):
        h.update(np.ascontiguousarray(payload.mu, dtype="<f8"))
        h.update(np.ascontiguousarray(payload.sigma, dtype="<f8"))
        h.update(np.array([payload.node_id, payload.round_index], dtype="<i8").tobytes())
    elif isinstance(payload, list):
        for item in payload:
            h.update(payload_digest(item).encode("utf-8"))
    else:
        h.update(repr(type(payload)).encode("utf-8"))
    return h.hexdigest()[:16]


def write_message_log(messages, path) -> None:
    """One JSON line per message: kind, sender, receiver, round, payload tag
    and digest. Payload contents themselves are not serialized."""
    write_jsonl([{
        "kind": _kind_name(msg.kind),
        "sender": msg.sender,
        "receiver": msg.receiver,
        "round": msg.round_index,
        "payload": payload_tag(msg.payload),
        "digest": payload_digest(msg.payload),
    } for msg in messages], path)


def save_checkpoint(params: nn.EncoderParams, path) -> None:
    """Binary checkpoint: one JSON header line (layer manifest, feature dim,
    value count) followed by the flat vector as little-endian float64."""
    header = {
        "shapes": [[s.rows, s.cols, bool(s.has_bias)] for s in params.shapes],
        "feature_dim": int(params.feature_dim),
        "count": int(params.values.size),
    }
    write_atomic(path, json.dumps(header, sort_keys=True) + "\n",
                 np.ascontiguousarray(params.values, dtype="<f8"))


def load_checkpoint(path) -> nn.EncoderParams:
    """Read a ``save_checkpoint`` file; a malformed one raises ``ShapeError``
    naming the file."""
    with open(path, "rb") as fh:
        line, body = fh.readline(), fh.read()
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as exc:
        raise ShapeError(f"{path}: header line is not JSON ({exc})") from exc
    if len(body) % 8:
        raise ShapeError(f"{path}: body holds {len(body)} bytes, not a whole number "
                         f"of float64 values")
    shapes = tuple(nn.LayerShape(int(r), int(c), bool(b)) for r, c, b in header["shapes"])
    count, size = header["count"], sum(s.size for s in shapes)
    if size != count:
        raise ShapeError(f"{path}: header shapes hold {size} values, its count is {count}")
    values = np.frombuffer(body, dtype="<f8").copy()
    if values.size != count:
        raise ShapeError(f"{path}: checkpoint body holds {values.size} values, "
                         f"header count is {count}")
    return nn.EncoderParams(values, shapes, int(header["feature_dim"]))


def metrics_records(metrics) -> list[dict]:
    """Flatten round metrics to one record per round per node. Timing is
    deliberately kept out of these records so identical runs serialize to
    identical bytes."""
    records = []
    for m in metrics:
        for node_id in sorted(m.losses):
            records.append({
                "round": m.round_index,
                "node": node_id,
                "lr": m.lr,
                "loss": m.losses[node_id],
                "rsa": m.rsa_scores.get(node_id),
                "weight": m.weights[node_id],
                "synthetic_count": m.synthetic_counts[node_id],
            })
    return records


def write_jsonl(records, path) -> None:
    write_atomic(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def read_jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


def run_digest(run_dir) -> str:
    """SHA-256 over a run directory's checkpoint.bin, then its metrics.jsonl."""
    h = hashlib.sha256()
    h.update((Path(run_dir) / "checkpoint.bin").read_bytes())
    h.update((Path(run_dir) / "metrics.jsonl").read_bytes())
    return h.hexdigest()

"""Round orchestration between the parameter server and its data nodes.

The simulation runs in one process, but every exchange goes through an
append-only message log whose total order is fixed by (round, phase, node);
that log is the auditable protocol surface. Node updates share no state
within a round, and aggregation accumulates in node-id order, so results do
not depend on the order node updates are executed in.

Per round: parameters go down and every node rebuilds its training state
from them (key encoder equal to the query encoder, key queue flushed,
optimizer momentum cleared). After the warm-up phase, distribution metadata
flows down before any local update and back up after it, so a node only
ever consumes statistics its peers uploaded in the previous round.
"""

from __future__ import annotations

import hashlib
import json
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
    CONTROL = "control"


@dataclass(frozen=True)
class Message:
    kind: MessageKind
    sender: str
    receiver: str
    round_index: int
    payload: object


def _metadata_ok(payload) -> bool:
    if not isinstance(payload, md.NodeMetadata):
        return False
    d = payload.mu.shape[0] if payload.mu.ndim == 1 else -1
    return payload.mu.ndim == 1 and payload.sigma.shape == (d, d)


def payload_violation(message: Message) -> str | None:
    """Why this message breaks the exchange contract, or None if clean.

    Only parameter vectors, distribution metadata (or lists of it), and
    control token strings may travel. Images and per-sample feature arrays
    are prohibited in any position.
    """
    p = message.payload
    if isinstance(p, datagen.ImageSample):
        return "image payload"
    kind = message.kind
    if kind in (MessageKind.PARAMS_DOWN, MessageKind.PARAMS_UP):
        if isinstance(p, nn.EncoderParams):
            return None
        return f"expected encoder parameters, got {type(p).__name__}"
    if kind == MessageKind.METADATA_UP:
        if _metadata_ok(p):
            return None
        return f"expected distribution metadata, got {type(p).__name__}"
    if kind == MessageKind.METADATA_DOWN:
        if isinstance(p, list) and all(_metadata_ok(x) for x in p):
            return None
        return "expected a list of distribution metadata"
    if kind == MessageKind.CONTROL:
        if isinstance(p, str):
            return None
        return "control payload must be a token string"
    return f"unknown message kind {kind!r}"


class MessageChannel:
    """Append-only log; sending a malformed message aborts the run."""

    def __init__(self) -> None:
        self.messages: list[Message] = []

    def send(self, message: Message) -> None:
        problem = payload_violation(message)
        if problem is not None:
            raise ProtocolError(
                f"message {len(self.messages)} ({message.kind.value}): {problem}"
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
        kind = msg.kind.value if isinstance(msg.kind, MessageKind) else str(msg.kind)
        counts[kind] = counts.get(kind, 0) + 1
        problem = payload_violation(msg)
        if problem is not None:
            violations.append((i, problem))
    return AuditReport(not violations, counts, violations)


@dataclass
class ServerState:
    theta0: nn.EncoderParams
    round_index: int = 0
    metadata_store: dict[int, md.NodeMetadata] = field(default_factory=dict)
    weight_history: list[np.ndarray] = field(default_factory=list)
    metrics: list["RoundMetrics"] = field(default_factory=list)


@dataclass
class FederatedNode:
    node_id: int
    images: np.ndarray  # (n, H, W); never leaves the node
    state: contrastive.NodeTrainState
    pending_metadata: md.NodeMetadata | None = None

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


def _extract_metadata(node: FederatedNode, theta: nn.EncoderParams,
                      config: ExperimentConfig, round_index: int) -> md.NodeMetadata:
    feats = nn.forward_batch(theta, node.images)
    return md.compute_metadata(
        feats, config.boxcox_lambda, config.cov_jitter, node.node_id, round_index
    )


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
              channel: MessageChannel):
    """Advance one synchronization round. Mutates ``server`` and the nodes
    in place and returns ``(server, nodes, metrics)``.

    ``nodes`` may arrive in any order; the message log and the aggregate
    are computed in node-id order regardless.
    """
    if not 1 <= round_index <= config.rounds:
        raise ValueError(f"round {round_index} outside [1, {config.rounds}]")
    lr = config.lr_at(round_index)
    meta_round = config.metadata_enabled and round_index > config.warmup_rounds
    by_id = sorted(nodes, key=lambda nd: nd.node_id)
    theta_prev = server.theta0

    for node in by_id:
        channel.send(Message(MessageKind.PARAMS_DOWN, "server", _node_name(node.node_id),
                             round_index, theta_prev))
        node.state = contrastive.NodeTrainState(
            theta_q=theta_prev.copy(),
            theta_d=theta_prev.copy(),
            queue=contrastive.NegativeQueue(config.queue_capacity),
            rng_seed=node.state.rng_seed,
            momentum_buffer=None,
        )
        node.pending_metadata = None

    downloads: dict[int, list[md.NodeMetadata]] = {}
    if meta_round:
        for node in by_id:
            peers = [server.metadata_store[j] for j in sorted(server.metadata_store)
                     if j != node.node_id]
            downloads[node.node_id] = peers
            channel.send(Message(MessageKind.METADATA_DOWN, "server",
                                 _node_name(node.node_id), round_index, peers))

    per_peer = 0
    if meta_round:
        per_peer, _ = md.synthetic_quota(config.queue_capacity, config.eta, config.nodes)

    losses: dict[int, float] = {}
    synthetic_counts: dict[int, int] = {}
    for node in nodes:  # caller-supplied processing order
        if meta_round and config.metadata_timing == "post_sync":
            node.pending_metadata = _extract_metadata(node, node.state.theta_q, config, round_index)
        synth = _peer_negatives(downloads.get(node.node_id, []), per_peer, config,
                                round_index, node.node_id)
        hp = contrastive.LocalHyperparams(
            batch_size=config.batch_size,
            lr=lr,
            sgd_momentum=config.sgd_momentum,
            weight_decay=config.weight_decay,
            momentum_coeff=config.momentum_coeff,
            temperature=config.temperature,
            epochs=config.epochs_per_round,
            round_index=round_index,
        )
        node.state, batch_losses = contrastive.local_update(node.state, node.images, synth, hp)
        losses[node.node_id] = loss = float(np.mean(batch_losses))
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"node {node.node_id}, round {round_index}: local loss is {loss}")
        synthetic_counts[node.node_id] = int(synth.shape[0])
        if meta_round and config.metadata_timing == "post_update":
            node.pending_metadata = _extract_metadata(node, node.state.theta_q, config, round_index)

    if meta_round:
        for node in by_id:
            channel.send(Message(MessageKind.METADATA_UP, _node_name(node.node_id),
                                 "server", round_index, node.pending_metadata))
            server.metadata_store[node.node_id] = node.pending_metadata
    for node in by_id:
        channel.send(Message(MessageKind.PARAMS_UP, _node_name(node.node_id),
                             "server", round_index, node.state.theta_q))

    scores = {
        node.node_id: rsa.rsa_score(theta_prev, node.state.theta_q,
                                    _probe_images(node, config, round_index))
        for node in by_id
    }
    if config.aggregation_mode == "self_adaptive":
        weights = rsa.self_adaptive_weights([scores[node.node_id] for node in by_id])
    else:
        weights = rsa.fedavg_weights([node.size for node in by_id])

    server.theta0 = rsa.aggregate([node.state.theta_q for node in by_id], weights)
    server.round_index = round_index
    server.weight_history.append(weights.a.copy())
    metrics = RoundMetrics(
        round_index, lr, losses, scores,
        {node.node_id: float(w) for node, w in zip(by_id, weights.a)},
        synthetic_counts,
    )
    server.metrics.append(metrics)
    return server, nodes, metrics


@dataclass
class RunResult:
    theta0: nn.EncoderParams
    round_thetas: list
    metrics: list
    messages: list
    wall_times: list
    config: ExperimentConfig


def build_nodes(config: ExperimentConfig, theta0: nn.EncoderParams) -> list[FederatedNode]:
    spec = config.scenario_spec()
    nodes = []
    for k in range(config.nodes):
        shard = datagen.generate_node_dataset(spec, k, config.seed)
        images = np.stack([s.pixels for s in shard])
        state = contrastive.NodeTrainState(
            theta0.copy(), theta0.copy(),
            contrastive.NegativeQueue(config.queue_capacity),
            rng_seed=config.node_seed(k),
        )
        nodes.append(FederatedNode(k, images, state))
    return nodes


def run_training(config: ExperimentConfig) -> RunResult:
    """Full federated pre-training. Returns the final server parameters,
    per-round snapshots and metrics, and the complete message log.

    With ``rounds == 0`` the result carries the freshly initialized
    parameters and an empty log."""
    config.validate()
    theta0 = nn.init_params(config.encoder_shapes(), config.seed)
    server = ServerState(theta0)
    nodes = build_nodes(config, theta0)
    channel = MessageChannel()
    round_thetas: list[nn.EncoderParams] = []
    wall_times: list[float] = []
    for t in range(1, config.rounds + 1):
        started = time.perf_counter()
        run_round(server, nodes, config, t, channel)
        wall_times.append(time.perf_counter() - started)
        round_thetas.append(server.theta0.copy())
    return RunResult(server.theta0, round_thetas, server.metrics, channel.messages,
                     wall_times, config)


# -- serialization ------------------------------------------------------------

def payload_tag(payload) -> str:
    if isinstance(payload, nn.EncoderParams):
        return "params"
    if isinstance(payload, md.NodeMetadata):
        return "metadata"
    if isinstance(payload, list) and all(isinstance(x, md.NodeMetadata) for x in payload):
        return "metadata_list"
    if isinstance(payload, str):
        return "control"
    return f"other:{type(payload).__name__}"


def payload_digest(payload) -> str:
    h = hashlib.sha256()
    if isinstance(payload, nn.EncoderParams):
        h.update(payload.values.astype("<f8").tobytes())
    elif isinstance(payload, md.NodeMetadata):
        h.update(payload.mu.astype("<f8").tobytes())
        h.update(payload.sigma.astype("<f8").tobytes())
        h.update(np.array([payload.node_id, payload.round_index], dtype="<i8").tobytes())
    elif isinstance(payload, list):
        for item in payload:
            h.update(payload_digest(item).encode("utf-8"))
    elif isinstance(payload, str):
        h.update(payload.encode("utf-8"))
    else:
        h.update(repr(type(payload)).encode("utf-8"))
    return h.hexdigest()[:16]


def write_message_log(messages, path) -> None:
    """One JSON line per message: kind, sender, receiver, round, payload tag
    and digest. Payload contents themselves are not serialized."""
    lines = []
    for msg in messages:
        kind = msg.kind.value if isinstance(msg.kind, MessageKind) else str(msg.kind)
        lines.append(json.dumps({
            "kind": kind,
            "sender": msg.sender,
            "receiver": msg.receiver,
            "round": msg.round_index,
            "payload": payload_tag(msg.payload),
            "digest": payload_digest(msg.payload),
        }, sort_keys=True))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_message_log(path) -> list[dict]:
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


def save_checkpoint(params: nn.EncoderParams, path) -> None:
    """Binary checkpoint: one JSON header line (layer manifest, feature dim,
    value count) followed by the flat vector as little-endian float64."""
    header = {
        "shapes": [[s.rows, s.cols, bool(s.has_bias)] for s in params.shapes],
        "feature_dim": int(params.feature_dim),
        "count": int(params.values.size),
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        fh.write(params.values.astype("<f8").tobytes())


def load_checkpoint(path) -> nn.EncoderParams:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        values = np.frombuffer(fh.read(), dtype="<f8").copy()
    if values.size != header["count"]:
        raise ShapeError(f"{path}: checkpoint body truncated")
    shapes = tuple(nn.LayerShape(int(r), int(c), bool(b)) for r, c, b in header["shapes"])
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
    Path(path).write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + ("\n" if records else "")
    )


def read_jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]

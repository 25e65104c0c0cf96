import copy
import functools
import hashlib
import json
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcl import federation
from fedcl.cli import _jsonl_records
from fedcl.config import apply_arm, from_dict, preset_config
from fedcl.datagen import Images
from fedcl.errors import ProtocolError, ShapeError
from fedcl.federation import (CONTRACT, Message, MessageChannel, MessageKind,
                              audit_privacy, build_nodes, contract_violation,
                              load_checkpoint, message_order,
                              metrics_records, payload_digest,
                              payload_violation,
                              run_round, run_training,
                              save_checkpoint, write_atomic, write_jsonl,
                              write_message_log)
from fedcl.metadata import NodeMetadata, compute_metadata
from fedcl.nn import (EncoderParams, forward_batch, init_params, mlp_shapes,
                      validate_shapes)


def tiny_config(**kw):
    base = {
        "nodes": 3, "rounds": 3, "warmup_rounds": 1,
        "queue_capacity": 16, "batch_size": 8, "probe_size": 8,
        "eta": 0.2,  # floor(0.2 * 16 / 2) = 1 synthetic per peer
        "data": {"base_size": 12, "eval_per_class": 4},
    }
    base.update(kw)
    return from_dict(base).validate()


PHASE_ORDER = {
    MessageKind.PARAMS_DOWN: 0,
    MessageKind.METADATA_DOWN: 1,
    MessageKind.METADATA_UP: 2,
    MessageKind.PARAMS_UP: 3,
}


def node_id_of(msg):
    name = msg.receiver if msg.sender == "server" else msg.sender
    return int(name.split("-")[1])


# -- protocol shape -----------------------------------------------------------

def test_message_counts_follow_round_structure():
    cfg = tiny_config()
    result = run_training(cfg)
    report = audit_privacy(result.messages)
    assert report.passed
    k, t, tw = cfg.nodes, cfg.rounds, cfg.warmup_rounds
    assert report.counts["params_down"] == k * t
    assert report.counts["params_up"] == k * t
    assert report.counts["metadata_up"] == k * (t - tw)
    assert report.counts["metadata_down"] == k * (t - tw)


@pytest.mark.parametrize("overrides", [{}, {"metadata_enabled": False},
                                       {"warmup_rounds": 3}])
def test_expected_counts_match_the_messages_sent(overrides):
    cfg = tiny_config(**overrides)
    messages = run_training(cfg).messages
    assert Counter(audit_privacy(messages).counts) == Counter(
        kind for _, kind, _, _ in message_order(cfg))
    assert [(m.round_index, str(m.kind), m.sender, m.receiver)
            for m in messages] == message_order(cfg)


def test_metadata_disabled_sends_no_metadata():
    result = run_training(tiny_config(metadata_enabled=False))
    counts = audit_privacy(result.messages).counts
    assert counts["metadata_up"] == 0 and counts["metadata_down"] == 0


def test_log_total_order():
    """The log is sorted by (round, phase, node)."""
    result = run_training(tiny_config())
    keys = [(m.round_index, PHASE_ORDER[m.kind], node_id_of(m))
            for m in result.messages]
    assert keys == sorted(keys)


def test_downloads_carry_previous_round_uploads():
    """A node's metadata download holds exactly its peers' round t-1 uploads;
    the first post-warm-up round downloads nothing."""
    cfg = tiny_config(rounds=4, warmup_rounds=1)
    result = run_training(cfg)
    first_meta = cfg.warmup_rounds + 1
    for msg in result.messages:
        if msg.kind is not MessageKind.METADATA_DOWN:
            continue
        receiver = node_id_of(msg)
        if msg.round_index == first_meta:
            assert msg.payload == []
        else:
            peers = sorted(set(range(cfg.nodes)) - {receiver})
            assert [m.node_id for m in msg.payload] == peers
            assert all(m.round_index == msg.round_index - 1 for m in msg.payload)


def test_queue_flushed_every_round(monkeypatch):
    """Every local update starts from that round's broadcast and the node's
    own seed; ``local_update`` itself starts the key encoder equal to it,
    the queue empty and the momentum zero (see test_contrastive)."""
    from fedcl import contrastive
    from fedcl.federation import ServerState
    cfg = tiny_config(rounds=2, queue_capacity=64)
    server = ServerState(init_params(cfg.encoder_shapes(), cfg.seed))
    shards = build_nodes(cfg)
    channel = MessageChannel()
    real = contrastive.local_update
    seen = []

    def recording(theta, images, synth, config, round_index, rng_seed):
        seen.append((round_index, config.queue_capacity, theta.values.tobytes(), rng_seed))
        return real(theta, images, synth, config, round_index, rng_seed)

    monkeypatch.setattr(contrastive, "local_update", recording)
    for t in (1, 2):
        run_round(server, shards, cfg, t, channel)
    broadcast = {(m.round_index, node_id_of(m)): m.payload.values.tobytes()
                 for m in channel.messages if m.kind is MessageKind.PARAMS_DOWN}
    want = [(t, 64, broadcast[(t, k)], cfg.node_seed(k))
            for t in (1, 2) for k in range(cfg.nodes)]
    assert seen == want


def test_metadata_summarizes_the_broadcast_encoder():
    """Uploads summarize the node's features under the encoder it was sent
    that round, not the one it trained."""
    cfg = tiny_config(rounds=2)
    result = run_training(cfg)
    shards = build_nodes(cfg)
    params = {(m.round_index, node_id_of(m)): m.payload
              for m in result.messages if m.kind is MessageKind.PARAMS_DOWN}
    uploads = [m for m in result.messages if m.kind is MessageKind.METADATA_UP]
    assert len(uploads) == cfg.nodes
    for m in uploads:
        k = node_id_of(m)
        want = compute_metadata(forward_batch(params[(m.round_index, k)], shards[k]),
                                cfg.boxcox_lambda, node_id=k, round_index=m.round_index)
        assert np.array_equal(m.payload.mu, want.mu)
        assert np.array_equal(m.payload.sigma, want.sigma)


def test_synthetic_counts_follow_quota():
    cfg = tiny_config(rounds=3, warmup_rounds=1)
    result = run_training(cfg)
    per_peer = 1  # floor(0.2 * 16 / 2)
    for rows in result.metrics:
        for r in rows:
            expected = per_peer * (cfg.nodes - 1) if r["round"] > cfg.warmup_rounds + 1 else 0
            assert r["synthetic_count"] == expected


def test_round_metrics_weights_sum_to_one():
    result = run_training(tiny_config())
    for rows in result.metrics:
        assert sum(r["weight"] for r in rows) == pytest.approx(1.0, abs=1e-12)
        assert [r["node"] for r in rows] == [0, 1, 2]  # node order


def test_fedavg_mode_weights_by_sample_count():
    cfg = tiny_config(aggregation_mode="fedavg",
                      data={"base_size": 12, "scenario": "size_skew",
                            "gamma": 25.0, "eval_per_class": 4})
    result = run_training(cfg)
    sizes = cfg.data.node_sizes(cfg.nodes)  # (3, 3, 12)
    want = {k: sizes[k] / sum(sizes) for k in range(3)}
    assert {r["node"]: r["weight"] for r in result.metrics[0]} == pytest.approx(want)


def test_zero_rounds_returns_initial_params():
    cfg = tiny_config(rounds=0, warmup_rounds=0)
    result = run_training(cfg)
    assert np.array_equal(result.theta0.values,
                          init_params(cfg.encoder_shapes(), cfg.seed).values)
    assert result.messages == [] and result.metrics == []


def test_run_round_rejects_non_finite_local_loss(monkeypatch):
    from fedcl import contrastive
    from fedcl.federation import ServerState
    cfg = tiny_config()
    theta0 = init_params(cfg.encoder_shapes(), cfg.seed)
    server = ServerState(theta0.copy())
    shards = build_nodes(cfg)
    real = contrastive.local_update

    def nan_loss_on_node_1_in_round_2(theta, images, synth, config, round_index, rng_seed):
        trained, losses = real(theta, images, synth, config, round_index, rng_seed)
        if rng_seed == cfg.node_seed(1) and round_index == 2:
            losses = [np.nan] * len(losses)
        return trained, losses

    monkeypatch.setattr(contrastive, "local_update", nan_loss_on_node_1_in_round_2)
    channel = MessageChannel()
    run_round(server, shards, cfg, 1, channel)
    with pytest.raises(FloatingPointError, match="node 1, round 2"):
        run_round(server, shards, cfg, 2, channel)
    assert not any(m.kind is MessageKind.PARAMS_UP and m.round_index == 2
                   for m in channel.messages)


def test_run_round_rejects_out_of_range_round():
    cfg = tiny_config()
    theta0 = init_params(cfg.encoder_shapes(), cfg.seed)
    from fedcl.federation import ServerState
    server = ServerState(theta0)
    shards = build_nodes(cfg)
    for bad in (0, cfg.rounds + 1):
        with pytest.raises(ValueError):
            run_round(server, shards, cfg, bad, MessageChannel())


# -- privacy audit ------------------------------------------------------------

def test_channel_rejects_image_payload():
    channel = MessageChannel()
    msg = Message(MessageKind.PARAMS_UP, "node-0", "server", 1,
                  Images(np.zeros((1, 4, 4)), [-1]))
    with pytest.raises(ProtocolError, match="image payload"):
        channel.send(msg)
    assert channel.messages == []


def test_channel_refuses_a_round_lower_than_the_last_message_s():
    channel = MessageChannel()
    theta = init_params(mlp_shapes(4, [3], 2), 0)
    for round_index in (1, 2, 2):
        channel.send(Message(MessageKind.PARAMS_DOWN, "server", "node-0", round_index, theta))
    with pytest.raises(ProtocolError, match=r"^message 3 \(params_up\): round 1 after round 2$"):
        channel.send(Message(MessageKind.PARAMS_UP, "node-0", "server", 1, theta))
    assert [m.round_index for m in channel.messages] == [1, 2, 2]


def test_channel_rejects_wrong_payload_types():
    channel = MessageChannel()
    with pytest.raises(ProtocolError):
        channel.send(Message(MessageKind.METADATA_UP, "node-0", "server", 1,
                             np.zeros((5, 3))))  # raw feature rows
    with pytest.raises(ProtocolError):
        channel.send(Message(MessageKind.PARAMS_DOWN, "server", "node-0", 1,
                             "not params"))


def test_audit_catches_forged_log_entries():
    cfg = tiny_config(rounds=1, warmup_rounds=0)
    result = run_training(cfg)
    forged = list(result.messages)
    forged.insert(2, Message(MessageKind.METADATA_UP, "node-0", "server", 1,
                             Images(np.zeros((1, 4, 4)), [-1])))
    report = audit_privacy(forged)
    assert not report.passed
    assert report.violations[0][0] == 2
    assert "image" in report.violations[0][1]


def test_payload_violation_reasons():
    ok = Message(MessageKind.METADATA_UP, "node-0", "server", 1,
                 NodeMetadata(np.zeros(3), np.eye(3)))
    assert payload_violation(ok) is None
    bad_list = Message(MessageKind.METADATA_DOWN, "server", "node-0", 1,
                       [NodeMetadata(np.zeros(3), np.eye(3)), "junk"])
    assert payload_violation(bad_list) is not None


@pytest.mark.parametrize("kind,sender,receiver", [
    (MessageKind.PARAMS_DOWN, "server", "node-0"),
    (MessageKind.PARAMS_UP, "node-0", "server"),
])
def test_channel_refuses_float32_parameters(kind, sender, receiver):
    """Only float64 θ travels: a float32 one would be widened by the
    payload digest's ``<f8`` cast, so its digest would not be its bytes'."""
    theta = init_params(mlp_shapes(16, [6], 4), 0)
    forged = Message(kind, sender, receiver, 1,
                     EncoderParams(theta.values.astype(np.float32), theta.shapes))
    assert payload_violation(forged) == f"{kind} carries float32 parameters"
    assert payload_violation(Message(kind, sender, receiver, 1, theta)) is None
    channel = MessageChannel()
    with pytest.raises(ProtocolError, match=f"{kind} carries float32 parameters$"):
        channel.send(forged)
    assert channel.messages == []


def test_contract_names_every_kind_once():
    assert set(CONTRACT) == {k.value for k in MessageKind}
    for kind, (tag, downward) in CONTRACT.items():
        assert downward == kind.endswith("_down")
        sender = "server" if downward else "node-0"
        assert contract_violation(kind, sender, tag) is None
        assert contract_violation(kind, "node-0" if downward else "server", tag) is not None
        assert contract_violation(kind, sender, "other:Images") is not None


@pytest.mark.parametrize("kind,sender,receiver", [
    (MessageKind.PARAMS_UP, "server", "node-0"),
    (MessageKind.PARAMS_DOWN, "node-0", "server"),
    (MessageKind.METADATA_UP, "server", "node-0"),
    (MessageKind.METADATA_DOWN, "node-1", "server"),
])
def test_channel_rejects_wrong_direction(kind, sender, receiver):
    params = init_params(mlp_shapes(16, [6], 4), 0)
    meta = NodeMetadata(np.zeros(4), np.eye(4))
    payload = {MessageKind.PARAMS_UP: params, MessageKind.PARAMS_DOWN: params,
               MessageKind.METADATA_UP: meta, MessageKind.METADATA_DOWN: [meta]}[kind]
    channel = MessageChannel()
    with pytest.raises(ProtocolError, match=f"{kind.value} sent by '{sender}'"):
        channel.send(Message(kind, sender, receiver, 1, payload))
    assert channel.messages == []


def test_audit_reports_forged_direction_at_its_index():
    result = run_training(tiny_config(rounds=1, warmup_rounds=0))
    forged = list(result.messages)
    i = next(i for i, m in enumerate(forged) if m.kind is MessageKind.PARAMS_UP)
    m = forged[i]
    forged[i] = Message(m.kind, "server", m.sender, m.round_index, m.payload)
    report = audit_privacy(forged)
    assert not report.passed
    assert report.violations == [(i, "params_up sent by 'server'")]


def test_audit_reports_unknown_kind_at_its_index():
    result = run_training(tiny_config(rounds=1, warmup_rounds=0))
    forged = list(result.messages)
    forged.insert(1, Message("control", "server", "node-0", 1, "sync"))
    report = audit_privacy(forged)
    assert not report.passed
    assert report.violations == [(1, "unknown message kind 'control'")]
    assert report.counts["control"] == 1


def test_payload_violation_checks_metadata_shape():
    square = NodeMetadata(np.zeros(3), np.eye(3))
    skewed = NodeMetadata(np.zeros(3), np.eye(4))
    flat = NodeMetadata(np.zeros((3, 1)), np.eye(3))
    for bad in (skewed, flat):
        assert payload_violation(Message(MessageKind.METADATA_UP, "node-0", "server", 1,
                                         bad)) is not None
        assert payload_violation(Message(MessageKind.METADATA_DOWN, "server", "node-0", 1,
                                         [square, bad])) is not None
    assert payload_violation(Message(MessageKind.METADATA_DOWN, "server", "node-0", 1,
                                     [])) is None


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(list(MessageKind)),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
def test_non_finite_payloads_are_rejected(kind, bad, data):
    """One NaN or infinity anywhere in a parameter vector, or in any mean or
    covariance of a metadata payload or list, breaks the contract: the
    channel refuses the message and the audit reports it at its index."""
    downward = kind.value.endswith("_down")
    sender, receiver = ("server", "node-0") if downward else ("node-0", "server")
    if kind.value.startswith("params"):
        payload = init_params(mlp_shapes(16, [6], 4), 0)
        arrays = [payload.values]
    else:
        metas = [NodeMetadata(np.zeros(4), np.eye(4), k, 1) for k in range(3)]
        payload = metas if downward else metas[0]
        arrays = [a for m in (metas if downward else metas[:1]) for a in (m.mu, m.sigma)]
    message = Message(kind, sender, receiver, 1, payload)
    assert payload_violation(message) is None

    target = arrays[data.draw(st.integers(0, len(arrays) - 1), label="array")]
    target.flat[data.draw(st.integers(0, target.size - 1), label="position")] = bad
    reason = f"{kind.value} carries non-finite values"
    assert payload_violation(message) == reason
    channel = MessageChannel()
    with pytest.raises(ProtocolError, match=reason):
        channel.send(message)
    assert channel.messages == []

    clean = run_training(tiny_config(rounds=1, warmup_rounds=0)).messages
    at = data.draw(st.integers(0, len(clean)), label="index")
    report = audit_privacy(clean[:at] + [message] + clean[at:])
    assert report.violations == [(at, reason)]


@functools.cache
def smoke_log() -> tuple:
    """The message log of a fedmoco run of the smoke preset, made once."""
    config, _ = preset_config("smoke")
    return tuple(run_training(apply_arm(config, "fedmoco")).messages)


def _metas(message) -> list:
    """The metadata a message carries."""
    if message.kind is MessageKind.METADATA_UP:
        return [message.payload]
    return message.payload if message.kind is MessageKind.METADATA_DOWN else []


FORGERIES = {
    "unknown kind": lambda m: True,
    "reversed direction": lambda m: True,
    "wrong payload tag": lambda m: True,
    "NaN parameter": lambda m: isinstance(m.payload, EncoderParams),
    "NaN mean": lambda m: bool(_metas(m)),
    "NaN covariance": lambda m: bool(_metas(m)),
}


def forge(message, forgery, data):
    """``message`` with one forgery applied, and the reason the contract
    gives for refusing it."""
    kind, sender, receiver, payload = (message.kind, message.sender, message.receiver,
                                       message.payload)
    name = kind.value
    reason = f"{name} carries non-finite values"
    if forgery == "unknown kind":
        kind, reason = "control", "unknown message kind 'control'"
    elif forgery == "reversed direction":
        sender, receiver = receiver, sender
        reason = f"{name} sent by {sender!r}"
    elif forgery == "wrong payload tag":
        theta = smoke_log()[0].payload
        d = theta.feature_dim
        payload, tag = ((NodeMetadata(np.zeros(d), np.eye(d)), "metadata")
                        if name.startswith("params") else (theta, "params"))
        reason = f"{name} carries {tag!r}, expected {CONTRACT[name][0]!r}"
    elif forgery == "NaN parameter":
        values = payload.values.copy()
        values[data.draw(st.integers(0, values.size - 1), label="position")] = np.nan
        payload = EncoderParams(values, payload.shapes)
    else:
        metas = list(_metas(message))
        e = data.draw(st.integers(0, len(metas) - 1), label="entry")
        mu, sigma = metas[e].mu.copy(), metas[e].sigma.copy()
        target = mu if forgery == "NaN mean" else sigma
        target.flat[data.draw(st.integers(0, target.size - 1), label="position")] = np.nan
        metas[e] = NodeMetadata(mu, sigma, metas[e].node_id, metas[e].round_index)
        payload = metas if kind is MessageKind.METADATA_DOWN else metas[0]
    return Message(kind, sender, receiver, message.round_index, payload), reason


@settings(max_examples=120, deadline=None)
@given(forgery=st.sampled_from(sorted(FORGERIES)), data=st.data())
def test_a_forged_message_is_refused_at_its_index(forgery, data):
    """Replace message i of a valid run's log with a forged one: the channel
    refuses it as message i, and the audit reports exactly (i, reason)."""
    log = smoke_log()
    i = data.draw(st.sampled_from([i for i, m in enumerate(log) if FORGERIES[forgery](m)]),
                  label="index")
    forged, reason = forge(log[i], forgery, data)
    channel = MessageChannel()
    for message in log[:i]:
        channel.send(message)
    name = "control" if forgery == "unknown kind" else log[i].kind.value
    with pytest.raises(ProtocolError) as refused:
        channel.send(forged)
    assert str(refused.value) == f"message {i} ({name}): {reason}"
    assert len(channel.messages) == i
    assert audit_privacy([*log[:i], forged, *log[i + 1:]]).violations == [(i, reason)]


# -- serialization ------------------------------------------------------------

def test_write_atomic_replaces_whole_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_text("old contents, longer than the new ones")
    write_atomic(path, "head\n", b"\x00\x01", np.arange(2, dtype="<f8"))
    assert path.read_bytes() == b"head\n\x00\x01" + np.arange(2, dtype="<f8").tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_write_atomic_removes_its_temporary_file_when_a_write_fails(tmp_path):
    """A chunk that cannot be written fails the call midway; the old file
    stays whole and no ``.tmp`` is left beside it."""
    path = tmp_path / "out.bin"
    path.write_text("old")
    with pytest.raises(TypeError):
        write_atomic(path, "head\n", 7)
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(mlp_shapes(16, [6], 4), 3)
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    back = load_checkpoint(path)
    assert np.array_equal(back.values, params.values)
    assert back.shapes == params.shapes
    assert back.feature_dim == params.feature_dim


def test_checkpoint_refuses_float32_parameters(tmp_path):
    """A checkpoint holds float64 values: a float32 θ is refused, not
    widened, and no file is written."""
    theta = init_params(mlp_shapes(16, [6], 4), 3)
    path = tmp_path / "model.bin"
    with pytest.raises(ShapeError, match="checkpoints hold float64 parameters, got float32$"):
        save_checkpoint(EncoderParams(theta.values.astype(np.float32), theta.shapes), path)
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_rejects_truncation(tmp_path):
    params = init_params(mlp_shapes(16, [6], 4), 3)
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ShapeError):
        load_checkpoint(path)


def _cut_body(raw: bytes) -> bytes:
    return raw[:-3]


def _garble_header(raw: bytes) -> bytes:
    return b"{not json" + raw[raw.index(b"\n"):]


def _edit_header(edit):
    def damage(raw: bytes) -> bytes:
        line, body = raw.split(b"\n", 1)
        header = json.loads(line)
        return json.dumps(edit(header)).encode() + b"\n" + body
    return damage


def _set_value(index: int, value: float):
    def damage(raw: bytes) -> bytes:
        line, body = raw.split(b"\n", 1)
        values = np.frombuffer(body, dtype="<f8").copy()
        values[index] = value
        return line + b"\n" + values.tobytes()
    return damage


_NOT_A_HEADER = r"header is not an object with a list 'shapes'"


@pytest.mark.parametrize("damage,message", [
    (_cut_body, r"body holds 1037 bytes, not a whole number of float64 values"),
    (_garble_header, r"header line is not JSON"),
    (_edit_header(lambda h: {**h, "count": h["count"] + 1}),
     r"header shapes hold 130 values, its count is 131"),
    (_edit_header(lambda h: {}), _NOT_A_HEADER),
    (_edit_header(lambda h: [1]), _NOT_A_HEADER),
    (_edit_header(lambda h: "x"), _NOT_A_HEADER),
    (_edit_header(lambda h: None), _NOT_A_HEADER),
    (_edit_header(lambda h: {**h, "count": 130.0}), _NOT_A_HEADER),
    (_edit_header(lambda h: {**h, "shapes": [[6, 16, True], [4, 6]]}), _NOT_A_HEADER),
    (_edit_header(lambda h: {**h, "shapes": [[6, 16, True], [4, 6, False]]}), _NOT_A_HEADER),
    (_edit_header(lambda h: {**h, "shapes": h["shapes"] + [[0, 4, True]]}),
     r"layer 2 has a zero-dimensional shape 0x4"),
    (_edit_header(lambda h: {**h, "shapes": [[6, 16, True], [2, 13, True]]}),
     r"layer 1 expects 13 inputs but layer 0 produces 6"),
    (_edit_header(lambda h: {**h, "feature_dim": -3}),
     r"feature_dim is -3, the last layer has 4 rows"),
    (_set_value(7, np.nan), r"body holds a NaN or infinite value"),
    (_set_value(-1, -np.inf), r"body holds a NaN or infinite value"),
], ids=["cut-body", "garbled-header", "miscounted-header", "empty-object", "list",
        "string", "null", "float-count", "short-layer", "bias-free-layer", "zero-size-layer",
        "non-chaining-layer", "negative-feature-dim", "nan-value", "infinite-value"])
def test_checkpoint_errors_name_the_file(tmp_path, damage, message):
    params = init_params(mlp_shapes(16, [6], 4), 3)
    path = tmp_path / "model.bin"
    save_checkpoint(params, path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(ShapeError, match=r"model\.bin: " + message):
        load_checkpoint(path)


def _one_byte_damage(raw: bytes):
    """Any single-byte change of ``raw``, or any cut of it."""
    change = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255)).map(
        lambda pv: raw[:pv[0]] + bytes([pv[1]]) + raw[pv[0] + 1:])
    return st.one_of(change, st.integers(0, len(raw) - 1).map(lambda n: raw[:n]))


_CHECKPOINT = init_params(mlp_shapes(16, [6], 4), 3)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_byte_damage_loads_well_formed_or_names_the_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "damaged-checkpoint.bin"
    save_checkpoint(_CHECKPOINT, path)
    path.write_bytes(data.draw(_one_byte_damage(path.read_bytes())))
    try:
        params = load_checkpoint(path)
    except ShapeError as exc:
        assert str(path) in str(exc)
        return
    assert validate_shapes(params.shapes) == params.shapes
    assert params.feature_dim == params.shapes[-1].rows
    assert np.isfinite(params.values).all()


def test_message_log_roundtrip(tmp_path):
    result = run_training(tiny_config(rounds=2))
    path = tmp_path / "messages.log"
    write_message_log(result.messages, path)
    records = _jsonl_records(path, {})
    assert len(records) == len(result.messages)
    assert records[0]["kind"] == "params_down"
    assert all(set(r) == {"kind", "sender", "receiver", "round",
                          "payload", "digest"} for r in records)


def test_message_log_hashes_each_payload_once(tmp_path, monkeypatch):
    """A round's θ goes to every node and a node's metadata to each peer, in
    one object each: the log hashes every object once, and its bytes equal
    a log that digests each message on its own."""
    result = run_training(tiny_config(rounds=3))
    reference = tmp_path / "reference.log"
    write_jsonl([{"kind": str(m.kind), "sender": m.sender, "receiver": m.receiver,
                  "round": m.round_index, "payload": federation.payload_tag(m.payload),
                  "digest": payload_digest(m.payload)} for m in result.messages], reference)
    hashed = []

    def counting_sha256():
        hashed.append(None)
        return hashlib.sha256()

    monkeypatch.setattr(federation, "hashlib", SimpleNamespace(sha256=counting_sha256))
    path = tmp_path / "messages.log"
    write_message_log(result.messages, path)
    assert path.read_bytes() == reference.read_bytes()
    payloads = {id(m.payload): m.payload for m in result.messages}
    items = {id(item) for p in payloads.values() if isinstance(p, list) for item in p}
    assert len(hashed) == len(payloads) + len(items - payloads.keys())
    assert len(hashed) < len(result.messages)


def test_payload_digest_hashes_little_endian_float64_bytes():
    """The digest is the SHA-256 of the values' little-endian float64 bytes,
    in order, whatever the array's stride or byte order in memory."""
    values = np.arange(28, dtype=">f8")[::2]  # big-endian, strided
    params = EncoderParams(values, mlp_shapes(3, [2], 2))
    meta = NodeMetadata(values[:2], values[2:6].reshape(2, 2).T, 1, 2)

    def sha(*chunks):
        return hashlib.sha256(b"".join(chunks)).hexdigest()[:16]

    assert payload_digest(params) == sha(params.values.astype("<f8").tobytes())
    assert payload_digest(meta) == sha(np.array([0.0, 2.0]).astype("<f8").tobytes(),
                                       np.array([4.0, 8.0, 6.0, 10.0]).astype("<f8").tobytes(),
                                       np.array([1, 2], dtype="<i8").tobytes())


def test_metrics_records_are_timing_free():
    result = run_training(tiny_config(rounds=2))
    records = metrics_records(result.metrics)
    assert len(records) == 2 * 3
    for r in records:
        assert set(r) == {"round", "node", "lr", "loss", "rsa", "weight",
                          "synthetic_count"}


def test_jsonl_roundtrip(tmp_path):
    rows = [{"a": 1, "b": [1, 2]}, {"a": 2, "b": None}]
    path = tmp_path / "rows.jsonl"
    write_jsonl(rows, path)
    assert _jsonl_records(path, {}) == rows
    write_jsonl([], path)
    assert _jsonl_records(path, {}) == []


def test_training_is_reproducible():
    cfg = tiny_config()
    a = run_training(cfg)
    b = run_training(copy.deepcopy(cfg))
    assert np.array_equal(a.theta0.values, b.theta0.values)
    assert metrics_records(a.metrics) == metrics_records(b.metrics)

"""Deterministic simulator for federated contrastive pre-training.

Data stays on its node; only encoder parameters and feature-distribution
metadata cross the wire. The public surface below covers the encoder,
the local contrastive update, metadata exchange, representation-similarity
aggregation, the round loop, and evaluation probes.
"""

from .config import (ARMS, ExperimentConfig, PRESETS, apply_arm, load_config,
                     preset_config, save_config)
from .contrastive import NegativeQueue, augment, local_update, momentum_update
from .datagen import (DISEASE_CLASSES, EVAL_CLASSES, HEALTHY_CLASS,
                      PRETRAIN_CLASSES, Images, ScenarioSpec,
                      export_dataset, generate_node_dataset, load_dataset,
                      make_eval_split)
from .errors import ConfigError, HelperError, ProtocolError, ShapeError
from .evaluate import (FineTuneConfig, FineTuneResult, ProbeConfig,
                       ProbeResult, fine_tune, linear_probe)
from .federation import (AuditReport, Message, MessageChannel, MessageKind,
                         RunResult, ServerState, audit_privacy, load_checkpoint,
                         run_round, run_training, save_checkpoint)
from .metadata import (NodeMetadata, boxcox, compute_metadata, inv_boxcox,
                       sample_gaussian, sample_synthetic, synthetic_quota)
from .nn import (EncoderParams, LayerShape, forward_batch,
                 init_params, loss_and_grad, mlp_shapes, normalize_rows)
from .rsa import (aggregate, compute_rdm, fedavg_weights, rsa_score,
                  self_adaptive_weights, spearman)
from .seeding import rng_for, seed_for

__version__ = "0.1.0"

__all__ = [
    "ARMS", "AuditReport", "ConfigError", "DISEASE_CLASSES", "EVAL_CLASSES",
    "EncoderParams", "ExperimentConfig", "FineTuneConfig", "FineTuneResult",
    "HEALTHY_CLASS", "HelperError", "Images", "LayerShape", "Message",
    "MessageChannel", "MessageKind", "NegativeQueue", "NodeMetadata",
    "PRESETS", "PRETRAIN_CLASSES", "ProbeConfig", "ProbeResult",
    "ProtocolError", "RunResult", "ScenarioSpec", "ServerState", "ShapeError",
    "aggregate", "apply_arm", "audit_privacy", "augment", "boxcox",
    "compute_metadata", "compute_rdm", "export_dataset", "fedavg_weights",
    "fine_tune", "forward_batch", "generate_node_dataset", "init_params",
    "inv_boxcox", "linear_probe", "load_checkpoint", "load_config",
    "load_dataset", "local_update", "loss_and_grad", "make_eval_split",
    "mlp_shapes", "momentum_update", "normalize_rows", "preset_config",
    "rng_for", "rsa_score", "run_round", "run_training", "sample_gaussian",
    "sample_synthetic", "save_checkpoint", "save_config", "seed_for",
    "self_adaptive_weights", "spearman", "synthetic_quota",
]

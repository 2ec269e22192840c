"""Two-channel presentation-attack detection at desk scale.

A cross-modal focal loss, a two-stream multi-head classifier trained
from scratch, a synthetic paired-channel dataset generator, protocol
construction (grandtest and leave-one-out unseen-attack), and an
ISO/IEC 30107-3 style evaluation harness.
"""

from .datagen import GeneratorSpec, MultiModalSample, generate, oracle_separability
from .datasets import (
    ManifestRecord,
    ProtocolSplit,
    load_dataset,
    make_grandtest,
    make_loo,
    save_dataset,
)
from .harness import TrainConfig, evaluate, run_loo, train
from .losses import LossParams, LossValue, cmfl, combined_loss, cross_modal_weight
from .metrics import (
    MetricsReport,
    ScoreRecord,
    apcer_bpcer_acer,
    brute_force_sweep,
    eer_threshold,
    threshold_at_bpcer,
)
from .network import (
    NetworkConfig,
    OptimizerConfig,
    init_network,
    load_checkpoint,
    predict_score,
    save_checkpoint,
)
from .preprocessing import mad_normalize

__version__ = "0.1.0"

__all__ = [
    "GeneratorSpec",
    "LossParams",
    "LossValue",
    "ManifestRecord",
    "MetricsReport",
    "MultiModalSample",
    "NetworkConfig",
    "OptimizerConfig",
    "ProtocolSplit",
    "ScoreRecord",
    "TrainConfig",
    "apcer_bpcer_acer",
    "brute_force_sweep",
    "cmfl",
    "combined_loss",
    "cross_modal_weight",
    "eer_threshold",
    "evaluate",
    "generate",
    "init_network",
    "load_checkpoint",
    "load_dataset",
    "mad_normalize",
    "make_grandtest",
    "make_loo",
    "oracle_separability",
    "predict_score",
    "run_loo",
    "save_checkpoint",
    "save_dataset",
    "threshold_at_bpcer",
    "train",
]

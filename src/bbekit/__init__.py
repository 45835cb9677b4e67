"""Depth-expandable transformer encoders for six-class emotion recognition
across heterogeneous corpora: a from-scratch float64 training stack with
exact-preservation block expansion, round-robin multi-corpus fine-tuning,
and UAR-based evaluation."""

from .autodiff import Tensor, no_grad
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import (Batch, CorpusIterator, CorpusManifest, Sample,
                     SyntheticSpec, generate_synthetic_corpus, load_corpus_set,
                     load_manifest, make_splits, next_batch,
                     round_robin_schedule)
from .errors import (BbekitError, ConfigError, DataError, InvariantViolation,
                     NumericalAbort, NumericalError)
from .expansion import ExpansionSpec, apply_freeze_policy, expand, verify_preservation
from .featfile import read_features, write_features
from .gradcheck import check_model_gradients
from .labels import CLASS_NAMES, MappingTable, SixClass, load_mapping_table
from .metrics import ConfusionMatrix, confusion, duration_histogram, report, uar
from .model import EncoderConfig, EncoderModel
from .optim import AdamWConfig, adamw_step
from .params import ParameterStore
from .trainer import TrainConfig, TrainLog, evaluate, train_multi, train_transfer

__version__ = "0.1.0"

__all__ = [
    "AdamWConfig", "Batch", "BbekitError", "CLASS_NAMES", "ConfigError",
    "ConfusionMatrix", "CorpusIterator", "CorpusManifest", "DataError",
    "EncoderConfig", "EncoderModel", "ExpansionSpec", "InvariantViolation",
    "MappingTable", "NumericalAbort", "NumericalError", "ParameterStore",
    "Sample", "SixClass", "SyntheticSpec", "Tensor", "TrainConfig", "TrainLog",
    "adamw_step", "apply_freeze_policy", "check_model_gradients",
    "confusion", "duration_histogram", "evaluate",
    "expand", "generate_synthetic_corpus", "load_checkpoint", "load_corpus_set",
    "load_manifest", "load_mapping_table", "make_splits", "next_batch",
    "no_grad", "read_features", "report", "round_robin_schedule",
    "save_checkpoint", "train_multi", "train_transfer", "uar",
    "verify_preservation", "write_features",
]

"""Depth-expandable transformer encoders for six-class emotion recognition
across heterogeneous corpora: a from-scratch float64 training stack with
exact-preservation block expansion, round-robin multi-corpus fine-tuning,
and UAR-based evaluation."""

import importlib

# each public name and the module that defines it, imported on first use,
# so that importing a submodule (the CLI, say) loads only what it needs:
# ``bbekit.cli`` pins BLAS threads before anything imports numpy
_EXPORTS = {
    "autodiff": ("Tensor", "no_grad"),
    "checkpoint": ("load_checkpoint", "save_checkpoint"),
    "corpus": ("Batch", "CorpusIterator", "CorpusManifest", "Sample", "SyntheticSpec",
               "generate_synthetic_corpus", "load_corpus_set", "load_manifest",
               "make_splits", "next_batch", "round_robin_schedule"),
    "errors": ("BbekitError", "ConfigError", "DataError", "InvariantViolation",
               "NumericalAbort", "NumericalError"),
    "expansion": ("ExpansionSpec", "apply_freeze_policy", "expand", "verify_preservation"),
    "featfile": ("read_features", "write_features"),
    "gradcheck": ("check_model_gradients",),
    "labels": ("CLASS_NAMES", "MappingTable", "SixClass", "load_mapping_table"),
    "metrics": ("ConfusionMatrix", "confusion", "duration_histogram", "report", "uar"),
    "model": ("EncoderConfig", "EncoderModel"),
    "optim": ("AdamWConfig", "adamw_step"),
    "params": ("ParameterStore",),
    "trainer": ("TrainConfig", "TrainLog", "evaluate", "train_multi", "train_transfer"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


__version__ = "0.1.0"

__all__ = sorted(_HOME)

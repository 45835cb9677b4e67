"""The benchmark's fixed-seed replay (perfbench/reference.py) must still
reproduce the numbers perfbench/reference.json records, and the harness's
own pieces must still fit the program.

The replay runs every benchmark workload through the public API, so it
catches numeric drift in training, expansion or evaluation as well as a
removed name that the benchmark calls.  The harness self-test and the
tracing wrappers catch a renamed function or argument that only the timed
run (perfbench/run.py) uses.
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

from bbekit.expansion import ExpansionSpec, expand
from bbekit.model import ConvLayerSpec, EncoderConfig, EncoderModel
from bbekit.optim import AdamWConfig
from bbekit.trainer import TrainConfig, train_multi, train_transfer

ROOT = Path(__file__).resolve().parents[1]


def test_reference_replay_matches():
    result = subprocess.run([sys.executable, str(ROOT / "perfbench" / "reference.py")],
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count(": ok") == 3, result.stdout


def test_harness_self_test_passes():
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                             str(ROOT / "perfbench" / "test_harness.py")],
                            cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout + result.stderr


def test_tracing_wraps_the_program(tiny_model, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    with tracing.instrument(tracer, tracing.bbekit_targets(), traced=True):
        pass
    model = expand(tiny_model, ExpansionSpec(2, "head-only"))
    tracing._count_params(tracer, (model.store,))
    assert tracer.counters["optim.params_updated"] == 16 * 6 + 6


def test_head_only_steps_keep_the_timed_span(tiny_model, make_corpus, monkeypatch):
    # the benchmark times a step from next_batch to adamw_step; every step
    # starts from cached values (the pooled embedding under head-only, else
    # the frontend rows: a conv model's, or an identity model's frames, as
    # on stage1-rr) and must still make one call to each
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    conv = EncoderModel.build(EncoderConfig(n_blocks=2, d_model=16, n_heads=2, d_ffn=32,
                                            frontend="conv", conv_in_dim=4,
                                            conv_layers=[ConvLayerSpec(16, 3, 2)]), seed=12)
    identity = make_corpus("t0")
    cases = [(train_transfer, tiny_model.clone(), identity, ExpansionSpec(2, "head-only"),
              16 * 6 + 6),  # head only: 102
             (train_transfer, conv, make_corpus("t1", d=4, frame_rate=40.0), None,
              2 * 2224 + 102),  # both blocks and the head
             (train_multi, tiny_model.clone(), [identity], None,
              tiny_model.store.n_params())]  # every parameter
    for train, model, data, spec, n_updated in cases:
        tracer = tracing.Tracer()
        stage = "multi_corpus" if train is train_multi else "single_corpus"
        cfg = TrainConfig(adamw=AdamWConfig(learning_rate=1e-2), n_steps=3, batch_size=4,
                          frame_cap=20, eval_every=100, seed=2, stage=stage,
                          expansion=spec)
        with tracing.instrument(tracer, tracing.bbekit_targets(), traced=True):
            train(model, data, cfg)
        per_step = Counter((span[tracing.STEP], span[tracing.NAME]) for span in tracer.spans
                           if span[tracing.NAME] in ("corpus.next_batch", "optim.adamw_step"))
        assert per_step == {(step, name): 1 for step in range(3)
                            for name in ("corpus.next_batch", "optim.adamw_step")}
        assert len(tracing.step_durations(tracer.spans, "corpus.next_batch",
                                          "optim.adamw_step")) == 3
        assert tracer.counters["optim.params_updated"] / 3 == n_updated


def test_the_model_ops_keep_their_spans(tiny_model, make_corpus, monkeypatch):
    # the functional.<op>.self_s metrics time the ops the model calls by
    # bbekit.functional's names; the block inside an expanded block is
    # called by that module's name too, so its span nests
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    conv = EncoderModel.build(EncoderConfig(n_blocks=1, d_model=16, n_heads=2, d_ffn=32,
                                            frontend="conv", conv_in_dim=4,
                                            conv_layers=[ConvLayerSpec(16, 3, 2)]), seed=12)
    identity = make_corpus("t0")
    cases = {"stage 1": (train_multi, tiny_model.clone(), [identity], None),
             "freeze-original": (train_transfer, tiny_model.clone(), identity,
                                 ExpansionSpec(2, "freeze-original")),
             "conv": (train_transfer, conv, make_corpus("t1", d=4, frame_rate=40.0),
                      ExpansionSpec(2, "head-only"))}
    spans = {}
    for case, (train, model, data, spec) in cases.items():
        tracer = tracing.Tracer()
        stage = "multi_corpus" if train is train_multi else "single_corpus"
        cfg = TrainConfig(adamw=AdamWConfig(learning_rate=1e-2), n_steps=2, batch_size=4,
                          frame_cap=20, eval_every=100, seed=2, stage=stage,
                          expansion=spec)
        with tracing.instrument(tracer, tracing.bbekit_targets(), traced=True):
            train(model, data, cfg)
        spans[case] = tracer.spans
    names = {case: {span[tracing.NAME] for span in found} for case, found in spans.items()}
    assert {"functional.encoder_block_forward", "functional.masked_mean_pool",
            "functional.softmax_cross_entropy"} <= names["stage 1"]
    expanded = spans["freeze-original"]
    parents = {expanded[span[tracing.PARENT]][tracing.NAME] for span in expanded
               if span[tracing.NAME] == "functional.encoder_block_forward"
               and span[tracing.PARENT] >= 0}
    assert "functional.expanded_block_forward" in parents
    assert "functional.linear_forward" in names["conv"]

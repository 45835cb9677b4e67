"""Training loops: logging, determinism, freezing, aborts, selection."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from bbekit import autodiff as ad
from bbekit.autodiff import BLOCK_PARAMS
from bbekit import functional as F
from bbekit import trainer as trainer_mod
from bbekit.checkpoint import save_checkpoint
from bbekit.corpus import CorpusIterator, CorpusManifest, next_batch, pad_frames
from bbekit.errors import (ConfigError, EvalError, InputError, InvariantViolation,
                           NumericalAbort)
from bbekit.expansion import ExpansionSpec, apply_freeze_policy, expand
from bbekit.model import FREEZE_POLICIES, ConvLayerSpec, EncoderConfig, EncoderModel
from bbekit.optim import AdamWConfig, adamw_step
from bbekit.params import ParameterStore
from bbekit.rngutil import derive_seed
from bbekit.trainer import (
    TrainConfig,
    TrainLog,
    _cache_kind,
    _cached_loss,
    _fill_train_cache,
    evaluate,
    train_multi,
    train_transfer,
)


def quick_cfg(**overrides):
    base = dict(adamw=AdamWConfig(learning_rate=1e-3), n_steps=30, batch_size=4,
                frame_cap=20, eval_every=10, seed=3, stage="multi_corpus")
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize("kwargs", [
        {"n_steps": 0}, {"eval_every": 0}, {"batch_size": 0},
        {"stage": "warmup"}, {"selection": "median"}, {"frame_cap": 0}, {"frame_cap": -3},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_plan_past_the_bound_is_config_error(self):
        # rejected as a number, before any schedule or stream is built
        with pytest.raises(ConfigError, match="n_steps .* batch_size"):
            TrainConfig(n_steps=1 << 24, batch_size=2)
        assert TrainConfig(n_steps=1 << 20, batch_size=16).n_steps == 1 << 20
        assert 100 * 10_000 * 16 <= trainer_mod.MAX_PLANNED_DRAWS  # finetune's default plan

    def test_no_frame_cap(self):
        assert TrainConfig(frame_cap=None).frame_cap is None
        assert TrainConfig(frame_cap=1).frame_cap == 1

    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.n_steps == 3000
        assert cfg.batch_size == 16
        assert cfg.frame_cap == 512
        assert cfg.eval_every == 100
        assert cfg.selection == "best"


class TestTrainLog:
    def test_loss_steps_strictly_increase(self):
        log = TrainLog()
        log.add_loss(1, "a", 0.5)
        log.add_loss(2, "b", 0.4)
        with pytest.raises(InvariantViolation):
            log.add_loss(2, "a", 0.3)

    def test_csv_layout(self):
        log = TrainLog()
        log.add_loss(1, "c0", 0.1)
        log.add_val(0, "c0", 0.25)
        assert log.loss_csv() == "step,corpus,loss\n1,c0,0.1\n"
        assert log.val_csv() == "step,corpus,val_uar\n0,c0,0.25\n"

    def test_csv_floats_survive_round_trip(self):
        log = TrainLog()
        value = 1.0 / 3.0
        log.add_loss(1, "c0", value)
        cell = log.loss_csv().splitlines()[1].split(",")[2]
        assert float(cell) == value

    def test_val_curve_filters_by_corpus(self):
        log = TrainLog()
        log.add_val(0, "a", 0.1)
        log.add_val(0, "b", 0.2)
        log.add_val(10, "a", 0.3)
        assert log.val_curve("a") == [(0, 0.1), (10, 0.3)]


class TestEvaluate:
    def test_constant_predictor_uar(self, tiny_model, make_corpus):
        # head forced to always pick class 0; balanced split -> UAR 1/6
        manifest = make_corpus("c0")
        model = tiny_model.clone()
        model.store.value("head.weight")[...] = 0.0
        model.store.value("head.bias")[...] = np.array([1.0, 0, 0, 0, 0, 0])
        result = evaluate(model, manifest, "train")
        assert result["uar"] == pytest.approx(1.0 / 6.0)
        assert result["n_samples"] == len(manifest.split_samples("train"))
        assert result["confusion"].counts[:, 0].sum() == result["n_samples"]

    def test_empty_split_rejected(self, tiny_model, make_corpus):
        manifest = make_corpus("c0")
        manifest.samples = [s for s in manifest.samples if s.split != "test"]
        with pytest.raises(EvalError):
            evaluate(tiny_model, manifest, "test")


def tape_nodes(loss) -> int:
    """Tensors on the tape behind ``loss``: the nodes and the leaves that
    need a gradient."""
    seen, stack = {id(loss)}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def step_loss(model, manifest, batch, frame_cap):
    """The training step's loss on ``batch``, from a fill of ``manifest``'s
    train split at ``frame_cap``."""
    kind = _cache_kind(model)
    cache = _fill_train_cache(model, [manifest], frame_cap, kind)
    return _cached_loss(model, batch, cache[manifest.corpus_id], kind)


def padded_loss(model, manifest, batch, frame_cap):
    """The oracle for a training step: the loss of ``forward`` on the
    batch's padded ``[:frame_cap]`` crops, run per batch on the tape."""
    crops = [manifest.features(s)[:frame_cap] for s in batch.samples]
    return F.softmax_cross_entropy(model.forward(*pad_frames(crops)), batch.labels)


class TestBatchLoss:
    def test_one_tape_whatever_the_batch_size(self, tiny_model, make_corpus):
        manifest = make_corpus("c0")
        counts = [tape_nodes(step_loss(tiny_model, manifest, next_batch(
            CorpusIterator(manifest, "train", seed=1), size, frame_cap=20), 20))
            for size in (1, 8)]
        assert counts[0] == counts[1]

    def test_c07_tape_size(self, make_corpus):
        # a 4-block d=16 step at B=8: 1 node per block, 1 for pooling, the
        # head's linear and the loss, plus 66 parameter leaves; the cached
        # frontend rows are a leaf that needs no gradient.  The benchmark
        # reports this count as autodiff.tape_nodes_per_step on stage1-rr
        model = EncoderModel.build(EncoderConfig(n_blocks=4, d_model=16, n_heads=2, d_ffn=32),
                                   seed=0)
        manifest = make_corpus("c0")
        batch = next_batch(CorpusIterator(manifest, "train", seed=1), 8, frame_cap=50)
        assert batch.size == 8
        assert tape_nodes(step_loss(model, manifest, batch, 50)) == 4 * 1 + 1 + 1 + 1 + 66

    def test_equals_mean_of_single_sample_losses(self, tiny_model, make_corpus):
        manifest = make_corpus("c0")
        batch = next_batch(CorpusIterator(manifest, "train", seed=1), 5)
        singles = []
        for frames, label in zip(map(manifest.features, batch.samples), batch.labels):
            logits = tiny_model.logits(frames)
            singles.append(np.log(np.exp(logits - logits.max()).sum())
                           - (logits[label] - logits.max()))
        assert step_loss(tiny_model, manifest, batch, None).item() == pytest.approx(
            np.mean(singles), rel=1e-12)


class TestEvaluateOrder:
    def test_confusion_independent_of_sample_order(self, tiny_model, make_corpus):
        manifest = make_corpus("c0")
        before = evaluate(tiny_model, manifest, "train")
        manifest.samples.reverse()
        after = evaluate(tiny_model, manifest, "train")
        assert np.array_equal(before["confusion"].counts, after["confusion"].counts)
        assert before["n_samples"] == after["n_samples"] > 16


class TestTrainMulti:
    def test_loss_decreases_and_val_improves(self, tiny_model, make_corpus):
        manifest = make_corpus("c0")
        model, log = train_multi(tiny_model.clone(), [manifest], quick_cfg())
        losses = [v for _, _, v in log.losses]
        assert len(losses) == 30
        assert np.mean(losses[-5:]) < np.mean(losses[:5])
        curve = log.val_curve("c0")
        assert curve[0][0] == 0
        assert log.best_val_uar >= curve[0][1]

    def test_schedule_round_robins_corpora(self, tiny_model, make_corpus):
        manifests = [make_corpus("a"), make_corpus("b", seed=41)]
        _, log = train_multi(tiny_model.clone(), manifests, quick_cfg(n_steps=6))
        assert [c for _, c, _ in log.losses] == ["a", "b", "a", "b", "a", "b"]

    def test_rerun_is_bit_identical(self, tiny_model, make_corpus):
        manifest = make_corpus("c0")
        m1, log1 = train_multi(tiny_model.clone(), [manifest], quick_cfg())
        m2, log2 = train_multi(tiny_model.clone(), [manifest], quick_cfg())
        assert log1.losses == log2.losses
        assert log1.vals == log2.vals
        for name in m1.store.names():
            assert np.array_equal(m1.store.value(name), m2.store.value(name)), name

    def test_seed_changes_the_run(self, tiny_model, make_corpus):
        manifest = make_corpus("c0")
        _, log1 = train_multi(tiny_model.clone(), [manifest], quick_cfg(seed=3))
        _, log2 = train_multi(tiny_model.clone(), [manifest], quick_cfg(seed=4))
        assert log1.losses != log2.losses

    def test_fully_frozen_model_rejected(self, tiny_model, make_corpus):
        manifest = make_corpus("c0", n_speakers=3, samples_per_speaker=1)
        model = tiny_model.clone()
        model.store.freeze_where(lambda name: True)
        with pytest.raises(ConfigError):
            train_multi(model, [manifest], quick_cfg(n_steps=8, batch_size=2))

    def test_stage_mismatch(self, tiny_model, make_corpus):
        with pytest.raises(ConfigError):
            train_multi(tiny_model, [make_corpus("c0")], quick_cfg(stage="single_corpus"))

    def test_expansion_is_rejected(self, tiny_model, make_corpus):
        # a one-block model would otherwise come back unexpanded, silently
        model = tiny_model.clone()
        with pytest.raises(ConfigError):
            train_multi(model, [make_corpus("c0")], quick_cfg(expansion=ExpansionSpec(2)))
        assert model.expansion is None

    def test_no_corpora(self, tiny_model):
        with pytest.raises(ConfigError):
            train_multi(tiny_model, [], quick_cfg())

    def test_duplicate_corpus_id_is_config_error(self, tiny_model, make_corpus, monkeypatch):
        # the schedule, the iterators and the val log are keyed by corpus id,
        # so a second corpus under one id would take the first one's turns
        first, second = make_corpus("a"), make_corpus("b", seed=41)
        second.corpus_id = "a"
        monkeypatch.setattr(trainer_mod, "evaluate", lambda *args: pytest.fail("step 0 ran"))
        with pytest.raises(ConfigError, match="corpus id 'a' names more than one corpus"):
            train_multi(tiny_model, [first, second], quick_cfg())

    def test_freeze_policy_applied(self, tiny_model, make_corpus):
        manifest = make_corpus("c0")
        model = tiny_model.clone()
        apply_freeze_policy(model, "head-only")
        model, _ = train_multi(model, [manifest], quick_cfg(n_steps=4))
        for name in model.store.names():
            unchanged = np.array_equal(model.store.value(name),
                                       tiny_model.store.value(name))
            assert unchanged != name.startswith("head."), name


class TestNumericalAbort:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_poisoned_parameter_aborts_with_context(self, tiny_model, make_corpus):
        # the overflow already fires in the step-0 evaluation, which must
        # abort with attribution rather than leak a bare numerical error
        manifest = make_corpus("c0")
        model = tiny_model.clone()
        model.store.value("head.weight")[...] = 1e308  # overflow on first matmul
        with pytest.raises(NumericalAbort) as exc:
            train_multi(model, [manifest], quick_cfg())
        abort = exc.value
        assert abort.step == 0
        assert abort.corpus_id == "c0"
        assert abort.loss_tail == []
        assert abort.exit_code == 5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("policy", ["head-only", "freeze-original"])
    def test_poisoned_model_aborts_in_the_preservation_check(self, tiny_model, make_corpus,
                                                             policy):
        # the expansion's preservation check is the first forward pass; its
        # overflow is attributed to step 0 and the target corpus
        model = tiny_model.clone()
        model.store.value("block.0.ffn.w2.weight")[...] = 1e308
        with pytest.raises(NumericalAbort) as exc:
            train_transfer(model, make_corpus("t0"), quick_cfg(
                stage="single_corpus", n_steps=4, expansion=ExpansionSpec(2, policy)))
        assert (exc.value.step, exc.value.corpus_id, exc.value.exit_code) == (0, "t0", 5)
        assert str(exc.value).startswith("preservation check failed: ")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_mid_run_abort_carries_loss_tail(self, tiny_model, make_corpus, monkeypatch):
        manifest = make_corpus("c0")
        model = tiny_model.clone()

        poisoned_cfg = quick_cfg(n_steps=9, eval_every=3)
        original = trainer_mod._cached_loss
        calls = {"n": 0}

        def sabotage(m, *args):
            calls["n"] += 1
            if calls["n"] == 7:
                m.store.value("head.weight")[...] = np.inf
            return original(m, *args)

        monkeypatch.setattr(trainer_mod, "_cached_loss", sabotage)
        with pytest.raises(NumericalAbort) as exc:
            train_multi(model, [manifest], poisoned_cfg)
        assert exc.value.step == 7
        assert len(exc.value.loss_tail) == 5


class TestTransfer:
    def test_step0_matches_loaded_model(self, tiny_model, make_corpus):
        # fine-tuning must start from exactly the loaded behaviour: the
        # step-0 val score equals a direct evaluation of the source model
        target = make_corpus("t0")
        zero_shot = evaluate(tiny_model, target, "val")["uar"]
        _, log = train_transfer(tiny_model.clone(), target,
                                quick_cfg(stage="single_corpus", n_steps=5))
        assert log.val_curve("t0")[0] == (0, zero_shot)

    def test_step0_unchanged_by_expansion(self, tiny_model, make_corpus):
        target = make_corpus("t0")
        zero_shot = evaluate(tiny_model, target, "val")["uar"]
        _, log = train_transfer(
            tiny_model.clone(), target,
            quick_cfg(stage="single_corpus", n_steps=5,
                      expansion=ExpansionSpec(multiplier=2)))
        assert log.val_curve("t0")[0] == (0, zero_shot)

    def test_no_step_draws_an_epoch_order(self, tiny_model, make_corpus, monkeypatch):
        # a step runs from next_batch to adamw_step; every epoch order its
        # batches need is drawn before step 1
        events = []

        def record(name, fn):
            def wrapped(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(CorpusIterator, "_epoch_order",
                            record("order", CorpusIterator._epoch_order))
        monkeypatch.setattr(trainer_mod, "next_batch", record("batch", next_batch))
        monkeypatch.setattr(trainer_mod, "adamw_step", record("adamw", adamw_step))
        target = make_corpus("t0")
        cfg = quick_cfg(stage="single_corpus", n_steps=30, expansion=ExpansionSpec(2, "head-only"))
        train_transfer(tiny_model.clone(), target, cfg)
        # the steps cross epochs: ceil(30 * 4 / n_train) orders, more than one
        n_train = len(target.split_samples("train"))
        assert events.count("order") == -(-cfg.n_steps * cfg.batch_size // n_train) > 1
        assert events.count("batch") == events.count("adamw") == cfg.n_steps
        in_step = False
        for event in events:
            assert not (in_step and event == "order"), "a step drew an epoch order"
            in_step = {"batch": True, "adamw": False}.get(event, in_step)

    @pytest.mark.parametrize("spec", [None, ExpansionSpec(2, "head-only")],
                             ids=["rows", "pooled"])
    def test_no_step_reads_a_feature(self, tiny_model, make_corpus, monkeypatch, spec):
        # the iterators take every frame count before step 1, and the fill
        # every crop, so a step finds all it needs in memory
        events = []

        def record(name, fn):
            def wrapped(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(CorpusManifest, "features",
                            record("features", CorpusManifest.features))
        monkeypatch.setattr(trainer_mod, "next_batch", record("batch", next_batch))
        monkeypatch.setattr(trainer_mod, "adamw_step", record("adamw", adamw_step))
        target = make_corpus("t0")
        cfg = quick_cfg(stage="single_corpus", n_steps=12, eval_every=5, expansion=spec)
        train_transfer(tiny_model.clone(), target, cfg)
        assert events.count("batch") == events.count("adamw") == cfg.n_steps
        assert events.count("features") > 0
        in_step = False
        for event in events:
            assert not (in_step and event == "features"), "a step read a feature"
            in_step = {"batch": True, "adamw": False}.get(event, in_step)

    def test_expansion_grows_model(self, tiny_model, make_corpus):
        target = make_corpus("t0")
        model, _ = train_transfer(
            tiny_model.clone(), target,
            quick_cfg(stage="single_corpus", n_steps=5,
                      expansion=ExpansionSpec(multiplier=2)))
        assert model.block_ids() == ["0", "0x1", "1", "1x1"]
        assert model.expansion is not None

    def test_frozen_originals_stay_byte_identical(self, tiny_model, make_corpus):
        target = make_corpus("t0")
        model, _ = train_transfer(
            tiny_model.clone(), target,
            quick_cfg(stage="single_corpus", n_steps=15,
                      expansion=ExpansionSpec(2, "freeze-original")))
        for name in tiny_model.store.names():
            if name.startswith("block."):
                assert np.array_equal(model.store.value(name),
                                      tiny_model.store.value(name)), name
        # and the trainable side actually moved
        assert not np.array_equal(model.store.value("head.weight"),
                                  tiny_model.store.value("head.weight"))

    def test_head_reinit_auto_keeps_matching_head(self, tiny_model, make_corpus):
        target = make_corpus("t0")  # six classes, same as the model
        model = tiny_model.clone()
        state = model.rng_state
        train_transfer(model, target, quick_cfg(stage="single_corpus", n_steps=2))
        assert model.rng_state == state  # no RNG draw means no reinit

    def test_head_reinit_forced(self, tiny_model, make_corpus):
        target = make_corpus("t0")
        model = tiny_model.clone()
        state = model.rng_state
        train_transfer(model, target, quick_cfg(stage="single_corpus", n_steps=2),
                       reinit_head=True)
        assert model.rng_state != state

    def test_head_resized_for_smaller_inventory(self, tiny_model, make_corpus):
        # a target without its top classes keeps the fixed six-class head
        target = make_corpus("t0")
        target.samples = [s for s in target.samples if s.mapped_class < 3]
        model = tiny_model.clone()
        state = model.rng_state
        model, _ = train_transfer(model, target,
                                  quick_cfg(stage="single_corpus", n_steps=2))
        assert model.store.value("head.weight").shape == (16, 6)
        assert model.rng_state == state  # no RNG draw means no reinit

    def test_stage_mismatch(self, tiny_model, make_corpus):
        with pytest.raises(ConfigError):
            train_transfer(tiny_model, make_corpus("t0"), quick_cfg())


class TestRecordedBlocks:
    def test_every_block_node_freezes_whole_or_trains_whole(self, tiny_model, make_corpus,
                                                            monkeypatch):
        # the block backward runs every stage down to LN1 because the
        # freeze policies freeze whole blocks: every block node a run
        # records has its 16 parameters under one flag, and x or the
        # parameters need a gradient
        recorded = []
        encoder_block = F.encoder_block_forward

        def spy(x, p, heads, packing):
            out = encoder_block(x, p, heads, packing)
            if out._backward is not None:
                recorded.append((x.requires_grad, {p[n].requires_grad for n in BLOCK_PARAMS}))
            return out

        monkeypatch.setattr(F, "encoder_block_forward", spy)
        manifests = [make_corpus("a"), make_corpus("b", seed=41)]
        model, _ = train_multi(tiny_model.clone(), manifests, quick_cfg(n_steps=4))
        counts = {"stage 1": len(recorded)}
        for policy in FREEZE_POLICIES:
            before = len(recorded)
            train_transfer(model.clone(), manifests[0],
                           quick_cfg(stage="single_corpus", n_steps=4,
                                     expansion=ExpansionSpec(2, policy)))
            counts[policy] = len(recorded) - before
        # 4 steps of 2 blocks; of 4 expanded blocks, the frozen first
        # original records no node; head-only steps run no block
        assert counts == {"stage 1": 8, "freeze-original": 12, "non-frozen": 16,
                          "head-only": 0}
        for x_needs, param_flags in recorded:
            assert len(param_flags) == 1
            assert x_needs or param_flags == {True}


class TestSelection:
    def test_best_selection_restores_best_parameters(self, tiny_model, make_corpus):
        target = make_corpus("t0")
        cfg = quick_cfg(stage="single_corpus", n_steps=20, eval_every=5,
                        selection="best")
        model, log = train_transfer(tiny_model.clone(), target, cfg)
        assert evaluate(model, target, "val")["uar"] == log.best_val_uar

    def test_best_selection_restores_whole_entries(self, tiny_model, make_corpus,
                                                   monkeypatch):
        # values, AdamW moments and step counters all come back from the
        # best step, so a saved checkpoint pairs them consistently
        def entry_states(store):
            return {name: (e.tensor.data.copy(), None if e.frozen else e.m.copy(),
                           None if e.frozen else e.v.copy(), e.step)
                    for name, e in store.items()}

        states = []  # every entry's state after each step, step 0 first
        original = trainer_mod.adamw_step

        def recording_step(store, cfg):
            if not states:
                states.append(entry_states(store))
            original(store, cfg)
            states.append(entry_states(store))

        monkeypatch.setattr(trainer_mod, "adamw_step", recording_step)
        target = make_corpus("t0")
        cfg = quick_cfg(stage="single_corpus", n_steps=20, eval_every=5,
                        selection="best", adamw=AdamWConfig(learning_rate=3e-2))
        model, log = train_transfer(tiny_model.clone(), target, cfg)
        assert 0 < log.best_step < cfg.n_steps
        best, last = states[log.best_step], states[-1]
        assert not np.array_equal(best["head.weight"][1], last["head.weight"][1])
        for name, (value, m, v, step) in best.items():
            entry = model.store[name]
            assert np.array_equal(entry.tensor.data, value), name
            assert np.array_equal(entry.m, m), name
            assert np.array_equal(entry.v, v), name
            assert entry.step == step == log.best_step, name

    def test_last_selection_takes_no_snapshot(self, tiny_model, make_corpus, tmp_path,
                                              monkeypatch):
        # "last" restores nothing, so it copies nothing; its outputs are
        # those of a "best" run whose restore does nothing, which snapshots
        # at every new best as "last" once did
        calls = Counter()
        snapshot = ParameterStore.snapshot

        def counting(store):
            calls[selection] += 1
            return snapshot(store)

        monkeypatch.setattr(ParameterStore, "snapshot", counting)
        monkeypatch.setattr(ParameterStore, "restore", lambda store, snap: None)
        target = make_corpus("t0")
        outputs = {}
        for selection in ("last", "best"):
            model, log = train_transfer(tiny_model.clone(), target, quick_cfg(
                stage="single_corpus", n_steps=20, eval_every=5, selection=selection,
                adamw=AdamWConfig(learning_rate=3e-2)))
            path = tmp_path / f"{selection}.bbex"
            save_checkpoint(path, model)
            outputs[selection] = (log.loss_csv(), log.val_csv(), log.best_step,
                                  path.read_bytes())
        assert calls["last"] == 0 and calls["best"] >= 2
        assert outputs["last"] == outputs["best"]

    def test_head_only_snapshot_holds_the_head_alone(self, tiny_model):
        store = expand(tiny_model, ExpansionSpec(2, "head-only")).store
        _, value, m, v, steps = store.snapshot()
        n_head = store.value("head.weight").size + store.value("head.bias").size
        assert value.size == m.size == v.size == n_head and steps.size == 2

    def test_last_selection_keeps_final_parameters(self, tiny_model, make_corpus):
        target = make_corpus("t0")
        cfg = quick_cfg(stage="single_corpus", n_steps=20, eval_every=5,
                        selection="last")
        model, log = train_transfer(tiny_model.clone(), target, cfg)
        final_val = log.val_curve("t0")[-1][1]
        assert evaluate(model, target, "val")["uar"] == final_val


def conv_model():
    config = EncoderConfig(n_blocks=2, d_model=16, n_heads=2, d_ffn=32, frontend="conv",
                           conv_in_dim=4, conv_layers=[ConvLayerSpec(16, 3, 2)])
    return EncoderModel.build(config, seed=12)


def conv_corpus(make_corpus, corpus_id="t0"):
    return make_corpus(corpus_id, d=4, frame_rate=40.0)  # 20-200 frames


CACHE_KINDS = ["identity", "conv", "frontend", "identity-rows", "identity-freeze-original"]


def cache_case(kind, tiny_model, make_corpus):
    """A model, its target corpus, a frame cap that crops most of the
    corpus's train samples, and the expansion whose freeze flags pick the
    cache: the pooled embedding under head-only ("identity", "conv"), else
    the frontend rows: of a conv model whose blocks train ("frontend"), and
    the frames themselves for an identity model whose blocks all train
    ("identity-rows") or whose copies train ("identity-freeze-original")."""
    if kind.startswith("identity"):
        spec = {"identity": ExpansionSpec(2, "head-only"), "identity-rows": None,
                "identity-freeze-original": ExpansionSpec(2, "freeze-original")}[kind]
        return tiny_model, make_corpus("t0"), 20, spec  # 5-50 frames
    spec = None if kind == "frontend" else ExpansionSpec(2, "head-only")
    return conv_model(), conv_corpus(make_corpus), 60, spec


def spy_model(monkeypatch):
    """Record the frames every fill call runs through the frontend (a
    ``frontend_rows`` inside ``trainer._fill_train_cache``) and how often
    ``forward`` runs with the tape on."""
    record = {"embedded": Counter(), "taped_forwards": 0}
    frontend_rows, forward = EncoderModel.frontend_rows, EncoderModel.forward
    fill = trainer_mod._fill_train_cache
    depth = [0]

    def frontend_spy(self, frames, pad_mask):
        if depth[0]:
            for row, mask in zip(np.asarray(frames), pad_mask):
                record["embedded"][row[mask].tobytes()] += 1
        return frontend_rows(self, frames, pad_mask)

    def forward_spy(self, frames, pad_mask=None):
        record["taped_forwards"] += ad.is_grad_enabled()
        return forward(self, frames, pad_mask)

    def fill_spy(*args):
        depth[0] += 1
        try:
            return fill(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(EncoderModel, "frontend_rows", frontend_spy)
    monkeypatch.setattr(EncoderModel, "forward", forward_spy)
    monkeypatch.setattr(trainer_mod, "_fill_train_cache", fill_spy)
    return record


def tape_spy(monkeypatch) -> list[int]:
    """Tape size of every backward pass."""
    sizes = []
    backward = ad.Tensor.backward

    def spy(self):
        sizes.append(tape_nodes(self))
        return backward(self)

    monkeypatch.setattr(ad.Tensor, "backward", spy)
    return sizes


class TestHeadOnlyCache:
    @pytest.mark.parametrize("kind", CACHE_KINDS)
    def test_matches_the_uncached_step(self, kind, tiny_model, make_corpus, tmp_path):
        # the oracle runs forward on each batch's padded frames; a cached
        # embedding is pooled over another padded length than the batch's,
        # so the two agree to rounding, not bit for bit; cached frontend
        # rows run the blocks on the batch's own rows and mask
        model, target, cap, spec = cache_case(kind, tiny_model, make_corpus)
        cfg = quick_cfg(n_steps=6, frame_cap=cap, eval_every=100, selection="last",
                        adamw=AdamWConfig(learning_rate=1e-2))
        lengths = [len(target.features(s)) for s in target.split_samples("train")]
        assert min(lengths) < cap < max(lengths)
        if spec is None:
            cached, log = train_multi(model.clone(), [target], cfg)
            reference = model
        else:
            cached, log = train_transfer(model.clone(), target,
                                         replace(cfg, stage="single_corpus", expansion=spec))
            reference = expand(model, spec)

        iterator = CorpusIterator(target, "train", derive_seed(cfg.seed, 0))
        expected = TrainLog()
        expected.add_val(0, "t0", evaluate(reference, target, "val")["uar"])
        for step in range(1, cfg.n_steps + 1):
            loss = padded_loss(reference, target, next_batch(iterator, cfg.batch_size, cap),
                               cap)
            expected.add_loss(step, "t0", loss.item())
            loss.backward()
            adamw_step(reference.store, cfg.adamw)
        expected.add_val(cfg.n_steps, "t0", evaluate(reference, target, "val")["uar"])
        if _cache_kind(reference) == "rows":
            assert log.loss_csv() == expected.loss_csv()
            assert log.val_csv() == expected.val_csv()
            save_checkpoint(tmp_path / "cached.bbex", cached)
            save_checkpoint(tmp_path / "reference.bbex", reference)
            assert ((tmp_path / "cached.bbex").read_bytes()
                    == (tmp_path / "reference.bbex").read_bytes())
            return
        np.testing.assert_allclose([v for _, _, v in log.losses],
                                   [v for _, _, v in expected.losses], rtol=1e-12, atol=0)
        for name in ("head.weight", "head.bias"):
            np.testing.assert_allclose(cached.store.value(name),
                                       reference.store.value(name), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["identity", "conv"])
    def test_gathered_batch_is_the_stack_of_the_cached_vectors(self, kind, tiny_model,
                                                               make_corpus):
        # the cache is one array with a row per train sample, in the
        # iterator's order; a batch's rows, gathered at its draws, are the
        # vectors a per-sample fill computes, stacked, and the loss has the
        # stack's bits
        model, target, cap, spec = cache_case(kind, tiny_model, make_corpus)
        model = expand(model, spec)
        values = _fill_train_cache(model, [target], cap, "pooled")[target.corpus_id]
        samples = target.split_samples("train")
        assert isinstance(values, np.ndarray)
        assert values.shape == (len(samples), model.config.d_model)
        vectors = [None] * len(samples)
        with ad.no_grad():
            for chunk, features, mask in trainer_mod._sorted_chunks(
                    [target.features(s)[:cap] for s in samples]):
                pooled = model.encode_rows(*model.frontend_rows(features, mask)).data
                for i, v in zip(chunk, pooled):
                    vectors[i] = v
        iterator = CorpusIterator(target, "train", seed=5)
        assert iterator.samples == samples
        for size in (1, 4, 16, 16):
            batch = next_batch(iterator, size, cap)
            stacked = np.stack([vectors[i] for i in batch.index])
            assert np.array_equal(values[batch.index], stacked)
            expected = F.softmax_cross_entropy(model.head(ad.Tensor(stacked)), batch.labels)
            loss = _cached_loss(model, batch, values, "pooled")
            assert loss.item() == expected.item()

    @pytest.mark.parametrize("spec", [None, ExpansionSpec(2, "head-only")],
                             ids=["rows", "pooled"])
    def test_two_ids_of_one_manifest_share_every_train_file(self, tiny_model, make_corpus,
                                                            spec, monkeypatch):
        # every train file is under both ids; each id's cache is in its own
        # split order, and the two hold equal values
        target = make_corpus("t0")
        twin = replace(target, corpus_id="t1")
        model = expand(tiny_model, spec) if spec else tiny_model.clone()
        kind = _cache_kind(model)
        fills, fill = [], trainer_mod._fill_train_cache

        def fill_spy(*args):
            fills.append(fill(*args))
            return fills[-1]

        monkeypatch.setattr(trainer_mod, "_fill_train_cache", fill_spy)
        _, log = train_multi(model, [target, twin], quick_cfg(n_steps=6))
        assert [c for _, c, _ in log.losses] == ["t0", "t1"] * 3
        assert all(np.isfinite(v) for _, _, v in log.losses)
        (cache,) = fills
        assert sorted(cache) == ["t0", "t1"]
        assert len(cache["t0"]) == len(target.split_samples("train"))
        if kind == "pooled":
            assert np.array_equal(cache["t0"], cache["t1"])
        else:
            assert all(np.array_equal(a, b) for a, b in zip(cache["t0"], cache["t1"],
                                                            strict=True))

    def test_rerun_is_bit_identical(self, tiny_model, make_corpus):
        target = make_corpus("t0")
        cfg = quick_cfg(stage="single_corpus", n_steps=12, eval_every=4,
                        expansion=ExpansionSpec(2, "head-only"))
        m1, log1 = train_transfer(tiny_model.clone(), target, cfg)
        m2, log2 = train_transfer(tiny_model.clone(), target, cfg)
        assert (log1.losses, log1.vals) == (log2.losses, log2.vals)
        for name in m1.store.names():
            assert np.array_equal(m1.store.value(name), m2.store.value(name)), name

    def test_round_robin_keeps_the_encoder_byte_identical(self, tiny_model, make_corpus):
        manifests = [make_corpus("a"), make_corpus("b", seed=41)]
        model = tiny_model.clone()
        apply_freeze_policy(model, "head-only")
        model, log = train_multi(model, manifests, quick_cfg(n_steps=6))
        assert [c for _, c, _ in log.losses] == ["a", "b"] * 3
        for name in model.store.names():
            unchanged = np.array_equal(model.store.value(name),
                                       tiny_model.store.value(name))
            assert unchanged != name.startswith("head."), name

    @pytest.mark.parametrize("kind", CACHE_KINDS)
    def test_fill_embeds_each_train_sample_once(self, kind, tiny_model, make_corpus,
                                                 monkeypatch):
        model, target, cap, spec = cache_case(kind, tiny_model, make_corpus)
        # the oracle's tape, on which the frontend records no node: under
        # head-only the head linear, the loss and two leaves
        full = tape_nodes(padded_loss(expand(model, spec) if spec else model, target, next_batch(
            CorpusIterator(target, "train", seed=1), 4, frame_cap=cap), cap))
        assert (full == 4) == (kind in ("identity", "conv"))
        record = spy_model(monkeypatch)
        sizes = tape_spy(monkeypatch)
        cfg = quick_cfg(stage="single_corpus", n_steps=8, frame_cap=cap, eval_every=4,
                        expansion=spec)
        train_transfer(model, target, cfg)
        want = Counter(target.features(s)[:cap].tobytes()
                       for s in target.split_samples("train"))
        assert record["embedded"] == want
        assert record["taped_forwards"] == 0
        assert sizes == [full] * cfg.n_steps

    def test_thawed_frontend_is_a_config_error(self, make_corpus, monkeypatch):
        # the frontend is fixed: a trainable entry of it (only set_frozen or a
        # hand-made checkpoint can make one) fails before the step-0
        # evaluation and before any batch
        model = conv_model()
        model.store.set_frozen("frontend.conv0.bias", False)

        def unreachable(*args):
            raise AssertionError("training went past the freeze-flag check")

        monkeypatch.setattr(trainer_mod, "evaluate", unreachable)
        monkeypatch.setattr(trainer_mod, "next_batch", unreachable)
        with pytest.raises(ConfigError, match="frontend.conv0.bias") as exc:
            train_multi(model, [conv_corpus(make_corpus)], quick_cfg(n_steps=4))
        assert exc.value.exit_code == 2

    def test_non_finite_train_frame_is_input_error(self, tiny_model, make_corpus,
                                                   monkeypatch):
        # the fill checks every train crop before the first batch is drawn,
        # whether it caches pooled embeddings or rows
        target = make_corpus("t0")
        sample = target.split_samples("train")[3]
        target._cache[sample.feature_path] = target.features(sample).copy()
        target.features(sample)[2, 5] = np.nan

        def no_batch(*args):
            raise AssertionError("a batch was drawn before the fill")

        monkeypatch.setattr(trainer_mod, "next_batch", no_batch)
        for spec in (ExpansionSpec(2, "head-only"), None):
            with pytest.raises(InputError, match="non-finite"):
                train_transfer(tiny_model.clone(), target, quick_cfg(
                    stage="single_corpus", n_steps=4, expansion=spec))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("stub_eval", [False, True])
    def test_poisoned_frozen_block_aborts_at_step_zero(self, tiny_model, make_corpus,
                                                       monkeypatch, stub_eval):
        # the step-0 evaluation aborts first; with it stubbed out, the fill does
        target = make_corpus("t0")
        model = expand(tiny_model, ExpansionSpec(2, "head-only"))
        model.store.value("block.1.ffn.w2.weight")[...] = 1e308
        if stub_eval:
            monkeypatch.setattr(trainer_mod, "evaluate",
                                lambda model, manifest, split: {"uar": 0.0})
        with pytest.raises(NumericalAbort) as exc:
            train_transfer(model, target, quick_cfg(stage="single_corpus", n_steps=4))
        assert (exc.value.step, exc.value.corpus_id, exc.value.exit_code) == (0, "t0", 5)
        assert ("embedding the train split" in str(exc.value)) == stub_eval

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("stub_eval", [False, True])
    def test_poisoned_frozen_frontend_aborts_at_step_zero(self, make_corpus, monkeypatch,
                                                          stub_eval):
        # the blocks train, so the fill caches the frontend's rows
        target = conv_corpus(make_corpus)
        model = conv_model()
        model.store.value("frontend.conv0.weight")[...] = 1e308
        if stub_eval:
            monkeypatch.setattr(trainer_mod, "evaluate",
                                lambda model, manifest, split: {"uar": 0.0})
        with pytest.raises(NumericalAbort) as exc:
            train_multi(model, [target], quick_cfg(n_steps=4))
        assert (exc.value.step, exc.value.corpus_id, exc.value.exit_code) == (0, "t0", 5)
        assert ("embedding the train split" in str(exc.value)) == stub_eval

    @pytest.mark.parametrize("spec", [None, ExpansionSpec(2, "head-only")])
    def test_frame_cap_below_the_receptive_field_is_config_error(self, make_corpus,
                                                                  monkeypatch, spec):
        # a 2-frame cap crops every sample below the 3-frame receptive field
        def no_eval(*args):
            raise AssertionError("evaluated before the frame cap was checked")

        monkeypatch.setattr(trainer_mod, "evaluate", no_eval)
        with pytest.raises(ConfigError, match="frame_cap 2 .* receptive field of 3"):
            train_transfer(conv_model(), conv_corpus(make_corpus),
                           quick_cfg(stage="single_corpus", n_steps=4, frame_cap=2,
                                     expansion=spec))

    @pytest.mark.parametrize("spec", [None, ExpansionSpec(2, "head-only")])
    def test_short_train_sample_fails_at_the_fill(self, make_corpus, monkeypatch, spec):
        # the conv stack's receptive field is 3 frames; the fill runs every
        # train sample before the first batch is drawn
        target = conv_corpus(make_corpus)
        sample = target.split_samples("train")[3]
        target._cache[sample.feature_path] = target.features(sample)[:2].copy()

        def no_batch(*args):
            raise AssertionError("a batch was drawn before the fill")

        monkeypatch.setattr(trainer_mod, "next_batch", no_batch)
        with pytest.raises(InputError, match="receptive field"):
            train_transfer(conv_model(), target,
                           quick_cfg(stage="single_corpus", n_steps=4, expansion=spec))

"""Training loops: logging, determinism, freezing, aborts, selection."""

import numpy as np
import pytest

from bbekit.corpus import CorpusIterator, next_batch
from bbekit.errors import ConfigError, EvalError, InvariantViolation, NumericalAbort
from bbekit.expansion import ExpansionSpec, apply_freeze_policy
from bbekit.optim import AdamWConfig
from bbekit.trainer import (
    TrainConfig,
    TrainLog,
    _batch_loss,
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
        {"stage": "warmup"}, {"selection": "median"},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

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
    """Nodes backward would visit from ``loss``, leaves included."""
    seen, stack = {id(loss)}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class TestBatchLoss:
    def test_one_tape_whatever_the_batch_size(self, tiny_model, make_corpus):
        manifest = make_corpus("c0")
        counts = [tape_nodes(_batch_loss(tiny_model, next_batch(
            CorpusIterator(manifest, "train", seed=1), size, frame_cap=20)))
            for size in (1, 8)]
        assert counts[0] == counts[1]

    def test_equals_mean_of_single_sample_losses(self, tiny_model, make_corpus):
        batch = next_batch(CorpusIterator(make_corpus("c0"), "train", seed=1), 5)
        singles = []
        for frames, mask, label in zip(batch.features, batch.pad_mask, batch.labels):
            logits = tiny_model.logits(frames[mask])
            singles.append(np.log(np.exp(logits - logits.max()).sum())
                           - (logits[label] - logits.max()))
        assert _batch_loss(tiny_model, batch).item() == pytest.approx(
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

    def test_no_corpora(self, tiny_model):
        with pytest.raises(ConfigError):
            train_multi(tiny_model, [], quick_cfg())

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
    def test_mid_run_abort_carries_loss_tail(self, tiny_model, make_corpus):
        manifest = make_corpus("c0")
        model = tiny_model.clone()

        poisoned_cfg = quick_cfg(n_steps=9, eval_every=3)
        from bbekit import trainer as trainer_mod

        original = trainer_mod._batch_loss
        calls = {"n": 0}

        def sabotage(m, batch):
            calls["n"] += 1
            if calls["n"] == 7:
                m.store.value("head.weight")[...] = np.inf
            return original(m, batch)

        trainer_mod._batch_loss = sabotage
        try:
            with pytest.raises(NumericalAbort) as exc:
                train_multi(model, [manifest], poisoned_cfg)
        finally:
            trainer_mod._batch_loss = original
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
        from bbekit import trainer as trainer_mod

        states = []  # store state after each step, step 0 first
        original = trainer_mod.adamw_step

        def recording_step(store, cfg):
            if not states:
                states.append(store.snapshot())
            original(store, cfg)
            states.append(store.snapshot())

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

    def test_last_selection_keeps_final_parameters(self, tiny_model, make_corpus):
        target = make_corpus("t0")
        cfg = quick_cfg(stage="single_corpus", n_steps=20, eval_every=5,
                        selection="last")
        model, log = train_transfer(tiny_model.clone(), target, cfg)
        final_val = log.val_curve("t0")[-1][1]
        assert evaluate(model, target, "val")["uar"] == final_val

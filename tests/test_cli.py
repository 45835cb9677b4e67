"""End-to-end command-line pipeline driven in-process through main()."""

import argparse
import ast
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_corpus import JSON_VALUES

from bbekit.checkpoint import load_checkpoint, save_checkpoint
from bbekit.cli import _variant_name, build_parser, load_config, main, train_config_from
from bbekit.corpus import SyntheticSpec
from bbekit.rngutil import derive_seed
from bbekit.errors import ConfigError
from bbekit.expansion import ExpansionSpec, expand
from bbekit.model import ConvLayerSpec, EncoderConfig, EncoderModel
from bbekit.optim import AdamWConfig
from bbekit.trainer import TrainConfig


def cfg_file(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SMALL_CFG = {
    "model": {"n_blocks": 1, "d_model": 8, "n_heads": 2, "d_ffn": 16},
    "train": {"batch_size": 2, "eval_every": 5, "frame_cap": 10},
    "adamw": {"learning_rate": 1e-3},
}


def synth(tmp_path, out="data", corpora=2):
    rc = main(["synth-data", "--out", str(tmp_path / out), "--corpora", str(corpora),
               "--speakers", "3", "--samples-per-speaker", "1", "--dim", "8",
               "--frame-rate", "2.0", "--seed", "5"])
    assert rc == 0
    return tmp_path / out


class TestLoadConfig:
    def test_file_plus_overrides(self, tmp_path):
        path = cfg_file(tmp_path, {"train": {"batch_size": 4}})
        cfg = load_config(path, ["train.batch_size=8", "adamw.learning_rate=0.001",
                                 "train.selection=last"])
        assert cfg["train"]["batch_size"] == 8
        assert cfg["adamw"]["learning_rate"] == 0.001
        assert cfg["train"]["selection"] == "last"  # non-JSON falls back to string

    def test_no_file(self):
        assert load_config(None, []) == {}

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/cfg.json", [])

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path), [])

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path), [])

    def test_set_without_equals(self):
        with pytest.raises(ConfigError):
            load_config(None, ["train.batch_size"])

    def test_train_config_mapping(self):
        cfg = {"train": {"batch_size": 4, "frame_cap": 0, "n_steps": 77},
               "adamw": {"learning_rate": 0.5}}
        tcfg = train_config_from(cfg, "multi_corpus", seed=9)
        assert tcfg.batch_size == 4
        assert tcfg.frame_cap is None  # 0 disables the cap
        assert tcfg.n_steps == 77
        assert tcfg.adamw.learning_rate == 0.5
        assert tcfg.seed == 9

    def test_explicit_steps_beat_config(self):
        tcfg = train_config_from({"train": {"n_steps": 77}}, "multi_corpus",
                                 seed=0, n_steps=5)
        assert tcfg.n_steps == 5

    def test_defaults_come_from_the_dataclasses(self):
        # keys that name no setting are refused, not ignored in favour of a default
        assert train_config_from({}, "multi_corpus", 0) == TrainConfig(seed=0,
                                                                       stage="multi_corpus")
        for section in ("train", "adamw"):
            with pytest.raises(ConfigError, match="'unknown'"):
                train_config_from({section: {"unknown": 1}}, "multi_corpus", 0)

    @pytest.mark.parametrize("key,value", [
        ("seed", 5), ("stage", "single_corpus"), ("expansion", {"multiplier": 3}),
        ("adamw", {"learning_rate": 0.5}),
    ])
    def test_train_keys_the_command_sets_are_config_errors(self, key, value):
        with pytest.raises(ConfigError, match=repr(key)):
            train_config_from({"train": {key: value}}, "multi_corpus", 0)

    @pytest.mark.parametrize("setting", ["tarin.batch_size=4", "synth.d=4"])
    def test_unknown_section_is_config_error(self, setting):
        with pytest.raises(ConfigError, match=repr(setting.split(".")[0])):
            load_config(None, [setting])

    SECTION_CLASSES = {"model": EncoderConfig, "train": TrainConfig, "adamw": AdamWConfig}
    CLI_OWNED = {"seed", "stage", "expansion", "adamw"}

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(section=st.sampled_from(sorted(SECTION_CLASSES)) | st.text(max_size=6),
           key=st.sampled_from(sorted({f.name for cls in SECTION_CLASSES.values()
                                       for f in dataclasses.fields(cls)})) | st.text(),
           value=JSON_VALUES)
    def test_any_config_key_is_used_or_is_config_error(self, tmp_path_factory, section,
                                                       key, value):
        # the resolution `bbekit train` applies to a config file; any other
        # exception fails
        path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        path.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
        cls = self.SECTION_CLASSES.get(section)
        known = cls is not None and key in {f.name for f in dataclasses.fields(cls)}
        owned = section == "train" and key in self.CLI_OWNED
        try:
            cfg = load_config(str(path), [])
            EncoderConfig.from_dict(cfg.get("model", {}))
            train_config_from(cfg, "multi_corpus", 0)
        except ConfigError as exc:
            if not known or owned:
                assert repr(section if cls is None else key) in str(exc)
            return
        assert known and not owned

    def test_bad_value_is_config_error(self):
        with pytest.raises(ConfigError):
            train_config_from({"train": {"batch_size": "many"}}, "multi_corpus", 0)

    FLOAT_FIELDS = [(cls, f.name) for cls in (AdamWConfig, SyntheticSpec)
                    for f in dataclasses.fields(cls) if type(f.default) is float]

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(field=st.sampled_from(FLOAT_FIELDS), value=st.floats())
    def test_any_float_setting_builds_a_finite_config_or_is_config_error(self, field, value):
        # NaN, infinities and subnormals included; any other exception fails
        cls, name = field
        required = {"corpus_id": "x"} if cls is SyntheticSpec else {}
        try:
            config = cls(**required, **{name: value})
        except ConfigError:
            return
        assert all(math.isfinite(getattr(config, f)) for c, f in self.FLOAT_FIELDS if c is cls)

    def test_null_frame_cap_means_no_cap(self):
        tcfg = train_config_from({"train": {"frame_cap": None}}, "multi_corpus", 0)
        assert tcfg.frame_cap is None

    @pytest.mark.parametrize("cap", [-3, -1, 0.5, True, False])
    def test_frame_cap_below_one_is_config_error(self, cap):
        # 0 (or 0.0) is the CLI's "no cap"; anything else below 1 is refused
        # when the config is built, before any training or evaluation
        with pytest.raises(ConfigError, match="frame_cap"):
            train_config_from({"train": {"frame_cap": cap}}, "multi_corpus", 0)
        assert train_config_from({"train": {"frame_cap": 0.0}}, "multi_corpus", 0).frame_cap is None

    def test_default_steps_per_command(self):
        assert train_config_from({}, "multi_corpus", 0).n_steps == 3000
        assert train_config_from({}, "single_corpus", 0,
                                 default_steps=10000).n_steps == 10000


class TestSynthData:
    def test_artifacts(self, tmp_path, capsys):
        data = synth(tmp_path)
        out = capsys.readouterr().out
        assert "wrote 2 corpora" in out
        assert "[" in out  # printed histogram rows
        assert (data / "corpus_set.json").is_file()
        assert (data / "durations.csv").is_file()
        assert (data / "run.meta").is_file()
        assert (data / "summary.json").is_file()
        for cid in ("syn00", "syn01"):
            assert (data / f"{cid}.jsonl").is_file()
        entries = json.loads((data / "corpus_set.json").read_text())
        assert [e["corpus_id"] for e in entries] == ["syn00", "syn01"]
        durations = (data / "durations.csv").read_text().splitlines()
        assert durations[0] == "bin_start_s,count"

    def test_target_shift_applies_to_last_corpus(self, tmp_path):
        rc = main(["synth-data", "--out", str(tmp_path / "d"), "--corpora", "2",
                   "--speakers", "3", "--samples-per-speaker", "1", "--dim", "8",
                   "--frame-rate", "2.0", "--target-shift", "1.5"])
        assert rc == 0
        from bbekit.featfile import read_features
        from bbekit.corpus import load_manifest

        m0 = load_manifest(tmp_path / "d" / "syn00.jsonl")
        m1 = load_manifest(tmp_path / "d" / "syn01.jsonl")
        # the shifted corpus sits further from the origin on average
        norm0 = np.mean([np.linalg.norm(read_features(s.feature_path).mean(0))
                         for s in m0.samples])
        norm1 = np.mean([np.linalg.norm(read_features(s.feature_path).mean(0))
                         for s in m1.samples])
        assert norm1 > norm0

    def test_summary_echoes_every_spec(self, tmp_path):
        assert main(["synth-data", "--out", str(tmp_path / "d"), "--corpora", "2",
                     "--speakers", "3", "--samples-per-speaker", "1", "--dim", "4",
                     "--noise-std", "0.2", "--frame-rate", "2.0", "--target-shift", "1.5",
                     "--seed", "9"]) == 0
        summary = json.loads((tmp_path / "d" / "summary.json").read_text())
        specs = [SyntheticSpec(corpus_id=f"syn{i:02d}", n_speakers=3, samples_per_speaker=1,
                               d=4, noise_std=0.2, corpus_shift=shift,
                               seed=derive_seed(9, i), frame_rate=2.0)
                 for i, shift in enumerate([0.0, 1.5])]
        assert summary["config"] == {"seed": 9,
                                     "specs": [dataclasses.asdict(s) for s in specs]}

    @pytest.mark.parametrize("flags, corpus", [
        (["--noise-std", "1e39"], "syn00"),  # every corpus overflows float32
        (["--target-shift", "1e39"], "syn01"),  # only the last one does
    ])
    def test_frames_past_float32_write_no_out(self, tmp_path, capsys, flags, corpus):
        rc = main(["synth-data", "--out", str(tmp_path / "o"), "--corpora", "2",
                   "--speakers", "3", "--samples-per-speaker", "1", "--dim", "2"] + flags)
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'o' / 'features' / corpus}-spk000-c0-r000.feat: "
            "non-finite frame values (as float32)\n")
        assert not (tmp_path / "o").exists()

    def test_bad_spec_fails_before_any_corpus_is_written(self, tmp_path, capsys):
        rc = main(["synth-data", "--out", str(tmp_path / "d"), "--corpora", "2",
                   "--speakers", "3", "--samples-per-speaker", "1", "--dim", "4",
                   "--frame-rate", "2.0", "--target-shift", "nan"])
        assert rc == 2
        assert "corpus_shift" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestPipeline:
    def test_full_pipeline(self, tmp_path, capsys):
        data = synth(tmp_path)
        cfg = cfg_file(tmp_path, SMALL_CFG)

        rc = main(["train", "--config", cfg, "--out", str(tmp_path / "s1"),
                   "--corpus-set", str(data / "corpus_set.json"), "--steps", "10"])
        assert rc == 0
        assert "trained 10 steps on 2 corpora" in capsys.readouterr().out
        ckpt = tmp_path / "s1" / "checkpoint.bbex"
        assert ckpt.is_file()

        summary = json.loads((tmp_path / "s1" / "summary.json").read_text())
        assert summary["checkpoint_sha256"] == hashlib.sha256(ckpt.read_bytes()).hexdigest()
        assert summary["best_step"] is not None
        loss_lines = (tmp_path / "s1" / "loss.csv").read_text().splitlines()
        assert loss_lines[0] == "step,corpus,loss"
        assert len(loss_lines) == 11
        val_lines = (tmp_path / "s1" / "val.csv").read_text().splitlines()
        assert val_lines[0] == "step,corpus,val_uar"
        assert val_lines[1].startswith("0,syn00,")

        rc = main(["expand", "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "exp")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "blocks: 1 -> 2" in out
        assert "preservation max|Δ| = 0.0" in out
        expanded = load_checkpoint(tmp_path / "exp" / "expanded.bbex")
        assert expanded.block_ids() == ["0", "0x1"]

        rc = main(["finetune", "--config", cfg, "--out", str(tmp_path / "ft"),
                   "--checkpoint", str(ckpt), "--target", str(data / "syn01.jsonl"),
                   "--steps", "10", "--expand"])
        assert rc == 0
        assert "expanded-x2-freeze-original" in capsys.readouterr().out

        rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "ev-base"),
                   "--corpus", str(data / "syn01.jsonl")])
        assert rc == 0
        rc = main(["eval", "--checkpoint", str(tmp_path / "ft" / "checkpoint.bbex"),
                   "--out", str(tmp_path / "ev-ft"),
                   "--corpus", str(data / "syn01.jsonl")])
        assert rc == 0
        capsys.readouterr()

        payload = json.loads((tmp_path / "ev-base" / "eval.json").read_text())
        assert payload["corpus"] == "syn01"
        assert payload["split"] == "test"
        assert payload["variant"] == "base"
        assert payload["label_space"] == "six-class"
        assert len(payload["confusion"]) == 6
        assert payload["n_samples"] == sum(sum(r) for r in payload["confusion"])
        ft_payload = json.loads((tmp_path / "ev-ft" / "eval.json").read_text())
        assert ft_payload["variant"] == "expanded-x2-freeze-original"

        rc = main(["report", "--out", str(tmp_path / "rep"),
                   str(tmp_path / "ev-base" / "eval.json"),
                   str(tmp_path / "ev-ft" / "eval.json")])
        assert rc == 0
        table = capsys.readouterr().out
        assert "AVERAGE" in table
        csv_lines = (tmp_path / "rep" / "report.csv").read_text().splitlines()
        assert csv_lines[0] == "corpus,base,expanded-x2-freeze-original"
        assert csv_lines[1].startswith("syn01,")
        assert csv_lines[2].startswith("AVERAGE,")

    def test_expand_conv_checkpoint(self, tmp_path, capsys):
        # the benchmark's conv shape: probes shorter than its 7-frame
        # receptive field would be rejected
        config = EncoderConfig(n_blocks=2, d_model=16, n_heads=2, d_ffn=32,
                               frontend="conv", conv_in_dim=4,
                               conv_layers=[ConvLayerSpec(16, 3, 2), ConvLayerSpec(16, 3, 2)])
        ckpt = tmp_path / "conv.bbex"
        save_checkpoint(ckpt, EncoderModel.build(config, seed=4))
        rc = main(["expand", "--checkpoint", str(ckpt), "--out", str(tmp_path / "exp")])
        assert rc == 0
        assert "preservation max|Δ| = 0.0" in capsys.readouterr().out
        assert load_checkpoint(tmp_path / "exp" / "expanded.bbex").config.n_blocks == 4

    def test_expand_runs_through_the_trainer_names(self, tmp_path, tiny_model, monkeypatch,
                                                   capsys):
        # a tracer wraps bbekit.trainer.expand and .verify_preservation,
        # so the CLI expands through the same function as train_transfer
        from bbekit import trainer as trainer_mod

        calls = []
        for name in ("expand", "verify_preservation"):
            def recording(*args, _original=getattr(trainer_mod, name), _name=name):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(trainer_mod, name, recording)
        ckpt = tmp_path / "m.bbex"
        save_checkpoint(ckpt, tiny_model)
        assert main(["expand", "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")]) == 0
        assert calls == ["expand", "verify_preservation"]
        capsys.readouterr()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_expand_of_a_poisoned_checkpoint_is_a_numerical_abort(self, tmp_path, tiny_model,
                                                                  capsys):
        tiny_model.store.value("block.0.ffn.w2.weight")[...] = 1e308
        ckpt = tmp_path / "m.bbex"
        save_checkpoint(ckpt, tiny_model)
        rc = main(["expand", "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert rc == 5
        assert "preservation check failed: " in capsys.readouterr().err
        assert not (tmp_path / "o" / "expanded.bbex").exists()

    def test_gradcheck_command(self, capsys):
        rc = main(["gradcheck", "--blocks", "1", "--dim", "8", "--heads", "2",
                   "--probes", "16"])
        assert rc == 0
        assert "max rel err" in capsys.readouterr().out

    def test_summary_echoes_the_resolved_config(self, tmp_path, capsys):
        data = synth(tmp_path)
        cfg = cfg_file(tmp_path, SMALL_CFG)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "s1"), "--seed", "4",
                     "--corpus-set", str(data / "corpus_set.json"), "--steps", "3"]) == 0
        assert main(["finetune", "--config", cfg, "--out", str(tmp_path / "ft"),
                     "--checkpoint", str(tmp_path / "s1" / "checkpoint.bbex"),
                     "--target", str(data / "syn01.jsonl"), "--steps", "2", "--expand"]) == 0
        capsys.readouterr()
        model = EncoderConfig(**SMALL_CFG["model"]).to_dict()
        adamw = AdamWConfig(**SMALL_CFG["adamw"])
        want = {"s1": TrainConfig(**SMALL_CFG["train"], adamw=adamw, seed=4, n_steps=3),
                "ft": TrainConfig(**SMALL_CFG["train"], adamw=adamw, stage="single_corpus",
                                  n_steps=2, expansion=ExpansionSpec())}
        for run, tcfg in want.items():
            summary = json.loads((tmp_path / run / "summary.json").read_text())
            assert summary["config"] == {"model": model, "train": dataclasses.asdict(tcfg)}

    def test_finetune_model_section_must_match_the_checkpoint(self, tmp_path, tiny_model,
                                                               capsys):
        ckpt = tmp_path / "m.bbex"
        save_checkpoint(ckpt, tiny_model)
        other = {**tiny_model.config.to_dict(), "n_blocks": 3}
        rc = main(["finetune", "--config", cfg_file(tmp_path, {"model": other}),
                   "--checkpoint", str(ckpt), "--target", str(tmp_path / "none.jsonl"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "model section" in capsys.readouterr().err

    def test_variant_of_flags_that_follow_no_policy(self, tiny_model):
        expanded = expand(tiny_model, ExpansionSpec(2, "freeze-original"))
        assert _variant_name(expanded) == "expanded-x2-freeze-original"
        expanded.store.set_frozen("head.weight", True)
        assert expanded.expansion["freeze_policy"] is None
        assert _variant_name(expanded) == "expanded-x2"


class TestDeterminism:
    def test_train_rerun_byte_identical(self, tmp_path):
        data = synth(tmp_path)
        cfg = cfg_file(tmp_path, SMALL_CFG)
        argv = ["train", "--config", cfg, "--corpus-set",
                str(data / "corpus_set.json"), "--steps", "8", "--seed", "7"]
        assert main(argv + ["--out", str(tmp_path / "r1")]) == 0
        assert main(argv + ["--out", str(tmp_path / "r2")]) == 0
        for name in ("checkpoint.bbex", "loss.csv", "val.csv", "summary.json"):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, name

    def test_head_only_finetune_rerun_byte_identical(self, tmp_path):
        data = synth(tmp_path)
        cfg = cfg_file(tmp_path, SMALL_CFG)
        assert main(["train", "--config", cfg, "--corpus-set", str(data / "corpus_set.json"),
                     "--steps", "4", "--out", str(tmp_path / "s1")]) == 0
        argv = ["finetune", "--config", cfg, "--target", str(data / "syn01.jsonl"),
                "--checkpoint", str(tmp_path / "s1" / "checkpoint.bbex"), "--expand",
                "--freeze-policy", "head-only", "--steps", "12", "--seed", "3"]
        assert main(argv + ["--out", str(tmp_path / "f1")]) == 0
        assert main(argv + ["--out", str(tmp_path / "f2")]) == 0
        for name in ("checkpoint.bbex", "loss.csv", "val.csv", "summary.json"):
            a = (tmp_path / "f1" / name).read_bytes()
            b = (tmp_path / "f2" / name).read_bytes()
            assert a == b, name

    def test_synth_rerun_byte_identical(self, tmp_path):
        d1 = synth(tmp_path, out="d1")
        d2 = synth(tmp_path, out="d2")
        assert (d1 / "syn00.jsonl").read_bytes() == (d2 / "syn00.jsonl").read_bytes()
        assert (d1 / "durations.csv").read_bytes() == (d2 / "durations.csv").read_bytes()


def eval_payload(corpus="a", variant="x", uar=0.5, split="test"):
    """An eval.json payload whose one-class confusion matrix has recall
    ``uar``, a multiple of 1/4."""
    hits = round(4 * uar)
    confusion = [[hits, 4 - hits, 0, 0, 0, 0]] + [[0] * 6 for _ in range(5)]
    return {"corpus": corpus, "split": split, "variant": variant, "uar": uar,
            "n_samples": 4, "confusion": confusion, "label_space": "six-class"}


# names, splits, UARs and confusion matrices as eval.json files spell them,
# and anything else JSON can, control characters and lone surrogates included
REPORT_VALUES = st.one_of(
    st.sampled_from(["a", "b", "x", "y", "", "val", "test"]), st.floats(-0.5, 1.5),
    st.sampled_from([0, 0.25, 0.5, 1]), JSON_VALUES,
    st.text(st.characters(categories=["Cc"]) | st.characters(categories=["Cs"])
            | st.sampled_from("aé "), max_size=3),
    st.lists(st.lists(st.integers(-1, 3) | st.sampled_from([2**63, 1.0, True]),
                      min_size=5, max_size=7), min_size=5, max_size=7))
REPORT_KEYS = ("corpus", "split", "variant", "uar", "confusion")

# printable table names, biased towards what CSV must quote
REPORT_NAMES = st.text(st.sampled_from(',"\' ') | st.characters(exclude_categories=["C", "Z"]),
                       max_size=6)


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--bogus"])
        assert exc.value.code == 2

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_corpus_set(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "o"),
                   "--corpus-set", str(tmp_path / "missing.json")])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, code, message", [
        (["--frame-rate", "1e308"], 2, "frame_rate"),  # frame counts past a u32
        (["--noise-std", "1e308"], 3, "non-finite"),  # the noise overflows float64
        (["--noise-std", "1e39"], 3, "non-finite"),  # the frames overflow float32
    ])
    def test_synth_values_past_the_feat_format(self, tmp_path, capsys, flags, code, message):
        rc = main(["synth-data", "--out", str(tmp_path / "d"), "--corpora", "1",
                   "--speakers", "3", "--samples-per-speaker", "1", "--dim", "2"] + flags)
        assert rc == code
        assert message in capsys.readouterr().err

    def test_missing_checkpoint(self, tmp_path, capsys):
        data = synth(tmp_path)
        rc = main(["eval", "--checkpoint", str(tmp_path / "none.bbex"),
                   "--out", str(tmp_path / "o"),
                   "--corpus", str(data / "syn00.jsonl")])
        assert rc == 3
        capsys.readouterr()

    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{oops", encoding="utf-8")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "o"),
                   "--corpus-set", str(tmp_path / "missing.json")])
        assert rc == 2
        capsys.readouterr()

    def test_invalid_model_config_value(self, tmp_path, capsys):
        data = synth(tmp_path, corpora=1)
        rc = main(["train", "--out", str(tmp_path / "o"),
                   "--corpus-set", str(data / "corpus_set.json"),
                   "--set", "model.d_model=7", "--set", "model.n_heads=2",
                   "--steps", "2"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("setting", [
        "model.n_blocks=null", "train.batch_size=null", "adamw.learning_rate=null",
        "model.conv_layers=5", "model.conv_layers=[[8,3]]", "train=5",
        "model.n_blocks=2.7", "train.batch_size=true", "train.frame_cap=-3",
        "adamw.learning_rate=NaN", "adamw.learning_rate=Infinity", "adamw.epsilon=NaN",
        "adamw.weight_decay=Infinity",
    ])
    def test_bad_config_value_names_the_key(self, tmp_path, capsys, setting):
        data = synth(tmp_path, corpora=1)
        rc = main(["train", "--out", str(tmp_path / "o"),
                   "--corpus-set", str(data / "corpus_set.json"),
                   "--set", setting, "--steps", "2"])
        assert rc == 2
        key = setting.split("=")[0].split(".")[-1]
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["train.seed=5", "adamw.learing_rate=0.5",
                                         "model.extra=1", "tarin.batch_size=4"])
    def test_config_key_the_run_does_not_use_is_config_error(self, tmp_path, capsys,
                                                             setting):
        data = synth(tmp_path, corpora=1)
        rc = main(["train", "--out", str(tmp_path / "o"),
                   "--corpus-set", str(data / "corpus_set.json"),
                   "--set", setting, "--steps", "2"])
        assert rc == 2
        key = setting.split("=")[0].split(".")
        assert repr(key[0] if key[0] == "tarin" else key[1]) in capsys.readouterr().err

    def test_duplicate_corpus_id_is_config_error_before_any_write(self, tmp_path, capsys):
        data = synth(tmp_path)
        (data / "set.json").write_text(json.dumps([
            {"corpus_id": "x", "manifest_path": "syn00.jsonl"},
            {"corpus_id": "x", "manifest_path": "syn01.jsonl"}]), encoding="utf-8")
        rc = main(["train", "--config", cfg_file(tmp_path, SMALL_CFG), "--corpus-set",
                   str(data / "set.json"), "--steps", "2", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "corpus id 'x'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_mapping_table_error_names_its_file_and_line(self, tmp_path, capsys):
        data = synth(tmp_path)
        (data / "map.csv").write_text("# overrides\nsaudade,low\n", encoding="utf-8")
        (data / "set.json").write_text(json.dumps([
            {"corpus_id": "a", "manifest_path": "syn00.jsonl",
             "mapping_overrides_path": "map.csv"}]), encoding="utf-8")
        rc = main(["train", "--corpus-set", str(data / "set.json"), "--steps", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"error: {data / 'map.csv'}:2: expected 'raw,arousal,valence', got 'saudade,low'\n")

    def test_unmapped_label_error_names_the_manifest(self, tmp_path, capsys):
        data = synth(tmp_path, corpora=1)
        manifest = data / "syn00.jsonl"
        manifest.write_text(manifest.read_text().replace('"calm"', '"saudade"'),
                            encoding="utf-8")
        rc = main(["train", "--corpus-set", str(data / "corpus_set.json"), "--steps", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {manifest}: unmapped labels: 'saudade'\n"

    def test_no_corpora_is_config_error_before_any_write(self, tmp_path, capsys):
        for count in ("0", "-2"):
            rc = main(["synth-data", "--out", str(tmp_path / "o"), "--corpora", count])
            assert rc == 2
            assert "--corpora" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--checkpoint", "m.bbex", "--corpus", "c.jsonl", "--out", "o",
         "--seed", "1"],
        ["synth-data", "--out", "o", "--set", "synth.d=4"],
        ["report", "--out", "o", "--config", "cfg.json", "e.json"],
        ["expand", "--checkpoint", "m.bbex", "--out", "o", "--set", "x=1"],
        ["gradcheck", "--config", "cfg.json"],
    ])
    def test_flags_a_command_does_not_read_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_ragged_report_inputs(self, tmp_path, capsys):
        e1 = tmp_path / "a.json"
        e2 = tmp_path / "b.json"
        e1.write_text(json.dumps(eval_payload("a", "x")))
        e2.write_text(json.dumps(eval_payload("b", "y")))
        rc = main(["report", "--out", str(tmp_path / "rep"), str(e1), str(e2)])
        assert rc == 3
        capsys.readouterr()

    @pytest.mark.parametrize("flag", [["--multiplier", "3"],
                                      ["--freeze-policy", "head-only"]])
    def test_expansion_flags_need_expand(self, tmp_path, capsys, flag):
        # without --expand these flags would be silently ignored
        rc = main(["finetune", "--out", str(tmp_path / "o"),
                   "--checkpoint", str(tmp_path / "none.bbex"),
                   "--target", str(tmp_path / "none.jsonl")] + flag)
        assert rc == 2
        assert "--expand" in capsys.readouterr().err

    def test_non_utf8_parameter_name_is_data_error(self, tmp_path, tiny_model, capsys):
        from test_serialization import header_span

        ckpt = tmp_path / "m.bbex"
        save_checkpoint(ckpt, tiny_model)
        data = bytearray(ckpt.read_bytes())
        _, start = header_span(bytes(data))
        data[start + 2] = 0xFF  # first byte of the first parameter name
        ckpt.write_bytes(bytes(data))
        rc = main(["expand", "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "UTF-8" in capsys.readouterr().err

    def test_block_id_with_a_dot_is_data_error(self, tmp_path, capsys):
        from test_serialization import rename_block

        data = synth(tmp_path, corpora=1)
        ckpt = tmp_path / "m.bbex"
        model = EncoderModel.build(EncoderConfig(**SMALL_CFG["model"]), seed=3)
        save_checkpoint(ckpt, rename_block(model, "0", "0.x"))
        rc = main(["eval", "--checkpoint", str(ckpt), "--corpus", str(data / "syn00.jsonl"),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "0.x" in capsys.readouterr().err

    def test_frame_cap_below_the_conv_receptive_field_is_config_error(self, tmp_path,
                                                                       capsys):
        # two [8, 3, 2] layers see 7 frames
        data = synth(tmp_path, corpora=1)
        cfg = {**SMALL_CFG, "model": {**SMALL_CFG["model"], "frontend": "conv",
                                      "conv_in_dim": 8, "conv_layers": [[8, 3, 2], [8, 3, 2]]}}
        rc = main(["train", "--config", cfg_file(tmp_path, cfg), "--steps", "2",
                   "--corpus-set", str(data / "corpus_set.json"),
                   "--set", "train.frame_cap=3", "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "frame_cap 3" in err and "receptive field of 7" in err

    def test_invalid_header_config_is_data_error(self, tmp_path, tiny_model, capsys):
        from test_serialization import rewrite_header

        ckpt = tmp_path / "m.bbex"
        save_checkpoint(ckpt, tiny_model)
        rewrite_header(ckpt, lambda h: h["config"].update(n_heads=3))  # d_model 16
        rc = main(["expand", "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "n_heads 3" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", REPORT_KEYS)
    def test_report_input_missing_key(self, tmp_path, capsys, missing):
        payload = eval_payload()
        del payload[missing]
        path = tmp_path / "eval.json"
        path.write_text(json.dumps(payload))
        rc = main(["report", "--out", str(tmp_path / "rep"), str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(missing) in err

    @pytest.mark.parametrize("key, value", [
        ("uar", "high"), ("uar", None), ("uar", True), ("uar", 1.5), ("uar", -0.1),
        ("corpus", ["a"]), ("corpus", 3), ("variant", {"x": 1}), ("variant", "\ud800"),
        ("corpus", "a\nb"), ("split", "dev"), ("split", None), ("split", ["test"]),
        ("confusion", [[1]]), ("confusion", "[[1]]"), ("confusion", [[0] * 6] * 6),
        ("confusion", [[1, -1, 0, 0, 0, 0]] + [[0] * 6] * 5),
        ("confusion", [[1.0, 0, 0, 0, 0, 0]] + [[0] * 6] * 5),
        ("confusion", [[True, 0, 0, 0, 0, 0]] + [[0] * 6] * 5),
        ("confusion", [[2**63, 0, 0, 0, 0, 0]] + [[0] * 6] * 5),
        ("confusion", [[1, 0, 0, 0, 0, 0]] * 5 + [[0] * 5]),
        ("uar", 0.75),  # the confusion matrix gives 0.5
    ])
    def test_report_input_wrong_type(self, tmp_path, capsys, key, value):
        path = tmp_path / "eval.json"
        path.write_text(json.dumps({**eval_payload(), key: value}))
        rc = main(["report", "--out", str(tmp_path / "rep"), str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(key) in err

    @pytest.mark.parametrize("text", [b'{"corpus": "\xff"}', b"[" * 100_000 + b"]" * 100_000],
                             ids=["not UTF-8", "nested too deep"])
    @pytest.mark.parametrize("command", ["report", "config"])
    def test_unreadable_json_input_is_config_error(self, tmp_path, capsys, text, command):
        path = tmp_path / "in.json"
        path.write_bytes(text)
        out = str(tmp_path / "o")
        argv = (["report", "--out", out, str(path)] if command == "report" else
                ["train", "--config", str(path), "--corpus-set", "none.json", "--out", out])
        assert main(argv) == 2
        assert str(path) in capsys.readouterr().err

    def test_report_csv_quotes_a_name_with_a_comma(self, tmp_path):
        path = tmp_path / "eval.json"
        path.write_text(json.dumps(eval_payload("c", "a,b")))
        assert main(["report", "--out", str(tmp_path / "rep"), str(path)]) == 0
        text = (tmp_path / "rep" / "report.csv").read_text(encoding="utf-8")
        assert list(csv.reader(io.StringIO(text))) == [
            ["corpus", "a,b"], ["c", "50.0*"], ["AVERAGE", "50.0*"]]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(names=st.lists(REPORT_NAMES, min_size=1, max_size=3, unique=True),
           other=REPORT_NAMES, by_variant=st.booleans())
    def test_report_csv_reads_back_any_printable_names(self, tmp_path_factory, names, other,
                                                       by_variant):
        # one to three eval files: one corpus under several variants, or one
        # variant over several corpora, so that the rows always agree
        tmp_path = tmp_path_factory.getbasetemp() / "report-names"
        tmp_path.mkdir(exist_ok=True)
        paths = []
        for i, name in enumerate(names):
            corpus, variant = (other, name) if by_variant else (name, other)
            paths.append(tmp_path / f"eval{i}.json")
            paths[-1].write_text(json.dumps(eval_payload(corpus, variant, i / 4)),
                                 encoding="utf-8")
        assert main(["report", "--out", str(tmp_path / "rep")] + [str(p) for p in paths]) == 0
        text = (tmp_path / "rep" / "report.csv").read_text(encoding="utf-8")
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        variants, corpora = (names, [other]) if by_variant else ([other], names)
        assert header == ["corpus"] + variants
        assert [row[0] for row in rows] == corpora + ["AVERAGE"]
        assert all(len(row) == len(header) for row in rows)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(payloads=st.lists(st.one_of(
        st.fixed_dictionaries({key: REPORT_VALUES for key in REPORT_KEYS}),
        st.builds(lambda key, value, uar: {**eval_payload(uar=uar), key: value},
                  st.sampled_from(REPORT_KEYS), REPORT_VALUES, st.sampled_from([0, 0.5, 1])),
        JSON_VALUES), min_size=1, max_size=3))
    def test_arbitrary_eval_json_only_ends_in_exit_codes(self, tmp_path_factory, payloads):
        tmp_path = tmp_path_factory.getbasetemp() / "report-fuzz"
        tmp_path.mkdir(exist_ok=True)
        paths = []
        for i, payload in enumerate(payloads):
            paths.append(tmp_path / f"eval{i}.json")
            paths[-1].write_text(json.dumps(payload), encoding="utf-8")
        rc = main(["report", "--out", str(tmp_path / "rep")] + [str(p) for p in paths])
        assert rc in (0, 2, 3)


class TestReport:
    """``report`` keys eval results on (corpus, split, variant) and reads
    each UAR from its confusion matrix."""

    def write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_a_repeated_key_names_both_files_in_either_order(self, tmp_path, capsys):
        # a doctored copy with another UAR used to win silently, whichever came last
        a = self.write(tmp_path, "a.json", eval_payload(uar=0.75))
        b = self.write(tmp_path, "b.json", eval_payload(uar=0.25))
        for first, second in ((a, b), (b, a)):
            assert main(["report", "--out", str(tmp_path / "rep"), first, second]) == 2
            err = capsys.readouterr().err
            assert f"{first} and {second}" in err and "'x'" in err
        assert not (tmp_path / "rep").exists()

    def test_the_uar_is_the_confusion_matrix_s(self, tmp_path, capsys):
        doctored = {**eval_payload(uar=0.5), "uar": 0.1}
        path = self.write(tmp_path, "e.json", doctored)
        assert main(["report", "--out", str(tmp_path / "rep"), path]) == 2
        assert "is not the UAR of its confusion matrix, 0.5" in capsys.readouterr().err

    def test_several_splits_show_the_split(self, tmp_path, capsys):
        paths = [self.write(tmp_path, f"{split}-{variant}.json",
                            eval_payload("syn", variant, uar, split))
                 for split, variant, uar in (("val", "base", 0.5), ("val", "grown", 1.0),
                                             ("test", "base", 0.25), ("test", "grown", 0.75))]
        assert main(["report", "--out", str(tmp_path / "rep")] + paths) == 0
        assert capsys.readouterr().out == (
            "                base   grown\n"
            "syn (val)       50.0  100.0*\n"
            "syn (test)      25.0   75.0*\n"
            "AVERAGE         37.5   87.5*\n")
        assert main(["report", "--out", str(tmp_path / "one"), paths[0], paths[1]]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("syn ")
        assert "(val)" not in (tmp_path / "one" / "report.txt").read_text()

    def test_a_pipeline_eval_reads_back(self, tmp_path, tiny_model, make_corpus):
        # what eval writes, report reads: the stored UAR is the matrix's
        manifest = make_corpus("c0", d=16)
        ckpt = tmp_path / "m.bbex"
        save_checkpoint(ckpt, tiny_model)
        for split in ("val", "test"):
            assert main(["eval", "--checkpoint", str(ckpt), "--corpus",
                         str(tmp_path / "c0" / "c0.jsonl"), "--split", split,
                         "--out", str(tmp_path / split)]) == 0
        assert main(["report", "--out", str(tmp_path / "rep"),
                     str(tmp_path / "val" / "eval.json"),
                     str(tmp_path / "test" / "eval.json")]) == 0
        rows = (tmp_path / "rep" / "report.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows] == ["corpus", "c0 (val)", "c0 (test)", "AVERAGE"]


# prints the BLAS thread count the environment holds when numpy is first
# imported, in a fresh interpreter that imports the CLI
BLAS_PROBE = """
import os, sys
sys.path.insert(0, {src!r})

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_NUM_THREADS"),
                  os.environ.get("OMP_NUM_THREADS"), os.environ.get("MKL_NUM_THREADS"))
            sys.meta_path.remove(self)

sys.meta_path.insert(0, Probe())
import bbekit.cli
"""


@pytest.mark.parametrize("given, seen", [({}, "1 1 1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3 1 1")],
                         ids=["unset", "set by the user"])
def test_cli_pins_blas_threads_before_numpy_loads(given, seen):
    # one thread unless the user chose a count
    src = str(Path(load_checkpoint.__code__.co_filename).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    result = subprocess.run([sys.executable, "-c", BLAS_PROBE.format(src=src)],
                            env={**env, **given}, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == seen


def corruptions(data: bytes, seed: int, n_flips: int = 12) -> list[bytes]:
    """Deterministic damaged copies of a file: truncations, single-byte
    overwrites and inserted junk (NUL, 0xFF, a lone CR, a comma)."""
    rng = np.random.default_rng(seed)
    n = len(data)
    out = [data[:cut] for cut in sorted({0, 1, n // 3, n // 2, n - 1})]
    for at in rng.integers(0, n, n_flips):
        for value in (0x00, 0xFF):
            out.append(data[:at] + bytes([value]) + data[at + 1:])
    at = int(rng.integers(0, n))
    out.append(data[:at] + b"\x00\xff\r,\xe9" + data[at:])
    return [c for c in out if c != data]


class TestCorruptInputsExitCodes:
    """Every subcommand that reads a damaged manifest, mapping table, FEAT or
    BBEX file ends with a documented exit code, never a traceback."""

    CODES = {0, 2, 3, 4, 5}

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("corrupt-cli")
        data = synth(tmp_path)
        (data / "map.csv").write_text("# overrides\nSadness,low,negative\ncalm,low,positive\n",
                                      encoding="utf-8")
        entries = json.loads((data / "corpus_set.json").read_text())
        entries[1]["mapping_overrides_path"] = "map.csv"
        (data / "corpus_set.json").write_text(json.dumps(entries), encoding="utf-8")
        cfg = cfg_file(tmp_path, SMALL_CFG)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "s1"),
                     "--corpus-set", str(data / "corpus_set.json"), "--steps", "2"]) == 0
        return tmp_path, data, cfg

    def sweep(self, path, commands, seed, capsys):
        original = path.read_bytes()
        codes = set()
        try:
            for i, damaged in enumerate(corruptions(original, seed)):
                path.write_bytes(damaged)
                for argv in commands(i):
                    codes.add(main(argv))
                    capsys.readouterr()
        finally:
            path.write_bytes(original)
        assert codes <= self.CODES
        return codes

    def test_manifest(self, run, capsys):
        tmp_path, data, cfg = run
        ckpt = str(tmp_path / "s1" / "checkpoint.bbex")
        codes = self.sweep(data / "syn01.jsonl", lambda i: [
            ["eval", "--checkpoint", ckpt, "--corpus", str(data / "syn01.jsonl"),
             "--out", str(tmp_path / f"ev-m{i}")],
            ["finetune", "--config", cfg, "--checkpoint", ckpt, "--steps", "2",
             "--target", str(data / "syn01.jsonl"), "--out", str(tmp_path / f"ft-m{i}")],
        ], seed=1, capsys=capsys)
        assert 3 in codes

    def test_mapping_table(self, run, capsys):
        tmp_path, data, cfg = run
        codes = self.sweep(data / "map.csv", lambda i: [
            ["train", "--config", cfg, "--corpus-set", str(data / "corpus_set.json"),
             "--steps", "2", "--out", str(tmp_path / f"tr-t{i}")],
        ], seed=2, capsys=capsys)
        assert 3 in codes

    def test_feature_file(self, run, capsys):
        tmp_path, data, _ = run
        ckpt = str(tmp_path / "s1" / "checkpoint.bbex")
        codes = self.sweep(data / "features" / "syn01-spk000-c0-r000.feat", lambda i: [
            ["eval", "--checkpoint", ckpt, "--corpus", str(data / "syn01.jsonl"),
             "--out", str(tmp_path / f"ev-f{i}")],
        ], seed=3, capsys=capsys)
        assert 3 in codes

    def test_checkpoint(self, run, capsys):
        tmp_path, data, _ = run
        ckpt = tmp_path / "s1" / "checkpoint.bbex"
        codes = self.sweep(ckpt, lambda i: [
            ["eval", "--checkpoint", str(ckpt), "--corpus", str(data / "syn01.jsonl"),
             "--out", str(tmp_path / f"ev-c{i}")],
            ["expand", "--checkpoint", str(ckpt), "--out", str(tmp_path / f"ex-c{i}")],
        ], seed=4, capsys=capsys)
        assert 3 in codes


def _int_flags() -> list[tuple[str, str]]:
    """(subcommand, flag) for every integer-valued option of the parser."""
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0]) for name, sub in subs.choices.items()
            for action in sub._actions if action.type is int]


class TestIntegerFlags:
    """Every integer flag at -1 and 0 ends in exit 0 or a documented exit
    code, never in a traceback; a seed is any integer."""

    @pytest.fixture(scope="class")
    def base_argv(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("int-flags")
        data = synth(tmp_path)
        cfg = cfg_file(tmp_path, SMALL_CFG)
        ckpt = str(tmp_path / "s1" / "checkpoint.bbex")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "s1"),
                     "--corpus-set", str(data / "corpus_set.json"), "--steps", "2"]) == 0
        return tmp_path, {
            "synth-data": ["synth-data", "--corpora", "1", "--speakers", "3",
                           "--samples-per-speaker", "1", "--dim", "4", "--frame-rate", "2.0"],
            "train": ["train", "--config", cfg, "--corpus-set", str(data / "corpus_set.json"),
                      "--steps", "2"],
            "expand": ["expand", "--checkpoint", ckpt],
            "finetune": ["finetune", "--config", cfg, "--checkpoint", ckpt, "--expand",
                         "--target", str(data / "syn01.jsonl"), "--steps", "2"],
            "gradcheck": ["gradcheck", "--blocks", "1", "--dim", "4", "--heads", "2",
                          "--probes", "3"],
        }

    def test_every_command_with_an_integer_flag_is_swept(self, base_argv):
        assert {cmd for cmd, _ in _int_flags()} == set(base_argv[1])

    @pytest.mark.parametrize("value", ["-1", "0"])
    @pytest.mark.parametrize("command,flag", _int_flags())
    def test_flag_ends_in_a_documented_exit_code(self, base_argv, capsys, command, flag,
                                                 value):
        tmp_path, argvs = base_argv
        argv = list(argvs[command])
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
        if command != "gradcheck":
            argv += ["--out", str(tmp_path / f"{command}{flag}{value}")]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error, for a value outside its choices
            code = exc.code
        capsys.readouterr()
        assert code in {0, 2, 3, 4, 5}
        if flag == "--seed" or flag.endswith("-seed"):
            assert code == 0


SRC = Path(__file__).resolve().parents[1] / "src" / "bbekit"
DEEP = b"[" * 100_000 + b"]" * 100_000
PATH_CASES = ["missing", "directory", "NUL byte"]
JSON_CASES = ["nested too deep", "wrong top-level type"]
# the exit code of each reader of outside input, reached through main
JSON_READERS = {"config": 2, "corpus set": 3, "manifest": 3, "checkpoint": 3, "eval result": 2}
PATH_READERS = {**JSON_READERS, "mapping table": 3}
# a top-level value each JSON reader rejects (the checkpoint's is its header)
WRONG_TYPE = {"config": b"[1]", "corpus set": b"{}", "manifest": b"[1]\n",
              "checkpoint": b"[1]", "eval result": b"[1]"}
COMMANDS = ["synth-data", "train", "finetune", "expand", "eval", "report"]


def reads_of_outside_input(tree):
    """(line, name) of each call that parses JSON or opens a file for reading."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
            node.func, "id", None)
        if name in ("loads", "load", "read_bytes", "read_text"):
            yield node.lineno, name
        elif name == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            if not (modes and isinstance(modes[0], ast.Constant)
                    and set(modes[0].value) & set("wax")):
                yield node.lineno, name


def test_only_errors_reads_outside_input():
    """errors.open_input and errors.parse_json are the one reader of outside
    input; cli._sha256 alone hashes the checkpoint its command just wrote."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "cli.py":
            sha = next(n for n in ast.walk(tree)
                       if isinstance(n, ast.FunctionDef) and n.name == "_sha256")
            allowed = set(range(sha.lineno, sha.end_lineno + 1))
        found += [f"{path.name}:{line} {name}" for line, name in reads_of_outside_input(tree)
                  if line not in allowed]
    assert found == []


def test_every_error_class_is_raised():
    """Each class in errors.py is raised somewhere in the package, or is the
    base of one that is."""
    import bbekit.errors as errors

    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", None))
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and c.__module__ == errors.__name__]
    unused = [c.__name__ for c in classes
              if not any(issubclass(r, c) for r in classes if r.__name__ in raised)]
    assert unused == []


class TestOutsideInput:
    """Every reader of outside input, given a missing path, a directory, a
    path holding a NUL byte and, where it reads JSON, JSON nested 100,000
    deep or of the wrong top-level type, ends in its documented exit code;
    a run that fails writes no --out, and an --out that cannot be a
    directory exits 2."""

    @pytest.fixture(scope="class")
    def good(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("outside-input")
        data = synth(tmp_path)
        cfg = cfg_file(tmp_path, SMALL_CFG)
        ckpt = str(tmp_path / "s1" / "checkpoint.bbex")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "s1"),
                     "--corpus-set", str(data / "corpus_set.json"), "--steps", "2"]) == 0
        assert main(["eval", "--checkpoint", ckpt, "--corpus", str(data / "syn01.jsonl"),
                     "--out", str(tmp_path / "ev")]) == 0
        return tmp_path

    def command_argv(self, good, command) -> list[str]:
        """A run of ``command`` that succeeds, without --out."""
        data, cfg = good / "data", str(good / "cfg.json")
        ckpt = str(good / "s1" / "checkpoint.bbex")
        return {
            "synth-data": ["synth-data", "--corpora", "1", "--speakers", "3",
                           "--samples-per-speaker", "1", "--dim", "4", "--frame-rate", "2.0"],
            "train": ["train", "--config", cfg, "--corpus-set", str(data / "corpus_set.json"),
                      "--steps", "2"],
            "finetune": ["finetune", "--config", cfg, "--checkpoint", ckpt,
                         "--target", str(data / "syn01.jsonl"), "--steps", "2"],
            "expand": ["expand", "--checkpoint", ckpt],
            "eval": ["eval", "--checkpoint", ckpt, "--corpus", str(data / "syn01.jsonl")],
            "report": ["report", str(good / "ev" / "eval.json")],
        }[command]

    def bad_input(self, tmp_path, good, reader, case) -> str:
        path = tmp_path / "input"
        if case == "directory":
            path.mkdir()
        elif case == "NUL byte":
            path = tmp_path / "in\0put"
        elif case in JSON_CASES:
            blob = DEEP if case == "nested too deep" else WRONG_TYPE[reader]
            if reader == "checkpoint":
                from test_serialization import header_span

                data = (good / "s1" / "checkpoint.bbex").read_bytes()
                _, start = header_span(data)
                blob = data[:8] + struct.pack("<I", len(blob)) + blob + data[start:]
            path.write_bytes(blob)
        return str(path)

    def reader_argv(self, tmp_path, good, reader, bad) -> list[str]:
        data, cfg = good / "data", str(good / "cfg.json")
        corpus_set = str(data / "corpus_set.json")
        if reader == "mapping table":
            corpus_set = str(tmp_path / "set.json")
            Path(corpus_set).write_text(json.dumps([{
                "corpus_id": "syn00", "manifest_path": str(data / "syn00.jsonl"),
                "mapping_overrides_path": bad}]), encoding="utf-8")
        argv = {
            "config": ["train", "--config", bad, "--corpus-set", corpus_set],
            "corpus set": ["train", "--config", cfg, "--corpus-set", bad],
            "mapping table": ["train", "--config", cfg, "--corpus-set", corpus_set],
            "manifest": ["eval", "--checkpoint", str(good / "s1" / "checkpoint.bbex"),
                         "--corpus", bad],
            "checkpoint": ["expand", "--checkpoint", bad],
            "eval result": ["report", bad],
        }[reader]
        return argv + (["--steps", "2"] if argv[0] == "train" else [])

    @pytest.mark.parametrize("reader, case", [(r, c) for r in PATH_READERS for c in PATH_CASES]
                             + [(r, c) for r in JSON_READERS for c in JSON_CASES])
    def test_reader_ends_in_its_exit_code(self, good, tmp_path, capsys, reader, case):
        bad = self.bad_input(tmp_path, good, reader, case)
        out = tmp_path / "out"
        assert main(self.reader_argv(tmp_path, good, reader, bad) + ["--out", str(out)]) \
            == PATH_READERS[reader]
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_set_value_nested_too_deep_is_the_raw_string(self, good, tmp_path, capsys):
        out = tmp_path / "out"
        argv = self.command_argv(good, "train") + [
            "--set", "train.batch_size=" + "[" * 100_000, "--out", str(out)]
        assert main(argv) == 2
        assert "batch_size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("under", [False, True], ids=["an existing file", "under a file"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_out_that_cannot_be_a_directory_is_config_error(self, good, tmp_path, capsys,
                                                           command, under):
        blocker = tmp_path / "file"
        blocker.write_text("kept", encoding="utf-8")
        out = blocker / "out" if under else blocker
        assert main(self.command_argv(good, command) + ["--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err
        assert blocker.read_text(encoding="utf-8") == "kept"

    @pytest.mark.parametrize("command, flags, code", [
        ("synth-data", ["--corpora", "2", "--target-shift", "nan"], 2),
        ("train", ["--steps", "1000000000000"], 2),
        ("finetune", ["--set", "train.seed=5"], 2),
        ("expand", ["--checkpoint", "cfg.json"], 3),
        ("eval", ["--corpus", "cfg.json"], 3),
        ("report", ["cfg.json"], 2),
    ])
    def test_failing_run_writes_no_out(self, good, tmp_path, capsys, command, flags, code):
        out = tmp_path / "out"
        flags = [str(good / f) if f == "cfg.json" else f for f in flags]
        assert main(self.command_argv(good, command) + flags + ["--out", str(out)]) == code
        capsys.readouterr()
        assert not out.exists()

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
    def test_json_inputs_read_as_json_loads_reads_bytes(self, tmp_path, encoding):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"batch_size": 4}}), encoding=encoding)
        assert load_config(str(path), []) == {"train": {"batch_size": 4}}

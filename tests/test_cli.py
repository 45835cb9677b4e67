"""End-to-end command-line pipeline driven in-process through main()."""

import hashlib
import json

import numpy as np
import pytest

from bbekit.checkpoint import load_checkpoint, save_checkpoint
from bbekit.cli import load_config, main, train_config_from
from bbekit.errors import ConfigError
from bbekit.model import ConvLayerSpec, EncoderConfig, EncoderModel
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
        tcfg = train_config_from({"train": {"unknown": 1}, "adamw": {"unknown": 2}},
                                 "multi_corpus", 0)
        assert tcfg == TrainConfig(seed=0, stage="multi_corpus")

    def test_bad_value_is_config_error(self):
        with pytest.raises(ConfigError):
            train_config_from({"train": {"batch_size": "many"}}, "multi_corpus", 0)

    def test_null_frame_cap_means_no_cap(self):
        tcfg = train_config_from({"train": {"frame_cap": None}}, "multi_corpus", 0)
        assert tcfg.frame_cap is None

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

    def test_gradcheck_command(self, capsys):
        rc = main(["gradcheck", "--blocks", "1", "--dim", "8", "--heads", "2",
                   "--probes", "16"])
        assert rc == 0
        assert "max rel err" in capsys.readouterr().out


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

    def test_synth_rerun_byte_identical(self, tmp_path):
        d1 = synth(tmp_path, out="d1")
        d2 = synth(tmp_path, out="d2")
        assert (d1 / "syn00.jsonl").read_bytes() == (d2 / "syn00.jsonl").read_bytes()
        assert (d1 / "durations.csv").read_bytes() == (d2 / "durations.csv").read_bytes()


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
    ])
    def test_bad_config_value_names_the_key(self, tmp_path, capsys, setting):
        data = synth(tmp_path, corpora=1)
        rc = main(["train", "--out", str(tmp_path / "o"),
                   "--corpus-set", str(data / "corpus_set.json"),
                   "--set", setting, "--steps", "2"])
        assert rc == 2
        key = setting.split("=")[0].split(".")[-1]
        assert key in capsys.readouterr().err

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

    def test_truncated_expansion_record_is_data_error(self, tmp_path, tiny_model, capsys):
        from test_serialization import rewrite_header

        ckpt = tmp_path / "m.bbex"
        save_checkpoint(ckpt, tiny_model)
        rewrite_header(ckpt, lambda h: h.update(expansion={"multiplier": 2}))
        rc = main(["eval", "--checkpoint", str(ckpt), "--corpus", str(tmp_path / "c.jsonl"),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "expansion record" in capsys.readouterr().err

    def test_ragged_report_inputs(self, tmp_path, capsys):
        e1 = tmp_path / "a.json"
        e2 = tmp_path / "b.json"
        e1.write_text(json.dumps({"corpus": "a", "variant": "x", "uar": 0.5}))
        e2.write_text(json.dumps({"corpus": "b", "variant": "y", "uar": 0.5}))
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

    def test_invalid_header_config_is_data_error(self, tmp_path, tiny_model, capsys):
        from test_serialization import rewrite_header

        ckpt = tmp_path / "m.bbex"
        save_checkpoint(ckpt, tiny_model)
        rewrite_header(ckpt, lambda h: h["config"].update(n_heads=3))  # d_model 16
        rc = main(["expand", "--checkpoint", str(ckpt), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "n_heads 3" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["corpus", "variant", "uar"])
    def test_report_input_missing_key(self, tmp_path, capsys, missing):
        payload = {"corpus": "a", "variant": "x", "uar": 0.5}
        del payload[missing]
        path = tmp_path / "eval.json"
        path.write_text(json.dumps(payload))
        rc = main(["report", "--out", str(tmp_path / "rep"), str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and repr(missing) in err

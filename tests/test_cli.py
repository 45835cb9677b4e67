"""End-to-end command-line pipeline driven in-process through main()."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_corpus import JSON_VALUES

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


# names and UARs as eval.json files spell them, and anything else JSON can,
# control characters and lone surrogates included
REPORT_VALUES = st.one_of(
    st.sampled_from(["a", "b", "x", "y", ""]), st.floats(-0.5, 1.5), JSON_VALUES,
    st.text(st.characters(categories=["Cc"]) | st.characters(categories=["Cs"])
            | st.sampled_from("aé "), max_size=3))


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
        "model.n_blocks=2.7", "train.batch_size=true", "train.frame_cap=-3",
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

    @pytest.mark.parametrize("key, value", [
        ("uar", "high"), ("uar", None), ("uar", True), ("uar", 1.5), ("uar", -0.1),
        ("corpus", ["a"]), ("corpus", 3), ("variant", {"x": 1}), ("variant", "\ud800"),
        ("corpus", "a\nb"),
    ])
    def test_report_input_wrong_type(self, tmp_path, capsys, key, value):
        path = tmp_path / "eval.json"
        path.write_text(json.dumps({"corpus": "a", "variant": "x", "uar": 0.5, key: value}))
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

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(payloads=st.lists(st.one_of(
        st.fixed_dictionaries({key: REPORT_VALUES for key in ("corpus", "variant", "uar")}),
        st.builds(lambda key, value: {"corpus": "a", "variant": "x", "uar": 0.5, key: value},
                  st.sampled_from(["corpus", "variant", "uar"]), REPORT_VALUES),
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

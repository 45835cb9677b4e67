"""Manifest ingest, speaker splits, batch assembly, synthetic corpora."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbekit.corpus import (
    SYNTH_DURATION_S,
    SYNTH_LABELS,
    CorpusIterator,
    CorpusManifest,
    Sample,
    SyntheticSpec,
    corpus_shift_vector,
    generate_synthetic_corpus,
    load_corpus_set,
    load_manifest,
    make_splits,
    next_batch,
    pad_frames,
    round_robin_schedule,
    synthetic_class_means,
    validate_split_disjointness,
    write_manifest,
)
from bbekit.errors import (
    BbekitError,
    ConfigError,
    IngestError,
    InputError,
    SplitError,
    SplitViolationError,
    UnmappedLabelError,
)
from bbekit.featfile import MAX_FRAMES, read_features, write_features
from bbekit.rngutil import derive_seed


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


def write_rows(tmp_path, rows, name="m.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path


def feat(tmp_path, name, n_frames=4, dim=3, fill=1.0):
    path = tmp_path / name
    write_features(path, np.full((n_frames, dim), fill))
    return name


def row(feature, label="anger", speaker="s1", duration=1.0, split=None):
    r = {"feature": feature, "label": label, "speaker": speaker, "duration_s": duration}
    if split is not None:
        r["split"] = split
    return r


class TestManifestIO:
    def test_load_basic(self, tmp_path):
        f = feat(tmp_path, "a.feat")
        manifest = load_manifest(write_rows(tmp_path, [row(f), row(f, label="joy", speaker="s2")]))
        assert manifest.corpus_id == "m"  # file stem
        assert len(manifest.samples) == 2
        assert manifest.samples[0].mapped_class == 3
        assert manifest.samples[1].mapped_class == 5
        assert {s.speaker_id for s in manifest.samples} == {"s1", "s2"}

    def test_features_load_and_cache(self, tmp_path):
        f = feat(tmp_path, "a.feat", n_frames=2, dim=3, fill=2.5)
        manifest = load_manifest(write_rows(tmp_path, [row(f)]))
        frames = manifest.features(manifest.samples[0])
        assert np.array_equal(frames, np.full((2, 3), 2.5))
        assert manifest.features(manifest.samples[0]) is frames  # cached

    def test_roundtrip(self, tmp_path, make_corpus):
        manifest = make_corpus("c0")
        out = tmp_path / "c0" / "again.jsonl"
        write_manifest(out, manifest)
        again = load_manifest(out, corpus_id="c0")
        assert [s.raw_label for s in again.samples] == [s.raw_label for s in manifest.samples]
        assert [s.split for s in again.samples] == [s.split for s in manifest.samples]
        assert [s.speaker_id for s in again.samples] == [s.speaker_id for s in manifest.samples]
        assert [s.duration_s for s in again.samples] == [s.duration_s for s in manifest.samples]

    def test_relative_paths_in_written_manifest(self, tmp_path, make_corpus):
        make_corpus("c0")
        text = (tmp_path / "c0" / "c0.jsonl").read_text(encoding="utf-8")
        first = json.loads(text.splitlines()[0])
        assert first["feature"].startswith("features/")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(IngestError):
            load_manifest(tmp_path / "nope.jsonl")

    def test_missing_feature_file(self, tmp_path):
        path = write_rows(tmp_path, [row("ghost.feat")])
        with pytest.raises(IngestError) as exc:
            load_manifest(path)
        assert "ghost.feat" in str(exc.value)

    def test_bad_json_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"feature": "a.feat"\n', encoding="utf-8")
        with pytest.raises(IngestError):
            load_manifest(path)

    @pytest.mark.parametrize("missing", ["feature", "label", "speaker", "duration_s"])
    def test_missing_field(self, tmp_path, missing):
        f = feat(tmp_path, "a.feat")
        bad = row(f)
        del bad[missing]
        with pytest.raises(IngestError) as exc:
            load_manifest(write_rows(tmp_path, [bad]))
        assert missing in str(exc.value)

    def test_unknown_split_value(self, tmp_path):
        f = feat(tmp_path, "a.feat")
        with pytest.raises(IngestError):
            load_manifest(write_rows(tmp_path, [row(f, split="dev")]))

    def test_negative_duration(self, tmp_path):
        f = feat(tmp_path, "a.feat")
        with pytest.raises(IngestError):
            load_manifest(write_rows(tmp_path, [row(f, duration=-0.5)]))

    def test_partial_split_assignment(self, tmp_path):
        f = feat(tmp_path, "a.feat")
        rows = [row(f, split="train"), row(f, speaker="s2")]
        with pytest.raises(IngestError) as exc:
            load_manifest(write_rows(tmp_path, rows))
        assert "all or none" in str(exc.value)

    def test_unmapped_labels_reported_together(self, tmp_path):
        f = feat(tmp_path, "a.feat")
        rows = [row(f, label="zzz"), row(f, label="anger"), row(f, label="aaa")]
        with pytest.raises(UnmappedLabelError) as exc:
            load_manifest(write_rows(tmp_path, rows))
        assert exc.value.labels == ["aaa", "zzz"]

    def test_unmapped_labels_name_the_manifest(self, tmp_path):
        path = write_rows(tmp_path, [row(feat(tmp_path, "a.feat"), label="saudade")])
        with pytest.raises(UnmappedLabelError) as exc:
            load_manifest(path)
        assert str(exc.value) == f"{path}: unmapped labels: 'saudade'"

    def test_speaker_straddling_splits(self, tmp_path):
        f = feat(tmp_path, "a.feat")
        rows = [row(f, split="train"), row(f, split="test"), row(f, speaker="s2", split="val")]
        with pytest.raises(SplitViolationError) as exc:
            load_manifest(write_rows(tmp_path, rows))
        assert "s1" in str(exc.value)

    def test_empty_speaker_exempt_from_disjointness(self):
        samples = [Sample("x", "anger", 3, "", "c", "train", 1.0),
                   Sample("y", "anger", 3, "", "c", "test", 1.0)]
        validate_split_disjointness(CorpusManifest("c", samples))  # no raise

    def test_null_speaker_is_unknown(self, tmp_path):
        # a null speaker is the empty id: exempt from disjointness, and an
        # unsplit corpus of them splits by sample
        f = feat(tmp_path, "a.feat")
        manifest = load_manifest(write_rows(
            tmp_path, [row(f, speaker=None, split="train"), row(f, speaker=None, split="test")]))
        assert [s.speaker_id for s in manifest.samples] == ["", ""]
        manifest = load_manifest(write_rows(tmp_path, [row(f, speaker=None)] * 20, "u.jsonl"))
        make_splits(manifest, 0.1, 0.1, seed=5)
        assert sorted({s.split for s in manifest.samples}) == ["test", "train", "val"]

    @pytest.mark.parametrize("field, value", [
        ("duration_s", "abc"), ("duration_s", None), ("duration_s", float("nan")),
        ("duration_s", True), ("label", 3), ("feature", 5),
    ])
    def test_wrong_field_type(self, tmp_path, field, value):
        bad = row(feat(tmp_path, "a.feat"))
        bad[field] = value
        with pytest.raises(IngestError) as exc:
            load_manifest(write_rows(tmp_path, [row("a.feat"), bad]))
        assert "m.jsonl:2:" in str(exc.value) and field in str(exc.value)

    def test_row_that_is_not_an_object(self, tmp_path):
        with pytest.raises(IngestError) as exc:
            load_manifest(write_rows(tmp_path, [row(feat(tmp_path, "a.feat")), 7]))
        assert "m.jsonl:2" in str(exc.value)

    def test_manifest_not_utf8(self, tmp_path):
        path = write_rows(tmp_path, [row(feat(tmp_path, "a.feat"))])
        path.write_bytes(path.read_bytes() + b'{"label": "\xff"}\n')
        with pytest.raises(IngestError) as exc:
            load_manifest(path)
        assert "m.jsonl:2" in str(exc.value)

    def test_row_nested_too_deep(self, tmp_path):
        path = write_rows(tmp_path, [row(feat(tmp_path, "a.feat"))])
        path.write_bytes(path.read_bytes() + b"[" * 100_000 + b"]" * 100_000 + b"\n")
        with pytest.raises(IngestError) as exc:
            load_manifest(path)
        assert "m.jsonl:2" in str(exc.value)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_arbitrary_json_only_raises_bbekit_errors(self, tmp_path_factory, data):
        # any JSON value in a row's fields or in place of a whole row
        tmp_path = tmp_path_factory.getbasetemp() / "manifest-fuzz"
        tmp_path.mkdir(exist_ok=True)
        good = row(feat(tmp_path, "a.feat"))
        bad = data.draw(st.one_of(
            st.fixed_dictionaries({key: JSON_VALUES for key in good}),
            st.builds(lambda key, value: {**good, key: value},
                      st.sampled_from(sorted(good)), JSON_VALUES),
            JSON_VALUES))
        try:
            load_manifest(write_rows(tmp_path, [good, bad]))
        except BbekitError:
            pass

    def test_class_counts(self, make_corpus):
        manifest = make_corpus("c0")
        # balanced by construction: 5 speakers x 2 reps per class
        counts = np.bincount([s.mapped_class for s in manifest.samples], minlength=6)
        assert np.array_equal(counts, [10] * 6)


def unsplit_manifest(n_speakers, per_speaker, speaker_ids=None):
    samples = []
    for spk in range(n_speakers):
        sid = speaker_ids[spk] if speaker_ids else f"spk{spk}"
        for i in range(per_speaker):
            samples.append(Sample(f"f{spk}-{i}", "anger", 3, sid, "c", None, 1.0))
    return CorpusManifest("c", samples)


class TestMakeSplits:
    def test_ten_speakers_at_tenth_fractions(self):
        # greedy fill: one 10-sample speaker reaches the 10% target exactly
        manifest = make_splits(unsplit_manifest(10, 10), 0.10, 0.10, seed=1)
        by_split = {split: {s.speaker_id for s in manifest.split_samples(split)}
                    for split in ("train", "val", "test")}
        assert len(by_split["test"]) == 1
        assert len(by_split["val"]) == 1
        assert len(by_split["train"]) == 8

    def test_split_is_speaker_disjoint(self):
        manifest = make_splits(unsplit_manifest(8, 5), 0.2, 0.2, seed=3)
        validate_split_disjointness(manifest)
        for s in manifest.samples:
            assert s.split in ("train", "val", "test")

    def test_too_few_speakers(self):
        with pytest.raises(SplitError):
            make_splits(unsplit_manifest(2, 10), 0.1, 0.1)

    def test_sample_mode_counts(self):
        manifest = make_splits(unsplit_manifest(1, 20, speaker_ids=[""]), 0.1, 0.1, seed=2)
        counts = {split: len(manifest.split_samples(split)) for split in ("train", "val", "test")}
        assert counts == {"train": 16, "val": 2, "test": 2}

    def test_sample_mode_minimum_one_each(self):
        manifest = make_splits(unsplit_manifest(1, 12, speaker_ids=[""]), 0.01, 0.01, seed=2)
        assert len(manifest.split_samples("test")) == 1
        assert len(manifest.split_samples("val")) == 1

    def test_sample_mode_too_small(self):
        with pytest.raises(SplitError):
            make_splits(unsplit_manifest(1, 2, speaker_ids=[""]), 0.3, 0.3)

    def test_auto_prefers_speaker_mode(self):
        manifest = make_splits(unsplit_manifest(6, 4), 0.2, 0.2, seed=5)
        splits_per_speaker = {}
        for s in manifest.samples:
            splits_per_speaker.setdefault(s.speaker_id, set()).add(s.split)
        assert all(len(v) == 1 for v in splits_per_speaker.values())

    def test_auto_falls_back_to_sample_mode(self):
        manifest = unsplit_manifest(1, 20, speaker_ids=[""])
        make_splits(manifest, 0.1, 0.1, seed=5)  # one speaker: too few to split by
        assert sorted({s.split for s in manifest.samples}) == ["test", "train", "val"]

    def test_deterministic_in_seed(self):
        a = make_splits(unsplit_manifest(10, 4), 0.2, 0.2, seed=9)
        b = make_splits(unsplit_manifest(10, 4), 0.2, 0.2, seed=9)
        assert [s.split for s in a.samples] == [s.split for s in b.samples]

    @pytest.mark.parametrize("fracs", [(0.0, 0.1), (0.1, 0.0), (0.6, 0.5), (1.0, 0.1), (-0.1, 0.1)])
    def test_bad_fractions(self, fracs):
        with pytest.raises(ConfigError):
            make_splits(unsplit_manifest(5, 4), *fracs)

    def test_empty_corpus(self):
        with pytest.raises(SplitError):
            make_splits(CorpusManifest("c", []))


class TestRoundRobin:
    def test_three_corpora_six_steps(self):
        assert round_robin_schedule(["A", "B", "C"], 6) == ["A", "B", "C", "A", "B", "C"]

    def test_single_corpus(self):
        assert round_robin_schedule(["only"], 4) == ["only"] * 4

    def test_uneven_tail(self):
        schedule = round_robin_schedule(["A", "B", "C"], 7)
        assert schedule[-1] == "A"
        assert schedule.count("A") == 3

    def test_visit_counts_differ_by_at_most_one(self):
        ids = [f"c{i:02d}" for i in range(26)]
        schedule = round_robin_schedule(ids, 3000)
        counts = {cid: schedule.count(cid) for cid in ids}
        assert set(counts.values()) <= {3000 // 26, 3000 // 26 + 1}
        assert sum(counts.values()) == 3000

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            round_robin_schedule([], 5)

    def test_negative_steps_rejected(self):
        with pytest.raises(ConfigError):
            round_robin_schedule(["A"], -1)


class TestIterator:
    def test_epoch_covers_each_sample_once(self, make_corpus):
        manifest = make_corpus("c0")
        train = manifest.split_samples("train")
        it = CorpusIterator(manifest, "train", seed=5)
        assert it.samples == train
        assert sorted(it.take(len(train)).tolist()) == list(range(len(train)))

    def test_epochs_reshuffle(self, make_corpus):
        manifest = make_corpus("c0")
        n = len(manifest.split_samples("train"))
        it = CorpusIterator(manifest, "train", seed=5)
        first = it.take(n).tolist()
        second = it.take(n).tolist()
        assert sorted(first) == sorted(second)
        assert first != second  # vanishingly unlikely to collide

    def test_deterministic_in_seed(self, make_corpus):
        manifest = make_corpus("c0")
        a = CorpusIterator(manifest, "train", seed=5).take(12)
        b = CorpusIterator(manifest, "train", seed=5).take(12)
        assert np.array_equal(a, b)
        c = CorpusIterator(manifest, "train", seed=6).take(12)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("frame_cap", [None, 1, 12, 10_000])
    def test_lengths_labels_and_crops_are_those_of_the_split(self, make_corpus, frame_cap):
        # one entry per train sample, in split order: its frames cut at the
        # cap, their count, and its class as int64
        manifest = make_corpus("c0")
        train = manifest.split_samples("train")
        it = CorpusIterator(manifest, "train", seed=5, frame_cap=frame_cap)
        frames = [manifest.features(s)[:frame_cap] for s in train]
        assert it.lengths.tolist() == [len(f) for f in frames]
        assert it.labels.dtype == np.int64
        assert it.labels.tolist() == [s.mapped_class for s in train]
        assert len(it.crops()) == len(frames)
        assert all(np.array_equal(a, b) for a, b in zip(it.crops(), frames))

    @pytest.mark.parametrize("frame_cap", [0, -3])
    def test_frame_cap_below_one_is_config_error(self, make_corpus, frame_cap):
        with pytest.raises(ConfigError, match="frame_cap"):
            CorpusIterator(make_corpus("c0"), "train", seed=5, frame_cap=frame_cap)

    def test_take_validates(self, make_corpus):
        it = CorpusIterator(make_corpus("c0"), "train", seed=5)
        with pytest.raises(ConfigError):
            it.take(0)

    def test_empty_split_rejected(self, tmp_path):
        f = feat(tmp_path, "a.feat")
        manifest = load_manifest(write_rows(tmp_path, [row(f, split="train")]))
        with pytest.raises(InputError):
            CorpusIterator(manifest, "val", seed=0)


class EpochLoopIterator:
    """The reference stream: one fresh generator per epoch, reached sample by
    sample, each epoch's order ``default_rng(derive_seed(seed, e))
    .permutation(n)``."""

    def __init__(self, samples, seed):
        self.samples, self.seed = samples, seed
        self.epoch, self.cursor = 0, 0
        self.order = self._order(0)

    def _order(self, epoch):
        return np.random.default_rng(derive_seed(self.seed, epoch)).permutation(len(self.samples))

    def take(self, n):
        out = []
        while len(out) < n:
            if self.cursor == len(self.order):
                self.epoch += 1
                self.order = self._order(self.epoch)
                self.cursor = 0
            out.append(self.samples[self.order[self.cursor]])
            self.cursor += 1
        return out


def plain_corpus(n_train):
    """A manifest of ``n_train`` train samples whose one-frame features are
    already in its cache, so the iterator reads no files."""
    samples = [Sample(f"s{i}.feat", "anger", 3, f"spk{i}", "p", "train", 1.0)
               for i in range(n_train)]
    return CorpusManifest("p", samples, {s.feature_path: np.zeros((1, 1)) for s in samples})


class TestPlannedStream:
    @pytest.mark.parametrize("n_train", [1, 7, 90])
    @pytest.mark.parametrize("batch", [1, 3, 8, 16])
    def test_yields_the_epoch_loop_sequence(self, n_train, batch):
        # 12 takes end mid-epoch for every split but the one-sample one, and
        # n_train takes end on an epoch boundary; each runs to its plan, past
        # a plan of half as many takes, and past no plan at all
        manifest = plain_corpus(n_train)
        for steps in (12, n_train):
            for planned_steps in (steps, steps // 2, 0):
                it = CorpusIterator(manifest, "train", seed=9, planned=planned_steps * batch)
                ref = EpochLoopIterator(range(n_train), seed=9)
                for _ in range(steps):
                    assert it.take(batch).tolist() == ref.take(batch)

    def test_stream_holds_int32_indices(self):
        # 4 bytes per planned draw: 64 MiB at the plan bound of 2**24 draws
        it = CorpusIterator(plain_corpus(7), "train", seed=2, planned=5 * 8)
        assert it._stream.dtype == np.int32 and it._stream.size == 42  # six epochs
        it.take(8)
        it.take(40)  # past the plan: the 34 untaken draws and one more epoch
        assert it._stream.dtype == np.int32 and it._stream.size == 34 + 7

    def test_planned_takes_draw_no_epoch(self, monkeypatch):
        it = CorpusIterator(plain_corpus(7), "train", seed=2, planned=5 * 8)
        drawn = []
        monkeypatch.setattr(CorpusIterator, "_epoch_order",
                            lambda self, epoch: drawn.append(epoch))
        for _ in range(5):
            it.take(8)
        assert drawn == []


def crops(iterator, batch, frame_cap=None):
    """The ``[:frame_cap]`` crops of a batch's samples, row by row."""
    return [iterator.manifest.features(iterator.samples[i])[:frame_cap] for i in batch.index]


class TestNextBatch:
    def make_varlen(self, tmp_path, lengths, dim=3):
        rows = []
        for i, n in enumerate(lengths):
            f = feat(tmp_path, f"v{i}.feat", n_frames=n, dim=dim, fill=float(i + 1))
            rows.append(row(f, speaker=f"s{i}", split="train"))
        return load_manifest(write_rows(tmp_path, rows, name="var.jsonl"))

    def test_padding_and_mask(self, tmp_path):
        manifest = self.make_varlen(tmp_path, [3, 5])
        it = CorpusIterator(manifest, "train", seed=1)
        batch = next_batch(it, batch_size=2)
        features, _ = pad_frames(crops(it, batch))
        assert features.shape == (2, 5, 3)
        assert batch.pad_mask.shape == (2, 5)
        for i in range(2):
            n = int(batch.pad_mask[i].sum())
            assert n in (3, 5)
            assert batch.pad_mask[i, :n].all()
            assert not batch.pad_mask[i, n:].any()
            assert np.array_equal(features[i, n:], np.zeros((5 - n, 3)))

    def test_frame_cap_truncates(self, tmp_path):
        manifest = self.make_varlen(tmp_path, [8, 6])
        batch = next_batch(CorpusIterator(manifest, "train", seed=1, frame_cap=4),
                           batch_size=2)
        assert batch.pad_mask.shape == (2, 4)
        assert batch.pad_mask.all()

    def test_batch_contents_match_files(self, tmp_path):
        manifest = self.make_varlen(tmp_path, [2, 2])
        it = CorpusIterator(manifest, "train", seed=1)
        batch = next_batch(it, batch_size=2)
        fills = sorted(pad_frames(crops(it, batch))[0][:, 0, 0].tolist())
        assert fills == [1.0, 2.0]
        assert batch.labels.dtype == np.int64 and batch.labels.tolist() == [3, 3]

    def test_batch_carries_its_samples_row_by_row(self, tmp_path):
        manifest = self.make_varlen(tmp_path, [3, 5, 2, 6])
        it = CorpusIterator(manifest, "train", seed=4, frame_cap=4)
        batch = next_batch(it, batch_size=4)
        assert batch.size == len(batch.index) == 4
        features, _ = pad_frames(crops(it, batch, 4))
        for frames, mask, i in zip(features, batch.pad_mask, batch.index, strict=True):
            assert np.array_equal(frames[mask], manifest.features(it.samples[i])[:4])

    def test_features_and_mask_are_pad_frames_of_the_arrays(self, make_corpus):
        manifest = make_corpus("c0")
        it = CorpusIterator(manifest, "train", seed=3, frame_cap=7)
        batch = next_batch(it, batch_size=5)
        assert batch.size == 5
        assert np.array_equal(batch.pad_mask, pad_frames(crops(it, batch, 7))[1])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch_size=st.integers(1, 40),
           frame_cap=st.one_of(st.none(), st.integers(1, 60)))
    def test_mask_is_that_of_the_crops_over_random_draws(self, tmp_path_factory, seed,
                                                         batch_size, frame_cap):
        # the iterator's lengths give pad_frames' mask of the crops, whatever
        # the draw, and its labels are the classes of the samples the
        # batch's index names; the corpus's frame counts run 5-50
        manifest = self.varied_corpus(tmp_path_factory)
        it = CorpusIterator(manifest, "train", seed=seed, frame_cap=frame_cap)
        for _ in range(3):
            batch = next_batch(it, batch_size)
            mask = pad_frames(crops(it, batch, frame_cap))[1]
            assert batch.pad_mask.dtype == mask.dtype
            assert np.array_equal(batch.pad_mask, mask)
            assert batch.size == batch_size
            assert batch.labels.dtype == np.int64
            assert batch.labels.tolist() == [it.samples[i].mapped_class for i in batch.index]

    @staticmethod
    def varied_corpus(tmp_path_factory):
        out = tmp_path_factory.getbasetemp() / "varied-corpus"
        path = out / "v.jsonl"
        if not path.exists():
            generate_synthetic_corpus(SyntheticSpec("v", d=2, frame_rate=10.0, seed=8), out)
        return load_manifest(path)

    def test_a_batch_reads_no_features(self, make_corpus, monkeypatch):
        # the iterator reads each sample's frame count once, when it is built
        manifest = make_corpus("c0")
        calls = []
        features = CorpusManifest.features
        monkeypatch.setattr(CorpusManifest, "features",
                            lambda self, s: calls.append(s) or features(self, s))
        iterators = []
        for cap in (None, 7, 3):
            iterators.append(CorpusIterator(manifest, "train", seed=3, frame_cap=cap))
            assert len(calls) == len(manifest.split_samples("train"))
            calls.clear()
        for it in iterators:
            next_batch(it, 5)
        assert calls == []

    def test_no_duplicates_within_epoch(self, make_corpus):
        manifest = make_corpus("c0")
        n = len(manifest.split_samples("train"))
        it = CorpusIterator(manifest, "train", seed=2)
        seen = []
        while len(seen) < n:
            seen.extend(it.take(1).tolist())
        assert len(set(seen)) == n

    def test_bad_sizes(self, make_corpus):
        it = CorpusIterator(make_corpus("c0"), "train", seed=1)
        with pytest.raises(ConfigError):
            next_batch(it, batch_size=0)

    def test_width_mismatch_is_reported_at_read(self, tmp_path):
        # the file that differs is named with both widths when it is read,
        # before any batch is assembled
        manifest = load_manifest(write_rows(tmp_path, [
            row(feat(tmp_path, "a.feat", dim=3)), row(feat(tmp_path, "b.feat", dim=4))]))
        first, second = manifest.samples
        assert manifest.features(first).shape == (4, 3)
        with pytest.raises(InputError) as exc:
            manifest.features(second)
        assert str(exc.value) == (f"{tmp_path / 'b.feat'}: 4 features per frame, "
                                  "but corpus m's have 3")
        assert manifest.features(first).shape == (4, 3)  # the mismatch is not cached

    def test_inconsistent_dims_rejected(self, tmp_path):
        f1 = feat(tmp_path, "a.feat", dim=3)
        f2 = feat(tmp_path, "b.feat", dim=4)
        manifest = load_manifest(write_rows(
            tmp_path, [row(f1, split="train"), row(f2, speaker="s2", split="train")]))
        with pytest.raises(InputError):  # the iterator reads every frame count
            CorpusIterator(manifest, "train", seed=1)


class TestSyntheticSpec:
    @pytest.mark.parametrize("kwargs", [
        {"n_speakers": 2}, {"samples_per_speaker": 0}, {"d": 0},
        {"noise_std": -0.1}, {"speaker_std": -0.1}, {"mean_scale": 0.0},
        {"frame_rate": np.inf}, {"noise_std": np.nan},
        {"frame_rate": 0.0},
        # frame counts past a FEAT file's u32, rejected before any frame is drawn
        {"frame_rate": 1e308},
        {"frame_rate": np.nextafter(MAX_FRAMES / SYNTH_DURATION_S[1], np.inf)},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            SyntheticSpec(corpus_id="x", **kwargs)

    def test_largest_frame_rate_accepted(self):
        # only built: generating at this rate would allocate gigabytes
        rate = MAX_FRAMES / SYNTH_DURATION_S[1]
        assert SYNTH_DURATION_S[1] * rate == MAX_FRAMES
        assert SyntheticSpec(corpus_id="x", frame_rate=rate).frame_rate == rate


class TestClassMeans:
    def test_unit_norm_rows(self):
        means = synthetic_class_means(1234, 32)
        assert means.shape == (6, 32)
        np.testing.assert_allclose(np.linalg.norm(means, axis=1), np.ones(6), rtol=1e-12)

    def test_scale(self):
        means = synthetic_class_means(1234, 16, mean_scale=2.5)
        np.testing.assert_allclose(np.linalg.norm(means, axis=1), np.full(6, 2.5), rtol=1e-12)

    def test_shared_across_corpora(self):
        assert np.array_equal(synthetic_class_means(7, 8), synthetic_class_means(7, 8))
        assert not np.array_equal(synthetic_class_means(7, 8), synthetic_class_means(8, 8))

    def test_shift_vector(self):
        spec = SyntheticSpec(corpus_id="x", corpus_shift=1.5, seed=3, d=16)
        shift = corpus_shift_vector(spec)
        np.testing.assert_allclose(np.linalg.norm(shift), 1.5, rtol=1e-12)
        none = corpus_shift_vector(SyntheticSpec(corpus_id="x", corpus_shift=0.0, d=16))
        assert np.array_equal(none, np.zeros(16))


class TestGenerator:
    def test_documented_sample_count(self, tmp_path):
        # 5 speakers x 20 per class x 6 classes = 600 samples
        spec = SyntheticSpec(corpus_id="big", n_speakers=5, samples_per_speaker=20,
                             d=8, seed=1, frame_rate=4.0)
        manifest = load_manifest(generate_synthetic_corpus(spec, tmp_path / "big"))
        assert len(manifest.samples) == 600
        counts = np.bincount([s.mapped_class for s in manifest.samples], minlength=6)
        assert np.array_equal(counts, [100] * 6)

    def test_speaker_naming_and_labels(self, make_corpus):
        manifest = make_corpus("c0")
        assert {s.speaker_id for s in manifest.samples} == {f"c0-spk{i:03d}" for i in range(5)}
        assert {s.raw_label for s in manifest.samples} == set(SYNTH_LABELS)

    def test_durations_in_range(self, make_corpus):
        manifest = make_corpus("c0")
        for s in manifest.samples:
            assert 0.5 <= s.duration_s <= 5.0
            frames = read_features(s.feature_path)
            assert frames.shape[0] == round(s.duration_s * 10.0)

    def test_splits_assigned(self, make_corpus):
        manifest = make_corpus("c0")
        for split in ("train", "val", "test"):
            assert manifest.split_samples(split)
        validate_split_disjointness(manifest)

    def test_regeneration_is_byte_identical(self, tmp_path):
        spec = SyntheticSpec(corpus_id="r", n_speakers=3, samples_per_speaker=1,
                             d=4, seed=6, frame_rate=2.0)
        p1 = generate_synthetic_corpus(spec, tmp_path / "one")
        p2 = generate_synthetic_corpus(spec, tmp_path / "two")
        assert p1.read_text() == p2.read_text()
        m1 = load_manifest(p1)
        m2 = load_manifest(p2)
        for a, b in zip(m1.samples, m2.samples):
            with open(a.feature_path, "rb") as fa, open(b.feature_path, "rb") as fb:
                assert fa.read() == fb.read()

    def test_noise_knob_does_not_shift_durations(self, tmp_path):
        base = dict(corpus_id="k", n_speakers=3, samples_per_speaker=2, d=4,
                    seed=9, frame_rate=5.0)
        quiet = load_manifest(generate_synthetic_corpus(
            SyntheticSpec(noise_std=0.0, **base), tmp_path / "quiet"))
        loud = load_manifest(generate_synthetic_corpus(
            SyntheticSpec(noise_std=0.5, **base), tmp_path / "loud"))
        assert [s.duration_s for s in quiet.samples] == [s.duration_s for s in loud.samples]

    def test_noiseless_frames_equal_class_means(self, tmp_path):
        spec = SyntheticSpec(corpus_id="pure", n_speakers=3, samples_per_speaker=1,
                             d=8, seed=2, frame_rate=2.0, noise_std=0.0,
                             speaker_std=0.0, corpus_shift=0.0)
        manifest = load_manifest(generate_synthetic_corpus(spec, tmp_path / "pure"))
        means = synthetic_class_means(spec.class_means_seed, spec.d)
        for s in manifest.samples:
            frames = read_features(s.feature_path)
            expected = np.tile(means[s.mapped_class], (frames.shape[0], 1))
            np.testing.assert_allclose(frames, expected, rtol=0, atol=1e-7)  # f32 storage

    def nearest_mean_accuracy(self, manifest, means):
        hits = total = 0
        for s in manifest.samples:
            pooled = read_features(s.feature_path).mean(axis=0)
            pred = int(np.argmin(np.linalg.norm(means - pooled, axis=1)))
            hits += pred == s.mapped_class
            total += 1
        return hits / total

    def test_nearest_mean_oracle_separates_classes(self, tmp_path):
        base = dict(n_speakers=3, samples_per_speaker=2, d=16, seed=4,
                    frame_rate=5.0, noise_std=0.3, speaker_std=0.05)
        means = synthetic_class_means(1234, 16)
        clean = load_manifest(generate_synthetic_corpus(
            SyntheticSpec(corpus_id="clean", **base), tmp_path / "clean"))
        assert self.nearest_mean_accuracy(clean, means) == 1.0

    def test_domain_shift_degrades_unshifted_oracle(self, tmp_path):
        base = dict(n_speakers=3, samples_per_speaker=2, d=16, seed=4,
                    frame_rate=5.0, noise_std=0.3, speaker_std=0.05)
        means = synthetic_class_means(1234, 16)
        clean = load_manifest(generate_synthetic_corpus(
            SyntheticSpec(corpus_id="clean", **base), tmp_path / "clean"))
        shifted = load_manifest(generate_synthetic_corpus(
            SyntheticSpec(corpus_id="shifted", corpus_shift=2.0, **base),
            tmp_path / "shifted"))
        assert (self.nearest_mean_accuracy(shifted, means)
                < self.nearest_mean_accuracy(clean, means))


class TestCorpusSet:
    def test_load_two_corpora(self, tmp_path):
        for cid in ("a", "b"):
            spec = SyntheticSpec(corpus_id=cid, n_speakers=3, samples_per_speaker=1,
                                 d=4, seed=1, frame_rate=2.0)
            generate_synthetic_corpus(spec, tmp_path / cid)
        set_path = tmp_path / "set.json"
        set_path.write_text(json.dumps([
            {"corpus_id": "a", "manifest_path": "a/a.jsonl"},
            {"corpus_id": "b", "manifest_path": "b/b.jsonl"},
        ]), encoding="utf-8")
        manifests = load_corpus_set(set_path)
        assert [m.corpus_id for m in manifests] == ["a", "b"]
        assert all(len(m.samples) == 18 for m in manifests)

    def test_mapping_override_applied(self, tmp_path):
        f = feat(tmp_path, "a.feat")
        write_rows(tmp_path, [row(f, label="saudade")], name="c.jsonl")
        (tmp_path / "map.csv").write_text("saudade,low,negative\n", encoding="utf-8")
        set_path = tmp_path / "set.json"
        set_path.write_text(json.dumps([
            {"corpus_id": "c", "manifest_path": "c.jsonl",
             "mapping_overrides_path": "map.csv"},
        ]), encoding="utf-8")
        manifests = load_corpus_set(set_path)
        assert manifests[0].samples[0].mapped_class == 0

    def test_missing_keys(self, tmp_path):
        set_path = tmp_path / "set.json"
        set_path.write_text(json.dumps([{"corpus_id": "a"}]), encoding="utf-8")
        with pytest.raises(IngestError):
            load_corpus_set(set_path)

    @pytest.mark.parametrize("entry", [
        3, {"corpus_id": 3, "manifest_path": "a.jsonl"},
        {"corpus_id": "a", "manifest_path": 3},
        {"corpus_id": "a", "manifest_path": "a.jsonl", "mapping_overrides_path": 3},
        # falsy, but not null: no override is absent or null
        *({"corpus_id": "a", "manifest_path": "a.jsonl", "mapping_overrides_path": falsy}
          for falsy in (False, 0, [])),
    ])
    def test_entry_of_wrong_type(self, tmp_path, entry):
        set_path = tmp_path / "set.json"
        set_path.write_text(json.dumps([entry]), encoding="utf-8")
        with pytest.raises(IngestError) as exc:
            load_corpus_set(set_path)
        assert "set.json" in str(exc.value)

    def test_set_not_utf8(self, tmp_path):
        set_path = tmp_path / "set.json"
        set_path.write_bytes(b'[{"corpus_id": "\xff"}]')
        with pytest.raises(IngestError):
            load_corpus_set(set_path)

    def test_set_nested_too_deep(self, tmp_path):
        set_path = tmp_path / "set.json"
        set_path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        with pytest.raises(IngestError) as exc:
            load_corpus_set(set_path)
        assert "set.json" in str(exc.value)

    def test_empty_set(self, tmp_path):
        set_path = tmp_path / "set.json"
        set_path.write_text("[]", encoding="utf-8")
        with pytest.raises(IngestError):
            load_corpus_set(set_path)

    def test_unreadable_set(self, tmp_path):
        set_path = tmp_path / "set.json"
        set_path.write_text("{not json", encoding="utf-8")
        with pytest.raises(IngestError):
            load_corpus_set(set_path)

"""Corpus manifests, speaker-independent splits, batch assembly, and a
synthetic-corpus generator for desk-scale experiments.

Manifests are JSON-lines, one sample per line:
  {"feature": path, "label": str, "speaker": str,
   "split": "train|val|test" (optional), "duration_s": float}
A relative path in a manifest or a corpus set is read from the directory
of the file that names it.  A null speaker is unknown: its id is the empty
string, which split checks exempt.

A ``CorpusIterator`` owns one split: its sample order, each sample's crop
and class, and the draws; a ``Batch`` gathers them at its draws.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ConfigError, IngestError, InputError, SplitError, SplitViolationError,
                     open_input, parse_json)
from .featfile import MAX_FRAMES, read_features, write_features
from .labels import MappingTable, load_mapping_table
from .rngutil import derive_seed, generator

SPLITS = ("train", "val", "test")
ROW_FIELDS = {"feature": str, "label": str, "speaker": object, "duration_s": (int, float)}


@dataclass
class Sample:
    feature_path: str
    raw_label: str
    mapped_class: int
    speaker_id: str
    corpus_id: str
    split: str | None
    duration_s: float


@dataclass
class CorpusManifest:
    corpus_id: str
    samples: list[Sample]
    _cache: dict = field(default_factory=dict, repr=False)

    def split_samples(self, split: str) -> list[Sample]:
        if split not in SPLITS:
            raise ConfigError(f"unknown split {split!r}")
        return [s for s in self.samples if s.split == split]

    def features(self, sample: Sample) -> np.ndarray:
        """The sample's [T, d] frames, read on first use; a file whose width
        d differs from the corpus's files read before it is an InputError."""
        frames = self._cache.get(sample.feature_path)
        if frames is None:
            frames = read_features(sample.feature_path)
            width = next(iter(self._cache.values()), frames).shape[1]
            if frames.shape[1] != width:
                raise InputError(f"{sample.feature_path}: {frames.shape[1]} features per "
                                 f"frame, but corpus {self.corpus_id}'s have {width}")
            self._cache[sample.feature_path] = frames
        return frames


@dataclass
class Batch:
    """One step's draws, gathered from its ``CorpusIterator``."""
    pad_mask: np.ndarray  # [B, T_max] bool, True on each draw's crop's frames
    index: np.ndarray  # the draws, row by row, as indices into the iterator's samples
    labels: np.ndarray  # [B] int64, each draw's class

    @property
    def size(self) -> int:
        return len(self.index)


def validate_split_disjointness(manifest: CorpusManifest) -> None:
    """Speakers must not straddle partitions; empty speaker ids are exempt."""
    seen: dict[str, set[str]] = {}
    for s in manifest.samples:
        if s.speaker_id and s.split is not None:
            seen.setdefault(s.speaker_id, set()).add(s.split)
    offenders = sorted(spk for spk, splits in seen.items() if len(splits) > 1)
    if offenders:
        raise SplitViolationError(offenders)


def load_manifest(path: str | Path, table: MappingTable | None = None,
                  corpus_id: str | None = None) -> CorpusManifest:
    path = Path(path)
    if table is None:
        table = MappingTable()
    if corpus_id is None:
        corpus_id = path.stem
    with open_input(path, IngestError, "manifest") as fh:
        lines = fh.read().splitlines()

    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        row = parse_json(line, IngestError, f"{path}:{lineno}", dict)
        for key, kind in ROW_FIELDS.items():
            if key not in row or not isinstance(row[key], kind):
                raise IngestError(f"{path}:{lineno}: missing or mistyped field {key!r}")
        if row.get("split") is not None and row["split"] not in SPLITS:
            raise IngestError(f"{path}:{lineno}: unknown split {row['split']!r}")
        if type(row["duration_s"]) is bool or not 0 <= row["duration_s"] <= np.finfo(float).max:
            raise IngestError(f"{path}:{lineno}: duration_s must be a finite number >= 0")
        rows.append(row)

    mapped = table.map_all((row["label"] for row in rows), source=path)

    with_split = sum(1 for row in rows if row.get("split") is not None)
    if 0 < with_split < len(rows):
        raise IngestError(f"{path}: split assigned for {with_split}/{len(rows)} samples; "
                          "must be all or none")

    samples = []
    for row, cls in zip(rows, mapped):
        feature_path = _resolve(path, row["feature"])
        if not os.path.isfile(feature_path):  # False on any error, e.g. a name too long
            raise IngestError(f"{path}: feature file missing: {feature_path}")
        samples.append(Sample(
            feature_path=str(feature_path), raw_label=row["label"],
            mapped_class=cls.index,
            speaker_id="" if row["speaker"] is None else str(row["speaker"]),
            corpus_id=corpus_id, split=row.get("split"),
            duration_s=float(row["duration_s"]),
        ))
    manifest = CorpusManifest(corpus_id=corpus_id, samples=samples)
    validate_split_disjointness(manifest)
    return manifest


def _resolve(named_in: Path, ref: str) -> Path:
    """``ref`` as the file ``named_in`` names it: absolute as is, relative from its directory."""
    return named_in.parent / ref


def write_manifest(path: str | Path, manifest: CorpusManifest) -> None:
    path = Path(path)
    lines = []
    for s in manifest.samples:
        feature = Path(s.feature_path)
        try:
            feature = feature.relative_to(path.parent)
        except ValueError:
            pass
        row = {"feature": str(feature), "label": s.raw_label, "speaker": s.speaker_id,
               "duration_s": s.duration_s}
        if s.split is not None:
            row["split"] = s.split
        lines.append(json.dumps(row, sort_keys=True))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- split generation --------------------------------------------------------

def make_splits(manifest: CorpusManifest, frac_test: float = 0.10,
                frac_val: float = 0.10, seed: int = 0) -> CorpusManifest:
    """Assign train/val/test splits: by speaker when every sample has a
    speaker id, else by sample.

    By speaker, whole speakers greedily fill test then val until each
    reaches its target sample fraction; the remainder trains.  By sample,
    the indices split at the fractions directly.
    """
    if not (0 < frac_test < 1 and 0 < frac_val < 1 and frac_test + frac_val < 1):
        raise ConfigError(f"invalid split fractions test={frac_test} val={frac_val}")
    if not manifest.samples:
        raise SplitError(f"{manifest.corpus_id}: cannot split an empty corpus")

    rng = generator(seed)
    n = len(manifest.samples)
    if all(s.speaker_id for s in manifest.samples):
        by_speaker: dict[str, list[int]] = {}
        for i, s in enumerate(manifest.samples):
            by_speaker.setdefault(s.speaker_id, []).append(i)
        if len(by_speaker) < 3:
            raise SplitError(f"{manifest.corpus_id}: a speaker split needs >= 3 "
                             f"speakers, found {len(by_speaker)}")
        order = sorted(by_speaker)
        rng.shuffle(order)
        assignment: dict[str, str] = {}
        test_n = val_n = 0
        for spk in order:
            size = len(by_speaker[spk])
            if test_n < frac_test * n:
                assignment[spk] = "test"
                test_n += size
            elif val_n < frac_val * n:
                assignment[spk] = "val"
                val_n += size
            else:
                assignment[spk] = "train"
        for s in manifest.samples:
            s.split = assignment[s.speaker_id]
    else:
        n_test = max(1, round(frac_test * n))
        n_val = max(1, round(frac_val * n))
        if n_test + n_val >= n:
            raise SplitError(f"{manifest.corpus_id}: {n} samples leave no "
                             "train data at the requested fractions")
        order = rng.permutation(n)
        for rank, i in enumerate(order):
            if rank < n_test:
                manifest.samples[i].split = "test"
            elif rank < n_test + n_val:
                manifest.samples[i].split = "val"
            else:
                manifest.samples[i].split = "train"

    for split in SPLITS:
        if not manifest.split_samples(split):
            raise SplitError(f"{manifest.corpus_id}: {split} partition is empty "
                             "at the requested fractions")
    validate_split_disjointness(manifest)
    return manifest


# -- scheduling and batching -------------------------------------------------

def round_robin_schedule(corpus_ids: list[str], n_steps: int) -> list[str]:
    """Strict cyclic order; over k*N steps each corpus appears exactly k times."""
    if not corpus_ids:
        raise ConfigError("round robin needs at least one corpus")
    if n_steps < 0:
        raise ConfigError(f"n_steps must be >= 0, got {n_steps}")
    return [corpus_ids[i % len(corpus_ids)] for i in range(n_steps)]


class CorpusIterator:
    """One split of one corpus: its ``samples`` in split order, each one's
    crop length (``lengths``: its frame count cut at ``frame_cap``) and
    class (``labels``, int64), and a stream of draws that cycles the split
    in epochs, reshuffling each epoch.

    The order within epoch e is a permutation seeded by (seed, e), so the
    stream is a pure function of (manifest, split, seed) and every sample
    appears exactly once per epoch.

    ``planned`` is the number of samples the caller will take in all.  The
    constructor draws every epoch those takes cover, back to back, so a take
    within the plan only slices the stream and builds no generator.  A take
    past the plan draws further epochs when it reaches them.  The stream
    holds each draw as an int32 index into ``samples``: 4 bytes a draw.

    The constructor reads each sample's frame count, once, through
    ``CorpusManifest.features``, so that ``next_batch`` reads no features.
    """

    def __init__(self, manifest: CorpusManifest, split: str = "train", seed: int = 0,
                 planned: int = 0, frame_cap: int | None = None):
        if frame_cap is not None and frame_cap < 1:
            raise ConfigError(f"frame_cap must be >= 1, got {frame_cap}")
        self.manifest = manifest
        self.samples = manifest.split_samples(split)
        if not self.samples:
            raise InputError(f"{manifest.corpus_id}: no samples in split {split!r}")
        counts = np.array([manifest.features(s).shape[0] for s in self.samples])
        self.lengths = counts if frame_cap is None else np.minimum(counts, frame_cap)
        self.labels = np.array([s.mapped_class for s in self.samples], dtype=np.int64)
        self.seed = seed
        # drawn indices into ``samples``; those before the cursor are taken
        self._stream = np.empty(0, dtype=np.int32)
        self._cursor = 0
        self._epochs = 0  # epochs drawn so far
        self._draw(planned)

    def crops(self) -> list[np.ndarray]:
        """Each sample's first ``lengths[i]`` frames, in ``samples``' order."""
        return [self.manifest.features(s)[:n] for s, n in zip(self.samples, self.lengths)]

    def _epoch_order(self, epoch: int) -> np.ndarray:
        rng = np.random.default_rng(derive_seed(self.seed, epoch))
        return rng.permutation(len(self.samples))

    def _draw(self, wanted: int) -> None:
        """Drop the taken draws, then append whole epochs until the stream
        holds ``wanted`` untaken ones."""
        untaken = self._stream[self._cursor:]
        n = len(self.samples)
        epochs = max(0, -(-(wanted - untaken.size) // n))
        stream = np.empty(untaken.size + epochs * n, dtype=np.int32)
        stream[:untaken.size] = untaken
        for start in range(untaken.size, stream.size, n):
            stream[start:start + n] = self._epoch_order(self._epochs)
            self._epochs += 1
        self._stream, self._cursor = stream, 0

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` draws, as indices into ``samples``."""
        if n < 1:
            raise ConfigError(f"cannot take {n} samples")
        if self._cursor + n > self._stream.size:
            self._draw(n)
        drawn = self._stream[self._cursor:self._cursor + n]
        self._cursor += n
        return drawn


def next_batch(iterator: CorpusIterator, batch_size: int) -> Batch:
    """The next ``batch_size`` draws of the stream, with their labels and
    the True-on-real-frames mask of their crops, gathered from the
    iterator's lengths and labels: no feature is read.  No re-weighting or
    re-balancing: samples arrive exactly as the epoch stream yields them."""
    drawn = iterator.take(batch_size)
    return Batch(length_mask(iterator.lengths[drawn]), drawn, iterator.labels[drawn])


def length_mask(lengths) -> np.ndarray:
    """[B, max(lengths)] mask, True on the first ``lengths[i]`` entries of
    row i."""
    lengths = np.asarray(lengths)
    return np.arange(lengths.max()) < lengths[:, None]


def pad_frames(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack [T_i, d] arrays of one width d into zero-padded [B, T_max, d]
    features and a [B, T_max] mask, True on real frames."""
    pad_mask = length_mask([a.shape[0] for a in arrays])
    features = np.zeros(pad_mask.shape + arrays[0].shape[1:])
    for i, a in enumerate(arrays):
        features[i, :a.shape[0]] = a
    return features, pad_mask


# -- synthetic corpora -------------------------------------------------------

# class index -> corpus-native emotion name, exercising the mapping table
SYNTH_LABELS = ("sadness", "neutral", "calm", "anger", "surprise", "happiness")
SYNTH_DURATION_S = (0.5, 5.0)


@dataclass(frozen=True)
class SyntheticSpec:
    corpus_id: str
    n_speakers: int = 5
    samples_per_speaker: int = 4  # per class, so 6x this per speaker
    d: int = 32
    class_means_seed: int = 1234
    noise_std: float = 0.1
    corpus_shift: float = 0.0
    seed: int = 0
    frame_rate: float = 25.0
    mean_scale: float = 1.0
    speaker_std: float = 0.05
    frac_test: float = 0.10
    frac_val: float = 0.10

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.n_speakers < 3:
            raise ConfigError(f"n_speakers must be >= 3, got {self.n_speakers}")
        if self.samples_per_speaker < 1:
            raise ConfigError("samples_per_speaker must be >= 1")
        if self.d < 1:
            raise ConfigError(f"feature dim must be >= 1, got {self.d}")
        if self.noise_std < 0:
            raise ConfigError(f"noise_std must be >= 0, got {self.noise_std}")
        if self.speaker_std < 0 or self.mean_scale <= 0:
            raise ConfigError("speaker_std must be >= 0 and mean_scale > 0")
        if self.frame_rate <= 0:
            raise ConfigError(f"frame_rate must be > 0, got {self.frame_rate}")
        if SYNTH_DURATION_S[1] * self.frame_rate > MAX_FRAMES:
            raise ConfigError(f"frame_rate {self.frame_rate} gives {SYNTH_DURATION_S[1]} s "
                              f"samples more than a FEAT file's {MAX_FRAMES} frames")


def synthetic_class_means(class_means_seed: int, d: int, mean_scale: float = 1.0) -> np.ndarray:
    """Six well-separated class mean vectors, shared by every corpus that
    uses the same seed (unit directions scaled to mean_scale)."""
    rng = generator(class_means_seed)
    raw = rng.normal(0.0, 1.0, (6, d))
    return mean_scale * raw / np.linalg.norm(raw, axis=1, keepdims=True)


def corpus_shift_vector(spec: SyntheticSpec) -> np.ndarray:
    """Additive domain shift: magnitude from corpus_shift, direction from the
    corpus seed so different corpora shift different ways."""
    if spec.corpus_shift == 0.0:
        return np.zeros(spec.d)
    rng = np.random.default_rng(derive_seed(spec.seed, 0xC0))
    raw = rng.normal(0.0, 1.0, spec.d)
    return spec.corpus_shift * raw / np.linalg.norm(raw)


def synthetic_samples(spec: SyntheticSpec, out_dir: str | Path):
    """Yield each (sample, frames) of ``spec``'s corpus under ``out_dir``,
    writing nothing.  Frames = class mean + speaker offset + corpus shift +
    noise, durations uniform in SYNTH_DURATION_S seconds; splits unset."""
    feat_dir = Path(out_dir) / "features"
    means = synthetic_class_means(spec.class_means_seed, spec.d, spec.mean_scale)
    shift = corpus_shift_vector(spec)
    rng = np.random.default_rng(derive_seed(spec.seed, 1))

    for spk in range(spec.n_speakers):
        speaker_id = f"{spec.corpus_id}-spk{spk:03d}"
        # scale after drawing so the rng stream is invariant to the std knobs
        offset = rng.normal(0.0, 1.0, spec.d) * spec.speaker_std
        for cls in range(6):
            for rep in range(spec.samples_per_speaker):
                duration = rng.uniform(*SYNTH_DURATION_S)
                n_frames = max(1, int(round(duration * spec.frame_rate)))
                frames = np.tile(means[cls] + offset + shift, (n_frames, 1))
                # a noise_std large enough to overflow gives inf frames,
                # which float32_frames rejects
                with np.errstate(over="ignore"):
                    frames = frames + rng.normal(0.0, 1.0, frames.shape) * spec.noise_std
                yield Sample(
                    feature_path=str(feat_dir / f"{speaker_id}-c{cls}-r{rep:03d}.feat"),
                    raw_label=SYNTH_LABELS[cls], mapped_class=cls,
                    speaker_id=speaker_id, corpus_id=spec.corpus_id,
                    split=None, duration_s=n_frames / spec.frame_rate,
                ), frames


def generate_synthetic_corpus(spec: SyntheticSpec, out_dir: str | Path) -> Path:
    """Write ``synthetic_samples``' FEAT files, in one pass, plus a
    split-assigned manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    samples = []
    for sample, frames in synthetic_samples(spec, out_dir):
        write_features(sample.feature_path, frames)
        samples.append(sample)
    manifest = CorpusManifest(corpus_id=spec.corpus_id, samples=samples)
    make_splits(manifest, spec.frac_test, spec.frac_val, seed=spec.seed)
    manifest_path = out_dir / f"{spec.corpus_id}.jsonl"
    write_manifest(manifest_path, manifest)
    return manifest_path


def load_corpus_set(path: str | Path) -> list[CorpusManifest]:
    """Corpus set file: JSON array of {corpus_id, manifest_path,
    mapping_overrides_path?}; relative paths resolve against the set file."""
    path = Path(path)
    with open_input(path, IngestError, "corpus set") as fh:
        entries = parse_json(fh.read(), IngestError, f"corpus set {path}", list)
    if not entries:
        raise IngestError(f"{path}: corpus set must be a non-empty JSON array")
    manifests = []
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("corpus_id"), str)
                and isinstance(entry.get("manifest_path"), str)
                and isinstance(entry.get("mapping_overrides_path"), (str, type(None)))):
            raise IngestError(f"{path}: entry needs string corpus_id and manifest_path, and "
                              f"a mapping_overrides_path that is null or a string: {entry!r}")
        override = entry.get("mapping_overrides_path")
        table = load_mapping_table(_resolve(path, override)) if override else None
        manifests.append(load_manifest(_resolve(path, entry["manifest_path"]), table=table,
                                       corpus_id=entry["corpus_id"]))
    return manifests

"""Corpus manifests, speaker-independent splits, batch assembly, and a
synthetic-corpus generator for desk-scale experiments.

Manifests are JSON-lines, one sample per line:
  {"feature": path, "label": str, "speaker": str,
   "split": "train|val|test" (optional), "duration_s": float}
Feature paths are resolved relative to the manifest file.  A null speaker
is unknown: its id is the empty string, which split checks exempt.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (ConfigError, IngestError, InputError, SplitError,
                     SplitViolationError, UnmappedLabelError)
from .featfile import read_features, write_features
from .labels import MappingTable, load_mapping_table
from .rngutil import derive_seed

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
        if sample.feature_path not in self._cache:
            self._cache[sample.feature_path] = read_features(sample.feature_path)
        return self._cache[sample.feature_path]


@dataclass
class Batch:
    arrays: list[np.ndarray]  # each drawn sample's [T_i, d] frames, row by row
    pad_mask: np.ndarray  # [B, T_max] bool, True on real frames
    samples: list[Sample]  # the drawn samples, row by row
    corpus_id: str

    @cached_property
    def features(self) -> np.ndarray:
        """[B, T_max, d] frames, zero-padded; built on first access, so a
        step that reads only the samples never pads."""
        return _pad(self.arrays, self.pad_mask)

    @property
    def labels(self) -> list[int]:
        return [s.mapped_class for s in self.samples]

    @property
    def size(self) -> int:
        return len(self.samples)


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
    if not path.is_file():
        raise IngestError(f"manifest not found: {path}")
    if table is None:
        table = MappingTable()
    if corpus_id is None:
        corpus_id = path.stem

    rows = []
    for lineno, line in enumerate(path.read_bytes().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise IngestError(f"{path}:{lineno}: invalid JSON ({exc})") from exc
        if not isinstance(row, dict):
            raise IngestError(f"{path}:{lineno}: a row must be a JSON object")
        for key, kind in ROW_FIELDS.items():
            if key not in row or not isinstance(row[key], kind):
                raise IngestError(f"{path}:{lineno}: missing or mistyped field {key!r}")
        if row.get("split") is not None and row["split"] not in SPLITS:
            raise IngestError(f"{path}:{lineno}: unknown split {row['split']!r}")
        if not 0 <= row["duration_s"] <= np.finfo(float).max:
            raise IngestError(f"{path}:{lineno}: duration_s must be finite and >= 0")
        rows.append(row)

    # label mapping reports the full set of unknowns at once
    try:
        mapped = table.map_all(row["label"] for row in rows)
    except UnmappedLabelError as exc:
        raise UnmappedLabelError(exc.labels) from None

    with_split = sum(1 for row in rows if row.get("split") is not None)
    if 0 < with_split < len(rows):
        raise IngestError(f"{path}: split assigned for {with_split}/{len(rows)} samples; "
                          "must be all or none")

    samples = []
    for row, cls in zip(rows, mapped):
        feature_path = Path(row["feature"])
        if not feature_path.is_absolute():
            feature_path = path.parent / feature_path
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
                frac_val: float = 0.10, seed: int = 0,
                mode: str = "auto") -> CorpusManifest:
    """Assign train/val/test splits, speaker-level when speakers are known.

    Speaker mode greedily fills test then val with whole speakers until each
    reaches its target sample fraction; the remainder trains.  Sample mode
    splits indices at the fractions directly.
    """
    if not (0 < frac_test < 1 and 0 < frac_val < 1 and frac_test + frac_val < 1):
        raise ConfigError(f"invalid split fractions test={frac_test} val={frac_val}")
    if mode not in ("auto", "speaker", "sample"):
        raise ConfigError(f"unknown split mode {mode!r}")
    if not manifest.samples:
        raise SplitError(f"{manifest.corpus_id}: cannot split an empty corpus")
    if mode == "auto":
        mode = "speaker" if all(s.speaker_id for s in manifest.samples) else "sample"

    rng = np.random.default_rng(seed)
    n = len(manifest.samples)
    if mode == "speaker":
        by_speaker: dict[str, list[int]] = {}
        for i, s in enumerate(manifest.samples):
            if not s.speaker_id:
                raise SplitError(f"{manifest.corpus_id}: speaker mode needs a "
                                 "speaker id on every sample")
            by_speaker.setdefault(s.speaker_id, []).append(i)
        if len(by_speaker) < 3:
            raise SplitError(f"{manifest.corpus_id}: speaker mode needs >= 3 "
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
        for i, s in enumerate(manifest.samples):
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
    """Cycles one split of one corpus in epochs, reshuffling each epoch.

    The order within epoch e is a permutation seeded by (seed, e), so the
    stream is a pure function of (manifest, split, seed) and every sample
    appears exactly once per epoch.
    """

    def __init__(self, manifest: CorpusManifest, split: str = "train", seed: int = 0):
        self.manifest = manifest
        self.samples = manifest.split_samples(split)
        if not self.samples:
            raise InputError(f"{manifest.corpus_id}: no samples in split {split!r}")
        self.seed = seed
        self.epoch = 0
        self._cursor = 0
        self._order = self._epoch_order(0)

    def _epoch_order(self, epoch: int) -> np.ndarray:
        rng = np.random.default_rng(derive_seed(self.seed, epoch))
        return rng.permutation(len(self.samples))

    def take(self, n: int) -> list[Sample]:
        if n < 1:
            raise ConfigError(f"cannot take {n} samples")
        out = []
        while len(out) < n:
            if self._cursor == len(self._order):
                self.epoch += 1
                self._order = self._epoch_order(self.epoch)
                self._cursor = 0
            out.append(self.samples[self._order[self._cursor]])
            self._cursor += 1
        return out


def next_batch(iterator: CorpusIterator, batch_size: int,
               frame_cap: int | None = None) -> Batch:
    """Batch with a True-on-real-frames mask and lazily zero-padded
    features; no re-weighting or re-balancing, samples arrive exactly as
    the epoch stream yields them."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if frame_cap is not None and frame_cap < 1:
        raise ConfigError(f"frame_cap must be >= 1, got {frame_cap}")
    samples = iterator.take(batch_size)
    arrays = [iterator.manifest.features(s)[:frame_cap] for s in samples]
    corpus_id = iterator.manifest.corpus_id
    return Batch(arrays, _frame_mask(arrays, corpus_id), samples, corpus_id)


def _frame_mask(arrays: list[np.ndarray], corpus_id: str) -> np.ndarray:
    """[B, T_max] mask of [T_i, d] arrays, True on real frames; every array
    must have the first one's width d."""
    d = arrays[0].shape[1]
    for a in arrays:
        if a.shape[1] != d:
            raise InputError(f"inconsistent feature dim in corpus "
                             f"{corpus_id}: {a.shape[1]} vs {d}")
    lengths = np.array([a.shape[0] for a in arrays])
    return np.arange(lengths.max()) < lengths[:, None]


def _pad(arrays: list[np.ndarray], pad_mask: np.ndarray) -> np.ndarray:
    features = np.zeros(pad_mask.shape + arrays[0].shape[1:])
    for i, a in enumerate(arrays):
        features[i, :a.shape[0]] = a
    return features


def pad_frames(arrays: list[np.ndarray], corpus_id: str) -> tuple[np.ndarray, np.ndarray]:
    """Stack [T_i, d] arrays into zero-padded [B, T_max, d] features and a
    [B, T_max] mask, True on real frames."""
    pad_mask = _frame_mask(arrays, corpus_id)
    return _pad(arrays, pad_mask), pad_mask


# -- synthetic corpora -------------------------------------------------------

# class index -> corpus-native emotion name, exercising the mapping table
SYNTH_LABELS = ("sadness", "neutral", "calm", "anger", "surprise", "happiness")


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
    duration_lo: float = 0.5
    duration_hi: float = 5.0
    frac_test: float = 0.10
    frac_val: float = 0.10

    def __post_init__(self):
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
        if not (0 < self.duration_lo <= self.duration_hi):
            raise ConfigError(f"bad duration range [{self.duration_lo}, {self.duration_hi}]")
        if self.frame_rate <= 0:
            raise ConfigError(f"frame_rate must be > 0, got {self.frame_rate}")


def synthetic_class_means(class_means_seed: int, d: int, mean_scale: float = 1.0) -> np.ndarray:
    """Six well-separated class mean vectors, shared by every corpus that
    uses the same seed (unit directions scaled to mean_scale)."""
    rng = np.random.default_rng(class_means_seed)
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


def generate_synthetic_corpus(spec: SyntheticSpec, out_dir: str | Path,
                              split_seed: int | None = None) -> Path:
    """Write FEAT files plus a split-assigned manifest; returns the manifest
    path.  Frames = class mean + speaker offset + corpus shift + noise, with
    durations uniform in [duration_lo, duration_hi] seconds."""
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    means = synthetic_class_means(spec.class_means_seed, spec.d, spec.mean_scale)
    shift = corpus_shift_vector(spec)
    rng = np.random.default_rng(derive_seed(spec.seed, 1))

    samples = []
    for spk in range(spec.n_speakers):
        speaker_id = f"{spec.corpus_id}-spk{spk:03d}"
        # scale after drawing so the rng stream is invariant to the std knobs
        offset = rng.normal(0.0, 1.0, spec.d) * spec.speaker_std
        for cls in range(6):
            for rep in range(spec.samples_per_speaker):
                duration = rng.uniform(spec.duration_lo, spec.duration_hi)
                n_frames = max(1, int(round(duration * spec.frame_rate)))
                frames = np.tile(means[cls] + offset + shift, (n_frames, 1))
                frames = frames + rng.normal(0.0, 1.0, frames.shape) * spec.noise_std
                name = f"{speaker_id}-c{cls}-r{rep:03d}.feat"
                write_features(feat_dir / name, frames)
                samples.append(Sample(
                    feature_path=str(feat_dir / name),
                    raw_label=SYNTH_LABELS[cls], mapped_class=cls,
                    speaker_id=speaker_id, corpus_id=spec.corpus_id,
                    split=None, duration_s=n_frames / spec.frame_rate,
                ))

    manifest = CorpusManifest(corpus_id=spec.corpus_id, samples=samples)
    make_splits(manifest, spec.frac_test, spec.frac_val,
                seed=spec.seed if split_seed is None else split_seed, mode="speaker")
    manifest_path = out_dir / f"{spec.corpus_id}.jsonl"
    write_manifest(manifest_path, manifest)
    return manifest_path


def load_corpus_set(path: str | Path) -> list[CorpusManifest]:
    """Corpus set file: JSON array of {corpus_id, manifest_path,
    mapping_overrides_path?}; relative paths resolve against the set file."""
    path = Path(path)
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise IngestError(f"cannot read corpus set {path}: {exc}") from exc
    if not isinstance(entries, list) or not entries:
        raise IngestError(f"{path}: corpus set must be a non-empty JSON array")
    manifests = []
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("corpus_id"), str)
                and isinstance(entry.get("manifest_path"), str)
                and isinstance(entry.get("mapping_overrides_path") or "", str)):
            raise IngestError(f"{path}: entry needs string corpus_id and manifest_path: {entry!r}")
        table = None
        if entry.get("mapping_overrides_path"):
            override = Path(entry["mapping_overrides_path"])
            if not override.is_absolute():
                override = path.parent / override
            table = load_mapping_table(override)
        manifest_path = Path(entry["manifest_path"])
        if not manifest_path.is_absolute():
            manifest_path = path.parent / manifest_path
        manifests.append(load_manifest(manifest_path, table=table,
                                       corpus_id=entry["corpus_id"]))
    return manifests

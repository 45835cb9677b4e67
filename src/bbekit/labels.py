"""Shared six-class label space over arousal (low/high) and valence
(negative/neutral/positive), plus mapping of corpus-native emotion names.

Class index = arousal_code * 3 + valence_code, giving the fixed inventory
la-neg, la-neu, la-pos, ha-neg, ha-neu, ha-pos (indices 0..5).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, IngestError, ParseError, UnmappedLabelError

AROUSAL_LEVELS = ("low", "high")
VALENCE_LEVELS = ("negative", "neutral", "positive")

N_CLASSES = 6


@dataclass(frozen=True)
class SixClass:
    arousal: str
    valence: str

    def __post_init__(self):
        if self.arousal not in AROUSAL_LEVELS:
            raise ConfigError(f"arousal must be one of {AROUSAL_LEVELS}, got {self.arousal!r}")
        if self.valence not in VALENCE_LEVELS:
            raise ConfigError(f"valence must be one of {VALENCE_LEVELS}, got {self.valence!r}")

    @property
    def index(self) -> int:
        return AROUSAL_LEVELS.index(self.arousal) * 3 + VALENCE_LEVELS.index(self.valence)

    @property
    def label(self) -> str:
        return ("la" if self.arousal == "low" else "ha") + "-" + self.valence[:3]

    @classmethod
    def from_index(cls, index: int) -> "SixClass":
        if not 0 <= index < N_CLASSES:
            raise ConfigError(f"class index out of range: {index}")
        return cls(AROUSAL_LEVELS[index // 3], VALENCE_LEVELS[index % 3])


CLASS_NAMES = tuple(SixClass.from_index(i).label for i in range(N_CLASSES))


def normalize(token: str) -> str:
    return token.strip().lower()


# Circumplex placements for emotion names that recur across corpora.  Keys
# are normalized; aliases and the canonical class labels map too, so a
# manifest may carry either native names or already-harmonized labels.
_DEFAULT_TABLE: dict[str, tuple[str, str]] = {
    # low arousal
    "sadness": ("low", "negative"),
    "sad": ("low", "negative"),
    "boredom": ("low", "negative"),
    "bored": ("low", "negative"),
    "fatigue": ("low", "negative"),
    "neutral": ("low", "neutral"),
    "neutrality": ("low", "neutral"),
    "calm": ("low", "positive"),
    "relaxed": ("low", "positive"),
    "relief": ("low", "positive"),
    "contentment": ("low", "positive"),
    # high arousal
    "anger": ("high", "negative"),
    "angry": ("high", "negative"),
    "fear": ("high", "negative"),
    "anxiety": ("high", "negative"),
    "disgust": ("high", "negative"),
    "frustration": ("high", "negative"),
    "stress": ("high", "negative"),
    "surprise": ("high", "neutral"),
    "surprised": ("high", "neutral"),
    "astonishment": ("high", "neutral"),
    "happiness": ("high", "positive"),
    "happy": ("high", "positive"),
    "joy": ("high", "positive"),
    "excitement": ("high", "positive"),
    "excited": ("high", "positive"),
    "elation": ("high", "positive"),
    "amusement": ("high", "positive"),
    "pleasure": ("high", "positive"),
}
for _i in range(N_CLASSES):
    _cls = SixClass.from_index(_i)
    _DEFAULT_TABLE[_cls.label] = (_cls.arousal, _cls.valence)


class MappingTable:
    """Emotion-name to class mapping with per-corpus override support."""

    def __init__(self, entries: dict[str, tuple[str, str]] | None = None):
        table = dict(_DEFAULT_TABLE)
        if entries:
            for raw, (arousal, valence) in entries.items():
                table[normalize(raw)] = (normalize(arousal), normalize(valence))
        self._table = {raw: SixClass(a, v) for raw, (a, v) in table.items()}

    def __contains__(self, raw: str) -> bool:
        return normalize(raw) in self._table

    def map_emotion(self, raw: str) -> SixClass:
        key = normalize(raw)
        if key not in self._table:
            raise UnmappedLabelError([raw])
        return self._table[key]

    def map_all(self, raws) -> list[SixClass]:
        """Map a batch, reporting every unknown label at once."""
        raws = list(raws)
        missing = sorted({r for r in raws if normalize(r) not in self._table})
        if missing:
            raise UnmappedLabelError(missing)
        return [self._table[normalize(r)] for r in raws]


def load_mapping_table(path: str | Path) -> MappingTable:
    """Read ``raw,arousal,valence`` lines layered over the default table.

    Blank lines and ``#`` comments are skipped; a repeated raw label keeps
    the last entry.
    """
    entries: dict[str, tuple[str, str]] = {}
    try:
        lines = Path(path).read_bytes().splitlines()
    except OSError as exc:
        raise IngestError(f"cannot read mapping table {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        try:
            stripped = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text ({exc.reason})", lineno) from exc
        if not stripped or stripped.startswith("#"):
            continue
        parts = [p.strip() for p in stripped.split(",")]
        if len(parts) != 3 or not all(parts):
            raise ParseError(f"expected 'raw,arousal,valence', got {stripped!r}", lineno)
        raw, arousal, valence = parts
        if normalize(arousal) not in AROUSAL_LEVELS:
            raise ParseError(f"unknown arousal level {arousal!r}", lineno)
        if normalize(valence) not in VALENCE_LEVELS:
            raise ParseError(f"unknown valence level {valence!r}", lineno)
        entries[normalize(raw)] = (arousal, valence)
    return MappingTable(entries)

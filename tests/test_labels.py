"""Label space and emotion-name harmonization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbekit.errors import BbekitError, ConfigError, ParseError, UnmappedLabelError
from bbekit.labels import (
    CLASS_NAMES,
    N_CLASSES,
    MappingTable,
    SixClass,
    load_mapping_table,
    normalize,
)


class TestClassSpace:
    def test_inventory(self):
        assert N_CLASSES == 6
        assert CLASS_NAMES == ("la-neg", "la-neu", "la-pos",
                               "ha-neg", "ha-neu", "ha-pos")

    def test_index_bijection(self):
        seen = set()
        for i in range(N_CLASSES):
            cls = SixClass.from_index(i)
            assert cls.index == i
            seen.add((cls.arousal, cls.valence))
        assert len(seen) == 6

    def test_documented_corners(self):
        assert SixClass("low", "negative").index == 0
        assert SixClass("high", "negative").index == 3
        assert SixClass("high", "positive").index == 5

    def test_index_formula(self):
        # index = arousal * 3 + valence
        assert SixClass("low", "positive").index == 0 * 3 + 2
        assert SixClass("high", "neutral").index == 1 * 3 + 1

    def test_invalid_levels(self):
        with pytest.raises(ConfigError):
            SixClass("medium", "negative")
        with pytest.raises(ConfigError):
            SixClass("low", "angry")
        with pytest.raises(ConfigError):
            SixClass.from_index(6)
        with pytest.raises(ConfigError):
            SixClass.from_index(-1)


class TestDefaultMapping:
    def test_documented_examples(self):
        table = MappingTable()
        assert table.map_emotion("Anger").index == 3
        assert table.map_emotion("neutral").index == 1
        assert table.map_emotion("sadness").index == 0
        assert table.map_emotion("calm").index == 2
        assert table.map_emotion("surprise").index == 4
        assert table.map_emotion("happiness").index == 5

    def test_case_and_whitespace_insensitive(self):
        table = MappingTable()
        assert table.map_emotion("  ANGER ").index == table.map_emotion("anger").index

    def test_unknown_label(self):
        table = MappingTable()
        with pytest.raises(UnmappedLabelError) as exc:
            table.map_emotion("saudade")
        assert "saudade" in str(exc.value)

    def test_map_all_reports_every_miss(self):
        table = MappingTable()
        with pytest.raises(UnmappedLabelError) as exc:
            table.map_all(["anger", "zzz", "joy", "aaa", "zzz"])
        assert exc.value.labels == ["aaa", "zzz"]

    def test_map_all_accepts_generators(self):
        table = MappingTable()
        out = table.map_all(lbl for lbl in ["anger", "joy"])
        assert [c.index for c in out] == [3, 5]

    def test_canonical_labels_round_trip(self):
        table = MappingTable()
        for i in range(N_CLASSES):
            assert table.map_emotion(CLASS_NAMES[i]).index == i

    @given(index=st.integers(0, 5),
           prefix=st.text(alphabet=" \t", max_size=3),
           suffix=st.text(alphabet=" \t", max_size=3),
           upper=st.booleans())
    def test_canonical_idempotent_under_noise(self, index, prefix, suffix, upper):
        name = CLASS_NAMES[index]
        noisy = prefix + (name.upper() if upper else name) + suffix
        assert MappingTable().map_emotion(noisy).index == index

    def test_contains(self):
        table = MappingTable()
        assert "JOY " in table
        assert "saudade" not in table


class TestOverrides:
    def test_constructor_overrides(self):
        table = MappingTable({"Saudade": ("Low", "Negative")})
        assert table.map_emotion("saudade").index == 0
        assert table.map_emotion("anger").index == 3  # defaults still present

    def test_override_replaces_default(self):
        table = MappingTable({"surprise": ("high", "positive")})
        assert table.map_emotion("surprise").index == 5


class TestMappingFiles:
    def write(self, tmp_path, text):
        path = tmp_path / "map.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_empty_file_gives_defaults(self, tmp_path):
        table = load_mapping_table(self.write(tmp_path, ""))
        assert table.map_emotion("anger").index == 3

    def test_new_entry(self, tmp_path):
        table = load_mapping_table(self.write(tmp_path, "ecstasy,high,positive\n"))
        assert table.map_emotion("ecstasy").index == 5

    def test_comments_and_blanks_skipped(self, tmp_path):
        text = "# per-corpus overrides\n\n  # another comment\npanic,high,negative\n"
        table = load_mapping_table(self.write(tmp_path, text))
        assert table.map_emotion("panic").index == 3

    def test_duplicate_keeps_last(self, tmp_path):
        text = "panic,low,negative\npanic,high,negative\n"
        table = load_mapping_table(self.write(tmp_path, text))
        assert table.map_emotion("panic").index == 3

    def test_case_variants_keep_the_last_entry(self, tmp_path):
        # the repeats are keyed by their normalized name, so a variant that
        # comes back after another one still wins
        text = "Joy,high,positive\njoy,low,negative\nJoy,low,neutral\n"
        table = load_mapping_table(self.write(tmp_path, text))
        assert table.map_emotion("joy") == SixClass("low", "neutral")
        assert table.map_emotion(" JOY ") == SixClass("low", "neutral")

    def test_not_utf8_reports_file_and_line(self, tmp_path):
        path = self.write(tmp_path, "panic,high,negative\n")
        path.write_bytes(path.read_bytes() + b"caf\xe9,low,positive\n")
        with pytest.raises(ParseError) as exc:
            load_mapping_table(path)
        assert exc.value.line == 2
        assert "map.csv" in str(exc.value)

    def test_malformed_line_reports_number(self, tmp_path):
        path = self.write(tmp_path, "panic,high,negative\noops-no-commas\n")
        with pytest.raises(ParseError) as exc:
            load_mapping_table(path)
        assert exc.value.line == 2

    def test_bad_arousal_token(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            load_mapping_table(self.write(tmp_path, "panic,extreme,negative\n"))
        assert exc.value.line == 1

    def test_bad_valence_token(self, tmp_path):
        with pytest.raises(ParseError):
            load_mapping_table(self.write(tmp_path, "panic,high,sour\n"))

    def test_empty_field_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_mapping_table(self.write(tmp_path, "panic,,negative\n"))


TOKENS = st.sampled_from(["low", "high", "negative", "neutral", "positive", "Joy", " joy ",
                          "", "#", ",", "\x00", "\r", "\x85", "\u2028", "\xa0", "ı", "İ"])
LINES = st.one_of(
    st.binary(max_size=40),
    st.text(max_size=40).map(lambda text: text.encode("utf-8")),
    st.lists(TOKENS, min_size=1, max_size=5).map(lambda ts: ",".join(ts).encode("utf-8")),
    st.tuples(st.text(min_size=1, max_size=10), st.sampled_from(["low", "HIGH "]),
              st.sampled_from(["negative", " Neutral", "positive"])).map(
        lambda parts: ",".join(parts).encode("utf-8")),
    st.just(b"x" * 300_000 + b",low,neutral"),
    st.just(b",".join([b"\xff\xfe"] * 3)),
)


class TestMappingFileFuzz:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(lines=st.lists(LINES, max_size=6),
           ends=st.lists(st.sampled_from([b"\n", b"\r", b"\r\n", b"\x00"]),
                         min_size=6, max_size=6))
    def test_arbitrary_bytes_only_raise_bbekit_errors(self, tmp_path_factory, lines, ends):
        path = tmp_path_factory.getbasetemp() / "mapping-fuzz.csv"
        path.write_bytes(b"".join(line + end for line, end in zip(lines, ends)))
        try:
            load_mapping_table(path)
        except BbekitError:
            pass


class TestNormalize:
    def test_examples(self):
        assert normalize("  Anger\t") == "anger"
        assert normalize("JOY") == "joy"

"""Arbitrary bytes parse to games or fail with a line and field diagnostic.

A hypothesis fuzzer feeds `parse_event_file` random bytes, and byte flips
and truncations of a valid CSV and JSONL file. The only allowed outcomes
are a list of games or an `IngestError` of the form `line N: field '...'`.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

import scoredyn as sd
from scoredyn.cli import main
from scoredyn.ingest import IngestError, render_event_file

DIAGNOSTIC = re.compile(r"^line \d+: field '")

GAMES = sd.ideal_corpus(sd.builtin_config("nba"), 0.01, n_games=3, seed=5)
VALID = {fmt: render_event_file(GAMES, fmt).encode("utf-8") for fmt in ("csv", "jsonl")}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def parse_bytes(workdir, data: bytes, fmt: str):
    path = workdir / f"input.{fmt}"
    path.write_bytes(data)
    try:
        games = sd.parse_event_file(path)
    except IngestError as exc:
        assert DIAGNOSTIC.match(str(exc)), str(exc)
        return None
    assert all(isinstance(game, sd.GameLog) for game in games)
    return games


@st.composite
def damaged(draw, valid: bytes):
    data = bytearray(valid)
    for _ in range(draw(st.integers(0, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))) :]
    return bytes(data)


FORMATS = st.sampled_from(["csv", "jsonl"])


@given(FORMATS, st.binary(max_size=300))
@settings(max_examples=150, deadline=None)
def test_random_bytes_give_games_or_a_diagnostic(workdir, fmt, data):
    parse_bytes(workdir, data, fmt)


@given(FORMATS.flatmap(lambda fmt: st.tuples(st.just(fmt), damaged(VALID[fmt]))))
@settings(max_examples=300, deadline=None)
def test_flipped_and_truncated_files_give_games_or_a_diagnostic(workdir, case):
    fmt, data = case
    parse_bytes(workdir, data, fmt)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_invalid_utf8_names_the_line_of_the_first_bad_byte(tmp_path, fmt, newline):
    lines = VALID[fmt].split(b"\n")
    lines[2] = lines[2][:5] + b"\xff" + lines[2][5:]
    path = tmp_path / f"games.{fmt}"
    path.write_bytes(newline.join(lines))
    with pytest.raises(IngestError, match=r"^line 3: field 'encoding': not UTF-8"):
        sd.parse_event_file(path)


def test_jsonl_integer_of_too_many_digits_is_a_diagnostic(tmp_path):
    path = tmp_path / "games.jsonl"
    path.write_bytes(VALID["jsonl"] + b'{"t": 1' + b"0" * 5000 + b"}\n")
    with pytest.raises(IngestError, match=r"^line \d+: field 'json': "):
        sd.parse_event_file(path)


def test_cli_reports_invalid_utf8_with_line_and_field(tmp_path, capsys):
    path = tmp_path / "games.csv"
    path.write_bytes(VALID["csv"].replace(b"\n", b"\n\xff", 1))
    assert main(["fit", "--in", str(path), "--sport", "nba", "--out", str(tmp_path / "m.json")]) == 1
    assert "error: line 2: field 'encoding': not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "load, context", [(sd.load_model, "model artifact"), (sd.load_config, "sport config")]
)
def test_invalid_utf8_artifact_names_its_kind(tmp_path, load, context):
    path = tmp_path / "artifact.json"
    path.write_bytes(b'{"schema_version": "1.0", "sport_id": "\xff"}\n')
    with pytest.raises(ValueError, match=rf"^{context}: not UTF-8"):
        load(path)

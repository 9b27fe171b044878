"""The columnar parser against a per-record reference parser, and fuzzing.

`reference_parse` is the record-by-record parser that the columnar
`parse_event_file` replaced: one object per row, a dict of records per
game, a dict per second for the same-second merge and one validated
`GameLog(...)` per game. On files without blank lines or JSON floats
(where the columnar parser deliberately differs: physical line numbers,
no truncation) both must give the same games or the same error.
"""

import csv
import io
import json
import re
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scoredyn as sd
from scoredyn.ingest import CSV_COLUMNS, IngestError, _resolve_sport

TINY = sd.SportConfig("custom", 100, (100,), {1: 1.0}, 10)
CONFIGS = {"tiny": TINY}
_ALIASES = {"r": "r", "b": "b", "home": "r", "away": "b"}


# --------------------------------------------------------------------------
# Reference: the record-by-record parser
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Record:
    sport: str
    game_id: str
    team: str
    t: int
    points: int
    line: int


def _fail(line, field, message):
    return IngestError(f"line {line}: field '{field}': {message}")


def _coerce(raw, line):
    for field in CSV_COLUMNS:
        if field not in raw or raw[field] in (None, ""):
            raise _fail(line, field, "missing value")
    for field in ("sport", "game_id", "team"):
        if not isinstance(raw[field], str):
            raise _fail(line, field, f"expected a string, got {type(raw[field]).__name__}")
    team_tag = raw["team"].strip().lower()
    if team_tag not in _ALIASES:
        raise _fail(line, "team", f"unknown team tag {raw['team']!r} (expected r/b or home/away)")
    try:
        t = int(raw["t"])
    except (TypeError, ValueError):
        raise _fail(line, "t", f"not an integer second: {raw['t']!r}") from None
    if t < 0:
        raise _fail(line, "t", f"negative time {t}")
    try:
        points = int(raw["points"])
    except (TypeError, ValueError):
        raise _fail(line, "points", f"not an integer: {raw['points']!r}") from None
    if points <= 0:
        raise _fail(line, "points", f"points must be positive, got {points}")
    sport, game_id = raw["sport"].strip(), raw["game_id"].strip()
    return _Record(sport, game_id, _ALIASES[team_tag], t, points, line)


def _csv_records(text):
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != list(CSV_COLUMNS):
        raise IngestError(
            f"line 1: field 'header': expected columns {','.join(CSV_COLUMNS)}, "
            f"got {reader.fieldnames}"
        )
    for line, row in enumerate(reader, start=2):
        if None in row or any(v is None for v in row.values()):
            raise _fail(line, "row", f"wrong number of fields: {row}")
        yield _coerce(row, line)


def _jsonl_records(text):
    for line, raw_line in enumerate(text.splitlines(), start=1):
        if not raw_line.strip():
            continue
        try:
            obj = json.loads(raw_line)
        except json.JSONDecodeError as exc:
            raise _fail(line, "json", str(exc)) from None
        if not isinstance(obj, dict):
            raise _fail(line, "json", "record must be an object")
        yield _coerce(obj, line)


def _merge_same_second(records):
    per_second = defaultdict(lambda: {"r": 0, "b": 0})
    for rec in records:
        per_second[rec.t][rec.team] += rec.points
    merged = []
    for t in sorted(per_second):
        net = per_second[t]["r"] - per_second[t]["b"]
        if net:
            merged.append((t, 1 if net > 0 else -1, abs(net)))
    return merged


def reference_parse(path, fmt, configs=None):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    records = _csv_records(text) if fmt == "csv" else _jsonl_records(text)
    by_game, sport_of, resolved = {}, {}, {}
    for rec in records:
        cfg = resolved.get(rec.sport)
        if cfg is None:
            cfg = resolved[rec.sport] = _resolve_sport(rec.sport, rec.line, configs)
        if rec.game_id in sport_of and sport_of[rec.game_id][0] != rec.sport:
            raise _fail(
                rec.line,
                "sport",
                f"game {rec.game_id!r} listed under both "
                f"{sport_of[rec.game_id][0]!r} and {rec.sport!r}",
            )
        sport_of.setdefault(rec.game_id, (rec.sport, cfg))
        by_game.setdefault(rec.game_id, []).append(rec)
    games = []
    for game_id, recs in by_game.items():
        cfg = sport_of[game_id][1]
        merged = _merge_same_second([r for r in recs if r.t <= cfg.regulation_length])
        games.append(
            sd.GameLog(
                game_id,
                cfg.sport_id,
                [m[0] for m in merged],
                [m[1] for m in merged],
                [m[2] for m in merged],
            )
        )
    return games


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

SPORT_TAGS = ["nfl", "NFL", "Nba", "nhl", "tiny", "TINY", "curling"]
TEAM_TAGS = ["r", "b", "home", "away", "R", "Away"]
TIMES = [0, 1, 10, 100, 101, 2880, 2881, 3600, 3601, 10**6]


@st.composite
def record_lists(draw):
    """Records as (sport, game_id, team, t, points): interleaved game ids, a
    mostly consistent mixed-case sport tag per game, many shared seconds
    (so r and b records meet, sometimes netting to zero) and overtime t."""
    game_ids = draw(st.lists(st.sampled_from(["g1", "g2", "g3", "G1", "x"]), max_size=40))
    tags = {gid: draw(st.sampled_from(SPORT_TAGS[:-1])) for gid in sorted(set(game_ids))}
    records = []
    for gid in game_ids:
        sport = tags[gid] if draw(st.integers(0, 19)) else draw(st.sampled_from(SPORT_TAGS))
        team = draw(st.sampled_from(TEAM_TAGS))
        t = draw(st.one_of(st.sampled_from(TIMES), st.integers(0, 3700)))
        records.append((sport, gid, team, t, draw(st.integers(1, 8))))
    return records


def render_csv(records):
    return "".join(f"{','.join(map(str, r))}\n" for r in [CSV_COLUMNS] + records)


def render_jsonl(records):
    return "".join(json.dumps(dict(zip(CSV_COLUMNS, r))) + "\n" for r in records)


RENDER = {"csv": render_csv, "jsonl": render_jsonl}


def outcome(parse, path, fmt):
    try:
        return parse(path, fmt, configs=CONFIGS)
    except IngestError as exc:
        return str(exc)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest")


# --------------------------------------------------------------------------
# Differential test
# --------------------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@given(records=record_lists())
@settings(max_examples=150, deadline=None)
def test_columnar_parser_matches_reference(scratch, fmt, records):
    path = scratch / f"events.{fmt}"
    path.write_text(RENDER[fmt](records), encoding="utf-8")
    got = outcome(sd.parse_event_file, path, fmt)
    assert got == outcome(reference_parse, path, fmt)
    if not isinstance(got, str):  # a corpus, not an error message
        assert isinstance(got, sd.Corpus)
        for holder in [got, *got]:  # the corpus's columns and every game's views on them
            columns = ((holder.times, np.int64), (holder.teams, np.int8), (holder.points, np.int64))
            for column, dtype in columns:
                assert column.dtype == dtype and not column.flags.writeable


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_reference_agrees_on_fixed_cases(tmp_path, fmt):
    records = [
        ("nfl", "g1", "r", 10, 7),
        ("nfl", "g2", "away", 10, 3),
        ("nfl", "g1", "b", 10, 7),  # nets g1's second 10 to zero
        ("NBA", "g3", "home", 2881, 2),  # overtime: g3 keeps no events
        ("nfl", "g2", "home", 10, 1),
        ("nfl", "g1", "R", 3600, 2),
    ]
    path = tmp_path / f"events.{fmt}"
    path.write_text(RENDER[fmt](records), encoding="utf-8")
    games = sd.parse_event_file(path)
    assert games == reference_parse(path, fmt)
    assert [(g.game_id, g.n_events) for g in games] == [("g1", 1), ("g2", 1), ("g3", 0)]
    assert list(games[1].teams) == [-1] and list(games[1].points) == [2]
    path.write_text(RENDER[fmt]([]), encoding="utf-8")  # header only (CSV) or empty (JSONL)
    assert sd.parse_event_file(path) == reference_parse(path, fmt) == []


@pytest.mark.parametrize("field", ["sport", "game_id", "team"])
@pytest.mark.parametrize("value", [5, [1, 2], True])
def test_reference_agrees_on_non_string_jsonl_fields(tmp_path, field, value):
    records = [dict(zip(CSV_COLUMNS, r)) for r in [("nfl", "5", "r", 10, 7)] * 2]
    records[1][field] = value
    path = tmp_path / "events.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    got = outcome(sd.parse_event_file, path, "jsonl")
    assert got == outcome(reference_parse, path, "jsonl")
    assert got.startswith(f"line 2: field '{field}': ")


# --------------------------------------------------------------------------
# Fuzzing: truncated and field-perturbed files
# --------------------------------------------------------------------------

DIAGNOSTIC = re.compile(r"^line \d+: field '")

json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=2),
)
csv_fields = st.one_of(
    st.text(alphabet=st.sampled_from('0123456789-+_. ,"\nabrx\x00'), max_size=8),
    st.integers(-(2**70), 2**70).map(str),
    st.text(max_size=6),
)


def assert_games_or_diagnostic(path, fmt):
    try:
        games = sd.parse_event_file(path, fmt, configs=CONFIGS)
    except IngestError as exc:
        assert DIAGNOSTIC.match(str(exc)), str(exc)
    else:
        assert all(isinstance(g, sd.GameLog) for g in games)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@given(records=record_lists(), cut=st.floats(0, 1))
@settings(max_examples=100, deadline=None)
def test_truncated_file_gives_games_or_diagnostic(scratch, fmt, records, cut):
    text = RENDER[fmt](records)
    path = scratch / f"cut.{fmt}"
    path.write_text(text[: int(cut * len(text))], encoding="utf-8")
    assert_games_or_diagnostic(path, fmt)


@given(records=record_lists(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_perturbed_csv_field_gives_games_or_diagnostic(scratch, records, data):
    rows = [list(map(str, r)) for r in [CSV_COLUMNS] + records]
    i = data.draw(st.integers(0, len(rows) - 1))
    rows[i][data.draw(st.integers(0, 4))] = data.draw(csv_fields)
    path = scratch / "perturbed.csv"
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    assert_games_or_diagnostic(path, "csv")


@given(records=record_lists().filter(bool), data=st.data())
@settings(max_examples=150, deadline=None)
def test_perturbed_jsonl_field_gives_games_or_diagnostic(scratch, records, data):
    objs = [dict(zip(CSV_COLUMNS, r)) for r in records]
    obj = objs[data.draw(st.integers(0, len(objs) - 1))]
    field = data.draw(st.sampled_from(CSV_COLUMNS))
    if data.draw(st.booleans()):
        obj[field] = data.draw(json_values)
    else:
        del obj[field]
    path = scratch / "perturbed.jsonl"
    path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
    assert_games_or_diagnostic(path, "jsonl")

"""The CSV byte tokenizer against the row parser.

`row_parse` is `parse_event_file` as it stood before CSV text was
tokenized and checked in blocks: `csv.reader` over the whole text,
`_record` and the sport checks one row at a time, then the same-second
merge. On any CSV text both must give the same games (ids, sports,
events, dtypes and read-only columns) or the same `IngestError` message.
The block size is patched down, so small files span many blocks and
every row sits near a block boundary.
"""

import csv
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scoredyn as sd
from scoredyn import ingest
from scoredyn.core import GameLog, builtin_config, _BUILTIN_SPECS

FIELD_LIMIT = csv.field_size_limit()


# --------------------------------------------------------------------------
# Oracle: the row parser
# --------------------------------------------------------------------------

CSV_COLUMNS = ("sport", "game_id", "team", "t", "points")
_TEAM_SIGNS = {"r": 1, "b": -1, "home": 1, "away": -1}
_MAX_POINTS = 2**31 - 1


class IngestError(ValueError):
    pass


def _fail(line, field, message):
    return IngestError(f"line {line}: field '{field}': {message}")


def _read_text(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise _fail(before.count(b"\n") + 1, "encoding", f"not UTF-8: {exc.reason}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _integer(value, line, field, what):
    if type(value) in (str, int):
        try:
            return int(value)
        except ValueError:
            pass
    raise _fail(line, field, f"{what}: {value!r}")


def _record(line, row):
    for field, value in zip(CSV_COLUMNS, row):
        if value is None or value == "":
            raise _fail(line, field, "missing value")
    sport, game_id, team, t, points = row
    sign = _TEAM_SIGNS.get(str(team).strip().lower())
    if sign is None:
        raise _fail(line, "team", f"unknown team tag {team!r} (expected r/b or home/away)")
    t = _integer(t, line, "t", "not an integer second")
    if t < 0:
        raise _fail(line, "t", f"negative time {t}")
    points = _integer(points, line, "points", "not an integer")
    if points <= 0:
        raise _fail(line, "points", f"points must be positive, got {points}")
    if points > _MAX_POINTS:
        raise _fail(line, "points", f"points above {_MAX_POINTS}: {points}")
    return str(sport).strip(), str(game_id).strip(), sign, t, points


def _csv_rows(text):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None or [f.strip() for f in header] != list(CSV_COLUMNS):
            raise IngestError(
                f"line 1: field 'header': expected columns {','.join(CSV_COLUMNS)}, got {header}"
            )
        for row in reader:
            if not row:
                continue
            if len(row) != len(CSV_COLUMNS):
                raise _fail(reader.line_num, "row", f"expected 5 fields, got {len(row)}: {row}")
            yield reader.line_num, row
    except csv.Error as exc:
        raise _fail(reader.line_num, "csv", str(exc)) from None


def _resolve_sport(tag, line, configs):
    if configs:
        for key, cfg in configs.items():
            if key.lower() == tag.lower():
                return cfg
    if tag.upper() in _BUILTIN_SPECS:
        return builtin_config(tag)
    raise _fail(line, "sport", f"unknown sport tag {tag!r}")


def row_parse(path, configs=None):
    text = _read_text(path)
    resolved, games = {}, {}
    game_of, times, nets = [], [], []
    for line, row in _csv_rows(text):
        sport, game_id, sign, t, points = _record(line, row)
        cfg = resolved.get(sport)
        if cfg is None:
            cfg = resolved[sport] = _resolve_sport(sport, line, configs)
        index, first_sport, _ = games.setdefault(game_id, (len(games), sport, cfg))
        if first_sport != sport:
            raise _fail(
                line, "sport", f"game {game_id!r} listed under both {first_sport!r} and {sport!r}"
            )
        if t <= cfg.regulation_length:
            game_of.append(index)
            times.append(t)
            nets.append(sign * points)
    game, t, net = (np.array(column, dtype=np.int64) for column in (game_of, times, nets))
    order = np.lexsort((t, game))
    game, t, net = game[order], t[order], net[order]
    first = np.ones(len(t), dtype=bool)
    first[1:] = (game[1:] != game[:-1]) | (t[1:] != t[:-1])
    starts = np.flatnonzero(first)
    net = np.add.reduceat(net, starts)
    keep = net != 0
    game, t, net = game[starts][keep], t[starts][keep], net[keep]
    bounds = np.searchsorted(game, np.arange(len(games) + 1)).tolist()
    return [
        GameLog(game_id, cfg.sport_id, t[a:b], np.sign(net[a:b]), np.abs(net[a:b]))
        for (game_id, (_, _, cfg)), a, b in zip(games.items(), bounds[:-1], bounds[1:])
    ]


# --------------------------------------------------------------------------
# Inputs
# --------------------------------------------------------------------------

TINY = sd.SportConfig("custom", 100, (100,), {1: 1.0}, 10)
CONFIGS = {"tiny": TINY}
HEADER = ",".join(CSV_COLUMNS)

SPORTS = ["nfl", "NBA", " nba ", "nhl", "tiny", "TINY"]
LONG_ID = "abcdefghijklmnopqrstuvwxyz0123"  # 30 bytes
# Ids of one width that differ only at byte 4, 8, ..., 24 of the id (the
# tokenizer compares "sport,game_id" 8 bytes at a time), and past byte 24.
IDS = ["g1", "g2", " g1", "g1 ", "é☃", "g\x00", "٣", LONG_ID,
       *(LONG_ID[:k] + "_" + LONG_ID[k + 1:] for k in (4, 8, 12, 16, 20, 24, 28))]
TEAMS = ["r", "b", "home", "away", " R ", "Away"]
HEADERS = [
    " sport , game_id,team,t , points", '"sport",game_id,team,t,points', "sport,game_id,team,t", ""
]
TOO_LONG = "7".rjust(FIELD_LIMIT + 1)

# One odd value in one column per entry, each as likely as the others.
ODD_FIELDS = [
    *((0, v) for v in ["", "curling", "nfl", "NFL", "nfl\x00", "n\nfl"]),
    *((1, v) for v in ["", " ", "a,b", 'q"x', "n\nl", "x" * FIELD_LIMIT, TOO_LONG]),
    *((2, v) for v in ["", "visitor", "r\nb", TOO_LONG]),
    *((3, v) for v in ["", "-1", "-0", " 10 ", "+7", "1_0", "٣٣", "²", "1e3", "x", "0x10",
                       str(2**63 - 1), str(2**63), str(2**64 + 5), "1" * 5000, TOO_LONG]),
    *((4, v) for v in ["", "0", "-1", "+7", "1_0", "٣", "2.0", "2147483647", "2147483648",
                       str(2**63), TOO_LONG]),
]
ROW_EDITS = ["drop a field", "add a field", "shift a field to the row before", "blank line"]


def quoted(field):
    return '"' + field.replace('"', '""') + '"'


@st.composite
def csv_texts(draw):
    """CSV text over a few games: valid rows with up to three edits, each
    an odd field value (missing, padded, +7, 1_0, non-ASCII digits, NULs,
    a second sport, a field at or past csv's size limit, t beyond int64),
    a ragged row, a row whose extra field makes up for the next row's
    missing one, or a blank line. Fields with a comma, quote or newline
    are quoted, and some files quote every field or none."""
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=4, unique=True))
    sport_of = {game_id.strip(): draw(st.sampled_from(SPORTS)) for game_id in ids}
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        game_id = draw(st.sampled_from(ids))
        t = draw(st.one_of(st.integers(0, 3700), st.sampled_from([0, 100, 101, 2880, 2**64 + 5])))
        team, points = draw(st.sampled_from(TEAMS)), draw(st.integers(1, 8))
        rows.append([sport_of[game_id.strip()], game_id, team, str(t), str(points)])
    blank_after = set()
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(ODD_FIELDS + ROW_EDITS * 4))
        if edit == "drop a field" and rows[i]:
            del rows[i][draw(st.integers(0, len(rows[i]) - 1))]
        elif edit == "add a field":
            rows[i].append(draw(st.sampled_from(["", "7", "x"])))
        elif edit == "shift a field to the row before" and i + 1 < len(rows) and rows[i + 1]:
            rows[i].append(rows[i + 1].pop(0))
        elif edit == "blank line":
            blank_after.add(i)
        elif isinstance(edit, tuple) and edit[0] < len(rows[i]):
            rows[i][edit[0]] = edit[1]
    quoting = draw(st.sampled_from(["minimal", "minimal", "minimal", "all", "none"]))
    lines = []
    for i, row in enumerate(rows):
        lines.append(",".join(
            quoted(f) if quoting == "all" or (quoting == "minimal" and any(c in f for c in ',"\n'))
            else f
            for f in row
        ))
        lines.extend([""] * (i in blank_after))
    header = draw(st.sampled_from([HEADER] * 12 + HEADERS))
    ending = draw(st.sampled_from(["\n", "\n", "", "\n\n"]))
    newline = draw(st.sampled_from(["\n"] * 8 + ["\r\n", "\r"]))
    return newline.join([header] + lines) + ending


def outcome(parse, path, configs):
    try:
        games = parse(path, configs=configs)
    except (IngestError, ingest.IngestError) as exc:
        return str(exc)
    holders = list(games) + ([games] if isinstance(games, sd.Corpus) else [])
    for holder in holders:  # every game, and the parsed corpus's own columns
        columns = ((holder.times, np.int64), (holder.teams, np.int8), (holder.points, np.int64))
        for column, dtype in columns:
            assert column.dtype == dtype and not column.flags.writeable
    return [
        (g.game_id, g.sport_id, g.times.tolist(), g.teams.tolist(), g.points.tolist())
        for g in games
    ]


def new_parse(path, configs=None):
    return sd.parse_event_file(path, "csv", configs=configs)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks")


# --------------------------------------------------------------------------
# Differential tests
# --------------------------------------------------------------------------

@given(
    text=csv_texts(),
    configs=st.sampled_from([CONFIGS, None]),
    block_rows=st.sampled_from([1, 2, 3, 7, 2048]),
)
@settings(max_examples=400, deadline=None)
def test_block_parser_matches_row_parser(workdir, text, configs, block_rows):
    path = workdir / "events.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(row_parse, path, configs)
    with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
        assert outcome(new_parse, path, configs) == expected


VALID_ROW = ["nfl", "g1", "r", "10", "7"]
CASES = {
    "six fields then four": "nfl,g1,r,10,7,nfl\ng1,r,20,3\n",
    "seven fields then three": "nfl,g1,r,10,7,x,nba\nr,20,3\n",
    "unquoted field past the size limit": f"nfl,g1,r,{TOO_LONG},7\n",
    "fields at the size limit": f"nfl,{'x' * FIELD_LIMIT},r,{'7'.rjust(FIELD_LIMIT)},7\n",
    "largest points": "nfl,g1,r,10,2147483647\nnfl,g1,r,10,2147483647\n",
    "points past 2**31 - 1": "nfl,g1,r,10,7\nnfl,g1,r,20,2147483648\n",
    "zero points": "nfl,g1,r,10,0\n",
    "overtime t beyond int64": f"nfl,g1,r,{2**64 + 5},7\nnfl,g1,b,{2**63},3\nnfl,g1,r,10,2\n",
    "a game under two sports": "nfl,g1,r,10,7\nnfl,g2,r,10,7\nnba,g1,b,20,2\n",
    "a game's first row under a second sport": "nba,g1,r,10,2\nnfl,g1,b,20,7\n",
    "blank lines": "\nnfl,g1,r,10,7\n\nnfl,g1,b,20,3\n\n\n\nnfl,g1,r,30,2\n\n",
    "NUL in an id": "nfl,g\x00,r,10,7\nnfl,g\x00,b,20,3\n",
    "quoted ids": 'nfl,"a,b",r,10,7\nnfl,"n\nl",b,20,3\n\nnfl,"q""x",r,30,2\n',
    "padded fields": " nfl , g1 , r , 10 , 7 \nnfl,g1, Away ,20,3\n",
    "+7, 1_0 and non-ASCII digits": "nfl,g1,r,+7,1_0\nnfl,g1,b,٣,2\n",
    "custom configs": "tiny,g1,r,50,1\ntiny,g1,r,150,1\nTINY,g2,b,5,1\n",
    "ids that differ only after byte 8, 16 or 24": "nfl,g1,r,1,1\n" + "".join(
        f"nfl,{LONG_ID},r,{k},7\nnfl,{LONG_ID[:k]}_{LONG_ID[k + 1:]},b,{k},3\n"
        f"nfl,{LONG_ID[:k]}_{LONG_ID[k + 1:]},r,{k + 1},2\n"
        for k in range(len(LONG_ID))
    ),
    "ids longer than 24 bytes": f"nba,{LONG_ID * 5},r,10,2\nnba,{LONG_ID * 5},b,20,3\n"
    f"nba,{LONG_ID * 5}x,r,30,1\nnba,{LONG_ID * 5},r,40,2\n",
    "rows of two games interleaved": "nfl,g1,r,10,7\nnfl,g2,b,10,3\nnfl,g1,b,20,3\n"
    "nfl,g2,r,30,7\nnfl,g1,r,30,2\nnfl,g2,b,40,3\n",
    "no final newline": "nfl,g1,r,10,7\nnfl,g1,b,20,3",
    "non-ASCII id within the limit in characters, past it in bytes":
        f"nfl,{'é' * FIELD_LIMIT},r,10,7\nnfl,{'é' * FIELD_LIMIT},b,20,3\n",
    "t with a byte just past 9": "nfl,g1,r,10,7\nnfl,g1,b,2:,3\n",
    "points with a byte just below 0": "nfl,g1,r,10,7\nnfl,g1,b,20,/\n",
    "t with leading zeros": "nfl,g1,r,0010,7\nnfl,g1,b,00,3\nnfl,g1,r,000000000000000030,2\n"
    "nfl,g1,b,40,007\n",
    **{
        f"missing {column}": ",".join("" if i == k else v for i, v in enumerate(VALID_ROW)) + "\n"
        for k, column in enumerate(CSV_COLUMNS)
    },
}


@pytest.mark.parametrize("block_rows", [1, 2, 2048])
@pytest.mark.parametrize("case", sorted(CASES))
def test_block_parser_matches_row_parser_on_fixed_cases(tmp_path, case, block_rows):
    path = tmp_path / "events.csv"
    path.write_text(HEADER + "\n" + CASES[case], encoding="utf-8")
    with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
        assert outcome(new_parse, path, CONFIGS) == outcome(row_parse, path, CONFIGS)


NBA_TEXT = ingest.render_event_file(sd.ideal_corpus(sd.builtin_config("nba"), 0.0437, 40, seed=3))

DAMAGE = {
    "missing": lambda row: row[:2] + [""] + row[3:],
    "t": lambda row: row[:3] + ["x"] + row[4:],
    "points": lambda row: row[:4] + ["0"],
    "ragged": lambda row: row + ["7"],
    "two sports": lambda row: ["nfl"] + row[1:],
    "quoted": lambda row: row[:1] + ['"a,b"'] + row[2:4] + ["-3"],
}


def block_starts(lines):
    """The 0-based line of each block's first row, cut as the parser cuts
    it (no line here is blank and no field holds a line end, so a line
    is a row)."""
    return list(range(1, len(lines) - 1, ingest._BLOCK_ROWS))


MULTI_BLOCK_ROWS = 512  # NBA_TEXT spans at least 3 blocks of this many lines


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("where", ["last row of block 1", "first row of block 2", "last block"])
@mock.patch.object(ingest, "_BLOCK_ROWS", MULTI_BLOCK_ROWS)
def test_first_error_in_a_later_block_names_its_line(tmp_path, damage, where):
    lines = NBA_TEXT.split("\n")
    starts = block_starts(lines)
    assert len(starts) >= 3
    position = {"last row of block 1": starts[1] - 1, "first row of block 2": starts[1]}
    line = position.get(where, starts[-1])  # 0-based
    lines[line] = ",".join(DAMAGE[damage](lines[line].split(",")))
    lines[-2] = ",".join(DAMAGE["t"](lines[-2].split(",")))  # a later error must not win
    path = tmp_path / "events.csv"
    path.write_text("\n".join(lines), encoding="utf-8")
    message = outcome(row_parse, path, None)
    assert isinstance(message, str) and outcome(new_parse, path, None) == message
    if damage != "two sports":
        assert message.startswith(f"line {line + 1}: ")


@mock.patch.object(ingest, "_BLOCK_ROWS", MULTI_BLOCK_ROWS)
def test_valid_multi_block_file_matches(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(NBA_TEXT, encoding="utf-8")
    assert len(block_starts(NBA_TEXT.split("\n"))) >= 3
    assert outcome(new_parse, path, None) == outcome(row_parse, path, None)

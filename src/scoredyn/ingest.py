"""Event-log ingestion: CSV/JSONL parsing, preprocessing, corpus validation.

The canonical interchange format is CSV with header
``sport,game_id,team,t,points`` (UTF-8, LF line endings), or JSONL with
one object per record using the same field names. Team tags ``home`` and
``away`` map to ``r`` and ``b``. CSV fields are read by position.
``sport``, ``game_id`` and ``team`` must be strings: JSONL rejects any
other JSON type, so ``5`` and ``"5"`` never read as one game id. ``t`` and
``points`` must be integers: decimal strings in CSV; JSON integers or
integer strings in JSONL (floats and booleans are rejected). ``points``
must lie in [1, 2**31 - 1], so per-second sums stay exact in int64.

CSV is tokenized on the file's bytes with numpy, in blocks of 4,096
lines, when csv.reader would split it on commas and line feeds alone: the
file holds no quote and no NUL, and every non-empty line holds five
non-empty fields within csv's size limit. Each check (team tags, plain
decimal ``t`` and ``points`` and their ranges, sport tags, one sport per
game) runs once per block over whole columns, or once per distinct team
tag or run of rows of one game. Any other file, and JSONL, is read by the
row path: csv.reader or ``json.loads`` one line at a time, each row
checked on its own.

The first bad row in file order fails, naming its physical line (blank
lines count) and the field: ``line N: field 'x': ...``; a byte that is not
UTF-8 fails as field ``encoding`` on its line. The tokenizer raises
nothing: a file it does not take (a signed, padded or non-ASCII number
among them) goes to the row path, which names the first bad row.

Preprocessing:
  * overtime filter: records with t beyond regulation are dropped before
    any int64 conversion (their t may not fit); the rest go to flat
    columns (game index, t, signed points),
  * same-second merge, over the whole file at once: records of one game
    at one second are summed into one signed net (one sort +
    `np.add.reduceat`); a net of zero drops the second entirely.
Games come out in order of first occurrence, as one `Corpus` of those
columns.

The writer quotes a CSV game id that holds a comma, a quote or a line end,
and rejects an id that would not read back as itself. It formats each
distinct record tail once per file, from one table keyed by (signed
points, t); a slice whose huge t or points would take that table past
the package's memory bound has each record's tail formatted on its own.
It renders one slice of at most 1,024 games at a time and writes it in
strings of 64 games into a temp file that replaces the target only when
every slice is written. Given an iterator of corpora
(`simulate_batches`), it holds one at a time, so writing a simulated
corpus takes the memory of one batch, not of the whole corpus and its
text.
"""

from __future__ import annotations

import csv
import io
import json
import os
from itertools import chain
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    _WORK_WORDS,
    BUILTIN_SPORTS,
    Corpus,
    GameLog,
    SportConfig,
    _integer,
    _number,
    _Record,
    _string,
    _team,
    atomic_write_text,  # noqa: F401  (kept as a module attribute for tracing hooks)
    atomic_writer,
    builtin_config,
)

CSV_COLUMNS = ("sport", "game_id", "team", "t", "points")
FORMATS = ("csv", "jsonl")  # the event-file formats

_TEAM_SIGNS = {"r": 1, "b": -1, "home": 1, "away": -1}

_MAX_POINTS = 2**31 - 1  # sums of up to 2**32 records stay exact in int64

_INT64_MAX = int(np.iinfo(np.int64).max)

_BLOCK_ROWS = 4096  # CSV lines per block of the byte tokenizer
_PAD = 8  # zero bytes after a file's bytes, so an 8-byte word read at any offset stays inside
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)  # k low bytes of a word
_T_DIGITS, _POINTS_DIGITS = 18, 10  # the widest t and points the tokenizer reads (10**18 < 2**63)
_COMMA, _LINE_FEED = ord(","), ord("\n")
_GAMES_PER_WRITE = 64  # games per string written: few writes, not the memory of a slice's text
_NO_ROWS = (np.empty(0, dtype=np.int64),) * 3  # (game index, t, signed points) of no rows


class IngestError(ValueError):
    """Malformed or inconsistent event-log input."""


def _fail(line: int, field: str, message: str) -> IngestError:
    return IngestError(f"line {line}: field '{field}': {message}")


def _read(path: str | os.PathLike) -> tuple[bytearray, int]:
    """The file's bytes with line ends as in text mode ("\r\n" and "\r" read
    as "\n"), followed by _PAD zero bytes, and their number without the
    padding. Bytes that are not UTF-8 raise, naming their line."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        data = bytearray(size + _PAD)  # read in place: the padding costs no copy of the file
        size = fh.readinto(memoryview(data)[:size])
        del data[size + _PAD :]  # the file shrank since fstat
        if rest := fh.read():  # the file grew, or has no size (a pipe)
            data[size:] = rest + bytes(_PAD)
            size += len(rest)
    if not data.isascii():
        try:
            str(memoryview(data)[:size], "utf-8")
        except UnicodeDecodeError as exc:
            before = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            raise _fail(before.count(b"\n") + 1, "encoding", f"not UTF-8: {exc.reason}") from None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        size = len(data) - _PAD
    return data, size


def _parsed_integer(value, line: int, field: str, what: str) -> int:
    """An integer from a string or a JSON integer; floats and bools are rejected."""
    if type(value) in (str, int):
        try:
            return int(value)
        except ValueError:
            pass
    raise _fail(line, field, f"{what}: {value!r}")


def _record(line: int, row: Sequence) -> tuple[str, str, int, int, int]:
    """(sport, game id, team sign, t, points) of one row, in CSV_COLUMNS order."""
    for field, value in zip(CSV_COLUMNS, row):
        if value is None or value == "":
            raise _fail(line, field, "missing value")
    for field, value in zip(CSV_COLUMNS[:3], row):  # JSONL values may be of any type
        try:
            _string(value)
        except TypeError as exc:
            raise _fail(line, field, str(exc)) from None
    sport, game_id, team, t, points = row
    sign = _TEAM_SIGNS.get(team.strip().lower())
    if sign is None:
        raise _fail(line, "team", f"unknown team tag {team!r} (expected r/b or home/away)")
    t = _parsed_integer(t, line, "t", "not an integer second")
    if t < 0:
        raise _fail(line, "t", f"negative time {t}")
    points = _parsed_integer(points, line, "points", "not an integer")
    if points <= 0:
        raise _fail(line, "points", f"points must be positive, got {points}")
    if points > _MAX_POINTS:
        raise _fail(line, "points", f"points above {_MAX_POINTS}: {points}")
    return sport.strip(), game_id.strip(), sign, t, points


def _is_header(fields: Sequence[str] | None) -> bool:
    return fields is not None and [f.strip() for f in fields] == list(CSV_COLUMNS)


def _csv_rows(text: str) -> Iterator[tuple[int, list[str]]]:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if not _is_header(header):
            raise IngestError(
                f"line 1: field 'header': expected columns {','.join(CSV_COLUMNS)}, got {header}"
            )
        for row in reader:
            if not row:  # blank line
                continue
            if len(row) != len(CSV_COLUMNS):
                raise _fail(reader.line_num, "row", f"expected 5 fields, got {len(row)}: {row}")
            yield reader.line_num, row
    except csv.Error as exc:
        raise _fail(reader.line_num, "csv", str(exc)) from None


def _jsonl_rows(text: str) -> Iterator[tuple[int, list]]:
    for line, raw_line in enumerate(text.split("\n"), start=1):
        if not raw_line.strip():
            continue
        try:
            obj = json.loads(raw_line)
        except ValueError as exc:  # JSONDecodeError, or an int of too many digits
            raise _fail(line, "json", str(exc)) from None
        except RecursionError:
            raise _fail(line, "json", "nested too deeply") from None
        if not isinstance(obj, dict):
            raise _fail(line, "json", "record must be an object")
        yield line, [obj.get(field) for field in CSV_COLUMNS]


def _decimal(view: np.ndarray, ends: np.ndarray, widths: np.ndarray, most: int):
    """The fields of `widths` bytes that end before `ends` as int64, read
    one digit column at a time, the most significant first; None unless
    every field is plain ASCII digits and none is wider than `most`."""
    widest, narrowest = int(widths.max()), int(widths.min())
    if widest > most:
        return None
    value = np.zeros(len(ends), dtype=np.int64)
    for k in reversed(range(widest)):  # the digits worth 10**k
        digit = view[ends - (k + 1)] - 48  # uint8: a byte below "0" wraps past 9
        if k >= narrowest:
            digit[widths <= k] = 0
        if digit.max() > 9:
            return None
        value *= 10  # in int64, so no digit is ever multiplied in uint8
        value += digit
    return value


def _repeats(words: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Whether each row's `widths` bytes from `starts` are those of the row
    before (False for the first row), compared 8 bytes at a time: over
    every row while the words lie inside every row's bytes, then over the
    rows that still agree, with the bytes past a row's end masked off."""
    same = np.zeros(len(starts), dtype=bool)
    same[1:] = widths[1:] == widths[:-1]
    offset, shortest = 0, int(widths.min())
    while offset + 8 <= shortest:
        word = words[starts + offset]
        same[1:] &= word[1:] == word[:-1]
        offset += 8
    rows = np.flatnonzero(same & (widths > offset))
    while len(rows):
        left = widths[rows] - offset
        word = words[starts[rows] + offset] ^ words[starts[rows - 1] + offset]
        differ = word & _LOW_BYTES[np.minimum(left, 8)] != 0
        same[rows[differ]] = False
        rows = rows[~differ & (left > 8)]
        offset += 8
    return same


def _team_signs(keys: np.ndarray, sign_of: dict[int, int | None]) -> np.ndarray | None:
    """The sign of each row's team tag, from its key: its at most 8 bytes
    as a little-endian word (a tag holds no NUL, so no two share a key);
    `sign_of` caches each distinct key's. None if a tag is unknown."""
    distinct, row_key = np.unique(keys, return_inverse=True)
    signs = []
    for key in distinct.tolist():
        if key not in sign_of:
            tag = key.to_bytes(8, "little").rstrip(b"\0").decode("utf-8")
            sign_of[key] = _TEAM_SIGNS.get(tag.strip().lower())
        if sign_of[key] is None:
            return None
        signs.append(sign_of[key])
    return np.array(signs, dtype=np.int64)[row_key]


def _csv_columns(
    data: bytearray,
    size: int,
    configs: Mapping[str, SportConfig] | None,
    games: dict[str, tuple[int, str, SportConfig]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(game index, t, signed points) int64 columns of the regulation rows
    of the CSV bytes `data[:size]` (see `_read`), or None if the row path
    must read them.

    The tokenizer takes a file without a quote or a NUL, with the right
    header, whose non-empty lines each hold exactly four commas between
    non-empty fields no wider than csv's limit: csv.reader splits such a
    file on commas and line feeds alone. It reads _BLOCK_ROWS lines at a
    time. ``t`` and ``points`` must be plain ASCII digits and team tags at
    most 8 bytes. Each distinct team tag resolves once per file; sport and
    game id once per run of rows with the same raw ``sport,game_id``
    bytes, through `_game` as the row path resolves them, so `games` fills
    in order of first occurrence. Any other input, and any failed check,
    gives None."""
    if data.find(b'"', 0, size) >= 0 or data.find(b"\0", 0, size) >= 0:
        return None
    limit = csv.field_size_limit()  # in characters; a field of no more bytes is within it
    view = np.frombuffer(data, dtype=np.uint8)
    breaks = np.flatnonzero(view[:size] == _LINE_FEED)
    header = data[: breaks[0] if len(breaks) else size].decode("utf-8").split(",")
    if not _is_header(header) or max(map(len, header)) > limit:
        return None
    words = np.ndarray((size,), dtype="<u8", buffer=data, strides=(1,))  # 8 bytes from each offset
    line_starts, line_ends = breaks + 1, np.append(breaks[1:], size)
    resolved: dict[str, SportConfig] = {}  # per sport tag
    sign_of: dict[int, int | None] = {}  # per team key
    blocks = []
    for lo in range(0, len(breaks), _BLOCK_ROWS):
        starts, ends = line_starts[lo : lo + _BLOCK_ROWS], line_ends[lo : lo + _BLOCK_ROWS]
        commas = np.flatnonzero(view[starts[0] : ends[-1]] == _COMMA)
        commas += starts[0]
        full = ends > starts  # blank lines hold no row
        starts, ends = starts[full], ends[full]
        n = len(starts)
        if len(commas) != 4 * n:
            return None
        if not n:
            continue
        edges = np.empty((6, n), dtype=np.int64)  # the byte before each field, and the line's end
        edges[0], edges[1:5], edges[5] = starts - 1, commas.reshape(n, 4).T, ends
        widths = edges[1:] - edges[:-1]
        widths -= 1  # no width is 0 iff each line holds its own 4 commas
        if widths.min() < 1 or widths.max() > limit or widths[2].max() > 8:
            return None
        t = _decimal(view, edges[4], widths[3], _T_DIGITS)
        points = _decimal(view, edges[5], widths[4], _POINTS_DIGITS)
        if t is None or points is None or points.min() < 1 or points.max() > _MAX_POINTS:
            return None
        signs = _team_signs(words[edges[2] + 1] & _LOW_BYTES[widths[2]], sign_of)
        if signs is None:
            return None

        new_run = ~_repeats(words, starts, edges[2] - starts)  # of "sport,game_id"
        index_of, regulation_of = [], []
        for a, b in zip(starts[new_run].tolist(), edges[2][new_run].tolist()):
            sport, _, game_id = data[a:b].decode("utf-8").partition(",")
            try:
                index, cfg = _game(sport.strip(), game_id.strip(), 0, configs, resolved, games)
            except IngestError:
                return None
            index_of.append(index)
            regulation_of.append(cfg.regulation_length)
        run = np.cumsum(new_run) - 1
        keep = t <= np.array(regulation_of, dtype=np.int64)[run]
        game = np.array(index_of, dtype=np.int64)[run]
        blocks.append((game[keep], t[keep], (signs * points)[keep]))
    return tuple(np.concatenate(column) for column in zip(_NO_ROWS, *blocks))


def _game(
    sport: str,
    game_id: str,
    line: int,
    configs: Mapping[str, SportConfig] | None,
    resolved: dict[str, SportConfig],
    games: dict[str, tuple[int, str, SportConfig]],
) -> tuple[int, SportConfig]:
    """The index and config of game `game_id` under the sport tag `sport`
    (both stripped), entered in `games` on first sight; `resolved` holds
    each tag's config. An unknown tag, or a game under a second sport,
    raises an IngestError naming `line`."""
    cfg = resolved.get(sport)
    if cfg is None:
        cfg = resolved[sport] = _resolve_sport(sport, line, configs)
    index, first_sport, _ = games.setdefault(game_id, (len(games), sport, cfg))
    if first_sport != sport:
        raise _fail(
            line, "sport", f"game {game_id!r} listed under both {first_sport!r} and {sport!r}"
        )
    return index, cfg


def _row_records(
    rows: Iterable[tuple[int, Sequence]],
    configs: Mapping[str, SportConfig] | None,
    games: dict[str, tuple[int, str, SportConfig]],
) -> Iterator[tuple[int, int, int, int]]:
    """(game index, t, signed points, regulation length) of each row, each
    row checked on its own in file order, so the first bad row raises."""
    resolved: dict[str, SportConfig] = {}  # per sport tag
    for line, row in rows:
        sport, game_id, sign, t, points = _record(line, row)
        index, cfg = _game(sport, game_id, line, configs, resolved, games)
        yield index, t, sign * points, cfg.regulation_length


def _infer_format(path: str | os.PathLike, fmt: str | None) -> str:
    """`fmt` if it is 'csv' or 'jsonl', else (when None) the one `path` names."""
    if fmt is not None:
        if fmt not in FORMATS:
            raise IngestError(f"unknown format {fmt!r}, expected 'csv' or 'jsonl'")
        return fmt
    suffix = os.path.splitext(os.fspath(path))[1].lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise IngestError(f"cannot infer format from {os.fspath(path)!r}; pass fmt='csv' or 'jsonl' "
                      "(--format csv or --format jsonl on the command line)")


def _resolve_sport(tag: str, line: int, configs: Mapping[str, SportConfig] | None) -> SportConfig:
    if configs:
        for key, cfg in configs.items():
            if key.lower() == tag.lower():
                return cfg
    if tag.upper() in BUILTIN_SPORTS:
        return builtin_config(tag)
    raise _fail(line, "sport", f"unknown sport tag {tag!r}")


def parse_event_file(
    path: str | os.PathLike,
    fmt: str | None = None,
    configs: Mapping[str, SportConfig] | None = None,
) -> Corpus:
    """Parse an event-log file into a corpus of one game per game id.

    `configs` maps extra sport tags to configurations; built-in tags
    (cfb/nfl/nhl/nba, case-insensitive) resolve automatically. Games
    appear in order of first occurrence in the file.
    """
    fmt = _infer_format(path, fmt)
    data, size = _read(path)
    games: dict[str, tuple[int, str, SportConfig]] = {}  # game id -> (index, sport tag, config)
    columns = _csv_columns(data, size, configs, games) if fmt == "csv" else None
    if columns is None:  # JSONL, or CSV the tokenizer does not take: one row at a time
        games.clear()
        text = str(memoryview(data)[:size], "utf-8")
        rows = _csv_rows(text) if fmt == "csv" else _jsonl_rows(text)
        records = _row_records(rows, configs, games)
        kept = ((index, t, net) for index, t, net, regulation in records if t <= regulation)
        columns = np.fromiter(chain.from_iterable(kept), dtype=np.int64).reshape(-1, 3).T
    game, t, net = columns

    order = _sort_order(game, t)
    game, t, net = game[order], t[order], net[order]
    first = np.ones(len(t), dtype=bool)  # first record of its game and second
    first[1:] = (game[1:] != game[:-1]) | (t[1:] != t[:-1])
    starts = np.flatnonzero(first)
    net = np.add.reduceat(net, starts)
    keep = net != 0
    game, t, net = game[starts][keep], t[starts][keep], net[keep]
    offsets = np.searchsorted(game, np.arange(len(games) + 1))
    sport_ids = [cfg.sport_id for _, _, cfg in games.values()]
    teams = np.sign(net).astype(np.int8)
    return Corpus._owning(list(games), sport_ids, offsets, t, teams, np.abs(net))


def _sort_order(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """An order that sorts parse's int64 pairs (game, t): an argsort of one
    int64 key when the ranges' product fits in int64, else a lexsort (a
    custom regulation length, and so t, is unbounded: the key can overflow)."""
    if not len(major):
        return np.empty(0, dtype=np.intp)
    lo_major, lo_minor = int(major.min()), int(minor.min())
    span = int(minor.max()) - lo_minor + 1
    if (int(major.max()) - lo_major + 1) * span > _INT64_MAX:
        return np.lexsort((minor, major))
    return np.argsort((major - lo_major) * span + (minor - lo_minor))


def _written_id(game_id: str, fmt: str) -> str:
    """A game id as `fmt` writes it: JSON text in JSONL; in CSV as is, or
    quoted the way csv's QUOTE_MINIMAL does (with '"' doubled) when it holds
    a comma, a quote or a line end. An id that would not read back as
    itself raises ValueError, on every supported Python: csv.reader before
    3.11 rejects NUL, so CSV refuses NUL too."""
    if not game_id or game_id != game_id.strip():
        raise ValueError(
            f"game {game_id!r}: an empty or whitespace-padded id does not read back "
            "as itself (ingest strips ids)"
        )
    if fmt == "jsonl":
        return json.dumps(game_id)
    if "\r" in game_id:
        raise ValueError(f"game {game_id!r}: CSV ingest reads a carriage return as a line end")
    if "\0" in game_id:
        raise ValueError(f"game {game_id!r}: CSV ingest before Python 3.11 rejects NUL")
    if "," in game_id or '"' in game_id or "\n" in game_id:
        return '"' + game_id.replace('"', '""') + '"'
    return game_id


def _tails(fmt: str, signed: np.ndarray, times: np.ndarray) -> list[str]:
    """The record tails of the pairs (signed points, t), in the order given
    (any order), each ending in its line feed: the text before and after t
    is made once per run of equal signed values, and t put between."""
    head, end = ("%s,", ",%d\n") if fmt == "csv" else ('%s","t":', ',"points":%d}\n')
    first = np.ones(len(signed), dtype=bool)  # first pair of its signed value
    first[1:] = signed[1:] != signed[:-1]
    starts = np.flatnonzero(first)
    tails: list[str] = []
    for v, seconds in zip(signed[starts].tolist(), np.split(times, starts[1:])):
        before, after = head % _team(v), end % abs(v)
        tails += [f"{before}{t}{after}" for t in seconds.tolist()]
    return tails


class _TailTable:
    """The record tails of one file (a record's text after its game id, line
    feed included, which depends only on (signed points, t)), each formatted
    once: dense over the key ranges of the slices served so far, grown with
    them while it holds at most `_WORK_WORDS` keys (8 MB of references). A
    slice that would grow it past that, which only huge t or points can give,
    has the tail of each of its events formatted on its own."""

    def __init__(self, fmt: str) -> None:
        self.fmt = fmt
        self.table = np.empty((0, 0), dtype=object)  # a tail where `known` is set
        self.known = np.zeros((0, 0), dtype=bool)  # the keys whose tail is formatted
        self.lo, self.hi = (np.inf, np.inf), (-np.inf, -np.inf)  # keys of its corners

    def per_event(self, teams: np.ndarray, points: np.ndarray, times: np.ndarray) -> list[str]:
        """The tail of each event (teams * points, t)."""
        if not len(times):
            return []
        slot = teams * points  # the signed points, turned into each event's slot in place
        lo = (min(int(slot.min()), self.lo[0]), min(int(times.min()), self.lo[1]))
        hi = (max(int(slot.max()), self.hi[0]), max(int(times.max()), self.hi[1]))
        shape = (hi[0] - lo[0] + 1, hi[1] - lo[1] + 1)
        if shape[0] * shape[1] > _WORK_WORDS:
            return _tails(self.fmt, slot, times)
        if shape != self.table.shape:  # grow, keeping every tail formatted so far
            table, known = np.empty(shape, dtype=object), np.zeros(shape, dtype=bool)
            if self.table.size:
                v, t = self.lo[0] - lo[0], self.lo[1] - lo[1]
                old = np.s_[v : v + self.table.shape[0], t : t + self.table.shape[1]]
                table[old], known[old] = self.table, self.known
            self.table, self.known, self.lo, self.hi = table, known, lo, hi
        slot -= lo[0]
        slot *= shape[1]
        slot += times
        slot -= lo[1]
        flat, known = self.table.reshape(-1), self.known.reshape(-1)
        present = np.zeros(len(flat), dtype=bool)
        present[slot] = True
        new = np.flatnonzero(present > known)  # present, not yet formatted
        flat[new] = _tails(self.fmt, new // shape[1] + lo[0], new % shape[1] + lo[1])
        known[new] = True
        return flat.take(slot).tolist()


def _records(corpus: Corpus, tails: _TailTable) -> Iterator[str]:
    """The records of `corpus`'s games in the format of `tails`, as one
    string per `_GAMES_PER_WRITE` games with events: each record is a
    per-game prefix, then its tail from the file's table, which ends the
    line. A game with no events writes no line; the id of every other game
    must read back as itself (see `_written_id`)."""
    per_event = tails.per_event(corpus.teams, corpus.points, corpus.times)
    bounds = corpus.offsets.tolist()
    lines = []
    for game_id, sport, a, b in zip(corpus.game_ids, corpus.sport_ids, bounds[:-1], bounds[1:]):
        if a == b:
            continue
        sport, gid = sport.lower(), _written_id(game_id, tails.fmt)
        if tails.fmt == "csv":
            prefix = f"{sport},{gid},"
        else:
            prefix = f'{{"sport":{json.dumps(sport)},"game_id":{gid},"team":"'
        lines.append(prefix + prefix.join(per_event[a:b]))
        if len(lines) == _GAMES_PER_WRITE:
            yield "".join(lines)
            lines = []
    yield "".join(lines)


def _render(parts: Iterable[Corpus], fmt: str, write: Callable[[Iterable[str]], object]) -> int:
    """Pass the canonical text of the games of `parts`, in order, to `write`
    as iterables of strings: the CSV header, then the records of one part at
    a time (see `_records`), their tails from one `_TailTable`. Return the
    number of records. A JSONL file without records is one empty line."""
    if fmt == "csv":
        write([",".join(CSV_COLUMNS) + "\n"])
    tails = _TailTable(fmt)
    records = 0
    for part in parts:
        write(_records(part, tails))
        records += len(part.times)
        del part  # freed before the next part is made, which can then reuse its memory
    if fmt == "jsonl" and not records:
        write(["\n"])
    return records


def _slices(games: Iterable[GameLog] | Iterable[Corpus]) -> Iterator[Corpus]:
    """`games` as corpora of at most _CHUNK_GAMES games: an iterator of
    corpora (a simulator's batches) passes through, none held here; a
    corpus or any other games are laid out once and sliced."""
    if not isinstance(games, Sequence):
        items = iter(games)
        head = next(items, None)
        if isinstance(head, Corpus):
            return chain(iter([head]), items)  # a spent list iterator lets go of `head`
        games = [] if head is None else [head, *items]
    return Corpus.of(games)._slices()


def render_event_file(games: Iterable[GameLog], fmt: str = "csv") -> str:
    """Render games in the canonical interchange form (stable byte-for-byte):
    the text `write_event_file` writes."""
    pieces: list[str] = []
    _render([Corpus.of(games)], _infer_format("", fmt), pieces.extend)
    return "".join(pieces)


def write_event_file(
    games: Iterable[GameLog] | Iterable[Corpus],
    path: str | os.PathLike,
    fmt: str | None = None,
) -> int:
    """Write games to the canonical CSV/JSONL interchange format; return the
    number of records (events) written.

    `games` is a corpus, other games, or an iterator of corpora such as
    `simulate_batches`. The text is rendered and written one slice of at
    most _CHUNK_GAMES games at a time, so an iterator of corpora is
    written in the memory of one. The file appears only once every slice
    is written (see `atomic_writer`)."""
    fmt = _infer_format(path, fmt)
    with atomic_writer(path) as fh:
        return _render(_slices(games), fmt, fh.writelines)


class SportSummary(_Record):
    """One sport's counts in a `CorpusReport`."""

    sport_id: str = _string
    n_games: int = _integer
    n_events: int = _integer
    events_per_game: float = _number


class CorpusReport(_Record):
    """Corpus-level counts plus per-game validation failures."""

    n_games: int = _integer
    n_events: int = _integer
    events_per_game: float = _number
    per_sport: Mapping[str, SportSummary] = lambda sports: MappingProxyType(
        {_string(sport): SportSummary._instance(s) for sport, s in dict(sports).items()})
    failures: tuple[str, ...] = lambda failures: tuple(map(_string, failures))

    def summary_line(self) -> str:
        return (
            f"games={self.n_games} events={self.n_events} "
            f"events_per_game={self.events_per_game:.4f} failures={len(self.failures)}"
        )


def validate_corpus(
    games: Sequence[GameLog],
    configs: Mapping[str, SportConfig] | None = None,
) -> CorpusReport:
    """Tally a corpus and list per-game invariant violations without raising.

    Checks per game: events inside [0, T], and point values inside the
    configured support (merged events may legitimately exceed it, so
    this is reported rather than rejected). Every check runs over the
    corpus's columns; messages are formatted for the failing games only,
    in game order.
    """
    corpus = Corpus.of(games)
    n_games, counts = len(corpus), corpus.event_counts
    sports = sorted(set(corpus.sport_ids))
    index_of = {sport: k for k, sport in enumerate(sports)}
    code = np.array([index_of[sport] for sport in corpus.sport_ids], dtype=np.intp)
    configs_of = []  # per sport; None if unknown
    for sport in sports:
        try:
            configs_of.append(_resolve_sport(sport, 0, configs))
        except IngestError:
            configs_of.append(None)
    unknown = np.array([cfg is None for cfg in configs_of], dtype=bool)[code]
    regulation = np.array([cfg.regulation_length if cfg else 0 for cfg in configs_of])[code]
    last = np.full(n_games, -1, dtype=np.int64)  # each game's last event second
    last[counts > 0] = corpus.times[corpus.offsets[1:][counts > 0] - 1]
    late = ~unknown & (last > regulation)
    inside = np.ones(len(corpus.points), dtype=bool)
    event_sport = code[corpus.game]
    for k, cfg in enumerate(configs_of):
        if cfg is not None:
            at = event_sport == k
            inside[at] = np.isin(corpus.points[at], list(cfg.point_values))
    outside = np.zeros(n_games, dtype=bool)
    outside[corpus.game[~inside]] = True

    failures: list[str] = []
    for g in np.flatnonzero(unknown | late | outside).tolist():
        game_id, cfg = corpus.game_ids[g], configs_of[code[g]]
        if cfg is None:
            failures.append(f"game {game_id}: unknown sport {corpus.sport_ids[g]!r}")
            continue
        if late[g]:
            failures.append(
                f"game {game_id}: event at t={int(last[g])} "
                f"beyond regulation {cfg.regulation_length}"
            )
        if outside[g]:
            points = corpus.points[corpus.offsets[g] : corpus.offsets[g + 1]].tolist()
            values = sorted(set(points) - set(cfg.point_values))
            failures.append(f"game {game_id}: point values {values} outside configured support")
    per_sport = {}
    for k, sport in enumerate(sports):
        n_sport, n_events = int(np.count_nonzero(code == k)), int(counts[code == k].sum())
        per_sport[sport] = SportSummary(sport, n_sport, n_events, n_events / n_sport)
    n_events = len(corpus.times)
    return CorpusReport(
        n_games=n_games,
        n_events=n_events,
        events_per_game=(n_events / n_games) if n_games else 0.0,
        per_sport=per_sport,
        failures=tuple(failures),
    )

"""Event-log ingestion: CSV/JSONL parsing, preprocessing, corpus validation.

Preprocessing applied to every file:
  * overtime filter: records with t beyond regulation are dropped,
  * same-second merge: records at one second are summed per team, and if
    both teams scored at that second the sums are netted into a single
    signed record (a net of zero drops the second entirely).

The canonical interchange format is CSV with header
``sport,game_id,team,t,points`` (UTF-8, LF line endings), or JSONL with
one object per record using the same field names. Team tags ``home`` and
``away`` map to ``r`` and ``b``.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    TEAM_B,
    TEAM_R,
    GameLog,
    SportConfig,
    atomic_write_text,
    builtin_config,
    _BUILTIN_SPECS,
)

CSV_COLUMNS = ("sport", "game_id", "team", "t", "points")

_TEAM_ALIASES = {"r": TEAM_R, "b": TEAM_B, "home": TEAM_R, "away": TEAM_B}


class IngestError(ValueError):
    """Malformed or inconsistent event-log input."""


@dataclass(frozen=True)
class RawEventRecord:
    """One unvalidated input row, with its source line for error messages."""

    sport: str
    game_id: str
    team: str
    t: int
    points: int
    line: int


def _fail(line: int, field: str, message: str) -> IngestError:
    return IngestError(f"line {line}: field '{field}': {message}")


def _coerce_record(raw: Mapping, line: int) -> RawEventRecord:
    for field in CSV_COLUMNS:
        if field not in raw or raw[field] in (None, ""):
            raise _fail(line, field, "missing value")
    team_tag = str(raw["team"]).strip().lower()
    if team_tag not in _TEAM_ALIASES:
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
    return RawEventRecord(
        sport=str(raw["sport"]).strip(),
        game_id=str(raw["game_id"]).strip(),
        team=_TEAM_ALIASES[team_tag],
        t=t,
        points=points,
        line=line,
    )


def _iter_csv(text: str) -> Iterator[RawEventRecord]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != list(CSV_COLUMNS):
        raise IngestError(
            f"line 1: field 'header': expected columns {','.join(CSV_COLUMNS)}, "
            f"got {reader.fieldnames}"
        )
    for line, row in enumerate(reader, start=2):
        if None in row or any(v is None for v in row.values()):
            raise _fail(line, "row", f"wrong number of fields: {row}")
        yield _coerce_record(row, line)


def _iter_jsonl(text: str) -> Iterator[RawEventRecord]:
    for line, raw_line in enumerate(text.splitlines(), start=1):
        if not raw_line.strip():
            continue
        try:
            obj = json.loads(raw_line)
        except json.JSONDecodeError as exc:
            raise _fail(line, "json", str(exc)) from None
        if not isinstance(obj, dict):
            raise _fail(line, "json", "record must be an object")
        yield _coerce_record(obj, line)


def _infer_format(path: str | os.PathLike, fmt: str | None) -> str:
    if fmt is not None:
        if fmt not in ("csv", "jsonl"):
            raise IngestError(f"unknown format {fmt!r}, expected 'csv' or 'jsonl'")
        return fmt
    suffix = os.path.splitext(os.fspath(path))[1].lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise IngestError(f"cannot infer format from {path!r}; pass format='csv' or 'jsonl'")


def _resolve_sport(tag: str, line: int, configs: Mapping[str, SportConfig] | None) -> SportConfig:
    if configs:
        for key, cfg in configs.items():
            if key.lower() == tag.lower():
                return cfg
    if tag.upper() in _BUILTIN_SPECS:
        return builtin_config(tag)
    raise _fail(line, "sport", f"unknown sport tag {tag!r}")


def _merge_same_second(records: Sequence[RawEventRecord]) -> list[tuple[int, int, int]]:
    """Collapse records into at most one signed event per second.

    Returns (t, sign, points) triples sorted by t. At each second,
    points are summed per team; if both teams scored, the sums are
    netted and the sign follows the larger total. A net of zero yields
    no event for that second.
    """
    per_second: dict[int, dict[str, int]] = defaultdict(lambda: {TEAM_R: 0, TEAM_B: 0})
    for rec in records:
        per_second[rec.t][rec.team] += rec.points
    merged = []
    for t in sorted(per_second):
        net = per_second[t][TEAM_R] - per_second[t][TEAM_B]
        if net > 0:
            merged.append((t, 1, net))
        elif net < 0:
            merged.append((t, -1, -net))
    return merged


def parse_event_file(
    path: str | os.PathLike,
    fmt: str | None = None,
    configs: Mapping[str, SportConfig] | None = None,
) -> list[GameLog]:
    """Parse an event-log file into one validated GameLog per game id.

    `configs` maps extra sport tags to configurations; built-in tags
    (cfb/nfl/nhl/nba, case-insensitive) resolve automatically. Games
    appear in order of first occurrence in the file.
    """
    fmt = _infer_format(path, fmt)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    records = _iter_csv(text) if fmt == "csv" else _iter_jsonl(text)

    by_game: dict[str, list[RawEventRecord]] = {}
    sport_of: dict[str, tuple[str, SportConfig]] = {}
    resolved: dict[str, SportConfig] = {}
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
        regulation = [r for r in recs if r.t <= cfg.regulation_length]
        merged = _merge_same_second(regulation)
        games.append(
            GameLog(
                game_id=game_id,
                sport_id=cfg.sport_id,
                times=[m[0] for m in merged],
                teams=[m[1] for m in merged],
                points=[m[2] for m in merged],
            )
        )
    return games


def render_event_file(games: Iterable[GameLog], fmt: str = "csv") -> str:
    """Render games in the canonical interchange form (stable byte-for-byte)."""
    if fmt not in ("csv", "jsonl"):
        raise IngestError(f"unknown format {fmt!r}, expected 'csv' or 'jsonl'")
    lines = [",".join(CSV_COLUMNS)] if fmt == "csv" else []
    for game in games:
        sport, gid = game.sport_id.lower(), game.game_id
        tags = [TEAM_R if sign > 0 else TEAM_B for sign in game.teams.tolist()]
        records = zip(tags, game.times.tolist(), game.points.tolist())
        if fmt == "csv":
            prefix = f"{sport},{gid},"
            lines.extend(f"{prefix}{team},{t},{p}" for team, t, p in records)
        else:
            lines.extend(
                json.dumps(
                    {"sport": sport, "game_id": gid, "team": team, "t": t, "points": p},
                    separators=(",", ":"),
                )
                for team, t, p in records
            )
    return "\n".join(lines) + "\n"


def write_event_file(
    games: Iterable[GameLog], path: str | os.PathLike, fmt: str | None = None
) -> None:
    """Write games to the canonical CSV/JSONL interchange format."""
    fmt = _infer_format(path, fmt)
    atomic_write_text(path, render_event_file(games, fmt))


@dataclass(frozen=True)
class SportSummary:
    sport_id: str
    n_games: int
    n_events: int
    events_per_game: float


@dataclass(frozen=True)
class CorpusReport:
    """Corpus-level counts plus per-game validation failures."""

    n_games: int
    n_events: int
    events_per_game: float
    per_sport: Mapping[str, SportSummary]
    failures: tuple[str, ...]

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
    this is reported rather than rejected).
    """
    failures: list[str] = []
    per_sport_games: dict[str, int] = defaultdict(int)
    per_sport_events: dict[str, int] = defaultdict(int)
    total_events = 0
    resolved: dict[str, SportConfig | None] = {}  # per sport tag; None if unknown
    for game in games:
        per_sport_games[game.sport_id] += 1
        per_sport_events[game.sport_id] += game.n_events
        total_events += game.n_events
        if game.sport_id not in resolved:
            try:
                resolved[game.sport_id] = _resolve_sport(game.sport_id, 0, configs)
            except IngestError:
                resolved[game.sport_id] = None
        cfg = resolved[game.sport_id]
        if cfg is None:
            failures.append(f"game {game.game_id}: unknown sport {game.sport_id!r}")
            continue
        if game.n_events and int(game.times[-1]) > cfg.regulation_length:
            failures.append(
                f"game {game.game_id}: event at t={int(game.times[-1])} "
                f"beyond regulation {cfg.regulation_length}"
            )
        support = set(cfg.point_values)
        outside = sorted({int(p) for p in game.points} - support)
        if outside:
            failures.append(
                f"game {game.game_id}: point values {outside} outside configured support"
            )
    per_sport = {
        sport: SportSummary(
            sport_id=sport,
            n_games=per_sport_games[sport],
            n_events=per_sport_events[sport],
            events_per_game=per_sport_events[sport] / per_sport_games[sport],
        )
        for sport in sorted(per_sport_games)
    }
    n_games = len(games)
    return CorpusReport(
        n_games=n_games,
        n_events=total_events,
        events_per_game=(total_events / n_games) if n_games else 0.0,
        per_sport=per_sport,
        failures=tuple(failures),
    )

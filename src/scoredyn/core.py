"""Core domain types: sport configuration, game logs and the corpus.

A game is reduced to its ordered scoring events during regulation time.
Each event carries a game-clock second, the winning team (+1 for r, -1
for b), and a positive integer point value. The lead is always measured
relative to team r, so a negative lead means b is ahead.

A `Corpus` holds many games as one flat event layout: int64 `times`,
int8 `teams` and int64 `points` of every game laid end to end, game g
holding events offsets[g]:offsets[g + 1]. Parsing, simulation and the
synthetic leagues build one directly; every estimator, the evaluation,
the lead-dispersion curves and the writer read its columns. A game of a
corpus is a `GameLog` of read-only views on those columns, built only
when it is asked for. `Corpus.of` lays a hand-built list of games out
once, so every `(games, ...)` entry point takes either.

All types are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Sequence
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from numbers import Real
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, TextIO

import numpy as np

TEAM_R = "r"
TEAM_B = "b"

#: Probability mass of a pmf may deviate from 1 by at most this much.
PMF_TOLERANCE = 1e-9

CONFIG_SCHEMA_VERSION = "1.0"

SPORT_IDS = ("CFB", "NFL", "NHL", "NBA", "custom")

_CHUNK_GAMES = 1024  # games per batch or slice: bounds working memory, amortises numpy calls


def require_schema_major(version: str, expected: str, context: str) -> None:
    """Reject serialized artifacts whose schema major version is unknown."""
    major = str(version).split(".", 1)[0]
    expected_major = expected.split(".", 1)[0]
    if major != expected_major:
        raise ValueError(
            f"{context}: unsupported schema version {version!r} "
            f"(supported major: {expected_major})"
        )


@contextmanager
def atomic_writer(path: str | os.PathLike) -> Iterator[TextIO]:
    """A UTF-8 text file (LF line ends) that replaces `path` only if the block
    exits cleanly: it is a temp file in the same directory, renamed over
    `path` at the end and removed on any exception, so a failed write
    leaves `path` as it was and no temp file behind. A failure to create
    the temp file or to rename it raises an `OSError` that names `path`."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from exc
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text to `path` through `atomic_writer`."""
    with atomic_writer(path) as fh:
        fh.write(text)


def _validated_point_values(point_values: Mapping[int, float]) -> Mapping[int, float]:
    if not point_values:
        raise ValueError("point_values must be non-empty")
    cleaned: dict[int, float] = {}
    for value, prob in point_values.items():
        try:
            v = int(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"point value {value!r} is not a positive integer") from None
        if v != value or v < 1:
            raise ValueError(f"point value {value!r} is not a positive integer")
        p = float(prob)
        if not np.isfinite(p):
            raise ValueError(f"point value {v} has non-finite probability {p}")
        if p < 0.0:
            raise ValueError(f"point value {v} has negative probability {p}")
        cleaned[v] = p
    total = sum(cleaned.values())
    if abs(total - 1.0) > PMF_TOLERANCE:
        raise ValueError(f"point value probabilities sum to {total}, expected 1")
    return MappingProxyType(dict(sorted(cleaned.items())))


@dataclass(frozen=True)
class SportConfig:
    """Static description of one sport's scoring rules.

    Attributes:
        sport_id: One of CFB, NFL, NHL, NBA, or "custom".
        regulation_length: Regulation clock length T in seconds. Game
            time is the closed interval of seconds [0, T]; events at
            exactly T (buzzer events) count, events beyond T are
            overtime and are never modeled.
        period_ends: Ascending second marks partitioning [0, T] into
            quarters or periods; the last entry equals T.
        point_values: Probability distribution over the positive integer
            point values a single scoring event can be worth.
        lead_truncation: Bound Lmax for the lead-size state space used
            by the prediction chain; must cover at least one event
            (Lmax >= max point value).
    """

    sport_id: str
    regulation_length: int
    period_ends: tuple[int, ...]
    point_values: Mapping[int, float]
    lead_truncation: int

    def __post_init__(self) -> None:
        if self.sport_id not in SPORT_IDS:
            raise ValueError(f"sport_id must be one of {SPORT_IDS}, got {self.sport_id!r}")
        field = partial(_field, "sport config", vars(self))
        T = field("regulation_length", _integer)
        if T <= 0:
            raise ValueError("regulation_length must be positive")
        object.__setattr__(self, "regulation_length", T)
        ends = field("period_ends", lambda values: tuple(_integer(v) for v in values))
        if not ends or any(b <= a for a, b in zip((0,) + ends, ends)):
            raise ValueError("period_ends must be strictly ascending and positive")
        if ends[-1] != T:
            raise ValueError("last period end must equal regulation_length")
        object.__setattr__(self, "period_ends", ends)
        object.__setattr__(self, "point_values", _validated_point_values(self.point_values))
        cap = field("lead_truncation", _integer)
        if cap < max(self.point_values):
            raise ValueError(
                f"lead_truncation {cap} is below the maximum point value "
                f"{max(self.point_values)}"
            )
        object.__setattr__(self, "lead_truncation", cap)


def _as_readonly(values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype).copy()
    arr.flags.writeable = False
    return arr


def check_events(times, teams, points, offsets: np.ndarray | None = None) -> None:
    """Raise unless the columns hold valid games (game g holds events
    offsets[g]:offsets[g + 1]; without offsets, one game)."""
    if not (len(times) == len(teams) == len(points)):
        raise ValueError("times, teams, and points must have equal length")
    if (times < 0).any():
        raise ValueError("event times must be nonnegative")
    backwards = times[1:] <= times[:-1]
    if offsets is not None:  # skip pairs that straddle games (the first non-empty one starts at 0)
        backwards[offsets[:-1][offsets[1:] > offsets[:-1]][1:] - 1] = False
    if backwards.any():
        raise ValueError("event times must be strictly increasing (merge same-second events)")
    if (np.abs(teams) != 1).any():
        raise ValueError("teams must be encoded as +1 (r) or -1 (b)")
    if (points < 1).any():
        raise ValueError("points must be positive integers")


def _event_leads(offsets: np.ndarray, signed: np.ndarray) -> np.ndarray:
    """Lead after each event: the running sum, restarted at every game."""
    cum = np.cumsum(signed)
    return cum - np.repeat(np.concatenate(([0], cum))[offsets[:-1]], np.diff(offsets))


@dataclass(frozen=True, eq=False)
class GameLog:
    """One game's time-ordered, same-second-merged regulation scoring events.

    Events are stored as parallel arrays for fast aggregation:
    `times` (strictly increasing seconds), `teams` (+1 for r, -1 for b),
    and `points` (positive values). At most one event per second; the
    ingest layer performs the same-second merge.
    """

    game_id: str
    sport_id: str
    times: np.ndarray
    teams: np.ndarray
    points: np.ndarray

    def __post_init__(self) -> None:
        times = _as_readonly(self.times, np.int64)
        teams = _as_readonly(self.teams, np.int8)
        points = _as_readonly(self.points, np.int64)
        check_events(times, teams, points)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "teams", teams)
        object.__setattr__(self, "points", points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GameLog):
            return NotImplemented
        return (
            self.game_id == other.game_id
            and self.sport_id == other.sport_id
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.teams, other.teams)
            and np.array_equal(self.points, other.points)
        )

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n_events(self) -> int:
        return len(self.times)

    @property
    def signed_points(self) -> np.ndarray:
        """Lead increments per event: +points for r, -points for b."""
        return self.teams.astype(np.int64) * self.points

    def final_lead(self) -> int:
        return int(self.signed_points.sum())

    def winner(self) -> str | None:
        """Regulation winner tag, or None for a tie."""
        lead = self.final_lead()
        if lead > 0:
            return TEAM_R
        if lead < 0:
            return TEAM_B
        return None


class Corpus(Sequence):
    """Games laid end to end in one event layout, as a read-only `Sequence[GameLog]`.

    Game g is `game_ids[g]`, tagged `sport_ids[g]`, and holds events
    offsets[g]:offsets[g + 1] of the int64 `times`, int8 `teams` and int64
    `points` columns. The columns are copied and checked once, when the
    corpus is built, and made read-only. `corpus[g]` is a `GameLog` of
    views on them, and a contiguous slice is a `Corpus` of views. (A plain
    class, not a dataclass: every CLI run imports this module, and building
    a frozen dataclass took about 1 ms.)
    """

    def __init__(self, game_ids, sport_ids, offsets, times, teams, points) -> None:
        self._take(np.array, game_ids, sport_ids, offsets, times, teams, points)

    @classmethod
    def _owning(cls, *columns) -> Corpus:
        """A corpus of fresh columns that nothing else holds, taken uncopied."""
        corpus = object.__new__(cls)
        corpus._take(np.asarray, *columns)
        return corpus

    def _take(self, array, game_ids, sport_ids, offsets, times, teams, points) -> None:
        game_ids, sport_ids = tuple(game_ids), tuple(sport_ids)
        offsets, times = array(offsets, np.int64), array(times, np.int64)
        teams, points = array(teams, np.int8), array(points, np.int64)
        if not (
            len(game_ids) == len(sport_ids) == len(offsets) - 1
            and offsets[0] == 0
            and offsets[-1] == len(times)
            and (offsets[1:] >= offsets[:-1]).all()
        ):
            raise ValueError("offsets must run from 0 to the event count, one entry per game")
        check_events(times, teams, points, offsets)
        for column in (offsets, times, teams, points):
            column.flags.writeable = False
        self.game_ids, self.sport_ids, self.offsets = game_ids, sport_ids, offsets
        self.times, self.teams, self.points = times, teams, points

    @classmethod
    def of(cls, games: Iterable[GameLog]) -> Corpus:
        """`games` as a corpus: a corpus as it is, other games laid end to end
        (the one place that lays a list of games out)."""
        if isinstance(games, Corpus):
            return games
        games = list(games)
        columns = [
            np.concatenate([np.empty(0, dtype)] + [getattr(g, name) for g in games])
            for name, dtype in (("times", np.int64), ("teams", np.int8), ("points", np.int64))
        ]
        offsets = np.cumsum([0] + [len(g.times) for g in games])
        return cls([g.game_id for g in games], [g.sport_id for g in games], offsets, *columns)

    @classmethod
    def concat(cls, parts: Iterable[Corpus]) -> Corpus:
        """The games of `parts`, in order, as one corpus of their joined columns."""
        parts = list(parts)

        def joined(name: str, dtype) -> np.ndarray:
            return np.concatenate([np.empty(0, dtype)] + [getattr(p, name) for p in parts])

        return cls._owning(
            chain.from_iterable(p.game_ids for p in parts),
            chain.from_iterable(p.sport_ids for p in parts),
            np.concatenate(([0], joined("event_counts", np.int64).cumsum())),
            joined("times", np.int64),
            joined("teams", np.int8),
            joined("points", np.int64),
        )

    @cached_property
    def signed(self) -> np.ndarray:
        """Lead increment of each event: +points for r, -points for b."""
        signed = self.teams * self.points
        signed.flags.writeable = False
        return signed

    @cached_property
    def game(self) -> np.ndarray:
        """Index of each event's game."""
        game = np.repeat(np.arange(len(self)), self.event_counts)
        game.flags.writeable = False
        return game

    @property
    def event_counts(self) -> np.ndarray:
        """Number of events of each game."""
        return np.diff(self.offsets)

    def _view(self, g: int, a: int, b: int) -> GameLog:
        game = object.__new__(GameLog)  # skips __post_init__'s per-game copy and check
        vars(game).update(game_id=self.game_ids[g], sport_id=self.sport_ids[g])
        vars(game).update(times=self.times[a:b], teams=self.teams[a:b], points=self.points[a:b])
        return game

    def __len__(self) -> int:
        return len(self.game_ids)

    def __getitem__(self, key):
        if not isinstance(key, slice):
            g = range(len(self))[key]
            return self._view(g, int(self.offsets[g]), int(self.offsets[g + 1]))
        start, stop, step = key.indices(len(self))
        if step != 1:
            return [self[g] for g in range(start, stop, step)]
        stop = max(start, stop)
        a, b = int(self.offsets[start]), int(self.offsets[stop])
        part = object.__new__(Corpus)  # views on checked columns: no second check
        offsets = self.offsets[start : stop + 1] - a
        offsets.flags.writeable = False
        vars(part).update(
            game_ids=self.game_ids[start:stop], sport_ids=self.sport_ids[start:stop],
            offsets=offsets, times=self.times[a:b], teams=self.teams[a:b], points=self.points[a:b],
        )
        return part

    def __iter__(self) -> Iterator[GameLog]:
        bounds = self.offsets.tolist()
        for g, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            yield self._view(g, a, b)

    def __eq__(self, other: object) -> bool:
        """Equal to a corpus, list or tuple of equal games, in order."""
        if not isinstance(other, (Corpus, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Corpus({len(self)} games, {len(self.times)} events)"


_BUILTIN_SPECS: dict[str, dict] = {
    "CFB": {
        "regulation_length": 3600,
        "period_ends": (900, 1800, 2700, 3600),
        "point_values": {2: 0.0113, 3: 0.1702, 6: 0.0708, 7: 0.7058, 8: 0.0419},
        "lead_truncation": 100,
    },
    "NFL": {
        "regulation_length": 3600,
        "period_ends": (900, 1800, 2700, 3600),
        "point_values": {2: 0.0083, 3: 0.3055, 6: 0.0308, 7: 0.6222, 8: 0.0332},
        "lead_truncation": 100,
    },
    "NHL": {
        "regulation_length": 3600,
        "period_ends": (1200, 2400, 3600),
        "point_values": {1: 1.0},
        "lead_truncation": 15,
    },
    "NBA": {
        "regulation_length": 2880,
        "period_ends": (720, 1440, 2160, 2880),
        "point_values": {1: 0.0941, 2: 0.7373, 3: 0.1647, 4: 0.0029, 5: 0.0009, 6: 0.0001},
        "lead_truncation": 100,
    },
}

BUILTIN_SPORTS = tuple(_BUILTIN_SPECS)


def builtin_config(sport_id: str) -> SportConfig:
    """Return the built-in configuration for CFB, NFL, NHL, or NBA."""
    key = str(sport_id).upper()
    if key not in _BUILTIN_SPECS:
        raise ValueError(f"no built-in sport {sport_id!r}; known: {BUILTIN_SPORTS}")
    return SportConfig(sport_id=key, **_BUILTIN_SPECS[key])


def config_for_games(games: Sequence[GameLog], config: SportConfig | None = None) -> SportConfig:
    """Resolve the configuration shared by a corpus.

    An explicit `config` wins. Otherwise the corpus must be non-empty,
    single-sport, and use a built-in sport id.
    """
    if config is not None:
        return config
    corpus = Corpus.of(games)
    if not len(corpus):
        raise ValueError("empty corpus and no explicit SportConfig given")
    sport_ids = set(corpus.sport_ids)
    if len(sport_ids) != 1:
        raise ValueError(f"corpus mixes sports {sorted(sport_ids)}; pass an explicit config")
    (sport_id,) = sport_ids
    if sport_id.upper() not in _BUILTIN_SPECS:
        raise ValueError(f"sport {sport_id!r} has no built-in config; pass one explicitly")
    return builtin_config(sport_id)


def _checked_corpus(
    games: Sequence[GameLog], config: SportConfig | None = None
) -> tuple[Corpus, SportConfig]:
    """The corpus of `games` and its config (`config_for_games`), checked:
    raise ValueError when an event is past the config's regulation length
    (a config shorter than the corpus's clock), naming the first game with
    the latest event and that second. Profiles, gap laws and forecast
    tables stop at regulation, so such an event would be counted in some
    estimates and silently dropped from others."""
    corpus = Corpus.of(games)
    cfg = config_for_games(corpus, config)
    if len(corpus.times):
        k = int(np.argmax(corpus.times))  # the first latest event ends its game
        latest = int(corpus.times[k])
        if latest > cfg.regulation_length:
            game_id = corpus.game_ids[int(np.searchsorted(corpus.offsets, k, "right")) - 1]
            raise ValueError(
                f"game {game_id!r} has an event at second {latest}, "
                f"past the config's regulation length {cfg.regulation_length}"
            )
    return corpus, cfg


def _clock_grid(regulation_length: int, sample_every: int) -> np.ndarray:
    """Seconds 0, sample_every, 2 * sample_every, ... up to regulation_length."""
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    return np.arange(0, regulation_length + 1, sample_every, dtype=np.int64)


# --------------------------------------------------------------------------
# Sport config JSON interchange
# --------------------------------------------------------------------------

def config_to_dict(config: SportConfig) -> dict:
    return {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "sport_id": config.sport_id,
        "regulation_length_seconds": config.regulation_length,
        "period_ends": list(config.period_ends),
        "point_values": {str(v): p for v, p in config.point_values.items()},
        "lead_truncation": config.lead_truncation,
    }


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _integer(value) -> int:
    if _number(value) != int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _array(convert: Callable, dtype) -> Callable:
    """Converter of a JSON list, entry by entry through `convert`, to a 1-D
    array; a list of exact ints (or floats, for floats) converts at once."""
    exact = {int} if np.issubdtype(dtype, np.integer) else {int, float}

    def to_array(value) -> np.ndarray:
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {type(value).__name__}")
        if set(map(type, value)) <= exact:
            with suppress(OverflowError):  # an int past the dtype's range fails below
                return np.array(value, dtype=dtype)
        return np.array([convert(v) for v in value], dtype=dtype)

    return to_array


def _point_values(value) -> dict[int, float]:
    if not isinstance(value, Mapping):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return {int(v): _number(p) for v, p in value.items()}


def _field(context: str, data: Mapping, path: str, convert: Callable | None = None):
    """data[k1][k2]... along the dotted `path`, passed through `convert`; a
    missing, mistyped or unconvertible field raises ValueError naming it."""
    value = data
    try:
        for key in path.split("."):
            if not isinstance(value, Mapping):
                raise TypeError(f"expected an object, got {type(value).__name__}")
            value = value[key]
        return value if convert is None else convert(value)
    except KeyError as exc:
        raise ValueError(f"{context}: field {path!r}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{context}: field {path!r}: {exc}") from None


def _artifact_fields(data, version: str, context: str) -> Callable:
    """Check that `data` is an object of a known schema major; return its `_field` reader."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{context}: expected a JSON object, got {type(data).__name__}")
    require_schema_major(data.get("schema_version", "0"), version, context)
    return partial(_field, context, data)


def _load_json(path: str | os.PathLike, context: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{context}: not UTF-8: {exc}") from None
        except RecursionError:
            raise ValueError(f"{context}: JSON nested too deeply") from None


def config_from_dict(data: Mapping) -> SportConfig:
    field = _artifact_fields(data, CONFIG_SCHEMA_VERSION, "sport config")
    return SportConfig(
        sport_id=field("sport_id"),
        regulation_length=field("regulation_length_seconds", _integer),
        period_ends=tuple(field("period_ends", _array(_integer, np.int64))),
        point_values=field("point_values", _point_values),
        lead_truncation=field("lead_truncation", _integer),
    )


def save_config(config: SportConfig, path: str | os.PathLike) -> None:
    atomic_write_text(path, json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")


def load_config(path: str | os.PathLike) -> SportConfig:
    return config_from_dict(_load_json(path, "sport config"))

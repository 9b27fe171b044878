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

Every record, here and in the other modules, is a frozen `_Record`, safe
to share across workers, whose fields each declare one converter; its
dataclass registry holds only the fields, and `_Record` writes the methods
once, so an import compiles none. `_number` refuses a non-number or bool,
`_integer` also a fraction, `_string` a non-string, the read-only columns
`_ints` and `_floats` values of another kind, the point-value pmf an
invalid pmf, a seed one outside [0, 2**64), an enum an unknown value;
none truncates or parses. Construction and `dataclasses.replace` convert
the fields in order, then run the record's cross-field `_check`. A column
refuses as "times must be integers, ...", any other field as "game log:
field ...".

Each rule has one home, which records and public functions share: how a number, an
integer, a count (`_count`: an integer of at least some least), a position (`_index`), an id
(`_string`, `_strings`), an array of one shape (`_column`), a probability or a column of them
(`_probability`, `_probabilities`) and a clock length (`_seconds`) are read and named
(`_named`; `_column` and `_probability` take the name, a record its field's), a pmf's sum
(`_sums_to_one`), the lead cap (`_check_cap`), an event past the clock (`_check_clock`), phi's
shape (`estimate.LeadScoring._shape`), the chain steps of an event count (`predict._steps`),
the team a lead's sign names (`_team`), a corpus's slices (`Corpus._slices`) and the sports
(`BUILTIN_SPORTS`). Every field of a public record declares a converter (a nested record's is
`_Record._instance`). A saved record's JSON layout is its fields, each at its name or at its
`_paths` entry; `_dump` writes it and `_load` reads each path through its field's converter
(`_field`, which names the path through `_named`), so a file takes what a record takes.
`estimate.ModelArtifact` checks that models fit a config, and `ingest._infer_format` that a
format exists. Every command refuses a model file alike for a probability outside [0, 1] or
not a number, a clock that is not a positive number of seconds, a phi that is not
antisymmetric, a cap below the largest point value, or misfit models.
"""

from __future__ import annotations

import json
import operator
import os
import re
import tempfile
from collections.abc import Sequence
from contextlib import contextmanager, suppress
from dataclasses import MISSING, FrozenInstanceError, dataclass
from functools import cached_property, partial, reduce
from itertools import chain
from numbers import Real
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, TextIO

import numpy as np

TEAM_R = "r"
TEAM_B = "b"

#: Probability mass of a pmf may deviate from 1 by at most this much.
PMF_TOLERANCE = 1e-9

_CHUNK_GAMES = 1024  # games per batch or slice: bounds working memory, amortises numpy calls
_WORK_WORDS = 1 << 20  # the one working-memory bound (8 MB of words): draw buffer, tail table
_EVENT_COLUMNS = (("times", np.int64), ("teams", np.int8), ("points", np.int64))


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


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _index(value) -> int:
    """`operator.index(value)`, which takes a bool as 0 or 1: refused here."""
    if isinstance(value, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(value)


def _integer(value) -> int:
    with suppress(TypeError):
        return _index(value)  # as it is: through a float, an int past 2**53 would round
    if _number(value) != int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _column(name: str, values, dtype, array: Callable = np.array, ndim: int = 1,
            probabilities: bool = False) -> np.ndarray:
    """`values` as a read-only `dtype` column of `ndim` dimensions through
    `array` (`np.array` copies); no value is truncated or parsed. A non-empty
    column of bools, strings, objects or (for an integer `dtype`) floats, a
    list or tuple with a bool entry, integers `dtype` cannot hold, another
    number of dimensions, a ragged list or (of `probabilities`) an entry
    outside [0, 1] raises ValueError."""
    try:
        column = np.asarray(values)
    except ValueError:  # numpy's refusal of a ragged list
        raise ValueError(f"{name} must be {ndim}-dimensional, got a ragged list") from None
    integral = np.issubdtype(dtype, np.integer)
    kind = "integers" if integral else "numbers"
    if column.size and column.dtype != dtype:
        if column.dtype.kind not in ("iu" if integral else "iuf") and not (
            integral and isinstance(values, (list, tuple)) and set(map(type, values)) == {int}
        ):  # ints that numpy reads as float or object are past uint64: they do not fit
            raise ValueError(f"{name} must be {kind}, got values of dtype {column.dtype}")
        if integral and (column.dtype.kind not in "iu" or (column.astype(dtype) != column).any()):
            raise ValueError(f"{name} must fit in {np.dtype(dtype)}")
    if isinstance(values, (list, tuple)) and {bool, np.bool_} & set(map(type, values)):
        raise ValueError(f"{name} must be {kind}, got a bool entry")
    if column.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {column.shape}")
    column = array(column, dtype)
    if probabilities and (bad := column[~((column >= 0) & (column <= 1))]).size:
        what = "finite probabilities" if ndim else "a finite probability"
        raise ValueError(f"{name} must be {what} in [0, 1], got {bad[0]}")
    column.flags.writeable = False
    return column


_ints, _floats = partial(_column, dtype=np.int64), partial(_column, dtype=np.float64)
_probabilities = partial(_floats, probabilities=True)


def _named(prefix: str, read: Callable, value):
    """`read(value)`, its refusal raised again as a ValueError that starts with
    `prefix`: how a record names a field, and a public function an argument."""
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{prefix}{exc}") from None


def _count(name: str, value, least: int) -> int:
    """A count: an `_integer` (so no bool or fraction) that is at least `least`;
    each refusal a ValueError that starts with `name`."""
    if (count := _named(f"{name}: ", _integer, value)) < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    return count


def _probability(name: str, value) -> float:
    """One number (`_number`) read by the probability rule (`_probabilities`), named `name`."""
    return float(_probabilities(name, _named(f"{name}: ", _number, value), ndim=0))


def _sums_to_one(name: str, probabilities) -> None:
    """Raise ValueError unless `probabilities` sum to 1 within `PMF_TOLERANCE`."""
    if abs((total := float(np.sum(probabilities))) - 1.0) > PMF_TOLERANCE:
        raise ValueError(f"{name} sum to {total}, expected 1")


def _validated_point_values(point_values: Mapping[int, float]) -> Mapping[int, float]:
    if not isinstance(point_values, Mapping) or not point_values:
        raise ValueError("point_values must be a non-empty mapping")
    cleaned: dict[int, float] = {}
    for value, prob in point_values.items():
        try:
            v = _integer(value)
            if v < 1:
                raise ValueError
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"point value {value!r} is not a positive integer") from None
        cleaned[v] = _probability(f"point value {v}", prob)
    _sums_to_one("point value probabilities", list(cleaned.values()))
    return MappingProxyType(dict(sorted(cleaned.items())))


def _seconds(value, prefix: str = "") -> int:
    """A clock length (`regulation_length`): a positive `_integer` of seconds; a
    public function names its argument in `prefix`, which starts each refusal but the range's."""
    if (seconds := _named(prefix, _integer, value)) < 1:
        raise ValueError(f"regulation_length must be a positive number of seconds, got {seconds}")
    return seconds


def _check_cap(cap: int, point_values: Mapping[int, float]) -> None:
    """Raise ValueError unless the lead cap covers one event: cap >= the largest point value."""
    if cap < (top := max(point_values)):
        raise ValueError(f"lead cap {cap} (lead_truncation) is below the maximum point value {top}")


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _strings(name: str, values) -> tuple[str, ...]:
    """`values` as a tuple of `_string`s; ValueError "game_ids must be strings, got int"."""
    values = tuple(values)
    try:
        for value in values:
            _string(value)
    except TypeError:
        raise ValueError(f"{name} must be strings, got {type(value).__name__}") from None
    return values


def _team(lead) -> str | None:
    """The tag of the team ahead at `lead` (relative to r): TEAM_R, TEAM_B, or None at 0."""
    return TEAM_R if lead > 0 else TEAM_B if lead < 0 else None


class _Record:
    """Base of every record (see above): `__eq__` and `__hash__` go by the
    fields, or by identity for `eq=False` unless the class writes its own."""

    _paths: Mapping[str, str] = {}  # the JSON path of each field saved under another name
    _schema: str | None = None  # the schema version of a record saved as an artifact of its own

    def __init_subclass__(cls, eq: bool = True) -> None:
        cls._context = context = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()
        converters = []
        for name in vars(cls).get("__annotations__", {}):
            convert = vars(cls).get(name)
            if callable(convert):  # a converter, not a default: the dataclass never sees it
                delattr(cls, name)
                column = getattr(convert, "func", None) is _column  # names the field in its refusals
                refusal = "" if column else f"{context}: field {name!r}: "
                named = column or convert is _probability  # a reader that takes the field's name
                converters.append((name, partial(convert, name) if named else convert, refusal))
        cls._converters, cls._eq = tuple(converters), eq
        fields = dataclass(init=False, repr=False, eq=False)(cls).__dataclass_fields__
        cls._names = fields.keys()  # in declared order
        cls._defaults = {name: f.default for name, f in fields.items() if f.default is not MISSING}

    def __init__(self, *args, **kwargs) -> None:
        """Each field by position or keyword, or its default; then `__post_init__`."""
        names, given = self._names, dict(zip(self._names, args))
        values = {**self._defaults, **given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs or values.keys() != names:
            raise TypeError(f"{type(self).__name__}() takes the fields {tuple(names)}, got "
                            f"{len(args)} positional arguments and the keywords {tuple(kwargs)}")
        vars(self).update({name: values[name] for name in names})  # `vars` in declared order
        self.__post_init__()

    def __post_init__(self) -> None:
        values = vars(self)
        for name, convert, refusal in self._converters:
            values[name] = _named(refusal, convert, values[name])
        self._check()

    @classmethod
    def _converted(cls, name: str, value):
        """`value` converted as field `name` is, refused in the record's words."""
        return next(_named(r, c, value) for n, c, r in cls._converters if n == name)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._names, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if self._eq and other.__class__ is self.__class__:
            return self._values() == other._values()
        return True if self is other else NotImplemented

    def __hash__(self) -> int:  # a mapping field by its items, as it compares
        values = (frozenset(v.items()) if isinstance(v, Mapping) else v for v in self._values())
        return hash(tuple(values)) if self._eq else object.__hash__(self)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _check(self) -> None:
        """Raise ValueError unless the converted fields agree with each other."""

    def _same_length(self, *names: str) -> None:
        """Raise ValueError unless the columns `names` share one length."""
        if len({len(getattr(self, name)) for name in names}) > 1:
            got = ", ".join(f"{name} {len(getattr(self, name))}" for name in names)
            raise ValueError(f"{self._context}: columns must share one length, got {got}")

    @classmethod
    def _instance(cls, value) -> _Record:
        """The converter of a field that holds a `cls`: takes one as it is."""
        if not isinstance(value, cls):
            raise TypeError(f"expected a {cls.__name__}, got {type(value).__name__}")
        return value

    def _dump(self) -> dict:
        """The record's JSON object: every field at its path (see `_paths`)."""
        data = {"schema_version": self._schema} if self._schema else {}
        for name, _, _ in self._converters:
            value, path = _json(getattr(self, name)), self._paths.get(name, name)
            if path:
                *keys, key = path.split(".")
                reduce(lambda parent, k: parent.setdefault(k, {}), keys, data)[key] = value
            else:  # a nested record saved flat beside the other fields
                data.update(value)
        return data

    @classmethod
    def _load(cls, field: Callable, prefix: str = "") -> _Record:
        """The record read by `field` (a `_field` reader): each field at its path under `prefix`."""
        values = {}
        for name, convert, _ in cls._converters:
            path = ".".join(filter(None, (prefix, cls._paths.get(name, name))))
            record = getattr(convert, "__self__", None)  # a nested record's `_instance`
            if not isinstance(record, type):
                values[name] = field(path, convert)
            elif record._schema:  # an artifact of its own, refused in its own context
                values[name] = record._from_json(field(path))
            else:
                values[name] = record._load(field, path)
        return cls(**values)

    @classmethod
    def _from_json(cls, data) -> _Record:
        """The record saved as the JSON object `data`, of a known schema major."""
        context, major = cls._context, cls._schema.split(".")[0]
        if not isinstance(data, Mapping):
            raise ValueError(f"{context}: expected a JSON object, got {type(data).__name__}")
        if str(version := data.get("schema_version", "0")).split(".")[0] != major:
            raise ValueError(
                f"{context}: unsupported schema version {version!r} (supported major: {major})"
            )
        return cls._load(partial(_field, context, data))


def _json(value):
    """A field's value as JSON: a record as its `_dump`, an array or a tuple as
    a list, a mapping with `str` keys."""
    if isinstance(value, _Record):
        return value._dump()
    if isinstance(value, Mapping):
        return {str(k): v for k, v in value.items()}
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


class SportConfig(_Record):
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

    sport_id: str = _string
    regulation_length: int = _seconds
    period_ends: tuple[int, ...] = lambda values: tuple(map(_integer, values))
    point_values: Mapping[int, float] = _validated_point_values
    lead_truncation: int = _integer

    _paths = {"regulation_length": "regulation_length_seconds"}
    _schema = "1.0"

    def _check(self) -> None:
        if self.sport_id not in SPORT_IDS:
            raise ValueError(f"sport_id must be one of {SPORT_IDS}, got {self.sport_id!r}")
        ends = self.period_ends
        if not ends or any(b <= a for a, b in zip((0,) + ends, ends)):
            raise ValueError("period_ends must be strictly ascending and positive")
        if ends[-1] != self.regulation_length:
            raise ValueError("last period end must equal regulation_length")
        _check_cap(self.lead_truncation, self.point_values)


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


class GameLog(_Record, eq=False):
    """One game's time-ordered, same-second-merged regulation scoring events.

    Events are stored as parallel arrays for fast aggregation:
    `times` (strictly increasing seconds), `teams` (+1 for r, -1 for b),
    and `points` (positive values). At most one event per second; the
    ingest layer performs the same-second merge.
    """

    game_id: str = _string
    sport_id: str = _string
    times: np.ndarray = _ints
    teams: np.ndarray = partial(_column, dtype=np.int8)
    points: np.ndarray = _ints

    def _check(self) -> None:
        check_events(self.times, self.teams, self.points)

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
        return _team(self.final_lead())


def _joined(parts, name: str, dtype) -> np.ndarray:
    """Column `name` of every part (a game or a corpus), end to end, as `dtype`."""
    return np.concatenate([np.empty(0, dtype)] + [getattr(p, name) for p in parts])


class Corpus(Sequence):
    """Games laid end to end in one event layout, as a read-only `Sequence[GameLog]`.

    Game g is `game_ids[g]`, tagged `sport_ids[g]`, and holds events
    offsets[g]:offsets[g + 1] of the int64 `times`, int8 `teams` and int64
    `points` columns. The columns are copied and checked once (see
    `_column`), when the corpus is built, and made read-only.
    `corpus[g]` is a `GameLog` of views on them, and a contiguous slice is
    a `Corpus` of views. (A plain class, not a dataclass: every CLI run
    imports this module, and building a frozen dataclass took about 1 ms.)
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
        game_ids, sport_ids = _strings("game_ids", game_ids), _strings("sport_ids", sport_ids)
        offsets = _column("offsets", offsets, np.int64, array)
        times, teams, points = (
            _column(name, values, dtype, array)
            for (name, dtype), values in zip(_EVENT_COLUMNS, (times, teams, points))
        )
        if not (
            len(game_ids) == len(sport_ids) == len(offsets) - 1
            and offsets[0] == 0
            and offsets[-1] == len(times)
            and (offsets[1:] >= offsets[:-1]).all()
        ):
            raise ValueError("offsets must run from 0 to the event count, one entry per game")
        check_events(times, teams, points, offsets)
        self.game_ids, self.sport_ids, self.offsets = game_ids, sport_ids, offsets
        self.times, self.teams, self.points = times, teams, points

    @classmethod
    def of(cls, games: Iterable[GameLog]) -> Corpus:
        """`games` as a corpus: a corpus as it is, other games laid end to end
        (the one place that lays a list of games out)."""
        if isinstance(games, Corpus):
            return games
        games = list(games)
        columns = [_joined(games, name, dtype) for name, dtype in _EVENT_COLUMNS]
        offsets = np.cumsum([0] + [len(g.times) for g in games])
        ids = [g.game_id for g in games], [g.sport_id for g in games]
        return cls._owning(*ids, offsets, *columns)  # fresh columns: not copied again

    @classmethod
    def concat(cls, parts: Iterable[Corpus]) -> Corpus:
        """The games of `parts`, in order, as one corpus of their joined columns."""
        parts = list(parts)
        return cls._owning(
            chain.from_iterable(p.game_ids for p in parts),
            chain.from_iterable(p.sport_ids for p in parts),
            np.concatenate(([0], _joined(parts, "event_counts", np.int64).cumsum())),
            *(_joined(parts, name, dtype) for name, dtype in _EVENT_COLUMNS),
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
        game = object.__new__(GameLog)  # views on checked columns: no per-game copy and check
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

    def _slices(self) -> Iterator[Corpus]:
        """Views of at most _CHUNK_GAMES games: a pass over them bounds its memory."""
        return (self[lo : lo + _CHUNK_GAMES] for lo in range(0, len(self), _CHUNK_GAMES))

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
SPORT_IDS = BUILTIN_SPORTS + ("custom",)


def builtin_config(sport_id: str) -> SportConfig:
    """Return the built-in configuration for CFB, NFL, NHL, or NBA."""
    key = str(sport_id).upper()
    if key not in _BUILTIN_SPECS:
        raise ValueError(f"no built-in sport {sport_id!r} (known: {BUILTIN_SPORTS}); pass a config")
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
    return builtin_config(sport_id)


def _checked_corpus(
    games: Sequence[GameLog], config: SportConfig | None = None
) -> tuple[Corpus, SportConfig]:
    """The corpus of `games` and its config (`config_for_games`), with no event
    past the config's regulation length (`_check_clock`)."""
    corpus = Corpus.of(games)
    cfg = config_for_games(corpus, config)
    _check_clock(corpus, cfg.regulation_length)
    return corpus, cfg


def _check_clock(corpus: Corpus, regulation_length: int) -> None:
    """Raise ValueError, naming the first game with the latest event and that second, when it
    is past `regulation_length`: some estimates would count it and others silently drop it."""
    if len(corpus.times):
        k = int(np.argmax(corpus.times))  # the first latest event ends its game
        latest = int(corpus.times[k])
        if latest > regulation_length:
            game_id = corpus.game_ids[int(np.searchsorted(corpus.offsets, k, "right")) - 1]
            raise ValueError(
                f"game {game_id!r} has an event at second {latest}, "
                f"past the config's regulation length {regulation_length}"
            )


def _clock_grid(regulation_length: int, sample_every: int) -> np.ndarray:
    """Seconds 0, sample_every, 2 * sample_every, ... up to regulation_length (a `_seconds`)."""
    if (sample_every := _count("sample_every", sample_every, 1)) > regulation_length:
        raise ValueError(f"sample_every must be <= regulation_length ({regulation_length}), "
                         f"got {sample_every}")
    return np.arange(0, regulation_length + 1, sample_every, dtype=np.int64)


# --------------------------------------------------------------------------
# Sport config JSON interchange
# --------------------------------------------------------------------------

def config_to_dict(config: SportConfig) -> dict:
    return config._dump()


def _point_values(value) -> dict:
    """A JSON object of point values, each key read as the int whose `str` it
    is (the writers' form; JSON's keys are strings), any other key as it is."""
    if not isinstance(value, Mapping):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    pmf = {}
    for key, p in value.items():
        with suppress(TypeError, ValueError):
            key = int(key) if str(int(key)) == key else key
        pmf[key] = p
    return pmf


def _field(context: str, data: Mapping, path: str, convert: Callable | None = None):
    """data[k1][k2]... along the dotted `path`, passed through `convert`; a
    missing, mistyped or unconvertible field raises ValueError naming it."""
    def read(value):
        for key in path.split("."):
            if not isinstance(value, Mapping):
                raise TypeError(f"expected an object, got {type(value).__name__}")
            if key not in value:
                raise ValueError(f"missing key {key!r}")
            value = value[key]
        if convert is _validated_point_values:  # JSON's keys are strings
            value = _point_values(value)
        return value if convert is None else convert(value)
    return _named(f"{context}: field {path!r}: ", read, data)


def _load_json(path: str | os.PathLike, context: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{context}: not UTF-8: {exc}") from None
        except RecursionError:
            raise ValueError(f"{context}: JSON nested too deeply") from None


def config_from_dict(data: Mapping) -> SportConfig:
    return SportConfig._from_json(data)


def save_config(config: SportConfig, path: str | os.PathLike) -> None:
    atomic_write_text(path, json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")


def load_config(path: str | os.PathLike) -> SportConfig:
    return config_from_dict(_load_json(path, "sport config"))

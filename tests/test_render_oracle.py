"""The column renderer against a per-event reference renderer.

`reference_render` is the renderer that `render_event_file` replaced: it
formats every record of every game on its own, CSV with an f-string and
JSONL with `json.dumps` of the whole record. CSV game ids go through
`csv.writer`, which quotes an id holding a comma, a quote or a line end.
The column renderer formats each distinct (signed points, t) tail once,
keyed densely over the pairs' ranges or, past `_KEYS_PER_EVENT` keys per
event, by a sort. It must give the same bytes on both paths, or reject a
game whose id would not read back as itself.
"""

import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scoredyn as sd
from scoredyn import ingest
from scoredyn.ingest import CSV_COLUMNS, render_event_file

INT64_MAX = 2**63 - 1


def csv_field(value):
    out = io.StringIO()
    csv.writer(out).writerow([value])
    return out.getvalue().removesuffix("\r\n")


def reads_back(game_id, fmt):
    """Ingest strips ids; CSV ingest reads a carriage return as a line end,
    and before Python 3.11 rejects NUL."""
    if not game_id or game_id != game_id.strip():
        return False
    return fmt == "jsonl" or not ("\r" in game_id or "\0" in game_id)


def reference_render(games, fmt="csv"):
    lines = [",".join(CSV_COLUMNS)] if fmt == "csv" else []
    for game in games:
        sport, gid = game.sport_id.lower(), game.game_id
        tags = ["r" if sign > 0 else "b" for sign in game.teams.tolist()]
        records = zip(tags, game.times.tolist(), game.points.tolist())
        if fmt == "csv":
            prefix = f"{sport},{csv_field(gid)},"
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


@st.composite
def games_lists(draw):
    """Games with shared and distinct ids and sports, empty games, ids with
    quotes, commas, line ends, padding, backslashes and non-ASCII text,
    points up to 2**31 - 1 (or, in some lists, up to the int64 limit) and
    t up to the int64 limit."""
    max_points = draw(st.sampled_from([3, 2**31 - 1, INT64_MAX]))
    max_t = draw(st.sampled_from([60, 3600, INT64_MAX]))
    games = []
    for _ in range(draw(st.integers(0, 6))):
        times = sorted(draw(st.sets(st.integers(0, max_t), max_size=12)))
        n = len(times)
        teams = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        points = draw(
            st.lists(
                st.one_of(st.integers(1, 3), st.integers(1, max_points), st.just(max_points)),
                min_size=n,
                max_size=n,
            )
        )
        game_id = draw(
            st.one_of(
                st.sampled_from(
                    ["g1", 'q"x', "a\\b", "é☃", "𝄞 id", "a,b", "n\nl", " pad", "c\rr", "x\x00"]
                ),
                st.text(max_size=6),
            )
        )
        sport = draw(st.sampled_from(["NBA", "nfl", "Tiny", "ü"]))
        games.append(
            sd.GameLog(
                game_id,
                sport,
                np.array(times, dtype=np.int64),
                np.array(teams, dtype=np.int8),
                np.array(points, dtype=np.int64),
            )
        )
    return games


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@settings(max_examples=150, deadline=None)
@given(games=games_lists())
def test_column_renderer_matches_reference(fmt, games):
    unreadable = [g.game_id for g in games if g.n_events and not reads_back(g.game_id, fmt)]
    if unreadable:
        with pytest.raises(ValueError, match=re.escape(f"game {unreadable[0]!r}: ")):
            render_event_file(games, fmt)
        games = [g for g in games if reads_back(g.game_id, fmt) or not g.n_events]
    assert render_event_file(games, fmt) == reference_render(games, fmt)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_simulated_corpus_renders_identically(fmt):
    games = sd.ideal_corpus(sd.builtin_config("nba"), 0.0437, 200, seed=8)
    assert render_event_file(iter(games), fmt) == reference_render(games, fmt)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_empty_games_and_escaped_ids(fmt):
    def game(gid, times, teams, points):
        return sd.GameLog(gid, "nba", np.array(times, np.int64), np.array(teams), np.array(points))

    games = [
        game("empty", [], [], []),
        game('q"é\\☃', [0, 7, INT64_MAX], [1, -1, 1], [2**31 - 1, 3, 1]),
        game("empty", [], [], []),
        game("g2", [7], [-1], [3]),
    ]
    text = render_event_file(games, fmt)
    assert text == reference_render(games, fmt)
    if fmt == "jsonl":
        assert '"game_id":"q\\"\\u00e9\\\\\\u2603"' in text
    else:
        assert '\nnba,"q""é\\☃",r,0,' in text
    assert render_event_file(games[:1], fmt) == reference_render(games[:1], fmt)


def sort_calls(monkeypatch):
    """The lengths `render_event_file` passes to `_sort_order`, call by call."""
    calls = []
    sort_order = ingest._sort_order

    def spy(major, minor):
        calls.append(len(major))
        return sort_order(major, minor)

    monkeypatch.setattr(ingest, "_sort_order", spy)
    return calls


def bound_games(t_span):
    """30 events of signed points -2 or 3 (6 values) over seconds 0..t_span - 1."""
    rng = np.random.default_rng(5)
    games = []
    for g in range(3):
        inner = rng.choice(np.arange(1, t_span - 1), 8, replace=False)
        times = np.concatenate(([0], np.sort(inner), [t_span - 1]))
        teams = np.array([1, -1] * 5, dtype=np.int8)
        games.append(sd.GameLog(f"g{g}", "nba", times, teams, np.where(teams > 0, 3, 2)))
    return games


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("t_span, dense", [(20, True), (21, False)])
def test_both_sides_of_the_dense_key_bound(monkeypatch, fmt, t_span, dense):
    games = bound_games(t_span)
    assert 6 * 20 == ingest._KEYS_PER_EVENT * 30  # t_span 20 is the last dense one
    calls = sort_calls(monkeypatch)
    assert render_event_file(games, fmt) == reference_render(games, fmt)
    assert calls == ([] if dense else [30])


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_huge_points_and_times_take_the_sort(monkeypatch, fmt):
    def game(gid, times, teams, points):
        return sd.GameLog(gid, "nba", np.array(times, np.int64), np.array(teams), np.array(points))

    games = [
        game("big", [0, 5, 2**40, INT64_MAX], [1, -1, -1, 1], [2**31 - 1, 2**31 - 2, 1, 7]),
        game("g2", [3, 2**40], [-1, 1], [2**31 - 1, 2**31 - 1]),
    ]
    calls = sort_calls(monkeypatch)
    assert render_event_file(games, fmt) == reference_render(games, fmt)
    assert calls == [6]


def random_games(rng, name, n_games, n_events, t_range, points):
    """Games of `n_events` events at distinct seconds of `t_range`, each won
    by either side, worth one of `points`."""
    games = []
    for g in range(n_games):
        times = np.sort(rng.choice(np.arange(*t_range), n_events, replace=False))
        teams = rng.choice(np.array([1, -1], dtype=np.int8), n_events)
        games.append(sd.GameLog(f"{name}{g}", "nba", times, teams, rng.choice(points, n_events)))
    return games


def tails_formatted(monkeypatch):
    """The number of tails `_tails` formats, call by call."""
    calls = []
    tails = ingest._tails

    def spy(fmt, signed, times):
        calls.append(len(signed))
        return tails(fmt, signed, times)

    monkeypatch.setattr(ingest, "_tails", spy)
    return calls


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_later_slices_grow_the_tail_table(tmp_path, monkeypatch, fmt):
    """Each slice a write passes through: the second reaches lower and higher
    t and new signed values, the third is sparse (huge t and points), and the
    fourth is dense again and grows the table past the second's range. The
    dense slices share one table, so each of their distinct tails is
    formatted once per file; the sparse one takes the sort alone."""
    rng = np.random.default_rng(11)
    slices = [
        random_games(rng, "a", 6, 60, (100, 201), [2, 3]),
        random_games(rng, "b", 10, 60, (50, 251), [1, 2, 3, 4]),
        [sd.GameLog("c0", "nba", np.array([0, 7, 2**40]), np.array([1, -1, 1]),
                    np.array([2**31 - 1, 3, 2]))],
        random_games(rng, "d", 10, 60, (30, 261), [1, 2, 3, 4]),
    ]
    games = [g for part in slices for g in part]
    sorts, formatted = sort_calls(monkeypatch), tails_formatted(monkeypatch)
    path = tmp_path / f"games.{fmt}"
    parts = iter([sd.Corpus.of(part) for part in slices])
    assert sd.write_event_file(parts, path, fmt) == sum(g.n_events for g in games)
    assert path.read_text(encoding="utf-8") == reference_render(games, fmt)
    assert sorts == [3]

    def distinct(part):
        return {(int(s), int(t)) for g in part for s, t in zip(g.signed_points, g.times)}

    dense = distinct(slices[0]) | distinct(slices[1]) | distinct(slices[3])
    assert sum(formatted) == len(dense) + 3
    for k in (1, 3):  # each dense slice after the first adds tails the table lacked
        assert distinct(slices[k]) - set().union(*map(distinct, slices[:k]))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_slice_inside_the_table_formats_nothing(tmp_path, monkeypatch, fmt):
    """A slice whose tails the table already holds formats none, even when it
    is too small to be dense on its own."""
    rng = np.random.default_rng(12)
    first = random_games(rng, "a", 8, 60, (0, 121), [1, 2, 3])
    again = [sd.GameLog(g.game_id + "x", "nba", g.times[:3], g.teams[:3], g.points[:3])
             for g in first[:2]]
    formatted = tails_formatted(monkeypatch)
    path = tmp_path / f"games.{fmt}"
    sd.write_event_file(iter([sd.Corpus.of(first), sd.Corpus.of(again)]), path, fmt)
    assert path.read_text(encoding="utf-8") == reference_render(first + again, fmt)
    assert len(formatted) == 2 and formatted[1] == 0

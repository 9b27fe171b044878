"""Parsing, preprocessing (overtime filter, same-second merge), round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scoredyn as sd
from scoredyn import ingest
from scoredyn.cli import main
from scoredyn.ingest import (
    CorpusReport,
    IngestError,
    SportSummary,
    _resolve_sport,
    render_event_file,
)

HEADER = "sport,game_id,team,t,points\n"


def write_csv(tmp_path, rows, name="games.csv"):
    path = tmp_path / name
    path.write_text(HEADER + "".join(f"{r}\n" for r in rows), encoding="utf-8")
    return path


class TestParsing:
    def test_single_row(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,r,10,7"])
        games = sd.parse_event_file(path)
        assert len(games) == 1
        assert games[0].game_id == "g1"
        assert games[0].n_events == 1
        assert list(games[0].times) == [10]
        assert list(games[0].points) == [7]

    def test_overtime_filtered(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,r,3610,7"])
        games = sd.parse_event_file(path)
        assert len(games) == 1
        assert games[0].n_events == 0

    def test_buzzer_event_retained(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,r,3600,7"])
        games = sd.parse_event_file(path)
        assert games[0].n_events == 1

    def test_same_second_same_team_merged(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,r,10,2", "nfl,g1,r,10,1"])
        games = sd.parse_event_file(path)
        assert games[0].n_events == 1
        assert list(games[0].times) == [10]
        assert list(games[0].points) == [3]

    def test_same_second_cross_team_netted(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,r,10,7", "nfl,g1,b,10,3"])
        games = sd.parse_event_file(path)
        assert games[0].n_events == 1
        assert list(games[0].teams) == [1]
        assert list(games[0].points) == [4]

    def test_same_second_net_zero_dropped(self, tmp_path):
        path = write_csv(tmp_path, ["nhl,g1,r,10,1", "nhl,g1,b,10,1"])
        games = sd.parse_event_file(path)
        assert games[0].n_events == 0

    def test_home_away_mapped(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,home,10,7", "nfl,g1,away,20,3"])
        games = sd.parse_event_file(path)
        assert list(games[0].teams) == [1, -1]

    def test_events_sorted_by_time(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,r,500,3", "nfl,g1,b,10,7"])
        games = sd.parse_event_file(path)
        assert list(games[0].times) == [10, 500]

    def test_multiple_games_grouped(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,r,10,7", "nfl,g2,b,20,3", "nfl,g1,b,30,3"])
        games = sd.parse_event_file(path)
        assert [g.game_id for g in games] == ["g1", "g2"]
        assert games[0].n_events == 2

    def test_jsonl_matches_csv(self, tmp_path):
        csv_path = write_csv(tmp_path, ["nfl,g1,r,10,7", "nfl,g1,b,500,3"])
        jsonl_path = tmp_path / "games.jsonl"
        jsonl_path.write_text(
            '{"sport": "nfl", "game_id": "g1", "team": "r", "t": 10, "points": 7}\n'
            '{"sport": "nfl", "game_id": "g1", "team": "b", "t": 500, "points": 3}\n',
            encoding="utf-8",
        )
        assert sd.parse_event_file(csv_path) == sd.parse_event_file(jsonl_path)

    def test_custom_sport_config(self, tmp_path):
        cfg = sd.SportConfig("custom", 100, (100,), {1: 1.0}, 10)
        path = write_csv(tmp_path, ["tiny,g1,r,50,1", "tiny,g1,b,150,1"])
        games = sd.parse_event_file(path, configs={"tiny": cfg})
        assert games[0].n_events == 1  # t=150 is overtime for T=100


class TestParseErrors:
    def test_malformed_row_names_line_and_field(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,r,10,7", "nfl,g2,r,abc,7"])
        with pytest.raises(IngestError, match=r"line 3: field 't'"):
            sd.parse_event_file(path)

    def test_unknown_sport_tag(self, tmp_path):
        path = write_csv(tmp_path, ["curling,g1,r,10,1"])
        with pytest.raises(IngestError, match="unknown sport tag"):
            sd.parse_event_file(path)

    def test_unknown_sport_tag_names_first_offending_line(self, tmp_path):
        rows = ["nhl,g1,r,10,1", "curling,g2,r,10,1", "curling,g2,b,20,1"]
        with pytest.raises(IngestError, match="line 3: field 'sport'"):
            sd.parse_event_file(write_csv(tmp_path, rows))

    def test_negative_points(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,r,10,-3"])
        with pytest.raises(IngestError, match="points must be positive"):
            sd.parse_event_file(path)

    def test_negative_time(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,r,-5,3"])
        with pytest.raises(IngestError, match="negative time"):
            sd.parse_event_file(path)

    def test_bad_team_tag(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,visitor,10,3"])
        with pytest.raises(IngestError, match="unknown team tag"):
            sd.parse_event_file(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(IngestError, match="expected columns"):
            sd.parse_event_file(path)

    def test_unknown_suffix_names_the_keyword_and_the_flag(self, tmp_path):
        path = tmp_path / "games.out"
        message = (f"cannot infer format from {str(path)!r}; pass fmt='csv' or 'jsonl' "
                   "(--format csv or --format jsonl on the command line)")
        for call in (lambda: sd.parse_event_file(path), lambda: sd.write_event_file([], path)):
            with pytest.raises(IngestError) as info:
                call()
            assert str(info.value) == message
        assert not path.exists()
        assert sd.parse_event_file(write_csv(tmp_path, ["nfl,g1,r,10,7"]), fmt="csv")


class TestDiagnostics:
    """Errors name the physical line; numbers are never truncated or wrapped."""

    def write_jsonl(self, tmp_path, *objs):
        path = tmp_path / "games.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in objs), encoding="utf-8")
        return path

    def test_csv_line_counts_blank_lines(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,r,10,7", "", "", "nfl,g1,r,abc,7"])
        with pytest.raises(IngestError, match=r"^line 5: field 't'"):
            sd.parse_event_file(path)

    def test_csv_wrong_field_count_names_physical_line(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,r,10,7", "", "nfl,g1,r,10"])
        with pytest.raises(IngestError, match=r"^line 4: field 'row'"):
            sd.parse_event_file(path)

    def test_csv_padded_header_reads_fields_by_position(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text("sport, game_id, team, t, points\nnfl,g1,r,10,7\n", encoding="utf-8")
        (game,) = sd.parse_event_file(path)
        assert (game.game_id, list(game.times), list(game.points)) == ("g1", [10], [7])

    def test_csv_oversized_field_is_a_diagnostic(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,r,10,7", "nfl,g1,r,10," + "7" * 200_000])
        with pytest.raises(IngestError, match=r"^line 3: field 'csv'"):
            sd.parse_event_file(path)

    @pytest.mark.parametrize(
        "field, value",
        [("t", 10.7), ("t", 10.0), ("t", True), ("points", 2.5), ("points", False),
         ("points", 7.0)],
    )
    def test_jsonl_rejects_floats_and_bools(self, tmp_path, field, value):
        obj = {"sport": "nfl", "game_id": "g1", "team": "r", "t": 10, "points": 7}
        path = self.write_jsonl(tmp_path, obj, {**obj, field: value})
        with pytest.raises(IngestError, match=rf"^line 2: field '{field}'"):
            sd.parse_event_file(path)

    def test_jsonl_accepts_integer_strings(self, tmp_path):
        obj = {"sport": "nfl", "game_id": "g1", "team": "r", "t": " 10", "points": "7"}
        (game,) = sd.parse_event_file(self.write_jsonl(tmp_path, obj))
        assert (list(game.times), list(game.points)) == ([10], [7])

    @pytest.mark.parametrize(
        "field, value, kind",
        [("game_id", 5, "int"), ("game_id", [1, 2], "list"), ("sport", 7, "int"),
         ("team", 1, "int"), ("game_id", False, "bool"), ("sport", {"id": "nfl"}, "dict")],
    )
    def test_jsonl_rejects_non_string_tags_and_ids(self, tmp_path, field, value, kind):
        # 5 and "5" would otherwise read back as one game '5'
        obj = {"sport": "nfl", "game_id": "5", "team": "r", "t": 10, "points": 7}
        path = self.write_jsonl(tmp_path, obj, {**obj, field: value})
        with pytest.raises(IngestError) as exc:
            sd.parse_event_file(path)
        assert str(exc.value) == f"line 2: field '{field}': expected a string, got {kind}"

    def test_jsonl_missing_value_is_named_before_a_non_string(self, tmp_path):
        obj = {"sport": 5, "game_id": "", "team": 1, "t": 10, "points": 7}
        with pytest.raises(IngestError, match=r"^line 1: field 'game_id': missing value$"):
            sd.parse_event_file(self.write_jsonl(tmp_path, obj))

    def test_jsonl_line_separator_inside_a_string_is_not_a_line_break(self, tmp_path):
        path = tmp_path / "games.jsonl"
        record = '{"sport": "nfl", "game_id": "a\u2028b", "team": "r", "t": %s, "points": 7}\n'
        path.write_text(record % 10 + record % '"x"', encoding="utf-8")
        with pytest.raises(IngestError, match=r"^line 2: field 't'"):
            sd.parse_event_file(path)

    def test_huge_points_rejected(self, tmp_path, capsys):
        path = write_csv(tmp_path, ["nfl,g1,r,10,100000000000000000000"])
        with pytest.raises(IngestError, match=r"^line 2: field 'points'"):
            sd.parse_event_file(path)
        assert main(["fit", "--in", str(path), "--out", str(tmp_path / "m.json")]) == 1
        assert "line 2: field 'points'" in capsys.readouterr().err

    @pytest.mark.parametrize("nesting", ["[" * 100_000, '{"t": ' * 100_000 + "1" + "}" * 100_000])
    def test_jsonl_deep_nesting_is_a_diagnostic(self, tmp_path, capsys, nesting):
        obj = {"sport": "nba", "game_id": "g1", "team": "r", "t": 10, "points": 2}
        path = tmp_path / "deep.jsonl"
        path.write_text(json.dumps(obj) + "\n" + nesting + "\n", encoding="utf-8")
        with pytest.raises(IngestError, match=r"^line 2: field 'json': nested too deeply"):
            sd.parse_event_file(path)
        args = ["fit", "--in", str(path), "--sport", "nba", "--out", str(tmp_path / "m.json")]
        assert main(args) == 1
        assert "line 2: field 'json'" in capsys.readouterr().err

    def test_same_second_sum_stays_exact(self, tmp_path):
        top = 2**31 - 1
        (game,) = sd.parse_event_file(write_csv(tmp_path, [f"nfl,g1,r,10,{top}"] * 2))
        assert list(game.points) == [2 * top]
        path = write_csv(tmp_path, [f"nfl,g1,r,10,{top}", f"nfl,g1,r,10,{2**62}"])
        with pytest.raises(IngestError, match=r"^line 3: field 'points'"):
            sd.parse_event_file(path)


class TestRoundTrip:
    def test_parse_write_parse_identical(self, tmp_path):
        path = write_csv(
            tmp_path,
            ["nfl,g1,r,10,7", "nfl,g1,b,500,3", "nfl,g2,home,20,2", "nhl,g3,away,100,1"],
        )
        games = sd.parse_event_file(path)
        out = tmp_path / "out.csv"
        sd.write_event_file(games, out)
        assert sd.parse_event_file(out) == games

    def test_canonical_form_is_idempotent(self, tmp_path):
        path = write_csv(tmp_path, ["nfl,g1,b,500,3", "nfl,g1,r,10,7"])
        games = sd.parse_event_file(path)
        out = tmp_path / "canon.csv"
        sd.write_event_file(games, out)
        again = sd.parse_event_file(out)
        out2 = tmp_path / "canon2.csv"
        sd.write_event_file(again, out2)
        assert out.read_bytes() == out2.read_bytes()
        assert render_event_file(again) == out.read_text(encoding="utf-8")

    def test_jsonl_round_trip(self, tmp_path):
        path = write_csv(tmp_path, ["nba,g1,r,10,2", "nba,g1,b,20,3"])
        games = sd.parse_event_file(path)
        out = tmp_path / "out.jsonl"
        sd.write_event_file(games, out)
        assert sd.parse_event_file(out) == games

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @given(
        game_ids=st.lists(
            st.one_of(
                st.text(max_size=8), st.sampled_from(["a,b", 'q"x', "n\nl", "x\x00", "c\rr"])
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_any_id_reads_back_or_is_rejected_by_name(self, tmp_path_factory, fmt, game_ids):
        games = [sd.GameLog(gid, "NBA", [i], [1], [2]) for i, gid in enumerate(game_ids)]
        path = tmp_path_factory.mktemp("ids") / f"games.{fmt}"
        try:
            sd.write_event_file(games, path)
        except ValueError as exc:
            (gid,) = [g for g in game_ids if str(exc).startswith(f"game {g!r}: ")]
            csv_only = fmt == "csv" and ("\r" in gid or "\0" in gid)  # a line end; NUL before 3.11
            assert gid != gid.strip() or not gid or csv_only
            assert not path.exists()
        else:
            assert sd.parse_event_file(path) == games

    def test_output_events_never_exceed_input_records(self, tmp_path):
        rows = ["nfl,g1,r,10,7", "nfl,g1,r,10,3", "nfl,g1,b,20,2", "nfl,g1,r,9999,7"]
        path = write_csv(tmp_path, rows)
        games = sd.parse_event_file(path)
        assert sum(g.n_events for g in games) <= len(rows)


class TestByteTokenizer:
    """Files as the writer writes them never reach the row path, whatever
    their line ends, sport tag case or team tag spelling."""

    @pytest.mark.parametrize("sport, rate", [("nfl", 0.004), ("nba", 0.0437)])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("spelling", ["as written", "uppercase sport, home/away"])
    @pytest.mark.parametrize("block_rows", [ingest._BLOCK_ROWS, 256])
    def test_written_files_parse_without_the_row_path(
        self, tmp_path, monkeypatch, sport, rate, newline, spelling, block_rows
    ):
        games = sd.ideal_corpus(sd.builtin_config(sport), rate, 40, seed=11)
        path = tmp_path / "games.csv"
        sd.write_event_file(games, path)
        header, *lines = path.read_text(encoding="utf-8").splitlines()
        if spelling != "as written":
            team = {"r": "home", "b": "away"}
            lines = [
                f"{s.upper()},{g},{team[side]},{t},{p}"
                for s, g, side, t, p in (line.split(",") for line in lines)
            ]
        path.write_bytes(newline.join([header, *lines, ""]).encode("utf-8"))

        def row_path(*args):
            raise AssertionError("the row path ran")

        monkeypatch.setattr(ingest, "_row_records", row_path)
        monkeypatch.setattr(ingest, "_BLOCK_ROWS", block_rows)
        assert sd.parse_event_file(path) == games

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("stale", [64, 3, -10])
    def test_size_changed_since_stat(self, tmp_path, monkeypatch, newline, stale):
        """A file that shrank (or grew) between its stat and its read parses
        as the bytes read, with no padding counted as file bytes."""
        games = sd.ideal_corpus(sd.builtin_config("nba"), 0.0437, 5, seed=3)
        path = tmp_path / "games.csv"
        sd.write_event_file(games, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_bytes(newline.join([*lines, ""]).encode("utf-8"))
        real_fstat = ingest.os.fstat

        def stale_fstat(fd):
            st = real_fstat(fd)
            return type("Stat", (), {"st_size": max(st.st_size + stale, 0)})

        monkeypatch.setattr(ingest.os, "fstat", stale_fstat)
        assert sd.parse_event_file(path) == games


def loop_validate(games, configs=None):
    """`validate_corpus` as the per-game loop it replaced."""
    failures, n_games, n_events, resolved = [], {}, {}, {}
    for game in games:
        n_games[game.sport_id] = n_games.get(game.sport_id, 0) + 1
        n_events[game.sport_id] = n_events.get(game.sport_id, 0) + game.n_events
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
        outside = sorted({int(p) for p in game.points} - set(cfg.point_values))
        if outside:
            failures.append(
                f"game {game.game_id}: point values {outside} outside configured support"
            )
    total = sum(n_events.values())
    return CorpusReport(
        n_games=len(games),
        n_events=total,
        events_per_game=total / len(games) if games else 0.0,
        per_sport={
            s: SportSummary(s, n_games[s], n_events[s], n_events[s] / n_games[s])
            for s in sorted(n_games)
        },
        failures=tuple(failures),
    )


VALIDATE_SPORTS = ["NFL", "NHL", "NBA", "XFL", "custom", "nhl"]


@st.composite
def mixed_games(draw):
    """Games of known and unknown sports, some past regulation, some with
    points outside their sport's support, some without events."""
    games = []
    for i in range(draw(st.integers(0, 8))):
        second = st.one_of(st.integers(0, 3700), st.sampled_from([2880, 2881, 3600, 3601]))
        times = sorted(draw(st.lists(second, max_size=6, unique=True)))
        teams = draw(st.lists(st.sampled_from([1, -1]), min_size=len(times), max_size=len(times)))
        points = draw(st.lists(st.integers(1, 9), min_size=len(times), max_size=len(times)))
        games.append(sd.GameLog(f"g{i}", draw(st.sampled_from(VALIDATE_SPORTS)), times, teams,
                                points))
    return games


class TestValidateCorpus:
    @given(mixed_games(), st.sampled_from([None, {"custom": sd.builtin_config("nba")}]))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_game_loop(self, games, configs):
        assert sd.validate_corpus(games, configs) == loop_validate(games, configs)

    def test_matches_per_game_loop_on_every_failure_kind(self):
        games = [
            sd.GameLog("late", "NBA", [10, 2881], [1, -1], [2, 2]),
            sd.GameLog("odd", "NHL", [10, 20, 30], [1, 1, -1], [1, 3, 2]),
            sd.GameLog("both", "NBA", [3000], [1], [9]),
            sd.GameLog("unknown", "XFL", [4000], [1], [99]),
            sd.GameLog("empty", "NFL", [], [], []),
            sd.GameLog("fine", "NFL", [10, 3600], [1, -1], [7, 3]),
        ]
        report = sd.validate_corpus(sd.Corpus.of(games))
        assert report == loop_validate(games)
        assert report.failures == (
            "game late: event at t=2881 beyond regulation 2880",
            "game odd: point values [2, 3] outside configured support",
            "game both: event at t=3000 beyond regulation 2880",
            "game both: point values [9] outside configured support",
            "game unknown: unknown sport 'XFL'",
        )

    def test_empty_corpus_zero_counts(self):
        report = sd.validate_corpus([])
        assert report.n_games == 0
        assert report.n_events == 0
        assert report.events_per_game == 0.0

    def test_counts_and_mean(self):
        games = [
            sd.GameLog("g1", "NFL", [10, 20], [1, -1], [7, 3]),
            sd.GameLog("g2", "NFL", [15], [1], [7]),
        ]
        report = sd.validate_corpus(games)
        assert report.n_games == 2
        assert report.n_events == 3
        assert report.events_per_game == pytest.approx(1.5)
        assert report.per_sport["NFL"].n_games == 2

    def test_corpus_totals_give_published_events_per_game(self):
        # 2,654 games holding 19,476 events average 7.34 events per game.
        mean = 19476 / 2654
        assert mean == pytest.approx(7.34, abs=0.005)

    def test_out_of_support_points_reported(self):
        games = [sd.GameLog("g1", "NHL", [10], [1], [5])]
        report = sd.validate_corpus(games)
        assert any("outside configured support" in f for f in report.failures)

    def test_unknown_sport_reported_per_game(self):
        games = [
            sd.GameLog("g1", "XFL", [10], [1], [7]),
            sd.GameLog("g2", "NFL", [15], [1], [7]),
            sd.GameLog("g3", "XFL", [], [], []),
        ]
        report = sd.validate_corpus(games)
        assert list(report.failures) == ["game g1: unknown sport 'XFL'", "game g3: unknown sport 'XFL'"]
        assert report.per_sport["XFL"].n_games == 2

    def test_synthetic_corpus_mean_events(self):
        # Monte Carlo oracle: flat tempo at rate 0.002 over seconds
        # 1..3600 gives mean events per game 0.002 * 3600 = 7.2.
        spec = sd.default_league(
            n_teams=4, n_games=1000, regulation_length=3600, rate=0.002, seed=5
        )
        games = sd.generate_league(spec)
        report = sd.validate_corpus(games, configs={"custom": sd.league_config(spec)})
        se = np.sqrt(7.2 / 1000)
        assert abs(report.events_per_game - 7.2) < 3 * se

"""Domain types: sport configs, game logs and the corpus."""

import dataclasses

import numpy as np
import pytest

import scoredyn as sd
from scoredyn.core import config_from_dict, config_to_dict


class TestBuiltinConfigs:
    def test_regulation_lengths(self):
        assert sd.builtin_config("cfb").regulation_length == 3600
        assert sd.builtin_config("nfl").regulation_length == 3600
        assert sd.builtin_config("nhl").regulation_length == 3600
        assert sd.builtin_config("nba").regulation_length == 2880

    def test_period_structure(self):
        assert sd.builtin_config("nfl").period_ends == (900, 1800, 2700, 3600)
        assert sd.builtin_config("nhl").period_ends == (1200, 2400, 3600)
        assert sd.builtin_config("nba").period_ends == (720, 1440, 2160, 2880)

    def test_point_values_encoded_exactly(self):
        assert sd.builtin_config("nhl").point_values == {1: 1.0}
        nba = sd.builtin_config("nba").point_values
        assert nba[2] == 0.7373
        nfl = sd.builtin_config("nfl").point_values
        assert nfl[7] == 0.6222
        assert nfl[3] == 0.3055
        assert sd.builtin_config("cfb").point_values[7] == 0.7058

    def test_point_values_sum_to_one(self):
        for sport in sd.BUILTIN_SPORTS:
            total = sum(sd.builtin_config(sport).point_values.values())
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_lead_truncation_defaults(self):
        assert sd.builtin_config("nhl").lead_truncation == 15
        for sport in ("cfb", "nfl", "nba"):
            assert sd.builtin_config(sport).lead_truncation == 100

    def test_unknown_sport(self):
        with pytest.raises(ValueError, match="no built-in sport"):
            sd.builtin_config("mlb")


class TestSportConfigValidation:
    def test_period_ends_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            sd.SportConfig("custom", 100, (60, 30, 100), {1: 1.0}, 10)

    def test_last_period_must_equal_regulation(self):
        with pytest.raises(ValueError, match="regulation_length"):
            sd.SportConfig("custom", 100, (50, 99), {1: 1.0}, 10)

    def test_pmf_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            sd.SportConfig("custom", 100, (100,), {1: 0.5, 2: 0.4}, 10)

    def test_point_values_positive_integers(self):
        with pytest.raises(ValueError, match="positive integer"):
            sd.SportConfig("custom", 100, (100,), {0: 1.0}, 10)

    def test_non_finite_probability_rejected(self):
        with pytest.raises(ValueError, match="must be a finite probability in .0, 1., got nan$"):
            sd.SportConfig("custom", 100, (100,), {1: float("nan")}, 5)

    def test_truncation_covers_max_value(self):
        with pytest.raises(ValueError, match="lead_truncation"):
            sd.SportConfig("custom", 100, (100,), {7: 1.0}, 5)

    @pytest.mark.parametrize("value", [3600.7, True, float("inf"), "3600"])
    def test_non_integer_regulation_length_rejected(self, value):
        with pytest.raises(ValueError, match=r"^sport config: field 'regulation_length': "):
            sd.SportConfig("custom", value, (3600,), {1: 1.0}, 15)

    @pytest.mark.parametrize("ends", [(1800.5, 3600), (True, 3600), (1800, "3600")])
    def test_non_integer_period_end_rejected(self, ends):
        with pytest.raises(ValueError, match=r"^sport config: field 'period_ends': "):
            sd.SportConfig("custom", 3600, ends, {1: 1.0}, 15)

    @pytest.mark.parametrize("cap", [15.9, True, float("nan")])
    def test_non_integer_lead_truncation_rejected(self, cap):
        with pytest.raises(ValueError, match=r"^sport config: field 'lead_truncation': "):
            sd.SportConfig("custom", 3600, (3600,), {1: 1.0}, cap)

    def test_integral_floats_and_numpy_integers_load(self):
        cfg = sd.SportConfig(
            "custom", 3600.0, (np.int64(1800), 3600.0), {1: 1.0}, np.int32(15)
        )
        assert (cfg.regulation_length, cfg.period_ends, cfg.lead_truncation) == (
            3600,
            (1800, 3600),
            15,
        )
        assert all(
            type(v) is int for v in (cfg.regulation_length, *cfg.period_ends, cfg.lead_truncation)
        )


class TestGameLog:
    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            sd.GameLog("g", "NFL", [10, 10], [1, -1], [3, 3])

    def test_points_positive(self):
        with pytest.raises(ValueError, match="positive"):
            sd.GameLog("g", "NFL", [10], [1], [0])

    def test_team_encoding(self):
        with pytest.raises(ValueError, match=r"\+1.*-1"):
            sd.GameLog("g", "NFL", [10], [2], [3])

    def test_final_lead_and_winner(self):
        game = sd.GameLog("g1", "NFL", [10, 500], [1, -1], [7, 3])
        assert game.final_lead() == 4
        assert game.winner() == "r"

    def test_arrays_read_only(self):
        game = sd.GameLog("g", "NFL", [10], [1], [7])
        with pytest.raises(ValueError):
            game.times[0] = 5

    def test_tie_has_no_winner(self):
        game = sd.GameLog("g", "NHL", [10, 20], [1, -1], [1, 1])
        assert game.winner() is None

    @pytest.mark.parametrize("column", ["times", "teams", "points"])
    def test_non_integer_column_rejected(self, column):
        good = {"times": [1, 20], "teams": [1, -1], "points": [7, 3]}
        for values in non_integer(good[column]):
            with pytest.raises(ValueError, match=f"^{column} must be integers, got values of dtype"):
                sd.GameLog("g", "NFL", **{**good, column: values})

    def test_values_past_the_column_dtype_rejected(self):
        with pytest.raises(ValueError, match="^teams must fit in int8"):
            sd.GameLog("g", "NFL", [1, 20], np.array([255, 1]), [7, 3])  # 255 wraps to -1
        with pytest.raises(ValueError, match="^points must fit in int64"):
            sd.GameLog("g", "NFL", [1], [1], np.array([2**64 - 1], np.uint64))  # wraps to -1

    def test_empty_columns_of_any_dtype_allowed(self):
        game = sd.GameLog("g", "NFL", [], np.array([], float), np.array([], "U1"))
        assert game.n_events == 0 and game.teams.dtype == np.int8


def non_integer(good):
    """The values of a valid column as floats with a fraction, as bools, as
    strings and as objects."""
    return [[v + 0.5 for v in good], [v != 0 for v in good], [str(v) for v in good],
            np.array(good, dtype=object)]


def three_games():
    return [
        sd.GameLog("a", "NFL", [10, 500], [1, -1], [7, 3]),
        sd.GameLog("b", "NFL", [], [], []),
        sd.GameLog("c", "NHL", [5], [-1], [1]),
    ]


class TestCorpus:
    def test_columns_of_a_laid_out_list(self):
        corpus = sd.Corpus.of(three_games())
        assert corpus.game_ids == ("a", "b", "c") and corpus.sport_ids == ("NFL", "NFL", "NHL")
        assert corpus.offsets.tolist() == [0, 2, 2, 3]
        assert corpus.event_counts.tolist() == [2, 0, 1]
        assert corpus.times.tolist() == [10, 500, 5]
        assert corpus.signed.tolist() == [7, -3, -1]
        assert corpus.game.tolist() == [0, 0, 2]
        dtypes = (corpus.times.dtype, corpus.teams.dtype, corpus.points.dtype, corpus.signed.dtype)
        assert dtypes == (np.int64, np.int8, np.int64, np.int64)
        assert sd.Corpus.of(corpus) is corpus

    def test_equal_to_a_list_of_equal_games_both_ways(self):
        games = three_games()
        corpus = sd.Corpus.of(games)
        assert corpus == games and games == corpus
        assert corpus == tuple(games) and corpus == sd.Corpus.of(three_games())
        flipped = games[:2] + [sd.GameLog("c", "NHL", [5], [1], [1])]
        for other in (flipped, games[:2], []):
            assert corpus != other and other != corpus
        assert sd.Corpus.of([]) == [] and [] == sd.Corpus.of([])
        assert corpus != "abc" and corpus != games[0]

    def test_items_are_views(self):
        corpus = sd.Corpus.of(three_games())
        assert list(corpus) == three_games() and corpus[-1] == three_games()[-1]
        assert np.shares_memory(corpus[2].times, corpus.times)
        with pytest.raises(IndexError):
            corpus[3]

    def test_contiguous_slice_is_a_corpus_of_views(self):
        corpus = sd.Corpus.of(three_games())
        part = corpus[1:]
        assert isinstance(part, sd.Corpus) and part == three_games()[1:]
        assert part.offsets.tolist() == [0, 0, 1]
        assert np.shares_memory(part.points, corpus.points)
        assert corpus[2:1] == [] and isinstance(corpus[2:1], sd.Corpus)
        assert corpus[::2] == three_games()[::2]

    def test_columns_cannot_be_written(self):
        corpus = sd.Corpus.of(three_games())
        columns = [corpus.offsets, corpus.times, corpus.teams, corpus.points, corpus.signed,
                   corpus.game, corpus[1:].offsets, corpus[1:].times]
        columns += [corpus[0].times, corpus[0].teams, corpus[0].points]
        for column in columns:
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1

    def test_replace_of_an_item_is_a_checked_copy(self):
        corpus = sd.Corpus.of(three_games())
        game = dataclasses.replace(corpus[0], sport_id="custom")
        assert game == sd.GameLog("a", "custom", [10, 500], [1, -1], [7, 3])
        assert not np.shares_memory(game.times, corpus.times)

    def test_checked_once_when_built(self):
        # a game's times may restart below the previous game's
        sd.Corpus(["a", "b"], ["NFL"] * 2, [0, 1, 2], [10, 5], [1, 1], [7, 7])
        with pytest.raises(ValueError, match="strictly increasing"):
            sd.Corpus(["a"], ["NFL"], [0, 2], [10, 10], [1, -1], [7, 3])
        with pytest.raises(ValueError, match=r"\+1.*-1"):
            sd.Corpus(["a"], ["NFL"], [0, 1], [10], [2], [7])
        for offsets in ([0, 1], [1, 2], [0, 2, 1], [0]):
            ids = ["a"] * (len(offsets) - 1)
            with pytest.raises(ValueError, match="offsets"):
                sd.Corpus(ids, ["NFL"] * len(ids), offsets, [10, 20], [1, 1], [7, 7])

    @pytest.mark.parametrize("column", ["offsets", "times", "teams", "points"])
    def test_non_integer_column_rejected(self, column):
        good = {"offsets": [0, 1, 2], "times": [1, 20], "teams": [1, 1], "points": [7, 3]}
        for values in non_integer(good[column]):
            columns = {**good, column: values}
            for build in (sd.Corpus, sd.Corpus._owning):
                with pytest.raises(ValueError, match=f"^{column} must be integers, got values"):
                    build(["a", "b"], ["NFL", "NFL"], *columns.values())

    def test_caller_arrays_stay_writeable_and_apart(self):
        # each array already has its column's dtype, so only a copy keeps it apart
        offsets, times = np.array([0, 2], np.int64), np.array([1, 2], np.int64)
        teams, points = np.array([1, -1], np.int8), np.array([7, 3], np.int64)
        corpus = sd.Corpus(["g"], ["NFL"], offsets, times, teams, points)
        for array in (offsets, times, teams, points):
            assert array.flags.writeable
            array[:] = 0
        assert corpus[0] == sd.GameLog("g", "NFL", [1, 2], [1, -1], [7, 3])
        assert corpus.offsets.tolist() == [0, 2]

    def test_owned_columns_are_taken_checked_and_read_only(self):
        def columns():
            return (np.array([0, 2, 2, 3], np.int64), np.array([1, 2, 5], np.int64),
                    np.array([1, -1, -1], np.int8), np.array([7, 3, 2], np.int64))

        ids, sports = ["a", "b", "c"], ["NFL", "NFL", "NHL"]
        fresh = columns()
        owned = sd.Corpus._owning(ids, sports, *fresh)
        assert owned == sd.Corpus(ids, sports, *columns())
        for array, column in zip(fresh, (owned.offsets, owned.times, owned.teams, owned.points)):
            assert column is array  # taken as it is, not copied
            assert not column.flags.writeable
        offsets, times, teams, points = columns()
        with pytest.raises(ValueError, match="strictly increasing"):
            sd.Corpus._owning(ids, sports, offsets, times[::-1].copy(), teams, points)
        with pytest.raises(ValueError, match="offsets must run"):
            sd.Corpus._owning(ids[:2], sports, offsets, times, teams, points)


class TestConfigJson:
    def test_round_trip(self, tmp_path):
        cfg = sd.builtin_config("nba")
        path = tmp_path / "nba.json"
        sd.save_config(cfg, path)
        loaded = sd.load_config(path)
        assert loaded == cfg

    def test_unknown_major_rejected(self):
        data = config_to_dict(sd.builtin_config("nhl"))
        data["schema_version"] = "2.0"
        with pytest.raises(ValueError, match="unsupported schema version"):
            config_from_dict(data)

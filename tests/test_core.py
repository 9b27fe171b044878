"""Domain types: sport configs, game logs, lead queries."""

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
        with pytest.raises(ValueError, match="non-finite"):
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

    def test_from_events_round_trip(self):
        events = [sd.ScoringEvent(10, "r", 7), sd.ScoringEvent(500, "b", 3)]
        game = sd.GameLog.from_events("g1", "NFL", events)
        assert list(game.events()) == events
        assert game.final_lead() == 4
        assert game.winner() == "r"

    def test_arrays_read_only(self):
        game = sd.GameLog("g", "NFL", [10], [1], [7])
        with pytest.raises(ValueError):
            game.times[0] = 5

    def test_swap_teams_negates_lead(self):
        game = sd.GameLog("g", "NFL", [10, 500], [1, -1], [7, 3])
        assert game.swap_teams().final_lead() == -game.final_lead()

    def test_tie_has_no_winner(self):
        game = sd.GameLog("g", "NHL", [10, 20], [1, -1], [1, 1])
        assert game.winner() is None


class TestLeadAt:
    def test_empty_game_is_zero_everywhere(self):
        game = sd.GameLog("g", "NFL", [], [], [])
        for t in (0, 1800, 3600):
            assert sd.lead_at(game, t) == 0

    def test_single_event_counted(self):
        game = sd.GameLog("g", "NFL", [10, 500], [1, -1], [7, 3])
        assert sd.lead_at(game, 100) == 7

    def test_full_game(self):
        game = sd.GameLog("g", "NFL", [10, 500], [1, -1], [7, 3])
        assert sd.lead_at(game, 3600) == 4

    def test_right_continuous_at_event_time(self):
        game = sd.GameLog("g", "NFL", [10], [1], [7])
        assert sd.lead_at(game, 9) == 0
        assert sd.lead_at(game, 10) == 7

    def test_out_of_range(self):
        game = sd.GameLog("g", "NFL", [10], [1], [7])
        with pytest.raises(ValueError, match="outside regulation"):
            sd.lead_at(game, -1)
        with pytest.raises(ValueError, match="outside regulation"):
            sd.lead_at(game, 3601)

    def test_explicit_regulation_length(self):
        game = sd.GameLog("g", "custom", [5], [1], [2])
        assert sd.lead_at(game, 9, regulation_length=10) == 2
        with pytest.raises(ValueError):
            sd.lead_at(game, 11, regulation_length=10)


class TestLeadTrajectory:
    def test_starts_at_zero_and_jumps_match_points(self):
        game = sd.GameLog("g", "NFL", [10, 500, 900], [1, -1, 1], [7, 3, 2])
        traj = sd.lead_trajectory(game, regulation_length=3600, sample_every=1)
        assert traj.leads[0] == 0
        jumps = np.diff(traj.leads)
        nonzero = jumps[jumps != 0]
        assert list(nonzero) == [7, -3, 2]
        assert traj.leads[-1] == 6

    def test_piecewise_constant_between_events(self):
        game = sd.GameLog("g", "NFL", [100], [1], [7])
        traj = sd.lead_trajectory(game, regulation_length=3600)
        assert set(traj.leads[:100]) == {0}
        assert set(traj.leads[100:]) == {7}


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

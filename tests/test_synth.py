"""Ground-truth league generation and estimator round trips."""

import math

import numpy as np
import pytest

import scoredyn as sd


def two_team_league(ratio=9.0, n_games=2000, rate=0.002, T=3600, points=None, seed=0,
                    alternate=False):
    """Schedule the same pairing repeatedly; optionally alternate who is r."""
    schedule = []
    for g in range(n_games):
        schedule.append((1, 0) if (alternate and g % 2) else (0, 1))
    return sd.LeagueSpec(
        skills=np.array([ratio, 1.0]),
        schedule=tuple(schedule),
        regulation_length=T,
        tempo=rate,
        point_values=points or {1: 1.0},
        seed=seed,
    )


class TestLeagueSpec:
    def test_requires_positive_skills(self):
        with pytest.raises(ValueError, match="positive"):
            sd.LeagueSpec(np.array([1.0, -2.0]), ((0, 1),), 100, 0.01, {1: 1.0}, 0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0])
    def test_requires_finite_skills(self, bad):
        with pytest.raises(ValueError, match="skills must be finite and positive"):
            sd.LeagueSpec(np.array([1.0, bad]), ((0, 1),), 100, 0.01, {1: 1.0}, 0)

    @pytest.mark.parametrize(
        "tempo, points, message",
        [
            (0.01, {2.5: -1.0, 3: 2.0}, "positive integer"),
            (0.01, {2: -1.0, 3: 2.0}, "negative probability"),
            (np.nan, {1: 1.0}, "tempo must be a per-second event probability, got nan"),
        ],
    )
    def test_rejects_what_the_draws_would_reject(self, tempo, points, message):
        with pytest.raises(ValueError, match=message):
            sd.LeagueSpec(np.array([1.0, 2.0]), ((0, 1),), 100, tempo, points, 0)

    @pytest.mark.parametrize("tempo", [np.full(101, 0.01), [0.01], "0.01", True, 1.5, -0.01])
    def test_tempo_is_one_probability(self, tempo):
        with pytest.raises(ValueError, match="tempo must be a per-second event probability"):
            sd.LeagueSpec(np.array([1.0, 2.0]), ((0, 1),), 100, tempo, {1: 1.0}, 0)

    def test_requires_nonempty_schedule(self):
        with pytest.raises(ValueError, match="non-empty"):
            sd.LeagueSpec(np.array([1.0, 2.0]), (), 100, 0.01, {1: 1.0}, 0)

    @pytest.mark.parametrize("T", [600.7, True, "600"])
    def test_non_integer_regulation_length_rejected(self, T):
        with pytest.raises(ValueError, match=r"^league spec: field 'regulation_length': "):
            sd.LeagueSpec(np.array([1.0, 2.0]), ((0, 1),), T, 0.01, {1: 1.0}, 0)

    @pytest.mark.parametrize("matchup", [(0, 1.9), (0.5, 1), (True, 0), ("0", "1")])
    def test_non_integer_matchup_rejected(self, matchup):
        with pytest.raises(ValueError, match=r"^league spec: field 'schedule': "):
            sd.LeagueSpec(np.array([1.0, 2.0]), ((1, 0), matchup), 100, 0.01, {1: 1.0}, 0)

    def test_rejects_self_matchups(self):
        with pytest.raises(ValueError, match="matchup"):
            sd.LeagueSpec(np.array([1.0, 2.0]), ((0, 0),), 100, 0.01, {1: 1.0}, 0)

    @pytest.mark.parametrize("n_teams", [-1, 0, 1])
    def test_default_league_needs_two_teams(self, n_teams):
        with pytest.raises(ValueError, match=f"n_teams must be >= 2 .*, got {n_teams}$"):
            sd.default_league(n_teams=n_teams, n_games=5)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -1.0])
    def test_default_league_needs_a_finite_nonnegative_skill_sigma(self, sigma):
        with pytest.raises(ValueError, match=f"skill_sigma must be finite and >= 0, got {sigma}$"):
            sd.default_league(n_games=5, skill_sigma=sigma)

    def test_flat_tempo_profile_has_dead_opening_tick(self):
        spec = two_team_league(n_games=1, T=100, rate=0.05)
        assert spec.profile[0] == 0.0
        assert np.all(spec.profile[1:] == 0.05)


class TestGenerateLeague:
    def test_equal_skills_are_balanced(self):
        spec = sd.LeagueSpec(
            skills=np.array([3.0, 3.0]),
            schedule=tuple((0, 1) for _ in range(1500)),
            regulation_length=1200,
            tempo=0.005,
            point_values={1: 1.0},
            seed=4,
        )
        games = sd.generate_league(spec)
        wins = sum(int(np.count_nonzero(g.teams > 0)) for g in games)
        total = sum(g.n_events for g in games)
        assert abs(wins / total - 0.5) < 3 * math.sqrt(0.25 / total)

    def test_nine_to_one_event_win_probability(self):
        # binomial oracle: each event goes to the strong team w.p. 0.9
        spec = two_team_league(ratio=9.0, n_games=2000, seed=5)
        games = sd.generate_league(spec)
        samples = sd.balance_fractions(games)
        counts = np.array([g.n_events for g in games if g.n_events > 0])
        pooled = np.sum(samples * counts) / counts.sum()
        assert abs(pooled - 0.9) < 3 * math.sqrt(0.09 / counts.sum())

    def test_heterogeneous_league_has_positive_scoring_slope(self):
        spec = sd.default_league(n_teams=20, n_games=3000, regulation_length=1800,
                                 rate=0.004, skill_sigma=1.0, seed=6)
        games = sd.generate_league(spec)
        scoring = sd.lead_scoring_function(games, cap=20, min_samples=50)
        assert scoring.fit.slope is not None
        assert scoring.fit.slope > 3 * scoring.fit.slope_stderr

    def test_rate_recovered_by_estimator(self):
        spec = sd.default_league(n_teams=6, n_games=4000, regulation_length=3600,
                                 rate=0.002, seed=7)
        games = sd.generate_league(spec)
        lam = sd.fit_poisson_rate(games, sd.league_config(spec))
        assert abs(lam - 0.002) / 0.002 < 0.01

    def test_bit_reproducible(self):
        spec = two_team_league(n_games=30, seed=11)
        assert sd.generate_league(spec) == sd.generate_league(spec)

    def test_point_values_drawn_from_pmf(self):
        nfl = dict(sd.builtin_config("nfl").point_values)
        spec = two_team_league(n_games=1500, points=nfl, seed=12)
        games = sd.generate_league(spec)
        pmf = sd.point_value_distribution(games)
        assert set(pmf) <= set(nfl)
        total = sum(g.n_events for g in games)
        for value, q in nfl.items():
            assert abs(pmf.get(value, 0.0) - q) < 3 * math.sqrt(q * (1 - q) / total) + 1e-9


class TestRestoringLeague:
    def test_zero_slope_reduces_to_fair(self):
        spec = two_team_league(n_games=1200, rate=0.01, T=600, seed=13)
        games = sd.generate_restoring_league(spec, 0.0)
        wins = sum(int(np.count_nonzero(g.teams > 0)) for g in games)
        total = sum(g.n_events for g in games)
        assert abs(wins / total - 0.5) < 3 * math.sqrt(0.25 / total)

    def test_negative_slope_recovered(self):
        spec = two_team_league(n_games=1500, rate=0.03, T=2880,
                               points=dict(sd.builtin_config("nba").point_values), seed=14)
        games = sd.generate_restoring_league(spec, -0.002)
        scoring = sd.lead_scoring_function(games, cap=40, min_samples=50)
        assert scoring.fit.slope < -3 * scoring.fit.slope_stderr
        assert scoring.fit.slope == pytest.approx(-0.002, abs=0.001)

    def test_restoring_force_shrinks_final_leads(self):
        base = two_team_league(n_games=1200, rate=0.03, T=2880,
                               points=dict(sd.builtin_config("nba").point_values), seed=15)
        restored = sd.generate_restoring_league(base, -0.002)
        control = sd.generate_restoring_league(base, 0.0)
        var_restored = np.var([g.final_lead() for g in restored])
        var_control = np.var([g.final_lead() for g in control])
        assert var_restored < var_control

    def test_extreme_slope_rejected(self):
        spec = two_team_league(n_games=5)
        with pytest.raises(ValueError, match="slope"):
            sd.generate_restoring_league(spec, 0.6)

    def test_nan_slope_rejected(self):
        with pytest.raises(ValueError, match="slope"):
            sd.generate_restoring_league(two_team_league(n_games=5), math.nan)

    def test_probability_clamped_at_extreme_leads(self):
        # slope large enough that |lead| drifts into the clamp region
        spec = two_team_league(n_games=200, rate=0.05, T=600, seed=16)
        games = sd.generate_restoring_league(spec, 0.4)  # strong runaway reinforcement
        assert all(np.all(np.abs(g.points) >= 1) for g in games)


class TestSidecar:
    def test_truth_contents(self):
        spec = two_team_league(ratio=4.0, n_games=3, rate=0.01, T=500, seed=17)
        truth = sd.league_truth(spec)
        assert truth["skills"] == [4.0, 1.0]
        assert truth["regulation_length_seconds"] == 500
        assert truth["tempo"] == 0.01
        assert truth["seed"] == 17
        assert len(truth["schedule"]) == 3

    def test_league_config_matches_spec(self):
        spec = two_team_league(T=999, points={2: 1.0})
        cfg = sd.league_config(spec, lead_cap=50)
        assert cfg.regulation_length == 999
        assert cfg.point_values == {2: 1.0}
        assert cfg.lead_truncation == 50

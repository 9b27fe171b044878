"""Estimator tests: frozen oracle values, published constants, identities.

Oracles used here:
  * enumeration of fair event assignments for the balance null
    (binomial closed form),
  * closed-form correlation of an alternating sequence, C(1) = -(m-1)/m,
  * direct Monte Carlo with known ground truth for rates, balance, and
    the lead-scoring slope.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy import stats

import scoredyn as sd
from scoredyn.estimate import _log_factorial, _poisson_pmf, _poisson_quantile


def unit_game(game_id, signs, start=1, step=1):
    times = np.arange(start, start + step * len(signs), step)
    return sd.GameLog(game_id, "custom", times, signs, np.ones(len(signs), dtype=int))


TINY = sd.SportConfig("custom", 600, (600,), {1: 1.0}, 20)


class TestPoissonRate:
    def test_corpus_totals_reproduce_published_rates(self):
        # corpus totals (games, events) -> events/s and events/game
        published = {
            "NFL": (2654, 19476, 3600, 0.00204, 7.34),
            "CFB": (14588, 120827, 3600, 0.00230, 8.28),
            "NHL": (11813, 44989, 3600, 0.00106, 3.81),
            "NBA": (11744, 1080285, 2880, 0.03194, 91.99),
        }
        for sport, (n_games, n_events, T, lam, lam_T) in published.items():
            est = sd.poisson_rate_from_counts(n_events, n_games, T)
            assert est == pytest.approx(lam, abs=1e-5), sport
            assert est * T == pytest.approx(lam_T, abs=0.01), sport

    def test_rate_times_T_is_mean_events_identity(self):
        games = [
            sd.GameLog("a", "NFL", [3, 100, 2000], [1, -1, 1], [7, 3, 7]),
            sd.GameLog("b", "NFL", [10], [1], [6]),
            sd.GameLog("c", "NFL", [], [], []),
        ]
        lam = sd.fit_poisson_rate(games)
        mean = np.mean([g.n_events for g in games])
        assert abs(lam * 3600 - mean) <= 1e-12 * mean

    def test_zero_events_flagged_degenerate(self):
        games = [sd.GameLog("a", "NFL", [], [], [])]
        with pytest.warns(UserWarning, match="degenerate"):
            lam = sd.fit_poisson_rate(games)
        assert lam == 0.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            sd.fit_poisson_rate([], sd.builtin_config("nfl"))


class TestEventsPerGame:
    def test_reference_mean_is_rate_times_T(self):
        games = [unit_game(f"g{i}", [1] * (i + 1)) for i in range(5)]
        dist = sd.events_per_game_distribution(games, TINY)
        assert dist.reference_mean == pytest.approx(3.0)
        assert dist.empirical_pmf.sum() == pytest.approx(1.0)

    def test_total_variation_against_poisson(self):
        # Oracle: event counts drawn exactly Poisson(7.2); the fitted
        # reference is Poisson(sample mean), so TV is pure sampling noise.
        rng = np.random.default_rng(20240001)
        counts = rng.poisson(7.2, size=100_000)
        games = [
            sd.GameLog(f"g{i}", "custom", np.arange(c), np.ones(c, dtype=int), np.ones(c, int))
            for i, c in enumerate(counts)
        ]
        dist = sd.events_per_game_distribution(games, TINY)
        tail = 1.0 - dist.reference_pmf.sum()
        tv = 0.5 * (np.abs(dist.empirical_pmf - dist.reference_pmf).sum() + tail)
        assert tv < 0.01

    @pytest.mark.parametrize("rate", [0.0005, 0.002, 0.04, 0.3])
    def test_reference_is_scipy_stats_poisson_bit_for_bit(self, rate):
        from scipy import stats

        games = sd.ideal_corpus(TINY, rate, 200, seed=21)
        dist = sd.events_per_game_distribution(games, TINY)
        mean = dist.reference_mean
        most = max(g.n_events for g in games)
        assert dist.counts[-1] == max(most, int(stats.poisson.ppf(1 - 1e-6, mean)))
        np.testing.assert_array_equal(dist.reference_pmf, stats.poisson.pmf(dist.counts, mean))

    def test_zero_event_corpus_gives_pmf_one_at_zero(self):
        games = [unit_game(f"g{i}", []) for i in range(3)]
        with pytest.warns(UserWarning, match="zero events"):
            dist = sd.events_per_game_distribution(games, TINY)
        assert dist.reference_mean == 0.0
        np.testing.assert_array_equal(dist.counts, [0])
        np.testing.assert_array_equal(dist.reference_pmf, [1.0])
        np.testing.assert_array_equal(dist.empirical_pmf, [1.0])


class TestPoissonReference:
    """The scipy-free Poisson reference against scipy as its oracle."""

    def test_log_factorial_is_gammaln_bit_for_bit(self):
        from scipy.special import gammaln

        ks = np.arange(200_000)
        ours = np.array([_log_factorial(k) for k in ks.tolist()])
        np.testing.assert_array_equal(ours, gammaln(ks + 1))

    def test_quantile_is_scipy_poisson_ppf(self):
        from scipy import stats

        means = np.random.default_rng(20240017).uniform(0.01, 300.0, 5_000)
        expected = stats.poisson.ppf(1 - 1e-6, means).astype(int).tolist()
        assert [_poisson_quantile(m) for m in means.tolist()] == expected
        assert _poisson_quantile(0.0) == int(stats.poisson.ppf(1 - 1e-6, 0.0)) == 0

    @pytest.mark.parametrize("mean", [0.0, 1e-9, 0.37, 7.2, 126.0, 299.9])
    def test_pmf_is_scipy_poisson_pmf(self, mean):
        from scipy import stats

        n = _poisson_quantile(mean) + 5
        np.testing.assert_array_equal(_poisson_pmf(mean, n), stats.poisson.pmf(np.arange(n), mean))


class TestInterarrival:
    def test_reference_mean_exactly_inverse_rate(self):
        games = [unit_game("g", [1, -1, 1, -1], start=10, step=50)]
        dist = sd.interarrival_distribution(games, TINY)
        lam = sd.fit_poisson_rate(games, TINY)
        assert abs(dist.reference_mean - 1.0 / lam) <= 1e-9 / lam

    def test_empirical_mean_recovers_geometric_mean(self):
        p = 0.01
        rng = np.random.default_rng(20240002)
        gaps = rng.geometric(p, size=1_000_000)
        times = np.cumsum(gaps)
        T = int(times[-1])
        cfg = sd.SportConfig("custom", T, (T,), {1: 1.0}, 20)
        game = sd.GameLog("g", "custom", times, np.ones(len(times), dtype=int), np.ones(len(times), int))
        dist = sd.interarrival_distribution([game], cfg)
        assert abs(dist.empirical_mean - 1 / p) / (1 / p) < 0.005

    def test_ccdfs_decreasing_and_aligned(self):
        games = [unit_game("g", [1] * 10, start=5, step=7)]
        dist = sd.interarrival_distribution(games, TINY)
        assert len(dist.gaps) == len(dist.empirical_ccdf) == len(dist.reference_ccdf)
        assert np.all(np.diff(dist.reference_ccdf) <= 0)

    def test_no_gaps_rejected(self):
        games = [unit_game("g", [1])]
        with pytest.raises(ValueError, match="gap"):
            sd.interarrival_distribution(games, TINY)


class TestCorrelation:
    def test_iid_geometric_gaps_uncorrelated(self):
        rng = np.random.default_rng(20240003)
        gaps = rng.geometric(0.01, size=1_000_000)
        c = sd.gap_correlation(gaps, 50)
        assert np.max(np.abs(c)) < 0.01

    def test_alternating_gaps_closed_form(self):
        # deviations alternate +-d, so C(1) = -(m-1)/m exactly
        m = 1000
        gaps = np.tile([3, 9], m // 2)
        c = sd.gap_correlation(gaps, 2)
        assert c[0] == pytest.approx(-(m - 1) / m, abs=1e-12)
        assert c[0] < -0.95

    def test_constant_sequence_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            sd.gap_correlation(np.full(100, 7), 5)

    def test_values_bounded(self):
        rng = np.random.default_rng(20240004)
        gaps = rng.integers(1, 30, size=500)
        c = sd.gap_correlation(gaps, 20)
        assert np.all(np.abs(c[~np.isnan(c)]) <= 1.0)

    def test_short_game_excluded_at_large_lag(self):
        game = sd.GameLog("g", "custom", [1, 3, 10], [1, -1, 1], [1, 1, 1])  # gaps 2, 7
        c = sd.correlation_function([game], 5)
        assert not np.isnan(c[0])
        assert np.isnan(c[4])

    def test_constant_gap_game_excluded(self):
        constant = unit_game("g1", [1, -1, 1], start=1, step=10)
        varied = sd.GameLog("g2", "custom", [1, 3, 10], [1, 1, -1], [1, 1, 1])
        pooled = sd.correlation_function([constant, varied], 1)
        alone = sd.correlation_function([varied], 1)
        assert pooled[0] == alone[0]
        with pytest.raises(ValueError, match="usable"):
            sd.correlation_function([constant], 1)


class TestTempoProfile:
    def test_point_mass(self):
        games = [sd.GameLog(f"g{i}", "custom", [100], [1], [1]) for i in range(4)]
        profile = sd.tempo_profile(games, TINY)
        assert profile[100] == 1.0
        assert profile.sum() == 1.0

    def test_flat_rate_recovered(self):
        lam = 0.012
        games = sd.ideal_corpus(TINY, lam, n_games=2000, seed=9)
        profile = sd.tempo_profile(games, TINY)
        assert profile[0] == 0.0  # opening tick hosts no events
        se = math.sqrt(lam / (2000 * 600))
        assert abs(profile[1:].mean() - lam) < 3 * se


class TestEventsPastRegulation:
    """A config shorter than the corpus's clock (NBA's on NFL-like games) is
    rejected by every fit rather than counted by some and dropped by others."""

    @pytest.fixture(scope="class")
    def nfl_like(self):
        nfl = sd.builtin_config("nfl")
        spec = sd.default_league(
            n_teams=8, n_games=200, rate=0.00204, point_values=nfl.point_values, seed=3
        )
        return sd.generate_league(spec)

    FITS = [
        sd.fit_poisson_rate,
        sd.events_per_game_distribution,
        sd.interarrival_distribution,
        sd.tempo_profile,
        sd.fit_tempo,
        sd.fit_balance,
    ]

    @pytest.mark.parametrize("fit", FITS, ids=lambda f: f.__name__)
    def test_rejected_with_game_and_second(self, nfl_like, fit):
        late = max(nfl_like, key=lambda g: g.times[-1] if g.n_events else -1)
        nba = dataclasses.replace(sd.builtin_config("nba"), sport_id="custom")
        assert late.times[-1] > nba.regulation_length
        with pytest.raises(
            ValueError,
            match=rf"game '{late.game_id}' has an event at second {late.times[-1]}, "
            rf"past the config's regulation length {nba.regulation_length}",
        ):
            fit(nfl_like, nba)

    @pytest.mark.parametrize("fit", FITS, ids=lambda f: f.__name__)
    def test_an_event_at_regulation_is_kept(self, nfl_like, fit):
        last = max(int(g.times[-1]) for g in nfl_like if g.n_events)
        config = sd.SportConfig("custom", last, (last,), sd.builtin_config("nfl").point_values, 20)
        fit(nfl_like, config)


class TestBalanceFraction:
    def test_all_events_won_by_r(self):
        assert sd.balance_fractions([unit_game("g", [1, 1, 1])]).tolist() == [1.0]

    def test_half(self):
        assert sd.balance_fractions([unit_game("g", [1, 1, 1, -1, -1, -1])]).tolist() == [0.5]

    def test_empty_games_excluded_from_samples(self):
        games = [unit_game("a", [1]), sd.GameLog("b", "custom", [], [], [])]
        assert len(sd.balance_fractions(games)) == 1

    def test_bernoulli_bias_recovered(self):
        rng = np.random.default_rng(20240005)
        games = [
            unit_game(f"g{i}", np.where(rng.random(10) < 0.7, 1, -1)) for i in range(500)
        ]
        samples = sd.balance_fractions(games)
        se = math.sqrt(0.7 * 0.3 / 10 / 500)
        assert abs(samples.mean() - 0.7) < 3 * se


def exact_null_pmf(n_events: int) -> dict[float, float]:
    """Enumerate fair assignments of n events: Binomial(n, 1/2) over k/n."""
    return {
        k / n_events: math.comb(n_events, k) * 0.5**n_events for k in range(n_events + 1)
    }


def sampled_null(games, n_sims: int, seed: int) -> np.ndarray:
    """Monte Carlo oracle: the sampler `balance_null_distribution` used to be.

    Each draw picks a game's event count and assigns every event to r or b
    with probability 1/2; draws of zero events are dropped.
    """
    observed = np.array([g.n_events for g in games])
    rng = np.random.default_rng(seed)
    counts = rng.choice(observed, size=n_sims)
    wins = rng.binomial(counts, 0.5)
    keep = counts > 0
    return wins[keep] / counts[keep]


def null_law(games) -> dict[float, float]:
    fractions, probs = sd.balance_null_distribution(games)
    assert np.all(np.diff(fractions) > 0)
    return dict(zip(fractions.tolist(), probs.tolist()))


class TestBalanceNull:
    def test_single_event_games(self):
        games = [unit_game(f"g{i}", [1]) for i in range(10)]
        assert null_law(games) == exact_null_pmf(1) == {0.0: 0.5, 1.0: 0.5}

    def test_two_event_games_match_enumeration(self):
        games = [unit_game(f"g{i}", [1, -1]) for i in range(10)]
        assert null_law(games) == exact_null_pmf(2) == {0.0: 0.25, 0.5: 0.5, 1.0: 0.25}

    def test_mixed_counts_weighted_by_their_share_of_games(self):
        counts = [1, 2, 3, 3]  # shares 1/4, 1/4, 1/2: every product is exact
        games = [unit_game(f"g{i}", [1] * n) for i, n in enumerate(counts)]
        expected: dict[float, float] = {}
        for n in (1, 2, 3):
            for atom, p in exact_null_pmf(n).items():
                expected[atom] = expected.get(atom, 0.0) + counts.count(n) / 4 * p
        assert null_law(games) == expected

    def test_fewer_events_widen_the_null(self):
        # exact variance for an n-event fair game is 1/(4n)
        for n in (3, 90):
            fractions, probs = sd.balance_null_distribution(
                [unit_game(f"g{i}", [1] * n) for i in range(50)])
            mean = probs @ fractions
            assert mean == pytest.approx(0.5, rel=1e-12)
            assert probs @ (fractions - mean) ** 2 == pytest.approx(1 / (4 * n), rel=1e-12)

    def test_zero_event_games_excluded(self):
        games = [unit_game("a", [1]), sd.GameLog("b", "custom", [], [], [])]
        assert null_law(games) == exact_null_pmf(1)

    @pytest.mark.parametrize("games", [[], [sd.GameLog("b", "custom", [], [], [])]])
    def test_corpus_without_events_rejected(self, games):
        with pytest.raises(ValueError, match="at least one game with events"):
            sd.balance_null_distribution(games)

    def test_long_game_law_is_finite_and_normalised(self):
        # math.comb(n, k) * 0.5**n overflows a float at this n
        n = 3601
        fractions, probs = sd.balance_null_distribution([unit_game("g", [1] * n)])
        assert np.all(np.isfinite(probs)) and len(probs) == n + 1
        assert abs(probs.sum() - 1.0) <= 1e-12
        assert probs == pytest.approx(stats.binom.pmf(np.arange(n + 1), n, 0.5), rel=1e-9,
                                      abs=1e-300)

    @pytest.mark.parametrize("mean_events, seed", [(7.34, 5), (125.9, 6)])  # NFL-, NBA-like
    def test_monte_carlo_oracle_within_3_sigma_in_every_report_bin(self, mean_events, seed):
        rng = np.random.default_rng(seed)
        games = [unit_game(f"g{i}", [1] * n) for i, n in enumerate(rng.poisson(mean_events, 2000))]
        bins = np.linspace(0.0, 1.0, 52)  # report's default --balance-bins 51
        fractions, probs = sd.balance_null_distribution(games)
        mass, _ = np.histogram(fractions, bins, weights=probs)
        sample = sampled_null(games, 100_000, seed)
        observed, _ = np.histogram(sample, bins)
        expected = len(sample) * mass
        assert np.all(observed[mass == 0] == 0)
        sigma = np.sqrt(expected * (1 - mass))[mass > 0]
        assert np.all(np.abs(observed - expected)[mass > 0] < 3 * sigma)


class TestLeadScoring:
    def test_hand_computed_counts_and_phi(self):
        # game A: r then r (transitions at leads 0, +1)
        # game B: r then b (transitions at leads 0, +1)
        games = [unit_game("a", [1, 1]), unit_game("b", [1, -1])]
        scoring = sd.lead_scoring_function(games, cap=3, min_samples=1)
        mid = 3
        assert scoring.phi[mid] == 0.5
        assert scoring.counts[mid] == 2
        assert scoring.phi[mid + 1] == 0.5  # 1 win of 2 at lead +1
        assert scoring.counts[mid + 1] == 2

    def test_deterministic_front_runner_fit(self):
        # one game, r wins all 3 events: transitions (0, r), (1, r), (2, r)
        games = [unit_game("a", [1, 1, 1])]
        scoring = sd.lead_scoring_function(games, cap=2, min_samples=1)
        assert list(scoring.phi) == [0.0, 0.0, 0.5, 1.0, 1.0]
        assert scoring.fit.slope == pytest.approx(0.3)
        assert scoring.fit.intercept == pytest.approx(0.5)

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(20240006)
        games = [
            unit_game(f"g{i}", np.where(rng.random(12) < 0.6, 1, -1)) for i in range(200)
        ]
        scoring = sd.lead_scoring_function(games, cap=15, min_samples=5)
        phi = scoring.phi
        assert np.all(phi + phi[::-1] == 1.0)
        assert phi[15] == 0.5

    def test_fair_corpus_slope_consistent_with_zero(self):
        rng = np.random.default_rng(20240007)
        games = [
            unit_game(f"g{i}", np.where(rng.random(10) < 0.5, 1, -1)) for i in range(3000)
        ]
        scoring = sd.lead_scoring_function(games, cap=12, min_samples=50)
        assert scoring.fit.slope is not None
        assert abs(scoring.fit.slope) < 3 * scoring.fit.slope_stderr

    def test_single_state_fit_undefined(self):
        games = [unit_game(f"g{i}", [1]) for i in range(100)]
        scoring = sd.lead_scoring_function(games, cap=5, min_samples=1)
        assert scoring.fit.slope is None

    def test_no_transitions_rejected(self):
        games = [sd.GameLog("g", "custom", [], [], [])]
        with pytest.raises(ValueError, match="no event transitions"):
            sd.lead_scoring_function(games, cap=5)

    @pytest.mark.parametrize("min_samples", [0, -3])
    def test_min_samples_below_one_rejected(self, min_samples):
        # state +-2 is never observed: at min_samples 0 it entered the line
        # and its binomial variance divided by a zero count
        games = [unit_game("a", [1, -1]), unit_game("b", [-1, 1])]
        message = f"min_samples must be >= 1, got {min_samples}"
        with pytest.raises(ValueError, match=message):
            sd.lead_scoring_function(games, cap=2, min_samples=min_samples)
        with pytest.raises(ValueError, match=message):
            sd.fit_balance(games, sd.SportConfig("custom", 10, (10,), {1: 1.0}, 2),
                           min_samples=min_samples)

    def test_leads_beyond_cap_pool_into_boundary(self):
        games = [unit_game("a", [1] * 8)]
        scoring = sd.lead_scoring_function(games, cap=3, min_samples=1)
        # transitions at leads 0..7, clamped to 3: states 3 sees 5 transitions
        assert scoring.counts[-1] == 5

    def test_leads_follow_from_phi(self):
        scoring = sd.lead_scoring_function([unit_game("a", [1, -1, 1])], cap=4, min_samples=1)
        assert np.array_equal(scoring.leads, np.arange(-4, 5))
        with pytest.raises(TypeError, match="leads"):
            sd.LeadScoring(leads=scoring.leads, phi=scoring.phi, counts=scoring.counts,
                           fit=scoring.fit)

    @pytest.mark.parametrize("length", [0, 4])
    def test_even_length_phi_refused(self, length):
        fit = sd.LinearFit(slope=None, intercept=None, slope_stderr=None, n_states=0)
        message = "^phi must be antisymmetric about L = 0 on the leads -cap..cap$"
        with pytest.raises(ValueError, match=message):
            sd.LeadScoring(phi=np.full(length, 0.5), counts=np.zeros(length, np.int64), fit=fit)

    @pytest.mark.parametrize(
        "counts", [[0.7, 0, 0], [0.0, 0.0, 0.0], [True, False, True], [0, True, 0]]
    )
    def test_non_integer_counts_refused(self, counts):
        fit = sd.LinearFit(slope=None, intercept=None, slope_stderr=None, n_states=0)
        with pytest.raises(ValueError, match="phi transition counts must be nonnegative integers"):
            sd.LeadScoring(phi=np.full(3, 0.5), counts=counts, fit=fit)


class TestPointValues:
    def test_relative_frequencies(self):
        games = [
            sd.GameLog("a", "NFL", [1, 2, 3], [1, 1, -1], [7, 7, 3]),
            sd.GameLog("b", "NFL", [5], [1], [3]),
        ]
        pmf = sd.point_value_distribution(games)
        assert pmf == {3: 0.5, 7: 0.5}
        assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-9)

    def test_single_value_sport(self):
        games = [unit_game("a", [1, -1, 1])]
        assert sd.point_value_distribution(games) == {1: 1.0}


class TestPointsFraction:
    def test_single_event(self):
        games = [sd.GameLog("a", "NFL", [10], [1], [7])]
        points_frac, events_frac = sd.points_fraction_distribution(games)
        assert points_frac[0] == 1.0 and events_frac[0] == 1.0

    def test_unit_points_make_fractions_identical(self):
        rng = np.random.default_rng(20240008)
        games = [
            unit_game(f"g{i}", np.where(rng.random(6) < 0.5, 1, -1)) for i in range(50)
        ]
        points_frac, events_frac = sd.points_fraction_distribution(games)
        assert np.array_equal(points_frac, events_frac)

    def test_value_weighted_fraction_tracks_event_fraction(self):
        cfg = sd.builtin_config("nfl")
        games = sd.ideal_corpus(cfg, 0.002, n_games=2000, seed=6)
        points_frac, events_frac = sd.points_fraction_distribution(games)
        assert np.corrcoef(points_frac, events_frac)[0, 1] > 0.9
        assert np.median(np.abs(points_frac - events_frac)) < 0.1


class TestModelValidation:
    """Inputs the simulator's per-draw checks used to catch are rejected up front."""

    @staticmethod
    def tempo(**changes):
        fields = dict(
            lambda_hat=0.01,
            regulation_length=600,
            profile=np.full(601, 0.01),
            interarrival_gaps=[1, 2],
            interarrival_probs=[0.5, 0.5],
        )
        return sd.TempoModel(**{**fields, **changes})

    @staticmethod
    def balance(**changes):
        scoring = sd.lead_scoring_function([unit_game("g", [1, -1, 1])], cap=2, min_samples=1)
        fields = dict(c_hat_samples=[0.4, 0.6], scoring=scoring, point_values={1: 0.5, 2: 0.5})
        return sd.BalanceModel(**{**fields, **changes})

    def test_valid_models_construct(self):
        assert self.tempo().mean_gap == 1.5
        assert dict(self.balance().point_values) == {1: 0.5, 2: 0.5}

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"interarrival_probs": [-0.5, 1.5]},
             "^interarrival_probs must be finite probabilities"),
            ({"lambda_hat": float("nan")}, "lambda_hat"),
            ({"profile": np.append(np.full(600, 0.01), np.nan)}, "profile"),
        ],
    )
    def test_tempo_rejects(self, changes, message):
        with pytest.raises(ValueError, match=message):
            self.tempo(**changes)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"c_hat_samples": [0.5, float("nan")]}, "^c_hat_samples must be finite probabilities"),
            ({"point_values": {2.5: -1.0, 3: 2.0}}, "positive integer"),
            ({"point_values": {2: -1.0, 3: 2.0}}, "negative probability"),
        ],
    )
    def test_balance_rejects(self, changes, message):
        with pytest.raises(ValueError, match=message):
            self.balance(**changes)


def fitted_model_dict():
    cfg = sd.SportConfig("custom", 600, (600,), {1: 0.5, 2: 0.5}, 20)
    games = sd.ideal_corpus(cfg, 0.01, n_games=400, seed=12)
    tempo = sd.fit_tempo(games, cfg)
    balance = sd.fit_balance(games, cfg, min_samples=10)
    return sd.estimate.model_to_dict(cfg, tempo, balance)


class TestModelArtifact:
    def test_round_trip(self, tmp_path):
        cfg = sd.SportConfig("custom", 600, (600,), {1: 0.5, 2: 0.5}, 20)
        games = sd.ideal_corpus(cfg, 0.01, n_games=400, seed=12)
        tempo = sd.fit_tempo(games, cfg)
        balance = sd.fit_balance(games, cfg, min_samples=10)
        path = tmp_path / "model.json"
        sd.save_model(path, cfg, tempo, balance)
        loaded = sd.load_model(path)
        assert loaded.config == cfg
        assert loaded.tempo.lambda_hat == tempo.lambda_hat
        assert np.array_equal(loaded.tempo.profile, tempo.profile)
        assert np.array_equal(loaded.balance.phi, balance.phi)
        assert loaded.balance.point_values == dict(balance.point_values)
        assert loaded.balance.scoring.fit.slope == balance.scoring.fit.slope
        for scoring in (balance.scoring, loaded.balance.scoring):
            assert np.array_equal(scoring.leads, np.arange(-20, 21))

    @pytest.mark.parametrize("other, message", [
        (sd.SportConfig("custom", 900, (900,), {1: 0.5, 2: 0.5}, 20), "regulation length"),
        (sd.SportConfig("custom", 600, (600,), {1: 0.5, 2: 0.5}, 19), "lead truncation"),
    ])
    def test_models_that_disagree_with_the_config_rejected(self, tmp_path, other, message):
        cfg = sd.SportConfig("custom", 600, (600,), {1: 0.5, 2: 0.5}, 20)
        games = sd.ideal_corpus(cfg, 0.01, n_games=50, seed=12)
        tempo = sd.fit_tempo(games, cfg)
        balance = sd.fit_balance(games, cfg, min_samples=10)
        path = tmp_path / "model.json"
        with pytest.raises(ValueError, match=f"disagree on {message}"):
            sd.save_model(path, other, tempo, balance)
        assert not path.exists()
        with pytest.raises(ValueError, match=f"disagree on {message}"):
            sd.estimate.ModelArtifact(other, tempo, balance)
        with pytest.raises(ValueError, match=f"disagree on {message}"):
            sd.ModelSpec("markov", "markov", tempo, balance, other, seed=0)

    def test_unknown_major_rejected(self, tmp_path):
        cfg = sd.SportConfig("custom", 600, (600,), {1: 1.0}, 20)
        games = sd.ideal_corpus(cfg, 0.01, n_games=50, seed=13)
        tempo = sd.fit_tempo(games, cfg)
        balance = sd.fit_balance(games, cfg, min_samples=5)
        path = tmp_path / "model.json"
        sd.save_model(path, cfg, tempo, balance)
        text = path.read_text(encoding="utf-8").replace('"schema_version": "1.0"', '"schema_version": "9.0"', 1)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported schema"):
            sd.load_model(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("slope", float("nan"), "expected a finite number or None, got nan"),
            ("intercept", float("inf"), "expected a finite number or None, got inf"),
            ("slope_stderr", float("-inf"), "expected a finite number or None, got -inf"),
            ("slope", "0.1", "expected a number, got str"),
        ],
    )
    def test_non_finite_phi_fit_rejected(self, field, value, message):
        data = fitted_model_dict()
        assert data["balance"]["phi_fit"]["slope_stderr"] is not None
        data["balance"]["phi_fit"][field] = value
        message = f"^model artifact: field 'balance\\.phi_fit\\.{field}': {message}$"
        with pytest.raises(ValueError, match=message):
            sd.estimate.model_from_dict(data)

    def test_phi_fit_none_allowed(self):
        data = fitted_model_dict()
        data["balance"]["phi_fit"].update(slope=None, intercept=None, slope_stderr=None)
        assert sd.estimate.model_from_dict(data).balance.scoring.fit.slope is None

    def test_negative_phi_count_rejected(self):
        data = fitted_model_dict()
        data["balance"]["phi_counts"][0] = -3
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            sd.estimate.model_from_dict(data)

    def test_non_finite_values_survive_json_and_are_rejected(self, tmp_path):
        # json.dump writes NaN, and json.load reads it back
        data = fitted_model_dict()
        data["balance"]["phi_fit"]["slope"] = float("nan")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValueError, match="slope"):
            sd.load_model(path)

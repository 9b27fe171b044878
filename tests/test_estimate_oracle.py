"""Column estimators against in-test copies of the per-game loops they replaced.

The gap-correlation kernel must agree with the per-game loops within 1e-12
and with the same NaN pattern. The estimators built on integer counts
(balance fractions, the point-value pmf, the inter-arrival support and
probabilities) must be equal to them array for array.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scoredyn as sd

NFL_PMF = dict(sd.builtin_config("nfl").point_values)
NBA_PMF = dict(sd.builtin_config("nba").point_values)


# --------------------------------------------------------------------------
# The per-game loops, as they were before the column kernels
# --------------------------------------------------------------------------

def loop_gap_correlation(gaps, n_max):
    x = np.asarray(gaps, dtype=float)
    d = x - x.mean()
    denom = float(np.dot(d, d))
    if denom == 0.0:
        raise ValueError("constant gap sequence: correlation undefined")
    out = np.full(n_max, np.nan)
    for n in range(1, min(n_max, len(x) - 1) + 1):
        out[n - 1] = float(np.dot(d[:-n], d[n:])) / denom
    return out


def loop_correlation_function(games, n_max):
    num = np.zeros(n_max)
    weight = np.zeros(n_max)
    usable = 0
    for game in games:
        if game.n_events < 2:
            continue
        x = np.diff(game.times).astype(float)
        d = x - x.mean()
        denom = float(np.dot(d, d))
        if denom == 0.0:
            continue
        usable += 1
        for n in range(1, min(n_max, len(x) - 1) + 1):
            pairs = len(x) - n
            num[n - 1] += pairs * (float(np.dot(d[:-n], d[n:])) / denom)
            weight[n - 1] += pairs
    if usable == 0:
        raise ValueError("no usable games: all gap sequences constant or too short")
    with np.errstate(invalid="ignore"):
        return np.where(weight > 0, num / np.where(weight > 0, weight, 1.0), np.nan)


def loop_balance_fractions(games):
    return np.array(
        [float(np.count_nonzero(g.teams > 0) / g.n_events) for g in games if g.n_events > 0]
    )


def loop_point_value_distribution(games):
    all_points = np.concatenate([g.points for g in games if g.n_events])
    values, counts = np.unique(all_points, return_counts=True)
    total = counts.sum()
    return {int(v): float(c / total) for v, c in zip(values, counts)}


def loop_gap_pmf(games):
    pooled = np.concatenate([np.diff(g.times) for g in games if g.n_events >= 2])
    hi = int(pooled.max())
    return np.arange(1, hi + 1), np.bincount(pooled, minlength=hi + 1)[1:] / len(pooled)


def loop_gap_support(games):
    if not any(g.n_events >= 2 for g in games):
        return np.array([], dtype=np.int64), np.array([])
    support, probs = loop_gap_pmf(games)
    keep = probs > 0
    return support[keep], probs[keep]


# --------------------------------------------------------------------------
# Corpora
# --------------------------------------------------------------------------

def league_games(n_games, regulation_length, rate, pmf, seed):
    spec = sd.default_league(n_teams=12, n_games=n_games, regulation_length=regulation_length,
                             rate=rate, point_values=pmf, seed=seed)
    return sd.generate_league(spec)


def odd_games():
    """Games the kernel must skip or handle at a boundary: no event, one event,
    constant gaps, and a single gap (a constant sequence too)."""
    return [
        sd.GameLog("empty", "custom", [], [], []),
        sd.GameLog("one", "custom", [40], [1], [3]),
        sd.GameLog("constant", "custom", [10, 25, 40, 55, 70], [1, -1, 1, 1, -1], [7] * 5),
        sd.GameLog("single-gap", "custom", [5, 600], [-1, 1], [2, 3]),
    ]


def interleave(games, extra):
    out = []
    for i, game in enumerate(games):
        out.append(game)
        out.append(extra[i % len(extra)])
    return out


CORPORA = {
    "nfl_like": lambda: league_games(300, 3600, 0.00204, NFL_PMF, seed=1),
    "nba_like": lambda: league_games(40, 2880, 0.0437, NBA_PMF, seed=2),
    "nfl_like_interleaved": lambda: interleave(
        league_games(120, 3600, 0.00204, NFL_PMF, seed=3), odd_games()
    ),
    "nba_like_interleaved": lambda: [*odd_games(), *interleave(
        league_games(20, 2880, 0.0437, NBA_PMF, seed=4), odd_games()
    ), *odd_games()],
}


def assert_close_with_nan_pattern(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(np.isnan(actual), np.isnan(expected))
    live = ~np.isnan(expected)
    assert np.max(np.abs(actual[live] - expected[live]), initial=0.0) <= 1e-12


@st.composite
def corpora(draw):
    """Short games on a short clock, so that constant, single-gap and empty
    games are common and long lags outrun every game."""
    games = []
    for i in range(draw(st.integers(0, 12))):
        times = sorted(draw(st.lists(st.integers(0, 60), max_size=14, unique=True)))
        n = len(times)
        teams = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        points = draw(st.lists(st.integers(1, 7), min_size=n, max_size=n))
        games.append(sd.GameLog(f"g{i}", "custom", times, teams, points))
    return games


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


# --------------------------------------------------------------------------
# Gap correlation
# --------------------------------------------------------------------------

class TestCorrelationMatchesLoops:
    @pytest.mark.parametrize("name", sorted(CORPORA))
    @pytest.mark.parametrize("n_max", [1, 7, 50, 400])
    def test_correlation_function(self, name, n_max):
        games = CORPORA[name]()
        assert_close_with_nan_pattern(
            sd.correlation_function(games, n_max), loop_correlation_function(games, n_max)
        )

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_gap_correlation_of_each_game(self, name):
        for game in CORPORA[name]():
            gaps = np.diff(game.times)
            actual = outcome(sd.gap_correlation, gaps, 30)
            if len(gaps) == 0:  # see test_empty_sequence_raises
                assert actual == "ValueError: constant gap sequence: correlation undefined"
                continue
            expected = outcome(loop_gap_correlation, gaps, 30)
            if isinstance(expected, str):
                assert actual == expected
            else:
                assert_close_with_nan_pattern(actual, expected)

    def test_gap_correlation_of_a_long_sequence(self):
        gaps = np.random.default_rng(7).geometric(0.03, size=20_000)
        assert_close_with_nan_pattern(sd.gap_correlation(gaps, 50), loop_gap_correlation(gaps, 50))

    def test_gap_correlation_of_float_gaps(self):
        gaps = np.random.default_rng(8).normal(10.0, 3.0, size=500)
        assert_close_with_nan_pattern(sd.gap_correlation(gaps, 60), loop_gap_correlation(gaps, 60))

    def test_empty_sequence_raises(self):
        # the loop returned all-NaN with a RuntimeWarning here
        with pytest.raises(ValueError, match="constant gap sequence"):
            sd.gap_correlation([], 3)

    def test_one_game_corpus_equals_its_sequence(self):
        game = CORPORA["nba_like"]()[0]
        pooled = sd.correlation_function([game], 40)
        assert_close_with_nan_pattern(pooled, sd.gap_correlation(np.diff(game.times), 40))

    def test_no_pair_straddles_two_games(self):
        # two games whose gaps alternate in opposite phase: pairs across the
        # boundary would pull C(1) toward zero
        a = sd.GameLog("a", "custom", np.cumsum([1, 2, 9, 2, 9, 2, 9]), [1] * 7, [1] * 7)
        b = sd.GameLog("b", "custom", np.cumsum([1, 9, 2, 9, 2, 9, 2]), [1] * 7, [1] * 7)
        pooled = sd.correlation_function([a, b], 1)[0]
        assert pooled == pytest.approx(sd.gap_correlation(np.diff(a.times), 1)[0], abs=1e-15)

    @given(corpora(), st.integers(1, 20))
    @settings(max_examples=150, deadline=None)
    def test_random_corpora(self, games, n_max):
        expected = outcome(loop_correlation_function, games, n_max)
        actual = outcome(sd.correlation_function, games, n_max)
        if isinstance(expected, str):
            assert actual == expected
        else:
            assert_close_with_nan_pattern(actual, expected)

    @given(st.lists(st.integers(1, 500), min_size=1, max_size=80), st.integers(1, 90))
    @settings(max_examples=150, deadline=None)
    def test_random_sequences(self, gaps, n_max):
        expected = outcome(loop_gap_correlation, gaps, n_max)
        actual = outcome(sd.gap_correlation, gaps, n_max)
        if isinstance(expected, str):
            assert actual == expected
        else:
            assert_close_with_nan_pattern(actual, expected)


# --------------------------------------------------------------------------
# Count estimators
# --------------------------------------------------------------------------

class TestCountEstimatorsMatchLoops:
    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_balance_fractions(self, name):
        games = CORPORA[name]()
        actual = sd.balance_fractions(games)
        assert actual.dtype == np.float64
        assert np.array_equal(actual, loop_balance_fractions(games))

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_point_value_distribution(self, name):
        games = CORPORA[name]()
        assert sd.point_value_distribution(games) == loop_point_value_distribution(games)

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_fit_tempo_gap_support_and_probabilities(self, name):
        games = CORPORA[name]()
        cfg = sd.SportConfig("custom", 3600, (3600,), {1: 1.0}, 20)
        tempo = sd.fit_tempo(games, cfg)
        support, probs = loop_gap_support(games)
        assert np.array_equal(tempo.interarrival_gaps, support)
        assert np.array_equal(tempo.interarrival_probs, probs)

    @pytest.mark.parametrize("name", sorted(CORPORA))
    def test_interarrival_pmf(self, name):
        games = CORPORA[name]()
        cfg = sd.SportConfig("custom", 3600, (3600,), {1: 1.0}, 20)
        gaps, pmf = loop_gap_pmf(games)
        law = sd.interarrival_distribution(games, cfg)
        assert np.array_equal(law.gaps, gaps)
        assert np.array_equal(law.empirical_pmf, pmf)

    @given(corpora())
    @settings(max_examples=100, deadline=None)
    def test_random_corpora(self, games):
        assert np.array_equal(sd.balance_fractions(games), loop_balance_fractions(games))
        if not any(g.n_events for g in games):
            with pytest.raises(ValueError, match="no events"):
                sd.point_value_distribution(games)
        else:
            assert sd.point_value_distribution(games) == loop_point_value_distribution(games)
            tempo = sd.fit_tempo(games, sd.SportConfig("custom", 60, (60,), {1: 1.0}, 20))
            support, probs = loop_gap_support(games)
            assert np.array_equal(tempo.interarrival_gaps, support)
            assert np.array_equal(tempo.interarrival_probs, probs)

    def test_no_gaps_leaves_the_support_empty(self):
        games = [sd.GameLog("a", "custom", [3], [1], [1]), sd.GameLog("b", "custom", [], [], [])]
        tempo = sd.fit_tempo(games, sd.SportConfig("custom", 60, (60,), {1: 1.0}, 20))
        assert tempo.interarrival_gaps.dtype == np.int64 and len(tempo.interarrival_gaps) == 0
        assert tempo.interarrival_probs.dtype == np.float64 and len(tempo.interarrival_probs) == 0

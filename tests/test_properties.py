"""Property tests for the library's structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scoredyn as sd

T_SMALL = 200
TINY = sd.SportConfig("custom", T_SMALL, (T_SMALL,), {1: 1.0}, 20)


@st.composite
def game_logs(draw, max_events=12, max_t=T_SMALL, max_points=8):
    times = sorted(
        draw(
            st.lists(
                st.integers(0, max_t), min_size=0, max_size=max_events, unique=True
            )
        )
    )
    n = len(times)
    teams = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    points = draw(st.lists(st.integers(1, max_points), min_size=n, max_size=n))
    return sd.GameLog("g", "custom", times, teams, points)


@st.composite
def antisymmetric_phis(draw, cap=8):
    upper = np.array(
        draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False), min_size=cap, max_size=cap
            )
        )
    )
    return np.concatenate([1.0 - upper[::-1], [0.5], upper])


@st.composite
def point_pmfs(draw, max_value=6):
    values = draw(
        st.lists(st.integers(1, max_value), min_size=1, max_size=4, unique=True)
    )
    weights = draw(
        st.lists(st.integers(1, 100), min_size=len(values), max_size=len(values))
    )
    total = sum(weights)
    return {v: w / total for v, w in zip(values, weights)}


class TestLeadProperties:
    @given(st.lists(game_logs(), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_lead_is_step_function_with_event_jumps(self, games):
        # the lead starts at 0 in every game and jumps by each event's signed points
        corpus = sd.Corpus.of(games)
        leads = sd.core._event_leads(corpus.offsets, corpus.signed)
        for game, a, b in zip(games, corpus.offsets[:-1], corpus.offsets[1:]):
            assert np.array_equal(np.diff(leads[a:b], prepend=0), game.signed_points)

    @given(game_logs())
    @settings(max_examples=30, deadline=None)
    def test_balance_fraction_bounds_and_swap(self, game):
        if game.n_events == 0:
            return
        (c,) = sd.balance_fractions([game])
        assert 0.0 <= c <= 1.0
        swapped = sd.GameLog(game.game_id, game.sport_id, game.times, -game.teams, game.points)
        assert sd.balance_fractions([swapped])[0] == pytest.approx(1.0 - c, abs=1e-12)


class TestIngestProperties:
    @given(st.lists(game_logs(), min_size=0, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_write_parse_round_trip(self, tmp_path_factory, games):
        games = [
            sd.GameLog(f"g{i}", "custom", g.times, g.teams, g.points)
            for i, g in enumerate(games)
        ]
        path = tmp_path_factory.mktemp("rt") / "c.csv"
        sd.write_event_file(games, path)
        parsed = sd.parse_event_file(path, configs={"custom": TINY})
        # a game with no events has no records, so only scoring games round-trip
        assert parsed == [g for g in games if g.n_events > 0]

    @given(st.lists(game_logs(), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_poisson_identity(self, games):
        total = sum(g.n_events for g in games)
        if total == 0:
            return
        lam = sd.fit_poisson_rate(games, TINY)
        mean = total / len(games)
        assert abs(lam * T_SMALL - mean) <= 1e-12 * mean


class TestEstimatorProperties:
    @given(st.lists(st.integers(1, 500), min_size=3, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_gap_correlation_bounded(self, gaps):
        gaps = np.asarray(gaps)
        if np.ptp(gaps) == 0:
            return
        c = sd.gap_correlation(gaps, 10)
        finite = c[~np.isnan(c)]
        assert np.all(np.abs(finite) <= 1.0 + 1e-12)

    @given(st.lists(game_logs(max_events=10), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_phi_antisymmetry_exact(self, games):
        if sum(g.n_events for g in games) == 0:
            return
        scoring = sd.lead_scoring_function(games, cap=10, min_samples=1)
        phi = scoring.phi
        assert np.all(phi + phi[::-1] == 1.0)
        assert phi[10] == 0.5

    @given(st.lists(game_logs(max_events=10), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_point_value_pmf_sums_to_one(self, games):
        if sum(g.n_events for g in games) == 0:
            return
        pmf = sd.point_value_distribution(games)
        assert abs(sum(pmf.values()) - 1.0) <= 1e-9
        assert all(p >= 0 for p in pmf.values())

    @given(st.lists(game_logs(max_events=6), min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_balance_null_values_are_valid_fractions(self, games):
        if all(g.n_events == 0 for g in games):
            return
        fractions, probs = sd.balance_null_distribution(games)
        assert np.all((fractions >= 0) & (fractions <= 1))
        assert np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-12


class TestChainProperties:
    @given(antisymmetric_phis(), point_pmfs())
    @settings(max_examples=60, deadline=None)
    def test_rows_stochastic_and_mirror_consistent(self, phi, pmf):
        cap = 8
        if max(pmf) > cap:
            return
        chain = sd.build_chain(phi, pmf)
        assert np.all(np.abs(chain.transition.sum(axis=1) - 1.0) <= 1e-9)
        assert np.all(chain.transition >= 0)
        P = chain.transition
        assert np.array_equal(P, P[::-1, ::-1])

    @given(
        antisymmetric_phis(),
        point_pmfs(),
        st.integers(-8, 8),
        st.sampled_from([0, 1, 2, 7, 40, 200]),
    )
    @settings(max_examples=60, deadline=None)
    def test_forecast_normalized(self, phi, pmf, lead, steps):
        cap = 8
        if max(pmf) > cap:
            return
        chain = sd.build_chain(phi, pmf)
        f = sd.forecast_after_events(chain, lead, steps)
        assert abs(f.p_win_r + f.p_tie + f.p_win_b - 1.0) <= 1e-9

    @given(antisymmetric_phis(), point_pmfs(), st.integers(0, 8), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_forecast_mirror_exact(self, phi, pmf, lead, steps):
        cap = 8
        if max(pmf) > cap:
            return
        chain = sd.build_chain(phi, pmf)
        pos = sd.forecast_after_events(chain, lead, steps)
        neg = sd.forecast_after_events(chain, -lead, steps)
        assert pos.p_win_r == neg.p_win_b
        assert pos.p_win_b == neg.p_win_r
        assert pos.p_tie == neg.p_tie


class TestReproducibility:
    @given(st.integers(0, 2**63 - 1))
    @settings(max_examples=15, deadline=None)
    def test_simulation_bit_reproducible(self, seed):
        spec = sd.ideal_model(TINY, 0.02, seed)
        assert sd.simulate_corpus(spec, 3) == sd.simulate_corpus(spec, 3)

    @given(st.integers(0, 2**63 - 1))
    @settings(max_examples=15, deadline=None)
    def test_league_bit_reproducible(self, seed):
        spec = sd.LeagueSpec(
            skills=np.array([2.0, 1.0]),
            schedule=((0, 1), (1, 0), (0, 1)),
            regulation_length=T_SMALL,
            tempo=0.02,
            point_values={1: 0.5, 2: 0.5},
            seed=seed,
        )
        assert sd.generate_league(spec) == sd.generate_league(spec)
        assert sd.generate_restoring_league(spec, -0.01) == sd.generate_restoring_league(
            spec, -0.01
        )

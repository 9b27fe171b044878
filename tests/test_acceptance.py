"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import dataclasses
import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import scoredyn as sd


@contextmanager
def criterion(number: int, budget_seconds: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL ({description})")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_seconds
    print(
        f"\nACCEPTANCE {number} {'PASS' if ok else 'FAIL'} ({description}) "
        f"[{elapsed:.2f}s, budget {budget_seconds:.0f}s]"
    )
    assert ok, f"runtime {elapsed:.2f}s exceeded budget {budget_seconds}s"


def unit_game(game_id, signs):
    times = np.arange(1, len(signs) + 1)
    return sd.GameLog(game_id, "custom", times, signs, np.ones(len(signs), dtype=int))


def test_criterion_1_poisson_identity():
    with criterion(1, 1.0, "Poisson identity and published NFL rate"):
        # identity: rate * T equals mean events per game to 1e-12 relative
        rng = np.random.default_rng(1)
        games = [
            unit_game(f"g{i}", np.where(rng.random(n) < 0.5, 1, -1))
            for i, n in enumerate(rng.integers(0, 40, size=500))
        ]
        cfg = sd.SportConfig("custom", 3600, (3600,), {1: 1.0}, 20)
        lam = sd.fit_poisson_rate(games, cfg)
        mean_events = np.mean([g.n_events for g in games])
        assert abs(lam * 3600 - mean_events) <= 1e-12 * mean_events

        # published-constant check from the corpus totals
        lam_nfl = sd.poisson_rate_from_counts(n_events=19476, n_games=2654, regulation_length=3600)
        assert abs(lam_nfl - 0.00204) <= 0.00001
        assert abs(lam_nfl * 3600 - 7.34) <= 0.01


def test_criterion_2_balance_null_oracle():
    with criterion(2, 5.0, "balance null matches exact 2-event enumeration"):
        games = [unit_game(f"g{i}", [1, -1]) for i in range(64)]
        fractions, probs = sd.balance_null_distribution(games)
        assert fractions.tolist() == [0.0, 0.5, 1.0]
        assert probs.tolist() == [0.25, 0.5, 0.25]


def test_criterion_3_correlation_sanity():
    with criterion(3, 10.0, "gap correlation: iid flat, alternating negative"):
        rng = np.random.default_rng(30)
        gaps = rng.geometric(0.01, size=1_000_000)
        c = sd.gap_correlation(gaps, 50)
        assert np.max(np.abs(c)) < 0.01

        alternating = np.tile([4, 10], 50_000)
        c1 = sd.gap_correlation(alternating, 1)[0]
        assert c1 < -0.95


def test_criterion_4_chain_vs_simulator():
    with criterion(4, 30.0, "chain forecasts: exact enumeration and Monte Carlo"):
        # exhaustive enumeration for fair unit chains, n <= 6
        cap = 12
        chain = sd.build_chain(np.full(2 * cap + 1, 0.5), {1: 1.0})
        weight_cache = {}
        for start in (0, 1, 2, -3):
            for n in range(7):
                f = sd.forecast_after_events(chain, start, n)
                win = tie = loss = 0.0
                w = 0.5**n
                for signs in itertools.product((1, -1), repeat=n):
                    lead = start
                    for s in signs:
                        lead = max(min(lead + s, cap), -cap)
                    if lead > 0:
                        win += w
                    elif lead == 0:
                        tie += w
                    else:
                        loss += w
                assert abs(f.p_win_r - win) <= 1e-12
                assert abs(f.p_tie - tie) <= 1e-12
                assert abs(f.p_win_b - loss) <= 1e-12

        # NBA-like point values with a sloped (restoring) phi, against
        # an independent Monte Carlo walker of the same truncated process
        cap = 100
        pmf = dict(sd.builtin_config("nba").point_values)
        phi = 0.5 - 0.002 * np.arange(-cap, cap + 1)
        chain = sd.build_chain(phi, pmf)
        start, steps, n_runs = 5, 30, 100_000
        f = sd.forecast_after_events(chain, start, steps)

        rng = np.random.default_rng(40)
        support = np.array(sorted(pmf))
        probs = np.array([pmf[v] for v in support])
        lead = np.full(n_runs, start)
        for _ in range(steps):
            up = rng.random(n_runs) < phi[lead + cap]
            values = rng.choice(support, size=n_runs, p=probs)
            lead = np.clip(lead + np.where(up, values, -values), -cap, cap)
        for observed, exact in (
            (float((lead > 0).mean()), f.p_win_r),
            (float((lead == 0).mean()), f.p_tie),
            (float((lead < 0).mean()), f.p_win_b),
        ):
            assert abs(observed - exact) < 3 * math.sqrt(exact * (1 - exact) / n_runs)


def test_criterion_5_parameter_recovery():
    with criterion(5, 60.0, "synthetic league parameter recovery"):
        nfl_pmf = dict(sd.builtin_config("nfl").point_values)
        schedule = tuple((0, 1) if g % 2 == 0 else (1, 0) for g in range(10_000))
        spec = sd.LeagueSpec(
            skills=np.array([9.0, 1.0]),
            schedule=schedule,
            regulation_length=3600,
            tempo=0.002,
            point_values=nfl_pmf,
            seed=2024,
        )
        games = sd.generate_league(spec)
        cfg = sd.league_config(spec, lead_cap=100)

        lam = sd.fit_poisson_rate(games, cfg)
        assert abs(lam - 0.002) / 0.002 < 0.01

        strong_events = total_events = 0
        for g, game in enumerate(games):
            wins_r = int(np.count_nonzero(game.teams > 0))
            strong_is_r = schedule[g][0] == 0
            strong_events += wins_r if strong_is_r else game.n_events - wins_r
            total_events += game.n_events
        pooled = strong_events / total_events
        assert abs(pooled - 0.9) < 3 * math.sqrt(0.9 * 0.1 / total_events)

        scoring = sd.lead_scoring_function(games, cap=100, min_samples=50)
        assert scoring.fit.slope > 3 * scoring.fit.slope_stderr

        # restoring force: negative fitted slope, narrower final leads
        nba_pmf = dict(sd.builtin_config("nba").point_values)
        base = sd.LeagueSpec(
            skills=np.array([1.0, 1.0]),
            schedule=tuple((0, 1) for _ in range(2000)),
            regulation_length=2880,
            tempo=0.032,
            point_values=nba_pmf,
            seed=77,
        )
        restored = sd.generate_restoring_league(base, -0.002)
        control = sd.generate_restoring_league(base, 0.0)
        fit = sd.lead_scoring_function(restored, cap=100, min_samples=50).fit
        assert fit.slope < -3 * fit.slope_stderr
        var_restored = np.var([g.final_lead() for g in restored])
        var_control = np.var([g.final_lead() for g in control])
        assert var_restored < var_control


def test_criterion_6_predictability_dominance():
    with criterion(6, 120.0, "chain dominates leader-wins on a skill league"):
        spec = sd.default_league(
            n_teams=20,
            n_games=2000,
            regulation_length=3600,
            rate=0.002,
            point_values={1: 1.0},
            skill_sigma=1.0,
            seed=42,
        )
        games = sd.generate_league(spec)
        cfg = sd.league_config(spec, lead_cap=30)
        curve = sd.evaluate_predictability(games, cfg, n_splits=20, seed=11)
        assert np.all(curve.auc_chain >= curve.auc_leader - 1e-12)
        assert curve.auc_chain[-1] >= 0.95
        assert np.all(curve.n_games_scored >= 1)


def test_criterion_7_invariant_suite():
    with criterion(7, 30.0, "structural invariants as property tests"):

        @st.composite
        def antisym_phi(draw, cap=8):
            upper = np.array(
                draw(st.lists(st.floats(0, 1, allow_nan=False), min_size=cap, max_size=cap))
            )
            return np.concatenate([1.0 - upper[::-1], [0.5], upper])

        @st.composite
        def pmfs(draw):
            values = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
            weights = draw(
                st.lists(st.integers(1, 50), min_size=len(values), max_size=len(values))
            )
            total = sum(weights)
            return {v: w / total for v, w in zip(values, weights)}

        @given(antisym_phi(), pmfs(), st.integers(-8, 8), st.sampled_from([0, 1, 3, 25, 200]))
        @settings(max_examples=40, deadline=None)
        def chain_invariants(phi, pmf, lead, steps):
            chain = sd.build_chain(phi, pmf)
            P = chain.transition
            assert np.all(np.abs(P.sum(axis=1) - 1.0) <= 1e-9)  # row-stochastic
            assert np.array_equal(P, P[::-1, ::-1])  # reflection consistency
            f = sd.forecast_after_events(chain, lead, steps)
            assert abs(f.p_win_r + f.p_tie + f.p_win_b - 1.0) <= 1e-9  # normalized
            mirrored = sd.forecast_after_events(chain, -lead, steps)
            assert (f.p_win_r, f.p_tie, f.p_win_b) == (
                mirrored.p_win_b,
                mirrored.p_tie,
                mirrored.p_win_r,
            )  # mirror symmetry, exact

        chain_invariants()

        @st.composite
        def small_games(draw):
            times = sorted(draw(st.lists(st.integers(1, 120), max_size=10, unique=True)))
            n = len(times)
            teams = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
            return sd.GameLog("g", "custom", times, teams, np.ones(n, dtype=int))

        @given(st.lists(small_games(), min_size=1, max_size=12))
        @settings(max_examples=40, deadline=None)
        def phi_antisymmetry(games):
            if sum(g.n_events for g in games) == 0:
                return
            phi = sd.lead_scoring_function(games, cap=10, min_samples=1).phi
            assert np.all(phi + phi[::-1] == 1.0)
            assert phi[10] == 0.5

        phi_antisymmetry()

        @given(st.integers(0, 2**63 - 1))
        @settings(max_examples=10, deadline=None)
        def seeded_reproducibility(seed):
            cfg = sd.SportConfig("custom", 150, (150,), {1: 1.0}, 15)
            spec = sd.ideal_model(cfg, 0.03, seed)
            assert sd.simulate_corpus(spec, 4) == sd.simulate_corpus(spec, 4)
            league = sd.LeagueSpec(
                skills=np.array([2.0, 1.0]),
                schedule=((0, 1), (1, 0)),
                regulation_length=150,
                tempo=0.03,
                point_values={1: 1.0},
                seed=seed,
            )
            assert sd.generate_league(league) == sd.generate_league(league)

        seeded_reproducibility()


def test_criterion_8_point_value_fidelity():
    with criterion(8, 30.0, "built-in point values exact, sampling recovers them"):
        assert sd.builtin_config("nhl").point_values[1] == 1.0000
        assert sd.builtin_config("nba").point_values[2] == 0.7373
        assert sd.builtin_config("nfl").point_values[7] == 0.6222
        assert sd.builtin_config("cfb").point_values[7] == 0.7058

        for sport in sd.BUILTIN_SPORTS:
            cfg = sd.builtin_config(sport)
            rate = {"NBA": 0.032}.get(sport, 0.002)
            games = sd.ideal_corpus(cfg, rate, n_games=2000, seed=80)
            fitted = sd.point_value_distribution(games)
            total = sum(g.n_events for g in games)
            for value, q in cfg.point_values.items():
                tolerance = 3 * math.sqrt(q * (1 - q) / total) + 1e-12
                assert abs(fitted.get(value, 0.0) - q) < tolerance, (sport, value)

"""Lead-chain tests: hand-computed rows, path enumeration, Monte Carlo cross-checks."""

import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import scoredyn as sd
from scoredyn.predict import outcome_table
from scoredyn.rng import split_permutation

NBA_PMF = {1: 0.0941, 2: 0.7373, 3: 0.1647, 4: 0.0029, 5: 0.0009, 6: 0.0001}


def fair_phi(cap):
    return np.full(2 * cap + 1, 0.5)


def enumerate_unit_walk(start: int, n_steps: int, cap: int):
    """Exhaustive path enumeration for a fair unit-step walk with clamping.

    Independent oracle for chain forecasts: iterates all 2^n equally
    likely sign sequences and tallies final-lead outcomes.
    """
    win = tie = loss = 0.0
    weight = 0.5**n_steps
    for signs in itertools.product((1, -1), repeat=n_steps):
        lead = start
        for s in signs:
            lead = max(min(lead + s, cap), -cap)
        if lead > 0:
            win += weight
        elif lead == 0:
            tie += weight
        else:
            loss += weight
    return win, tie, loss


def forward_forecast(chain, lead: int, n_events: float) -> SimpleNamespace:
    """Forward propagation of an indicator vector at `lead` through P.

    Independent oracle for `forecast_after_events`, which reads the
    backward-induction `outcome_table` instead, and b's probability from
    its mirror: round(n_events) steps of v @ P, then each outcome summed
    from the final distribution, with no symmetry applied. The sums are
    kept as they are (not an `OutcomeForecast`, which refuses a win
    probability that rounding puts a few ulp over 1).
    """
    cap = chain.cap
    v = np.zeros(2 * cap + 1)
    v[chain.state_index(lead)] = 1.0
    for _ in range(int(round(float(n_events)))):
        v = v @ chain.transition
    p_tie = float(v[cap])
    return SimpleNamespace(
        p_win_r=float(v[cap + 1 :].sum()), p_tie=p_tie, p_win_b=float(v[:cap].sum())
    )


class TestBuildChain:
    def test_fair_unit_chain_rows(self):
        chain = sd.build_chain(fair_phi(5), {1: 1.0})
        P = chain.transition
        for lead in range(-4, 5):
            row = lead + 5
            assert P[row, row + 1] == 0.5
            assert P[row, row - 1] == 0.5
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_single_value_pmf_is_bidiagonal(self):
        cap = 15
        chain = sd.build_chain(fair_phi(cap), {1: 1.0})
        P = chain.transition
        for i in range(2 * cap + 1):
            for j in range(2 * cap + 1):
                if abs(i - j) != 1 and not (i == j and i in (0, 2 * cap)):
                    assert P[i, j] == 0.0

    def test_nba_row_at_zero_splits_mass_evenly(self):
        # hand computation: P[0, +-k] = 0.5 * Pr(value = k)
        cap = 100
        chain = sd.build_chain(fair_phi(cap), NBA_PMF)
        row = chain.transition[cap]
        for value, q in NBA_PMF.items():
            assert row[cap + value] == pytest.approx(0.5 * q, abs=1e-15)
            assert row[cap - value] == pytest.approx(0.5 * q, abs=1e-15)
        assert row[cap] == 0.0

    def test_boundary_mass_deposits_at_cap(self):
        cap = 3
        chain = sd.build_chain(fair_phi(cap), {2: 0.5, 3: 0.5})
        P = chain.transition
        # from lead 2, both +2 and +3 land at the cap
        assert P[cap + 2, 2 * cap] == 0.5
        assert P[cap + 2, cap] == 0.25  # 2 - 2
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_cap_below_max_point_value_rejected(self):
        with pytest.raises(ValueError, match="below the maximum point value"):
            sd.build_chain(fair_phi(5), {7: 1.0})

    @pytest.mark.parametrize(
        "phi, pmf, match",
        [
            (np.full(11, 0.5), {2.5: 1.0}, "positive integer"),
            (np.full(11, 0.5), {math.inf: 1.0}, "positive integer"),
            (np.full(11, 0.5), {1: float("nan")}, "a finite probability"),
            (np.where(np.arange(11) == 3, np.nan, 0.5), {1: 1.0}, "finite probabilities"),
        ],
    )
    def test_invalid_phi_or_point_values_rejected(self, phi, pmf, match):
        with pytest.raises(ValueError, match=match):
            sd.build_chain(phi, pmf)

    def test_reflection_consistency_for_antisymmetric_phi(self):
        cap = 8
        upper = np.linspace(0.5, 0.9, cap + 1)
        phi = np.concatenate([1.0 - upper[:0:-1], upper])
        chain = sd.build_chain(phi, {1: 0.75, 2: 0.25})
        P = chain.transition
        for L in range(-cap, cap + 1):
            for Lp in range(-cap, cap + 1):
                assert P[cap - L, cap - Lp] == P[cap + L, cap + Lp]

    @pytest.mark.parametrize(
        "phi, match",
        [
            (np.full(4, 0.5), "phi must be antisymmetric about L = 0"),
            (np.empty(0), "phi must be antisymmetric about L = 0"),
            (np.full((3, 3), 0.5), r"^phi must be 1-dimensional, got shape \(3, 3\)$"),
        ],
        ids=["even", "empty", "matrix"],
    )
    def test_phi_of_no_odd_length_refused(self, phi, match):
        with pytest.raises(ValueError, match=match):
            sd.build_chain(phi, {1: 1.0})

    def test_phi_not_exactly_antisymmetric_refused(self):
        # a random phi, and a fair one with one entry moved by 2**-52, the
        # least move that phi(L) + phi(-L) == 1 does not round away
        cap = 4
        rng = np.random.default_rng(3)
        off = fair_phi(cap)
        off[1] += 2.0**-52
        for phi in (rng.uniform(0.2, 0.8, 2 * cap + 1), off):
            with pytest.raises(ValueError, match="phi must be antisymmetric about L = 0"):
                sd.build_chain(phi, {1: 1.0})

    def test_cap_read_from_phi_length(self):
        for cap in (1, 6, 100):
            chain = sd.build_chain(fair_phi(cap), {1: 1.0})
            assert chain.cap == cap and chain.transition.shape == (2 * cap + 1,) * 2

    def test_transition_matrix_equals_row_loop(self):
        rng = np.random.default_rng(18)
        for _ in range(150):
            cap = int(rng.integers(1, 25))
            values = rng.choice(np.arange(1, cap + 1), int(rng.integers(1, min(cap, 6) + 1)),
                                replace=False)
            probs = rng.random(len(values))
            pmf = dict(zip(values.tolist(), (probs / probs.sum()).tolist()))
            # dyadic phi, so 1 - phi(L) + phi(L) == 1 exactly
            upper = np.append(0.5, rng.integers(0, 1025, cap) / 1024)
            phi = np.concatenate((1.0 - upper[:0:-1], upper))
            chain = sd.build_chain(phi, pmf)
            assert np.array_equal(chain.transition, row_loop_transition(phi, pmf, cap))


class TestLeadChain:
    @pytest.mark.parametrize(
        "transition",
        [np.eye(5)[:4], np.full(5, 0.2), np.eye(4), np.eye(5), np.full((3, 3), 2.0)],
        ids=["non-square", "vector", "even", "identity", "rows-sum-to-2"],
    )
    def test_refuses_a_bare_matrix(self, transition):
        # a chain is its phi and point pmf: no matrix, chain or not, stands in for them
        message = r"^LeadChain\(\) takes the fields \('phi', 'point_values'\), got 1 positional"
        with pytest.raises(TypeError, match=message):
            sd.LeadChain(transition)

    def test_transition_is_built_once_and_read_only(self):
        chain = sd.LeadChain(fair_phi(2), {1: 1.0})
        assert chain.transition is chain.transition
        assert not chain.transition.flags.writeable

    def test_cap_is_read_from_size(self):
        chain = sd.LeadChain(fair_phi(2), {1: 1.0})
        assert chain.cap == 2
        assert chain.states.tolist() == [-2, -1, 0, 1, 2]
        assert chain.state_index(-2) == 0 and chain.state_index(np.int64(2)) == 4

    @pytest.mark.parametrize("lead", [2.7, 2.0, np.float64(1.0), "1"])
    def test_non_integral_lead_refused(self, lead):
        chain = sd.build_chain(fair_phi(5), {1: 1.0})
        with pytest.raises(TypeError):
            chain.state_index(lead)
        with pytest.raises(TypeError):
            sd.forecast(chain, lead, 0, np.full(11, 0.25))


def row_loop_transition(phi, point_values, cap):
    """The transition matrix filled one row at a time, one value at a time
    (oracle for `build_chain`); the rows below lead 0 are mirrored."""
    P = np.zeros((2 * cap + 1, 2 * cap + 1))
    items = sorted(point_values.items())

    def fill_row(lead):
        row = lead + cap
        up = phi[row]
        down = 1.0 - up
        for value, q in items:
            P[row, min(lead + value, cap) + cap] += up * q
            P[row, max(lead - value, -cap) + cap] += down * q

    for lead in range(0, cap + 1):
        fill_row(lead)
    for lead in range(1, cap + 1):
        P[cap - lead, :] = P[cap + lead, ::-1]
    return P


class TestExpectedRemainingEvents:
    def test_final_second_only(self):
        profile = np.linspace(0, 0.1, 11)
        assert sd.expected_remaining_events(profile, 10) == profile[10]

    def test_flat_profile_from_start(self):
        profile = np.full(11, 0.25)
        assert sd.expected_remaining_events(profile, 0) == pytest.approx(0.25 * 11)

    def test_out_of_range(self):
        profile = np.full(11, 0.25)
        for t in (-1, 11):
            with pytest.raises(ValueError, match="outside"):
                sd.expected_remaining_events(profile, t)

    def test_non_integral_second_refused(self):
        profile = np.full(11, 0.25)
        for t in (10.5, 10.0, np.float64(3.0)):
            with pytest.raises(TypeError):
                sd.expected_remaining_events(profile, t)
        assert sd.expected_remaining_events(profile, np.int64(10)) == 0.25

    def test_full_sum_equals_mean_events_for_merged_games(self):
        games = sd.ideal_corpus(sd.builtin_config("nhl"), 0.001, 500, seed=21)
        profile = sd.tempo_profile(games)
        mean_events = np.mean([g.n_events for g in games])
        total = sd.expected_remaining_events(profile, 0)
        assert abs(total - mean_events) <= 1e-12 * max(mean_events, 1.0)


class TestForecast:
    def test_zero_steps_is_indicator(self):
        chain = sd.build_chain(fair_phi(5), {1: 1.0})
        f = sd.forecast_after_events(chain, 3, 0)
        assert (f.p_win_r, f.p_tie, f.p_win_b) == (1.0, 0.0, 0.0)

    def test_two_steps_from_tie(self):
        # enumeration: 4 equally likely paths from 0 -> {+2, 0, 0, -2}
        chain = sd.build_chain(fair_phi(5), {1: 1.0})
        f = sd.forecast_after_events(chain, 0, 2)
        assert f.p_win_r == pytest.approx(0.25, abs=1e-15)
        assert f.p_tie == pytest.approx(0.5, abs=1e-15)
        assert f.p_win_b == pytest.approx(0.25, abs=1e-15)

    def test_one_step_from_lead_one(self):
        chain = sd.build_chain(fair_phi(5), {1: 1.0})
        f = sd.forecast_after_events(chain, 1, 1)
        assert (f.p_win_r, f.p_tie, f.p_win_b) == (0.5, 0.5, 0.0)

    def test_matches_exhaustive_enumeration_up_to_six_steps(self):
        cap = 10
        chain = sd.build_chain(fair_phi(cap), {1: 1.0})
        for start in (0, 1, -2, 3):
            for n in range(7):
                f = sd.forecast_after_events(chain, start, n)
                win, tie, loss = enumerate_unit_walk(start, n, cap)
                assert abs(f.p_win_r - win) <= 1e-12, (start, n)
                assert abs(f.p_tie - tie) <= 1e-12, (start, n)
                assert abs(f.p_win_b - loss) <= 1e-12, (start, n)

    def test_real_event_counts_round(self):
        chain = sd.build_chain(fair_phi(5), {1: 1.0})
        f_rounded = sd.forecast_after_events(chain, 0, 2.4)
        f_two = sd.forecast_after_events(chain, 0, 2)
        assert f_rounded == f_two

    def test_forecast_from_profile_time(self):
        cap = 5
        chain = sd.build_chain(fair_phi(cap), {1: 1.0})
        profile = np.zeros(101)
        profile[50] = 1.0
        profile[80] = 1.0
        f = sd.forecast(chain, 0, 40, profile)  # two events remain
        assert f.p_tie == pytest.approx(0.5, abs=1e-15)

    def test_invalid_inputs(self):
        chain = sd.build_chain(fair_phi(5), {1: 1.0})
        with pytest.raises(ValueError, match="outside truncation"):
            sd.forecast_after_events(chain, 6, 1)
        with pytest.raises(ValueError, match="finite"):
            sd.forecast_after_events(chain, 0, float("nan"))

    def test_probabilities_sum_to_one_deep(self):
        cap = 20
        upper = 0.5 + 0.4 * np.tanh(np.arange(cap + 1) / 6.0)
        phi = np.concatenate([1.0 - upper[:0:-1], upper])
        chain = sd.build_chain(phi, {1: 0.6, 2: 0.3, 3: 0.1})
        for lead in (-20, -3, 0, 5, 20):
            for n in (0, 1, 7, 50, 200):
                f = sd.forecast_after_events(chain, lead, n)
                assert abs(f.p_win_r + f.p_tie + f.p_win_b - 1.0) <= 1e-9

    def test_mirror_symmetry_exact(self):
        rng = np.random.default_rng(8)
        cap = 9
        upper = np.concatenate([[0.5], np.clip(0.5 + np.cumsum(rng.uniform(0, 0.04, cap)), 0, 1)])
        phi = np.concatenate([1.0 - upper[:0:-1], upper])
        chain = sd.build_chain(phi, {1: 0.7, 3: 0.3})
        for lead in range(0, cap + 1):
            for n in (0, 1, 4, 9):
                f_pos = sd.forecast_after_events(chain, lead, n)
                f_neg = sd.forecast_after_events(chain, -lead, n)
                assert f_pos.p_win_r == f_neg.p_win_b
                assert f_pos.p_win_b == f_neg.p_win_r
                assert f_pos.p_tie == f_neg.p_tie

    def test_win_probability_monotone_in_lead_for_monotone_phi(self):
        cap = 6
        phi = np.clip(0.5 + 0.05 * np.arange(-cap, cap + 1), 0.0, 1.0)
        chain = sd.build_chain(phi, {1: 1.0})
        for n in (1, 4, 8):
            values = [sd.forecast_after_events(chain, L, n).p_win_r for L in range(-cap, cap + 1)]
            assert np.all(np.diff(values) >= -1e-12)

    def test_chain_matches_monte_carlo_for_nba_like_model(self):
        # independent MC oracle for the same truncated process
        cap = 100
        leads_grid = np.arange(-cap, cap + 1)
        phi = 0.5 - 0.002 * leads_grid
        chain = sd.build_chain(phi, NBA_PMF)
        start, steps, n_runs = 5, 30, 100_000
        f = sd.forecast_after_events(chain, start, steps)

        rng = np.random.default_rng(77)
        support = np.array(sorted(NBA_PMF))
        probs = np.array([NBA_PMF[v] for v in support])
        lead = np.full(n_runs, start)
        for _ in range(steps):
            p_up = phi[lead + cap]
            sign = np.where(rng.random(n_runs) < p_up, 1, -1)
            values = rng.choice(support, size=n_runs, p=probs)
            lead = np.clip(lead + sign * values, -cap, cap)
        for observed, exact in (
            ((lead > 0).mean(), f.p_win_r),
            ((lead == 0).mean(), f.p_tie),
            ((lead < 0).mean(), f.p_win_b),
        ):
            assert abs(observed - exact) < 3 * math.sqrt(exact * (1 - exact) / n_runs)


class TestLeaderWins:
    def test_positive_lead(self):
        assert sd.leader_wins(3) == "r"

    def test_negative_lead(self):
        assert sd.leader_wins(-1) == "b"

    def test_tie_abstains(self):
        assert sd.leader_wins(0) is None


def fixed_time_game(game_id, signs, times, points=None):
    points = points if points is not None else np.ones(len(signs), dtype=int)
    return sd.GameLog(game_id, "custom", times, signs, points)


class TestEvaluatePredictability:
    def test_first_scorer_always_wins(self):
        cfg = sd.SportConfig("custom", 600, (600,), {1: 1.0}, 10)
        games = []
        for i in range(100):
            sign = 1 if i % 2 == 0 else -1
            games.append(fixed_time_game(f"g{i}", [sign] * 3, [50, 150, 250]))
        curve = sd.evaluate_predictability(games, cfg, n_splits=4, seed=3)
        assert curve.auc_chain[0] == 1.0
        assert curve.auc_leader[0] == 1.0

    def test_fair_unit_corpus_accuracy_matches_enumeration(self):
        # oracle: after event 1 the leader is +-1 with 4 fair unit steps
        # remaining; P(leader holds on) enumerates to 11/16
        win, tie, loss = enumerate_unit_walk(1, 4, cap=50)
        assert tie == 0.0
        expected = win
        assert expected == pytest.approx(11 / 16)

        cfg = sd.SportConfig("custom", 600, (600,), {1: 1.0}, 50)
        rng = np.random.default_rng(12)
        games = [
            fixed_time_game(
                f"g{i}", np.where(rng.random(5) < 0.5, 1, -1), [100, 200, 300, 400, 500]
            )
            for i in range(800)
        ]
        curve = sd.evaluate_predictability(games, cfg, n_splits=4, seed=5)
        n_scored = curve.n_games_scored[0]
        se = math.sqrt(expected * (1 - expected) / n_scored)
        assert abs(curve.auc_chain[0] - expected) < 3 * se

    def test_all_test_games_tied_rejected(self):
        cfg = sd.SportConfig("custom", 600, (600,), {1: 1.0}, 10)
        games = [fixed_time_game(f"g{i}", [1, -1], [100, 200]) for i in range(40)]
        with pytest.raises(ValueError, match="tied"):
            sd.evaluate_predictability(games, cfg, n_splits=2, seed=1)

    def test_half_credit_mode_keeps_ties(self):
        cfg = sd.SportConfig("custom", 600, (600,), {1: 1.0}, 10)
        games = [fixed_time_game(f"g{i}", [1, -1], [100, 200]) for i in range(40)]
        curve = sd.evaluate_predictability(
            games, cfg, n_splits=2, seed=1, tie_mode="half"
        )
        assert np.all(curve.auc_chain == 0.5)
        assert np.all(curve.auc_leader == 0.5)

    def test_remaining_events_round_to_nearest_step(self):
        # The leader never wins the next point, so phi(+-1) pulls every
        # lead back to 0. Tied games (kind C) have no event at second 300,
        # so after the third event about 0.8 events remain: round() gives
        # one step, which returns the lead to 0 and ties the forecast.
        # Truncating to zero steps would predict the leader instead.
        cfg = sd.SportConfig("custom", 600, (600,), {1: 1.0}, 5)
        kinds = [[1, -1, 1]] * 8 + [[-1, 1, -1]] * 8 + [[1, -1]] * 4
        games = [
            fixed_time_game(f"g{i}", signs, [100, 200, 300][: len(signs)])
            for i, signs in enumerate(kinds)
        ]
        curve = sd.evaluate_predictability(games, cfg, n_splits=3, seed=2)
        assert np.array_equal(curve.auc_chain, [0.5, 0.5, 0.5])
        assert np.array_equal(curve.auc_leader, [1.0, 0.5, 1.0])

    def test_chain_dominates_leader_on_skill_league(self):
        spec = sd.default_league(n_teams=10, n_games=600, regulation_length=1200,
                                 rate=0.006, skill_sigma=1.2, seed=31)
        games = sd.generate_league(spec)
        cfg = sd.league_config(spec, lead_cap=25)
        curve = sd.evaluate_predictability(games, cfg, n_splits=5, seed=7)
        assert np.all(curve.auc_chain >= curve.auc_leader - 1e-12)
        assert curve.auc_chain[-1] >= 0.9


def reference_evaluate(games, cfg, n_splits, seed, tie_mode="exclude"):
    """Per-event evaluation loop: one forward forecast per (lead, steps).

    Oracle for `evaluate_predictability`, which reads the same forecasts
    from a per-split outcome table, b's from its mirror. Win probabilities
    within 1e-12 of each other, the forward pass's precision, count as the
    tie that eval scores 1/2: at a tied lead they agree only to rounding here.
    """
    cap = cfg.lead_truncation
    n_train = min(max(int(round(0.75 * len(games))), 1), len(games) - 1)
    max_events = max(g.n_events for g in games)
    chain_sums = np.zeros((n_splits, max_events))
    leader_sums = np.zeros((n_splits, max_events))
    counts = np.zeros((n_splits, max_events), dtype=np.int64)
    for split in range(n_splits):
        order = split_permutation(seed, split, len(games))
        train = [games[i] for i in order[:n_train]]
        test = [games[i] for i in order[n_train:]]
        scoring = sd.lead_scoring_function(train, cap)
        profile = sd.tempo_profile(train, cfg)
        suffix = np.concatenate((np.cumsum(profile[::-1])[::-1], [0.0]))
        chain = sd.build_chain(scoring.phi, sd.point_value_distribution(train))
        cache = {}
        for game in test:
            winner_sign = np.sign(game.final_lead())
            if game.n_events == 0 or (winner_sign == 0 and tie_mode == "exclude"):
                continue
            leads = np.cumsum(game.signed_points)
            for ell in range(game.n_events):
                counts[split, ell] += 1
                if winner_sign == 0:
                    chain_sums[split, ell] += 0.5
                    leader_sums[split, ell] += 0.5
                    continue
                lead = int(np.clip(leads[ell], -cap, cap))
                key = (lead, int(round(suffix[int(game.times[ell])])))
                if key not in cache:
                    f = forward_forecast(chain, *key)
                    cache[key] = (f.p_win_r, f.p_win_b)
                p_r, p_b = cache[key]
                if abs(p_r - p_b) <= 1e-12:
                    chain_sums[split, ell] += 0.5
                else:
                    chain_sums[split, ell] += float((1 if p_r > p_b else -1) == winner_sign)
                if leads[ell] == 0:
                    leader_sums[split, ell] += 0.5
                else:
                    leader_sums[split, ell] += float(np.sign(leads[ell]) == winner_sign)
    last = int(np.nonzero(counts.sum(axis=0))[0][-1]) + 1
    with np.errstate(invalid="ignore", divide="ignore"):
        chain = np.where(counts > 0, chain_sums / np.maximum(counts, 1), np.nan)
        leader = np.where(counts > 0, leader_sums / np.maximum(counts, 1), np.nan)
    return (
        np.nanmean(chain[:, :last], axis=0),
        np.nanmean(leader[:, :last], axis=0),
        counts.sum(axis=0)[:last],
    )


def antisymmetric_phi(cap):
    upper = 0.5 + 0.4 * np.tanh(np.arange(cap + 1) / 5.0)
    return np.concatenate([1.0 - upper[:0:-1], upper])


def b_win_table(chain, max_steps):
    """b's win probabilities by their own backward induction from
    1{lead < 0} (oracle for the mirror of `outcome_table`)."""
    table = np.empty((max_steps + 1, len(chain.transition), 1))
    table[0, :, 0] = chain.states < 0
    for n in range(1, max_steps + 1):
        table[n] = chain.transition @ table[n - 1]
    return table[:, :, 0]


class TestOutcomeTable:
    def test_entries_match_forward_forecasts(self):
        cap, max_steps = 12, 40
        chain = sd.build_chain(antisymmetric_phi(cap), {1: 0.5, 2: 0.3, 3: 0.2})
        win = outcome_table(chain, max_steps)
        assert win.shape == (max_steps + 1, 2 * cap + 1)
        for lead in range(-cap, cap + 1):
            for n in range(max_steps + 1):
                f = forward_forecast(chain, lead, n)
                assert abs(win[n, lead + cap] - f.p_win_r) <= 1e-12, (lead, n)
                assert abs(win[n, cap - lead] - f.p_win_b) <= 1e-12, (lead, n)

    @pytest.mark.parametrize("cap, pmf", [(20, NBA_PMF), (6, {1: 0.5, 2: 0.3, 3: 0.2})])
    def test_mirror_matches_b_own_recursion(self, cap, pmf):
        # The mirror sums each row's terms in the reverse order of b's own
        # recursion, so the two agree to rounding (about 2e-15 here), not bit
        # for bit; the lead-0 column is its own mirror, so r and b tie exactly.
        chain = sd.build_chain(antisymmetric_phi(cap), pmf)
        win = outcome_table(chain, 200)
        assert np.abs(win[:, ::-1] - b_win_table(chain, 200)).max() <= 1e-12
        assert np.array_equal(win[:, ::-1][:, cap], win[:, cap])

    def test_forecast_after_events_matches_forward_oracle(self):
        cap = 6
        chain = sd.build_chain(antisymmetric_phi(cap), {1: 0.5, 2: 0.3, 3: 0.2})
        for lead in range(-cap, cap + 1):
            for n in range(201):
                f = sd.forecast_after_events(chain, lead, n)
                ref = forward_forecast(chain, lead, n)
                assert abs(f.p_win_r - ref.p_win_r) <= 1e-12, (lead, n)
                assert abs(f.p_tie - ref.p_tie) <= 1e-12, (lead, n)
                assert abs(f.p_win_b - ref.p_win_b) <= 1e-12, (lead, n)


class TestEvaluateMatchesPerEventReference:
    @staticmethod
    def nba_like_games(n_games, seed):
        spec = sd.default_league(n_teams=12, n_games=n_games, regulation_length=1440,
                                 rate=0.0437, point_values=NBA_PMF, skill_sigma=0.6,
                                 seed=seed)
        return sd.generate_league(spec)

    @pytest.mark.parametrize("tie_mode", ["exclude", "half"])
    @pytest.mark.parametrize("cap", [100, 6])
    def test_array_equal_to_reference(self, tie_mode, cap):
        games = self.nba_like_games(48, seed=19)
        cfg = sd.SportConfig("custom", 1440, (360, 720, 1080, 1440), NBA_PMF, cap)
        if cap == 6:  # the small cap must actually clip leads
            assert max(np.abs(np.cumsum(g.signed_points)).max() for g in games) > cap
        if tie_mode == "half":
            assert any(g.final_lead() == 0 for g in games)
        curve = sd.evaluate_predictability(games, cfg, n_splits=2, seed=3, tie_mode=tie_mode)
        auc_chain, auc_leader, n_scored = reference_evaluate(
            games, cfg, n_splits=2, seed=3, tie_mode=tie_mode
        )
        assert np.array_equal(curve.auc_chain, auc_chain, equal_nan=True)
        assert np.array_equal(curve.auc_leader, auc_leader, equal_nan=True)
        assert np.array_equal(curve.n_games_scored, n_scored)
        assert np.array_equal(curve.event_index, np.arange(1, len(auc_chain) + 1))

    @pytest.mark.parametrize("tie_mode", ["exclude", "half"])
    def test_array_equal_with_empty_single_event_and_tied_games_interleaved(self, tie_mode):
        # the winner of every game, read from its net score over the event
        # columns, must match GameLog.final_lead() game for game
        extra = [
            sd.GameLog("empty", "custom", [], [], []),
            sd.GameLog("one", "custom", [700], [-1], [2]),
            sd.GameLog("tie", "custom", [100, 900, 1300], [1, -1, 1], [3, 5, 2]),
        ]
        games = []
        for i, game in enumerate(self.nba_like_games(36, seed=23)):
            games += [game, extra[i % 3]]
        cfg = sd.SportConfig("custom", 1440, (360, 720, 1080, 1440), NBA_PMF, 100)
        curve = sd.evaluate_predictability(games, cfg, n_splits=3, seed=5, tie_mode=tie_mode)
        auc_chain, auc_leader, n_scored = reference_evaluate(
            games, cfg, n_splits=3, seed=5, tie_mode=tie_mode
        )
        assert np.array_equal(curve.auc_chain, auc_chain, equal_nan=True)
        assert np.array_equal(curve.auc_leader, auc_leader, equal_nan=True)
        assert np.array_equal(curve.n_games_scored, n_scored)

    @pytest.mark.parametrize("n_splits", [1, 5])
    def test_corpus_laid_out_once_for_every_split(self, monkeypatch, n_splits):
        # each split refits from a mask over the one event layout, never
        # from a per-split list of games laid out again
        calls = []
        of = sd.Corpus.of.__func__

        def spy(cls, games):
            if not isinstance(games, sd.Corpus):  # the list layout
                calls.append(len(games))
            return of(cls, games)

        monkeypatch.setattr(sd.Corpus, "of", classmethod(spy))
        games = list(self.nba_like_games(24, seed=2))
        cfg = sd.SportConfig("custom", 1440, (1440,), NBA_PMF, 100)
        sd.evaluate_predictability(games, cfg, n_splits=n_splits, seed=1)
        assert calls == [len(games)]

    def test_event_past_regulation_rejected(self):
        # a config shorter than the corpus's clock (say NBA's on NFL games)
        games = self.nba_like_games(10, seed=1)
        late = max(games, key=lambda g: g.times[-1] if g.n_events else -1)
        cfg = sd.SportConfig("custom", 1000, (1000,), NBA_PMF, 100)
        assert late.times[-1] > 1000
        with pytest.raises(ValueError, match=rf"game '{late.game_id}' has an event at second "
                                             rf"{late.times[-1]}, past .* length 1000"):
            sd.evaluate_predictability(games, cfg, n_splits=2)

    @pytest.mark.parametrize("n_splits", [0, -2])
    def test_splits_below_one_rejected(self, n_splits):
        games = self.nba_like_games(10, seed=1)
        cfg = sd.SportConfig("custom", 1440, (1440,), NBA_PMF, 100)
        with pytest.raises(ValueError, match="n_splits must be >= 1"):
            sd.evaluate_predictability(games, cfg, n_splits=n_splits)


class TestForecastReadsEvalTable:
    def test_forecast_equals_eval_lookup_at_every_second(self):
        # Profiles fitted on n games are multiples of 1/n, so some seconds
        # have (nearly) half-integer remaining events. There a sum over
        # profile[t:] and the reverse cumsum that eval reads can round to
        # different step counts; forecast must take eval's.
        games = TestEvaluateMatchesPerEventReference.nba_like_games(48, seed=19)
        cap = 20
        cfg = sd.SportConfig("custom", 1440, (360, 720, 1080, 1440), NBA_PMF, cap)
        profile = sd.tempo_profile(games, cfg)
        scoring = sd.lead_scoring_function(games, cap, 20)
        chain = sd.build_chain(scoring.phi, sd.point_value_distribution(games))
        suffix = np.cumsum(profile[::-1])[::-1]
        assert np.any(np.abs(suffix - np.floor(suffix) - 0.5) < 1e-9)
        steps = np.rint(suffix).astype(int)
        win = outcome_table(chain, int(steps.max()))
        for t in range(len(profile)):
            for lead in (-9, -1, 0, 2, 5, cap):
                f = sd.forecast(chain, lead, t, profile)
                assert f.p_win_r == win[steps[t], lead + cap], (t, lead)
                assert f.p_win_b == win[steps[t], cap - lead], (t, lead)

    def test_impossible_tie_reads_zero_not_negative(self):
        # Fitted pmfs leave rows of P a few ulp off 1, so r's and b's wins can
        # sum over 1; the tie probability is then 0, never -0.000000 in print.
        games = TestEvaluateMatchesPerEventReference.nba_like_games(48, seed=19)
        cap = 100
        scoring = sd.lead_scoring_function(games, cap, 20)
        chain = sd.build_chain(scoring.phi, sd.point_value_distribution(games))
        win = outcome_table(chain, 4)
        assert np.any(win + win[:, ::-1] > 1.0)
        for lead in range(-cap, cap + 1):
            for n in range(5):
                assert sd.forecast_after_events(chain, lead, n).p_tie >= 0.0, (lead, n)

    def test_win_probabilities_never_exceed_one(self):
        # The same fit: win[1] reads 1 + 2**-52 at leads 20, 28, 40, 62, 63
        # and 98; the forecast clamps it, and the table keeps it.
        games = TestEvaluateMatchesPerEventReference.nba_like_games(48, seed=19)
        cap = 100
        scoring = sd.lead_scoring_function(games, cap, 20)
        chain = sd.build_chain(scoring.phi, sd.point_value_distribution(games))
        win = outcome_table(chain, 4)
        assert win.max() > 1.0
        for lead in range(-cap, cap + 1):
            for n in range(5):
                f = sd.forecast_after_events(chain, lead, n)
                assert f.p_win_r <= 1.0 and f.p_win_b <= 1.0, (lead, n)
                assert f.p_win_r == min(1.0, win[n, lead + cap]), (lead, n)
                assert f.p_win_b == min(1.0, win[n, cap - lead]), (lead, n)


M64 = 2**64 - 1


def splitmix64(state: int, k: int) -> int:
    """Output k (k >= 1) of the SplitMix64 stream seeded with `state`, in Python ints."""
    z = (state + k * 0x9E3779B97F4A7C15) & M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


def reference_split(seed: int, split: int, n: int) -> list[int]:
    """Games sorted by output i + 1 of the stream seeded with output split + 1 of seed's."""
    state = splitmix64(seed, split + 1)
    return sorted(range(n), key=lambda i: splitmix64(state, i + 1))


class TestSplitPermutation:
    def test_reference_reproduces_splitmix64_test_vector(self):
        assert [splitmix64(1234567, k) for k in (1, 2, 3)] == [
            6457827717110365317, 3203168211198807973, 9817491932198370423
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2**63, M64])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 500])
    def test_every_split_is_a_permutation_equal_to_reference(self, seed, n):
        for split in range(40):
            order = split_permutation(seed, split, n)
            assert order.dtype == np.intp and order.shape == (n,)
            assert np.array_equal(np.sort(order), np.arange(n)), split
            assert order.tolist() == reference_split(seed, split, n), split

    def test_small_corpora_see_every_order(self):
        # n = 2 and n = 3: 200 splits reach each of the 2 and 6 orders
        for n in (2, 3):
            seen = {tuple(split_permutation(5, k, n).tolist()) for k in range(200)}
            assert seen == set(itertools.permutations(range(n))), n

    def test_split_depends_only_on_seed_split_and_size(self):
        forward = [split_permutation(9, k, 60) for k in range(25)]
        backward = [split_permutation(9, k, 60) for k in reversed(range(25))][::-1]
        for k in range(25):
            assert np.array_equal(forward[k], backward[k]), k
            assert np.array_equal(forward[k], split_permutation(9, k, 60)), k
        assert len({tuple(o.tolist()) for o in forward}) == 25  # the splits differ
        assert not np.array_equal(split_permutation(10, 0, 60), forward[0])

    @pytest.mark.parametrize("n", [2, 7, 40])
    def test_test_set_frequency_within_four_sigma(self, n):
        n_splits = 4000
        n_train = min(max(round(0.75 * n), 1), n - 1)
        p = (n - n_train) / n
        in_test = np.zeros(n)
        for k in range(n_splits):
            in_test[split_permutation(3, k, n)[n_train:]] += 1
        sigma = math.sqrt(n_splits * p * (1 - p))
        assert np.all(np.abs(in_test - n_splits * p) <= 4 * sigma), in_test

    @pytest.mark.parametrize("seed", [-1, -(2**40), 2**64, 2**70])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
            split_permutation(seed, 0, 5)
        games = TestEvaluateMatchesPerEventReference.nba_like_games(10, seed=1)
        cfg = sd.SportConfig("custom", 1440, (1440,), NBA_PMF, 100)
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            sd.evaluate_predictability(games, cfg, n_splits=2, seed=seed)

    def test_largest_seed_accepted(self):
        games = TestEvaluateMatchesPerEventReference.nba_like_games(10, seed=1)
        cfg = sd.SportConfig("custom", 1440, (1440,), NBA_PMF, 100)
        curve = sd.evaluate_predictability(games, cfg, n_splits=2, seed=M64)
        assert np.all((curve.auc_chain >= 0) & (curve.auc_chain <= 1))

    def test_wrap_around_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split_permutation(M64, 2**64 + 7, 1000)

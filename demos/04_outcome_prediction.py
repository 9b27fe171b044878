"""In-game outcome forecasting with the lead-size Markov chain.

Builds the chain from a fitted scoring function and point-value
distribution, walks through what the forecast looks like from a few
game states, then runs the out-of-sample evaluation: predictions after
every scoring event on held-out games, chain vs the leader-wins
heuristic, averaged over random 3/4-1/4 splits.

Run: python demos/04_outcome_prediction.py
"""

import numpy as np

import scoredyn as sd

spec = sd.default_league(
    n_teams=20, n_games=4_000, regulation_length=3600, rate=0.002,
    point_values={1: 1.0}, skill_sigma=1.0, seed=19,
)
games = sd.generate_league(spec)
config = sd.league_config(spec, lead_cap=30)

tempo = sd.fit_tempo(games, config)
balance = sd.fit_balance(games, config)
chain = sd.build_chain(balance.phi, balance.point_values)

print("forecasts from selected states (lead, clock):")
print(f"{'lead':>5} {'t':>6} {'expected events left':>20} {'P(r wins)':>10} "
      f"{'P(tie)':>7} {'P(b wins)':>10}")
for lead, t in ((0, 0), (1, 600), (2, 1800), (2, 3000), (-3, 1200), (5, 3300)):
    n = sd.expected_remaining_events(tempo.profile, t)
    f = sd.forecast(chain, lead, t, tempo.profile)
    print(f"{lead:>5} {t:>6} {n:>20.2f} {f.p_win_r:>10.3f} {f.p_tie:>7.3f} {f.p_win_b:>10.3f}")

print("\nout-of-sample winner prediction (20 random 3/4-1/4 splits):")
curve = sd.evaluate_predictability(games, config, n_splits=20, seed=19)
print(f"{'events seen':>12} {'chain':>8} {'leader-wins':>12} {'games':>7}")
for i in range(len(curve.event_index)):
    print(f"{curve.event_index[i]:>12} {curve.auc_chain[i]:>8.3f} "
          f"{curve.auc_leader[i]:>12.3f} {curve.n_games_scored[i]:>7}")

print(f"\nchain >= leader-wins at every index: "
      f"{bool(np.all(curve.auc_chain >= curve.auc_leader - 1e-12))}")

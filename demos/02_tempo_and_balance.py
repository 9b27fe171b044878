"""Fitting tempo and balance to a league with known ground truth.

Generates a 20-team league with log-normal latent skills (each event is
a Bradley-Terry-style contest between the two teams), then runs every
estimator and compares against the generating parameters: the event
rate, the balance-fraction distribution and its fair-play null, and the
lead-size scoring function phi(L) whose positive slope is the signature
of skill heterogeneity.

Run: python demos/02_tempo_and_balance.py
"""

import numpy as np

import scoredyn as sd

RATE = 0.002
spec = sd.default_league(
    n_teams=20, n_games=5_000, regulation_length=3600, rate=RATE,
    point_values=dict(sd.builtin_config("nfl").point_values),
    skill_sigma=1.0, seed=7,
)
games = sd.generate_league(spec)
config = sd.league_config(spec, lead_cap=100)

tempo = sd.fit_tempo(games, config)
print(f"events per second: fitted {tempo.lambda_hat:.6f}, true {RATE:.6f}")
print(f"events per game:   fitted {tempo.lambda_hat * 3600:.2f}, true {RATE * 3600:.2f}")
print(f"mean gap:          fitted {tempo.mean_gap:.0f}s, geometric 1/lambda = {1 / RATE:.0f}s")

c_hat = sd.balance_fractions(games)
fractions, probs = sd.balance_null_distribution(games)  # the exact fair-play law
null_sd = np.sqrt(probs @ (fractions - probs @ fractions) ** 2)
print(f"\nbalance fraction c_hat: sd {c_hat.std():.4f} observed vs "
      f"{null_sd:.4f} under fair play")
print("(a wider observed distribution is the signature of unequal skills)")

balance = sd.fit_balance(games, config)
fit = balance.scoring.fit
print(f"\nlead-scoring function phi(L) = Pr(r scores next | lead L):")
for L in (0, 3, 7, 14, 21):
    print(f"  phi({L:+3d}) = {balance.phi[100 + L]:.3f}   phi({-L:+3d}) = {balance.phi[100 - L]:.3f}")
print(f"linear fit: slope {fit.slope:+.5f} per point of lead "
      f"(stderr {fit.slope_stderr:.5f}), intercept {fit.intercept:.3f}")

pmf = sd.point_value_distribution(games)
print("\npoint values (fitted vs generating):")
for value in sorted(pmf):
    print(f"  {value}: {pmf[value]:.4f} vs {spec.point_values[value]:.4f}")

points_frac, events_frac = sd.points_fraction_distribution(games)
gap = np.abs(points_frac - events_frac)
print(f"\npoints-won vs events-won fraction: median |difference| {np.median(gap):.4f}")
print("(outcomes are determined by the number of events far more than their values)")

"""The 2x2 generative model grid and lead-size dispersion over the clock.

Fits tempo and balance to a reference corpus, then computes the exact
lead-size standard deviation curve of every combination of {bernoulli,
markov} tempo and {bernoulli, markov} balance in one pass
(`exact_lead_sd_grid`, no simulation) and compares it against the
reference corpus. The markov balance model (lead-conditioned event winners) is the one that tracks
the reference.

Writes demos_out/lead_variance_grid.csv with columns
t, sd_reference, sd_bb, sd_bm, sd_mb, sd_mm.

Run: python demos/03_model_grid.py
"""

from pathlib import Path

import numpy as np

import scoredyn as sd

# reference corpus: a restoring-force league (narrow late-game leads)
base = sd.LeagueSpec(
    skills=np.array([1.0, 1.0]),
    schedule=tuple((0, 1) for _ in range(4_000)),
    regulation_length=2880,
    tempo=0.032,
    point_values=dict(sd.builtin_config("nba").point_values),
    seed=3,
)
reference = sd.generate_restoring_league(base, -0.002)
config = sd.league_config(base, lead_cap=100)

tempo = sd.fit_tempo(reference, config)
balance = sd.fit_balance(reference, config)

times, curves = sd.exact_lead_sd_grid(tempo, balance, config, sample_every=120)
_, sd_ref = sd.lead_dispersion(reference, config.regulation_length, sample_every=120)

print("lead-size standard deviation by clock time")
print(f"{'t':>6} {'reference':>10} {'B/B':>8} {'B/M':>8} {'M/B':>8} {'M/M':>8}")
for i in range(0, len(times), 4):
    row = [curve[i] for curve in curves.values()]  # bb, bm, mb, mm
    print(f"{times[i]:>6} {sd_ref[i]:>10.2f} " + " ".join(f"{v:>8.2f}" for v in row))

err = {k: float(np.mean(np.abs(v - sd_ref))) for k, v in curves.items()}
best = min(err, key=err.get)
print("\nmean absolute error vs reference:")
for k, v in sorted(err.items(), key=lambda kv: kv[1]):
    print(f"  tempo={k[0]:9s} balance={k[1]:9s}  {v:.3f}")
print(f"best combination: tempo={best[0]}, balance={best[1]}")

outdir = Path(__file__).resolve().parent.parent / "demos_out"
outdir.mkdir(exist_ok=True)
rows = ["t,sd_reference,sd_bb,sd_bm,sd_mb,sd_mm"]
for i, t in enumerate(times):
    rows.append(
        f"{t},{sd_ref[i]!r},{curves[('bernoulli', 'bernoulli')][i]!r},"
        f"{curves[('bernoulli', 'markov')][i]!r},{curves[('markov', 'bernoulli')][i]!r},"
        f"{curves[('markov', 'markov')][i]!r}"
    )
(outdir / "lead_variance_grid.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
print(f"\nwrote {outdir / 'lead_variance_grid.csv'}")

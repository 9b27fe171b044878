"""Command-line pipeline: validate, fit, simulate, predict, eval, synth, report.

Every subcommand prints a one-line machine-parsable summary (key=value
tokens) on success and exits 0; data errors exit 1 with a diagnostic on
stderr; usage errors exit 2. All randomness flows from --seed, so runs
with identical flags produce byte-identical outputs.

Each subcommand imports only the modules it runs. This module imports
`core`, `estimate`, `ingest`, `predict` and `rng` when it loads;
`simulate` and `synth` are imported inside the handlers of `simulate`,
`report` and `synth`, so `validate`, `fit`, `eval` and `predict` never
load the simulator.

`run()` is the process entry (`scoredyn` and `python -m scoredyn.cli`):
it freezes the objects that the imports left tracked by the garbage
collector, then exits with `main()`'s code. `main(argv)` is the library
call and leaves the collector alone.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

import numpy as np

from .core import atomic_write_text, builtin_config, config_for_games, load_config
from .estimate import (
    balance_fractions,  # noqa: F401  (kept as a module attribute for tracing hooks)
    balance_null_distribution,
    correlation_function,
    events_per_game_distribution,
    fit_balance,
    fit_tempo,
    interarrival_distribution,
    load_model,
    save_model,
)
from .ingest import FORMATS, IngestError, parse_event_file, validate_corpus, write_event_file
from .predict import build_chain, evaluate_predictability, forecast
from .rng import check_seed


def __getattr__(name: str):
    # perfbench/trace_child.py wraps `cli.lead_variance_curve` by name, so it
    # resolves here without loading the simulator at import. It goes with the
    # function, in the benchmark change that drops that wrap from trace_child.py.
    if name == "lead_variance_curve":
        from .simulate import lead_variance_curve

        return lead_variance_curve
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _write_csv(path: Path, **columns) -> None:
    """Write equal-length columns as CSV, headed by their keyword names in order."""
    rows = zip(*(np.asarray(column).tolist() for column in columns.values()), strict=True)
    lines = [",".join(columns)] + [",".join(map(repr, row)) for row in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _load_corpus(args):
    """Parse `--in` and resolve its config from --config, --sport (never both) or the corpus tags.

    A --config sport id also resolves that tag while parsing, so corpora
    under a non-built-in tag (such as `synth` output) load. A game tagged
    with another sport than the resolved config's is rejected.
    """
    if args.config:
        config = load_config(args.config)
        games = parse_event_file(args.infile, args.format, configs={config.sport_id: config})
    else:
        games = parse_event_file(args.infile, args.format)
        config = builtin_config(args.sport) if args.sport else config_for_games(games)
    if set(games.sport_ids) - {config.sport_id}:
        g = next(g for g, sport in enumerate(games.sport_ids) if sport != config.sport_id)
        raise ValueError(
            f"game {games.game_ids[g]!r} is tagged {games.sport_ids[g]}, "
            f"but the chosen config is {config.sport_id}"
        )
    return games, config


def _cmd_validate(args) -> int:
    configs = None
    if args.config:
        config = load_config(args.config)
        configs = {config.sport_id: config}
    games = parse_event_file(args.infile, args.format, configs=configs)
    report = validate_corpus(games, configs)
    for sport, summary in report.per_sport.items():
        print(
            f"sport={sport} games={summary.n_games} events={summary.n_events} "
            f"events_per_game={summary.events_per_game:.4f}"
        )
    for failure in report.failures:
        print(f"failure: {failure}", file=sys.stderr)
    print(f"validate ok {report.summary_line()}")
    return 0


def _cmd_fit(args) -> int:
    games, config = _load_corpus(args)
    tempo = fit_tempo(games, config)
    balance = fit_balance(games, config, min_samples=args.min_samples)
    save_model(args.out, config, tempo, balance)
    slope = balance.scoring.fit.slope
    print(
        f"fit ok sport={config.sport_id} games={len(games)} "
        f"lambda_hat={tempo.lambda_hat:.6g} "
        f"phi_slope={'none' if slope is None else f'{slope:.6g}'} out={args.out}"
    )
    return 0


def _cmd_simulate(args) -> int:
    from .simulate import ModelSpec, simulate_batches

    check_seed(args.seed)
    artifact = load_model(args.model)
    spec = ModelSpec(
        tempo_kind=args.tempo,
        balance_kind=args.balance,
        tempo=artifact.tempo,
        balance=artifact.balance,
        config=artifact.config,
        seed=args.seed,
    )
    events = write_event_file(simulate_batches(spec, args.n_games), args.out, args.format)
    print(
        f"simulate ok tempo={args.tempo} balance={args.balance} games={args.n_games} "
        f"events={events} seed={args.seed} out={args.out}"
    )
    return 0


def _cmd_predict(args) -> int:
    artifact = load_model(args.model)
    chain = build_chain(artifact.balance.phi, artifact.balance.point_values)
    result = forecast(chain, args.lead, args.t, artifact.tempo.profile)
    print(
        f"predict ok lead={args.lead} t={args.t} "
        f"p_win_r={result.p_win_r:.6f} p_tie={result.p_tie:.6f} p_win_b={result.p_win_b:.6f}"
    )
    return 0


def _cmd_eval(args) -> int:
    games, config = _load_corpus(args)
    curve = evaluate_predictability(
        games,
        config,
        n_splits=args.splits,
        seed=args.seed,
        tie_mode=args.tie_mode,
    )
    _write_csv(Path(args.out), **vars(curve))
    print(
        f"eval ok games={len(games)} splits={args.splits} "
        f"auc_chain_final={curve.auc_chain[-1]:.4f} out={args.out}"
    )
    return 0


def _cmd_synth(args) -> int:
    from .synth import default_league, generate_league, generate_restoring_league, league_truth

    for name in ("slope",) if args.kind == "league" else ("n_teams", "skill_sigma"):
        if getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            print(f"error: {flag} does not apply to --kind {args.kind}", file=sys.stderr)
            return 2
    check_seed(args.seed)
    spec = default_league(
        n_teams=2 if args.kind == "restoring" else 20 if args.n_teams is None else args.n_teams,
        n_games=args.n_games,
        regulation_length=args.regulation,
        rate=args.rate,
        point_values=dict(builtin_config(args.points_sport).point_values),
        skill_sigma=1.0 if args.skill_sigma is None else args.skill_sigma,
        seed=args.seed,
    )
    if args.kind == "league":
        games = generate_league(spec)
    else:
        slope = -0.002 if args.slope is None else args.slope
        games = generate_restoring_league(spec, slope)
    write_event_file(games, args.out, args.format)
    if args.truth:
        truth = league_truth(spec)
        if args.kind == "restoring":
            truth["restoring_slope"] = slope
        atomic_write_text(args.truth, json.dumps(truth, sort_keys=True) + "\n")
    print(
        f"synth ok kind={args.kind} games={args.n_games} events={len(games.times)} "
        f"seed={args.seed} out={args.out}"
    )
    return 0


def _cmd_report(args) -> int:
    from .simulate import exact_lead_sd_grid, lead_dispersion

    # Every table is computed before --out-dir is created, so a rejected
    # option leaves no partial report behind.
    if args.balance_bins < 1:
        raise ValueError("--balance-bins must be >= 1")
    if args.correlation_lags < 1:
        raise ValueError("--correlation-lags must be >= 1")
    games, config = _load_corpus(args)
    tempo = fit_tempo(games, config)
    balance = fit_balance(games, config, min_samples=args.min_samples)

    counts = events_per_game_distribution(games, config)
    gaps = interarrival_distribution(games, config)
    corr = correlation_function(games, args.correlation_lags)

    fractions, probs = balance_null_distribution(games)
    bins = np.linspace(0.0, 1.0, args.balance_bins + 1)
    emp_hist, _ = np.histogram(balance.c_hat_samples, bins=bins, density=True)
    null_hist, _ = np.histogram(fractions, bins=bins, weights=probs, density=True)

    times, curves = exact_lead_sd_grid(tempo, balance, config, args.sample_every)
    grid_cols = {f"sd_{t[0]}{b[0]}": sd for (t, b), sd in curves.items()}
    _, sd_emp = lead_dispersion(games, config.regulation_length, args.sample_every)

    curve = evaluate_predictability(
        games, config, n_splits=args.splits, seed=args.seed, tie_mode=args.tie_mode
    )

    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_model(outdir / "model.json", config, tempo, balance)
    _write_csv(
        outdir / "events_per_game.csv",
        events=counts.counts,
        empirical_pmf=counts.empirical_pmf,
        poisson_pmf=counts.reference_pmf,
    )
    _write_csv(
        outdir / "interarrival.csv",
        gap_seconds=gaps.gaps,
        empirical_ccdf=gaps.empirical_ccdf,
        geometric_ccdf=gaps.reference_ccdf,
    )
    _write_csv(outdir / "gap_correlation.csv", lag=range(1, len(corr) + 1), correlation=corr)
    _write_csv(
        outdir / "tempo_profile.csv", t=range(len(tempo.profile)), event_probability=tempo.profile
    )
    mids = (bins[:-1] + bins[1:]) / 2
    _write_csv(
        outdir / "balance.csv", c_hat_bin=mids, empirical_density=emp_hist, null_density=null_hist
    )
    scoring = balance.scoring
    _write_csv(
        outdir / "lead_scoring.csv",
        lead=scoring.leads,
        phi=scoring.phi,
        n_observations=scoring.counts,
    )
    # columns sd_bb, sd_bm, sd_mb, sd_mm, in the grid's order
    _write_csv(outdir / "lead_variance.csv", t=times, sd_empirical=sd_emp, **grid_cols)
    _write_csv(outdir / "predictability.csv", **vars(curve))
    print(f"report ok games={len(games)} sport={config.sport_id} out_dir={outdir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoredyn",
        description="Scoring-dynamics pipeline: fit, simulate, and predict game outcomes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default=None)

    def add_io(p, needs_out=True):
        p.add_argument("--in", dest="infile", required=True, help="input event-log file")
        add_format(p)
        source = p.add_mutually_exclusive_group()  # --config resolves the sport itself
        source.add_argument("--sport", default=None, help="built-in sport id (cfb/nfl/nhl/nba)")
        source.add_argument("--config", default=None, help="path to a sport config JSON")
        if needs_out:
            p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="parse a corpus and report counts and failures")
    p.add_argument("--in", dest="infile", required=True)
    add_format(p)
    p.add_argument("--config", default=None, help="path to a sport config JSON")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fit", help="fit tempo and balance models to a corpus")
    add_io(p)
    p.add_argument("--min-samples", type=int, default=50)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("simulate", help="simulate a corpus from a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--tempo", choices=["bernoulli", "markov"], default="bernoulli")
    p.add_argument("--balance", choices=["bernoulli", "markov"], default="markov")
    p.add_argument("--n-games", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("predict", help="forecast win/tie/loss from a game state")
    p.add_argument("--model", required=True)
    p.add_argument("--lead", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="out-of-sample predictability curves")
    add_io(p)
    p.add_argument("--splits", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tie-mode", choices=["exclude", "half"], default="exclude")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a ground-truth synthetic corpus")
    p.add_argument("--kind", choices=["league", "restoring"], default="league")
    p.add_argument("--n-teams", type=int, default=None, help="league only (default 20)")
    p.add_argument("--n-games", type=int, default=1000)
    p.add_argument("--regulation", type=int, default=3600)
    p.add_argument("--rate", type=float, default=0.002)
    p.add_argument("--skill-sigma", type=float, default=None, help="league only (default 1.0)")
    p.add_argument("--slope", type=float, default=None, help="restoring only (default -0.002)")
    p.add_argument("--points-sport", default="nfl")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--truth", default=None, help="write ground-truth sidecar JSON here")
    add_format(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report", help="regenerate every fitted curve from a corpus")
    add_io(p, needs_out=False)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--splits", type=int, default=20)
    p.add_argument(
        "--sim-games",
        type=int,
        default=100_000,
        help="deprecated, no effect: the lead-variance curves are computed exactly",
    )
    p.add_argument("--sample-every", type=int, default=60)
    p.add_argument("--balance-bins", type=int, default=51)
    p.add_argument("--correlation-lags", type=int, default=50)
    p.add_argument("--min-samples", type=int, default=50)
    p.add_argument("--tie-mode", choices=["exclude", "half"], default="exclude")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (IngestError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Run `main` on the process's arguments and exit with its code.

    None of the ~22k objects that the imports leave tracked is garbage,
    yet every full collection, the ones at interpreter exit included,
    would traverse them; `gc.freeze()` moves them to the permanent
    generation, which collections skip.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()

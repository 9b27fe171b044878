"""Within-game scoring dynamics: tempo, balance, and outcome prediction.

The library fits simple stochastic models to scoring-event logs (a
Poisson tempo process and a Bernoulli balance process whose bias varies
with the lead), simulates games under every combination of those
models, and predicts game outcomes with an explicit Markov chain on the
lead size, evaluated out of sample against a leader-wins baseline.

`import scoredyn` loads the modules that parse, fit and forecast, the
exact lead laws among them (`exact_lead_sd_grid` in `predict`,
`lead_dispersion` in `estimate`). The simulator (`simulate`) and the
synthetic leagues (`synth`) load on the first use of one of their names,
so fitting, forecasting and the exact laws never pay for them.
"""

from .core import (
    BUILTIN_SPORTS,
    TEAM_B,
    TEAM_R,
    Corpus,
    GameLog,
    SportConfig,
    builtin_config,
    config_for_games,
    load_config,
    save_config,
)
from .estimate import (
    BalanceModel,
    EventCountDistribution,
    InterarrivalDistribution,
    LeadScoring,
    LinearFit,
    ModelArtifact,
    TempoModel,
    balance_fractions,
    balance_null_distribution,
    correlation_function,
    events_per_game_distribution,
    fit_balance,
    fit_poisson_rate,
    fit_tempo,
    gap_correlation,
    interarrival_distribution,
    lead_dispersion,
    lead_scoring_function,
    load_model,
    point_value_distribution,
    points_fraction_distribution,
    poisson_rate_from_counts,
    save_model,
    tempo_profile,
)
from .ingest import (
    CorpusReport,
    IngestError,
    parse_event_file,
    render_event_file,
    validate_corpus,
    write_event_file,
)
from .predict import (
    BalanceKind,
    LeadChain,
    OutcomeForecast,
    PredictabilityCurve,
    TempoKind,
    build_chain,
    evaluate_predictability,
    exact_lead_sd_grid,
    expected_remaining_events,
    forecast,
    forecast_after_events,
    leader_wins,
)
from .rng import substream

# Public names of the modules that load on first use (PEP 562), each
# mapped to its module; the two modules themselves are listed too.
_LAZY = dict.fromkeys(
    (
        "simulate", "ModelSpec", "exact_lead_sd", "ideal_corpus", "ideal_game", "ideal_model",
        "lead_variance_curve", "simulate_batches", "simulate_corpus", "simulate_game",
    ),
    "simulate",
) | dict.fromkeys(
    (
        "synth", "LeagueSpec", "default_league", "generate_league", "generate_restoring_league",
        "league_config", "league_truth",
    ),
    "synth",
)

__version__ = "0.1.0"

__all__ = sorted({name for name in globals() if not name.startswith("_")} | _LAZY.keys())


def __getattr__(name: str):
    """Import `simulate` or `synth` on the first use of it or of one of its names."""
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())

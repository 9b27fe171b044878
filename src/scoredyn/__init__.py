"""Within-game scoring dynamics: tempo, balance, and outcome prediction.

The library fits simple stochastic models to scoring-event logs (a
Poisson tempo process and a Bernoulli balance process whose bias varies
with the lead), simulates games under every combination of those
models, and predicts game outcomes with an explicit Markov chain on the
lead size, evaluated out of sample against a leader-wins baseline.
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
    LeadChain,
    OutcomeForecast,
    PredictabilityCurve,
    build_chain,
    evaluate_predictability,
    expected_remaining_events,
    forecast,
    forecast_after_events,
    leader_wins,
)
from .rng import substream
from .simulate import (
    BalanceKind,
    ModelSpec,
    TempoKind,
    exact_lead_sd,
    exact_lead_sd_grid,
    ideal_corpus,
    ideal_game,
    ideal_model,
    lead_dispersion,
    lead_variance_curve,
    simulate_batches,
    simulate_corpus,
    simulate_game,
)
from .synth import (
    LeagueSpec,
    default_league,
    generate_league,
    generate_restoring_league,
    league_config,
    league_truth,
)

__version__ = "0.1.0"

"""Each rule for reading a value has one home (most in `core`), and the
public functions read their arguments through it as the records read their
fields: no string is parsed, no bool counts as a number, an integer is
taken as it is, and a column has its field's number of dimensions.

The tables below list every reader of a rule and check that each refuses
the same bad value with the same message: a count (`core._count`), a
probability or a column of them (`core._probability`,
`core._probabilities`), "sums to 1" (`core._sums_to_one`), a clock length
(`core._seconds`), phi's shape, the lead cap and the chain step count."""

import json
from functools import cache

import numpy as np
import pytest

import scoredyn as sd
from scoredyn import rng
from scoredyn.cli import main
from scoredyn.core import _integer
from scoredyn.predict import _remaining_events, _steps, outcome_table

PROFILE = np.full(11, 0.25)


def fair_chain():
    return sd.build_chain(np.full(11, 0.5), {1: 1.0})


FLOAT_ENTRY_POINTS = {
    "phi": lambda values: sd.build_chain(values, {1: 1.0}),
    "profile": lambda values: sd.expected_remaining_events(values, 1),
    "gaps": lambda values: sd.gap_correlation(values, 2),
}


@pytest.mark.parametrize("name", sorted(FLOAT_ENTRY_POINTS))
@pytest.mark.parametrize(
    "values, refusal",
    [(["0.5", "0.5", "0.5"], "got values of dtype <U3"), ([True, 0.5, 0.5], "got a bool entry")],
    ids=["strings", "bool"],
)
def test_float_arrays_are_read_as_records_read_them(name, values, refusal):
    with pytest.raises(ValueError, match=f"^{name} must be numbers, {refusal}$"):
        FLOAT_ENTRY_POINTS[name](values)


class TestCorpusIds:
    COLUMNS = (np.array([0, 1]), np.array([3]), np.array([1], dtype=np.int8), np.array([2]))

    @pytest.mark.parametrize("build", [sd.Corpus, sd.Corpus._owning], ids=["copying", "owning"])
    @pytest.mark.parametrize(
        "game_ids, sport_ids, message",
        [([5], ["NFL"], "game_ids must be strings, got int"),
         (["g"], [None], "sport_ids must be strings, got NoneType")],
        ids=["game_id", "sport_id"],
    )
    def test_ids_are_strings(self, build, game_ids, sport_ids, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(game_ids, sport_ids, *self.COLUMNS)


class TestIntegers:
    @pytest.mark.parametrize("value", [2**53 + 1, np.int64(2**62 + 1), 2**64 + 1],
                             ids=["2**53+1", "int64", "2**64+1"])
    def test_an_integer_is_taken_as_it_is(self, value):
        assert _integer(value) == int(value) and type(_integer(value)) is int

    def test_a_clock_past_2_53_seconds(self):
        big = 2**53 + 1
        config = sd.SportConfig("custom", big, (big,), {1: 1.0}, 10)
        assert config.regulation_length == big and config.period_ends == (big,)

    @pytest.mark.parametrize("value", [True, 2.5, "3"])
    def test_non_integers_are_still_refused(self, value):
        with pytest.raises((TypeError, ValueError)):
            _integer(value)


class TestBoolsAreNotIntegers:
    INDEX_READS = {
        "state_index": lambda v: fair_chain().state_index(v),
        "expected_remaining_events": lambda v: sd.expected_remaining_events(PROFILE, v),
        "forecast": lambda v: sd.forecast(fair_chain(), v, 0, PROFILE),
        "check_seed": rng.check_seed,
        "split_permutation": lambda v: rng.split_permutation(0, v, 4),
    }

    @pytest.mark.parametrize("name", sorted(INDEX_READS))
    def test_index_reads_refuse_a_bool_as_a_float(self, name):
        message = "^'float' object cannot be interpreted as an integer$"
        with pytest.raises(TypeError, match=message):
            self.INDEX_READS[name](1.0)
        for value in (True, np.True_):
            with pytest.raises(TypeError, match=r"^'(bool|numpy\.bool)' object cannot be "):
                self.INDEX_READS[name](value)

    def test_event_count_is_a_number(self):
        for value, kind in (("1", "str"), (True, "bool")):
            with pytest.raises(TypeError, match=f"^expected a number, got {kind}$"):
                sd.forecast_after_events(fair_chain(), 1, value)

    def test_specs_refuse_a_bool_seed(self):
        config = sd.builtin_config("nhl")
        with pytest.raises(ValueError, match="^model spec: field 'seed': 'bool' object"):
            sd.ideal_model(config, 0.01, seed=True)
        with pytest.raises(ValueError, match="^league spec: field 'seed': 'bool' object"):
            sd.default_league(n_games=2, seed=True)

    @pytest.mark.parametrize("key", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_point_values_refuse_a_bool(self, key):
        message = f"point value {key!r} is not a positive integer$"
        with pytest.raises(ValueError, match="^sport config: field 'point_values': " + message):
            sd.SportConfig("custom", 100, (100,), {key: 1.0}, 10)
        with pytest.raises(ValueError, match="^lead chain: field 'point_values': " + message):
            sd.build_chain(np.full(3, 0.5), {key: 1.0})

    @pytest.mark.parametrize("name", ["slope", "intercept", "slope_stderr"])
    def test_linear_fit_refuses_a_bool(self, name):
        fields = dict(slope=None, intercept=None, slope_stderr=None, n_states=0) | {name: True}
        message = f"^linear fit: field '{name}': expected a number, got bool$"
        with pytest.raises(ValueError, match=message):
            sd.LinearFit(**fields)


class TestColumns:
    @pytest.mark.parametrize("bool_", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_a_bool_entry_is_refused(self, bool_):
        with pytest.raises(ValueError, match="^teams must be integers, got a bool entry$"):
            sd.GameLog("g", "NFL", [1, 2], [1, bool_], [3, 3])
        with pytest.raises(ValueError, match="^gaps must be numbers, got a bool entry$"):
            sd.gap_correlation([bool_, 3, 2, 5], 2)

    def test_a_ragged_list_is_refused(self):
        message = "^profile must be 1-dimensional, got a ragged list$"
        with pytest.raises(ValueError, match=message):
            sd.TempoModel(0.01, 2, [0.0, 0.1, [0.2]], [1], [1.0])

    def test_a_nested_game_log_is_refused(self):
        with pytest.raises(ValueError, match=r"^times must be 1-dimensional, got shape \(1, 2\)$"):
            sd.GameLog("g", "NFL", [[1, 2]], [[1, 1]], [[3, 3]])

    def test_a_profile_column_of_one_column_is_refused(self):
        message = r"^profile must be 1-dimensional, got shape \(601, 1\)$"
        with pytest.raises(ValueError, match=message):
            sd.TempoModel(0.01, 600, np.full((601, 1), 0.01), [1], [1.0])

    def test_a_chains_phi_has_one_dimension(self):
        message = r"^phi must be 1-dimensional, got shape \(1, 3\)$"
        with pytest.raises(ValueError, match=message):
            sd.LeadChain(np.full((1, 3), 0.5), {1: 1.0})


@pytest.mark.parametrize("fmt", ["xml", "CSV"])
def test_render_and_write_share_the_format_check(tmp_path, fmt):
    games = sd.Corpus.of([sd.GameLog("g", "NFL", [1], [1], [3])])
    message = f"^unknown format {fmt!r}, expected 'csv' or 'jsonl'$"
    with pytest.raises(sd.IngestError, match=message):
        sd.render_event_file(games, fmt)
    with pytest.raises(sd.IngestError, match=message):
        sd.write_event_file(games, tmp_path / "games.csv", fmt)


# ---------------------------------------------------------------------------
# The model's rules, each read in one place: every reader of a rule refuses
# the same bad value with the same message (a record's prefixed by its field).
# ---------------------------------------------------------------------------

NO_FIT = sd.LinearFit(slope=None, intercept=None, slope_stderr=None, n_states=0)


def tempo(**changes):
    fields = dict(lambda_hat=0.25, regulation_length=2, profile=[0.0, 0.5, 0.5],
                  interarrival_gaps=[1, 2], interarrival_probs=[0.5, 0.5])
    return sd.TempoModel(**{**fields, **changes})


def balance(**changes):
    scoring = sd.LeadScoring(phi=np.full(3, 0.5), counts=np.zeros(3, np.int64), fit=NO_FIT)
    fields = dict(c_hat_samples=[0.5], scoring=scoring, point_values={1: 1.0})
    return sd.BalanceModel(**{**fields, **changes})


NOT_NUMBERS = {"bool": True, "str": "x"}


def column(name, read):
    """A column reader of the probability rule: `read` takes the column [0.5, bad, 0.5].
    A column names itself, and a non-number entry, by kind."""
    got = {"bool": "a bool entry", "str": "values of dtype <U32"}
    return (f"{name} must be finite probabilities", lambda bad: read([0.5, bad, 0.5]),
            {kind: f"{name} must be numbers, got {got[kind]}" for kind in NOT_NUMBERS})


def one(name, read, field=""):
    """A reader of one probability, prefixed by its record's `field` if it has one; a
    non-number is named as well."""
    return (f"{field}{name} must be a finite probability", read,
            {kind: f"{field}{name}: expected a number, got {kind}" for kind in NOT_NUMBERS})


POINT_VALUES = "sport config: field 'point_values': "
CHAIN_POINT_VALUES = "lead chain: field 'point_values': "
FORECAST = ("p_win_r", "p_tie", "p_win_b")

PROBABILITY_READERS = {
    "TempoModel.profile": column("profile", lambda v: tempo(profile=v)),
    "TempoModel.interarrival_probs": column("interarrival_probs",
                                            lambda v: tempo(interarrival_probs=v)),
    "BalanceModel.c_hat_samples": column("c_hat_samples", lambda v: balance(c_hat_samples=v)),
    "LeadScoring.phi": column("phi", lambda v: sd.LeadScoring(v, np.zeros(3, np.int64), NO_FIT)),
    "build_chain": column("phi", lambda v: sd.build_chain(v, {1: 1.0})),
    "LeadChain.phi": column("phi", lambda v: sd.LeadChain(v, {1: 1.0})),
    "forecast": column("profile", lambda v: sd.forecast(fair_chain(), 1, 1, v)),
    "expected_remaining_events": column("profile", lambda v: sd.expected_remaining_events(v, 1)),
    "SportConfig.point_values": one(
        "point value 2", lambda v: sd.SportConfig("custom", 10, (10,), {1: 0.5, 2: v}, 5),
        POINT_VALUES),
    "build_chain.point_values": one(
        "point value 2", lambda v: sd.build_chain(np.full(5, 0.5), {1: 0.5, 2: v}),
        CHAIN_POINT_VALUES),
    "LeadChain.point_values": one(
        "point value 2", lambda v: sd.LeadChain(np.full(5, 0.5), {1: 0.5, 2: v}),
        CHAIN_POINT_VALUES),
    "LeagueSpec.tempo": one(
        "tempo", lambda v: sd.LeagueSpec([1.0, 2.0], ((0, 1),), 10, v, {1: 1.0}, 0),
        "league spec: field 'tempo': "),
    "ideal_model": one("rate", lambda v: sd.ideal_model(sd.builtin_config("nhl"), v)),
    "ideal_corpus": one("rate", lambda v: sd.ideal_corpus(sd.builtin_config("nhl"), v, 1)),
    **{f"OutcomeForecast.{name}": one(
        name, lambda v, name=name: sd.OutcomeForecast(**dict.fromkeys(FORECAST, 0.0) | {name: v}),
        f"outcome forecast: field {name!r}: ")
       for name in FORECAST},
}


@pytest.mark.parametrize("reader", sorted(PROBABILITY_READERS))
@pytest.mark.parametrize("bad", [2.0, 1.5, -0.5, np.nan, np.inf])
def test_a_probability_is_read_in_one_place(reader, bad):
    head, read, _ = PROBABILITY_READERS[reader]
    with pytest.raises(ValueError) as info:
        read(bad)
    assert str(info.value) == f"{head} in [0, 1], got {bad}"


@pytest.mark.parametrize("reader", sorted(PROBABILITY_READERS))
@pytest.mark.parametrize("kind", sorted(NOT_NUMBERS))
def test_a_probability_that_is_not_a_number_is_named(reader, kind):
    _, read, named = PROBABILITY_READERS[reader]
    with pytest.raises(ValueError) as info:
        read(NOT_NUMBERS[kind])
    assert str(info.value) == named[kind]


@pytest.mark.parametrize(
    "read",
    [lambda p: sd.forecast(fair_chain(), 1, 1, p), lambda p: sd.expected_remaining_events(p, 1)],
    ids=["forecast", "expected_remaining_events"],
)
def test_a_profile_is_read_before_the_clock_second(read):
    with pytest.raises(ValueError, match=r"^profile must be 1-dimensional, got shape \(\)$"):
        read(0.5)


SUM_READERS = {
    "SportConfig.point_values": (f"{POINT_VALUES}point value probabilities",
                                 lambda: sd.SportConfig("custom", 10, (10,), {1: 0.5, 2: 0.25}, 5)),
    "build_chain": (f"{CHAIN_POINT_VALUES}point value probabilities",
                    lambda: sd.build_chain(np.full(5, 0.5), {1: 0.5, 2: 0.25})),
    "LeadChain": (f"{CHAIN_POINT_VALUES}point value probabilities",
                  lambda: sd.LeadChain(np.full(5, 0.5), {1: 0.5, 2: 0.25})),
    "TempoModel.interarrival_probs": ("interarrival probabilities",
                                      lambda: tempo(interarrival_probs=[0.5, 0.25])),
    "OutcomeForecast": ("forecast probabilities", lambda: sd.OutcomeForecast(0.5, 0.25, 0.0)),
    "default_league.point_values": ("point_values: point value probabilities",
                                    lambda: sd.default_league(n_games=2,
                                                              point_values={1: 0.5, 2: 0.25})),
}


@pytest.mark.parametrize("reader", sorted(SUM_READERS))
def test_a_pmf_sums_to_one_in_one_place(reader):
    head, read = SUM_READERS[reader]
    with pytest.raises(ValueError) as info:
        read()
    assert str(info.value) == f"{head} sum to 0.75, expected 1"


CLOCK_READERS = {
    "SportConfig": ("sport config: field 'regulation_length': ",
                    lambda T: sd.SportConfig("custom", T, (10,), {1: 1.0}, 5)),
    "LeagueSpec": ("league spec: field 'regulation_length': ",
                   lambda T: sd.LeagueSpec([1.0, 2.0], ((0, 1),), T, 0.01, {1: 1.0}, 0)),
    "TempoModel": ("tempo model: field 'regulation_length': ",
                   lambda T: sd.TempoModel(0.1, T, [], [], [])),
    "poisson_rate_from_counts": ("", lambda T: sd.poisson_rate_from_counts(10, 2, T)),
    "flat_profile": ("", lambda T: sd.simulate.flat_profile(T, 0.1)),
    "lead_dispersion": ("", lambda T: sd.lead_dispersion(games(), T, 1)),
}


@pytest.mark.parametrize("reader", sorted(CLOCK_READERS))
@pytest.mark.parametrize("T", [0, -1, -3600.0])
def test_a_clock_length_is_read_in_one_place(reader, T):
    prefix, read = CLOCK_READERS[reader]
    with pytest.raises(ValueError) as info:
        read(T)
    rule = f"regulation_length must be a positive number of seconds, got {int(T)}"
    assert str(info.value) == prefix + rule


@pytest.mark.parametrize("T, message", [(600.5, "expected an integer, got 600.5"),
                                        (True, "expected a number, got bool")])
def test_the_lead_dispersion_clock_is_a_whole_number_of_seconds(T, message):
    with pytest.raises(ValueError, match=f"^regulation_length: {message}$"):
        sd.lead_dispersion(games(), T, 60)


NAMED_READERS = {  # a public function's reader: (the argument it names, call)
    **{name: ("regulation_length", read) for name, (prefix, read) in CLOCK_READERS.items()
       if not prefix},
    "ideal_model": ("rate", lambda v: sd.ideal_model(CONFIG, v)),
    "ideal_game": ("rate", lambda v: sd.ideal_game(CONFIG, v)),
    "ideal_corpus": ("rate", lambda v: sd.ideal_corpus(CONFIG, v, 1)),
    "default_league": ("skill_sigma", lambda v: sd.default_league(n_games=2, skill_sigma=v)),
    "default_league.rate": ("rate", lambda v: sd.default_league(n_games=2, rate=v)),
    "default_league.point_values": ("point_values: point value 1",
                                    lambda v: sd.default_league(n_games=2, point_values={1: v})),
    "generate_restoring_league": ("restoring_slope",
                                  lambda v: sd.generate_restoring_league(league(), v)),
}


@pytest.mark.parametrize("reader", sorted(NAMED_READERS))
@pytest.mark.parametrize("value, kind", [(True, "bool"), ("1", "str"), (None, "NoneType")])
def test_a_public_function_names_the_argument_that_is_not_a_number(reader, value, kind):
    name, read = NAMED_READERS[reader]
    with pytest.raises(ValueError, match=f"^{name}: expected a number, got {kind}$"):
        read(value)


@pytest.mark.parametrize("seed", [-5, 2**64, 2.5])
def test_a_league_seed_is_read_before_it_draws_the_skills(seed):
    with pytest.raises(ValueError, match="^league spec: field 'seed': "):
        sd.default_league(n_games=2, seed=seed)


@pytest.mark.parametrize("seed, refusal", [(-5, r"seed must be in \[0, 2\*\*64\), got -5"),
                                           (True, "'bool' object cannot be interpreted"),
                                           ("x", "'str' object cannot be interpreted")])
@pytest.mark.parametrize("read", [lambda rate, seed: sd.ideal_corpus(CONFIG, rate, 3, seed=seed),
                                  lambda rate, seed: sd.ideal_corpus(CONFIG, rate, 0, seed=seed),
                                  lambda rate, seed: sd.ideal_game(CONFIG, rate, seed=seed)],
                         ids=["ideal_corpus", "ideal_corpus-no-games", "ideal_game"])
@pytest.mark.parametrize("rate", [0.0, 0.05])
def test_an_ideal_seed_is_read_at_every_rate(read, rate, seed, refusal):
    with pytest.raises(ValueError, match=f"^model spec: field 'seed': {refusal}"):
        read(rate, seed)


CONFIG = sd.SportConfig("custom", 600, (600,), {1: 0.5, 2: 0.5}, 6)


@cache
def games():
    return sd.ideal_corpus(CONFIG, 0.05, 12, seed=1)


@cache
def spec():
    return sd.ideal_model(CONFIG, 0.05, seed=1)


@cache
def league():
    return sd.default_league(n_games=2, regulation_length=60)


COUNT_READERS = {  # reader: (argument, least, call)
    "lead_dispersion": ("sample_every", 1, lambda v: sd.lead_dispersion(games(), 600, v)),
    "exact_lead_sd": ("sample_every", 1, lambda v: sd.exact_lead_sd(spec(), v)),
    "exact_lead_sd_grid": ("sample_every", 1, lambda v: sd.exact_lead_sd_grid(
        sd.fit_tempo(games(), CONFIG), sd.fit_balance(games(), CONFIG, 1), CONFIG, v)),
    "gap_correlation": ("n_max", 1, lambda v: sd.gap_correlation([1, 2, 4, 3], v)),
    "correlation_function": ("n_max", 1, lambda v: sd.correlation_function(games(), v)),
    "lead_scoring_function.cap": ("cap", 1, lambda v: sd.lead_scoring_function(games(), v)),
    "lead_scoring_function.min_samples": (
        "min_samples", 1, lambda v: sd.lead_scoring_function(games(), 6, v)),
    "fit_balance": ("min_samples", 1, lambda v: sd.fit_balance(games(), CONFIG, v)),
    "poisson_rate_from_counts.n_games": (
        "n_games", 1, lambda v: sd.poisson_rate_from_counts(10, v, 600)),
    "poisson_rate_from_counts.n_events": (
        "n_events", 0, lambda v: sd.poisson_rate_from_counts(v, 10, 600)),
    "evaluate_predictability": (
        "n_splits", 1, lambda v: sd.evaluate_predictability(games(), CONFIG, n_splits=v)),
    "outcome_table": ("max_steps", 0, lambda v: outcome_table(fair_chain(), v)),
    "simulate_batches": ("n_games", 0, lambda v: sd.simulate_batches(spec(), v)),
    "simulate_corpus": ("n_games", 0, lambda v: sd.simulate_corpus(spec(), v)),
    "lead_variance_curve": ("n_games", 1000, lambda v: sd.lead_variance_curve(spec(), v)),
    "ideal_corpus": ("n_games", 0, lambda v: sd.ideal_corpus(CONFIG, 0.0, v)),
    "default_league": ("n_teams", 2, lambda v: sd.default_league(n_teams=v, n_games=2)),
    "default_league.n_games": ("n_games", 1, lambda v: sd.default_league(n_games=v)),
}


@pytest.mark.parametrize("reader", sorted(COUNT_READERS))
@pytest.mark.parametrize("kind", ["bool", "fraction", "below"])
def test_a_count_is_read_in_one_place(reader, kind):
    name, least, read = COUNT_READERS[reader]
    value, message = {
        "bool": (True, f"{name}: expected a number, got bool"),
        "fraction": (least + 0.5, f"{name}: expected an integer, got {least + 0.5}"),
        "below": (least - 1, f"{name} must be >= {least}, got {least - 1}"),
    }[kind]
    with pytest.raises(ValueError) as info:
        read(value)
    assert str(info.value) == message


def test_an_event_count_is_a_number():
    with pytest.raises(ValueError, match="^n_events: cannot convert float NaN to integer$"):
        sd.poisson_rate_from_counts(np.nan, 10, 600)


def test_a_whole_float_count_is_read_as_its_integer():
    two, two_float = (sd.evaluate_predictability(games(), CONFIG, n_splits=n) for n in (2, 2.0))
    assert all(np.array_equal(a, b) for a, b in zip(vars(two).values(), vars(two_float).values()))


@pytest.mark.parametrize("flag", ["--balance-bins", "--correlation-lags"])
def test_report_reads_its_counts_before_the_corpus(tmp_path, capsys, flag):
    argv = ["report", "--in", str(tmp_path / "missing.csv"), "--out-dir", str(tmp_path), flag, "0"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {flag} must be >= 1, got 0\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_events, shown", [(1e300, "1e+300"), (2.0**63, "9.223372036854776e+18"),
                                             (np.inf, "inf"), (np.nan, "nan"), (-0.25, "-0.25")])
def test_an_event_count_whose_steps_int64_cannot_hold_is_refused_by_name(n_events, shown):
    message = f"n_events must be finite, nonnegative and below 2**63, got {shown}"
    for read in (lambda: _steps(np.array([1.0, n_events])),
                 lambda: sd.forecast_after_events(fair_chain(), 0, n_events)):
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_gap_is_finite(bad):
    with pytest.raises(ValueError) as info:
        sd.gap_correlation([1, bad, 3, 4], 2)
    assert str(info.value) == f"gaps must be finite, got {bad}"


PHI_SHAPE_READERS = {
    "LeadScoring": lambda phi: sd.LeadScoring(phi, np.zeros(len(phi), np.int64), NO_FIT),
    "build_chain": lambda phi: sd.build_chain(phi, {1: 1.0}),
    "LeadChain": lambda phi: sd.LeadChain(phi, {1: 1.0}),
}


@pytest.mark.parametrize("reader", sorted(PHI_SHAPE_READERS))
@pytest.mark.parametrize(
    "phi",
    [[], [0.5, 0.5], [0.4, 0.5, 0.4], [0.4, 0.6, 0.6], [0.25, 0.5, 0.75 + 2.0**-52]],
    ids=["empty", "even", "not antisymmetric", "phi(0) not 1/2", "off by 2**-52"],
)
def test_the_shape_of_phi_is_read_in_one_place(reader, phi):
    message = "phi must be antisymmetric about L = 0 on the leads -cap..cap"
    with pytest.raises(ValueError) as info:
        PHI_SHAPE_READERS[reader](np.array(phi, dtype=float))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "reader",
    [lambda: sd.SportConfig("custom", 10, (10,), {1: 0.5, 3: 0.5}, 2),
     lambda: sd.build_chain(np.full(5, 0.5), {1: 0.5, 3: 0.5}),
     lambda: sd.LeadChain(np.full(5, 0.5), {1: 0.5, 3: 0.5})],
    ids=["SportConfig", "build_chain", "LeadChain"],
)
def test_the_cap_covers_one_event_in_one_place(reader):
    with pytest.raises(ValueError) as info:
        reader()
    assert str(info.value) == "lead cap 2 (lead_truncation) is below the maximum point value 3"


@pytest.mark.parametrize("k", range(5))
def test_forecast_and_eval_round_a_half_event_count_alike(k):
    """A profile whose remaining events at t = 0 are k + 1/2: eval's table reads
    the step count that `forecast_after_events` takes, k or k + 1 (the even one)."""
    upper = np.linspace(0.5, 0.8, 4)
    chain = sd.build_chain(np.concatenate([1.0 - upper[:0:-1], upper]), {1: 1.0})
    profile = np.array([0.5] + [1.0] * k)
    eval_steps = int(_steps(_remaining_events(profile))[0])
    assert eval_steps == k + k % 2
    win = outcome_table(chain, 5)
    for lead in range(-3, 4):
        f = sd.forecast_after_events(chain, lead, k + 0.5)
        assert f.p_win_r == win[eval_steps, lead + 3] and f.p_win_b == win[eval_steps, 3 - lead]
        assert sd.forecast(chain, lead, 0, profile) == f


def test_simulate_and_predict_refuse_one_model_alike(tmp_path, capsys):
    config = sd.SportConfig("custom", 600, (600,), {1: 0.5, 2: 0.5}, 6)
    games = sd.ideal_corpus(config, 0.02, n_games=200, seed=4)
    path = tmp_path / "model.json"
    sd.save_model(path, config, sd.fit_tempo(games, config), sd.fit_balance(games, config, 10))
    data = json.loads(path.read_text())
    phi = data["balance"]["phi"]
    phi[6 + 2], phi[6 - 2] = 1.5, -0.5  # still antisymmetric: 1.5 + -0.5 = 1
    path.write_text(json.dumps(data))
    out = tmp_path / "sim.csv"
    errors = []
    for argv in (["simulate", "--model", str(path), "--out", str(out)],
                 ["predict", "--model", str(path), "--lead", "0", "--t", "0"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1] == (
        "error: model artifact: field 'balance.phi': "
        "phi must be finite probabilities in [0, 1], got -0.5\n"
    )
    assert not out.exists()

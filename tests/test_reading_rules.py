"""Each rule for reading a value has one home (most in `core`), and the
public functions read their arguments through it as the records read their
fields: no string is parsed, no bool counts as a number, an integer is
taken as it is, and a column has its field's number of dimensions."""

import json

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
        with pytest.raises(ValueError, match="^" + message):
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

    def test_a_transition_matrix_has_two_dimensions(self):
        message = r"^transition must be 2-dimensional, got shape \(1, 3, 3\)$"
        with pytest.raises(ValueError, match=message):
            sd.LeadChain(np.eye(3)[None])


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


PROBABILITY_READERS = {
    "TempoModel.profile": ("profile", lambda v: tempo(profile=v)),
    "TempoModel.interarrival_probs": ("interarrival_probs", lambda v: tempo(interarrival_probs=v)),
    "BalanceModel.c_hat_samples": ("c_hat_samples", lambda v: balance(c_hat_samples=v)),
    "LeadScoring.phi": ("phi", lambda v: sd.LeadScoring(v, np.zeros(3, np.int64), NO_FIT)),
    "build_chain": ("phi", lambda v: sd.build_chain(v, {1: 1.0})),
    "forecast": ("profile", lambda v: sd.forecast(fair_chain(), 1, 1, v)),
    "expected_remaining_events": ("profile", lambda v: sd.expected_remaining_events(v, 1)),
}


@pytest.mark.parametrize("reader", sorted(PROBABILITY_READERS))
@pytest.mark.parametrize("bad", [2.0, 1.5, -0.5, np.nan, np.inf])
def test_a_column_of_probabilities_is_read_in_one_place(reader, bad):
    name, read = PROBABILITY_READERS[reader]
    with pytest.raises(ValueError) as info:
        read([0.5, bad, 0.5])
    assert str(info.value) == f"{name} must be finite probabilities in [0, 1], got {bad}"


@pytest.mark.parametrize("reader", ["forecast", "expected_remaining_events"])
def test_a_profile_is_read_before_the_clock_second(reader):
    with pytest.raises(ValueError, match=r"^profile must be 1-dimensional, got shape \(\)$"):
        PROBABILITY_READERS[reader][1](0.5)


CLOCK_READERS = {
    "SportConfig": ("sport config: field 'regulation_length': ",
                    lambda T: sd.SportConfig("custom", T, (10,), {1: 1.0}, 5)),
    "LeagueSpec": ("league spec: field 'regulation_length': ",
                   lambda T: sd.LeagueSpec([1.0, 2.0], ((0, 1),), T, 0.01, {1: 1.0}, 0)),
    "TempoModel": ("tempo model: field 'regulation_length': ",
                   lambda T: sd.TempoModel(0.1, T, [], [], [])),
    "poisson_rate_from_counts": ("", lambda T: sd.poisson_rate_from_counts(10, 2, T)),
    "flat_profile": ("", lambda T: sd.simulate.flat_profile(T, 0.1)),
}


@pytest.mark.parametrize("reader", sorted(CLOCK_READERS))
@pytest.mark.parametrize("T", [0, -1, -3600.0])
def test_a_clock_length_is_read_in_one_place(reader, T):
    prefix, read = CLOCK_READERS[reader]
    with pytest.raises(ValueError) as info:
        read(T)
    rule = f"regulation_length must be a positive number of seconds, got {int(T)}"
    assert str(info.value) == prefix + rule


PHI_SHAPE_READERS = {
    "LeadScoring": lambda phi: sd.LeadScoring(phi, np.zeros(len(phi), np.int64), NO_FIT),
    "build_chain": lambda phi: sd.build_chain(phi, {1: 1.0}),
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
     lambda: sd.build_chain(np.full(5, 0.5), {1: 0.5, 3: 0.5})],
    ids=["SportConfig", "build_chain"],
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

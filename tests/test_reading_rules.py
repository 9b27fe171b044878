"""Each rule for reading a value has one home in `core`, and the public
functions read their arguments through it as the records read their
fields: no string is parsed, no bool counts as a number, an integer is
taken as it is, and a column has its field's number of dimensions."""

import numpy as np
import pytest

import scoredyn as sd
from scoredyn import rng
from scoredyn.core import _integer

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

"""The one record kind: every record converts, freezes and checks its fields
through `core._Record`, when it is built and again through `dataclasses.replace`,
and takes its constructor, repr, equality and frozen assignment from it."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import scoredyn as sd
from scoredyn.core import _column, _Record
from scoredyn.estimate import LeadScoring, LinearFit, ModelArtifact, TempoModel
from scoredyn.predict import LeadChain, OutcomeForecast

MODULES = [
    importlib.import_module(f"scoredyn.{info.name}") for info in pkgutil.iter_modules(sd.__path__)
]
CLASSES = [
    obj
    for module in MODULES
    for obj in vars(module).values()
    if isinstance(obj, type) and obj.__module__ == module.__name__
]
CFG = sd.SportConfig("custom", 120, (60, 120), {1: 0.5, 2: 0.5}, 6)


def public_records() -> list:
    """One instance of every public record, fitted to a small ideal corpus."""
    games = sd.ideal_corpus(CFG, 0.05, n_games=60, seed=3)
    tempo = sd.fit_tempo(games, CFG)
    balance = sd.fit_balance(games, CFG, min_samples=5)
    chain = sd.build_chain(balance.phi, balance.point_values)
    report = sd.validate_corpus(games)
    return [
        CFG, games[0], tempo, balance.scoring.fit, balance.scoring, balance,
        sd.events_per_game_distribution(games, CFG), sd.interarrival_distribution(games, CFG),
        ModelArtifact(CFG, tempo, balance), chain, sd.forecast(chain, 1, 60, tempo.profile),
        sd.evaluate_predictability(games, CFG, n_splits=2, seed=0),
        sd.ModelSpec("markov", "markov", tempo, balance, CFG, seed=1),
        sd.default_league(n_games=5), report, report.per_sport["custom"],
    ]


RECORDS = public_records()
RECORD_CLASSES = [cls for cls in CLASSES if issubclass(cls, _Record) and cls is not _Record]
# every record, the simulator's private law included
EVERY_RECORD = RECORDS + [next(r for r in RECORDS if isinstance(r, sd.ModelSpec))._law]


def test_every_public_record_is_covered():
    records = {cls for cls in CLASSES if issubclass(cls, _Record)}
    assert {type(record) for record in RECORDS} == {c for c in records if c.__name__[0] != "_"}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_array_fields_are_read_only_after_construction_and_replace(record):
    for copy in (record, dataclasses.replace(record)):
        for field in dataclasses.fields(copy):
            value = getattr(copy, field.name)
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, field.name


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_replace_reruns_the_converters(record):
    converters = type(record)._converters
    assert converters
    for name, convert, _ in converters:
        # a column refuses in its own words; any other field under the record's name
        own_words = getattr(convert, "func", None) is _column
        message = f"^{name} must be" if own_words else f"^[a-z ]+: field {name!r}: "
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(record, **{name: object()})


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_every_field_declares_a_converter(record):
    declared = [name for name, _, _ in type(record)._converters]
    assert declared == [field.name for field in dataclasses.fields(record)]


@pytest.mark.parametrize(
    "record, name, kind",
    [(ModelArtifact, "config", "SportConfig"), (sd.BalanceModel, "scoring", "LeadScoring"),
     (LeadScoring, "fit", "LinearFit"), (sd.ModelSpec, "tempo", "TempoModel")],
)
def test_a_nested_record_field_refuses_none(record, name, kind):
    built = next(r for r in RECORDS if type(r) is record)
    message = f"^[a-z ]+: field {name!r}: expected a {kind}, got NoneType$"
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(built, **{name: None})


def test_a_corpus_report_is_read_only():
    report = next(r for r in RECORDS if isinstance(r, sd.CorpusReport))
    with pytest.raises(TypeError):
        report.per_sport["X"] = 1
    with pytest.raises(ValueError, match="^corpus report: field 'failures': expected a string"):
        dataclasses.replace(report, failures=[1])


def test_replace_reruns_the_cross_field_checks():
    artifact = next(r for r in RECORDS if isinstance(r, ModelArtifact))
    longer = sd.SportConfig("custom", 240, (240,), {1: 0.5, 2: 0.5}, 6)
    with pytest.raises(ValueError, match="disagree on regulation length"):
        dataclasses.replace(artifact, config=longer)


def tempo(**changes):
    fields = dict(lambda_hat=0.01, regulation_length=600, profile=np.full(601, 0.01),
                  interarrival_gaps=[1, 2], interarrival_probs=[0.5, 0.5])
    return TempoModel(**{**fields, **changes})


NO_FIT = LinearFit(slope=None, intercept=None, slope_stderr=None, n_states=0)


class TestNothingTruncatedOrParsed:
    @pytest.mark.parametrize("gaps, dtype", [([1.5, 2.7], "float64"), (["3"], "<U1")])
    def test_non_integer_gaps_refused(self, gaps, dtype):
        probs = [1 / len(gaps)] * len(gaps)
        message = f"^interarrival_gaps must be integers, got values of dtype {dtype}$"
        with pytest.raises(ValueError, match=message):
            tempo(interarrival_gaps=gaps, interarrival_probs=probs)

    @pytest.mark.parametrize("gaps", [[1, 2**63], (1, 2**64)])
    def test_integer_gaps_past_int64_refused_as_out_of_range(self, gaps):
        with pytest.raises(ValueError, match="^interarrival_gaps must fit in int64$"):
            tempo(interarrival_gaps=gaps)

    def test_integral_regulation_length_is_an_int(self):
        model = tempo(regulation_length=600.0)
        assert model.regulation_length == 600 and type(model.regulation_length) is int

    def test_fractional_regulation_length_refused(self):
        message = r"^tempo model: field 'regulation_length': expected an integer, got 600\.5$"
        with pytest.raises(ValueError, match=message):
            tempo(regulation_length=600.5)

    @pytest.mark.parametrize("build, name", [
        (lambda v: tempo(profile=v * 301), "profile"),
        (lambda v: LeadScoring(phi=v[:1] * 3, counts=[0, 0, 0], fit=NO_FIT), "phi"),
        (lambda v: LeadChain([v[:1]]), "transition"),
        (lambda v: sd.LeagueSpec(v, ((0, 1),), 100, 0.01, {1: 1.0}, 0), "skills"),
    ])
    @pytest.mark.parametrize("values, dtype", [(["0.5", "0.5"], "<U3"), ([True, True], "bool")])
    def test_float_columns_refuse_strings_and_bools(self, build, name, values, dtype):
        message = f"^{name} must be numbers, got values of dtype {dtype}$"
        with pytest.raises(ValueError, match=message):
            build(values)

    def test_balance_fractions_refuse_strings(self):
        scoring = LeadScoring(phi=[0.5, 0.5, 0.5], counts=[0, 0, 0], fit=NO_FIT)
        with pytest.raises(ValueError, match="^c_hat_samples must be numbers, got values of dtype"):
            sd.BalanceModel(c_hat_samples=["0.5", True], scoring=scoring, point_values={1: 1.0})

    def test_fractional_state_count_refused(self):
        with pytest.raises(ValueError, match="^linear fit: field 'n_states': expected an integer"):
            LinearFit(slope=None, intercept=None, slope_stderr=None, n_states=2.5)

    def test_bool_probabilities_refused(self):
        message = "field '{}': expected a number, got bool$"
        with pytest.raises(ValueError, match="^outcome forecast: " + message.format("p_win_r")):
            OutcomeForecast(True, False, False)
        with pytest.raises(ValueError, match="^sport config: " + message.format("point_values")):
            sd.SportConfig("custom", 100, (100,), {1: True}, 10)


class TestSeedsAndStrings:
    @pytest.mark.parametrize("seed", [2.5, "7", -1, 2**64])
    def test_specs_refuse_seeds_outside_the_philox_keys(self, seed):
        spec = next(r for r in RECORDS if isinstance(r, sd.ModelSpec))
        with pytest.raises(ValueError, match="^model spec: field 'seed': "):
            dataclasses.replace(spec, seed=seed)
        league = next(r for r in RECORDS if isinstance(r, sd.LeagueSpec))
        with pytest.raises(ValueError, match="^league spec: field 'seed': "):
            dataclasses.replace(league, seed=seed)

    @pytest.mark.parametrize(
        "game_id, sport_id, name", [(5, "NFL", "game_id"), ("g", None, "sport_id")]
    )
    def test_game_ids_and_sport_ids_are_strings(self, game_id, sport_id, name):
        with pytest.raises(ValueError, match=f"^game log: field {name!r}: expected a string, got "):
            sd.GameLog(game_id, sport_id, [1], [1], [3])

    def test_sport_config_id_is_a_string(self):
        message = "^sport config: field 'sport_id': expected a string, got int$"
        with pytest.raises(ValueError, match=message):
            sd.SportConfig(5, 100, (100,), {1: 1.0}, 10)


class TestOneRecordKind:
    def test_every_dataclass_is_a_record(self):
        for cls in CLASSES:
            if dataclasses.is_dataclass(cls):
                assert issubclass(cls, _Record), cls

    def test_only_the_base_defines_post_init(self):
        assert [cls for cls in CLASSES if "__post_init__" in vars(cls)] == [_Record]

    def test_only_core_imports_dataclasses(self):
        importers = []
        for module in MODULES:
            for node in ast.walk(ast.parse(inspect.getsource(module))):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module]
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if "dataclasses" in names:
                    importers.append(module.__name__)
        assert importers == ["scoredyn.core"]


class TestOneLayout:
    """A saved record's JSON layout is its fields, each at its `_paths` entry or its name."""

    @pytest.mark.parametrize(
        "cls", [cls for cls in CLASSES if vars(cls).get("_paths")], ids=lambda cls: cls.__name__
    )
    def test_every_path_names_a_converted_field(self, cls):
        # a misspelt key would save its field under the field's own name, silently
        assert set(cls._paths) <= {name for name, _, _ in cls._converters}

    @pytest.mark.parametrize("sport", sd.BUILTIN_SPORTS)
    def test_a_sport_config_reads_back_its_own_dump(self, sport):
        config = sd.builtin_config(sport)
        assert sd.SportConfig._from_json(config._dump()) == config


class TestSharedMethods:
    """`dataclass` only registers a record's fields: the methods it used to
    generate for each class are `_Record`'s, and behave as those did."""

    def test_no_record_carries_a_generated_method(self):
        assert len(RECORD_CLASSES) == 17
        for cls in RECORD_CLASSES:
            for name in ("__init__", "__repr__", "__eq__", "__setattr__", "__delattr__"):
                method = getattr(cls, name)
                # a generated method is compiled from a string, not read from the class's file
                own = name in vars(cls) and method.__code__.co_filename == inspect.getfile(cls)
                assert method is getattr(_Record, name) or own, (cls.__name__, name)

    def test_every_record_class_has_an_instance_here(self):
        assert {type(record) for record in EVERY_RECORD} == set(RECORD_CLASSES)

    @pytest.mark.parametrize("record", EVERY_RECORD, ids=lambda r: type(r).__name__)
    def test_fields_and_replace_keep_every_value(self, record):
        copy = dataclasses.replace(record)
        assert type(copy) is type(record) and copy is not record
        names = [field.name for field in dataclasses.fields(record)]
        assert names == list(type(record)._names)
        for name in names:
            np.testing.assert_equal(getattr(copy, name), getattr(record, name))

    @pytest.mark.parametrize("record", EVERY_RECORD, ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_assigned_or_deleted(self, record):
        for name in (next(iter(type(record)._names)), "anything"):
            with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field {name!r}$"):
                setattr(record, name, None)
            with pytest.raises(FrozenInstanceError, match=f"^cannot delete field {name!r}$"):
                delattr(record, name)

    @pytest.mark.parametrize("record", EVERY_RECORD, ids=lambda r: type(r).__name__)
    def test_repr_eq_and_hash_are_what_dataclass_generates(self, record):
        cls = type(record)
        own_eq = {"__eq__": vars(cls)["__eq__"]} if "__eq__" in vars(cls) else {}
        twin_cls = dataclasses.make_dataclass(
            cls.__qualname__, cls._names, frozen=True, eq=cls._eq, namespace=own_eq
        )
        twin = twin_cls(*(getattr(record, name) for name in cls._names))
        assert repr(record) == repr(twin)
        assert record == record
        if not own_eq:  # an own __eq__ (GameLog's) takes only its own class
            assert (dataclasses.replace(record) == record) is (dataclasses.replace(twin) == twin)
        try:
            twin_hash = hash(twin)
        except TypeError:  # a mapping field, or an own __eq__ without a __hash__
            with pytest.raises(TypeError):
                hash(record)
        else:  # by fields, or by identity
            assert hash(record) == (twin_hash if cls._eq else object.__hash__(record))

    @pytest.mark.parametrize(
        "args, kwargs",
        [((None, None, None), {}), ((None, None, None, 0, 1), {}),
         ((None, None), {"n_states": 0}), ((None, None, None, 0), {"slope": None}),
         ((), {"slope": None, "intercept": None, "slope_stderr": None, "states": 0})],
        ids=["missing", "too many", "missing with a keyword", "twice", "unknown keyword"],
    )
    def test_wrong_arguments_are_refused(self, args, kwargs):
        with pytest.raises(TypeError, match="^LinearFit"):
            LinearFit(*args, **kwargs)

    def test_keywords_in_any_order_and_defaults(self):
        fit = LinearFit(n_states=0, slope_stderr=None, intercept=0.5, slope=None)
        assert fit == LinearFit(None, 0.5, None, 0)
        law = next(r for r in EVERY_RECORD if type(r).__name__ == "_Law")
        bare = type(law)(law.seed, law.tempo, law.points)
        assert (bare.c_samples, bare.c_fixed, bare.phi) == (None, None, None)


class TestParallelColumns:
    @pytest.mark.parametrize("build, got", [
        (lambda: sd.PredictabilityCurve([1, 2], [0.5], [0.5, 0.5], [3, 3]),
         "predictability curve: columns must share one length, got event_index 2, auc_chain 1, "
         "auc_leader 2, n_games_scored 2"),
        (lambda: sd.EventCountDistribution([0, 1], [0.5], [0.5, 0.5], 1.0),
         "event count distribution: columns must share one length, got counts 2, "
         "empirical_pmf 1, reference_pmf 2"),
        (lambda: sd.InterarrivalDistribution([1, 2], [0.5, 0.5], [0.5, 0.0], [1.0], [0.0], 1.0),
         "interarrival distribution: columns must share one length, got gaps 2, empirical_pmf 2, "
         "empirical_ccdf 2, reference_pmf 1, reference_ccdf 1"),
    ], ids=["PredictabilityCurve", "EventCountDistribution", "InterarrivalDistribution"])
    def test_columns_of_unequal_length_are_refused(self, build, got):
        with pytest.raises(ValueError, match=f"^{got}$"):
            build()

"""Malformed model and config artifacts fail with a ValueError that names the field.

A hypothesis fuzzer deletes keys from a valid artifact and replaces values
anywhere in it (the top level included) with random JSON values. The only
allowed outcomes are a valid object or a ValueError.
"""

import copy
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

import scoredyn as sd
from scoredyn.cli import main
from scoredyn.core import config_from_dict, config_to_dict
from scoredyn.estimate import ModelArtifact, model_from_dict, model_to_dict


def valid_model_dict():
    cfg = sd.SportConfig("custom", 120, (60, 120), {1: 0.5, 2: 0.5}, 6)
    games = sd.ideal_corpus(cfg, 0.05, n_games=60, seed=3)
    data = model_to_dict(cfg, sd.fit_tempo(games, cfg), sd.fit_balance(games, cfg, min_samples=5))
    return json.loads(json.dumps(data))


MODEL = valid_model_dict()
CONFIG = json.loads(json.dumps(config_to_dict(sd.builtin_config("nba"))))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**62, 2**80) | st.floats()
    | st.text(max_size=4) | st.sampled_from(["7", "1.5", "custom", "NBA", "1.0"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


def paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from paths(value, prefix + (index,))


@st.composite
def mutated(draw, base):
    data = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(data))))
        if not path:
            data = draw(JSON_VALUES)
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return data


@given(mutated(MODEL))
@settings(max_examples=200, deadline=None)
def test_model_from_dict_gives_a_model_or_a_value_error(data):
    try:
        artifact = model_from_dict(data)
    except ValueError:
        return
    assert isinstance(artifact, ModelArtifact)


@given(mutated(CONFIG))
@settings(max_examples=150, deadline=None)
def test_config_from_dict_gives_a_config_or_a_value_error(data):
    try:
        config = config_from_dict(data)
    except ValueError:
        return
    assert isinstance(config, sd.SportConfig)


def test_valid_artifacts_round_trip():
    assert model_to_dict(**vars(model_from_dict(MODEL))) == MODEL
    assert config_to_dict(config_from_dict(CONFIG)) == CONFIG


def without(data, *path):
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    return data


def replaced(data, value, *path):
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return data


@pytest.mark.parametrize(
    "data, message",
    [
        (without(MODEL, "tempo"), r"field 'tempo\.lambda_hat': missing key 'tempo'"),
        (replaced(MODEL, None, "balance", "phi_fit", "n_states"),
         r"field 'balance\.phi_fit\.n_states': expected a number"),
        (replaced(MODEL, [1, 2], "sport", "point_values"),
         r"sport config: field 'point_values': expected an object, got list"),
        ([MODEL], r"model artifact: expected a JSON object, got list"),
        (replaced(MODEL, 2**70, "tempo", "interarrival", "gaps", 0),
         r"field 'tempo\.interarrival\.gaps'"),
        (replaced(MODEL, 3.5, "tempo", "regulation_length_seconds"),
         r"field 'tempo\.regulation_length_seconds': expected an integer"),
        (replaced(MODEL, "0.5", "tempo", "profile", 3), r"field 'tempo\.profile'"),
        (replaced(MODEL, [float(g) for g in MODEL["tempo"]["interarrival"]["gaps"]],
                  "tempo", "interarrival", "gaps"),
         r"^model artifact: field 'tempo\.interarrival\.gaps': interarrival_gaps must be "
         r"integers, got values of dtype float64$"),
        (replaced(MODEL, [float(n) for n in MODEL["balance"]["phi_counts"]],
                  "balance", "phi_counts"),
         r"^model artifact: field 'balance\.phi_counts': phi transition counts must be "
         r"nonnegative integers$"),
        (replaced(MODEL, [], "balance", "phi"),
         r"^lead scoring: columns must share one length, got phi 0, counts \d+$"),
        (replaced(MODEL, MODEL["balance"]["phi_counts"][:-1], "balance", "phi_counts"),
         r"^lead scoring: columns must share one length, got phi \d+, counts \d+$"),
    ],
)
def test_malformed_model_names_the_field(data, message):
    with pytest.raises(ValueError, match=message):
        model_from_dict(data)


@pytest.mark.parametrize(
    "path, entry, message",
    [
        (("tempo", "profile"), True, "profile must be numbers, got a bool entry"),
        (("tempo", "profile"), "0.5", "profile must be numbers, got values of dtype <U32"),
        (("tempo", "profile"), None, "profile must be numbers, got values of dtype object"),
        (("tempo", "profile"), [0.5], "profile must be 1-dimensional, got a ragged list"),
        (("tempo", "profile"), 10**400, "profile must be numbers, got values of dtype object"),
        (("tempo", "interarrival", "gaps"), 2**64, "interarrival_gaps must fit in int64"),
        (("tempo", "interarrival", "gaps"), 2**63, "interarrival_gaps must fit in int64"),
        (("tempo", "interarrival", "gaps"), 2.5,
         "interarrival_gaps must be integers, got values of dtype float64"),
        (("tempo", "interarrival", "gaps"), False,
         "interarrival_gaps must be integers, got a bool entry"),
    ],
)
def test_one_bad_entry_in_a_long_list_names_the_field(path, entry, message):
    """A list of exact ints and floats loads at once; one entry of any other
    type, or out of range, fails as it would entry by entry."""
    data = copy.deepcopy(MODEL)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    values = (parent[path[-1]] * 3000)[:3000]  # ints for gaps, floats for the profile
    values[2000] = entry
    parent[path[-1]] = values
    field = ".".join(path)
    with pytest.raises(ValueError) as info:
        model_from_dict(data)
    assert str(info.value) == f"model artifact: field {field!r}: {message}"


@pytest.mark.parametrize(
    "data, message",
    [
        (without(CONFIG, "lead_truncation"), r"field 'lead_truncation': missing key"),
        (replaced(CONFIG, "2880", "regulation_length_seconds"),
         r"field 'regulation_length_seconds': expected a number, got str"),
        (replaced(CONFIG, [720, None], "period_ends"), r"field 'period_ends'"),
        (replaced(CONFIG, {"2": "x"}, "point_values"), r"field 'point_values'"),
        ("NBA", r"sport config: expected a JSON object, got str"),
        *[(replaced(CONFIG, {key: 1.0}, "point_values"),
           f"^sport config: field 'point_values': point value {re.escape(repr(key))} is not a "
           "positive integer$")
          for key in ["1_0", " 2", "+2", "02", "\u0662", "2.0"]],
    ],
)
def test_malformed_config_names_the_field(data, message):
    with pytest.raises(ValueError, match=message):
        config_from_dict(data)


@pytest.mark.parametrize(
    "data",
    [without(MODEL, "tempo"), replaced(MODEL, None, "balance", "phi_fit", "n_states"),
     replaced(MODEL, [1, 2], "sport", "point_values"), [1, 2]],
)
def test_predict_exits_1_on_a_malformed_model(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["predict", "--model", str(path), "--lead", "1", "--t", "30"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_deeply_nested_artifacts_are_value_errors(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(ValueError, match="model artifact: JSON nested too deeply"):
        sd.load_model(path)
    with pytest.raises(ValueError, match="sport config: JSON nested too deeply"):
        sd.load_config(path)

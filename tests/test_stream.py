"""`scoredyn simulate` writes one batch at a time: the same bytes as the whole
corpus rendered at once, nothing at --out until every batch is written,
and memory that does not grow with the number of games. `lead_variance_curve`
sums the same batches one at a time."""

import hashlib
import os
import tracemalloc
import weakref

import numpy as np
import pytest

import scoredyn as sd
from scoredyn import simulate
from scoredyn.cli import main

CELLS = [(t, b) for t in ("bernoulli", "markov") for b in ("bernoulli", "markov")]


@pytest.fixture(scope="module")
def nba_model(tmp_path_factory):
    """A model fitted to a 60-game NBA-like league (about 126 events a game)."""
    config = sd.builtin_config("nba")
    league = sd.default_league(
        n_teams=32, n_games=60, regulation_length=config.regulation_length, rate=0.0437,
        point_values=config.point_values, seed=32,
    )
    games = sd.generate_league(league)
    path = tmp_path_factory.mktemp("model") / "nba.json"
    sd.save_model(path, config, sd.fit_tempo(games, config),
                  sd.fit_balance(games, config, min_samples=20))
    return path


def cli_spec(model_path, tempo_kind, balance_kind, seed):
    """The spec `scoredyn simulate` builds from a model file."""
    artifact = sd.load_model(model_path)
    return sd.ModelSpec(tempo_kind, balance_kind, artifact.tempo, artifact.balance,
                        artifact.config, seed)


def simulate_cli(capsys, model, out, tempo_kind, balance_kind, n_games, seed=1):
    code = main(["simulate", "--model", str(model), "--tempo", tempo_kind,
                 "--balance", balance_kind, "--n-games", str(n_games), "--seed", str(seed),
                 "--out", str(out)])
    return code, capsys.readouterr()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("tempo_kind, balance_kind", CELLS)
def test_streamed_output_is_the_whole_render(nba_model, tmp_path, capsys, fmt, tempo_kind,
                                             balance_kind):
    spec = cli_spec(nba_model, tempo_kind, balance_kind, seed=1)
    out = tmp_path / f"sim.{fmt}"
    for n_games in (0, 1, 1023, 1024, 1025, 3000):
        code, printed = simulate_cli(capsys, nba_model, out, tempo_kind, balance_kind, n_games)
        assert code == 0, printed.err
        games = sd.simulate_corpus(spec, n_games)
        assert out.read_text(encoding="utf-8") == sd.render_event_file(games, fmt), n_games
        assert f" games={n_games} events={len(games.times)} " in printed.out
    assert n_games > 2 * simulate._CHUNK_GAMES  # the last run wrote three batches or more


# sha256 of `scoredyn simulate --n-games 1100 --seed 1` from `nba_model`, in
# every cell and format, taken before the writer kept one tail table per
# file and the batch loop one re-key state per batch.
PINNED_SIMULATE = {
    ("bernoulli", "bernoulli", "csv"): "50ff8c15a092fa1d7f45cefcced94db58f9d39e3ab1d7f348911821ac03c598b",
    ("bernoulli", "bernoulli", "jsonl"): "f6a46cd3ff1b8a0065dfb741f7884fdc95a34b8410d81a5e987396565e595b8c",
    ("bernoulli", "markov", "csv"): "c7d73fcf128bd20d8325e6bfdbb47b40d74d530c79357f7f998751a2702357e9",
    ("bernoulli", "markov", "jsonl"): "baa9f305f7e53bc15a1fc332752fb10510bdc3f18179cc60bbe936d5e41ca62b",
    ("markov", "bernoulli", "csv"): "d0c7c4ab0710b7744d091805f1b627f5a0ac6160f3e8e84c9d8153c800e199ab",
    ("markov", "bernoulli", "jsonl"): "4e8b807b4c41e9cab0a98abe1f6f495cb8ef7d2df3fea4bc641f7babf43dafca",
    ("markov", "markov", "csv"): "1e67247f5fa168e0eed9f5dcd707738889949326b7a38d15ccc9468c768abc16",
    ("markov", "markov", "jsonl"): "dc33fceacb7a8338089e69877adf14f539d447e211acb9d240094f67bcadb636",
}


@pytest.mark.parametrize("tempo_kind, balance_kind, fmt", sorted(PINNED_SIMULATE))
def test_simulate_outputs_are_pinned(nba_model, tmp_path, capsys, tempo_kind, balance_kind, fmt):
    out = tmp_path / f"sim.{fmt}"
    code, printed = simulate_cli(capsys, nba_model, out, tempo_kind, balance_kind, 1100)
    assert code == 0, printed.err
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINNED_SIMULATE[tempo_kind, balance_kind, fmt]


@pytest.mark.parametrize("games_per_batch", [7, 333])
def test_simulate_outputs_do_not_depend_on_the_batch_size(nba_model, tmp_path, capsys,
                                                          monkeypatch, games_per_batch):
    """The pinned bytes again, with batch edges at many more games than the
    1,024-game split: every cell and format, from batches of 7 and of 333."""
    monkeypatch.setattr(simulate, "_CHUNK_GAMES", games_per_batch)
    for tempo_kind, balance_kind, fmt in sorted(PINNED_SIMULATE):
        out = tmp_path / f"sim.{fmt}"
        code, printed = simulate_cli(capsys, nba_model, out, tempo_kind, balance_kind, 1100)
        assert code == 0, printed.err
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == PINNED_SIMULATE[tempo_kind, balance_kind, fmt], (tempo_kind, balance_kind, fmt)


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_empty_output(tmp_path, fmt):
    """No games, or games without events: the CSV header alone, and a JSONL
    file of one empty line, as the whole render writes them."""
    spec = sd.ideal_model(sd.SportConfig("custom", 600, (600,), {1: 1.0}, 15), 0.01)
    silent = sd.ModelSpec("bernoulli", "bernoulli", sd.TempoModel(
        0.01, 600, np.zeros(601), np.array([], np.int64), np.array([])), spec.balance,
        spec.config, 0)
    expected = "sport,game_id,team,t,points\n" if fmt == "csv" else "\n"
    for batches in (sd.simulate_batches(spec, 0), sd.simulate_batches(silent, 1500)):
        path = tmp_path / f"empty.{fmt}"
        assert sd.write_event_file(batches, path) == 0
        assert path.read_text(encoding="utf-8") == expected
    assert sd.render_event_file(sd.simulate_corpus(silent, 1500), fmt) == expected


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_eventless_games_at_a_batch_boundary(tmp_path, fmt):
    """Sparse games (0.6 expected events): the games on both sides of the
    first batch boundary have no events, and the file is the whole render."""
    spec = sd.ideal_model(sd.SportConfig("custom", 600, (600,), {1: 1.0}, 15), 0.001, seed=2)
    batches = list(sd.simulate_batches(spec, 2100))
    assert [len(b) for b in batches] == [1024, 1024, 52]
    games = sd.simulate_corpus(spec, 2100)
    assert games.event_counts[1023] == games.event_counts[1024] == 0
    path = tmp_path / f"sparse.{fmt}"
    assert sd.write_event_file(iter(batches), path) == len(games.times)
    assert path.read_text(encoding="utf-8") == sd.render_event_file(games, fmt)


def test_write_event_file_slices_a_whole_corpus(tmp_path, monkeypatch):
    """A corpus or a list of games is rendered one slice at a time too."""
    spec = sd.ideal_model(sd.builtin_config("nhl"), 0.003, seed=4)
    games = sd.simulate_corpus(spec, 2500)
    sizes = []
    records = sd.ingest._records

    def spy(corpus, tails):
        sizes.append(len(corpus))
        return records(corpus, tails)

    monkeypatch.setattr(sd.ingest, "_records", spy)
    for value in (games, list(games)):
        path = tmp_path / "games.csv"
        assert sd.write_event_file(value, path) == len(games.times)
        assert path.read_text(encoding="utf-8") == sd.render_event_file(games)
    assert sizes == [1024, 1024, 452, 2500] * 2  # each write, then each whole render


def tmp_files(directory):
    return sorted(name for name in os.listdir(directory) if name.startswith(".tmp-"))


@pytest.mark.parametrize("old", [None, b"an older file\n"])
def test_failure_in_a_later_batch_leaves_nothing_behind(nba_model, tmp_path, capsys,
                                                        monkeypatch, old):
    out = tmp_path / "sim.csv"
    if old is not None:
        out.write_bytes(old)
    calls, partial = [], []
    batch_games = simulate._batch_games

    def failing(*args):
        calls.append(args[1])
        if len(calls) == 2:  # the first batch is in the temp file by now
            partial.extend((tmp_path / name).stat().st_size for name in tmp_files(tmp_path))
            raise ValueError("no second batch")
        return batch_games(*args)

    monkeypatch.setattr(simulate, "_batch_games", failing)
    code, printed = simulate_cli(capsys, nba_model, out, "markov", "markov", 3000)
    assert code == 1 and "simulate ok" not in printed.out
    assert "error: no second batch" in printed.err
    assert calls == [range(0, 1024), range(1024, 2048)]
    assert len(partial) == 1 and partial[0] > 0
    assert tmp_files(tmp_path) == []
    if old is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == old


def test_atomic_writer_keeps_the_old_file_on_failure(tmp_path):
    path = tmp_path / "out.txt"
    sd.core.atomic_write_text(path, "old\n")
    with pytest.raises(KeyboardInterrupt):
        with sd.core.atomic_writer(path) as fh:
            fh.write("new\n")
            raise KeyboardInterrupt
    assert path.read_text() == "old\n" and tmp_files(tmp_path) == []
    with sd.core.atomic_writer(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n" and tmp_files(tmp_path) == []


def test_memory_does_not_grow_with_the_game_count(nba_model, tmp_path, capsys):
    """numpy reports its buffers to tracemalloc, so the peaks are deterministic:
    a whole 4,096-game corpus and its text took about 3.4 times the memory
    of 1,024 games."""
    def peak(n_games):
        tracemalloc.start()
        try:
            code, printed = simulate_cli(capsys, nba_model, tmp_path / "sim.csv", "markov",
                                         "markov", n_games)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, printed.err
        return peak

    small, large = peak(1024), peak(4096)
    assert large <= 1.5 * small, (small / 2**20, large / 2**20)


def test_each_batch_is_freed_once_it_is_written(nba_model, tmp_path):
    """The writer holds one batch at a time, the first one included: by the
    time a batch arrives, every batch before it is gone."""
    spec = cli_spec(nba_model, "markov", "markov", seed=1)
    written = []

    def batches():
        for batch in sd.simulate_batches(spec, 3000):
            assert [ref() for ref in written] == [None] * len(written)
            written.append(weakref.ref(batch))
            yield batch

    sd.write_event_file(batches(), tmp_path / "sim.csv")
    assert len(written) == 3


def test_lead_variance_curve_memory_does_not_grow_with_the_game_count(nba_model):
    """The curve sums each batch as it is drawn; building the whole corpus
    first took 18.6 MiB at 4,096 games against 9.2 MiB at 1,024 (now
    11.4 MiB)."""
    spec = cli_spec(nba_model, "markov", "markov", seed=3)

    def peak(n_games):
        tracemalloc.start()
        try:
            sd.lead_variance_curve(spec, n_games=n_games)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1024), peak(4096)
    assert large <= 1.5 * small, (small / 2**20, large / 2**20)

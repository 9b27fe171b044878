"""CLI behavior: exit codes, artifacts, summary lines, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import scoredyn as sd
from scoredyn.cli import main


@pytest.fixture()
def corpus(tmp_path):
    """NHL-tagged corpus written through the canonical CSV writer."""
    games = sd.ideal_corpus(sd.builtin_config("nhl"), 0.003, 400, seed=50)
    path = tmp_path / "games.csv"
    sd.write_event_file(games, path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestValidate:
    def test_reports_counts(self, corpus, capsys):
        code, out, _ = run(capsys, "validate", "--in", str(corpus))
        assert code == 0
        assert "validate ok" in out
        assert "games=400" in out

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code, _, err = run(capsys, "validate", "--in", str(tmp_path / "nope.csv"))
        assert code == 1
        assert "error:" in err

    def test_unknown_flag_exits_2(self, corpus, capsys):
        code, _, _ = run(capsys, "validate", "--in", str(corpus), "--bogus")
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_synth_output_validates_with_config(self, tmp_path, capsys):
        corpus = tmp_path / "restoring.csv"
        code, _, _ = run(capsys, "synth", "--kind", "restoring", "--n-games", "30",
                         "--regulation", "1200", "--rate", "0.005", "--seed", "3",
                         "--out", str(corpus))
        assert code == 0
        code, _, err = run(capsys, "validate", "--in", str(corpus))
        assert code == 1 and "unknown sport tag 'custom'" in err
        config = tmp_path / "custom.json"
        sd.save_config(sd.SportConfig(
            "custom", 1200, (1200,), dict(sd.builtin_config("nfl").point_values), 100), config)
        code, out, err = run(capsys, "validate", "--in", str(corpus), "--config", str(config))
        assert code == 0, err
        assert "sport=custom games=30" in out and "failures=0" in out

    def test_mixed_sports_validate_with_and_without_config(self, tmp_path, capsys):
        nhl = sd.ideal_corpus(sd.builtin_config("nhl"), 0.003, 20, seed=1)
        nba = sd.ideal_corpus(sd.builtin_config("nba"), 0.03, 10, seed=2)
        nba = [sd.GameLog(f"b{i}", g.sport_id, g.times, g.teams, g.points)
               for i, g in enumerate(nba)]
        corpus = tmp_path / "mixed.csv"
        sd.write_event_file(list(nhl) + nba, corpus)
        config = tmp_path / "custom.json"
        sd.save_config(sd.SportConfig("custom", 600, (600,), {1: 1.0}, 20), config)
        for extra in ([], ["--config", str(config)]):
            code, out, err = run(capsys, "validate", "--in", str(corpus), *extra)
            assert code == 0, err
            assert "sport=NHL games=20" in out and "sport=NBA games=10" in out


class TestFitPredictSimulate:
    def test_fit_writes_versioned_model(self, corpus, tmp_path, capsys):
        model = tmp_path / "model.json"
        code, out, _ = run(capsys, "fit", "--in", str(corpus), "--sport", "nhl",
                           "--out", str(model), "--min-samples", "10")
        assert code == 0
        assert "fit ok" in out and "lambda_hat=" in out
        data = json.loads(model.read_text())
        assert data["schema_version"] == "1.0"
        assert data["tempo"]["lambda_hat"] > 0

    def test_predict_probabilities_sum_to_one(self, corpus, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(capsys, "fit", "--in", str(corpus), "--sport", "nhl",
            "--out", str(model), "--min-samples", "10")
        code, out, _ = run(capsys, "predict", "--model", str(model), "--lead", "2", "--t", "1800")
        assert code == 0
        fields = dict(tok.split("=") for tok in out.split() if "=" in tok)
        total = float(fields["p_win_r"]) + float(fields["p_tie"]) + float(fields["p_win_b"])
        assert total == pytest.approx(1.0, abs=1e-5)
        assert float(fields["p_win_r"]) > float(fields["p_win_b"])

    def test_simulate_writes_parseable_corpus(self, corpus, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(capsys, "fit", "--in", str(corpus), "--sport", "nhl",
            "--out", str(model), "--min-samples", "10")
        out_path = tmp_path / "sim.csv"
        code, out, _ = run(capsys, "simulate", "--model", str(model), "--tempo", "markov",
                           "--balance", "markov", "--n-games", "25", "--seed", "3",
                           "--out", str(out_path))
        assert code == 0
        games = sd.parse_event_file(out_path)
        assert len(games) == 25

    def test_simulate_deterministic_for_fixed_seed(self, corpus, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(capsys, "fit", "--in", str(corpus), "--sport", "nhl",
            "--out", str(model), "--min-samples", "10")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "simulate", "--model", str(model), "--n-games", "20", "--seed", "9",
            "--out", str(a))
        run(capsys, "simulate", "--model", str(model), "--n-games", "20", "--seed", "9",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_rejects_negative_game_count(self, corpus, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(capsys, "fit", "--in", str(corpus), "--sport", "nhl",
            "--out", str(model), "--min-samples", "10")
        out_path = tmp_path / "sim.csv"
        code, out, err = run(capsys, "simulate", "--model", str(model), "--n-games", "-5",
                             "--out", str(out_path))
        assert code == 1 and "simulate ok" not in out
        assert "error: n_games must be nonnegative, got -5" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("model, mismatch", [
        ("tempo", "regulation length"), ("balance", "lead truncation"),
    ])
    @pytest.mark.parametrize("command", [
        ["predict", "--lead", "2", "--t", "900"],
        ["simulate", "--n-games", "5", "--out", "sim.csv"],
    ])
    def test_inconsistent_model_rejected(self, corpus, tmp_path, capsys, monkeypatch,
                                         model, mismatch, command):
        path = tmp_path / "model.json"
        run(capsys, "fit", "--in", str(corpus), "--sport", "nhl",
            "--out", str(path), "--min-samples", "10")
        data = json.loads(path.read_text())
        if model == "tempo":  # a tempo fit on a 1000 s clock
            data["tempo"]["regulation_length_seconds"] = 1000
            data["tempo"]["profile"] = data["tempo"]["profile"][:1001]
        else:
            data["sport"]["lead_truncation"] += 1
        path.write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, command[0], "--model", str(path), *command[1:])
        assert code == 1 and " ok " not in out
        assert err == f"error: {model} model and sport config disagree on {mismatch}\n"
        assert not (tmp_path / "sim.csv").exists()

class TestSportTagCheck:
    """A --sport or --config whose sport differs from the corpus tags exits 1."""

    @pytest.fixture()
    def nfl_corpus(self, tmp_path):
        games = sd.ideal_corpus(sd.builtin_config("nfl"), 0.004, 40, seed=64)
        assert max(g.times.max() for g in games if g.n_events) > 2880  # past NBA's clock
        path = tmp_path / "nfl.csv"
        sd.write_event_file(games, path)
        return path

    @pytest.mark.parametrize(
        "command, out_flag",
        [("fit", ["--out", "model.json"]), ("eval", ["--out", "eval.csv"]),
         ("report", ["--out-dir", "report"])],
    )
    def test_other_sport_rejected(self, nfl_corpus, tmp_path, capsys, command, out_flag):
        out_path = tmp_path / out_flag[1]
        code, out, err = run(capsys, command, "--in", str(nfl_corpus), "--sport", "nba",
                             out_flag[0], str(out_path))
        assert code == 1 and " ok " not in out
        assert "is tagged NFL, but the chosen config is NBA" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "command, out_flag",
        [("fit", ["--out", "model.json"]), ("eval", ["--out", "eval.csv"]),
         ("report", ["--out-dir", "report"])],
    )
    def test_sport_with_config_is_a_usage_error(self, nfl_corpus, tmp_path, capsys, command,
                                                out_flag):
        config = tmp_path / "nba.json"
        sd.save_config(sd.builtin_config("nba"), config)
        out_path = tmp_path / out_flag[1]
        code, out, err = run(capsys, command, "--in", str(nfl_corpus), "--sport", "nfl",
                             "--config", str(config), out_flag[0], str(out_path))
        assert code == 2 and out == ""
        assert "argument --config: not allowed with argument --sport" in err
        assert not out_path.exists()

    def test_config_of_other_sport_rejected(self, corpus, tmp_path, capsys):
        config = tmp_path / "custom.json"
        sd.save_config(sd.SportConfig("custom", 3600, (3600,), {1: 1.0}, 15), config)
        code, _, err = run(capsys, "fit", "--in", str(corpus), "--config", str(config),
                           "--out", str(tmp_path / "model.json"))
        assert code == 1
        assert "is tagged NHL, but the chosen config is custom" in err


class TestSynthAndEval:
    def test_synth_league_with_truth(self, tmp_path, capsys):
        out = tmp_path / "league.csv"
        truth = tmp_path / "truth.json"
        code, text, _ = run(capsys, "synth", "--kind", "league", "--n-teams", "6",
                            "--n-games", "50", "--rate", "0.005", "--regulation", "1200",
                            "--seed", "2", "--out", str(out), "--truth", str(truth))
        assert code == 0 and "synth ok" in text
        games = sd.parse_event_file(out, configs={"custom": sd.SportConfig(
            "custom", 1200, (1200,), dict(sd.builtin_config("nfl").point_values), 100)})
        assert len(games) == 50
        sidecar = json.loads(truth.read_text())
        assert len(sidecar["skills"]) == 6
        assert sidecar["seed"] == 2

    def test_synth_rejects_a_one_team_league(self, tmp_path, capsys):
        out = tmp_path / "league.csv"
        code, text, err = run(capsys, "synth", "--n-teams", "1", "--out", str(out))
        assert code == 1 and "synth ok" not in text
        assert err == "error: n_teams must be >= 2 for two distinct teams per game, got 1\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--skill-sigma", "nan"], "skill_sigma must be finite and >= 0, got nan"),
            (["--skill-sigma", "-1"], "skill_sigma must be finite and >= 0, got -1.0"),
            (["--kind", "restoring", "--slope", "nan"], "|slope| must be < 1/2"),
        ],
    )
    def test_synth_rejects_non_finite_inputs(self, tmp_path, capsys, flags, message):
        out = tmp_path / "league.csv"
        code, text, err = run(capsys, "synth", *flags, "--out", str(out))
        assert code == 1 and "synth ok" not in text
        assert f"error: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--kind", "restoring", "--n-teams", "4"],
            ["--kind", "restoring", "--skill-sigma", "0.5"],
            ["--kind", "league", "--slope", "-0.01"],
            ["--slope", "-0.01"],
        ],
    )
    def test_synth_flag_of_the_other_kind_is_a_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "games.csv"
        code, text, err = run(capsys, "synth", *flags, "--out", str(out))
        kind = flags[1] if flags[0] == "--kind" else "league"
        assert code == 2 and "synth ok" not in text
        assert err == f"error: {flags[-2]} does not apply to --kind {kind}\n"
        assert not out.exists()

    def test_synth_restoring_truth_defaults(self, tmp_path, capsys):
        truth = tmp_path / "truth.json"
        code, _, err = run(capsys, "synth", "--kind", "restoring", "--n-games", "5",
                           "--out", str(tmp_path / "games.csv"), "--truth", str(truth))
        assert code == 0, err
        sidecar = json.loads(truth.read_text())
        assert sidecar["n_teams"] == 2 and sidecar["restoring_slope"] == -0.002

    def test_synth_output_fits_and_evals_with_config(self, tmp_path, capsys):
        corpus = tmp_path / "league.csv"
        code, _, _ = run(capsys, "synth", "--kind", "league", "--n-teams", "6",
                         "--n-games", "120", "--rate", "0.005", "--regulation", "1200",
                         "--seed", "5", "--out", str(corpus))
        assert code == 0
        config = tmp_path / "custom.json"
        sd.save_config(sd.SportConfig(
            "custom", 1200, (1200,), dict(sd.builtin_config("nfl").point_values), 100), config)
        model = tmp_path / "model.json"
        code, text, err = run(capsys, "fit", "--in", str(corpus), "--config", str(config),
                              "--out", str(model), "--min-samples", "10")
        assert code == 0, err
        assert "fit ok sport=custom games=120" in text
        assert json.loads(model.read_text())["sport"]["sport_id"] == "custom"
        out = tmp_path / "eval.csv"
        code, text, err = run(capsys, "eval", "--in", str(corpus), "--config", str(config),
                              "--splits", "2", "--out", str(out))
        assert code == 0, err
        assert "eval ok games=120" in text

    def test_eval_writes_auc_csv(self, tmp_path, capsys):
        spec = sd.default_league(n_teams=8, n_games=300, regulation_length=1200,
                                 rate=0.006, seed=33)
        games = sd.generate_league(spec)
        # store under a built-in tag so the CLI can resolve the config
        relabeled = [sd.GameLog(g.game_id, "NHL", g.times, g.teams, g.points) for g in games]
        corpus = tmp_path / "league.csv"
        sd.write_event_file(relabeled, corpus)
        out = tmp_path / "eval.csv"
        code, text, _ = run(capsys, "eval", "--in", str(corpus), "--sport", "nhl",
                            "--splits", "3", "--seed", "4", "--out", str(out))
        assert code == 0 and "eval ok" in text
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "event_index,auc_chain,auc_leader,n_games_scored"
        assert len(lines) > 2


class TestReport:
    def test_one_count_law_dp_for_both_bernoulli_tempo_cells(self, tmp_path, capsys,
                                                             monkeypatch):
        from scoredyn import simulate

        runs = []
        dp = simulate._bernoulli_count_law

        def spy(profile, grid):
            runs.append(len(grid))
            return dp(profile, grid)

        monkeypatch.setattr(simulate, "_bernoulli_count_law", spy)
        games = sd.ideal_corpus(sd.builtin_config("nhl"), 0.003, 100, seed=63)
        corpus = tmp_path / "games.csv"
        sd.write_event_file(games, corpus)
        code, _, err = run(capsys, "report", "--in", str(corpus), "--sport", "nhl",
                           "--out-dir", str(tmp_path / "report"), "--splits", "1",
                           "--min-samples", "10")
        assert code == 0, err
        assert runs == [61]  # one DP, on the 60 s grid of a 3600 s game
        header = (tmp_path / "report" / "lead_variance.csv").read_text().splitlines()[0]
        assert header == "t,sd_empirical,sd_bb,sd_bm,sd_mb,sd_mm"

    def test_one_renewal_count_law_for_both_markov_tempo_cells(self, tmp_path, capsys,
                                                               monkeypatch):
        from scoredyn import simulate

        runs = []
        law = simulate._renewal_count_law

        def spy(tempo, grid):
            runs.append(len(grid))
            return law(tempo, grid)

        monkeypatch.setattr(simulate, "_renewal_count_law", spy)
        games = sd.ideal_corpus(sd.builtin_config("nhl"), 0.003, 100, seed=63)
        corpus = tmp_path / "games.csv"
        sd.write_event_file(games, corpus)
        for every in ("60", "120"):
            code, _, err = run(capsys, "report", "--in", str(corpus), "--sport", "nhl",
                               "--out-dir", str(tmp_path / every), "--splits", "1",
                               "--min-samples", "10", "--sample-every", every)
            assert code == 0, err
            header = (tmp_path / every / "lead_variance.csv").read_text().splitlines()[0]
            assert header == "t,sd_empirical,sd_bb,sd_bm,sd_mb,sd_mm"
        assert runs == [61, 31]  # one law per report, on its own grid

    def test_report_regenerates_every_curve(self, tmp_path, capsys):
        games = sd.ideal_corpus(sd.builtin_config("nhl"), 0.003, 300, seed=60)
        corpus = tmp_path / "games.csv"
        sd.write_event_file(games, corpus)
        outdir = tmp_path / "report"
        code, text, _ = run(capsys, "report", "--in", str(corpus), "--sport", "nhl",
                            "--out-dir", str(outdir), "--seed", "1", "--splits", "2",
                            "--sim-games", "1000", "--min-samples", "10")
        assert code == 0 and "report ok" in text
        expected = [
            "model.json", "events_per_game.csv", "interarrival.csv", "gap_correlation.csv",
            "tempo_profile.csv", "balance.csv", "lead_scoring.csv", "lead_variance.csv",
            "predictability.csv",
        ]
        for name in expected:
            assert (outdir / name).exists(), name

    def test_report_with_a_chunk_of_games_without_events(self, tmp_path, capsys):
        # 1,024 games, then one whose two records net to zero: the lead
        # dispersion's second chunk of games holds no event
        games = sd.ideal_corpus(sd.builtin_config("nfl"), 0.002, 1100, seed=65)
        games = [g for g in games if g.n_events][:1024]  # an eventless game writes no line
        corpus = tmp_path / "games.csv"
        sd.write_event_file(games, corpus)
        with open(corpus, "a", encoding="utf-8") as fh:
            fh.write("nfl,zero,r,100,7\nnfl,zero,b,100,7\n")
        code, out, err = run(capsys, "validate", "--in", str(corpus))
        assert code == 0 and "games=1025" in out and "failures=0" in out, err
        code, out, err = run(capsys, "report", "--in", str(corpus), "--sport", "nfl",
                             "--out-dir", str(tmp_path / "report"), "--splits", "1")
        assert code == 0 and "report ok games=1025" in out, err

    def test_csv_cells_are_python_reprs(self, tmp_path):
        from scoredyn.cli import _write_csv

        path = tmp_path / "table.csv"
        _write_csv(path, n=np.array([3, -1]), x=[0.1, 1e-20], flag=np.array([True, False]),
                   lag=range(2))
        assert path.read_text() == "n,x,flag,lag\n3,0.1,True,0\n-1,1e-20,False,1\n"

    def test_report_byte_identical_across_runs(self, tmp_path, capsys):
        games = sd.ideal_corpus(sd.builtin_config("nhl"), 0.003, 200, seed=61)
        corpus = tmp_path / "games.csv"
        sd.write_event_file(games, corpus)
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        for d in (dir_a, dir_b):
            code, _, _ = run(capsys, "report", "--in", str(corpus), "--sport", "nhl",
                             "--out-dir", str(d), "--seed", "7", "--splits", "2",
                             "--sim-games", "1000", "--min-samples", "10")
            assert code == 0
        for name in ("model.json", "lead_variance.csv", "predictability.csv", "balance.csv"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


class TestOutOfRangeArguments:
    @pytest.fixture()
    def nhl_corpus(self, tmp_path):
        games = sd.ideal_corpus(sd.builtin_config("nhl"), 0.003, 60, seed=62)
        path = tmp_path / "games.csv"
        sd.write_event_file(games, path)
        return path

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sample-every", "0"], "sample_every must be >= 1"),
            (["--sample-every", "-5"], "sample_every must be >= 1"),
            (["--splits", "0"], "n_splits must be >= 1"),
            (["--balance-bins", "0"], "--balance-bins must be >= 1"),
        ],
    )
    def test_report_rejects(self, nhl_corpus, tmp_path, capsys, flags, message):
        code, out, err = run(capsys, "report", "--in", str(nhl_corpus), "--sport", "nhl",
                             "--out-dir", str(tmp_path / "report"), "--min-samples", "10", *flags)
        assert code == 1 and "report ok" not in out
        assert f"error: {message}" in err

    @pytest.mark.parametrize("flags", [["--splits", "0"], ["--sample-every", "0"]])
    def test_rejected_report_writes_nothing(self, nhl_corpus, tmp_path, capsys, flags):
        outdir = tmp_path / "report"
        code, _, _ = run(capsys, "report", "--in", str(nhl_corpus), "--sport", "nhl",
                         "--out-dir", str(outdir), "--min-samples", "10", *flags)
        assert code == 1
        assert not outdir.exists()

    def test_report_has_no_null_sims_option(self, nhl_corpus, tmp_path, capsys):
        # the fair-play null is exact: report has no Monte Carlo size to set
        code, out, err = run(capsys, "report", "--in", str(nhl_corpus), "--sport", "nhl",
                             "--out-dir", str(tmp_path / "report"), "--null-sims", "100")
        assert code == 2 and "report ok" not in out
        assert "unrecognized arguments: --null-sims 100" in err
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("command", ["fit", "report"])
    def test_min_samples_below_one_rejected(self, nhl_corpus, tmp_path, capsys, command, value):
        # a lead state without observations has no estimate for the phi line
        out = ["--out", str(tmp_path / "model.json")] if command == "fit" else [
            "--out-dir", str(tmp_path / "report")]
        code, text, err = run(capsys, command, "--in", str(nhl_corpus), "--sport", "nhl",
                              "--min-samples", value, *out)
        assert code == 1 and " ok " not in text
        assert err == f"error: min_samples must be >= 1, got {value}\n"
        assert os.listdir(tmp_path) == ["games.csv"]

    def test_min_samples_zero_fails_cleanly_under_warnings_as_errors(self, nhl_corpus,
                                                                     tmp_path):
        src = os.path.dirname(os.path.dirname(sd.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "scoredyn.cli", "fit", "--in", str(nhl_corpus),
             "--sport", "nhl", "--min-samples", "0", "--out", str(tmp_path / "model.json")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 1
        assert result.stderr == "error: min_samples must be >= 1, got 0\n"
        assert not (tmp_path / "model.json").exists()

    def test_eval_rejects_zero_splits(self, nhl_corpus, tmp_path, capsys):
        code, _, err = run(capsys, "eval", "--in", str(nhl_corpus), "--sport", "nhl",
                           "--splits", "0", "--out", str(tmp_path / "eval.csv"))
        assert code == 1 and "error: n_splits must be >= 1" in err

    @pytest.mark.parametrize("command", ["eval", "report", "simulate", "synth"])
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_rejected(self, nhl_corpus, tmp_path, capsys, command, seed):
        model = tmp_path / "model.json"
        code, _, err = run(capsys, "fit", "--in", str(nhl_corpus), "--sport", "nhl",
                           "--min-samples", "10", "--out", str(model))
        assert code == 0, err
        corpus = ["--in", str(nhl_corpus), "--sport", "nhl", "--splits", "2"]
        flags = {
            "eval": [*corpus, "--out", str(tmp_path / "eval.csv")],
            "report": [*corpus, "--out-dir", str(tmp_path / "report"), "--min-samples", "10"],
            "simulate": ["--model", str(model), "--n-games", "5",
                         "--out", str(tmp_path / "sim.csv")],
            "synth": ["--n-games", "5", "--out", str(tmp_path / "synth.csv"),
                      "--truth", str(tmp_path / "truth.json")],
        }[command]
        code, text, err = run(capsys, command, *flags, "--seed", seed)
        assert code == 1 and " ok " not in text
        assert err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert sorted(os.listdir(tmp_path)) == ["games.csv", "model.json"]


def test_commands_read_corpus_columns_only(tmp_path, capsys, monkeypatch):
    # parse and the simulator build a Corpus; no command lays out a list of
    # games or builds a game out of the corpus's columns
    games = sd.ideal_corpus(sd.builtin_config("nhl"), 0.003, 300, seed=66)
    corpus, model = tmp_path / "games.csv", tmp_path / "model.json"
    sd.write_event_file(games, corpus)
    seen = []
    of = sd.Corpus.of.__func__

    def lay_out(cls, games):
        if not isinstance(games, sd.Corpus):
            seen.append("list layout")
        return of(cls, games)

    monkeypatch.setattr(sd.Corpus, "of", classmethod(lay_out))
    monkeypatch.setattr(sd.Corpus, "_view", lambda *args: seen.append("game view"))
    monkeypatch.setattr(sd.GameLog, "__init__", lambda *args, **kw: seen.append("GameLog"))
    commands = [
        ["validate", "--in", str(corpus)],
        ["fit", "--in", str(corpus), "--out", str(model)],
        ["eval", "--in", str(corpus), "--splits", "2", "--out", str(tmp_path / "eval.csv")],
        ["report", "--in", str(corpus), "--out-dir", str(tmp_path / "report"),
         "--splits", "1"],
        ["simulate", "--model", str(model), "--tempo", "markov", "--n-games", "1100",
         "--out", str(tmp_path / "sim.jsonl")],
    ]
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
    assert seen == []


def test_every_command_runs_without_scipy(tmp_path):
    # scipy is a test oracle only; every command runs with it blocked
    sd.write_event_file(sd.ideal_corpus(sd.builtin_config("nhl"), 0.003, 60, seed=62),
                        tmp_path / "games.csv")
    script = """
import sys
sys.modules["scipy"] = None
from scoredyn.cli import main
commands = [
    "validate --in games.csv",
    "fit --in games.csv --sport nhl --out model.json --min-samples 10",
    "simulate --model model.json --n-games 20 --seed 3 --out sim.jsonl",
    "predict --model model.json --lead 2 --t 1800",
    "eval --in games.csv --sport nhl --splits 2 --out eval.csv",
    "synth --kind league --n-teams 4 --n-games 10 --rate 0.005 --regulation 1200 --out l.csv",
    "report --in games.csv --sport nhl --out-dir report --min-samples 10",
]
for command in commands:
    assert main(command.split()) == 0, command
assert "scipy.special" not in sys.modules
"""
    src = os.path.dirname(os.path.dirname(sd.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count(" ok ") == 7
    assert (tmp_path / "report" / "events_per_game.csv").exists()


def test_eval_and_report_leave_numpy_random_unloaded(tmp_path):
    # eval's splits come from a counter-based hash, so no other command
    # loads numpy.random (6 MB of RSS and OpenSSL's hashlib)
    sd.write_event_file(sd.ideal_corpus(sd.builtin_config("nhl"), 0.003, 60, seed=62),
                        tmp_path / "games.csv")
    script = """
import sys
from scoredyn.cli import main
commands = [
    "validate --in games.csv",
    "fit --in games.csv --sport nhl --out model.json --min-samples 10",
    "predict --model model.json --lead 2 --t 1800",
    "eval --in games.csv --sport nhl --splits 3 --out eval.csv",
    "report --in games.csv --sport nhl --out-dir report --min-samples 10",
]
for command in commands:
    assert main(command.split()) == 0, command
    assert "numpy.random" not in sys.modules, command
assert main("simulate --model model.json --n-games 20 --out sim.csv".split()) == 0
assert "numpy.random" in sys.modules
"""
    src = os.path.dirname(os.path.dirname(sd.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-W", "error", "-c", script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count(" ok ") == 6


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second to import; no command needs it
    src = os.path.dirname(os.path.dirname(sd.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, scoredyn.cli; sys.exit('scipy.stats' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0

"""Simulator tests against binomial, random-walk, and convolution oracles."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import scoredyn as sd
from test_golden import LEAGUES, league

TINY = sd.SportConfig("custom", 600, (600,), {1: 1.0}, 15)


def flat_spec(rate, config=TINY, seed=0, tempo_kind="bernoulli", balance_kind="bernoulli"):
    spec = sd.ideal_model(config, rate, seed)
    return dataclasses.replace(spec, tempo_kind=tempo_kind, balance_kind=balance_kind)


def walk_pmf(n_steps: int, max_abs: int) -> dict[int, float]:
    """Exact pmf of a fair +-1 walk after n steps (enumeration oracle)."""
    pmf = {}
    for k in range(n_steps + 1):
        j = 2 * k - n_steps
        if abs(j) <= max_abs:
            pmf[j] = pmf.get(j, 0.0) + math.comb(n_steps, k) * 0.5**n_steps
    return pmf


class TestSimulateGame:
    def test_zero_profile_gives_empty_game(self):
        tempo = sd.TempoModel(
            lambda_hat=1e-12,
            regulation_length=600,
            profile=np.zeros(601),
            interarrival_gaps=[],
            interarrival_probs=[],
        )
        spec = dataclasses.replace(flat_spec(0.01), tempo=tempo)
        game = sd.simulate_game(spec)
        assert game.n_events == 0

    def test_flat_bernoulli_tempo_mean_events(self):
        # binomial oracle: events per game ~ Binomial(600, p), the
        # opening tick never hosts an event
        p = 0.01
        n_games = 20_000
        games = sd.simulate_corpus(flat_spec(p, seed=101), n_games)
        counts = np.array([g.n_events for g in games])
        expected = p * 600
        se = math.sqrt(600 * p * (1 - p) / n_games)
        assert abs(counts.mean() - expected) < 3 * se

    def test_markov_tempo_deterministic_gaps(self):
        base = flat_spec(0.01)
        tempo = dataclasses.replace(
            base.tempo, interarrival_gaps=np.array([5]), interarrival_probs=np.array([1.0])
        )
        spec = dataclasses.replace(base, tempo=tempo, tempo_kind="markov")
        game = sd.simulate_game(spec)
        assert list(game.times) == list(range(5, 601, 5))  # event at T kept

    def test_markov_tempo_mean_matches_gap_law(self):
        base = flat_spec(0.01)
        tempo = dataclasses.replace(
            base.tempo,
            interarrival_gaps=np.array([20, 60]),
            interarrival_probs=np.array([0.5, 0.5]),
        )
        spec = dataclasses.replace(base, tempo=tempo, tempo_kind="markov", seed=102)
        counts = np.array([sd.simulate_game(spec, i).n_events for i in range(3000)])
        assert counts.mean() == pytest.approx(600 / 40, rel=0.05)

    def test_bernoulli_balance_bias(self):
        spec = flat_spec(0.02, seed=103)
        balance = dataclasses.replace(spec.balance, c_hat_samples=np.array([0.7]))
        spec = dataclasses.replace(spec, balance=balance)
        games = sd.simulate_corpus(spec, 3000)
        wins = sum(int(np.count_nonzero(g.teams > 0)) for g in games)
        total = sum(g.n_events for g in games)
        assert abs(wins / total - 0.7) < 3 * math.sqrt(0.21 / total)

    def test_markov_balance_fair_final_lead_distribution(self):
        # exact convolution oracle: P(lead = j) = sum_n P(N = n) P(S_n = j)
        # with N ~ Binomial(601, p) event counts and S_n a fair unit walk
        p = 0.005
        n_games = 20_000
        spec = flat_spec(p, seed=104, balance_kind="markov")
        games = sd.simulate_corpus(spec, n_games)
        leads = np.array([g.final_lead() for g in games])
        n_pmf = stats.binom.pmf(np.arange(0, 30), 600, p)
        oracle: dict[int, float] = {}
        for n, pn in enumerate(n_pmf):
            for j, pj in walk_pmf(n, 6).items():
                oracle[j] = oracle.get(j, 0.0) + pn * pj
        for j in range(-4, 5):
            observed = (leads == j).mean()
            tol = 3 * math.sqrt(oracle[j] * (1 - oracle[j]) / n_games)
            assert abs(observed - oracle[j]) < tol, f"lead {j}"

    def test_per_second_frequency_matches_profile(self):
        T = 60
        profile = np.concatenate([[0.0], np.linspace(0.002, 0.05, T - 1), [0.15]])
        cfg = sd.SportConfig("custom", T, (T,), {1: 1.0}, 15)
        tempo = sd.TempoModel(
            lambda_hat=float(profile.mean()),
            regulation_length=T,
            profile=profile,
            interarrival_gaps=[],
            interarrival_probs=[],
        )
        spec = dataclasses.replace(flat_spec(0.01, config=cfg, seed=105), tempo=tempo)
        n_games = 100_000
        # simulate_corpus draws game i exactly as simulate_game(spec, i) does
        times = np.concatenate([g.times for g in sd.simulate_corpus(spec, n_games)])
        freq = np.bincount(times, minlength=T + 1) / n_games
        sigma = np.sqrt(profile * (1 - profile) / n_games)
        live = profile > 0
        assert freq[0] == 0.0
        assert np.all(np.abs(freq[live] - profile[live]) < 3 * sigma[live])

    def test_markov_balance_self_consistency(self):
        # simulating with a known phi and refitting recovers it pointwise
        cap = 15
        slope_in = -0.01
        leads = np.arange(-cap, cap + 1)
        phi_in = 0.5 + slope_in * leads
        spec = flat_spec(0.00833, seed=106, balance_kind="markov")
        scoring = dataclasses.replace(spec.balance.scoring, phi=phi_in)
        balance = dataclasses.replace(spec.balance, scoring=scoring)
        spec = dataclasses.replace(spec, balance=balance)
        games = sd.simulate_corpus(spec, 30_000)
        refit = sd.lead_scoring_function(games, cap, min_samples=1)
        strong = refit.counts >= 1000
        assert strong.sum() >= 5
        tol = 3 * np.sqrt(phi_in * (1 - phi_in) / np.maximum(refit.counts, 1))
        assert np.all(np.abs(refit.phi[strong] - phi_in[strong]) < tol[strong])


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        spec = flat_spec(0.01, seed=7, balance_kind="markov")
        a = sd.simulate_corpus(spec, 20)
        b = sd.simulate_corpus(spec, 20)
        assert a == b

    def test_different_seeds_differ(self):
        a = sd.simulate_corpus(flat_spec(0.01, seed=1), 5)
        b = sd.simulate_corpus(flat_spec(0.01, seed=2), 5)
        assert a != b

    def test_negative_game_count_rejected(self):
        with pytest.raises(ValueError, match="n_games must be >= 0, got -5"):
            sd.simulate_corpus(flat_spec(0.01), -5)
        assert sd.simulate_corpus(flat_spec(0.01), 0) == []

    def test_substreams_are_order_independent(self):
        spec = flat_spec(0.01, seed=7)
        corpus = sd.simulate_corpus(spec, 10)
        assert sd.simulate_game(spec, 5) == corpus[5]


class TestLeadVarianceCurve:
    def test_all_games_start_tied(self):
        spec = flat_spec(0.01, seed=108)
        _, sd_lead = sd.lead_variance_curve(spec, n_games=1000, sample_every=100)
        assert sd_lead[0] == 0.0

    def test_fair_unit_walk_sd_is_sqrt_expected_count(self):
        # random-walk oracle: Var(L_t) = E[N_t] for fair unit steps
        p = 0.01
        times, sd_lead = sd.lead_variance_curve(
            flat_spec(p, seed=109), n_games=20_000, sample_every=50
        )
        expected = np.sqrt(p * times)
        rel = np.abs(sd_lead[1:] - expected[1:]) / expected[1:]
        assert np.all(rel < 0.05)

    def test_small_corpus_rejected(self):
        with pytest.raises(ValueError, match="1000"):
            sd.lead_variance_curve(flat_spec(0.01), n_games=10)


class TestIdealGame:
    def test_zero_rate_empty(self):
        assert sd.ideal_game(TINY, 0.0).n_events == 0

    @pytest.mark.parametrize("index", [-1, -(2**40), 2**64, 2**70])
    @pytest.mark.parametrize("rate", [0.0, 0.01])
    def test_game_index_outside_the_substreams_refused(self, index, rate):
        # index -1 would name game `sim--00001` and draw substream 2**64 - 1
        message = rf"game_index must be in \[0, 2\*\*64\), got {index}$"
        with pytest.raises(ValueError, match=message):
            sd.ideal_game(TINY, rate, game_index=index)
        with pytest.raises(ValueError, match=message):
            sd.simulate_game(flat_spec(0.01), index)

    def test_nhl_rate_mean_events(self):
        cfg = sd.builtin_config("nhl")
        rate = 0.00106
        n_games = 20_000
        games = sd.ideal_corpus(cfg, rate, n_games, seed=112)
        counts = np.array([g.n_events for g in games])
        se = math.sqrt(rate * 3600 / n_games)
        assert abs(counts.mean() - 3.81) < 3 * se

    def test_fair_winners_mean_final_lead_zero(self):
        games = sd.ideal_corpus(TINY, 0.02, 5000, seed=113)
        leads = np.array([g.final_lead() for g in games])
        per_game_var = 0.02 * 600  # unit points, fair: Var(L) = E[N]
        assert abs(leads.mean()) < 3 * math.sqrt(per_game_var / 5000)


class TestIdealOracle:
    """Every fair game runs one law: `ideal_corpus` holds the games of
    `simulate_corpus(ideal_model(...))`, `ideal_game` each of them, and rate 0
    draws its empty games the same way."""

    @staticmethod
    def corpus_and_batch_starts(monkeypatch, config, rate, n_games, seed):
        starts = []

        def spy(seed, index):
            starts.append(index)
            return sd.rng.substream(seed, index)

        monkeypatch.setattr(sd.simulate, "substream", spy)
        games = sd.ideal_corpus(config, rate, n_games, seed=seed)
        monkeypatch.undo()
        return games, starts

    @pytest.mark.parametrize("sport, rate", [("nhl", 0.00106), ("nba", 0.0437), ("nfl", 0.00204)])
    def test_ideal_corpus_is_the_ideal_models_corpus(self, monkeypatch, sport, rate):
        config = sd.builtin_config(sport)
        games, starts = self.corpus_and_batch_starts(monkeypatch, config, rate, 1100, 7)
        assert_same_corpus(games, sd.simulate_corpus(sd.ideal_model(config, rate, 7), 1100))
        assert len(starts) >= 3 and starts[0] == 0
        for edge in starts[1:]:
            for index in (edge - 1, edge):
                assert_same_corpus([sd.ideal_game(config, rate, 7, index)], [games[index]])

    def test_rate_zero_games_are_empty_and_keep_their_ids(self, monkeypatch):
        games, starts = self.corpus_and_batch_starts(monkeypatch, TINY, 0.0, 2500, 3)
        assert len(games) == 2500 and len(games.times) == 0
        assert games.game_ids == tuple(f"sim-{i:06d}" for i in range(2500))
        assert set(games.sport_ids) == {"custom"} and len(starts) >= 3
        for edge in starts[1:]:
            for index in (edge - 1, edge):
                assert_same_corpus([sd.ideal_game(TINY, 0.0, 3, index)], [games[index]])
        last = sd.ideal_game(TINY, 0.0, 3, 2**64 - 1)
        assert last.game_id == f"sim-{2**64 - 1}" and last.n_events == 0


class TestInterchange:
    def test_simulated_corpus_round_trips_through_ingest(self, tmp_path):
        cfg = sd.builtin_config("nhl")
        games = sd.ideal_corpus(cfg, 0.002, 20, seed=114)
        path = tmp_path / "sim.csv"
        sd.write_event_file(games, path)
        parsed = sd.parse_event_file(path)
        assert parsed == games


# --------------------------------------------------------------------------
# Oracle: the sequential per-game generator that the batched one replaced.
# The batched generator must reproduce it bit for bit.
# --------------------------------------------------------------------------

def ref_points(rng, point_values, n):
    support = np.array(sorted(point_values), dtype=np.int64)
    probs = np.array([point_values[int(v)] for v in support])
    return rng.choice(support, size=n, p=probs)


def ref_gap_times(rng, gaps, probs, horizon):
    mean_gap = float(np.dot(gaps, probs))
    times = []
    t = 0
    while True:
        size = max(16, int((horizon - t) / mean_gap * 1.25) + 8)
        cs = t + np.cumsum(rng.choice(gaps, size=size, p=probs))
        cut = int(np.searchsorted(cs, horizon, side="right"))
        times.append(cs[:cut])
        if cut < size:
            return np.concatenate(times).astype(np.int64)
        t = int(cs[-1])


def ref_lead_winners(rng, points, p_of_lead):
    u = rng.random(len(points))
    signs = np.empty(len(points), dtype=np.int8)
    lead = 0
    for i in range(len(points)):
        s = 1 if u[i] < p_of_lead(lead) else -1
        signs[i] = s
        lead += s * int(points[i])
    return signs


def ref_game(spec, game_index):
    rng = sd.substream(spec.seed, game_index)
    if spec.tempo_kind is sd.TempoKind.BERNOULLI:
        profile = spec.tempo.profile
        times = np.nonzero(rng.random(len(profile)) < profile)[0].astype(np.int64)
    else:
        times = ref_gap_times(
            rng,
            spec.tempo.interarrival_gaps,
            spec.tempo.interarrival_probs,
            spec.config.regulation_length,
        )
    n = len(times)
    points = ref_points(rng, spec.balance.point_values, n)
    if spec.balance_kind is sd.BalanceKind.BERNOULLI:
        u = rng.random(n)
        samples = spec.balance.c_hat_samples
        c = float(samples[math.floor(rng.random() * len(samples))])
        signs = np.where(u < c, 1, -1).astype(np.int8)
    else:
        phi, cap = spec.balance.phi, spec.config.lead_truncation
        signs = ref_lead_winners(rng, points, lambda lead: phi[min(max(lead, -cap), cap) + cap])
    return sd.GameLog(f"sim-{game_index:06d}", spec.config.sport_id, times, signs, points)


def ref_league(spec, restoring_slope=None):
    games = []
    for g, (i, j) in enumerate(spec.schedule):
        rng = sd.substream(spec.seed, g)
        times = np.nonzero(rng.random(len(spec.profile)) < spec.profile)[0].astype(np.int64)
        n = len(times)
        points = ref_points(rng, spec.point_values, n)
        if restoring_slope is None:
            p_r = spec.skills[i] / (spec.skills[i] + spec.skills[j])
            signs = np.where(rng.random(n) < p_r, 1, -1).astype(np.int8)
            prefix = "league"
        else:
            clamp = sd.synth.PROB_CLAMP
            signs = ref_lead_winners(
                rng,
                points,
                lambda lead: min(max(0.5 + restoring_slope * lead, clamp), 1.0 - clamp),
            )
            prefix = "restoring"
        games.append(sd.GameLog(f"{prefix}-{g:06d}", "custom", times, signs, points))
    return games


def ref_dispersion(games, regulation_length, sample_every):
    grid = np.arange(0, regulation_length + 1, sample_every, dtype=np.int64)
    total = np.zeros(len(grid))
    total_sq = np.zeros(len(grid))
    for game in games:
        if game.n_events == 0:
            continue
        cum = np.cumsum(game.signed_points)
        idx = np.searchsorted(game.times, grid, side="right")
        leads = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0).astype(float)
        total += leads
        total_sq += leads**2
    n = len(games)
    mean = total / n
    var = np.maximum(total_sq / n - mean**2, 0.0)
    return grid, np.sqrt(var)


def assert_same_corpus(games, reference):
    assert len(games) == len(reference)
    for game, ref in zip(games, reference):
        assert game == ref, game.game_id
        assert game.times.dtype == np.int64 and game.points.dtype == np.int64
        assert game.teams.dtype == np.int8
        assert not (game.times.flags.writeable or game.teams.flags.writeable)


def fitted_league(sport, rate, n_games, seed, lead_truncation=None):
    """Tempo and balance fitted to a synthetic league in a built-in sport."""
    config = sd.builtin_config(sport)
    if lead_truncation is not None:
        config = dataclasses.replace(config, lead_truncation=lead_truncation)
    league = sd.default_league(
        n_teams=32,
        n_games=n_games,
        regulation_length=config.regulation_length,
        rate=rate,
        point_values=config.point_values,
        seed=seed,
    )
    games = sd.generate_league(league)
    return config, sd.fit_tempo(games, config), sd.fit_balance(games, config, min_samples=20)


@pytest.fixture(scope="module")
def nfl_like():
    return fitted_league("nfl", 0.00204, 400, seed=31)


@pytest.fixture(scope="module")
def nba_like():
    return fitted_league("nba", 0.0437, 60, seed=32)


@pytest.fixture(scope="module")
def dense_nhl():
    """About 360 events per game: far past NBA-like tempo."""
    return fitted_league("nhl", 0.1, 60, seed=34)


CELLS = [(t, b) for t in ("bernoulli", "markov") for b in ("bernoulli", "markov")]


def cell_spec(fitted, tempo_kind, balance_kind, seed=41):
    config, tempo, balance = fitted
    return sd.ModelSpec(tempo_kind, balance_kind, tempo, balance, config, seed)


def corpus_and_batch_starts(monkeypatch, spec, n_games):
    """simulate_corpus(spec, n_games) and the first game of every batch it drew
    (each batch opens one substream)."""
    starts = []

    def spy(seed, index):
        starts.append(index)
        return sd.rng.substream(seed, index)

    monkeypatch.setattr(sd.simulate, "substream", spy)
    games = sd.simulate_corpus(spec, n_games)
    monkeypatch.undo()
    return games, starts


def replays(monkeypatch):
    """The game indices `_replay` is called for, call by call."""
    replayed = []
    replay = sd.simulate._replay

    def spy(law, rng, index):
        replayed.append(index)
        return replay(law, rng, index)

    monkeypatch.setattr(sd.simulate, "_replay", spy)
    return replayed


def check_cell(monkeypatch, fitted, tempo_kind, balance_kind):
    spec = cell_spec(fitted, tempo_kind, balance_kind)
    games, starts = corpus_and_batch_starts(monkeypatch, spec, 2100)
    assert_same_corpus(games, [ref_game(spec, i) for i in range(2100)])
    assert len(starts) >= 3 and starts[0] == 0
    for edge in starts[1:]:  # game i does not depend on where its batch starts
        assert sd.simulate_game(spec, edge - 1) == games[edge - 1]
        assert sd.simulate_game(spec, edge) == games[edge]
    if tempo_kind == "bernoulli":  # T + 1 uniforms per game: the buffer bound cuts batches
        per_batch = starts[1] - starts[0]
        assert per_batch < sd.simulate._CHUNK_GAMES
        assert per_batch * (spec.config.regulation_length + 1) <= sd.core._WORK_WORDS


class TestBatchedGeneratorOracle:
    @pytest.mark.parametrize("tempo_kind,balance_kind", CELLS)
    def test_nfl_like_cells(self, nfl_like, monkeypatch, tempo_kind, balance_kind):
        check_cell(monkeypatch, nfl_like, tempo_kind, balance_kind)

    @pytest.mark.parametrize("tempo_kind,balance_kind", CELLS)
    def test_nba_like_cells(self, nba_like, monkeypatch, tempo_kind, balance_kind):
        check_cell(monkeypatch, nba_like, tempo_kind, balance_kind)

    @pytest.mark.parametrize("tempo_kind,balance_kind", CELLS)
    def test_forced_replays(self, nfl_like, monkeypatch, tempo_kind, balance_kind):
        # with q = 4 most games have more events than their one draw covers
        spec = cell_spec(nfl_like, tempo_kind, balance_kind)
        monkeypatch.setattr(spec._law.tempo, "cover", 4)
        replayed = replays(monkeypatch)
        games = sd.simulate_corpus(spec, 1100)
        assert len(replayed) > 550
        assert_same_corpus(games, [ref_game(spec, i) for i in range(1100)])
        assert sd.simulate_game(spec, replayed[-1]) == games[replayed[-1]]

    @pytest.mark.parametrize("tempo_kind,balance_kind", CELLS)
    def test_dense_games_fit_one_draw(self, dense_nhl, monkeypatch, tempo_kind, balance_kind):
        # a game's one draw covers the events a gap chunk is sized for, however
        # many the model expects: at about 360 per game no game replays
        spec = cell_spec(dense_nhl, tempo_kind, balance_kind)
        replayed = replays(monkeypatch)
        games = sd.simulate_corpus(spec, 600)
        assert replayed == []
        assert 330 < len(games.times) / len(games) < 390
        assert_same_corpus(games, [ref_game(spec, i) for i in range(600)])

    @pytest.mark.parametrize("tempo_kind", ["bernoulli", "markov"])
    def test_clamped_leads(self, tempo_kind):
        fitted = fitted_league("nfl", 0.004, 300, seed=33, lead_truncation=8)
        spec = cell_spec(fitted, tempo_kind, "markov")
        games = sd.simulate_corpus(spec, 400)
        assert_same_corpus(games, [ref_game(spec, i) for i in range(400)])
        peak = max(np.abs(np.cumsum(g.signed_points)).max(initial=0) for g in games)
        assert peak > 8  # the lead left phi's grid, so the clamp was exercised

    @pytest.mark.parametrize("balance_kind", ["bernoulli", "markov"])
    def test_zero_profile_gives_empty_games(self, nfl_like, balance_kind):
        config, tempo, balance = nfl_like
        silent = dataclasses.replace(tempo, profile=np.zeros_like(tempo.profile))
        spec = sd.ModelSpec("bernoulli", balance_kind, silent, balance, config, seed=5)
        games = sd.simulate_corpus(spec, 50)
        assert all(g.n_events == 0 for g in games)
        assert_same_corpus(games, [ref_game(spec, i) for i in range(50)])

    @pytest.mark.parametrize("balance_kind", ["bernoulli", "markov"])
    def test_markov_tempo_chunk_refill(self, balance_kind):
        # mostly unit gaps with a rare long one: the first chunk of gaps
        # often ends within regulation and a second chunk is drawn
        spec = flat_spec(0.01, seed=43, balance_kind=balance_kind)
        tempo = dataclasses.replace(
            spec.tempo,
            interarrival_gaps=np.array([1, 1000]),
            interarrival_probs=np.array([0.99, 0.01]),
        )
        spec = dataclasses.replace(spec, tempo=tempo, tempo_kind="markov")
        games = sd.simulate_corpus(spec, 300)
        size = max(16, int(600 / spec.tempo.mean_gap * 1.25) + 8)
        assert sum(g.n_events > size for g in games) > 50
        assert_same_corpus(games, [ref_game(spec, i) for i in range(300)])

    def test_generate_league(self):
        spec = sd.default_league(
            n_teams=10, n_games=2200, rate=0.003, point_values={2: 0.3, 3: 0.7}, seed=44
        )
        assert_same_corpus(sd.generate_league(spec), ref_league(spec))

    @pytest.mark.parametrize("slope", [0.0, -0.002, -0.49, 0.49])
    def test_generate_restoring_league(self, slope):
        spec = sd.default_league(
            n_teams=2,
            n_games=2100,
            rate=0.004,
            point_values=sd.builtin_config("nfl").point_values,
            seed=45,
        )
        games = sd.generate_restoring_league(spec, slope)
        assert_same_corpus(games, ref_league(spec, restoring_slope=slope))

    def test_lead_dispersion_matches_per_game_loop(self, nfl_like, nba_like):
        for fitted, every in ((nfl_like, 60), (nba_like, 7)):
            config = fitted[0]
            spec = cell_spec(fitted, "bernoulli", "markov")
            games = list(sd.simulate_corpus(spec, 1100))
            games[3:3] = [sd.GameLog("empty", config.sport_id, [], [], [])]
            T = config.regulation_length
            for got, want in zip(
                sd.lead_dispersion(games, T, every), ref_dispersion(games, T, every)
            ):
                np.testing.assert_array_equal(got, want)

    def test_lead_dispersion_of_eventless_games_is_zero(self):
        games = [sd.GameLog(f"e{i}", "NFL", [], [], []) for i in range(3)]
        times, sd_lead = sd.lead_dispersion(games, 3600)
        assert len(times) == 61 and not sd_lead.any()

    def test_lead_dispersion_with_a_chunk_without_events(self, nfl_like):
        # the game after the first _CHUNK_GAMES fills a chunk that holds no event
        config = nfl_like[0]
        spec = cell_spec(nfl_like, "bernoulli", "markov")
        games = list(sd.simulate_corpus(spec, sd.simulate._CHUNK_GAMES))
        games.append(sd.GameLog("empty", config.sport_id, [], [], []))
        T = config.regulation_length
        want = ref_dispersion(games, T, 60)
        for corpus in (games, sd.Corpus.of(games)):
            for got, expected in zip(sd.lead_dispersion(corpus, T, 60), want):
                np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("sample_every", [0, -5])
    def test_sample_every_below_one_rejected(self, nfl_like, sample_every):
        games = sd.simulate_corpus(flat_spec(0.01), 5)
        with pytest.raises(ValueError, match="sample_every must be >= 1"):
            sd.lead_dispersion(games, 600, sample_every)
        for tempo_kind, balance_kind in CELLS:
            spec = cell_spec(nfl_like, tempo_kind, balance_kind)
            with pytest.raises(ValueError, match="sample_every must be >= 1"):
                sd.exact_lead_sd(spec, sample_every)
        config, tempo, balance = nfl_like
        with pytest.raises(ValueError, match="sample_every must be >= 1"):
            sd.exact_lead_sd_grid(tempo, balance, config, sample_every)

    def test_sample_every_past_the_clock_rejected(self, nfl_like):
        # a grid of t = 0 alone reads as an all-zero curve
        config, tempo, balance = nfl_like
        message = r"^sample_every must be <= regulation_length \(3600\), got 5000$"
        games = sd.simulate_corpus(cell_spec(nfl_like, "bernoulli", "bernoulli"), 5)
        with pytest.raises(ValueError, match=message):
            sd.lead_dispersion(games, 3600, 5000)
        for tempo_kind, balance_kind in CELLS:
            with pytest.raises(ValueError, match=message):
                sd.exact_lead_sd(cell_spec(nfl_like, tempo_kind, balance_kind), 5000)
        with pytest.raises(ValueError, match=message):
            sd.exact_lead_sd_grid(tempo, balance, config, 5000)

    def test_lead_dispersion_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="at least one game"):
            sd.lead_dispersion([], 600)

    def test_lead_dispersion_refuses_an_event_past_the_clock(self):
        # the grid stops at the clock: the lead after second 700 would never be counted
        games = [sd.GameLog("a", "NFL", [10, 700], [1, 1], [3, 7]),
                 sd.GameLog("b", "NFL", [20], [-1], [3])]
        message = "game 'a' has an event at second 700, past the config's regulation length 600"
        for corpus in (games, sd.Corpus.of(games)):
            with pytest.raises(ValueError) as info:
                sd.lead_dispersion(corpus, 600, 300)
            assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            sd.fit_tempo(games, dataclasses.replace(sd.builtin_config("nfl"), regulation_length=600,
                                                    period_ends=(600,)))
        assert str(info.value) == message
        times, _ = sd.lead_dispersion(games, 700, 350)  # at the clock: counted
        assert times.tolist() == [0, 350, 700]


GUIDE_BUCKETS = 1 << sd.simulate._GUIDE_BITS
BUCKET_EDGES = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS


@st.composite
def cdfs(draw):
    """Nondecreasing CDFs with repeated entries, runs of entries inside one
    guide bucket, and a last entry of 1.0 (as `_cdf` makes) or below it."""
    bucket = draw(st.integers(0, GUIDE_BUCKETS - 1))
    inside = st.floats(0, 1, exclude_max=True).map(lambda f: (bucket + f) / GUIDE_BUCKETS)
    entries = draw(st.lists(st.one_of(st.floats(0, 1), inside), min_size=1, max_size=40))
    entries += entries[: draw(st.integers(0, len(entries)))]  # repeated entries
    if draw(st.booleans()):
        entries.append(1.0)
    return np.sort(np.array(entries, dtype=float))


@settings(max_examples=200, deadline=None)
@given(cdf=cdfs(), extra=st.lists(st.floats(0, 1, exclude_max=True), max_size=20))
def test_guided_search_matches_searchsorted(cdf, extra):
    u = np.concatenate(
        [
            BUCKET_EDGES[:-1],
            np.nextafter(BUCKET_EDGES[1:], 0.0),  # the last double of every bucket
            cdf[cdf < 1.0],
            np.nextafter(cdf[(cdf > 0.0) & (cdf < 1.0)], 0.0),
            extra,
        ]
    )
    support = np.arange(len(cdf) + 1) * 3  # a value for every search result
    guide = sd.simulate._guide(cdf, support)
    expected = support[cdf.searchsorted(u, "right")]
    np.testing.assert_array_equal(sd.simulate._guided_search(cdf, guide, support, u), expected)
    rows = sd.simulate._guided_search(cdf, guide, support, np.stack([u, u[::-1]]))  # rows of games
    np.testing.assert_array_equal(rows, np.stack([expected, expected[::-1]]))


@pytest.mark.parametrize("m", [1, 2, 2**10, 2000])
def test_bias_index_below_sample_count(m):
    # the largest double below 1 still picks the last sample
    u = np.array([0.0, 0.5, 1.0 - 2.0**-53])
    assert math.floor(u[-1] * m) == m - 1
    picked = sd.simulate._sample_at(np.arange(m), u)
    np.testing.assert_array_equal(picked, [0, m // 2, m - 1])


@pytest.mark.parametrize("tempo_kind", ["bernoulli", "markov"])
def test_bernoulli_balance_bias_uniform_over_samples(tempo_kind):
    # One event per game, and bias 1 for sample k alone, 0 for the rest:
    # the games r wins are those that drew sample k. Pearson's statistic
    # over the m counts is chi-square with m - 1 degrees of freedom under
    # uniform picks: it must stay within 3 sd of its mean.
    m, n_games = 8, 8000
    spec = one_event_spec(360, tempo_kind)
    counts = []
    for k in range(m):
        balance = dataclasses.replace(spec.balance, c_hat_samples=np.eye(m)[k])
        games = sd.simulate_corpus(dataclasses.replace(spec, balance=balance), n_games)
        assert len(games.teams) == n_games
        counts.append(int(np.sum(games.teams == 1)))
    assert sum(counts) == n_games  # every game drew exactly one sample
    expected = n_games / m
    pearson = sum((c - expected) ** 2 / expected for c in counts)
    assert pearson < (m - 1) + 3.0 * math.sqrt(2.0 * (m - 1)), counts


# sha256 of the CSV render, taken before the bernoulli-balance bias moved
# to the double after the winners: these streams do not read it.
PINNED_RENDERS = {
    "ideal": "12b897a9dcfff9b1352373b04024cf00f622d1d438f6233107711e2954a955ba",
    "league": "61ea3e9fbd3cf7e69f632e8ad9a1e01c8ff0cfe1f9fdb0765f0bdfc111764e0d",
    "restoring": "661504e4c6170e54da4e98768529134fe555f6877c787d3cc3b88ec39a8e7910",
}


@pytest.mark.parametrize("name", sorted(PINNED_RENDERS))
def test_streams_without_a_bias_draw_are_pinned(name):
    league = sd.default_league(
        n_teams=6, n_games=300, rate=0.003, point_values={2: 0.3, 3: 0.7}, seed=44
    )
    if name == "ideal":
        games = sd.ideal_corpus(sd.builtin_config("nba"), 0.03, 300, seed=3)
    elif name == "league":
        games = sd.generate_league(league)
    else:
        games = sd.generate_restoring_league(league, -0.01)
    digest = hashlib.sha256(sd.render_event_file(games).encode()).hexdigest()
    assert digest == PINNED_RENDERS[name]


class TestRekeyedSubstreams:
    @pytest.mark.parametrize(
        "seed, index", [(0, 0), (41, 1234), (-1, 2**64 - 1), (-(2**40), 7), (2**64 + 5, 3)]
    )
    def test_rekey_matches_fresh_substream(self, seed, index):
        rng = sd.substream(9, 9)
        rng.random(3)
        rng.integers(0, 10, 5)  # leaves a buffered 32-bit half behind
        sd.rng.rekeyer(rng, seed)(index)  # the re-key state masks its key words to 64 bits
        fresh = sd.substream(seed % 2**64, index % 2**64)
        np.testing.assert_array_equal(rng.random(7), fresh.random(7))
        np.testing.assert_array_equal(rng.integers(0, 1000, 9), fresh.integers(0, 1000, 9))
        samples = np.array([0.1, 0.5, 0.9])
        np.testing.assert_array_equal(rng.choice(samples, 5), fresh.choice(samples, 5))

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, -3])
    def test_one_rekey_state_serves_a_batch(self, seed):
        """One re-key state, moved from game to game as a batch moves it, puts
        each game at the start of `substream(seed, i)`, whatever the game
        before it drew."""
        rng = sd.substream(seed % 2**64, 0)
        rekey = sd.rng.rekeyer(rng, seed)
        for index in (0, 1, 1023, 2**64 - 1, 7, 0):
            rekey(index)
            fresh = sd.substream(seed % 2**64, index)
            np.testing.assert_array_equal(rng.random(5), fresh.random(5))
            np.testing.assert_array_equal(rng.integers(0, 10, 3), fresh.integers(0, 10, 3))

    @pytest.mark.parametrize("seed, index, error, refusal", [
        (-1, 0, ValueError, r"seed must be in \[0, 2\*\*64\), got -1"),
        (2**64 + 5, 0, ValueError, r"seed must be in \[0, 2\*\*64\), got 18446744073709551621"),
        (0, -1, ValueError, r"index must be in \[0, 2\*\*64\), got -1"),
        (0, 2**64, ValueError, r"index must be in \[0, 2\*\*64\), got 18446744073709551616"),
        (True, 0, TypeError, "'bool' object cannot be interpreted as an integer"),
        (0, False, TypeError, "'bool' object cannot be interpreted as an integer"),
        (1.5, 0, TypeError, "'float' object cannot be interpreted as an integer"),
    ])
    def test_substream_refuses_a_key_outside_64_bits(self, seed, index, error, refusal):
        # no key wraps onto another's stream: -1 is not 2**64 - 1, nor True 1
        with pytest.raises(error, match=f"^{refusal}$"):
            sd.substream(seed, index)

    @pytest.mark.parametrize("tempo_kind,balance_kind", CELLS)
    def test_extreme_keys_match_per_game_generators(self, nfl_like, tempo_kind, balance_kind):
        spec = cell_spec(nfl_like, tempo_kind, balance_kind, seed=2**64 - 5)
        last = 2**64 - 1
        assert_same_corpus(
            [sd.simulate_game(spec, i) for i in (0, 3, last)],
            [ref_game(spec, i) for i in (0, 3, last)],
        )


def one_event_spec(g, tempo_kind="bernoulli", balance_kind="bernoulli"):
    """One unit event at second g of TINY, won by either side with probability 1/2."""
    spec = flat_spec(0.01, balance_kind=balance_kind)
    profile = np.zeros(601)
    profile[g] = 1.0
    tempo = dataclasses.replace(
        spec.tempo,
        profile=profile,
        interarrival_gaps=np.array([g]),
        interarrival_probs=np.array([1.0]),
    )
    balance = dataclasses.replace(spec.balance, c_hat_samples=np.array([0.0, 1.0]))
    return dataclasses.replace(spec, tempo=tempo, balance=balance, tempo_kind=tempo_kind)


class TestGridConvention:
    """An event at second g counts at grid time g; the last lead holds to T."""

    G = 120  # a grid second for sample_every=60

    def expected(self, times):
        return np.where(times >= self.G, 1.0, 0.0)

    def test_lead_dispersion(self):
        games = [sd.GameLog(f"g{s}", "custom", [self.G], [s], [1]) for s in (1, -1)]
        times, sd_lead = sd.lead_dispersion(games, 600, 60)
        np.testing.assert_array_equal(sd_lead, self.expected(times))

    @pytest.mark.parametrize("balance_kind", ["bernoulli", "markov"])
    def test_exact_lead_sd(self, balance_kind):
        times, sd_lead = sd.exact_lead_sd(one_event_spec(self.G, balance_kind=balance_kind))
        np.testing.assert_array_equal(sd_lead, self.expected(times))

    def test_exact_lead_sd_markov_tempo(self):
        # gaps of exactly 360: one event at 360, the next (720) is past T;
        # the renewal law carries FFT round-off, hence the tolerance
        spec = one_event_spec(360, tempo_kind="markov")
        times, sd_lead = sd.exact_lead_sd(spec)
        assert sd_lead[0] == 0.0
        np.testing.assert_allclose(sd_lead, np.where(times >= 360, 1.0, 0.0), atol=1e-12)


class TestExactLeadSd:
    def test_fair_unit_walk_flat_profile(self):
        # Var(L_t) = E[N_t] = p t for fair unit steps, profile p on seconds 1..t
        p = 0.01
        for balance_kind in ("bernoulli", "markov"):
            times, sd_lead = sd.exact_lead_sd(flat_spec(p, balance_kind=balance_kind), 50)
            np.testing.assert_allclose(sd_lead, np.sqrt(p * times), rtol=1e-12)

    def test_deterministic_gaps(self):
        # gaps of 7: N(t) = floor(t / 7) events, and Var(L_t) = N(t)
        base = flat_spec(0.01, balance_kind="markov")
        tempo = dataclasses.replace(
            base.tempo, interarrival_gaps=np.array([7]), interarrival_probs=np.array([1.0])
        )
        spec = dataclasses.replace(base, tempo=tempo, tempo_kind="markov")
        times, sd_lead = sd.exact_lead_sd(spec, 10)
        np.testing.assert_allclose(sd_lead, np.sqrt(times // 7), rtol=1e-12)

    def test_zero_profile_gives_zero_sd(self, nfl_like):
        config, tempo, balance = nfl_like
        silent = dataclasses.replace(tempo, profile=np.zeros_like(tempo.profile))
        for balance_kind in ("bernoulli", "markov"):
            spec = sd.ModelSpec("bernoulli", balance_kind, silent, balance, config, seed=5)
            times, sd_lead = sd.exact_lead_sd(spec)
            assert np.array_equal(sd_lead, np.zeros(len(times)))

    @pytest.mark.parametrize("fitted_name", ["nfl_like", "nba_like"])
    @pytest.mark.parametrize("tempo_kind,balance_kind", CELLS)
    def test_matches_monte_carlo(
        self, request, monkeypatch, fitted_name, tempo_kind, balance_kind
    ):
        # Monte Carlo oracle: the variance of the lead over 20k simulated
        # games, with sigma from those games' own per-game L and L^2
        spec = cell_spec(request.getfixturevalue(fitted_name), tempo_kind, balance_kind)
        simulated = []
        simulate_batches = sd.simulate.simulate_batches

        def keep(spec, n_games):
            for batch in simulate_batches(spec, n_games):
                simulated.append(batch)
                yield batch

        n_games = 20_000
        monkeypatch.setattr(sd.simulate, "simulate_batches", keep)
        times_mc, sd_mc = sd.lead_variance_curve(spec, n_games=n_games)
        times, sd_exact = sd.exact_lead_sd(spec)
        np.testing.assert_array_equal(times, times_mc)
        assert sd_exact[0] == 0.0 and np.all(np.isfinite(sd_exact))

        corpus = sd.Corpus.concat(simulated)
        assert len(corpus) == n_games
        game, event_times, signed = corpus.game, corpus.times, corpus.signed
        T = spec.config.regulation_length
        for t in (T // 4, T // 2, 3 * T // 4, T):
            i = int(np.searchsorted(times, t))
            assert times[i] == t
            lead = np.bincount(game, signed * (event_times <= t), minlength=n_games)
            sigma = np.std((lead - lead.mean()) ** 2) / math.sqrt(n_games)
            assert sd_mc[i] ** 2 == pytest.approx(lead.var(), rel=1e-9)
            z = (sd_exact[i] ** 2 - sd_mc[i] ** 2) / sigma
            assert abs(z) < 3, f"t={t}: z={z:.2f}"


def shifted_add_moments(phi, values, probs, n_cut):
    """E[L | n events] and E[L^2 | n] for n < n_cut from the lead law pi_0 P^n,
    `phi` laid out over leads -R..R with R = (n_cut - 1) max(values): one
    shifted add per value and winner, a move past +-R dropped (none happens).
    The markov moments were this loop before they ran `predict._lead_step`."""
    reach = len(phi) // 2
    leads = np.arange(-reach, reach + 1, dtype=float)
    pi = (leads == 0).astype(float)
    m1, m2 = np.zeros(n_cut), np.zeros(n_cut)
    for k in range(1, n_cut):
        up, down = pi * phi, pi * (1.0 - phi)
        pi = np.zeros_like(pi)
        for v, p in zip(values.tolist(), probs.tolist()):
            pi[v:] += p * up[:-v]
            pi[:-v] += p * down[v:]
        m1[k], m2[k] = leads @ pi, (leads * leads) @ pi
    return m1, m2


@pytest.fixture(scope="module")
def capped_custom():
    """Fair games of about 30 events on a custom sport with lead cap 3: their
    leads pass the cap, so the moments read phi clamped beyond it."""
    config = sd.SportConfig("custom", 600, (600,), {1: 0.5, 2: 0.5}, 3)
    games = sd.ideal_corpus(config, 0.05, 300, seed=36)
    assert max(np.abs(np.cumsum(g.signed_points)).max(initial=0) for g in games) > 3
    return config, sd.fit_tempo(games, config), sd.fit_balance(games, config, min_samples=20)


class TestLeadMomentsOracle:
    """The markov moments, one `_lead_step` per event, equal the shifted-add loop bit for bit."""

    @pytest.mark.parametrize("fitted_name", ["nfl_like", "nba_like", "dense_nhl", "capped_custom"])
    @pytest.mark.parametrize("tempo_kind", ["bernoulli", "markov"])
    def test_markov_moments(self, request, fitted_name, tempo_kind):
        config, tempo, balance = request.getfixturevalue(fitted_name)
        grid = np.arange(0, config.regulation_length + 1, 60)
        if tempo_kind == "bernoulli":
            n_cut = sd.predict._bernoulli_count_law(tempo.profile, grid).shape[1]
        else:
            n_cut = sd.predict._renewal_count_law(tempo, grid).shape[1]
        values, probs = point_pmf(balance)
        reach = (n_cut - 1) * int(values.max())
        assert reach > config.lead_truncation  # phi is read clamped beyond +-cap
        want = shifted_add_moments(sd.predict._phi_over(balance.phi, reach), values, probs, n_cut)
        got = sd.predict._markov_moments(balance.phi, values, probs, [n_cut])[n_cut]
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)


def point_pmf(balance):
    """(point values, their normalised pmf), as the exact lead laws read them."""
    values, probs = sd.predict._point_law(balance.point_values)
    return values, np.diff(sd.predict._cdf(probs), prepend=0.0)


def per_cell_markov_moments(balance, n_cut):
    """E[L | n events] and E[L^2 | n] for n < n_cut under markov balance, one
    `_lead_step` pass of its own over every lead -R..R, R = (n_cut - 1) max(values):
    each markov-balance cell's moments before both cells shared one banded pass."""
    values, probs = point_pmf(balance)
    reach = (n_cut - 1) * int(values.max())
    phi = sd.predict._phi_over(balance.phi, reach)
    leads = np.arange(-reach, reach + 1, dtype=float)
    pi = (leads == 0).astype(float)
    m1, m2 = np.zeros(n_cut), np.zeros(n_cut)
    for k in range(1, n_cut):
        pi = sd.predict._lead_step(pi, phi, values.tolist(), probs.tolist())
        m1[k], m2[k] = leads @ pi, (leads * leads) @ pi
    return m1, m2


@pytest.fixture(scope="module", params=sorted(LEAGUES))
def golden_fit(request):
    """(config, tempo, balance) fitted to the golden league of one sport."""
    games, config = league(request.param), sd.builtin_config(request.param)
    return config, sd.fit_tempo(games, config), sd.fit_balance(games, config)


class TestSharedMarkovPass:
    """One banded pass to the larger cut gives each cut the moments of a pass of its own, bit for bit."""

    @staticmethod
    def cut_pairs(config, tempo):
        """Both count laws' cuts on the 60 s grid, and equal and unequal pairs around them."""
        grid = np.arange(0, config.regulation_length + 1, 60)
        b = sd.predict._bernoulli_count_law(tempo.profile, grid).shape[1]
        m = sd.predict._renewal_count_law(tempo, grid).shape[1]
        return [(b, m), (b, b), (m, m), (b, b + 7), (2, m), (1, b), (1, 1)]

    def assert_shared_pass_is_per_cell(self, config, tempo, balance):
        values, probs = point_pmf(balance)
        for pair in self.cut_pairs(config, tempo):
            shared = sd.predict._markov_moments(balance.phi, values, probs, pair)
            assert sorted(shared) == sorted(set(pair))
            for n_cut in pair:
                for got, want in zip(shared[n_cut], per_cell_markov_moments(balance, n_cut)):
                    np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("fitted_name", ["nfl_like", "nba_like", "dense_nhl", "capped_custom"])
    def test_fitted_leagues(self, request, fitted_name):
        self.assert_shared_pass_is_per_cell(*request.getfixturevalue(fitted_name))

    def test_golden_leagues(self, golden_fit):
        self.assert_shared_pass_is_per_cell(*golden_fit)


class TestExactLeadSdGrid:
    """The 2x2 grid in one pass is the four single-cell curves, bit for bit."""

    @pytest.mark.parametrize("fitted_name", ["nfl_like", "nba_like"])
    @pytest.mark.parametrize("sample_every", [7, 10, 50, 60, 100, 120])
    def test_matches_single_cells(self, request, fitted_name, sample_every):
        fitted = request.getfixturevalue(fitted_name)
        config, tempo, balance = fitted
        times, curves = sd.exact_lead_sd_grid(tempo, balance, config, sample_every)
        assert list(curves) == CELLS
        for cell, got in curves.items():
            cell_times, want = sd.exact_lead_sd(cell_spec(fitted, *cell), sample_every)
            np.testing.assert_array_equal(times, cell_times)
            np.testing.assert_array_equal(got, want)

    def test_gapless_tempo_refused(self, nfl_like):
        config, tempo, balance = nfl_like
        gapless = dataclasses.replace(
            tempo, interarrival_gaps=np.array([], dtype=np.int64), interarrival_probs=np.array([])
        )
        message = "markov tempo needs a non-empty inter-arrival distribution"
        with pytest.raises(ValueError, match=message):
            sd.ModelSpec("markov", "markov", gapless, balance, config, seed=0)
        with pytest.raises(ValueError, match=message):
            sd.exact_lead_sd_grid(gapless, balance, config)

    def test_empty_balance_fractions_refused(self, nfl_like):
        config, tempo, balance = nfl_like
        no_c = dataclasses.replace(balance, c_hat_samples=np.array([]))
        message = "bernoulli balance needs at least one fitted balance fraction"
        with pytest.raises(ValueError, match=message):
            sd.ModelSpec("bernoulli", "bernoulli", tempo, no_c, config, seed=0)
        with pytest.raises(ValueError, match=message):
            sd.exact_lead_sd_grid(tempo, no_c, config)

    def test_model_that_does_not_fit_the_config_refused(self, nfl_like):
        config, tempo, balance = nfl_like
        wider = dataclasses.replace(config, lead_truncation=config.lead_truncation + 1)
        message = "balance model and sport config disagree on lead truncation"
        with pytest.raises(ValueError, match=message):
            sd.ModelSpec("bernoulli", "markov", tempo, balance, wider, seed=0)
        with pytest.raises(ValueError, match=message):
            sd.exact_lead_sd_grid(tempo, balance, wider)

    def test_builds_no_sampling_table(self, nfl_like, monkeypatch):
        # the grid reads the fitted models, not a ModelSpec's draw tables
        monkeypatch.setattr(sd.simulate, "_guide", lambda cdf: pytest.fail("a guide was built"))
        config, tempo, balance = nfl_like
        sd.exact_lead_sd_grid(tempo, balance, config)

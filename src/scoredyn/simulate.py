"""Generative game models: the 2x2 grid of tempo and balance processes.

Tempo variants:
  * bernoulli: each second t hosts an event independently with the
    fitted per-second probability profile[t] (no memory),
  * markov: inter-arrival times are drawn iid from the fitted empirical
    gap distribution and the clock advances gap by gap; the event that
    overshoots regulation is discarded.

Balance variants:
  * bernoulli: one bias c is drawn per game, uniformly from the fitted
    per-game balance fractions, and every event goes to r with
    probability c,
  * markov: each event goes to r with probability phi(L) for the lead L
    held immediately before the event (phi clamped beyond the fitted
    range).

Event point values are always drawn iid from the fitted distribution.

Game i draws only from its own Philox substream keyed by (seed, i), so
corpora are bit-reproducible (a batch has one bit generator and one
re-key state, whose index word each game sets). Its draws, in this order,
are the reproducibility contract: the event times (`random(T + 1) <
profile`, or markov gap chunks of `random(size)`, refilled while the last
time is within regulation), `random(n)` for the n point values,
`random(n)` for the winners and one more double u. Under bernoulli
balance u picks the game's bias, `c_hat_samples[floor(u * m)]` for m
samples; the other balance rules leave it unread.

Philox is counter-based, so a game's k-th double does not depend on how
its draws are cut into calls. Each game therefore makes one draw of
first + 2q + 1 doubles into a batch buffer: `first` is the first time
draw (the T + 1 tempo uniforms or the first gap chunk), then the point
values and winners of q events and the bias double. q is the tempo's
`cover`, the event count a gap chunk is sized for (1.25 times the
expected count, plus 8; for markov tempo one less than the first chunk).
Times are cut from the buffer by one mask, and point values, winners and
biases by one gather each, and the buffer is freed before the games are
built. A game with more than q events is re-keyed and replayed call by
call in contract order; every game whose first gap chunk ends within
regulation is one. Gaps and point values come from a CDF built once per
model (the lookup `Generator.choice(p=...)` makes), read from a guide
table of values, and lead-dependent winners decide event k of every game
in lockstep.

Games come one batch (at most 1,024 games, and past one game at most
`_WORK_WORDS` doubles of draws) at a time: `simulate_batches` yields a
corpus per batch and keeps nothing of it, and `simulate_corpus` joins
those same batches. Every fair game (`ideal_game`, `ideal_corpus`, rate 0
included) and every synthetic league game runs one flat-rate law
(`_flat_law`) down the same path. `scoredyn simulate` writes each batch
as it is generated, so its memory is bounded by one batch, not by the
number of games.

The exact lead laws live in `predict`, which never loads this module;
`exact_lead_sd` reads one cell's, and `lead_variance_curve` is its Monte
Carlo twin.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from .core import _CHUNK_GAMES, _WORK_WORDS, Corpus, GameLog, SportConfig, _Record
from .core import _clock_grid, _count, _probability, _seconds
from .estimate import BalanceModel, LeadScoring, LinearFit, TempoModel, _dispersion
from .estimate import lead_dispersion  # noqa: F401  (kept as a module attribute for tracing hooks)
from .predict import BalanceKind, TempoKind, _cdf, _check_cell, _phi_over, _point_law
from .predict import _exact_lead_sds
from .rng import check_seed, rekeyer, substream

_GUIDE_BITS = 12  # a guide table splits [0, 1) into 2**12 buckets


def _guide(cdf: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Per bucket [b, b + 1) / 2**_GUIDE_BITS of [0, 1): `support[cdf.searchsorted(u,
    "right")]` where the search is the same for every u in the bucket, else -1
    (support values are >= 0)."""
    edges = np.arange((1 << _GUIDE_BITS) + 1) / (1 << _GUIDE_BITS)
    low = cdf.searchsorted(edges[:-1], "right")
    high = cdf.searchsorted(np.nextafter(edges[1:], 0.0), "right")
    return np.where(low == high, support[low], -1)


def _guided_search(cdf: np.ndarray, guide: np.ndarray, support, u: np.ndarray) -> np.ndarray:
    """`support[cdf.searchsorted(u, "right")]` for u in [0, 1) (any shape), read
    from `_guide(cdf, support)` and searched only where the bucket is ambiguous."""
    bucket = np.multiply(u, 1 << _GUIDE_BITS, out=np.empty(u.shape, np.intp), casting="unsafe")
    values = guide.take(bucket)  # the bucket is exact: a power-of-two scale, truncated
    ambiguous = values < 0
    values[ambiguous] = support[cdf.searchsorted(u[ambiguous], "right")]
    return values


class _Pmf:
    """Draws from a finite pmf the way `Generator.choice(support, p=probs)`
    does, with one uniform each: a search of the normalised CDF."""

    def __init__(self, support, probs) -> None:
        self.support = np.asarray(support)
        self.cdf = _cdf(probs)
        self.guide = _guide(self.cdf, self.support)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return _guided_search(self.cdf, self.guide, self.support, u)


def _chunk_size(expected: float) -> int:
    """Gaps drawn at once when `expected` events remain: 1.25 times as many, plus slack."""
    return max(16, int(expected * 1.25) + 8)


class _ProfileTempo:
    """Event seconds under per-second independent scoring probabilities. The
    first draw is all T + 1 uniforms, so there is never a refill; it covers
    the point values and winners of as many events as a gap chunk would
    hold for the expected count."""

    def __init__(self, profile: np.ndarray) -> None:
        self.profile = profile
        self.first = len(profile)
        self.cover = _chunk_size(float(profile.sum()))

    def first_times(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(second of each uniform, whether it is an event) for rows of games."""
        return np.broadcast_to(np.arange(self.first), u.shape), u < self.profile

    def replay(self, rng: np.random.Generator) -> np.ndarray:
        return (rng.random(self.first) < self.profile).nonzero()[0]


class _GapTempo:
    """Event seconds from iid resampled gaps, the first anchored at t = 0; the
    event past `horizon` is dropped, not clipped. Gaps are >= 1, so times
    increase, and a chunk of gaps whose every time is within `horizon` is
    followed by another: the first chunk covers one event fewer than it
    holds."""

    def __init__(self, gaps: _Pmf, mean_gap: float, horizon: int) -> None:
        self.gaps, self.mean_gap, self.horizon = gaps, mean_gap, horizon
        self.first = _chunk_size(horizon / mean_gap)
        self.cover = self.first - 1

    def first_times(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(time, whether it is within regulation) of each first-chunk gap, for rows of games."""
        times = np.cumsum(gaps := self.gaps(u), axis=1, out=gaps)  # in place: no second table
        return times, times <= self.horizon

    def replay(self, rng: np.random.Generator) -> np.ndarray:
        parts = []
        t = 0
        while True:
            size = _chunk_size((self.horizon - t) / self.mean_gap)
            cs = t + self.gaps(rng.random(size)).cumsum()
            cut = int(cs.searchsorted(self.horizon, "right"))
            parts.append(cs[:cut])
            if cut < size:
                return np.concatenate(parts)
            t = int(cs[-1])


class _Law(_Record, eq=False):
    """A generative law: one bias per game (drawn from `c_samples` or fixed
    per game index in `c_fixed`) or `phi` over every reachable lead."""

    seed: int
    tempo: _ProfileTempo | _GapTempo
    points: _Pmf
    c_samples: np.ndarray | None = None
    c_fixed: np.ndarray | None = None
    phi: np.ndarray | None = None


class ModelSpec(_Record, eq=False):
    """One cell of the tempo x balance model grid, its seed and its sampling tables."""

    tempo_kind: TempoKind = TempoKind
    balance_kind: BalanceKind = BalanceKind
    tempo: TempoModel = TempoModel._instance
    balance: BalanceModel = BalanceModel._instance
    config: SportConfig = SportConfig._instance
    seed: int = check_seed

    def _check(self) -> None:
        _check_cell(self.tempo_kind, self.balance_kind, self.tempo, self.balance, self.config)

    @cached_property
    def _law(self) -> _Law:  # the cell's sampling tables, built on the first draw
        tempo, balance = self.tempo, self.balance
        if self.tempo_kind is TempoKind.BERNOULLI:
            times = _ProfileTempo(tempo.profile)
        else:
            gaps = _Pmf(tempo.interarrival_gaps, tempo.interarrival_probs)
            times = _GapTempo(gaps, tempo.mean_gap, tempo.regulation_length)
        if self.balance_kind is BalanceKind.BERNOULLI:
            rule = {"c_samples": balance.c_hat_samples}
        else:
            reach = _reach(tempo.regulation_length, balance.point_values)
            rule = {"phi": _phi_over(balance.phi, reach)}
        return _Law(self.seed, times, _point_pmf(balance.point_values), **rule)


def _reach(regulation_length: int, point_values: Mapping[int, float]) -> int:
    """The largest lead a game can reach: at most one event per second of
    [0, T], each worth at most the largest point value."""
    return (regulation_length + 1) * max(point_values)


def _point_pmf(point_values: Mapping[int, float]) -> _Pmf:
    return _Pmf(*_point_law(point_values))


def _lead_dependent_teams(phi, offsets, points, u) -> np.ndarray:
    """Winners when r takes each event with probability phi(lead before it),
    phi covering every reachable lead. Step k decides event k of every game
    that has one (lockstep): the loop is as long as the longest game."""
    counts = np.diff(offsets)
    order = np.argsort(-counts, kind="stable")
    at = offsets[:-1][order]  # each game's next event, in place of its first
    # active[k] games have more than k events; they come first in `order`
    active = np.searchsorted(-counts[order], -np.arange(counts.max(initial=0)), side="left")
    teams = np.empty(len(u), dtype=np.int8)
    row = np.full(len(at), len(phi) // 2, dtype=np.int64)  # phi's row for the lead
    for m in active.tolist():
        idx, rows = at[:m], row[:m]
        team = (u.take(idx) < phi.take(rows)).view(np.int8) * 2 - 1  # +1 or -1 from the comparison
        teams[idx] = team
        rows += team * points.take(idx)
        idx += 1
    return teams


def _replay(law: _Law, rng: np.random.Generator, index: int):
    """Game `index`'s (times, point uniforms, winner uniforms, bias uniform),
    drawn call by call in contract order (a rare game: it re-keys alone)."""
    rekeyer(rng, law.seed)(index)
    times = law.tempo.replay(rng)
    return times, rng.random(len(times)), rng.random(len(times)), rng.random()


def _splice(column: np.ndarray, replayed, at: np.ndarray) -> np.ndarray:
    """`column` with the concatenated `replayed` segments placed where `at` is set."""
    out = np.empty(len(at), dtype=column.dtype)
    out[~at] = column
    out[at] = np.concatenate(replayed)
    return out


def _sample_at(samples: np.ndarray, u: np.ndarray) -> np.ndarray:
    """`samples[floor(u * m)]`, m = len(samples): each sample with probability
    1/m for u uniform on [0, 1). In floating point floor(u * m) < m for every
    double u < 1 and integer m < 2**53."""
    return samples[(u * len(samples)).astype(np.intp)]


def _batch_games(law: _Law, index: range, prefix: str, sport_id: str) -> Corpus:
    """Games `index` of `law` as one corpus: one draw per game into its row of
    a buffer, cut with one gather per column; games with more than q events
    replay. The batch has one bit generator and one re-key state."""
    first, q = law.tempo.first, law.tempo.cover
    u = np.empty((len(index), first + 2 * q + 1))
    rng = substream(law.seed, index.start)
    rekey = rekeyer(rng, law.seed)
    for i, row in zip(index, u):
        rekey(i)
        rng.random(out=row)
    times, hit = law.tempo.first_times(u[:, :first])
    n = hit.sum(axis=1)
    replay = n > q
    n[replay] = 0
    hit[replay] = False
    times = times[hit].astype(np.int64, copy=False)
    starts = np.arange(len(n)) * u.shape[1] + first  # each row's first draw after the times'
    on = np.repeat(starts - np.cumsum(n) + n, n)
    on += np.arange(len(on))  # starts[g] + k, k < n[g]
    flat = u.reshape(-1)
    u_points = flat.take(on)
    on += np.repeat(n, n)
    u_winners, u_bias = flat.take(on), flat.take(starts + 2 * n)
    del u, flat, row, hit, on  # only the cuts are kept: the buffer (`row` too views it) is freed
    replayed = np.flatnonzero(replay)
    if len(replayed):
        draws = zip(*(_replay(law, rng, index[g]) for g in replayed.tolist()))
        times_r, u_points_r, u_winners_r, u_bias[replayed] = draws
        n[replayed] = [len(t) for t in times_r]
        at = np.repeat(replay, n)
        times = _splice(times, times_r, at)
        u_points = _splice(u_points, u_points_r, at)
        u_winners = _splice(u_winners, u_winners_r, at)
    if law.c_samples is not None:
        c = _sample_at(law.c_samples, u_bias)
    elif law.c_fixed is not None:
        c = law.c_fixed[index.start : index.stop]
    points = law.points(u_points)
    offsets = np.concatenate(([0], np.cumsum(n)))
    if law.phi is None:
        teams = (u_winners < c.repeat(n)).view(np.int8) * 2 - 1
    else:
        teams = _lead_dependent_teams(law.phi, offsets, points, u_winners)
    ids = list(map(f"{prefix}-%06d".__mod__, index))
    return Corpus._owning(ids, [sport_id] * len(ids), offsets, times, teams, points)


def _games(law: _Law, start: int, stop: int, prefix: str, sport_id: str) -> Iterator[Corpus]:
    """Games start..stop-1 of `law`, one corpus per batch, in order. Nothing of
    a batch is kept here, so it is freed once its consumer drops it."""
    row = law.tempo.first + 2 * law.tempo.cover + 1  # doubles of a game's one draw
    per_batch = max(1, min(_CHUNK_GAMES, _WORK_WORDS // row, stop - start))
    for lo in range(start, stop, per_batch):
        yield _batch_games(law, range(lo, min(lo + per_batch, stop)), prefix, sport_id)


def simulate_game(spec: ModelSpec, game_index: int = 0) -> GameLog:
    """Generate one game on substream (spec.seed, game_index), 0 <= game_index < 2**64."""
    return _game(spec._law, game_index, spec.config.sport_id)


def _game(law: _Law, game_index: int, sport_id: str) -> GameLog:
    game_index = check_seed(game_index, "game_index")
    (batch,) = _games(law, game_index, game_index + 1, "sim", sport_id)
    return batch[0]


def simulate_batches(spec: ModelSpec, n_games: int) -> Iterator[Corpus]:
    """The games of `simulate_corpus(spec, n_games)`, one corpus per batch of
    at most 1,024 games, generated as they are asked for."""
    return _games(spec._law, 0, _count("n_games", n_games, 0), "sim", spec.config.sport_id)


def simulate_corpus(spec: ModelSpec, n_games: int) -> Corpus:
    """Generate `n_games` independent games (substreams 0..n_games-1)."""
    return Corpus.concat(simulate_batches(spec, n_games))


def flat_profile(regulation_length: int, rate: float) -> np.ndarray:
    """Constant per-second event probability over seconds 1..T.

    Second 0 is the opening tick: games start tied at t = 0, so no event
    can have resolved there and the profile's first entry is zero (as in
    any fitted profile).
    """
    profile = np.full(_seconds(regulation_length, "regulation_length: ") + 1, float(rate))
    profile[0] = 0.0
    return profile


def _flat_law(seed: int, regulation_length: int, rate: float, point_values, **balance) -> _Law:
    """A law of constant event probability `rate` (`flat_profile`): fair games' and leagues'."""
    tempo = _ProfileTempo(flat_profile(regulation_length, rate))
    return _Law(seed, tempo, _point_pmf(point_values), **balance)


def _ideal_law(config: SportConfig, rate, seed) -> _Law:
    """`ideal_model(config, rate, seed)`'s law, at every rate in [0, 1]: fair games."""
    rate, seed = _probability("rate", rate), ModelSpec._converted("seed", seed)
    fair = {"c_samples": np.array([0.5])}
    return _flat_law(seed, config.regulation_length, rate, config.point_values, **fair)


def ideal_model(config: SportConfig, rate: float, seed: int = 0) -> ModelSpec:
    """Spec for an ideal competition at the given per-second event rate.

    Events arrive with constant probability `rate` per second, each is
    won by either team with probability 1/2, and values are iid from the
    sport's point distribution.
    """
    if not (rate := _probability("rate", rate)):
        raise ValueError("rate must be in (0, 1]")
    T = config.regulation_length
    cap = config.lead_truncation
    tempo = TempoModel(
        lambda_hat=rate,
        regulation_length=T,
        profile=flat_profile(T, rate),
        interarrival_gaps=np.array([], dtype=np.int64),
        interarrival_probs=np.array([]),
    )
    scoring = LeadScoring(
        phi=np.full(2 * cap + 1, 0.5),
        counts=np.zeros(2 * cap + 1, dtype=np.int64),
        fit=LinearFit(slope=0.0, intercept=0.5, slope_stderr=None, n_states=0),
    )
    balance = BalanceModel(
        c_hat_samples=np.array([0.5]),
        scoring=scoring,
        point_values=dict(config.point_values),
    )
    return ModelSpec(
        tempo_kind=TempoKind.BERNOULLI,
        balance_kind=BalanceKind.BERNOULLI,
        tempo=tempo,
        balance=balance,
        config=config,
        seed=seed,
    )


def ideal_game(config: SportConfig, rate: float, seed: int = 0, game_index: int = 0) -> GameLog:
    """Game `game_index` of `ideal_corpus`; rate 0 yields an empty game."""
    return _game(_ideal_law(config, rate, seed), game_index, config.sport_id)


def ideal_corpus(config: SportConfig, rate: float, n_games: int, seed: int = 0) -> Corpus:
    """`simulate_corpus(ideal_model(config, rate, seed), n_games)`; rate 0 yields empty games."""
    law = _ideal_law(config, rate, seed)
    return Corpus.concat(_games(law, 0, _count("n_games", n_games, 0), "sim", config.sport_id))


def exact_lead_sd(spec: ModelSpec, sample_every: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """(times, sd of lead) across games of `spec`, computed exactly on the
    grid of `lead_dispersion` (an event at second g counts at grid time g,
    and a game without events counts at lead 0): the curve of this cell in
    `exact_lead_sd_grid`. Event counts whose mass at T is below 1e-15 are dropped."""
    cells = [(spec.tempo_kind, spec.balance_kind)]
    grid, sds = _exact_lead_sds(spec.tempo, spec.balance, spec.config, cells, sample_every)
    return grid, sds[spec.tempo_kind.value, spec.balance_kind.value]


def lead_variance_curve(
    spec: ModelSpec, n_games: int = 100_000, sample_every: int = 60
) -> tuple[np.ndarray, np.ndarray]:
    """(times, sd of lead) over `n_games` simulated games of `spec`: the Monte
    Carlo twin of `exact_lead_sd`, on the same grid. Sums one batch of
    `simulate_batches` at a time, so memory is bounded by one batch."""
    n_games = _count("n_games", n_games, 1_000)  # fewer games give no stable dispersion estimate
    times = _clock_grid(spec.config.regulation_length, sample_every)
    return times, _dispersion(simulate_batches(spec, n_games), times)

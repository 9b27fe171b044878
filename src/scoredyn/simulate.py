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
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import _CHUNK_GAMES, _WORK_WORDS, Corpus, GameLog, SportConfig, _Record
from .core import _check_clock, _clock_grid, _count, _event_leads, _probability, _seconds
from .estimate import BalanceModel, LeadScoring, LinearFit, ModelArtifact, TempoModel
from .predict import _lead_step
from .rng import check_seed, rekeyer, substream

_GUIDE_BITS = 12  # a guide table splits [0, 1) into 2**12 buckets


class TempoKind(str, Enum):
    BERNOULLI = "bernoulli"
    MARKOV = "markov"


class BalanceKind(str, Enum):
    BERNOULLI = "bernoulli"
    MARKOV = "markov"


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
        """The cell runs: its models fit the config, and it has gaps or fractions to draw."""
        ModelArtifact(self.config, self.tempo, self.balance)
        if self.tempo_kind is TempoKind.MARKOV and not len(self.tempo.interarrival_gaps):
            raise ValueError("markov tempo needs a non-empty inter-arrival distribution")
        if self.balance_kind is BalanceKind.BERNOULLI and not len(self.balance.c_hat_samples):
            raise ValueError("bernoulli balance needs at least one fitted balance fraction")

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


def _phi_over(phi: np.ndarray, reach: int) -> np.ndarray:
    """`phi`, fitted on leads -cap..cap, laid out over leads -reach..reach:
    clamped beyond +-cap."""
    cap = len(phi) // 2
    return phi[np.clip(np.arange(-reach, reach + 1), -cap, cap) + cap]


def _cdf(probs: Sequence[float] | np.ndarray) -> np.ndarray:
    """The table `Generator.choice(p=probs)` searches with one uniform per draw."""
    cdf = np.asarray(probs, dtype=float).cumsum()
    cdf /= cdf[-1]
    return cdf


def _point_law(point_values: Mapping[int, float]) -> tuple[np.ndarray, list[float]]:
    """(point values in increasing order, their probabilities)."""
    values = np.array(sorted(point_values), dtype=np.int64)
    return values, [point_values[int(v)] for v in values]


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


def _lead_sums(offsets, times, signed, grid) -> np.ndarray:
    """Sums over games of lead and lead^2 at each grid second (2 rows), from
    a difference array over the grid slots each lead holds: O(events +
    grid) memory. Leads are integers, so the float sums are exact."""
    lead = _event_leads(offsets, signed)
    counts = np.diff(offsets)
    start = np.searchsorted(grid, times)
    end = np.empty_like(start)
    end[:-1] = start[1:]
    end[offsets[1:][counts > 0] - 1] = len(grid)  # a game's last lead holds to the end
    size = len(grid) + 1
    diffs = [np.bincount(start, w, size) - np.bincount(end, w, size) for w in (lead, lead * lead)]
    return np.cumsum(diffs, axis=1)[:, :-1]


def lead_dispersion(
    games: Sequence[GameLog], regulation_length: int, sample_every: int = 60
) -> tuple[np.ndarray, np.ndarray]:
    """(times, sd of lead) sampled on a regular grid; a game without events
    counts, at lead 0 throughout, and an event past the clock is refused."""
    corpus = Corpus.of(games)
    if not len(corpus):
        raise ValueError("lead dispersion needs at least one game")
    regulation_length = _seconds(regulation_length, "regulation_length: ")
    grid = _clock_grid(regulation_length, sample_every)
    _check_clock(corpus, regulation_length)
    return grid, _dispersion(corpus._slices(), grid)


def _dispersion(parts: Iterable[Corpus], grid: np.ndarray) -> np.ndarray:
    """The sd of lead on `grid` over the games of `parts`, summed one part at a time."""
    sums = np.zeros((2, len(grid)))
    n = 0
    for part in parts:
        sums += _lead_sums(part.offsets, part.times, part.signed, grid)
        n += len(part)
    mean = sums[0] / n
    return np.sqrt(np.maximum(sums[1] / n - mean**2, 0.0))


# exact_lead_sd drops the event counts n >= n_cut, n_cut the first n
# with P(N(T) >= n) below this.
_TAIL_MASS = 1e-15
# Tail entries below this are dropped from each block's count pmf (at most
# one per second) and from the top of the folded law.
_NEGLIGIBLE = 1e-30


def _bernoulli_count_law(profile: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """P(N(s) = n) for s on `grid` (rows) and n < n_cut (columns), N(s) the
    number of events in seconds 0..s. Every block's count pmf is built in
    lockstep, one update per second of a block, then the pmfs are folded
    in clock order, one `np.convolve` each. A block is second 0 or `width`
    seconds, the largest divisor of the grid step up to sqrt(T), so one
    ends at each grid time; a width of 1 is the per-second DP."""
    T, every = len(profile) - 1, int(grid[1])
    width = max(d for d in range(1, math.isqrt(T) + 1) if every % d == 0)
    # column b: the seconds of block b, which ends at second b * width, zero-padded
    p = np.pad(profile, (width - 1, -T % width)).reshape(-1, width).T.copy()
    q, blocks = 1.0 - p, p.shape[1]
    pmfs = np.zeros((width + 1, blocks))
    pmfs[0] = 1.0
    hi = np.ones(blocks, dtype=np.intp)  # pmfs[hi[b]:, b] is zero
    cols = np.arange(blocks)
    for k in range(width):
        pmf = pmfs[: int(hi.max()) + 1]
        pmf[1:] = pmf[1:] * q[k] + pmf[:-1] * p[k]  # times (1 - p + p z)
        pmf[0] *= q[k]
        small = pmfs[hi, cols] < _NEGLIGIBLE
        pmfs[hi[small], cols[small]] = 0.0
        hi += ~small
    dist, dists = np.ones(1), []
    for pmf, n in zip(pmfs.T.copy(), hi.tolist()):
        dist = np.convolve(dist, pmf[:n])
        while dist[-1] < _NEGLIGIBLE:
            dist = dist[:-1]
        dists.append(dist)
    at_least = np.append(np.cumsum(dist[::-1])[::-1], 0.0)  # P(N(T) >= n)
    law = np.zeros((len(grid), int(np.argmax(at_least < _TAIL_MASS))))
    for row, counts in zip(law, dists[:: every // width]):
        row[: len(counts)] = counts[: len(row)]
    return law


def _renewal_count_law(tempo: TempoModel, grid: np.ndarray) -> np.ndarray:
    """P(N(s) = n) for s on `grid` and n < n_cut under iid gaps, the first
    anchored at t = 0: P(N(s) >= n) = P(S_n <= s), with S_n's pmf the
    n-fold convolution of the gap pmf (one FFT product per n)."""
    T = tempo.regulation_length
    size = 1 << (2 * T + 1).bit_length()  # >= 2 (T + 1): no wrap-around
    gap_pmf = np.zeros(T + 1)
    keep = tempo.interarrival_gaps <= T
    gap_pmf[tempo.interarrival_gaps[keep]] = np.diff(
        _cdf(tempo.interarrival_probs), prepend=0.0
    )[keep]
    spectrum = np.fft.rfft(gap_pmf, size)
    at_least = [np.ones(len(grid))]  # P(N(s) >= 0)
    pmf, n = gap_pmf, 1
    while True:
        cdf = np.cumsum(pmf)
        at_least.append(cdf[grid])
        if cdf[-1] < _TAIL_MASS:
            break
        pmf = np.fft.irfft(np.fft.rfft(pmf, size) * spectrum, size)[: T + 1]
        n += 1
        pmf[:n] = 0.0  # S_n >= n, as gaps are >= 1; the rest is FFT round-off
        np.maximum(pmf, 0.0, out=pmf)
    at_least = np.column_stack(at_least)
    return at_least[:, :-1] - at_least[:, 1:]


def _bernoulli_moments(c_samples, values, probs, n_cut: int) -> tuple[np.ndarray, np.ndarray]:
    """E[L | n events] and E[L^2 | n] for n < n_cut when one bias c per game
    is drawn from `c_samples`: each event adds +-v with mean (2c - 1) E v."""
    b = 2.0 * np.asarray(c_samples) - 1.0
    mu, v2 = float(values @ probs), float(values**2 @ probs)
    n = np.arange(n_cut, dtype=float)
    return n * mu * b.mean(), n * v2 + n * (n - 1) * mu**2 * np.mean(b * b)


def _lead_moments(
    kind: BalanceKind, balance: BalanceModel, n_cut: int
) -> tuple[np.ndarray, np.ndarray]:
    """E[L | n events] and E[L^2 | n] for n < n_cut under balance rule `kind`,
    from the fitted model as the simulator reads it: the normalised point pmf,
    the per-game fractions, or phi clamped beyond +-cap (`_phi_over`) stepped
    by `_lead_step` over the leads -R..R, R = (n_cut - 1) max(values), which no lead passes."""
    values, probs = _point_law(balance.point_values)
    probs = np.diff(_cdf(probs), prepend=0.0)
    if kind is BalanceKind.BERNOULLI:
        return _bernoulli_moments(balance.c_hat_samples, values, probs, n_cut)
    reach = (n_cut - 1) * int(values.max())
    phi = _phi_over(balance.phi, reach)
    leads = np.arange(-reach, reach + 1, dtype=float)
    pi = (leads == 0).astype(float)
    m1, m2 = np.zeros(n_cut), np.zeros(n_cut)
    for k in range(1, n_cut):
        pi = _lead_step(pi, phi, values.tolist(), probs.tolist())
        m1[k], m2[k] = leads @ pi, (leads * leads) @ pi
    return m1, m2


def exact_lead_sd(spec: ModelSpec, sample_every: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """(times, sd of lead) across games of `spec`, computed exactly on the
    grid of `lead_dispersion`: an event at second g counts at grid time g,
    and a game without events counts at lead 0.

    The event-count law P(N(s) = n) (a DP over the tempo profile, or the
    renewal law of the gap distribution) is mixed with the lead moments
    after n events (closed form for bernoulli balance; pi_0 P^n by the chain's
    own step, phi clamped beyond +-cap as the simulator reads it, for markov
    balance). Event counts whose mass at T is below 1e-15 are dropped.
    """
    grid, sds = _exact_lead_sds([spec], sample_every)
    return grid, sds[spec.tempo_kind.value, spec.balance_kind.value]


def exact_lead_sd_grid(
    tempo: TempoModel, balance: BalanceModel, config: SportConfig, sample_every: int = 60
) -> tuple[np.ndarray, dict[tuple[str, str], np.ndarray]]:
    """(times, {(tempo kind, balance kind): sd of lead}) for the four cells of
    the model grid, in the order bb, bm, mb, mm: `exact_lead_sd` of each
    cell's `ModelSpec`, so it refuses what `ModelSpec` refuses for any cell."""
    cells = [ModelSpec(t, b, tempo, balance, config, 0) for t in TempoKind for b in BalanceKind]
    return _exact_lead_sds(cells, sample_every)


def _exact_lead_sds(specs: list[ModelSpec], sample_every: int):
    """(times, {(tempo kind, balance kind): sd of lead}) of `specs`, which share one config
    and tempo: each tempo kind's count law, once per run of cells, mixed with their moments."""
    grid, tempo = _clock_grid(specs[0].config.regulation_length, sample_every), specs[0].tempo
    sds = {}
    for tempo_kind, cells in groupby(specs, attrgetter("tempo_kind")):
        if tempo_kind is TempoKind.BERNOULLI:
            law = _bernoulli_count_law(tempo.profile, grid)
        else:
            law = _renewal_count_law(tempo, grid)
        for spec in cells:
            m1, m2 = _lead_moments(spec.balance_kind, spec.balance, law.shape[1])
            mean = law @ m1
            sds[tempo_kind.value, spec.balance_kind.value] = np.sqrt(
                np.maximum(law @ m2 - mean * mean, 0.0))
    return grid, sds


def lead_variance_curve(
    spec: ModelSpec, n_games: int = 100_000, sample_every: int = 60
) -> tuple[np.ndarray, np.ndarray]:
    """(times, sd of lead) over `n_games` simulated games of `spec`: the Monte
    Carlo twin of `exact_lead_sd`, on the same grid. Sums one batch of
    `simulate_batches` at a time, so memory is bounded by one batch."""
    n_games = _count("n_games", n_games, 1_000)  # fewer games give no stable dispersion estimate
    times = _clock_grid(spec.config.regulation_length, sample_every)
    return times, _dispersion(simulate_batches(spec, n_games), times)

"""Outcome prediction via an explicit Markov chain on the lead size, and
the exact lead laws of the fitted model.

A chain is a pair (`LeadChain`): phi over the leads -cap..+cap relative to
team r, whose odd length fixes the cap, and the point-value pmf. An event
worth k points moves lead L to L + k when r wins it and to L - k otherwise,
so with winner and value independent,

    P[L, L+k] = phi(L) * Pr(value = k)
    P[L, L-k] = (1 - phi(L)) * Pr(value = k).

That step is `_lead_step`, which has one edge rule (a move past the grid's
edge lands on it) and builds both P and the simulator's exact lead moments.
As r and b are interchangeable labels, phi(-L) = 1 - phi(L) and the chain
is mirror-symmetric, P[-L, -L'] = P[L, L']. A forecast from clock second t
runs the chain for the expected number of remaining events, the sum of the
per-second tempo profile over [t, T] (`_remaining_events`), rounded half to
even. Every forecast reads the n-step absorption probabilities from one
outcome table built by backward induction, win[0] = 1{lead > 0} and
win[n] = P @ win[n-1]; b's table is its exact mirror win[:, ::-1].

The same step gives the model's exact lead laws: `exact_lead_sd_grid`,
the sd of lead on a clock grid in each cell of the tempo x balance grid
(`TempoKind`, `BalanceKind`), mixes each tempo kind's event-count law
P(N(s) = n) with each balance kind's lead moments after n events (closed
form for bernoulli balance, pi_0 P^n by `_lead_step` for markov balance).
It reads the fitted models as the simulator does but never loads it.

Prediction quality is evaluated out of sample: on each random split the
model is refitted on 3/4 of the games, and on the held-out quarter the
winner is predicted after every scoring event, each forecast an array
lookup in the split's outcome table at (remaining events, lead). Split k
orders the games by a counter-based hash of (seed, k, game index)
(`rng.split_permutation`), so it depends only on (seed, k) and the number
of games, and evaluation never loads `numpy.random`.
The mean fraction of correct predictions per cumulative event index
(the AUC in the sense used throughout this package, 0.5 = chance) is
compared against the leader-wins heuristic.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    GameLog, SportConfig, _check_cap, _checked_corpus, _clock_grid, _count, _event_leads, _floats,
    _index, _ints, _number, _probabilities, _probability, _Record, _sums_to_one, _team,
    _validated_point_values,
)
from .estimate import BalanceModel, LeadScoring, ModelArtifact, TempoModel, _phi, _profile
from .estimate import _value_pmf
from .estimate import (  # noqa: F401  (kept as module attributes for tracing hooks)
    lead_scoring_function,
    point_value_distribution,
    tempo_profile,
)
from .rng import split_permutation

# Share of each split's games that the model is refitted on.
TRAIN_FRACTION = 0.75


class LeadChain(_Record, eq=False):
    """The lead chain of phi over the leads -cap..cap, read as `LeadScoring.phi` is,
    and of the point-value pmf, whose largest value the cap must cover."""

    phi: np.ndarray = _probabilities
    point_values: Mapping[int, float] = _validated_point_values

    def _check(self) -> None:
        LeadScoring._shape(self.phi)
        _check_cap(self.cap, self.point_values)

    @cached_property
    def transition(self) -> np.ndarray:
        """P over the leads -cap..cap, built on first read: `_lead_step` of the
        leads 0..cap, the rest their mirror, so P[-L, -L'] = P[L, L'] to the last bit."""
        leads = np.eye(self.cap + 1, len(self.phi), self.cap)  # the leads 0..cap
        upper = _lead_step(leads, self.phi, *zip(*self.point_values.items()))
        P = np.concatenate((upper[:0:-1, ::-1], upper))  # the leads -cap..-1 mirror 1..cap
        P.flags.writeable = False
        return P

    @property
    def cap(self) -> int:
        return len(self.phi) // 2

    @property
    def states(self) -> np.ndarray:
        return np.arange(-self.cap, self.cap + 1)

    def state_index(self, lead: int) -> int:
        lead = _index(lead)
        if abs(lead) > self.cap:
            raise ValueError(f"lead {lead} outside truncation +-{self.cap}")
        return lead + self.cap


def _lead_step(dist: np.ndarray, phi: np.ndarray, values, probs) -> np.ndarray:
    """`dist`, distributions over the leads of `phi`'s grid (its last axis), after one
    event worth each of `values` with its chance in `probs`: r takes it with chance
    phi(L) and moves L up by the value, else b moves L down. A move to or past the
    grid's edge lands there, the edge's mass summed in the order of `values`."""
    up, down = dist * phi, dist * (1.0 - phi)
    out = np.zeros_like(dist)
    for v, p in zip(values, probs):
        out[..., v:-1] += p * up[..., : -v - 1]
        out[..., 1:-v] += p * down[..., v + 1 :]
    for edge, sources in ((-1, up[..., ::-1]), (0, down)):  # the sources nearest the edge first
        reaching = np.cumsum(sources[..., : max(values) + 1], axis=-1)[..., values]
        out[..., edge] = np.cumsum(reaching * probs, axis=-1)[..., -1]
    return out


class TempoKind(str, Enum):
    BERNOULLI = "bernoulli"
    MARKOV = "markov"


class BalanceKind(str, Enum):
    BERNOULLI = "bernoulli"
    MARKOV = "markov"


def _check_cell(tempo_kind, balance_kind, tempo, balance, config) -> None:
    """A cell of the grid runs: its models fit the config, and it has gaps or fractions to draw."""
    ModelArtifact(config, tempo, balance)
    if tempo_kind is TempoKind.MARKOV and not len(tempo.interarrival_gaps):
        raise ValueError("markov tempo needs a non-empty inter-arrival distribution")
    if balance_kind is BalanceKind.BERNOULLI and not len(balance.c_hat_samples):
        raise ValueError("bernoulli balance needs at least one fitted balance fraction")


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


def _markov_moments(phi, values, probs, cuts: Iterable[int]) -> dict:
    """{n_cut: (E[L | n events], E[L^2 | n] for n < n_cut)} for each n_cut of
    `cuts` under markov balance: pi_0 P^n by `_lead_step`, phi clamped beyond
    +-cap as the simulator reads it (`_phi_over`), over the leads -R..R,
    R = (max cut - 1) max(values). One pass serves every cut. The lead after
    k events lies within +-k max(values), so step k runs only on the band one
    lead wider, and a cut reads its own leads -r..r, r = (n_cut - 1) max(values),
    which hold what a pass on those leads alone would hold."""
    top, cuts = int(values.max()), sorted(set(cuts))
    reach = (max(cuts, default=1) - 1) * top
    phi, pi = _phi_over(phi, reach), np.zeros(2 * reach + 1)
    pi[reach] = 1.0
    reads = []  # per cut: its leads, their slice of pi, and its two moment rows
    for cut in cuts:
        r = (cut - 1) * top
        leads = np.arange(-r, r + 1, dtype=float)
        reads.append((leads, leads * leads, slice(reach - r, reach + r + 1), np.zeros((2, cut))))
    values, probs = values.tolist(), probs.tolist()
    for k in range(1, max(cuts, default=1)):
        half = min(k * top + 1, reach)
        band = slice(reach - half, reach + half + 1)
        pi[band] = _lead_step(pi[band], phi[band], values, probs)
        for leads, squares, own, m in reads:
            if k < m.shape[1]:
                m[:, k] = leads @ pi[own], squares @ pi[own]
    return {m.shape[1]: (m[0], m[1]) for *_, m in reads}


def exact_lead_sd_grid(
    tempo: TempoModel, balance: BalanceModel, config: SportConfig, sample_every: int = 60
) -> tuple[np.ndarray, dict[tuple[str, str], np.ndarray]]:
    """(times, {(tempo kind, balance kind): sd of lead}) for the four cells of
    the model grid, in the order bb, bm, mb, mm: `simulate.exact_lead_sd` of
    each cell, and refused as any cell's `ModelSpec` refuses the models."""
    cells = [(t, b) for t in TempoKind for b in BalanceKind]
    for cell in cells:
        _check_cell(*cell, tempo, balance, config)
    return _exact_lead_sds(tempo, balance, config, cells, sample_every)


def _exact_lead_sds(tempo, balance, config, cells, sample_every: int):
    """(times, {(tempo kind, balance kind): sd of lead}) of `cells`, which share
    their models: each tempo kind's count law once, mixed with the moments of
    each cell's balance rule, the markov ones from one pass to the largest cut."""
    grid = _clock_grid(config.regulation_length, sample_every)
    laws = {t: _bernoulli_count_law(tempo.profile, grid) if t is TempoKind.BERNOULLI
            else _renewal_count_law(tempo, grid) for t in dict.fromkeys(t for t, _ in cells)}
    values, probs = _point_law(balance.point_values)
    probs = np.diff(_cdf(probs), prepend=0.0)
    cuts = [laws[t].shape[1] for t, b in cells if b is BalanceKind.MARKOV]
    markov = _markov_moments(balance.phi, values, probs, cuts)
    sds = {}
    for t, b in cells:
        law = laws[t]
        if b is BalanceKind.BERNOULLI:
            m1, m2 = _bernoulli_moments(balance.c_hat_samples, values, probs, law.shape[1])
        else:
            m1, m2 = markov[law.shape[1]]
        mean = law @ m1
        sds[t.value, b.value] = np.sqrt(np.maximum(law @ m2 - mean * mean, 0.0))
    return grid, sds


class OutcomeForecast(_Record):
    """Probabilities that r wins, the game ties, and b wins."""

    p_win_r: float = _probability
    p_tie: float = _probability
    p_win_b: float = _probability

    def _check(self) -> None:
        _sums_to_one("forecast probabilities", self._values())


def build_chain(phi: np.ndarray | Sequence[float], point_values: Mapping[int, float]) -> LeadChain:
    """`LeadChain(phi, point_values)`, refused in its words; its matrix is built when first read."""
    return LeadChain(phi, point_values)


def _remaining_events(profile: np.ndarray) -> np.ndarray:
    """Expected scoring events from each second t through T, t included."""
    return np.cumsum(_probabilities("profile", profile)[::-1])[::-1]


def _steps(n_events):
    """Chain steps for expected event counts (a number or an array), each finite,
    nonnegative and below 2**63 (so its steps fit in int64): rounded half to even."""
    x = np.asarray(n_events, dtype=float)
    if not (ok := (0 <= x) & (x < 2.0**63)).all():
        raise ValueError(f"n_events must be finite, nonnegative and below 2**63, got {x[~ok][0]}")
    return np.rint(x).astype(np.int64)


def expected_remaining_events(profile: np.ndarray, t: int) -> float:
    """Expected number of scoring events from second t through T."""
    remaining = _remaining_events(profile)
    t, T = _index(t), len(remaining) - 1
    if not 0 <= t <= T:
        raise ValueError(f"time {t} outside [0, {T}]")
    return float(remaining[t])


def forecast_after_events(chain: LeadChain, lead: int, n_events: float) -> OutcomeForecast:
    """Win/tie/loss probabilities after `_steps(n_events)` chain steps.

    The number of transitions is real-valued (an expected event count)
    and is rounded half to even to a whole number of steps, as eval rounds.
    The answer is the last row of `outcome_table(chain, steps)`, read at
    `lead` for r and at `-lead` for b.
    """
    steps = int(_steps(_number(n_events)))
    idx = chain.state_index(lead)
    win = outcome_table(chain, steps)[-1]
    # rows of P can sum a few ulp over 1, so a win can read a few ulp over 1
    # and the tie's complement a few ulp below 0
    p_win_r, p_win_b = min(1.0, float(win[idx])), min(1.0, float(win[-1 - idx]))
    p_tie = max(0.0, 1.0 - (p_win_r + p_win_b))
    return OutcomeForecast(p_win_r=p_win_r, p_tie=p_tie, p_win_b=p_win_b)


def forecast(
    chain: LeadChain, lead: int, t: int, profile: np.ndarray
) -> OutcomeForecast:
    """Forecast the outcome from lead `lead` at clock second `t`."""
    return forecast_after_events(chain, lead, expected_remaining_events(profile, t))


def leader_wins(lead: int) -> str | None:
    """Baseline prediction: the current leader wins; abstain (scored 1/2) at a tie."""
    return _team(lead)


class PredictabilityCurve(_Record, eq=False):
    """Mean correct-prediction fraction per cumulative event index."""

    event_index: np.ndarray = _ints
    auc_chain: np.ndarray = _floats
    auc_leader: np.ndarray = _floats
    n_games_scored: np.ndarray = _ints

    def _check(self) -> None:
        self._same_length("event_index", "auc_chain", "auc_leader", "n_games_scored")


def outcome_table(chain: LeadChain, max_steps: int) -> np.ndarray:
    """r's win probability for every step count and start lead.

    Returns `win` of shape (max_steps + 1, 2 * cap + 1): `win[n, L + cap]`
    is the probability that r leads after n chain steps from lead L. Built
    by backward induction, win[n] = P @ win[n-1] from win[0] = 1{lead > 0}.
    The chain is mirror-symmetric, so b's table is the exact mirror
    win[:, ::-1], equal to r's bit for bit at lead 0.
    """
    max_steps = _count("max_steps", max_steps, 0)
    # a (2 * cap + 1, 1) column on the right of each product, not a 1-D vector:
    # a vector can run another BLAS kernel, whose last bits need not match
    table = np.empty((max_steps + 1, len(chain.transition), 1))
    table[0, :, 0] = chain.states > 0
    for n in range(1, max_steps + 1):
        table[n] = chain.transition @ table[n - 1]
    return table[:, :, 0]


def evaluate_predictability(
    games: Sequence[GameLog],
    config: SportConfig | None = None,
    n_splits: int = 20,
    seed: int = 0,
    tie_mode: str = "exclude",
) -> PredictabilityCurve:
    """Out-of-sample winner-prediction accuracy per cumulative event index.

    Split k takes the first `TRAIN_FRACTION` of games in the order
    `split_permutation(seed, k, len(games))` for training, so it depends
    only on (seed, k) and the number of games; `seed` must lie in
    [0, 2**64). For each split, phi, the point-value pmf, and the tempo
    profile are refitted from the training games' events, masked out of
    the corpus's one event layout. Every held-out game is forecast at the
    clock time and lead immediately after each of its events, with leads
    clipped to the chain's +-cap; the scored events are gathered from the
    held-out games' ranges of the layout, so scoring a split costs its
    test events. An event past the config's regulation length raises
    ValueError. Forecasts are read
    from the split's `outcome_table` at the steps that `forecast` takes.
    Exactly tied win probabilities, like the leader-wins baseline's
    abstention at a tied lead, score 1/2. Chain and leader-wins scores
    are averaged per event index over the split's games, then averaged
    across splits.

    `tie_mode` controls regulation ties in the test set: "exclude" drops
    them from scoring (default) and "half" keeps them, crediting every
    prediction on them 1/2.
    """
    if tie_mode not in ("exclude", "half"):
        raise ValueError("tie_mode must be 'exclude' or 'half'")
    n_splits = _count("n_splits", n_splits, 1)
    corpus, cfg = _checked_corpus(games, config)
    if len(corpus) < 2:
        raise ValueError("need at least two games to split")
    cap, T = cfg.lead_truncation, cfg.regulation_length
    n_train = int(round(TRAIN_FRACTION * len(corpus)))
    n_train = min(max(n_train, 1), len(corpus) - 1)

    # Every event of the corpus: its game, clock second and the lead
    # right after it.
    offsets, signed = corpus.offsets, corpus.signed
    event_game, event_time = corpus.game, corpus.times
    n_events = corpus.event_counts
    max_events = int(n_events.max())
    event_lead = _event_leads(offsets, signed)
    lead_before = event_lead - signed
    winner_sign = np.sign(np.bincount(event_game, signed, len(corpus)))
    scorable = (n_events > 0) & ((winner_sign != 0) | (tie_mode == "half"))
    event_col = np.clip(event_lead, -cap, cap) + cap

    chain_sums = np.zeros((n_splits, max_events))
    leader_sums = np.zeros((n_splits, max_events))
    counts = np.zeros((n_splits, max_events), dtype=np.int64)

    for split in range(n_splits):
        order = split_permutation(seed, split, len(corpus))
        in_test = np.zeros(len(corpus), dtype=bool)
        in_test[order[n_train:]] = True

        train = ~in_test[event_game]  # the training games' events
        phi = _phi(lead_before[train], signed[train], cap)[0]
        pmf = _value_pmf(corpus.points[train])
        profile = _profile(event_time[train], n_train, T)
        steps_of_t = _steps(_remaining_events(profile))
        win = outcome_table(build_chain(phi, pmf), int(steps_of_t.max()))

        # The scored games' events, laid out game by game from `offsets`:
        # each one's position in the corpus and index within its game.
        scored_games = np.flatnonzero(in_test & scorable)
        if not len(scored_games):
            raise ValueError(f"split {split}: every test game tied at regulation")
        game_events = n_events[scored_games]
        ends = np.cumsum(game_events)
        index = np.arange(ends[-1]) - np.repeat(ends - game_events, game_events)
        scored = index + np.repeat(offsets[scored_games], game_events)
        sign = np.repeat(winner_sign[scored_games], game_events)
        steps = steps_of_t[event_time[scored]]
        col = event_col[scored]
        p_r = win[steps, col]
        p_b = win[steps, 2 * cap - col]
        lead_sign = np.sign(event_lead[scored])
        chain_score = np.where(
            (sign == 0) | (p_r == p_b), 0.5, np.where(p_r > p_b, 1, -1) == sign
        )
        leader_score = np.where((sign == 0) | (lead_sign == 0), 0.5, lead_sign == sign)
        counts[split] = np.bincount(index, minlength=max_events)
        chain_sums[split] = np.bincount(index, weights=chain_score, minlength=max_events)
        leader_sums[split] = np.bincount(index, weights=leader_score, minlength=max_events)

    any_scores = counts.sum(axis=0) > 0
    last = int(np.nonzero(any_scores)[0][-1]) + 1
    with np.errstate(invalid="ignore", divide="ignore"):
        per_split_chain = np.where(counts > 0, chain_sums / np.maximum(counts, 1), np.nan)
        per_split_leader = np.where(counts > 0, leader_sums / np.maximum(counts, 1), np.nan)
    auc_chain = np.nanmean(per_split_chain[:, :last], axis=0)
    auc_leader = np.nanmean(per_split_leader[:, :last], axis=0)
    return PredictabilityCurve(
        event_index=np.arange(1, last + 1),
        auc_chain=auc_chain,
        auc_leader=auc_leader,
        n_games_scored=counts.sum(axis=0)[:last],
    )

"""Estimators for scoring tempo, balance, and point values.

Tempo is treated as a discrete-time Poisson process: each second hosts a
scoring event independently with a small per-second probability. The
maximum-likelihood rate is

    lambda_hat = (total events / number of games) / T,

the per-game event count is then Poisson(lambda*T) and the gap between
consecutive events is geometric with mean 1/lambda.

Balance is treated as a Bernoulli process per scoring event. The
per-game bias estimate is c = E_r / (E_r + E_b), and the lead-size
scoring function phi(L) estimates the probability that team r wins the
next event given it currently leads by L. phi is antisymmetric about
L = 0 (phi(-L) = 1 - phi(L)) and is estimated by pooling each lead state
with its mirror image, which pins phi(0) = 1/2 exactly.

`lead_dispersion` measures the sd of lead across a corpus's games on a
clock grid, the curve `predict.exact_lead_sd_grid` computes from the model.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from contextlib import suppress
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    Corpus,
    GameLog,
    SportConfig,
    _check_clock,
    _checked_corpus,
    _clock_grid,
    _count,
    _event_leads,
    _integer,
    _load_json,
    _number,
    _Record,
    _floats,
    _ints,
    _probabilities,
    _seconds,
    _sums_to_one,
    _validated_point_values,
    atomic_write_text,
)


# --------------------------------------------------------------------------
# Model containers
# --------------------------------------------------------------------------

def _transition_counts(values) -> np.ndarray:
    with suppress(ValueError):
        counts = _ints("counts", values)
        if (counts >= 0).all():
            return counts
    raise ValueError("phi transition counts must be nonnegative integers")


def _finite_or_none(value) -> float | None:
    if value is not None and not math.isfinite(value := _number(value)):
        raise ValueError(f"expected a finite number or None, got {value}")
    return value


class TempoModel(_Record, eq=False):
    """Fitted timing model for one sport.

    Attributes:
        lambda_hat: Events per second.
        regulation_length: Clock length T; `profile` has T + 1 entries,
            one per second of the closed interval [0, T].
        profile: Per-second probability that a game has an event at
            second t (fraction of games scoring at t).
        interarrival_gaps / interarrival_probs: Empirical distribution
            of the positive integer gaps between consecutive events.
    """

    lambda_hat: float = _number
    regulation_length: int = _seconds
    profile: np.ndarray = _probabilities
    interarrival_gaps: np.ndarray = _ints
    interarrival_probs: np.ndarray = _probabilities

    _paths = {"regulation_length": "regulation_length_seconds",
              "interarrival_gaps": "interarrival.gaps", "interarrival_probs": "interarrival.probs"}

    def _check(self) -> None:
        if not (np.isfinite(self.lambda_hat) and self.lambda_hat > 0):
            raise ValueError("lambda_hat must be positive and finite (degenerate corpus?)")
        if len(self.profile) != self.regulation_length + 1:
            raise ValueError("profile must have regulation_length + 1 entries")
        self._same_length("interarrival_gaps", "interarrival_probs")
        gaps, probs = self.interarrival_gaps, self.interarrival_probs
        if np.any(gaps < 1) or np.any(np.diff(gaps) <= 0):
            raise ValueError("interarrival gaps must be ascending positive integers")
        if len(probs):  # an empty law is allowed
            _sums_to_one("interarrival probabilities", probs)

    @property
    def mean_gap(self) -> float:
        if not len(self.interarrival_gaps):
            raise ValueError("no inter-arrival gaps observed")
        return float(np.dot(self.interarrival_gaps, self.interarrival_probs))


class LinearFit(_Record):
    """Ordinary least-squares line through the lead-scoring estimates.

    `slope_stderr` is the slope's standard error from propagating each
    state's binomial variance phi(1-phi)/n through the least-squares
    weights (mirror-pooled states counted once), which stays calibrated
    when far states are much noisier than near ones.
    """

    slope: float | None = _finite_or_none
    intercept: float | None = _finite_or_none
    slope_stderr: float | None = _finite_or_none
    n_states: int = _integer


class LeadScoring(_Record, eq=False):
    """Lead-size scoring function phi on the integer grid [-cap, cap].

    `phi` has the odd length 2 * cap + 1 (`_shape`), `phi[i]` at lead
    `leads[i]`. `counts[i]` is the number of observed transitions informing
    `phi[i]` (mirror states pooled; the L = 0 state reports its own
    count). Unobserved interior leads are filled by linear
    interpolation between observed ones and the tails are clamped.
    """

    phi: np.ndarray = _probabilities
    counts: np.ndarray = _transition_counts
    fit: LinearFit = LinearFit._instance

    _paths = {"counts": "phi_counts", "fit": "phi_fit"}

    def _check(self) -> None:
        self._same_length("phi", "counts")
        self._shape(self.phi)

    @staticmethod
    def _shape(phi: np.ndarray) -> np.ndarray:
        """`phi` if it covers leads -cap..cap (odd length) with phi(L) + phi(-L) = 1 exactly,
        which in binary floating point fixes phi(0) = 1/2 (x + x == 1.0 only at 0.5)."""
        if len(phi) % 2 != 1 or not np.all(phi + phi[::-1] == 1.0):
            raise ValueError("phi must be antisymmetric about L = 0 on the leads -cap..cap")
        return phi

    @property
    def leads(self) -> np.ndarray:
        """The leads -cap..cap that `phi` covers."""
        cap = len(self.phi) // 2
        return np.arange(-cap, cap + 1)


class BalanceModel(_Record, eq=False):
    """Fitted balance model: per-game biases, phi, and point values."""

    c_hat_samples: np.ndarray = _probabilities
    scoring: LeadScoring = LeadScoring._instance
    point_values: Mapping[int, float] = _validated_point_values

    _paths = {"scoring": ""}  # phi, its counts and its fit sit flat beside the fractions

    @property
    def phi(self) -> np.ndarray:
        return self.scoring.phi


# --------------------------------------------------------------------------
# Tempo
# --------------------------------------------------------------------------

def poisson_rate_from_counts(n_events: int, n_games: int, regulation_length: int) -> float:
    """Rate estimate from corpus totals: (events per game) / T."""
    n_events, n_games = _count("n_events", n_events, 0), _count("n_games", n_games, 1)
    regulation_length = _seconds(regulation_length, "regulation_length: ")
    if n_events == 0:
        warnings.warn("corpus has zero events; rate estimate is degenerate", stacklevel=2)
    return (n_events / n_games) / regulation_length


def fit_poisson_rate(games: Sequence[GameLog], config: SportConfig | None = None) -> float:
    """Maximum-likelihood events-per-second rate for a corpus."""
    corpus, cfg = _checked_corpus(games, config)
    return _rate(corpus, cfg.regulation_length)


def _rate(corpus: Corpus, T: int) -> float:
    """`fit_poisson_rate` for fits that have checked the corpus themselves."""
    return poisson_rate_from_counts(len(corpus.times), len(corpus), T)


class EventCountDistribution(_Record, eq=False):
    """Empirical events-per-game pmf next to its Poisson reference."""

    counts: np.ndarray = _ints
    empirical_pmf: np.ndarray = _floats
    reference_pmf: np.ndarray = _floats
    reference_mean: float = _number

    def _check(self) -> None:
        self._same_length("counts", "empirical_pmf", "reference_pmf")


# Cephes `lgam` (the routine behind `scipy.special.gammaln`) at integer
# arguments: its Stirling-series coefficients and log(sqrt(2 pi)).
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178
# The Poisson reference runs out to its (1 - this) quantile.
_POISSON_TAIL = 1e-6


def _log_factorial(k: int) -> float:
    """log(k!) as cephes `lgam(k + 1)` computes it, operation for operation,
    with libm's log (`math.log`; numpy's SIMD log can differ in the last bit)."""
    x = k + 1
    if x < 13:  # cephes multiplies out the same exact integers
        return math.log(float(math.factorial(k)))
    x = float(x)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    series = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        series = series * p + a
    return q + series / x


def _poisson_pmf(mean: float, n: int) -> np.ndarray:
    """Poisson(mean) pmf at 0..n-1 by `scipy.stats.poisson.pmf`'s formula,
    exp(xlogy(k, mean) - gammaln(k + 1) - mean), clipped to [0, 1]."""
    if mean == 0:
        return (np.arange(n) == 0).astype(float)
    log_mean = math.log(mean)
    xlogy = np.array([k * log_mean if k else 0.0 for k in range(n)])
    logfact = np.array([_log_factorial(k) for k in range(n)])
    return np.clip(np.exp(xlogy - logfact - mean), 0.0, 1.0)


def _poisson_quantile(mean: float) -> int:
    """Smallest k with P(N <= k) >= 1 - 1e-6 for N ~ Poisson(mean), the cdf
    summed from the pmf; `stats.poisson.ppf(1 - 1e-6, mean)` is its oracle."""
    if mean == 0:
        return 0
    # past mean + 8 sqrt(mean) + 30 the tail is far below 1e-6
    cdf = np.cumsum(_poisson_pmf(mean, int(mean + 8.0 * math.sqrt(mean)) + 31))
    return int(np.searchsorted(cdf, 1.0 - _POISSON_TAIL))


def events_per_game_distribution(
    games: Sequence[GameLog], config: SportConfig | None = None
) -> EventCountDistribution:
    """Aligned empirical and Poisson(lambda*T) pmfs over event counts.

    The reference is `scipy.stats.poisson.pmf` bit for bit without scipy:
    log(k!) is a port of cephes `lgam`, and `test_estimate.py::TestPoissonReference`
    holds it, the pmf and the 1 - 1e-6 quantile to scipy as the oracle."""
    corpus, cfg = _checked_corpus(games, config)
    observed = corpus.event_counts
    mean = _rate(corpus, cfg.regulation_length) * cfg.regulation_length
    hi = int(max(observed.max(), _poisson_quantile(mean)))
    counts = np.arange(hi + 1)
    empirical = np.bincount(observed, minlength=hi + 1)[: hi + 1] / len(corpus)
    return EventCountDistribution(
        counts=counts,
        empirical_pmf=empirical,
        reference_pmf=_poisson_pmf(mean, hi + 1),
        reference_mean=mean,
    )


class InterarrivalDistribution(_Record, eq=False):
    """Empirical gap distribution next to its geometric reference.

    Both pmfs (and complementary cdfs, P(gap > g)) are aligned on the
    dense support 1..max observed gap. The reference is geometric on
    {1, 2, ...} with success probability lambda, so `reference_mean`
    is exactly 1 / lambda.
    """

    gaps: np.ndarray = _ints
    empirical_pmf: np.ndarray = _floats
    empirical_ccdf: np.ndarray = _floats
    reference_pmf: np.ndarray = _floats
    reference_ccdf: np.ndarray = _floats
    reference_mean: float = _number

    def _check(self) -> None:
        columns = "gaps", "empirical_pmf", "empirical_ccdf", "reference_pmf", "reference_ccdf"
        self._same_length(*columns)

    @property
    def empirical_mean(self) -> float:
        return float(np.dot(self.gaps, self.empirical_pmf))


def _gaps(game: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(game index, length) of every gap between two consecutive events of one
    game, from the `game` and `times` event columns."""
    within = game[1:] == game[:-1]
    return game[1:][within], np.diff(times)[within]


def _gap_law(game: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pooled inter-arrival gaps: (distinct gaps ascending, relative frequency)."""
    support, counts = np.unique(_gaps(game, times)[1], return_counts=True)
    return support, counts / counts.sum()


def interarrival_distribution(
    games: Sequence[GameLog], config: SportConfig | None = None
) -> InterarrivalDistribution:
    """Empirical inter-arrival law with its geometric(lambda) reference."""
    corpus, cfg = _checked_corpus(games, config)
    support, probs = _gap_law(corpus.game, corpus.times)
    if not len(support):
        raise ValueError("no inter-arrival gaps: need a game with at least two events")
    empirical = np.bincount(support - 1, probs)  # dense over gaps 1..max gap
    gaps = np.arange(1, len(empirical) + 1)
    p = _rate(corpus, cfg.regulation_length)
    if not 0.0 < p < 1.0:
        raise ValueError(f"rate {p} is outside (0, 1); geometric reference undefined")
    empirical_ccdf = 1.0 - np.cumsum(empirical)
    reference = p * (1 - p) ** (gaps - 1.0)
    reference_ccdf = (1 - p) ** gaps.astype(float)
    return InterarrivalDistribution(
        gaps=gaps,
        empirical_pmf=empirical,
        empirical_ccdf=empirical_ccdf,
        reference_pmf=reference,
        reference_ccdf=reference_ccdf,
        reference_mean=1.0 / p,
    )


def _correlation(group: np.ndarray, x: np.ndarray, n_max: int) -> tuple[np.ndarray, int]:
    """Pooled C(1..n_max) of the sequences laid end to end in x, x[k] in sequence
    group[k] (nondecreasing), as `correlation_function` pools games; returns
    (C, number of non-constant sequences)."""
    n_max = _count("n_max", n_max, 1)
    starts = np.flatnonzero(np.diff(group, prepend=-1))
    size = np.diff(np.append(starts, len(x)))
    d = x - np.repeat(np.add.reduceat(x, starts) / size, size)
    denom = np.add.reduceat(d * d, starts)
    used = denom != 0
    d, size, denom = d[np.repeat(used, size)], size[used], denom[used]
    starts = np.cumsum(size) - size
    left = np.repeat(starts + size, size) - np.arange(len(d))  # d[k : k + left[k]] is k's sequence
    out = np.full(n_max, np.nan)
    for n in range(1, min(n_max, size.max(initial=0) - 1) + 1):
        products = d[:-n] * d[n:]
        products[left[:-n] <= n] = 0.0  # the pair straddles two sequences
        sums = np.add.reduceat(products, starts[starts < len(products)])
        pairs = np.maximum(size[: len(sums)] - n, 0)
        out[n - 1] = pairs @ (sums / denom[: len(sums)]) / pairs.sum()
    return out, len(size)


def gap_correlation(gaps: Sequence[int] | np.ndarray, n_max: int) -> np.ndarray:
    """Two-point correlation of one gap sequence, for lags 1..n_max.

    C(n) = sum_k (t_k - m)(t_{k+n} - m) / sum_k (t_k - m)^2 with m the
    sequence mean. Values lie in [-1, 1]; lags with no usable pair are
    NaN. A constant sequence has no defined correlation and raises.
    """
    x = _floats("gaps", gaps)
    if not (finite := np.isfinite(x)).all():
        raise ValueError(f"gaps must be finite, got {x[~finite][0]}")
    corr, used = _correlation(np.zeros(len(x), dtype=np.int64), x, n_max)
    if not used:
        raise ValueError("constant gap sequence: correlation undefined")
    return corr


def correlation_function(games: Sequence[GameLog], n_max: int) -> np.ndarray:
    """Pooled gap correlation C(1..n_max) across a corpus.

    Each game's sequence of inter-arrival gaps is correlated separately
    and the per-game values are averaged with weights equal to the
    number of usable pairs, which avoids artificial correlations across
    game boundaries. Games with constant gaps are excluded; if every
    game is excluded this raises.
    """
    corpus = Corpus.of(games)
    corr, used = _correlation(*_gaps(corpus.game, corpus.times), n_max)
    if not used:
        raise ValueError("no usable games: all gap sequences constant or too short")
    return corr


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


def _profile(times: np.ndarray, n_games: int, T: int) -> np.ndarray:
    """Share of n_games games scoring at each second of [0, T], from their event
    times (all within T: see `_checked_corpus`)."""
    return np.bincount(times, minlength=T + 1) / n_games


def tempo_profile(games: Sequence[GameLog], config: SportConfig | None = None) -> np.ndarray:
    """Fraction of games with a scoring event at each second t in [0, T]."""
    corpus, cfg = _checked_corpus(games, config)
    if not len(corpus):
        raise ValueError("need at least one game")
    return _profile(corpus.times, len(corpus), cfg.regulation_length)


def fit_tempo(games: Sequence[GameLog], config: SportConfig | None = None) -> TempoModel:
    """Fit the rate, per-second profile, and inter-arrival law together."""
    corpus, cfg = _checked_corpus(games, config)
    if not len(corpus.times):  # before `_rate`, which would warn first
        raise ValueError("corpus has zero events; the tempo model is undefined")
    support, probs = _gap_law(corpus.game, corpus.times)
    T = cfg.regulation_length
    return TempoModel(
        lambda_hat=_rate(corpus, T),
        regulation_length=T,
        profile=_profile(corpus.times, len(corpus), T),
        interarrival_gaps=support,
        interarrival_probs=probs,
    )


# --------------------------------------------------------------------------
# Balance
# --------------------------------------------------------------------------

def balance_fractions(games: Sequence[GameLog]) -> np.ndarray:
    """Per-game balance fractions; games without events are excluded."""
    corpus = Corpus.of(games)
    n_events = corpus.event_counts
    wins = np.bincount(corpus.game[corpus.teams > 0], minlength=len(corpus))
    return wins[n_events > 0] / n_events[n_events > 0]


def balance_null_distribution(games: Sequence[GameLog]) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of the balance fraction under perfectly balanced play.

    A fair game's event count n follows the corpus's events-per-game
    distribution over games with at least one event (games without
    events are excluded, as in `balance_fractions`), and r wins each
    event with probability 1/2, so the fraction is Binomial(n, 1/2) / n.
    Returns the distinct fractions k/n in ascending order and their
    probabilities.
    """
    n_events = Corpus.of(games).event_counts
    weights = np.bincount(n_events[n_events > 0]) / np.count_nonzero(n_events)
    if not weights.size:
        raise ValueError("need at least one game with events")
    fractions, probs = [], []
    row = np.ones(1)  # Binomial(n, 1/2) pmf by halved Pascal's rule; no overflow at large n
    for n in range(1, len(weights)):
        row = 0.5 * (np.append(row, 0.0) + np.insert(row, 0, 0.0))
        if weights[n]:
            fractions.append(np.arange(n + 1) / n)
            probs.append(weights[n] * row)
    support, atom = np.unique(np.concatenate(fractions), return_inverse=True)
    return support, np.bincount(atom, weights=np.concatenate(probs))


def _phi(before: np.ndarray, signed: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """(phi on -cap..cap, pooled transition counts) from each event's signed
    points and the lead just before it, as `lead_scoring_function` defines them."""
    # leads beyond +-cap pool into the boundary states
    before = np.clip(before, -cap, cap) + cap
    totals = np.bincount(before, minlength=2 * cap + 1)
    wins = np.bincount(before[signed > 0], minlength=2 * cap + 1)
    if totals.sum() == 0:
        raise ValueError("no event transitions observed")

    # pooled state L >= 0: transitions at +L, plus those at -L complemented
    pooled_totals = totals[cap:] + totals[cap::-1]
    pooled_wins = wins[cap:] + (totals[cap::-1] - wins[cap::-1])

    observed = np.nonzero(pooled_totals)[0]
    est = pooled_wins[observed] / pooled_totals[observed]
    # Fill the nonnegative grid (linear between observed states, clamped
    # tails), then reflect so antisymmetry is exact by construction.
    upper = np.interp(np.arange(cap + 1), observed, est)
    phi = np.empty(2 * cap + 1)
    phi[cap:] = upper
    phi[:cap] = 1.0 - upper[:0:-1]

    pooled_counts = np.concatenate((pooled_totals[:0:-1], pooled_totals))
    pooled_counts[cap] = totals[cap]
    return phi, pooled_counts


def lead_scoring_function(
    games: Sequence[GameLog],
    cap: int,
    min_samples: int = 50,
) -> LeadScoring:
    """Estimate phi(L), the chance r wins the next event from lead L.

    A transition sits at the lead just before its event (0 for a game's
    first event). Observations at L and -L are pooled through the
    antisymmetry phi(-L) = 1 - phi(L): a transition observed at -L
    contributes its complement at +L. Estimates are made for L >= 0 and
    reflected, so phi(0) = 1/2 holds exactly. A line is fitted by
    ordinary least squares over the states with at least `min_samples`
    pooled observations; with fewer than two such states the slope is None.
    `min_samples` must be at least 1: a state without observations has no
    estimate to fit.
    """
    cap, min_samples = _count("cap", cap, 1), _count("min_samples", min_samples, 1)
    corpus = Corpus.of(games)
    signed = corpus.signed
    phi, counts = _phi(_event_leads(corpus.offsets, signed) - signed, signed, cap)
    fit = _fit_line(np.arange(-cap, cap + 1), phi, counts, min_samples)
    return LeadScoring(phi=phi, counts=counts, fit=fit)


def _fit_line(
    leads: np.ndarray, phi: np.ndarray, counts: np.ndarray, min_samples: int
) -> LinearFit:
    mask = counts >= min_samples
    x = leads[mask].astype(float)
    y = phi[mask]
    n = len(x)
    if n < 2 or np.ptp(x) == 0:
        return LinearFit(slope=None, intercept=None, slope_stderr=None, n_states=n)
    design = np.column_stack([x, np.ones(n)])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    # Slope uncertainty by propagating per-state binomial variance.
    # Mirrored states carry the same observations (phi(-L) = 1 - phi(L)),
    # so each +-L pair counts once, through its positive member.
    pos = x > 0
    stderr = None
    if np.any(pos):
        sxx_half = float(np.sum(x[pos] ** 2))
        var = float(np.sum(x[pos] ** 2 * (y[pos] * (1 - y[pos])) / counts[mask][pos]))
        stderr = math.sqrt(var) / sxx_half
    return LinearFit(slope=slope, intercept=intercept, slope_stderr=stderr, n_states=n)


def _value_pmf(points: np.ndarray) -> dict[int, float]:
    """Relative frequency of each point value among events of these points."""
    if not len(points):
        raise ValueError("no events: point value distribution undefined")
    values, counts = np.unique(points, return_counts=True)
    return {int(v): float(c / len(points)) for v, c in zip(values, counts)}


def point_value_distribution(games: Sequence[GameLog]) -> dict[int, float]:
    """Relative frequency of each event point value across a corpus."""
    return _value_pmf(Corpus.of(games).points)


def points_fraction_distribution(
    games: Sequence[GameLog],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-game fraction of total points won by r, next to the events-based fraction.

    Returns (points_fraction, events_fraction), aligned game-for-game
    over games with at least one event; the second is `balance_fractions`.
    """
    corpus = Corpus.of(games)
    n_events, signed = corpus.event_counts, corpus.signed
    if not np.any(n_events):
        raise ValueError("no games with events")
    r_points, total = (
        np.bincount(corpus.game, w, len(corpus))[n_events > 0]
        for w in (np.maximum(signed, 0), np.abs(signed))
    )
    return r_points / total, balance_fractions(corpus)


def fit_balance(
    games: Sequence[GameLog],
    config: SportConfig | None = None,
    min_samples: int = 50,
) -> BalanceModel:
    """Fit per-game biases, the lead-scoring function, and point values."""
    corpus, cfg = _checked_corpus(games, config)
    scoring = lead_scoring_function(corpus, cfg.lead_truncation, min_samples)
    return BalanceModel(
        c_hat_samples=balance_fractions(corpus),
        scoring=scoring,
        point_values=point_value_distribution(corpus),
    )


# --------------------------------------------------------------------------
# Model artifact (versioned JSON)
# --------------------------------------------------------------------------

class ModelArtifact(_Record):
    """Models checked to fit their config: its regulation length, and phi over its -cap..cap."""

    config: SportConfig = SportConfig._instance
    tempo: TempoModel = TempoModel._instance
    balance: BalanceModel = BalanceModel._instance

    _paths = {"config": "sport"}
    _schema = "1.0"

    def _check(self) -> None:
        if self.tempo.regulation_length != self.config.regulation_length:
            raise ValueError("tempo model and sport config disagree on regulation length")
        if len(self.balance.phi) != 2 * self.config.lead_truncation + 1:
            raise ValueError("balance model and sport config disagree on lead truncation")


def model_to_dict(config: SportConfig, tempo: TempoModel, balance: BalanceModel) -> dict:
    return ModelArtifact(config, tempo, balance)._dump()  # refuses models that do not fit


def model_from_dict(data: Mapping) -> ModelArtifact:
    return ModelArtifact._from_json(data)


def save_model(
    path: str | os.PathLike, config: SportConfig, tempo: TempoModel, balance: BalanceModel
) -> None:
    atomic_write_text(
        path, json.dumps(model_to_dict(config, tempo, balance), sort_keys=True) + "\n"
    )


def load_model(path: str | os.PathLike) -> ModelArtifact:
    return model_from_dict(_load_json(path, "model artifact"))

"""Exact lead laws: the sd of lead on a clock grid, measured and computed.

`lead_dispersion` measures it across a corpus's games; `exact_lead_sd_grid`
computes it exactly for the four cells of the tempo x balance grid, mixing
each tempo kind's event-count law P(N(s) = n) (a DP over the tempo profile,
or the renewal law of the gap distribution) with each balance kind's lead
moments after n events (closed form for bernoulli balance; pi_0 P^n by the
chain's own step, phi clamped beyond +-cap, for markov balance, one pass for
both markov cells). It reads the fitted models as the simulator reads them
but never loads it, nor does `report`.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import Corpus, GameLog, SportConfig, _check_clock, _clock_grid, _event_leads, _seconds
from .estimate import BalanceModel, ModelArtifact, TempoModel
from .predict import _lead_step


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

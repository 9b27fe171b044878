"""The bernoulli tempo's count law against the per-second DP it replaced.

`per_second_law` is `predict._bernoulli_count_law` as it was before the
law stepped blocks of seconds in lockstep: one `np.convolve` per second of
the profile, every second in clock order. The new law folds one count pmf
per block, so its sums round in another order. Where its blocks are single
seconds (a grid step with no divisor from 2 to sqrt(T)) it is that DP, bit
for bit.

The per-second DP is not exact either: on the golden leagues' fits it is up
to 8.5e-16 from the same law computed in 80-bit arithmetic, and up to
1.5e-15 on other seeds. A law that rounds in another order can differ from
it by the sum of both errors, so the bound is 16 ulps of 1, about 3.6e-15.
"""

import numpy as np
import pytest

import scoredyn as sd
from scoredyn import predict
from test_golden import LEAGUES, league

ABSOLUTE = 16 * np.finfo(float).eps
RELATIVE = 1e-12  # of the lead SD curves


def per_second_law(profile: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """P(N(s) = n) for s on `grid` (rows) and n < n_cut (columns), N(s) the
    number of events in seconds 0..s: a DP over the seconds of `profile`."""
    dist = np.zeros(len(profile) + 1)
    dist[0] = 1.0
    hi = 1  # dist[hi:] is zero
    stops = set(grid.tolist())
    rows = []
    for t, p in enumerate(profile.tolist()):
        if p:
            step = np.convolve(dist[:hi], (1.0 - p, p))  # times (1 - p + p z)
            if step[-1] < predict._NEGLIGIBLE:
                step[-1] = 0.0
            else:
                hi += 1
            dist[: len(step)] = step
        if t in stops:
            rows.append(dist[:hi].copy())
    at_least = np.append(np.cumsum(dist[::-1])[::-1], 0.0)  # P(N(T) >= n)
    law = np.zeros((len(rows), int(np.argmax(at_least < predict._TAIL_MASS))))
    for row, counts in zip(law, rows):
        row[: len(counts)] = counts[: len(row)]
    return law


@pytest.fixture(scope="module", params=sorted(LEAGUES))
def fitted(request):
    """(config, tempo, balance) fitted to the golden league of one sport."""
    games, config = league(request.param), sd.builtin_config(request.param)
    return config, sd.fit_tempo(games, config), sd.fit_balance(games, config)


def grid(T: int, sample_every: int) -> np.ndarray:
    return np.arange(0, T + 1, sample_every, dtype=np.int64)


def assert_same_law(profile: np.ndarray, sample_every: int) -> None:
    T = len(profile) - 1
    got, want = (law(profile, grid(T, sample_every)) for law in
                 (predict._bernoulli_count_law, per_second_law))
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=ABSOLUTE)


@pytest.mark.parametrize("sample_every", [1, 7, 60, 599, "T"])
def test_golden_fits(fitted, sample_every):
    config, tempo, _ = fitted
    T = config.regulation_length
    assert_same_law(tempo.profile, T if sample_every == "T" else sample_every)


@pytest.mark.parametrize("sample_every", [1, 599])
def test_single_second_blocks_are_the_per_second_dp(fitted, sample_every):
    # 599 is prime, so its blocks are single seconds too
    _, tempo, _ = fitted
    T = len(tempo.profile) - 1
    np.testing.assert_array_equal(
        predict._bernoulli_count_law(tempo.profile, grid(T, sample_every)),
        per_second_law(tempo.profile, grid(T, sample_every)),
    )


@pytest.mark.parametrize("sample_every", [1, 7, 60, 599, 3600])
def test_silent_seconds_and_a_certain_event(sample_every):
    profile = np.random.default_rng(5).uniform(0.0, 0.01, 3601)
    profile[::3] = 0.0  # every third second, the opening tick among them, has no event
    profile[1800] = 1.0  # an event at half time for sure
    assert_same_law(profile, sample_every)


def test_lead_sd_curves(fitted, monkeypatch):
    config, tempo, balance = fitted
    times, got = sd.exact_lead_sd_grid(tempo, balance, config)
    calls = []

    def counted(profile, grid):
        calls.append(len(grid))
        return per_second_law(profile, grid)

    monkeypatch.setattr(predict, "_bernoulli_count_law", counted)
    want_times, want = sd.exact_lead_sd_grid(tempo, balance, config)
    assert calls == [len(times)]  # the oracle ran, once for both bernoulli tempo cells
    np.testing.assert_array_equal(times, want_times)
    for cell in want:
        np.testing.assert_allclose(got[cell], want[cell], rtol=RELATIVE, atol=0)

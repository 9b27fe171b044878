"""Outcome prediction via an explicit Markov chain on the lead size.

The chain's states are the integer leads -cap..+cap (relative to team
r). A scoring event worth k points moves lead L to L + k when r wins it
and to L - k otherwise, so with winner and value independent,

    P[L, L+k] = phi(L) * Pr(value = k)
    P[L, L-k] = (1 - phi(L)) * Pr(value = k),

with transitions past the boundary depositing at +-cap. As r and b are
interchangeable labels, phi(-L) = 1 - phi(L) and the chain is
mirror-symmetric, P[-L, -L'] = P[L, L']. A forecast from clock second t
runs the chain for the expected number of remaining events, the sum of
the per-second tempo profile over [t, T] (`_remaining_events`), rounded
half to even. Every forecast reads the n-step absorption probabilities
from one outcome table built by backward induction, win[0] = 1{lead > 0}
and win[n] = P @ win[n-1]; b's table is its exact mirror win[:, ::-1].

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

from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .core import (
    GameLog, SportConfig, _check_cap, _checked_corpus, _count, _event_leads, _floats, _index, _ints,
    _number, _probabilities, _probability, _Record, _sums_to_one, _team, _validated_point_values,
)
from .estimate import LeadScoring, _phi, _profile, _value_pmf
from .estimate import (  # noqa: F401  (kept as module attributes for tracing hooks)
    lead_scoring_function,
    point_value_distribution,
    tempo_profile,
)
from .rng import split_permutation

# Share of each split's games that the model is refitted on.
TRAIN_FRACTION = 0.75


class LeadChain(_Record, eq=False):
    """Row-stochastic matrix over the leads -cap..+cap, mirror-symmetric: P[-L, -L'] = P[L, L']."""

    transition: np.ndarray = partial(_floats, ndim=2)

    def _check(self) -> None:
        P = self.transition
        if P.shape[0] != P.shape[1] or len(P) % 2 != 1:
            raise ValueError(f"transition must be square of odd size, got shape {P.shape}")
        if not np.array_equal(P, P[::-1, ::-1]):
            raise ValueError("transition must be mirror-symmetric, P[-L, -L'] = P[L, L']")

    @property
    def cap(self) -> int:
        return len(self.transition) // 2

    @property
    def states(self) -> np.ndarray:
        return np.arange(-self.cap, self.cap + 1)

    def state_index(self, lead: int) -> int:
        lead = _index(lead)
        if abs(lead) > self.cap:
            raise ValueError(f"lead {lead} outside truncation +-{self.cap}")
        return lead + self.cap


class OutcomeForecast(_Record):
    """Probabilities that r wins, the game ties, and b wins."""

    p_win_r: float = partial(_probability, "p_win_r")
    p_tie: float = partial(_probability, "p_tie")
    p_win_b: float = partial(_probability, "p_win_b")

    def _check(self) -> None:
        _sums_to_one("forecast probabilities", self._values())


def build_chain(
    phi: np.ndarray | Sequence[float], point_values: Mapping[int, float]
) -> LeadChain:
    """Build the lead-size transition matrix from phi and the value pmf.

    `phi` is read as `LeadScoring.phi` is: probabilities over the leads
    -cap..+cap (so its odd length fixes the cap), exactly antisymmetric.
    The rows of leads 0..cap are built and the rest mirrored, which makes
    the chain's mirror symmetry hold to the last bit.
    """
    phi = LeadScoring._shape(_probabilities("phi", phi))
    cap = len(phi) // 2
    _check_cap(cap, pmf := _validated_point_values(point_values))

    P = np.zeros((len(phi), len(phi)))
    leads = np.arange(cap + 1)
    rows = leads + cap
    up = phi[rows]
    down = 1.0 - up
    for value, q in pmf.items():
        np.add.at(P, (rows, np.minimum(leads + value, cap) + cap), up * q)
        np.add.at(P, (rows, np.maximum(leads - value, -cap) + cap), down * q)
    P[:cap] = P[:cap:-1, ::-1]
    return LeadChain(P)


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

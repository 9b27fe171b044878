"""Ground-truth synthetic leagues for validating estimators end to end.

Teams carry latent positive skills pi_i, and each scoring event in a
matchup (i, j) is won by team i with probability pi_i / (pi_i + pi_j),
independently of everything else. A second generator replaces the skill
rule with a lead-dependent one, p(r scores | lead L) = 1/2 + slope * L,
to produce corpora with a built-in restoring force (negative slope) for
exercising the negative-slope regime.

Every game runs on its own Philox substream keyed by (seed, game
index), so corpora are bit-reproducible.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Mapping

import numpy as np

from .core import (
    Corpus, SportConfig, _floats, _integer, _number, _Record, _seconds, _validated_point_values,
)
from .rng import check_seed
from .simulate import _games, _Law, _point_pmf, _ProfileTempo, _reach, flat_profile

PROB_CLAMP = 1e-6


def _event_probability(rate) -> float:
    """A number (`_number`) in [0, 1], so not NaN."""
    with suppress(TypeError):
        if 0.0 <= (probability := _number(rate)) <= 1.0:
            return probability
    raise ValueError(f"tempo must be a per-second event probability, got {rate!r}")


class LeagueSpec(_Record, eq=False):
    """A synthetic league: skills, schedule, tempo rate, point values, seed.

    `tempo` is the per-second event probability of every second but the
    opening tick (`profile`). In each scheduled matchup (i, j), team i
    plays as r and team j as b.
    """

    skills: np.ndarray = _floats
    schedule: tuple[tuple[int, int], ...] = lambda pairs: tuple(
        (_integer(i), _integer(j)) for i, j in pairs)
    regulation_length: int = _seconds
    tempo: float = _event_probability
    point_values: Mapping[int, float] = _validated_point_values
    seed: int = check_seed

    _paths = {"regulation_length": "regulation_length_seconds"}

    def _check(self) -> None:
        skills = self.skills
        if len(skills) == 0 or not np.all(np.isfinite(skills) & (skills > 0)):
            raise ValueError("skills must be finite and positive")
        if not self.schedule:
            raise ValueError("schedule must be non-empty")
        n = len(skills)
        for i, j in self.schedule:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"invalid matchup ({i}, {j}) for {n} teams")

    @property
    def n_teams(self) -> int:
        return len(self.skills)

    @property
    def profile(self) -> np.ndarray:
        return flat_profile(self.regulation_length, self.tempo)


def _league_law(spec: LeagueSpec, **balance) -> _Law:
    return _Law(spec.seed, _ProfileTempo(spec.profile), _point_pmf(spec.point_values), **balance)


def generate_league(spec: LeagueSpec) -> Corpus:
    """Generate one game per scheduled matchup under the skill rule; game i
    is `league-{i:06d}`."""
    r, b = np.array(spec.schedule).T
    p_r = spec.skills[r] / (spec.skills[r] + spec.skills[b])
    return Corpus.concat(_games(_league_law(spec, c_fixed=p_r), 0, len(p_r), "league", "custom"))


def generate_restoring_league(spec: LeagueSpec, restoring_slope: float) -> Corpus:
    """Generate games where p(r scores | lead L) = 1/2 + slope * L; game i is
    `restoring-{i:06d}`.

    The probability is clamped into [PROB_CLAMP, 1 - PROB_CLAMP] for
    extreme leads. A |slope| >= 1/2 would leave the open interval at the
    first point of lead and is rejected.
    """
    if not abs(restoring_slope) < 0.5:  # NaN fails too
        raise ValueError("|slope| must be < 1/2 to keep probabilities in (0, 1)")
    reach = _reach(spec.regulation_length, spec.point_values)
    leads = np.arange(-reach, reach + 1)
    phi = np.clip(0.5 + restoring_slope * leads, PROB_CLAMP, 1.0 - PROB_CLAMP)
    law = _league_law(spec, phi=phi)
    return Corpus.concat(_games(law, 0, len(spec.schedule), "restoring", "custom"))


def default_league(
    n_teams: int = 20,
    n_games: int = 1_000,
    regulation_length: int = 3600,
    rate: float = 0.002,
    point_values: Mapping[int, float] | None = None,
    skill_sigma: float = 1.0,
    seed: int = 0,
) -> LeagueSpec:
    """Desk-scale league: log-normal skills, uniform random schedule."""
    if n_teams < 2:
        raise ValueError(f"n_teams must be >= 2 for two distinct teams per game, got {n_teams}")
    if not 0 <= skill_sigma < np.inf:
        raise ValueError(f"skill_sigma must be finite and >= 0, got {skill_sigma}")
    rng = np.random.default_rng(seed)
    skills = rng.lognormal(mean=0.0, sigma=skill_sigma, size=n_teams)
    schedule = [rng.choice(n_teams, size=2, replace=False) for _ in range(n_games)]
    if point_values is None:
        point_values = {1: 1.0}
    return LeagueSpec(
        skills=skills,
        schedule=schedule,
        regulation_length=regulation_length,
        tempo=rate,
        point_values=dict(point_values),
        seed=seed,
    )


def league_config(spec: LeagueSpec, lead_cap: int = 100) -> SportConfig:
    """SportConfig matching a synthetic league, one period long, for use with estimators."""
    return SportConfig(
        sport_id="custom",
        regulation_length=spec.regulation_length,
        period_ends=(spec.regulation_length,),
        point_values=dict(spec.point_values),
        lead_truncation=lead_cap,
    )


def league_truth(spec: LeagueSpec) -> dict:
    """Ground-truth sidecar describing exactly what was generated."""
    return {**spec._dump(), "n_teams": spec.n_teams}

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

from typing import Mapping

import numpy as np

from .core import (
    Corpus, SportConfig, _count, _floats, _integer, _named, _number, _probability, _Record,
    _seconds, _validated_point_values,
)
from .rng import check_seed
from .simulate import _flat_law, _games, _reach, flat_profile

PROB_CLAMP = 1e-6


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
    tempo: float = _probability
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


def _league_games(spec: LeagueSpec, prefix: str, **balance) -> Corpus:
    law = _flat_law(spec.seed, spec.regulation_length, spec.tempo, spec.point_values, **balance)
    return Corpus.concat(_games(law, 0, len(spec.schedule), prefix, "custom"))


def generate_league(spec: LeagueSpec) -> Corpus:
    """Generate one game per scheduled matchup under the skill rule; game i
    is `league-{i:06d}`."""
    r, b = np.array(spec.schedule).T
    p_r = spec.skills[r] / (spec.skills[r] + spec.skills[b])
    return _league_games(spec, "league", c_fixed=p_r)


def generate_restoring_league(spec: LeagueSpec, restoring_slope: float) -> Corpus:
    """Generate games where p(r scores | lead L) = 1/2 + slope * L; game i is
    `restoring-{i:06d}`.

    The probability is clamped into [PROB_CLAMP, 1 - PROB_CLAMP] for
    extreme leads. A |slope| >= 1/2 would leave the open interval at the
    first point of lead and is rejected.
    """
    if not abs(restoring_slope := _named("restoring_slope: ", _number, restoring_slope)) < 0.5:
        raise ValueError("|slope| must be < 1/2 to keep probabilities in (0, 1)")  # NaN too
    reach = _reach(spec.regulation_length, spec.point_values)
    leads = np.arange(-reach, reach + 1)
    phi = np.clip(0.5 + restoring_slope * leads, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return _league_games(spec, "restoring", phi=phi)


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
    n_teams = _count("n_teams", n_teams, 2)  # two distinct teams per game
    n_games = _count("n_games", n_games, 1)  # a schedule is non-empty
    if not 0 <= (skill_sigma := _named("skill_sigma: ", _number, skill_sigma)) < np.inf:
        raise ValueError(f"skill_sigma must be finite and >= 0, got {skill_sigma}")
    rate = _probability("rate", rate)  # `LeagueSpec.tempo` by the caller's name
    rng = np.random.default_rng(LeagueSpec._converted("seed", seed))
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

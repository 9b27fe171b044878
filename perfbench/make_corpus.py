"""Write a synthetic league corpus for one sport, tagged with that sport.

Usage: python perfbench/make_corpus.py SPORT N_GAMES RATE SEED OUT_CSV

The league is `default_league(n_teams=32, ...)` with the sport's
built-in regulation length and point-value pmf, generated by the
library's `generate_league`. `scoredyn synth` cannot be used: it tags
games `custom`, and the CLI cannot read that tag back (see NOTES.md).
Prints one JSON line with the generate time and the library versions.
"""

import dataclasses
import json
import platform
import sys
import time

import numpy as np
import scipy

import scoredyn.cli  # noqa: F401  (compiles every module before any timed run)
from scoredyn import builtin_config, write_event_file
from scoredyn.synth import default_league, generate_league


def main() -> int:
    sport, n_games, rate, seed, out = sys.argv[1:]
    config = builtin_config(sport)
    t0 = time.perf_counter()
    spec = default_league(
        n_teams=32,
        n_games=int(n_games),
        regulation_length=config.regulation_length,
        rate=float(rate),
        point_values=dict(config.point_values),
        seed=int(seed),
    )
    games = [dataclasses.replace(g, sport_id=config.sport_id) for g in generate_league(spec)]
    generate_s = time.perf_counter() - t0
    write_event_file(games, out)
    print(
        json.dumps(
            {
                "generate_s": generate_s,
                "games": len(games),
                "events": sum(g.n_events for g in games),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

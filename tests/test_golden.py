"""Golden `report` outputs for pinned CFB-, NFL-, NHL- and NBA-like leagues.

Each league is built in process as `perfbench/make_corpus.py` builds one
(`default_league` with 32 teams and the sport's built-in clock and point
values, `generate_league`, every game tagged with the sport), written as
CSV and run through `scoredyn report` at its default flags. Every output
file and the summary line are compared with `tests/golden/report_<sport>.json`:

- integers and strings exactly, floats at a relative tolerance of 1e-12;
- a list of at most `SHORT` entries is stored as its values, and so is
  the last row of every CSV file (the lead SDs at T, the final AUCs);
- a longer list is stored as its length, its NaN count, and the sum, sum
  of squares, minimum and maximum of its other entries, plus `digits`: a
  sha256 prefix of its entries printed at 10 significant digits.

`digits` is the check that sees one entry of a long list move in its 10th
significant digit; the sums cannot, and they are there to locate a change.
It is an exact match at 10 digits, not a tolerance: a NumPy build whose
last bits differ fails it where an entry lies that close to a 10-digit
rounding boundary. The golden was written on NumPy 2.4; if the NumPy 2.0
CI job fails here on `digits` alone, compare long lists in full at 1e-12.

After a change that is meant to move an output, rewrite the golden with
`PYTHONPATH=src python tests/test_golden.py` and name the moved files and
the reason in the change log.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

import scoredyn as sd
from scoredyn.cli import main

GOLDEN = Path(__file__).parent / "golden"

# sport: (games, per-second event rate, seed); NFL and NBA at the benchmark corpora's
# rates, CFB and NHL at about 8 and 5 events a game
LEAGUES = {
    "CFB": (2000, 0.0023, 1),
    "NFL": (2000, 0.00204, 1),
    "NHL": (2000, 0.0015, 1),
    "NBA": (800, 0.0437, 1),
}
SHORT = 12  # lists up to this long are stored as their values
RELATIVE = 1e-12


def league(sport: str) -> sd.Corpus:
    """The pinned league of `sport`, every game tagged with it."""
    n_games, rate, seed = LEAGUES[sport]
    config = sd.builtin_config(sport)
    spec = sd.default_league(
        n_teams=32,
        n_games=n_games,
        regulation_length=config.regulation_length,
        rate=rate,
        point_values=dict(config.point_values),
        seed=seed,
    )
    games = sd.generate_league(spec)
    sport_ids = [config.sport_id] * len(games)
    return sd.Corpus(games.game_ids, sport_ids, games.offsets, games.times, games.teams,
                     games.points)


def _number(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def summarize(value):
    """`value` with every list longer than `SHORT` replaced by its checksums."""
    if isinstance(value, dict):
        return {key: summarize(item) for key, item in value.items()}
    if not isinstance(value, list) or len(value) <= SHORT:
        return value
    numbers = [v for v in value if not (isinstance(v, float) and math.isnan(v))]
    total = math.fsum if any(isinstance(v, float) for v in numbers) else sum
    printed = ",".join(f"{v:.9e}" if isinstance(v, float) else str(v) for v in value)
    return {
        "length": len(value),
        "nan": len(value) - len(numbers),
        "sum": total(numbers),
        "sum_sq": total(v * v for v in numbers),
        "min": min(numbers, default=None),
        "max": max(numbers, default=None),
        "digits": hashlib.sha256(printed.encode()).hexdigest()[:16],
    }


def report_outputs(sport: str) -> dict:
    """Every output of a default-flag `report` on the league of `sport`, summarized."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus, out_dir = Path(tmp) / "games.csv", Path(tmp) / "report"
        sd.write_event_file(league(sport), corpus)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["report", "--in", str(corpus), "--sport", sport,
                         "--out-dir", str(out_dir)])
        assert code == 0
        tokens = dict(token.split("=", 1) for token in stdout.getvalue().split()[2:])
        del tokens["out_dir"]  # a temporary path
        outputs = {"summary_line": tokens, "last_rows": {}}
        for path in sorted(out_dir.iterdir()):
            if path.suffix == ".json":
                outputs[path.name] = json.loads(path.read_text())
                continue
            header, *rows = [[_number(cell) for cell in row] if i else row
                             for i, row in enumerate(csv.reader(path.read_text().splitlines()))]
            outputs[path.name] = {name: list(column) for name, column in zip(header, zip(*rows))}
            # the lead SDs at T and the final AUCs among them
            outputs["last_rows"][path.name] = dict(zip(header, rows[-1]))
    return summarize(outputs)


def mismatches(got, want, path: str = "") -> list[str]:
    """Where `got` differs from `want`: integers and strings exactly, floats at `RELATIVE`."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{path}/{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for i, pair in enumerate(zip(got, want))
                for m in mismatches(*pair, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) and math.isnan(got) or math.isclose(got, want, rel_tol=RELATIVE):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != golden {want!r}"]


@pytest.mark.parametrize("sport", list(LEAGUES))
def test_report_matches_golden(sport):
    want = json.loads((GOLDEN / f"report_{sport.lower()}.json").read_text())
    assert mismatches(report_outputs(sport), want) == []


def test_a_tenth_digit_change_is_caught():
    def outputs(x):
        return summarize({"short": [x], "long": [0.5] * 1000 + [x, 2.0]})

    base, moved = outputs(0.7234567890123), outputs(0.7234567891123)
    assert base["long"]["sum"] == pytest.approx(moved["long"]["sum"], rel=RELATIVE)
    assert [m.split(":")[0] for m in mismatches(moved, base)] == ["/short[0]", "/long/digits"]
    assert mismatches(base, json.loads(json.dumps(base))) == []


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for sport in LEAGUES:
        path = GOLDEN / f"report_{sport.lower()}.json"
        path.write_text(json.dumps(report_outputs(sport), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    write_golden()

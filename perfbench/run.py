"""End-to-end benchmark of the `scoredyn` CLI, with an optional traced run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload report-nfl --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client: the CLI runs as a
subprocess, the way users run it, and the next run starts only after the
previous one has exited. Inputs are generated from --seed during set-up.
Every run's outputs are checked and their sha256 digests must agree
across runs of the same code. With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 untraced runs alternate with
traced ones (perfbench/trace_child.py) and it holds the per-layer
metrics. This script is stdlib only, so it stays small in memory and
does not raise the peak RSS that the kernel reports for its children.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One BLAS/OpenMP thread (at most nproc): the CLI is single-threaded Python,
# and every child runs pinned to the harness's one CPU.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150
# Games of the simulated corpus that are re-evaluated for auc_chain_mean.
QUALITY_GAMES = 200

# Corpus sizes are chosen so one CLI run takes a few seconds, which gives
# several runs per measurement. Rates are each sport's league-wide rate.
WORKLOADS = {
    "report-nfl": {"sport": "nfl", "rate": 0.00204, "corpus_games": 2000,
                   "sim_games": 3000, "splits": 3},
    "eval-nba": {"sport": "nba", "rate": 0.0437, "corpus_games": 240, "splits": 1},
    "simulate-nba": {"sport": "nba", "rate": 0.0437, "corpus_games": 300,
                     "sim_games": 3000},
}
TINY = {
    "report-nfl": {"corpus_games": 300, "sim_games": 1000, "splits": 1},
    "eval-nba": {"corpus_games": 40, "splits": 1},
    "simulate-nba": {"corpus_games": 60, "sim_games": 200},
}

REPORT_CSV_HEADERS = {
    "balance.csv": ["c_hat_bin", "empirical_density", "null_density"],
    "events_per_game.csv": ["events", "empirical_pmf", "poisson_pmf"],
    "gap_correlation.csv": ["lag", "correlation"],
    "interarrival.csv": ["gap_seconds", "empirical_ccdf", "geometric_ccdf"],
    "lead_scoring.csv": ["lead", "phi", "n_observations"],
    "lead_variance.csv": ["t", "sd_empirical", "sd_bb", "sd_bm", "sd_mb", "sd_mm"],
    "predictability.csv": ["event_index", "auc_chain", "auc_leader", "n_games_scored"],
    "tempo_profile.csv": ["t", "event_probability"],
}
EVENT_COLUMNS = ["sport", "game_id", "team", "t", "points"]
REGULATION = {"nfl": 3600, "nba": 2880}

# The host's load changes this VM's CPU speed by up to 2x within minutes.
# A fixed pure-Python loop, timed on the same CPU right before and after
# each command, measures that speed; end-to-end times are reported at the
# speed at which the loop takes CAL_REF_S (see NOTES.md, "Steadiness").
CAL_REF_S = 0.4

MODULES = ("ingest", "estimate", "simulate", "predict", "core", "rng", "cli")
CELLS = ("bb", "bm", "mb", "mm")


class CheckFailed(Exception):
    pass


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list[str], log_stem: Path) -> dict:
    """Run one child to completion; wall time and its own rusage via wait4.

    RUSAGE_CHILDREN would report the maximum RSS over every child so far,
    set-up children included, so the single child is reaped with wait4.
    """
    with open(f"{log_stem}.out", "wb") as out, open(f"{log_stem}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "stdout": Path(f"{log_stem}.out").read_text(encoding="utf-8", errors="replace"),
        "stderr": Path(f"{log_stem}.err").read_text(encoding="utf-8", errors="replace"),
    }


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop whose work never changes."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(3_000_000):
        acc += i * i % 7
        if i % 3 == 0:
            table[i & 1023] = acc
    return time.perf_counter() - t0


def cli_argv(*args) -> list[str]:
    return [sys.executable, "-m", "scoredyn.cli", *map(str, args)]


# --------------------------------------------------------------------------
# Set-up
# --------------------------------------------------------------------------

def set_up(name: str, sizes: dict, seed: int, run_dir: Path, loop_times: list) -> dict:
    """Generate the corpus (and fit a model for simulate-nba) several times.

    Every repeat must write byte-identical inputs; setup_s is the median.
    The reference loop runs after each repeat (appended to `loop_times`,
    which holds the loop time before the first repeat).
    """
    corpus = run_dir / "corpus.csv"
    model = run_dir / "model.json"
    walls, generate, digests = [], [], set()
    for k in range(SETUP_REPEATS):
        res = run_child(
            [sys.executable, str(BENCH / "make_corpus.py"), sizes["sport"],
             str(sizes["corpus_games"]), repr(sizes["rate"]), str(seed), str(corpus)],
            run_dir / f"setup{k}",
        )
        if res["code"] != 0:
            raise CheckFailed(f"corpus generation failed: {res['stderr'].strip()}")
        info = json.loads(res["stdout"].strip().splitlines()[-1])
        wall = res["wall_s"]
        files = [corpus]
        if name == "simulate-nba":
            fit = run_child(
                cli_argv("fit", "--in", corpus, "--sport", sizes["sport"], "--out", model),
                run_dir / f"fit{k}",
            )
            if fit["code"] != 0 or not fit["stdout"].startswith("fit ok"):
                raise CheckFailed(f"fit failed: {fit['stderr'].strip()}")
            wall += fit["wall_s"]
            files.append(model)
        loop_times.append(reference_loop())
        walls.append(wall)
        generate.append(info["generate_s"])
        digests.add(tuple(sha256(f) for f in files))
    if len(digests) != 1:
        raise CheckFailed("set-up repeats wrote different inputs for one seed")
    return {
        "corpus": corpus,
        "model": model,
        "setup_s": walls,
        "generate_s": statistics.median(generate),
        "events": info["events"],
        "versions": {k: info[k] for k in ("python", "numpy", "scipy")},
    }


# --------------------------------------------------------------------------
# Workload commands and output checks
# --------------------------------------------------------------------------

def workload_args(name: str, sizes: dict, seed: int, setup: dict, out: Path) -> list:
    if name == "report-nfl":
        return ["report", "--in", setup["corpus"], "--sport", sizes["sport"],
                "--out-dir", out / "report", "--seed", seed,
                "--sim-games", sizes["sim_games"], "--splits", sizes["splits"]]
    if name == "eval-nba":
        return ["eval", "--in", setup["corpus"], "--sport", sizes["sport"],
                "--out", out / "eval.csv", "--splits", sizes["splits"], "--seed", seed]
    return ["simulate", "--model", setup["model"], "--tempo", "markov", "--balance", "markov",
            "--n-games", sizes["sim_games"], "--seed", seed, "--out", out / "sim.csv"]


def games_processed(name: str, sizes: dict) -> int:
    return sizes["sim_games"] if name == "simulate-nba" else sizes["corpus_games"]


def output_files(out: Path) -> list[Path]:
    return sorted(p for p in out.rglob("*") if p.is_file())


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def summary_tokens(stdout: str, command: str) -> dict:
    lines = stdout.strip().splitlines()
    words = lines[-1].split() if lines else []
    if words[:2] != [command, "ok"]:
        raise CheckFailed(f"summary line is not '{command} ok ...': {lines[-1:] }")
    return dict(w.split("=", 1) for w in words[2:] if "=" in w)


def read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise CheckFailed(f"{path.name}: header {rows[:1]} != {header}")
    if any(len(r) != len(header) for r in rows[1:]):
        raise CheckFailed(f"{path.name}: ragged rows")
    return rows[1:]


def finite_table(path: Path, header: list[str], trailing_nan_ok: bool = False) -> list[list[float]]:
    """Parse a numeric CSV and require every value to be finite.

    With `trailing_nan_ok`, NaN is allowed in the last column only as one
    block at the end (gap_correlation.csv marks lags with no usable pair
    of gaps as NaN, by design).
    """
    table = [[float(v) for v in row] for row in read_csv(path, header)]
    seen_nan = False
    for row in table:
        values = row
        if trailing_nan_ok:
            if math.isnan(row[-1]):
                seen_nan = True
                values = row[:-1]
            elif seen_nan:
                raise CheckFailed(f"{path.name}: finite value after NaN lags")
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"{path.name}: non-finite value in {row}")
    if not table or (trailing_nan_ok and math.isnan(table[0][-1])):
        raise CheckFailed(f"{path.name}: no finite rows")
    return table


def predictability_auc(path: Path) -> float:
    """Chain AUC averaged over event indices, weighted by n_games_scored."""
    table = finite_table(path, REPORT_CSV_HEADERS["predictability.csv"])
    for _, auc_chain, auc_leader, n in table:
        if not (0.0 <= auc_chain <= 1.0 and 0.0 <= auc_leader <= 1.0) or n < 1:
            raise CheckFailed(f"{path.name}: AUC outside [0, 1] or empty index")
    return sum(r[1] * r[3] for r in table) / sum(r[3] for r in table)


def check_report(out: Path) -> float:
    report = out / "report"
    names = sorted(p.name for p in report.iterdir())
    if names != sorted([*REPORT_CSV_HEADERS, "model.json"]):
        raise CheckFailed(f"report files {names}")
    with open(report / "model.json", encoding="utf-8") as fh:
        model = json.load(fh)
    if not {"schema_version", "sport", "tempo", "balance"} <= set(model):
        raise CheckFailed("model.json lacks a section")
    for file, header in REPORT_CSV_HEADERS.items():
        table = finite_table(report / file, header, trailing_nan_ok=file == "gap_correlation.csv")
        if file == "lead_variance.csv":
            if any(v < 0 for row in table for v in row[1:]):
                raise CheckFailed("lead_variance.csv: negative lead SD")
            if table[0][0] != 0 or any(v != 0 for v in table[0][1:]):
                raise CheckFailed("lead_variance.csv: lead SD at t=0 is not 0")
    return predictability_auc(report / "predictability.csv")


def check_simulated(path: Path, sizes: dict, tokens: dict, prefix: Path) -> None:
    """Re-parse the simulated event file independently of the library.

    Streams the file so this harness stays small, and copies the records
    of the first QUALITY_GAMES games to `prefix`.
    """
    T = REGULATION[sizes["sport"]]
    records, games, last_game, last_t = 0, set(), None, -1
    with open(path, newline="", encoding="utf-8") as fh, \
            open(prefix, "w", encoding="utf-8", newline="\n") as sink:
        reader = csv.reader(fh)
        if next(reader, None) != EVENT_COLUMNS:
            raise CheckFailed("simulated file: bad header")
        sink.write(",".join(EVENT_COLUMNS) + "\n")
        for row in reader:
            sport, gid, team, t, points = row
            t, points = int(t), int(points)
            if gid != last_game:
                if gid in games:
                    raise CheckFailed(f"simulated file: game {gid} is not contiguous")
                games.add(gid)
                last_game, last_t = gid, -1
            if sport != sizes["sport"] or team not in ("r", "b") or points < 1:
                raise CheckFailed(f"simulated file: bad record {row}")
            if not last_t < t <= T:
                raise CheckFailed(f"simulated file: time {t} out of order or range")
            last_t = t
            records += 1
            if len(games) <= QUALITY_GAMES:
                sink.write(",".join(row) + "\n")
    if records != int(tokens.get("events", -1)):
        raise CheckFailed(f"simulated file: {records} records, summary says {tokens.get('events')}")
    if len(games) != sizes["sim_games"] or int(tokens.get("games", -1)) != sizes["sim_games"]:
        raise CheckFailed(f"simulated file: {len(games)} games, asked for {sizes['sim_games']}")


def check_outputs(name, sizes, seed, out, tokens, run_dir) -> float:
    """Check one run's output files against its summary; return its chain AUC."""
    if name == "report-nfl":
        return check_report(out)
    if name == "eval-nba":
        return predictability_auc(out / "eval.csv")
    prefix = run_dir / "quality.csv"
    check_simulated(out / "sim.csv", sizes, tokens, prefix)
    # The simulated games, scored by the chain fitted on them, guard the
    # simulator's output the way AUC guards report and eval.
    quality = run_child(
        cli_argv("eval", "--in", prefix, "--sport", sizes["sport"], "--out",
                 run_dir / "quality_eval.csv", "--splits", 1, "--seed", seed),
        run_dir / "quality",
    )
    if quality["code"] != 0:
        raise CheckFailed(f"eval of simulated games failed: {quality['stderr'].strip()}")
    return predictability_auc(run_dir / "quality_eval.csv")


# --------------------------------------------------------------------------
# Digests across runs of one code version
# --------------------------------------------------------------------------

def src_fingerprint() -> tuple[str, int]:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest()[:16], lines


def record_digests(key: str, src_hash: str, digests: dict) -> str:
    """Compare with earlier runs of the same workload, seed and sizes.

    Returns "new", "same", or "changed since src <hash>" when earlier runs
    of other code wrote different outputs (reported, not failed). Raises
    if earlier runs of this same code wrote different outputs.
    """
    state_path = WORK / "digests.json"
    state = json.loads(state_path.read_text()) if state_path.exists() else {}
    previous = state.get(key)
    status = "new"
    if previous is not None:
        if previous["digests"] == digests:
            status = "same"
        elif previous["src"] == src_hash:
            raise CheckFailed("outputs differ from an earlier run of the same code and seed")
        else:
            status = f"changed since src {previous['src']}"
    state[key] = {"src": src_hash, "digests": digests}
    tmp = state_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, state_path)
    return status


# --------------------------------------------------------------------------
# Measurement loop
# --------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def traced_layers(summary: dict, wall: float) -> dict:
    by_name = summary["by_name"]
    counters = summary["counters"]

    def total(name):
        return by_name.get(name, {}).get("total_s", 0.0)

    def count(name):
        return by_name.get(name, {}).get("count", 0)

    parse_s = total("ingest.parse")
    games = count("simulate.game")
    predictions = counters.get("predict.predictions", 0)
    calls = count("predict.forecast")
    layers = {
        "ingest.parse_s": parse_s,
        "ingest.records_per_s": counters.get("ingest.records", 0) / parse_s if parse_s else 0.0,
        "ingest.render_s": total("ingest.render"),
        "ingest.bytes_written": counters.get("ingest.bytes_written", 0),
        "ingest.records_dropped": counters.get("ingest.records", 0)
        - counters.get("ingest.events", 0),
        **{f"simulate.cell_{c}_s": total(f"simulate.cell_{c}") for c in CELLS},
        "simulate.game_us": 1e6 * total("simulate.game") / games if games else 0.0,
        "simulate.games": games,
        "simulate.events": counters.get("simulate.events", 0),
        "simulate.dispersion_s": total("simulate.dispersion"),
        "rng.substreams": count("rng.substream"),
        "rng.substream_s": total("rng.substream"),
        "core.gamelogs": count("core.gamelog"),
        "core.gamelog_validate_s": total("core.gamelog"),
        "core.write_s": total("core.write"),
        "predict.eval_s": total("predict.eval"),
        "predict.forecast_s": total("predict.forecast"),
        "predict.forecast_calls": calls,
        "predict.predictions": predictions,
        "predict.cache_hit_ratio": (predictions - calls) / predictions if predictions else 0.0,
        "predict.chain_steps": counters.get("predict.chain_steps", 0),
        "predict.chain_madds_computed": counters.get("predict.chain_madds_computed", 0),
        "estimate.fit_s": total("estimate.fit"),
        "estimate.curves_s": total("estimate.curves"),
        "estimate.lead_scoring_s": total("estimate.lead_scoring"),
        "cli.import_s": total("cli.import"),
        "cli.unattributed_s": wall - summary["self_sum_s"],
    }
    for module in MODULES:
        layers[f"{module}.self_s"] = summary["self_by_module"].get(module, 0.0)
    return layers


def measure(args, sizes: dict) -> dict:
    name, seed = args.workload, args.seed
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _measure(args, sizes, name, seed, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(args, sizes, name, seed, run_dir) -> dict:
    loop_times = [reference_loop()]
    setup = set_up(name, sizes, seed, run_dir, loop_times)
    out = run_dir / "out"
    cli_args = workload_args(name, sizes, seed, setup, out)
    src_hash, src_lines = src_fingerprint()

    runs, traced, failures = [], [], []
    first_digests, auc = None, None
    min_runs = 2 * MIN_TRACED_PAIRS if args.trace else MIN_RUNS
    deadline = time.perf_counter() + args.seconds
    while True:
        # With --trace 1, untraced and traced runs alternate and stop on a pair.
        is_traced = bool(args.trace) and len(runs) % 2 == 1
        if time.perf_counter() >= deadline and not is_traced and len(runs) >= min_runs:
            break
        k = len(runs)
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        summary_path = run_dir / "trace.json"
        summary_path.unlink(missing_ok=True)
        if is_traced:
            argv = [sys.executable, str(BENCH / "trace_child.py"), str(summary_path)]
            res = run_child(argv + [str(a) for a in cli_args], run_dir / f"run{k}")
        else:
            res = run_child(cli_argv(*cli_args), run_dir / f"run{k}")
        loop_times.append(reference_loop())
        res["traced"] = is_traced
        runs.append(res)
        try:
            if res["code"] != 0:
                raise CheckFailed(f"exit code {res['code']}: {res['stderr'].strip()[-500:]}")
            tokens = summary_tokens(res["stdout"], name.split("-")[0])
            digests = {str(p.relative_to(out)): sha256(p) for p in output_files(out)}
            if first_digests is None:
                auc = check_outputs(name, sizes, seed, out, tokens, run_dir)
                first_digests = digests
            elif digests != first_digests:
                raise CheckFailed("outputs differ from the first run of this seed")
            if is_traced:
                with open(summary_path, encoding="utf-8") as fh:
                    traced.append((res, json.load(fh)))
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            failures.append(f"run {k}: {exc}")

    digest_status = "none"
    if first_digests is not None:
        key = f"{name}|seed={seed}|{json.dumps(sizes, sort_keys=True)}"
        try:
            digest_status = record_digests(key, src_hash, first_digests)
        except CheckFailed as exc:
            failures = [str(exc)] * len(runs)

    return {
        "setup": setup,
        "runs": runs,
        "traced": traced,
        "failures": failures,
        "loop_times": loop_times,
        "auc": auc,
        "digests": first_digests,
        "digest_status": digest_status,
        "src_hash": src_hash,
        "src_lines": src_lines,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def metric_line(name: str, unit: str, values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return (f"  {name:30s} {median:14.6g} {unit:6s} min={min(values):.6g} q1={q1:.6g} "
            f"q3={q3:.6g} max={max(values):.6g} n={len(values)}")


def end_to_end_samples(result: dict, games: int) -> dict:
    """Samples per metric, with times scaled to the reference speed.

    The speed for a command or set-up repeat is CAL_REF_S over the mean of
    the reference-loop times just before and just after it.
    """
    loops = result["loop_times"]
    speeds = [2 * CAL_REF_S / (a + b) for a, b in zip(loops, loops[1:])]
    n_setup = len(result["setup"]["setup_s"])
    setup_speeds, run_speeds = speeds[:n_setup], speeds[n_setup:]
    plain = [(r, v) for r, v in zip(result["runs"], run_speeds) if not r["traced"]]
    return {
        "wall_s": [r["wall_s"] * v for r, v in plain],
        "games_per_s": [games / (r["wall_s"] * v) for r, v in plain],
        "cpu_s": [r["cpu_s"] * v for r, v in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r, _ in plain],
        "setup_s": [w * v for w, v in zip(result["setup"]["setup_s"], setup_speeds)],
        "success_rate": [1.0 - len(result["failures"]) / len(result["runs"])],
        "auc_chain_mean": [result["auc"]] if result["auc"] is not None else [],
    }


def per_layer_samples(result: dict) -> dict:
    per_run = [traced_layers(summary, r["wall_s"]) for r, summary in result["traced"]]
    samples = {key: [layers[key] for layers in per_run] for key in (per_run or [{}])[0]}
    traced_walls = [r["wall_s"] for r, _ in result["traced"]]
    plain_walls = [r["wall_s"] for r in result["runs"] if not r["traced"]]
    samples["trace.wall_s"] = traced_walls
    if traced_walls:
        samples["trace.overhead_s"] = [
            statistics.median(traced_walls) - statistics.median(plain_walls)]
    samples["synth.generate_s"] = [result["setup"]["generate_s"]]
    return samples


def print_trace_summary(summary: dict) -> None:
    print(f"trace-check child_wall_s={summary['child_wall_s']!r} "
          f"self_sum_s={summary['self_sum_s']!r} spans={summary['spans']}")
    ranked = sorted(summary["by_name"].items(), key=lambda kv: -kv[1]["self_s"])
    for span, entry in ranked:
        print(f"  span {span:26s} count={entry['count']:<8d} "
              f"total_s={entry['total_s']:.4f} self_s={entry['self_s']:.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args()
    # On SIGTERM, unwind so the running child is killed and reaped and the
    # run's scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # One CPU for this harness and, by inheritance, every child, so the
    # reference loop measures the speed of the CPU the commands run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "scoredyn" / "cli.py").is_file():
        print(f"error: no scoredyn sources under {SRC}", file=sys.stderr)
        return 2
    sizes = dict(WORKLOADS[args.workload])
    if args.tiny:
        sizes.update(TINY[args.workload])
    try:
        result = measure(args, sizes)
    except CheckFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = len(result["runs"]), len(result["failures"])
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)

    if args.trace:
        samples = per_layer_samples(result)
        for _, summary in result["traced"][:1]:
            print_trace_summary(summary)
    else:
        samples = end_to_end_samples(result, games_processed(args.workload, sizes))
    # BENCHMARK.json is the one list of metric names and units.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in section if not samples.get(m["name"])]
    if missing and not failed:
        raise SystemExit(f"error: the benchmark computed no samples for {missing}")
    metrics = {m["name"]: {"value": statistics.median(samples.get(m["name"]) or [0.0]),
                           "unit": m["unit"]} for m in section}

    meta = {
        "workload": args.workload, "seed": args.seed, "sizes": sizes,
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "cpu": cpu_model(),
        **result["setup"]["versions"], "src_sha256_16": result["src_hash"],
        "src_lines": result["src_lines"], "runs": attempted,
        "digest_status": result["digest_status"],
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    plain = [r for r in result["runs"] if not r["traced"]]
    print("measured " + json.dumps({
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "setup_s": result["setup"]["setup_s"],
        "loop_s": result["loop_times"],
    }))
    print("digests " + json.dumps(result["digests"], sort_keys=True))
    for name, metric in metrics.items():
        print(metric_line(name, metric["unit"], samples.get(name) or [0.0]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

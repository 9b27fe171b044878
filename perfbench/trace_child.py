"""Run one `scoredyn` CLI command in this process with span tracing on.

Usage: python perfbench/trace_child.py SUMMARY_JSON CLI_ARG...

Times `import scoredyn.cli` in this fresh interpreter, wraps the public
functions each module calls into the other modules, calls
`scoredyn.cli.main(argv)`, restores the originals, and writes the span
summary (see tracer.Tracer.summary) to SUMMARY_JSON. Exits with the
CLI's exit code.
"""

import time

_T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def _count_parsed(tracer, args, kwargs, games):
    with open(args[0], "rb") as fh:
        lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    tracer.counters["ingest.records"] += lines - 1  # minus the CSV header
    tracer.counters["ingest.events"] += sum(g.n_events for g in games)


def _count_written(tracer, args, kwargs, result):
    tracer.counters["ingest.bytes_written"] += os.path.getsize(args[1])


def _count_game(tracer, args, kwargs, game):
    tracer.counters["simulate.events"] += game.n_events


def _count_predictions(tracer, args, kwargs, curve):
    tracer.counters["predict.predictions"] += int(curve.n_games_scored.sum())


def _count_chain_steps(tracer, args, kwargs, result):
    chain, lead, n_events = args
    if chain.antisymmetric and lead < 0:
        return  # delegates to the mirrored call, which is counted itself
    steps = int(round(float(n_events)))
    tracer.counters["predict.chain_steps"] += steps
    tracer.counters["predict.chain_madds_computed"] += steps * (2 * chain.cap + 1) ** 2


def _cell_name(spec, n_games):
    return f"simulate.cell_{spec.tempo_kind.value[0]}{spec.balance_kind.value[0]}"


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points at the call sites that reach them."""
    import scoredyn.cli as cli
    import scoredyn.core as core
    import scoredyn.estimate as estimate
    import scoredyn.ingest as ingest
    import scoredyn.predict as predict
    import scoredyn.simulate as simulate

    tracer.wrap(cli, "parse_event_file", "ingest.parse", after=_count_parsed)
    tracer.wrap(cli, "write_event_file", "ingest.write", after=_count_written)
    tracer.wrap(ingest, "render_event_file", "ingest.render")

    for module in (cli, ingest, estimate):
        tracer.wrap(module, "atomic_write_text", "core.write")
    tracer.wrap(core.GameLog, "__init__", "core.gamelog")

    for attr in ("fit_tempo", "fit_balance"):
        tracer.wrap(cli, attr, "estimate.fit")
    for attr in (
        "events_per_game_distribution",
        "interarrival_distribution",
        "correlation_function",
        "balance_fractions",
        "balance_null_distribution",
    ):
        tracer.wrap(cli, attr, "estimate.curves")
    tracer.wrap(cli, "save_model", "estimate.save_model")
    tracer.wrap(cli, "load_model", "estimate.load_model")
    tracer.wrap(predict, "lead_scoring_function", "estimate.lead_scoring")
    for attr in ("point_value_distribution", "tempo_profile"):
        tracer.wrap(predict, attr, "estimate.split_fit")

    # `cli` imports simulate_corpus and lead_dispersion from the module at
    # call time, so wrapping the module attributes covers those calls too.
    tracer.wrap(cli, "lead_variance_curve", "simulate.variance_curve")
    tracer.wrap(simulate, "simulate_corpus", _cell_name)
    tracer.wrap(simulate, "simulate_game", "simulate.game", after=_count_game)
    tracer.wrap(simulate, "lead_dispersion", "simulate.dispersion")
    tracer.wrap(simulate, "substream", "rng.substream")

    tracer.wrap(cli, "evaluate_predictability", "predict.eval", after=_count_predictions)
    tracer.wrap(predict, "build_chain", "predict.build_chain")
    tracer.wrap(predict, "forecast_after_events", "predict.forecast", after=_count_chain_steps)


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    idx = tracer.open("cli.import")
    import scoredyn.cli

    tracer.close(idx)
    install(tracer)
    try:
        code = tracer.call("cli.main", scoredyn.cli.main, argv)
    finally:
        t_end = time.perf_counter()
        tracer.restore()
    summary = tracer.summary()
    summary["child_wall_s"] = t_end - _T_START
    summary["exit_code"] = code
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Fixed-work benchmark for po2buchi, end to end and per layer.

    python3 perfbench/run.py --workload translate|decide|cli --seed N \\
        --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src`` and
``po2`` runs as ``python -m po2buchi.cli``, so nothing is installed.  The
workload is set up several times (``setup_s`` is the median), then whole
rounds of its fixed operation list run until ``--seconds`` have passed;
every round's outputs are checked against the oracles in ``oracles.py``.
Times are scaled to a reference speed of the host (see ``speed.py``).
The last line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced run
(per round of operations).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("translate", "decide", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if not (SRC / "po2buchi" / "__init__.py").is_file():
        print(f"error: no po2buchi package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and every process it starts, so the gauges
    # (see speed.py) and the work between them run on the same CPU.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as err:  # the times are scaled all the same
        print(f"not pinned to one CPU: {err}", file=sys.stderr)
    import oracles
    from po2buchi import monomials

    showcase = monomials.monomial_to_deterministic(monomials.parse_monomial("[ab]*a.[]*c.[c]w"))
    oracles.self_test(oracles.Machine.from_po2(showcase))

    workdir = HERE / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result))
    return 0


def measure(args: argparse.Namespace, workdir: Path) -> dict:
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    python = [sys.executable]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    spans_file = workdir / "spans.jsonl"
    if args.workload == "cli":
        po2 = [str(HERE / "po2_launcher.py"), str(spans_file)] if tracer else ["-m", "po2buchi.cli"]
        wl = workloads.Cli(args.seed, workdir, python + po2, env)
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    try:
        return run_workload(args, wl, tracer, python, env, spans_file)
    finally:
        wl.close()


def run_workload(args, wl, tracer, python: list[str], env: dict, spans_file: Path) -> dict:
    import speed
    import tracing
    import workloads

    setup_times = []
    timer = speed.Scaled()
    for i in range(wl.setups):
        before = tracer.snapshot() if tracer else None
        err, _, scaled = timer.time(wl.setup)
        if err is not None:
            raise err
        setup_times.append(scaled)
        if tracer and i == 0:
            setup_spans = tracing.subtract(tracer.snapshot(), before)

    correct, attempted, failed = True, 0, 0
    walls, op_times, counts, startups = [], [], None, []
    op_spans: dict = {"installed": []}
    start = perf_counter()
    while not walls or perf_counter() - start < args.seconds:
        ops, ctx = wl.round()
        before = tracer.snapshot() if tracer else None
        timer = speed.Scaled()
        timed = [timer.time(thunk) for _, thunk in ops]
        results = [(label, out, raw) for (label, _), (out, raw, _) in zip(ops, timed)]
        walls.append(sum(raw for _, raw, _ in timed))
        op_times.append([scaled for _, _, scaled in timed])
        del timed
        if tracer:
            tracing.merge(op_spans, tracing.subtract(tracer.snapshot(), before))
            startups.append(workloads.startup_seconds(python, env))
        attempted += len(ops)
        try:
            got = judge(wl, ctx, results, random.Random(f"{args.seed}/{len(walls)}"))
        except workloads.CheckFailed as err:
            print(f"check failed: {err}", file=sys.stderr)
            correct = False
            break
        del results  # the outputs, before the next round runs
        failed += got.pop("failed")
        if counts is not None and got != counts:
            print(f"work differs between rounds: {counts} then {got}", file=sys.stderr)
            correct = False
        counts = got
    print(f"{args.workload}: {len(walls)} rounds, unscaled round {statistics.median(walls):.4f} s, "
          f"wall_s {round_seconds(op_times):.4f}, setup_s {statistics.median(setup_times):.4f}",
          file=sys.stderr)

    if tracer:
        if spans_file.exists():  # spans of the po2 processes
            for line in spans_file.read_text(encoding="utf-8").splitlines():
                tracing.merge(op_spans, json.loads(line))
        metrics = per_layer(op_spans, setup_spans, len(walls), statistics.median(startups))
        save_trace(args, {"rounds": len(walls), "setup": setup_spans, "operations": op_spans})
    else:
        counts = counts or {"out_states": 0, "out_monomials": 0}
        if args.workload == "cli":
            peak_kb = wl.peak_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": ("s", statistics.median(setup_times)),
            "wall_s": ("s", round_seconds(op_times)),
            "op_p50_ms": ("ms", op_p50(op_times) * 1000),
            "peak_rss_mb": ("MB", peak_kb / 1024),
            "out_states": ("count", counts["out_states"]),
            "out_monomials": ("count", counts["out_monomials"]),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
    }


def judge(wl, ctx, results: list, rng: random.Random) -> dict:
    """The workload's check; in a forked child for the in-process workloads.

    The checks copy every output into the oracles' form.  Made in a child,
    those copies never count toward this process's memory peak.  ``cli``
    checks in process, because its memory figure comes from its children.
    """
    import workloads

    if wl.name == "cli":
        return wl.check(ctx, results, rng)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child answers through the pipe and never returns
        os.close(read)
        try:
            reply = {"counts": wl.check(ctx, results, rng)}
        except workloads.CheckFailed as err:
            reply = {"error": str(err)}
        except BaseException:
            reply = {"error": traceback.format_exc()}
        with os.fdopen(write, "w", encoding="utf-8") as fh:
            json.dump(reply, fh)
        os._exit(0)
    os.close(write)
    with os.fdopen(read, encoding="utf-8") as fh:
        reply = json.load(fh)
    os.waitpid(pid, 0)
    if "error" in reply:
        raise workloads.CheckFailed(reply["error"])
    return reply["counts"]


def round_seconds(op_times: list[list[float]]) -> float:
    """A round's time: the sum of each operation's median over the rounds."""
    return sum(statistics.median(times) for times in zip(*op_times))


def op_p50(op_times: list[list[float]]) -> float:
    """The median operation's time: each operation's median over the rounds,
    then the median of those.

    Pooled over all rounds, the median fell between two groups of operations
    of unlike length, in the tail of the longer group, and moved with every
    slow second of the host; an operation's own median does not.
    """
    return statistics.median(statistics.median(times) for times in zip(*op_times))


def per_layer(op_spans: dict, setup_spans: dict, rounds: int, startup_s: float) -> dict:
    """Per-layer metrics per round of operations."""
    import tracing

    metrics = tracing.layer_metrics(op_spans, 1 / rounds)
    # The decide workload builds its formula machines in set-up.
    for name, (_, value) in tracing.layer_metrics(setup_spans, 1).items():
        if name.startswith("satred."):
            metrics[name][1] += value
    if "decide.queries" in metrics:
        queries, tests = metrics["decide.queries"][1], metrics["decide.tests"][1]
        metrics["decide.tests_per_query"] = ["tests/query", tests / queries if queries else 0.0]
    metrics["cli.startup_s"] = ["s", startup_s]
    return metrics


def save_trace(args: argparse.Namespace, spans: dict) -> None:
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    path = results / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(spans, indent=1), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())

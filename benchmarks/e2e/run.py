#!/usr/bin/env python3
"""The repository's one benchmark: six workloads on two clocks.

    python3 benchmarks/e2e/run.py                       # whole suite
    python3 benchmarks/e2e/run.py --smoke               # plumbing check
    python3 benchmarks/e2e/run.py --workload loader-miss --seed 3 \\
        --seconds 15 --trace 0                          # one measured run
    python3 benchmarks/e2e/run.py compare A.json B.json

One run is one fresh single-threaded process.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the modeled prefix untraced, under
the benchmark's own shims and untraced again, and reports the per-layer
metrics.  The last line of a run's standard output is its result as one
JSON object.  README.md in this directory says what each metric means.

The host clock of the end-to-end metrics is the CPU time of this process
(``time.process_time``): the program is one thread that never waits, so on
a quiet machine CPU seconds are wall seconds, and on a shared one they
leave out the time a neighbour held the core.
"""

from __future__ import annotations

import os

# Before numpy loads: BLAS worker threads on a small shared box are noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
SCHEMA = "repro.bench.e2e/v1"

#: Set-up runs per measured run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: ``--smoke``: op counts relative to a measured run, and its time box.
SMOKE_SCALE = 0.05
SMOKE_SECONDS = 0.5
#: ``host_ops_per_s`` is the upper quartile of about this many segments.
SEGMENTS = 40

E2E_UNITS = {
    "setup_s": "s",
    "host_ops_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "modeled_s_per_op": "s",
    "modeled_p99_op_ms": "ms",
    "ok_ops_fraction": "ratio",
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def import_program() -> float:
    """Import ``repro`` from this checkout.

    Returns the CPU seconds this process has used so far: interpreter
    start-up and every import.
    """
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import numpy  # noqa: F401
        import repro
    except ImportError as exc:
        raise SystemExit(f"error: cannot import the program: {exc}")
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        raise SystemExit(
            f"error: repro was imported from {repro.__file__}, "
            f"not from {source}"
        )
    return time.process_time()


def segment_rates(
    calls: list[tuple[int, float, float]], period_ops: int
) -> list[float]:
    """Ops per CPU second of about :data:`SEGMENTS` consecutive segments.

    Each segment is a whole number of the workload's periods (an epoch, a
    diurnal swing, a checkpoint interval), so that no segment is faster
    only for the phase it caught; the unfinished tail is left out.
    """
    total_ops = sum(ops for ops, _, _ in calls)
    total_s = sum(cpu_s for _, _, cpu_s in calls)
    periods = total_ops // period_ops
    size = max(1, periods // SEGMENTS) * period_ops
    rates = []
    ops = seconds = 0
    for call_ops, _, cpu_s in calls:
        ops += call_ops
        seconds += cpu_s
        if ops >= size:
            rates.append(ops / seconds)
            ops = seconds = 0
    return rates or [total_ops / total_s]


def host_rate(rates: list[float]) -> float:
    """The upper quartile of the segment rates.

    What a neighbour on a shared machine does to a segment only ever slows
    it, so the faster segments are the ones that show the program; a
    change to the program moves all of them.
    """
    if len(rates) < 2:
        return rates[0]
    return statistics.quantiles(rates, n=4, method="inclusive")[2]


def environment(seed: int, scale: float, seconds: float) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            # Look for a repository here, not in whatever holds this tree.
            env={**os.environ,
                 "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or "unknown",
        "seed": seed,
        "op_scale": scale,
        "seconds": seconds,
    }


# ----------------------------------------------------------------------
# One measured run


class Measurement:
    """What one pass over a workload produced."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.setup_runs: list[float] = []
        #: (ops, wall seconds, CPU seconds) of every timed public call
        self.calls: list[tuple[int, float, float]] = []
        #: the workload's modeled outputs at the end of the prefix
        self.prefix: dict | None = None
        #: wall seconds of the prefix's calls (the clock of the spans)
        self.prefix_wall_s = 0.0
        self.error = ""

    def rates(self) -> list[float]:
        return segment_rates(self.calls, self.workload.period_ops)


def measure(
    cls, seed, scale, *, setups, seconds, recorder=None, checks=True
) -> Measurement:
    """Set up ``setups`` times, then time the prefix and the time box."""
    import tracing

    def phase(name: str) -> None:
        if recorder is not None:
            recorder.phase = name

    setup_runs = []
    workload = None
    for _ in range(setups):
        workload = None  # the previous instance must not count in peak RSS
        gc.collect()
        phase(tracing.SETUP)
        start = time.process_time()
        workload = cls(seed, scale, OUT)
        workload.build()
        phase(tracing.WARMUP)
        workload.warm_up()
        setup_runs.append(time.process_time() - start)
    run = Measurement(workload)
    run.setup_runs = setup_runs

    phase(tracing.TIMED)
    start = time.perf_counter()
    try:
        while run.prefix is None or time.perf_counter() - start < seconds:
            if recorder is not None:
                recorder.op = workload.ops_done
            run.calls.append(workload.step())
            if run.prefix is None and workload.prefix_done:
                phase(tracing.AFTER)
                run.prefix_wall_s = sum(wall for _, wall, _ in run.calls)
                run.prefix = workload.prefix_summary()
        if checks:
            workload.finish()
    except Exception:
        # The boundary that must report: an op that raised fails the run,
        # and the state it left behind cannot be stepped further.
        run.error = traceback.format_exc()
        workload.fail_op(run.error.strip().splitlines()[-1])
    finally:
        workload.close()
    return run


def measure_traced(cls, seed, scale):
    """The same prefix three times in one process: plain, shimmed, plain.

    Equal digests show that tracing changed no modeled output.  The host
    rates over identical ops give the tracing overhead; the plain pass
    runs on both sides of the traced one so that a process still warming
    up does not pass for overhead (or hide it).
    """
    import tracing

    def plain_pass() -> Measurement:
        return measure(cls, seed, scale, setups=1, seconds=0.0, checks=False)

    plains = [plain_pass()]
    recorder = tracing.install()
    try:
        run = measure(
            cls, seed, scale, setups=1, seconds=0.0, recorder=recorder
        )
    finally:
        recorder.uninstall()
    plains.append(plain_pass())

    workload = run.workload
    for plain in plains:
        run.error = run.error or plain.error
        workload.messages += plain.workload.messages
        workload.failed_ops += plain.workload.failed_ops
    overhead = 0.0
    if run.prefix and all(plain.prefix for plain in plains):
        for plain in plains:
            if plain.prefix["digest"] != run.prefix["digest"]:
                workload.fail_run(
                    "tracing changed the modeled outputs: digest "
                    f"{plain.prefix['digest']} != {run.prefix['digest']}"
                )
        overhead = statistics.mean(
            host_rate(plain.rates()) for plain in plains
        ) / host_rate(run.rates())
    return run, recorder, overhead


def end_to_end_values(run: Measurement, import_s: float) -> dict[str, float]:
    prefix, workload = run.prefix, run.workload
    not_ok = prefix["bad_ops"] + workload.failed_ops
    return {
        "setup_s": import_s + statistics.median(run.setup_runs),
        "host_ops_per_s": host_rate(run.rates()),
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "modeled_s_per_op": prefix["modeled_s_per_op"],
        "modeled_p99_op_ms": prefix["modeled_p99_op_ms"],
        "ok_ops_fraction": max(0.0, 1.0 - not_ok / prefix["ops"]),
    }


def run_workload(args) -> int:
    import_s = import_program()
    from layers import PER_LAYER, per_layer_values
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    scale = SMOKE_SCALE if args.smoke else 1.0
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        run, recorder, overhead = measure_traced(cls, args.seed, scale)
    else:
        run = measure(
            cls, args.seed, scale, seconds=args.seconds,
            setups=1 if args.smoke else SETUP_REPEATS,
        )
    workload, prefix = run.workload, run.prefix

    attempted = max(1, sum(call[0] for call in run.calls) + bool(run.error))
    correct = not workload.messages and prefix is not None
    document = {
        "schema": SCHEMA,
        "workload": cls.name,
        "trace": args.trace,
        "environment": environment(args.seed, scale, args.seconds),
        "correct": correct,
        "attempted": attempted,
        "failed": workload.failed_ops,
        "messages": workload.messages,
        "modeled_digest": prefix["digest"] if prefix else None,
        "prefix_ops": prefix["ops"] if prefix else 0,
        "not_ok_ops": (prefix["bad_ops"] if prefix else 0)
        + workload.failed_ops,
    }
    metrics: dict[str, dict] = {}
    if prefix is not None and not args.trace:
        values = end_to_end_values(run, import_s)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in E2E_UNITS.items()
        }
        document["segment_ops_per_s"] = rates = run.rates()
        document["wall_ops_per_s"] = wall_rate = sum(
            call[0] for call in run.calls
        ) / sum(wall for _, wall, _ in run.calls)
        document["setup_runs_s"] = run.setup_runs
        document["import_s"] = import_s
    elif prefix is not None:
        values = per_layer_values(
            recorder, prefix, timed_s=run.prefix_wall_s,
            trace_overhead_ratio=overhead,
        )
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER
        }
        with open(os.path.join(OUT, f"trace-{cls.name}.json"), "w") as handle:
            json.dump(
                recorder.trace_document(
                    schema=SCHEMA, workload=cls.name, seed=args.seed
                ),
                handle,
            )
    document["metrics"] = metrics
    result_path = os.path.join(
        OUT, f"result-{cls.name}-trace{args.trace}.json"
    )
    with open(result_path, "w") as handle:
        json.dump(document, handle, indent=1)

    if prefix is None:
        print(run.error, file=sys.stderr)
        return 1
    print(f"{cls.name} (seed {args.seed}, trace {args.trace}): {cls.why}")
    print(
        f"  ops: {attempted} timed, {prefix['ops']} in the modeled prefix, "
        f"{document['not_ok_ops']} of those not ok, "
        f"{workload.failed_ops} failed; digest {prefix['digest'][:16]}"
    )
    if not args.trace:
        print(
            f"  host_ops_per_s is the upper quartile of {len(rates)} "
            f"segments on the CPU clock, min {min(rates):.6g}, median "
            f"{statistics.median(rates):.6g}, max {max(rates):.6g}; all "
            f"timed ops on the wall clock: {wall_rate:.6g} 1/s"
        )
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    for message in workload.messages:
        print(f"  CHECK FAILED: {message}")
    if run.error:
        print(run.error, file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": workload.failed_ops,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The whole suite: every workload, untraced then traced, one at a time


def run_suite(args) -> int:
    import_program()
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    results: dict[str, dict] = {}
    problems: list[str] = []
    for name in names:
        runs = {}
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--trace", str(trace),
            ]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            # Never two at once: each child has the box to itself.
            code = subprocess.run(command, cwd=ROOT).returncode
            path = os.path.join(OUT, f"result-{name}-trace{trace}.json")
            with open(path) as handle:
                runs[trace] = json.load(handle)
            if code != 0 or not runs[trace]["correct"]:
                problems.append(f"{name} (trace {trace}) failed")
        plain, traced = runs[0], runs[1]
        if plain["modeled_digest"] != traced["modeled_digest"]:
            problems.append(
                f"{name}: traced and untraced runs disagree "
                f"({traced['modeled_digest']} != {plain['modeled_digest']})"
            )
        results[name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "prefix_ops": plain["prefix_ops"],
            "not_ok_ops": plain["not_ok_ops"],
            "modeled_digest": plain["modeled_digest"],
            "traced_digest": traced["modeled_digest"],
            "end_to_end": plain["metrics"],
            "segment_ops_per_s": plain.get("segment_ops_per_s", []),
            "wall_ops_per_s": plain.get("wall_ops_per_s"),
            "per_layer": traced["metrics"],
            "messages": plain["messages"] + traced["messages"],
            "environment": plain["environment"],
        }

    document = {"schema": SCHEMA, "workloads": results, "problems": problems}
    out_path = args.out or os.path.join(OUT, "results.json")
    with open(out_path, "w") as handle:
        json.dump(document, handle, indent=1)

    print()
    print(f"{'metric':26s}" + "".join(f"{name:>17s}" for name in names))
    for metric, unit in E2E_UNITS.items():
        cells = (
            results[name]["end_to_end"].get(metric, {}).get("value")
            for name in names
        )
        print(
            f"{metric + ' [' + unit + ']':26s}"
            + "".join(
                f"{'failed':>17s}" if cell is None else f"{cell:17.6g}"
                for cell in cells
            )
        )
    print(f"results written to {os.path.relpath(out_path)}")
    for problem in problems:
        print(f"FAILED: {problem}")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time box of an untraced run (default: "
                        "run_seconds of BENCHMARK.json, 0.5 under --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="op counts / 20, one set-up, 0.5 s time box")
    parser.add_argument("--out", help="suite result file")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args)
    spec = load_spec()
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {names}")
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

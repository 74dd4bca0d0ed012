"""Benchmark for deltafrac: one workload per run, metrics as JSON.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite --seed 1729 --seconds 10 --trace 0

Workloads are ``suite``, ``windows`` and ``pointwise`` (see README.md in
this directory).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it reports per-layer counts and time shares
from traced rounds.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
output was wrong and 2 when the run could not be made.

A run is several rounds, each a fresh worker process (worker.py) that
runs the same seeded passes.  The first round runs passes until its timed
units add up to its share of ``--seconds``; the others repeat that many.
Each round samples the machine's speed as it works and scales every unit's
time to a reference speed (speed.py), because other tenants of a shared
machine slow whole stretches of a run by up to half.  A unit's latency is
its median scaled time over the rounds.  Each round is a new process, so
an in-process cache cannot carry a unit's result from one round into the
next.

The library is never imported here.  ``setup_s`` times fresh interpreters
importing ``deltafrac.cli``, spread between the rounds, and scales each by
the speed that interpreter sampled just after its import.  Both they and
the workers get the checkout's ``src`` on PYTHONPATH, so nothing has to be
installed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROUNDS = 6
# Traced and untraced rounds alternate, so both see the same machine.
TRACE_ROUNDS = (0, 1, 0, 1)
SETUP_PER_ROUND = 2
# A run must end within 180 s; leave room for the last round's output.
RUN_LIMIT_S = 170.0
# The tail percentile per workload: the highest with at least ten samples
# beyond it in one run.  windows makes 150 calls per pass.
TAIL_PERCENTILE = {"suite": 99, "windows": 90, "pointwise": 99}

END_TO_END = (
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class RunError(Exception):
    pass


class Runner:
    def __init__(self, root: Path, args) -> None:
        self.root = root
        self.args = args
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.started = perf_counter()
        self.setup_s: list = []
        self.import_timing = [
            sys.executable, "-c",
            f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            "import speed; speed.time_import('deltafrac.cli')",
        ]

    def _remaining(self) -> float:
        remaining = RUN_LIMIT_S - (perf_counter() - self.started)
        if remaining <= 0:
            raise RunError(f"the run took longer than {RUN_LIMIT_S} s")
        return remaining

    def time_setup(self, count: int) -> None:
        """Wall time of fresh interpreters importing deltafrac.cli, scaled to
        reference speed; the child prints when its import ended on the same
        monotonic clock, and its speed just after."""
        for _ in range(count):
            start = perf_counter()
            done, probe_s = map(float, self._child(self.import_timing).split())
            self.setup_s.append((done - start) * speed.PROBE_REF_S / probe_s)

    def _child(self, command: list) -> str:
        try:
            done = subprocess.run(
                command, cwd=self.root, env=self.env, capture_output=True,
                text=True, timeout=self._remaining(),
            )
        except subprocess.TimeoutExpired as exc:
            raise RunError(f"timed out: {' '.join(command)}") from exc
        if done.returncode != 0:
            raise RunError(f"{' '.join(command)} exited with {done.returncode}:\n{done.stderr}")
        return done.stdout

    def round(self, trace: int, passes: int, budget: float) -> dict:
        args = self.args
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--passes", str(passes), "--budget", repr(budget), "--trace", str(trace),
        ]
        if args.tiny:
            command.append("--tiny")
        if args.expect_digest:
            command += ["--expect-digest", args.expect_digest]
        lines = self._child(command).strip().splitlines()
        try:
            return json.loads(lines[-1])
        except (IndexError, ValueError) as exc:
            raise RunError(f"worker printed no result: {lines[-1:]}") from exc

    def rounds(self, traces) -> list:
        """One round per entry of ``traces``; the first sets the pass count."""
        self.time_setup(1)  # compiles a fresh checkout's bytecode; not kept
        self.setup_s.clear()
        done = []
        for trace in traces:
            self.time_setup(SETUP_PER_ROUND)
            if done:
                done.append(self.round(trace, done[0]["passes"], 0.0))
            else:
                done.append(self.round(trace, 1, self.args.seconds / len(traces)))
        return done


def unit_latencies(rounds: list, failures: list) -> list:
    """Per-unit median scaled time over rounds; rounds must make the same units."""
    counts = {len(r["latencies_s"]) for r in rounds}
    if len(counts) != 1:
        failures.append(f"rounds produced different unit counts: {sorted(counts)}")
        return rounds[0]["latencies_s"]
    return [statistics.median(times) for times in zip(*(r["latencies_s"] for r in rounds))]


def percentile(values: list, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(args, rounds: list, latencies: list, runner: Runner) -> dict:
    ms = [x * 1000.0 for x in latencies]
    values = {
        "setup_s": statistics.median(runner.setup_s),
        "throughput": len(latencies) / sum(latencies),
        "latency_p50_ms": percentile(ms, 50),
        "latency_tail_ms": percentile(ms, TAIL_PERCENTILE[args.workload]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(rounds: list, traces, failures: list) -> dict:
    """Mean per-pass counts and time shares over the traced rounds."""
    traced = [r for r, trace in zip(rounds, traces) if trace]
    untraced = [r for r, trace in zip(rounds, traces) if not trace]
    busy = sum(r["busy_s"] for r in traced)
    metrics = {}
    for name, (kind, _, unit) in traced[0]["layers"].items():
        values = [r["layers"][name][1] for r in traced]
        if kind == "count":
            value = statistics.fmean(values)
        elif kind == "seconds":
            value = 100.0 * sum(values) / busy
        else:
            value = max(values)
        metrics[name] = {"value": value, "unit": unit}
    slow = sum(unit_latencies(traced, failures))
    fast = sum(unit_latencies(untraced, failures))
    metrics["trace.overhead_pct"] = {"value": 100.0 * (slow - fast) / slow, "unit": "%"}
    return metrics


def print_summary(args, rounds: list, samples: int, attempted: int, failed: int,
                  metrics: dict, failures: list) -> None:
    unit = rounds[0]["unit"]
    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}: {len(rounds)} rounds of {rounds[0]['passes']} passes, "
        f"{samples} {unit}s per round; python {platform.python_version()}, "
        f"nproc {os.cpu_count()}"
    )
    slowness = ", ".join(f"{r['slowness']:.3f}" for r in rounds)
    print(f"  machine slowness per round, against the reference speed: {slowness}")
    notes = {
        "setup_s": "median of fresh `import deltafrac.cli` runs",
        "throughput": f"{unit}s per second of unit latencies",
        "latency_p50_ms": f"median of {len(rounds)} rounds per unit, {samples} samples",
        "latency_tail_ms": f"p{TAIL_PERCENTILE[args.workload]} of {samples} samples",
        "peak_rss_mb": "peak resident memory of a worker process, not scaled",
    }
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:>14.6g} {entry['unit']:10s} {notes.get(name, '')}")
    share = failed / attempted
    print(f"  {'failed_share':32s} {share:>14.6g} {'':10s} {failed} of {attempted} {unit}s")
    for failure in failures:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument(
        "--expect-digest", default=None,
        help="expected suite stream digest, in place of the seed-1729 golden one",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = Path.cwd()
    if not (root / "src" / "deltafrac" / "cli.py").is_file():
        print(f"perfbench: no src/deltafrac/cli.py under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2

    runner = Runner(root, args)
    traces = TRACE_ROUNDS if args.trace else (0,) * ROUNDS
    try:
        rounds = runner.rounds(traces)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    run_failures: list = []  # the rounds disagree
    if args.trace:
        metrics = per_layer(rounds, traces, run_failures)
        samples = len(rounds[0]["latencies_s"])
    else:
        latencies = unit_latencies(rounds, run_failures)
        metrics = end_to_end(args, rounds, latencies, runner)
        samples = len(latencies)
    attempted = sum(len(r["latencies_s"]) for r in rounds)
    failed = min(sum(r["failed"] for r in rounds) + len(run_failures), attempted)
    failures = [f for r in rounds for f in r["failures"]] + run_failures
    print_summary(args, rounds, samples, attempted, failed, metrics, failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one round of a workload in this process and print it as JSON.

run.py starts this file as a child process with the checkout's ``src`` on
PYTHONPATH, once per round, so that every round starts from a fresh
interpreter and the peak resident memory it reports belongs to the process
that ran the workload.  A round runs passes while fewer than ``--passes``
have run or their timed units add up to less than ``--budget`` seconds.
The round samples the machine's speed while it runs (speed.py) and prints
each unit's latency scaled to the reference speed.  With ``--trace 1`` the
round runs with spans and counters installed and also prints the raw
per-layer totals.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource

import speed
import tracing
import workloads

WORKDIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_work")
MAX_FAILURE_MESSAGES = 10


def _hooks(tracer: tracing.Tracer) -> dict:
    """Counts taken from a traced call's arguments or result.

    fracops.mac_computed is computed from the window sizes, not counted
    inside the kernel: L(L+1)/2 multiply-adds for a sum or difference of a
    length-L window, (L-n)(n+1) for an n-th difference, t_index for a
    nabla evaluation.
    """
    counts = tracer.counts

    def frac_sum_diff(args, result):
        length = len(args[0])
        counts["fracops.mac_computed"] += length * (length + 1) // 2

    def delta_n(args, result):
        length, order = len(args[0]), args[1]
        counts["fracops.mac_computed"] += max(length - order, 0) * (order + 1)

    def nabla_poch_diff(args, result):
        counts["fracops.mac_computed"] += args[3]

    def outcome(args, result):
        counts[f"special.outcome.{result.kind}"] += 1

    return {
        "fracops.frac_sum_diff": frac_sum_diff,
        "fracops.delta_n": delta_n,
        "fracops.nabla_poch_diff": nabla_poch_diff,
        "special.falling": outcome,
        "special.pochhammer": outcome,
    }


def layer_metrics(tracer: tracing.Tracer, passes: list) -> dict:
    """Per-layer metrics of one traced round, as name -> [kind, value, unit].

    Kind ``count`` is a per-pass count, ``seconds`` a time that run.py turns
    into a share of the traced rounds' busy time, ``max`` a largest value.
    """
    layers = tracer.layer_report()
    counts, calls, inclusive = tracer.counts, layers["calls"], layers["inclusive_s"]

    def count(value):
        return ["count", value / len(passes), "count/pass"]

    def seconds(value):
        return ["seconds", value, "%"]

    metrics = {
        name: count(counts[name])
        for name in (
            "exact.poly_new", "exact.poly_add", "exact.poly_mul", "exact.gamma_of",
            "exact.monomial_mul", "exact.to_float", "exact.render",
        )
    }
    metrics["exact.max_terms"] = ["max", max(p.max_terms for p in passes), "count"]
    metrics["exact.max_coeff_bits"] = ["max", max(p.max_coeff_bits for p in passes), "bits"]
    metrics["special.calls"] = count(
        sum(n for name, n in calls.items() if name.startswith("special."))
    )
    for kind in ("finite", "zero", "pole"):
        metrics[f"special.outcome.{kind}"] = count(counts[f"special.outcome.{kind}"])
    for op in ("frac_sum_diff", "delta_n", "nabla_poch_diff"):
        metrics[f"fracops.{op}.calls"] = count(calls[f"fracops.{op}"])
    metrics["fracops.mac_computed"] = count(counts["fracops.mac_computed"])
    metrics["identities.reports"] = count(counts["identities.reports"])
    for status in ("exact", "float_only", "mismatch", "domain_excluded", "pole"):
        metrics[f"identities.status.{status}"] = count(counts[f"identities.status.{status}"])
    for identity in workloads.SUITE:
        metrics[f"identities.{identity}.pct"] = seconds(inclusive[f"identities.sweep.{identity}"])
    metrics["identities.compare_pct"] = seconds(inclusive["identities.report_compare"])
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_pct"] = seconds(layers["self_s"][layer])
    metrics["cli.bytes_out"] = ["count", sum(p.bytes_out for p in passes) / len(passes), "bytes/pass"]
    metrics["trace.spans"] = count(len(tracer.spans))
    return metrics


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--expect-digest", default=None)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.tiny, args.expect_digest, WORKDIR
    )
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, _hooks(tracer))
    # Every round draws the same inputs, so units line up across rounds.
    rng = random.Random(args.seed)
    sampler = speed.Sampler()
    sampler.start()
    passes = []
    while len(passes) < args.passes or sum(p.busy_s for p in passes) < args.budget:
        passes.append(workload.run_pass(rng, tracer))
    sampler.stop()

    failures = [f for p in passes for f in p.failures]
    doc = {
        "unit": workload.unit,
        "passes": len(passes),
        "busy_s": sum(p.busy_s for p in passes),
        "latencies_s": sampler.scale([span for p in passes for span in p.spans]),
        "slowness": sampler.mean_probe_s() / speed.PROBE_REF_S,
        "failed": len(failures),
        "failures": failures[:MAX_FAILURE_MESSAGES],
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        doc["layers"] = layer_metrics(tracer, passes)
    print(json.dumps(doc))


if __name__ == "__main__":
    main()

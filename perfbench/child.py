"""One experiment of one workload, in the interpreter this module runs in.

``run.py`` starts ``python -m perfbench.child`` once per measured
experiment, so every timing comes from a fresh single-threaded
interpreter. The set-up clock starts before the first ``import repro``
and stops when the experiment is built; the run clock covers
``Experiment.run`` only. The host reference workload
(:mod:`perfbench.hostref`) is timed twice right after the run, outside
both clocks. With ``--trace`` the experiment runs under
:class:`perfbench.tracer.Tracer` and the per-layer figures are added.

Prints one JSON object on its last stdout line. Exits 1 when the run
raises or its simulated output fails the workload's check.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from functools import partial
from itertools import count
from pathlib import Path

from perfbench import workloads
from perfbench.hostref import reference_s
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def layer_metrics(tracer: Tracer, run_mark: int, run_s: float, events: int) -> dict[str, float]:
    """Per-layer spans of the traced run, by the names in ``BENCHMARK.json``."""
    run = tracer.summary(run_mark)
    setup = tracer.summary(0, run_mark)

    def calls(name: str) -> int:
        return run[name]["calls"]

    def busy(name: str) -> float:
        return run[name]["busy_s"]

    opens = calls("net.crypto.open")
    rejected = run["net.crypto.open"]["raised"]
    return {
        "sim.events": events,
        "sim_core.self_s": run_s - sum(row["root_s"] for row in run.values()),
        "hardware.aex.fired": calls("hardware.aex"),
        "hardware.aex.busy_s": busy("hardware.aex"),
        "hardware.monitor.checks": calls("hardware.monitor"),
        "hardware.monitor.busy_s": busy("hardware.monitor"),
        "core.estimate.busy_s": busy("core.estimate"),
        "net.crypto.seal.calls": calls("net.crypto.seal"),
        "net.crypto.seal.busy_s": busy("net.crypto.seal"),
        "net.crypto.seal.bytes": run["net.crypto.seal"]["size"],
        "net.crypto.open.calls": opens,
        "net.crypto.open.busy_s": busy("net.crypto.open"),
        "net.crypto.open.rejected": rejected,
        "net.crypto.open.accept_ratio": (opens - rejected) / opens if opens else 0.0,
        "net.crypto.rekey.calls": calls("net.crypto.rekey"),
        "net.transport.send.self_s": run["net.transport.send"]["self_s"],
        "net.channel.send.calls": calls("net.channel.send"),
        "net.channel.send.self_s": run["net.channel.send"]["self_s"],
        "net.adversary.observe.calls": calls("net.adversary.observe"),
        "net.adversary.observe.busy_s": busy("net.adversary.observe"),
        "service.tick.calls": calls("service.tick"),
        "service.tick.busy_s": busy("service.tick"),
        "service.quorum.estimate.calls": calls("service.quorum.estimate"),
        "service.quorum.estimate.busy_s": busy("service.quorum.estimate"),
        "membership.observe.calls": calls("membership.observe"),
        "membership.observe.busy_s": busy("membership.observe"),
        "membership.close_epoch.busy_s": busy("membership.close_epoch"),
        "oracle.hook.calls": calls("oracle.hook"),
        "oracle.hook.busy_s": busy("oracle.hook"),
        "experiments.parse_s": setup["experiments.parse"]["busy_s"],
        "experiments.build_s": setup["experiments.build"]["busy_s"],
    }


def run_one(name: str, seed: int, trace: bool) -> dict:
    """Build, run and check one experiment; return its measurements."""
    workload = workloads.WORKLOADS[name]
    raw = workload.spec(seed)
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer() if trace else None
    started = time.perf_counter()
    try:
        if tracer is not None:
            tracer.install()
        from repro.experiments.spec import ExperimentSpec
        from repro.oracle.policy import oracle_policy

        with oracle_policy(workload.oracle):
            spec = ExperimentSpec.from_dict(raw)
            experiment = spec.build()
            setup_s = time.perf_counter() - started
            if tracer is not None:
                run_mark = tracer.mark()
                # next(counter, now) advances the counter once per processed
                # event, in C: the cheapest hook the kernel can call.
                events = count()
                experiment.sim.add_trace_hook(partial(next, events))
            run_started = time.perf_counter()
            experiment.run(spec.duration_ns)
            run_s = time.perf_counter() - run_started
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.check(experiment)
    result = {
        "ok": True,
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "run_s": run_s,
        # After the peak-RSS reading, so its allocations do not count.
        "ref_s": (reference_s() + reference_s()) / 2,
        "sim_s": spec.duration_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": workloads.digest(experiment),
        "simulated": workloads.simulated_metrics(workload, experiment),
    }
    if tracer is not None:
        result["layers"] = {
            **layer_metrics(tracer, run_mark, run_s, next(events)),
            **workloads.layer_counters(experiment),
        }
        result["leftovers"] = tracer.leftovers()
        spans_path = ROOT / ".perfbench" / "spans" / f"{name}-seed{seed}.tsv"
        tracer.write(spans_path)
        result["spans"] = str(spans_path.relative_to(ROOT))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run_one(args.workload, args.seed, args.trace)
    except Exception as exc:  # the parent counts this run as failed
        traceback.print_exc()
        print(json.dumps({"ok": False, "seed": args.seed, "error": f"{type(exc).__name__}: {exc}"}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

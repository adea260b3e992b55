"""Benchmark harness: simulated seconds per wall second on canonical runs.

Usage, from the repository root::

    python3 perfbench/run.py --workload benign-20 --seed 1 --seconds 30 --trace 0

Every experiment runs in its own fresh interpreter (``perfbench/child.py``).
With ``--trace 0`` the run simulates the workload's sub-seeds once each
(always), then repeats them round-robin while ``--seconds`` allows, and
reports the end-to-end metrics of ``BENCHMARK.json``. With ``--trace 1``
it alternates an untraced and a traced experiment of the first sub-seed
and reports the per-layer metrics. Every experiment's simulated output is
checked (see ``workloads.py``); a repeat of a sub-seed must reproduce its
digest, and a traced run must reproduce the untraced digest. Host timings
are scaled to a nominal host speed measured by ``hostref.py`` (see
``README.md``); the unscaled figures are printed and recorded as well.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A fuller record with the host fingerprint and
every sample goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import hostref, workloads  # noqa: E402

#: A run must end within this many seconds whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0
#: Per-layer metrics computed from the untraced experiment of a trace pair.
SIMULATED_LAYER = ("honest_drift_max_ms", "client_error_p99_ms", "client_availability")


def fingerprint() -> dict:
    """Host and code identity: compare results only between equal prints."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        sources.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": commit,
        "source_sha256": sources.hexdigest(),
    }


def child_env() -> dict[str, str]:
    """A fresh, single-threaded interpreter with a fixed hash seed."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(workload: str, seed: int, trace: bool, timeout_s: float) -> dict:
    """One experiment in a fresh interpreter; failures come back as ``ok: False``."""
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout_s
        )
    except subprocess.TimeoutExpired:
        error = f"timed out after {timeout_s:.0f}s"
        return {"ok": False, "seed": seed, "trace": trace, "error": error}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False, "seed": seed, "error": proc.stderr.strip()[-400:] or "no output"}
    result["trace"] = trace
    result["wall_s"] = time.perf_counter() - started
    if proc.returncode != 0:
        result["ok"] = False
    return result


def _fail(result: dict, reason: str) -> None:
    result["ok"] = False
    result["error"] = reason


def check_digests(results: list[dict], reference: dict[int, str]) -> None:
    """Fail any result whose digest differs from its sub-seed's reference.

    ``reference`` starts with the committed digests and takes the first
    digest seen for every other sub-seed.
    """
    for result in results:
        if not result["ok"]:
            continue
        expected = reference.setdefault(result["seed"], result["digest"])
        if result["digest"] != expected:
            got = result["digest"]
            _fail(result, f"digest {got[:12]} != {expected[:12]} for seed {result['seed']}")


def _keep_going(started: float, seconds: float, walls: list[float]) -> bool:
    """Whether one more experiment of typical length fits the time budget."""
    predicted = statistics.median(walls) if walls else 0.0
    elapsed = time.perf_counter() - started
    return elapsed + predicted <= min(seconds, RUN_LIMIT_S)


def host_scale(results: list[dict]) -> float:
    """Factor turning host seconds of these experiments into nominal seconds.

    The reference workload's mean time over the run, divided by its time
    on a quiet host: above 1 when other tenants slowed the host down.
    """
    return statistics.fmean(r["ref_s"] for r in results) / hostref.NOMINAL_S


def measure(
    workload: workloads.Workload, seed: int, seconds: float, started: float
) -> tuple[list[dict], dict, dict]:
    """Untraced experiments of every sub-seed, repeated while time allows."""
    seeds = workloads.subseeds(workload, seed)
    results: list[dict] = []
    k = 0
    while k < len(seeds) or _keep_going(started, seconds, [r["wall_s"] for r in results]):
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        if remaining <= 5:
            break
        results.append(run_child(workload.name, seeds[k % len(seeds)], False, remaining))
        k += 1
    check_digests(results, workloads.committed_digests(workload))
    ok = [r for r in results if r["ok"]]
    by_seed: dict[int, list[dict]] = {}
    for result in ok:
        by_seed.setdefault(result["seed"], []).append(result)
    metrics: dict = {}
    unscaled: dict = {}
    if by_seed:
        # Ratio of sums over sub-seeds, each timed by the mean of its
        # repeats: the host's noise is roughly symmetric, so the mean
        # averages it out faster than a median or minimum of few repeats.
        sim_s = sum(runs[0]["sim_s"] for runs in by_seed.values())
        wall_s = sum(statistics.fmean(r["run_s"] for r in runs) for runs in by_seed.values())
        setup_s = statistics.median(r["setup_s"] for r in ok)
        scale = host_scale(ok)
        unscaled.update(host_scale=scale, sim_s_per_wall_s=sim_s / wall_s, setup_s=setup_s)
        metrics = {
            "sim_s_per_wall_s": sim_s / (wall_s / scale),
            "setup_s": setup_s / scale,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
            "node_availability": statistics.fmean(
                runs[0]["simulated"]["node_availability"] for runs in by_seed.values()
            ),
        }
    return results, metrics, unscaled


def measure_traced(
    workload: workloads.Workload, seed: int, seconds: float, started: float
) -> tuple[list[dict], dict, dict]:
    """Untraced/traced pairs of the first sub-seed, repeated while time allows."""
    results: list[dict] = []
    pairs: list[tuple[dict, dict]] = []
    while not pairs or _keep_going(started, seconds, [u["wall_s"] + t["wall_s"] for u, t in pairs]):
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        if remaining <= 10:
            break
        untraced = run_child(workload.name, seed, False, remaining / 2)
        traced = run_child(workload.name, seed, True, remaining / 2)
        results += [untraced, traced]
        pairs.append((untraced, traced))
    check_digests(results, workloads.committed_digests(workload))
    for _, traced in pairs:
        if traced["ok"] and traced["leftovers"]:
            _fail(traced, f"wrappers left behind: {traced['leftovers']}")
    # Spans are timings (names ending in _s): report their median. Every
    # other per-layer figure is a count or ratio and must repeat exactly.
    first = next((t["layers"] for _, t in pairs if t["ok"]), None)
    for _, traced in pairs:
        if traced["ok"]:
            layers = traced["layers"]
            moved = [k for k, v in layers.items() if not k.endswith("_s") and v != first[k]]
            if moved:
                _fail(traced, f"counts did not repeat: {moved}")
    good = [(u, t) for u, t in pairs if u["ok"] and t["ok"]]
    if not good:
        return results, {}, {}
    scale = host_scale([t for _, t in good])
    metrics = {
        name: statistics.median(t["layers"][name] for _, t in good) / scale
        if name.endswith("_s")
        else value
        for name, value in first.items()
    }
    metrics["trace.overhead_ratio"] = statistics.median(
        (t["run_s"] / t["ref_s"]) / (u["run_s"] / u["ref_s"]) for u, t in good
    )
    for name in SIMULATED_LAYER:
        metrics[name] = good[0][0]["simulated"][name]
    return results, metrics, {"host_scale": scale}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    workload = workloads.WORKLOADS[args.workload]
    started = time.perf_counter()
    measure_fn = measure_traced if args.trace else measure
    results, values, unscaled = measure_fn(workload, args.seed, args.seconds, started)
    failed = sum(1 for r in results if not r["ok"])
    if not values:
        for result in results:
            print(f"failed seed {result['seed']}: {result.get('error')}", file=sys.stderr)
        print("error: no experiment completed its checks", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(
            f"error: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
            file=sys.stderr,
        )
        return 1

    host = fingerprint()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "metrics": metrics,
        "unscaled": unscaled,
        "samples": results,
    }
    filename = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out = ROOT / ".perfbench" / "results" / filename
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")

    print(f"host: {json.dumps(host, sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed}: {len(results)} experiments, {failed} failed")
    for result in results:
        if not result["ok"]:
            print(f"  FAILED seed {result['seed']}: {result.get('error')}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  unscaled host timings: {json.dumps(unscaled)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the canonical experiments and what they reproduce.
``run <experiment>``
    Run one experiment (``fig1``, ``inc``, ``fig2`` … ``fig6``,
    ``fig6-hardened``, ``ablation``) and print its tables; ``--export DIR``
    also writes the series as CSVs.
``sweep <name>``
    Run a parameter sweep (``attack-delay``, ``jitter``, ``cluster-size``,
    ``aex-rate``) and print its table. ``--jobs N`` fans the points out
    over worker processes (rows stay byte-identical to ``--jobs 1``);
    results are cached on disk, so re-runs are served from cache unless
    ``--no-cache`` is given. ``--export DIR`` writes the table as CSV and
    ``--telemetry FILE`` dumps per-task JSONL run records.
``batch <dir>``
    Fan out every spec JSON in a directory through the fleet.
``run-spec <file.json>``
    Run a declarative experiment spec (see ``examples/specs/`` and
    :mod:`repro.experiments.spec`).
``service`` / ``membership`` / ``faults``
    Presets: each compiles its flags into a spec with that plane's block
    and runs it like ``batch`` — the session workload with Marzullo
    quorum clients (:mod:`repro.service`), the epoch membership/quarantine
    control plane against a scenario (:mod:`repro.membership`), or a
    deterministic fault schedule (:mod:`repro.faults`). Every attached
    plane's report is printed; ``--json FILE`` writes the command's own
    plane report, with any other attached plane's report under its name.
``hunt``
    Coverage-guided search for attack schedules (:mod:`repro.hunt`):
    evolve genomes of timed attack primitives through the fleet, keep a
    corpus of coverage champions under ``--corpus-dir``, and shrink every
    finding into a minimal spec-JSON reproducer. Deterministic per
    ``--seed``/``--budget`` regardless of ``--jobs``.
``reproduce``
    Run every registered experiment as a fleet ``experiment`` task (in
    process at ``--jobs 1``, the default) and print each one's tables;
    stdout is byte-identical for any ``--jobs``. The narrated long form
    with paper-vs-measured lines is ``examples/reproduce_paper.py``.

``run``, ``sweep``, ``run-spec``, ``batch``, ``reproduce`` and the presets
take ``--oracle {off,warn,strict}`` and ``--membership
{off,observe,enforce}``: process-wide policies (:mod:`repro.policy`) that
attach the invariant oracle or a membership engine to every cluster the
command builds.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional

from repro.errors import ConfigurationError, OracleViolationError
from repro.experiments import figures, sweeps
from repro.fleet.tasks import spec_task
from repro.sim.units import SECOND


def _add_oracle_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--oracle",
        choices=("off", "warn", "strict"),
        default="off",
        help=(
            "invariant oracle mode: 'warn' reports violations on stderr, "
            "'strict' also exits nonzero on violations outside the "
            "scenario's expected set"
        ),
    )


def _add_membership_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--membership",
        choices=("off", "observe", "enforce"),
        default="off",
        help=(
            "membership control plane: 'observe' scores nodes and records "
            "verdicts without intervening, 'enforce' also rotates the "
            "epoch key so quarantined nodes are cryptographically cut off"
        ),
    )


def _add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = in-process, the default)"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="recompute even if cached results exist"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-fleet)",
    )
    parser.add_argument(
        "--telemetry", metavar="FILE", default=None, help="write per-task JSONL records to FILE"
    )
    _add_oracle_argument(parser)
    _add_membership_argument(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Triad's TEE trusted-time protocol (DSN-S 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(figures.EXPERIMENTS))
    run.add_argument("--seed", type=int, default=None, help="override the default seed")
    run.add_argument(
        "--duration-s", type=float, default=None, help="override the run duration (seconds)"
    )
    run.add_argument("--export", metavar="DIR", default=None, help="write series CSVs to DIR")
    _add_oracle_argument(run)
    _add_membership_argument(run)

    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    sweep.add_argument("sweep_name", choices=sorted(sweeps.METRICS))
    sweep.add_argument("--seed", type=int, default=None, help="override the sweep's base seed")
    sweep.add_argument(
        "--limit", type=int, default=None, help="run only the first N points of the grid"
    )
    sweep.add_argument(
        "--export", metavar="DIR", default=None, help="write the sweep table as CSV to DIR"
    )
    _add_fleet_arguments(sweep)

    batch = sub.add_parser("batch", help="run every spec JSON in a directory through the fleet")
    batch.add_argument("directory", help="directory containing *.json experiment specs")
    _add_fleet_arguments(batch)

    run_spec = sub.add_parser("run-spec", help="run a JSON experiment spec")
    run_spec.add_argument("spec_path", help="path to the spec JSON file")
    run_spec.add_argument("--export", metavar="DIR", default=None, help="write series CSVs to DIR")
    _add_oracle_argument(run_spec)
    _add_membership_argument(run_spec)

    service = sub.add_parser(
        "service", help="run the trusted-time service workload and report SLOs"
    )
    service.add_argument(
        "--sessions", type=int, default=1_000_000, help="client sessions (default 1M)"
    )
    service.add_argument(
        "--arrival",
        choices=("open", "closed"),
        default="open",
        help="arrival model: open (Poisson) or closed (think-time) loop",
    )
    service.add_argument(
        "--rate-rps",
        type=float,
        default=None,
        help="override the open-loop aggregate request rate (default sessions * 0.05)",
    )
    service.add_argument(
        "--think-ms", type=float, default=20_000.0, help="closed-loop mean think time"
    )
    service.add_argument(
        "--quorum", type=int, default=3, help="nodes per quorum fan-out (1 = single-node client)"
    )
    service.add_argument(
        "--duration-s", type=float, default=30.0, help="simulated run length (seconds)"
    )
    service.add_argument("--nodes", type=int, default=3, help="cluster size")
    service.add_argument("--seed", type=int, default=11, help="experiment seed")
    service.add_argument(
        "--attack",
        choices=("benign", "fplus", "fminus", "fminus-propagation", "ta-blackhole"),
        default="benign",
        help=(
            "scenario to run the workload under (default benign); 'fminus' pins "
            "the poison to one node via the hardened protocol, "
            "'fminus-propagation' lets the cascade spread on the original"
        ),
    )
    service.add_argument(
        "--json", metavar="FILE", default=None, help="write the ServiceReport as JSON to FILE"
    )
    _add_fleet_arguments(service)

    membership = sub.add_parser(
        "membership",
        help="run the membership/quarantine control plane and report verdicts",
    )
    membership.add_argument(
        "--attack",
        choices=("benign", "churn", "fplus", "fminus-propagation", "ta-blackhole"),
        default="fminus-propagation",
        help=(
            "scenario to run the control plane against (default "
            "fminus-propagation — the containment headline); 'churn' runs a "
            "benign rolling join/leave/rejoin schedule"
        ),
    )
    membership.add_argument(
        "--mode",
        choices=("observe", "enforce"),
        default="enforce",
        help=(
            "engine mode: 'observe' records verdicts only, 'enforce' also "
            "rotates the epoch key to cut quarantined nodes off (default)"
        ),
    )
    membership.add_argument("--nodes", type=int, default=5, help="cluster size (default 5)")
    membership.add_argument("--seed", type=int, default=6, help="experiment seed")
    membership.add_argument(
        "--duration-s", type=float, default=30.0, help="simulated run length (seconds)"
    )
    membership.add_argument(
        "--epoch-s", type=float, default=1.0, help="membership epoch length (seconds)"
    )
    membership.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the membership report (verdicts, events, churn) as JSON to FILE",
    )
    _add_fleet_arguments(membership)

    faults = sub.add_parser(
        "faults",
        help="run a deterministic fault-injection scenario and report recovery/MTTR",
    )
    faults.add_argument(
        "--scenario",
        choices=("crash-restart", "ta-flap", "crash-outage-partition", "no-retry"),
        default="crash-restart",
        help=(
            "fault scenario (default crash-restart); 'crash-outage-partition' "
            "is the mixed robustness headline, 'no-retry' is the bounded-retry "
            "baseline that parks dark and fails the recovery invariant"
        ),
    )
    faults.add_argument("--nodes", type=int, default=3, help="cluster size (default 3)")
    faults.add_argument("--seed", type=int, default=13, help="experiment seed")
    faults.add_argument(
        "--duration-s", type=float, default=60.0, help="simulated run length (seconds)"
    )
    faults.add_argument(
        "--deadline-s",
        type=float,
        default=15.0,
        help="recovery deadline after the last fault heals (seconds, default 15)",
    )
    faults.add_argument(
        "--sessions",
        type=int,
        default=0,
        help="client sessions for a quorum service riding the faults (0 = no service)",
    )
    faults.add_argument(
        "--quorum", type=int, default=3, help="service quorum fan-out (with --sessions)"
    )
    faults.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write the recovery/MTTR report (plus service SLOs) as JSON to FILE",
    )
    _add_fleet_arguments(faults)

    hunt = sub.add_parser("hunt", help="coverage-guided search for attack schedules")
    hunt.add_argument("--seed", type=int, default=7, help="search seed (default 7)")
    hunt.add_argument(
        "--budget", type=int, default=200, help="genomes to evaluate (default 200)"
    )
    hunt.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = in-process, the default)"
    )
    hunt.add_argument(
        "--corpus-dir",
        default=".hunt-corpus",
        help="where to persist the corpus, manifest and findings (default .hunt-corpus)",
    )
    hunt.add_argument(
        "--duration-s", type=float, default=30.0, help="simulated seconds per genome run"
    )
    hunt.add_argument("--nodes", type=int, default=3, help="cluster size per genome run")
    hunt.add_argument(
        "--population", type=int, default=16, help="genomes per generation (default 16)"
    )
    hunt.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="delta-debug findings into minimal reproducers (default on)",
    )
    hunt.add_argument(
        "--telemetry", metavar="FILE", default=None, help="write per-task JSONL records to FILE"
    )
    _add_membership_argument(hunt)

    reproduce = sub.add_parser("reproduce", help="run every experiment and print the summary")
    _add_fleet_arguments(reproduce)
    return parser


def _validate_fleet_flags(args) -> Optional[int]:
    """Exit code for invalid fleet flags, or None when they are fine."""
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if getattr(args, "limit", None) is not None and args.limit < 1:
        print(f"error: --limit must be >= 1, got {args.limit}", file=sys.stderr)
        return 2
    return None


def _fleet_pieces(args):
    """(pool, cache, telemetry) configured from the shared fleet flags."""
    from repro.fleet import FleetPool, FleetTelemetry, ResultCache

    pool = FleetPool(jobs=args.jobs)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    telemetry = FleetTelemetry(stream=sys.stderr)
    return pool, cache, telemetry


def _finish_fleet(args, telemetry) -> None:
    print(telemetry.render_summary(), file=sys.stderr)
    if args.telemetry:
        path = telemetry.write_jsonl(args.telemetry)
        print(f"wrote telemetry JSONL to {path}", file=sys.stderr)


def _policy_modes(args) -> dict:
    """The ``--oracle``/``--membership`` modes given, ``off`` left out."""
    from repro.policy import POLICY_MODULES

    return {
        name: getattr(args, name)
        for name in POLICY_MODULES
        if getattr(args, name, "off") != "off"
    }


def _with_policies(tasks: list, args) -> list:
    """Stamp the command's policy modes into each fleet task's overrides.

    ``off`` stamps nothing, so content hashes — and thus any cached
    results from policy-free runs — stay valid.
    """
    modes = _policy_modes(args)
    for task in tasks:
        task.overrides.update(modes)
    return tasks


def _run_in_process(args, name: str, fn: Callable):
    """Run ``fn()`` under the command's policies; ``(value, engines, exit)``.

    The serial-path counterpart of :func:`repro.fleet.tasks.execute_task`,
    with the same :func:`repro.oracle.judge` verdict under ``name``:
    ``engines`` maps each installed policy to what it attached, oracle
    reports go to stderr so stdout stays byte-identical to an oracle-off
    run, and the exit code is 1 when strict mode saw violations outside
    the expected set (``value`` is None if the run aborted), else 0.
    """
    from repro.oracle import judge
    from repro.policy import installed_policies

    value = failure = None
    try:
        with installed_policies(_policy_modes(args)) as engines:
            value = fn()
    except OracleViolationError as exc:
        # Experiment.run raises as soon as one run's violations leave the
        # expected set; the judge below still sees every oracle.
        failure = exc
    oracles = engines.get("oracle", [])
    try:
        judge(oracles, name=name, strict=args.oracle == "strict")
    except OracleViolationError as exc:
        failure = exc
    for oracle in oracles:
        if oracle.violations:
            print(oracle.render_report(), file=sys.stderr)
    if failure is None:
        return value, engines, 0
    print(f"oracle: {failure}", file=sys.stderr)
    return value, engines, 1


def _run_spec_tasks(args, tasks: list) -> list:
    """Run spec tasks through the fleet; print every result's tables."""
    pool, cache, telemetry = _fleet_pieces(args)
    results = pool.run(_with_policies(tasks, args), cache=cache, telemetry=telemetry)
    for result in results:
        print()
        if result.ok:
            print(result.value["rendered"])
        else:
            print(f"spec {result.name!r} FAILED: {result.error}")
    _finish_fleet(args, telemetry)
    return results


def _sweep_grid(name: str, seed: Optional[int]) -> list:
    """The named sweep's default grid (attack-delay runs F−); ``seed``
    replaces its base seed (jitter's seeds then count up from it)."""
    from repro.attacks.delay import AttackMode

    if seed is None:
        kwargs = {}
    elif name == "jitter":
        kwargs = {"seeds": range(seed, seed + len(sweeps.DEFAULT_JITTER_SEEDS))}
    else:
        kwargs = {"seed": seed}
    if name == "attack-delay":
        return sweeps.attack_delay_grid(AttackMode.F_MINUS, **kwargs)
    grids = {
        "jitter": sweeps.jitter_grid,
        "cluster-size": sweeps.cluster_size_grid,
        "aex-rate": sweeps.aex_rate_grid,
    }
    return grids[name](**kwargs)


def _run_sweep(args) -> int:
    from repro.analysis.report import format_table, to_csv
    from repro.errors import FleetError

    invalid = _validate_fleet_flags(args)
    if invalid is not None:
        return invalid
    points = _sweep_grid(args.sweep_name, args.seed)[: args.limit]
    _with_policies([task for point in points for task in point.tasks], args)
    pool, cache, telemetry = _fleet_pieces(args)
    try:
        rows = sweeps.run_grid(points, pool=pool, cache=cache, telemetry=telemetry)
    except FleetError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    metrics = list(rows[0].metrics)
    table = [
        [f"{value:.4g}" if isinstance(value, float) else value for value in row.row(metrics)]
        for row in rows
    ]
    print(format_table([rows[0].parameter] + metrics, table, title=f"sweep: {args.sweep_name}"))
    _finish_fleet(args, telemetry)
    if args.export:
        from pathlib import Path

        target = Path(args.export)
        target.mkdir(parents=True, exist_ok=True)
        csv_path = target / f"sweep_{args.sweep_name}.csv"
        header = [rows[0].parameter] + metrics
        csv_path.write_text(to_csv(header, [row.row(metrics) for row in rows]))
        print(f"wrote {csv_path}")
    return 0


def _run_batch(args) -> int:
    import json
    from pathlib import Path

    from repro.analysis.report import format_table

    invalid = _validate_fleet_flags(args)
    if invalid is not None:
        return invalid
    directory = Path(args.directory)
    spec_paths = sorted(directory.glob("*.json"))
    if not spec_paths:
        print(f"no spec JSONs found in {directory}", file=sys.stderr)
        return 1
    tasks = []
    for path in spec_paths:
        try:
            tasks.append(spec_task(json.loads(path.read_text())))
        except (json.JSONDecodeError, ConfigurationError, TypeError) as exc:
            print(f"invalid spec {path}: {exc}", file=sys.stderr)
            return 1
    results = _run_spec_tasks(args, tasks)
    rows = [
        [
            result.name,
            "cached" if result.from_cache else ("ok" if result.ok else "FAILED"),
            f"{result.wall_s:.2f}",
            result.attempts,
        ]
        for result in results
    ]
    print()
    print(format_table(["spec", "status", "wall_s", "attempts"], rows, title="batch summary"))
    return 0 if all(result.ok for result in results) else 1


def _run_reproduce(args) -> int:
    from repro.fleet import RunTask

    invalid = _validate_fleet_flags(args)
    if invalid is not None:
        return invalid
    tasks = [
        RunTask(kind="experiment", name=name, payload={"experiment": name})
        for name in figures.EXPERIMENTS
    ]
    pool, cache, telemetry = _fleet_pieces(args)
    results = pool.run(_with_policies(tasks, args), cache=cache, telemetry=telemetry)
    failed = False
    for result in results:
        print(f"\n=== {result.name} ===")
        if result.ok:
            print(result.value["rendered"])
        else:
            failed = True
            print(f"FAILED: {result.error}")
    _finish_fleet(args, telemetry)
    return 1 if failed else 0


def _preset_spec(args, name: str, attacks: list, **blocks) -> dict:
    """Spec dict every preset shares: ``--nodes`` Triad-like nodes."""
    environments = {str(i): "triad-like" for i in range(1, args.nodes + 1)}
    return {
        "name": name,
        "seed": args.seed,
        "duration_s": args.duration_s,
        "nodes": args.nodes,
        "environments": environments,
        "attacks": attacks,
        **blocks,
    }


def _preset_attacks(attack: str, victim: int) -> list[dict]:
    """The ``attacks`` list for an ``--attack`` choice against ``victim``."""
    if attack in ("benign", "churn"):
        return []
    if attack == "ta-blackhole":
        return [{"type": "ta-blackhole"}]
    # fplus, fminus and fminus-propagation: the calibration delay attack.
    return [{"type": attack.split("-")[0], "victim": victim, "delay_ms": 100}]


def _service_spec_dict(args) -> dict:
    """Compile the ``service`` subcommand flags into a spec dict."""
    victim = min(3, args.nodes)  # paper numbering: node 3 is the compromised one
    service: dict = {
        "sessions": args.sessions,
        "arrival": args.arrival,
        "quorum": args.quorum,
        "think_ms": args.think_ms,
    }
    if args.rate_rps is not None:
        service["rate_rps"] = args.rate_rps
    return _preset_spec(
        args,
        f"service-{args.attack}",
        _preset_attacks(args.attack, victim),
        # Hardened 'fminus': the poison stays pinned to the victim, so the
        # run measures quorum containment of a single bad source.
        protocol="hardened" if args.attack == "fminus" else "original",
        service=service,
    )


def _membership_churn_schedule(nodes: int, duration_s: float) -> dict:
    """Deterministic rolling churn: upper nodes leave, dwell out 4s, rejoin.

    Nodes 1-3 stay resident so the member median always has
    ``min_observers`` voters; every other node takes one leave/join round
    trip, staggered 2s apart starting at t=5s. Round trips that would not
    complete 2s before the end of the run are dropped.
    """
    schedule: list[dict] = []
    t = 5.0
    for index in range(4, nodes + 1):
        if t + 4.0 > duration_s - 2.0:
            break
        schedule.append({"t_s": t, "node": index, "action": "leave"})
        schedule.append({"t_s": t + 4.0, "node": index, "action": "join"})
        t += 2.0
    return {"schedule": schedule}


def _membership_spec_dict(args) -> dict:
    """Compile the ``membership`` subcommand flags into a spec dict."""
    nodes = args.nodes
    if args.attack == "churn" and nodes < 4:
        raise ConfigurationError(
            f"--attack churn needs --nodes >= 4 (nodes 1-3 stay resident), got {nodes}"
        )
    victim = min(3, nodes)  # paper numbering: node 3 is the compromised one
    attacks = _preset_attacks(args.attack, victim)
    if args.attack == "fminus-propagation":
        # Mirror the fig6 timeline: honest AEX streams (the peer-untaint
        # adoption vector) come online at t=3s, after the attacker has
        # skewed the victim's initial calibration — the containment race
        # the headline experiment pins (see docs/membership.md).
        honest = [i for i in range(1, nodes + 1) if i != victim]
        attacks.append({"type": "aex-onset", "nodes": honest, "at_s": 3})
    blocks: dict = {"membership": {"mode": args.mode, "epoch_s": args.epoch_s}}
    if args.attack == "churn":
        blocks["churn"] = _membership_churn_schedule(nodes, args.duration_s)
    return _preset_spec(args, f"membership-{args.attack}", attacks, **blocks)


def _faults_spec_dict(args) -> dict:
    """Compile the ``faults`` subcommand flags into a spec dict."""
    nodes = args.nodes
    if args.scenario in ("crash-outage-partition", "no-retry") and nodes < 3:
        raise ConfigurationError(
            f"--scenario {args.scenario} needs --nodes >= 3 (it crashes "
            f"node 2 and partitions node 3), got {nodes}"
        )
    crash_victim = min(2, nodes)
    isolated = min(3, nodes)
    # Exponential backoff with jitter is the recovery policy under test;
    # the 'no-retry' baseline replaces it with a 2-attempt budget, parks
    # dark, and demonstrably fails the recovery invariant.
    retry: dict = {
        "backoff_factor": 2.0,
        "jitter": 0.1,
        "backoff_s": 0.5,
        "max_backoff_s": 4.0,
        "calibration_backoff_ms": 200,
    }
    if args.scenario == "crash-restart":
        schedule = [
            {"t_s": 12.0, "kind": "node-crash", "node": crash_victim, "down_ms": 800}
        ]
    elif args.scenario == "ta-flap":
        schedule = [
            {"t_s": t_s, "kind": "ta-outage", "duration_ms": 1500}
            for t_s in (12.0, 16.0, 20.0)
        ]
    else:  # crash-outage-partition / no-retry: the mixed headline timeline
        schedule = [
            {"t_s": 12.0, "kind": "node-crash", "node": crash_victim, "down_ms": 800},
            {"t_s": 14.0, "kind": "ta-outage", "duration_ms": 3000},
            {"t_s": 20.0, "kind": "partition", "island": [isolated], "duration_ms": 2000},
            {
                "t_s": 24.0,
                "kind": "loss-burst",
                "drop_probability": 0.2,
                "duration_ms": 1000,
            },
        ]
        if args.scenario == "no-retry":
            retry = {"attempt_budget": 2}
    blocks: dict = {
        "faults": {
            "schedule": schedule,
            "recovery_deadline_s": args.deadline_s,
            "retry": retry,
        },
    }
    if args.sessions > 0:
        blocks["service"] = {
            "sessions": args.sessions,
            "quorum": min(args.quorum, nodes),
            "degraded_margin_factor": 3.0,
            "breaker_threshold": 3,
        }
    return _preset_spec(args, f"faults-{args.scenario}", [], **blocks)


#: Preset command -> builder compiling its flags into a spec dict.
_PRESETS: dict[str, Callable[..., dict]] = {
    "service": _service_spec_dict,
    "membership": _membership_spec_dict,
    "faults": _faults_spec_dict,
}


def _run_preset(args) -> int:
    """Run a preset's spec as a fleet ``spec`` task; ``--json`` writes the
    command's plane report plus other attached planes' under their names."""
    import json
    from pathlib import Path

    invalid = _validate_fleet_flags(args)
    if invalid is not None:
        return invalid
    try:
        task = spec_task(_PRESETS[args.command](args))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    [result] = _run_spec_tasks(args, [task])
    if not result.ok:
        return 1
    if args.json:
        reports = dict(result.value["reports"])
        report = {**reports.pop(args.command), **reports}
        path = Path(args.json)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.command} report JSON to {path}")
    return 0


def _run_hunt(args) -> int:
    from pathlib import Path

    from repro.fleet import FleetTelemetry
    from repro.hunt import HuntConfig, HuntEngine

    invalid = _validate_fleet_flags(args)
    if invalid is not None:
        return invalid
    try:
        config = HuntConfig(
            seed=args.seed,
            budget=args.budget,
            jobs=args.jobs,
            duration_s=args.duration_s,
            nodes=args.nodes,
            population=args.population,
            corpus_dir=Path(args.corpus_dir),
            shrink=args.shrink,
            membership=args.membership,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    telemetry = FleetTelemetry(stream=sys.stderr)
    report = HuntEngine(config, telemetry=telemetry).run()
    print(report.render())
    if args.telemetry:
        path = telemetry.write_jsonl(args.telemetry)
        print(f"wrote telemetry JSONL to {path}", file=sys.stderr)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        width = max(len(name) for name in figures.EXPERIMENTS)
        for name, (description, duration, _) in sorted(figures.EXPERIMENTS.items()):
            span = f"{duration / SECOND:.0f}s" if duration else "-"
            print(f"{name:<{width + 2}} {span:>8}  {description}")
        return 0

    if args.command == "run":
        if figures.EXPERIMENTS[args.experiment][1] is None:
            if args.duration_s is not None:
                print("note: this experiment has no duration parameter; --duration-s ignored")
            if args.seed is not None:
                print("note: this experiment runs with its built-in seed; --seed ignored")
        duration_ns = None if args.duration_s is None else int(args.duration_s * SECOND)
        value, engines, code = _run_in_process(
            args,
            args.experiment,
            lambda: figures.run_experiment(args.experiment, args.seed, duration_ns),
        )
        if value is None:
            return code
        result, rendered = value
        print(rendered)
        from repro.planes import plane

        for controller in engines.get("membership", []):
            print()
            print(plane("membership").render(controller.report()))
        if args.export:
            from repro.analysis.export import export_experiment

            if not hasattr(result, "experiment"):
                print(f"note: {args.experiment} has no exportable series")
            else:
                paths = export_experiment(result, args.export)
                print(f"\nwrote {len(paths)} CSV files to {args.export}/")
        return code

    if args.command == "sweep":
        return _run_sweep(args)

    if args.command == "batch":
        return _run_batch(args)

    if args.command == "run-spec":
        from repro.experiments.spec import ExperimentSpec
        from repro.fleet.tasks import spec_result

        spec = ExperimentSpec.load(args.spec_path)
        experiment, _engines, code = _run_in_process(args, spec.name, spec.run)
        if experiment is None:
            return code
        print(spec_result(spec, experiment)["rendered"])
        if args.export:
            from repro.analysis.export import export_experiment
            from repro.experiments.figures import DriftFigureResult

            result = DriftFigureResult(experiment=experiment, duration_ns=spec.duration_ns)
            paths = export_experiment(result, args.export)
            print(f"\nwrote {len(paths)} CSV files to {args.export}/")
        return code

    if args.command in _PRESETS:
        return _run_preset(args)

    if args.command == "hunt":
        return _run_hunt(args)

    if args.command == "reproduce":
        return _run_reproduce(args)

    return 1  # pragma: no cover - argparse enforces valid commands


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

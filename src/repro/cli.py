"""Command-line interface.

Subcommands::

    python -m repro list                      # enumerate experiments
    python -m repro run figure-9              # regenerate one experiment
    python -m repro availability -n 3 --rho 0.05
    python -m repro mttf -n 3 --rho 0.05
    python -m repro trace generate --count 1000 > workload.trace
    python -m repro trace stats workload.trace
    python -m repro simulate --scheme naive-available-copy -n 3 \\
        --rho 0.05 --horizon 100000 --seed 7
    python -m repro simulate --scheme voting -n 5 --replications 8 --jobs 4
    python -m repro chaos --campaign 8 --jobs 4
    python -m repro chaos --reconfigure    # view changes under fire
    python -m repro experiments --jobs 4    # every experiment, in parallel

``run`` prints the same rows/series the paper's figure reports;
``availability`` / ``mttf`` / ``size`` answer planning questions from
the analytic models; ``trace`` generates and inspects workload traces;
``simulate`` runs the discrete-event simulator and compares the measured
availability and traffic with the analytic models.

``--jobs N`` fans independent seeded runs out over N worker processes
via :mod:`repro.exec`; seeds derive from the run index, so any jobs
value reports identical numbers.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import scheme_availability, traffic_model
from .device import ClusterConfig, ReplicatedCluster
from .experiments import EXPERIMENTS, run_experiment
from .types import AddressingMode, SchemeName
from .workload import OpKind, WorkloadRunner, WorkloadSpec

__all__ = ["main", "build_parser"]


#: Extra accepted spellings for each scheme.
_SCHEME_ALIASES = {
    "voting": SchemeName.VOTING,
    "mcv": SchemeName.VOTING,
    "ac": SchemeName.AVAILABLE_COPY,
    "nac": SchemeName.NAIVE_AVAILABLE_COPY,
    "naive": SchemeName.NAIVE_AVAILABLE_COPY,
}


def _scheme(value: str) -> SchemeName:
    lowered = value.lower()
    if lowered in _SCHEME_ALIASES:
        return _SCHEME_ALIASES[lowered]
    for scheme in SchemeName:
        if lowered == scheme.value:
            return scheme
    choices = ", ".join(s.value for s in SchemeName)
    raise argparse.ArgumentTypeError(
        f"unknown scheme {value!r}; choose from: {choices}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Block-Level Consistency of Replicated Files (ICDCS 1987) "
            "reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    run = sub.add_parser("run", help="run one experiment and print it")
    run.add_argument("experiment", help="experiment id (see `repro list`)")

    experiments = sub.add_parser(
        "experiments",
        help="run every registered experiment (optionally in parallel)",
    )
    experiments.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (0 = one per CPU; default 1, serial)",
    )

    avail = sub.add_parser(
        "availability", help="analytic availability of the three schemes"
    )
    avail.add_argument("-n", "--copies", type=int, default=3,
                       help="number of copies (default 3)")
    avail.add_argument("--rho", type=float, default=0.05,
                       help="failure-to-repair ratio (default 0.05)")

    size = sub.add_parser(
        "size", help="copies needed per scheme for a target availability"
    )
    size.add_argument("--rho", type=float, default=0.05)
    size.add_argument("--target", type=float, default=0.9999)

    mttf = sub.add_parser(
        "mttf", help="reliability: mean time to failure per scheme"
    )
    mttf.add_argument("-n", "--copies", type=int, default=3)
    mttf.add_argument("--rho", type=float, default=0.05)

    trace = sub.add_parser("trace", help="generate or inspect workload traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    generate = trace_sub.add_parser("generate",
                                    help="emit a synthetic trace to stdout")
    generate.add_argument("--count", type=int, default=1000)
    generate.add_argument("--blocks", type=int, default=128)
    generate.add_argument("--ratio", type=float, default=2.5,
                          help="reads per write (default 2.5)")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument(
        "--distribution", choices=["uniform", "zipf", "sequential"],
        default="uniform",
    )
    stats = trace_sub.add_parser("stats", help="summarise a trace file")
    stats.add_argument("path", help="trace file to read")

    simulate = sub.add_parser(
        "simulate", help="simulate a replica group and compare with theory"
    )
    simulate.add_argument("--scheme", type=_scheme, required=True,
                          help="voting | available-copy | "
                               "naive-available-copy (or MCV/AC/NAC)")
    simulate.add_argument("-n", "--sites", type=int, default=3)
    simulate.add_argument("--rho", type=float, default=0.05)
    simulate.add_argument("--horizon", type=float, default=100_000.0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--op-rate", type=float, default=1.0,
                          help="workload operations per time unit")
    simulate.add_argument("--read-write-ratio", type=float, default=2.5)
    simulate.add_argument(
        "--addressing",
        choices=[m.value for m in AddressingMode],
        default=AddressingMode.MULTICAST.value,
    )
    simulate.add_argument("--trace", metavar="FILE", default=None,
                          help="write span-level JSON lines to FILE")
    simulate.add_argument(
        "--replications", type=int, default=1, metavar="R",
        help="independent seeded runs to aggregate (default 1)",
    )
    simulate.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the replications "
             "(0 = one per CPU; default 1, serial)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection run with consistency checking",
    )
    chaos.add_argument("--scheme", type=_scheme, default=None,
                       help="one scheme (default: all three)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("-n", "--sites", type=int, default=5)
    chaos.add_argument("--blocks", type=int, default=24)
    chaos.add_argument("--operations", type=int, default=400)
    chaos.add_argument("--fault-rate", type=float, default=0.30,
                       help="per-step fault probability (default 0.30)")
    chaos.add_argument("--max-attempts", type=int, default=3,
                       help="device retry budget per operation")
    chaos.add_argument("--verbose", action="store_true",
                       help="also print the history event counts")
    chaos.add_argument("--trace", metavar="FILE", default=None,
                       help="write span-level JSON lines to FILE")
    chaos.add_argument(
        "--reconfigure", action="store_true",
        help="exercise dynamic membership: planned view changes "
             "(add/remove/replace) and crash-triggered replacements "
             "while the workload runs",
    )
    chaos.add_argument(
        "--reconfigure-rate", type=float, default=None, metavar="P",
        help="per-step probability of opening a planned view change "
             "(implies --reconfigure; default 0.08)",
    )
    chaos.add_argument(
        "--spare-sites", type=int, default=2, metavar="S",
        help="fresh sites available to join the group (default 2)",
    )
    chaos.add_argument(
        "--policy", metavar="RF:R:W", default=None,
        help="run under an (RF, R, W) quorum policy (e.g. 5:3:3); "
             "sloppy combinations (R+W<=RF or 2W<=RF) are accepted and "
             "checked with the staleness-witnessing checker; RF "
             "overrides --sites",
    )
    chaos.add_argument(
        "--no-hinted-handoff", action="store_true",
        help="with --policy: disable hinted handoff (ablation)",
    )
    chaos.add_argument(
        "--no-read-repair", action="store_true",
        help="with --policy: disable read repair (ablation)",
    )
    chaos.add_argument(
        "--campaign", type=int, default=1, metavar="K",
        help="independent seeded runs per scheme, seeds derived from "
             "--seed (default 1: run --seed itself)",
    )
    chaos.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the campaign "
             "(0 = one per CPU; default 1, serial)",
    )

    metrics = sub.add_parser(
        "metrics",
        help="traced workload run: spans from every layer plus one "
             "unified metrics snapshot",
    )
    metrics.add_argument("--scheme", type=_scheme,
                         default=SchemeName.VOTING,
                         help="voting | available-copy | "
                              "naive-available-copy (default voting)")
    metrics.add_argument("-n", "--sites", type=int, default=5)
    metrics.add_argument("--rho", type=float, default=0.05)
    metrics.add_argument("--horizon", type=float, default=2_000.0)
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--trace", metavar="FILE", default=None,
                         help="write span-level JSON lines to FILE "
                              "(schema-validated after writing)")
    metrics.add_argument("--json", action="store_true",
                         help="emit the snapshot as JSON, not text")

    from .lint.cli import add_lint_arguments
    from .lint.rules import all_codes

    lint = sub.add_parser(
        "lint",
        help="determinism & protocol-invariant linter "
             f"({', '.join(all_codes())})",
    )

    add_lint_arguments(lint)
    return parser


def _cmd_list(out) -> int:
    for experiment_id in EXPERIMENTS:
        print(experiment_id, file=out)
    return 0


def _cmd_run(args, out) -> int:
    try:
        report = run_experiment(args.experiment)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    print(report.render(), file=out)
    return 0


def _cmd_availability(args, out) -> int:
    n, rho = args.copies, args.rho
    print(f"availability of {n} copies at rho={rho:g}:", file=out)
    for scheme in SchemeName:
        value = scheme_availability(scheme, n, rho)
        print(f"  {scheme.short:4s} {value:.6f}", file=out)
    voting_double = scheme_availability(SchemeName.VOTING, 2 * n, rho)
    print(f"  (MCV with {2 * n} copies: {voting_double:.6f} -- "
          "Theorem 4.1's comparison)", file=out)
    return 0


def _cmd_size(args, out) -> int:
    from .analysis.sizing import size_all_schemes
    from .errors import AnalysisError

    try:
        result = size_all_schemes(args.rho, args.target)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"copies needed for availability >= {args.target:g} at "
          f"rho={args.rho:g}:", file=out)
    for scheme, copies in result.copies.items():
        print(f"  {scheme.short:4s} {copies}", file=out)
    print(f"  (voting/available-copy storage ratio: "
          f"{result.voting_to_available_ratio:.2f} -- Theorem 4.1 "
          "predicts about 2)", file=out)
    return 0


def _cmd_mttf(args, out) -> int:
    from .analysis.reliability import scheme_mean_outage, scheme_mttf

    n, rho = args.copies, args.rho
    print(f"reliability of {n} copies at rho={rho:g} "
          "(time unit: mean repair time):", file=out)
    print(f"  {'scheme':6s} {'MTTF':>12s} {'mean outage':>12s}", file=out)
    for scheme in SchemeName:
        print(
            f"  {scheme.short:6s} {scheme_mttf(scheme, n, rho):>12.2f} "
            f"{scheme_mean_outage(scheme, n, rho):>12.3f}",
            file=out,
        )
    return 0


def _cmd_trace(args, out) -> int:
    from .workload import WorkloadSpec
    from .workload.trace import Trace, record_trace

    if args.trace_command == "generate":
        trace = record_trace(
            WorkloadSpec(
                read_write_ratio=args.ratio,
                distribution=args.distribution,
            ),
            num_blocks=args.blocks,
            count=args.count,
            seed=args.seed,
        )
        trace.dump(out)
        return 0
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            trace = Trace.load(handle)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ratio = trace.read_write_ratio()
    ratio_text = "inf" if ratio == float("inf") else f"{ratio:.2f}"
    print(f"{args.path}: {len(trace)} operations, "
          f"read:write = {ratio_text}, "
          f"{trace.blocks_touched()} blocks touched "
          f"(max index {trace.max_block()})", file=out)
    return 0


def _dump_trace(tracer, path, out) -> int:
    """Write, re-read and schema-validate a span trace; 0 on success."""
    from .obs import load_trace

    written = tracer.dump(path)
    with open(path, "r", encoding="utf-8") as handle:
        try:
            load_trace(handle)
        except ValueError as exc:
            print(f"error: invalid trace written to {path}: {exc}",
                  file=sys.stderr)
            return 2
    layers = ", ".join(
        f"{layer}={count}"
        for layer, count in sorted(tracer.layers().items())
    )
    print(f"trace: {written} spans -> {path} ({layers})", file=out)
    return 0


def _check_jobs(jobs) -> Optional[str]:
    """None (serial) and >= 0 are fine; 0 means one worker per CPU."""
    if jobs is not None and jobs < 0:
        return f"--jobs must be >= 0, got {jobs}"
    return None


def _cmd_experiments(args, out) -> int:
    from .experiments import run_all

    error = _check_jobs(args.jobs)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    reports = run_all(jobs=args.jobs)
    for report in reports:
        print(report.render(), file=out)
        print(file=out)
    print(f"ran {len(reports)} experiments", file=out)
    return 0


def _simulate_replication(task):
    """Pool worker: one seeded workload run; summary numbers only."""
    scheme, sites, rho, horizon, op_rate, ratio, mode = task.payload
    cluster = ReplicatedCluster(
        ClusterConfig(
            scheme=scheme, num_sites=sites, failure_rate=rho,
            repair_rate=1.0, addressing=mode, seed=task.seed,
        )
    )
    runner = WorkloadRunner(
        cluster,
        WorkloadSpec(read_write_ratio=ratio, op_rate=op_rate),
    )
    result = runner.run(horizon)
    return (
        cluster.availability(),
        result.mean_messages(OpKind.WRITE),
        result.mean_messages(OpKind.READ),
    )


def _cmd_simulate_replicated(args, out) -> int:
    """Fan --replications independent seeded runs out over --jobs."""
    from .exec import ParallelRunner
    from .sim.stats import RunningStat

    if args.trace:
        print("error: --trace needs a single run "
              "(drop --replications)", file=sys.stderr)
        return 2
    mode = AddressingMode(args.addressing)
    payload = (args.scheme, args.sites, args.rho, args.horizon,
               args.op_rate, args.read_write_ratio, mode)
    runner = ParallelRunner(jobs=args.jobs, name="simulate")
    rows = runner.map(
        _simulate_replication,
        [payload] * args.replications,
        base_seed=args.seed,
        namespace=f"simulate:{args.scheme.value}",
    )
    availability = RunningStat()
    writes, reads = RunningStat(), RunningStat()
    for a, w, r in rows:
        availability.add(a)
        writes.add(w)
        reads.add(r)
    analytic = scheme_availability(args.scheme, args.sites, args.rho)
    model = traffic_model(args.scheme, args.sites, args.rho, mode=mode)
    print(f"scheme={args.scheme.value} n={args.sites} rho={args.rho:g} "
          f"horizon={args.horizon:g} seed={args.seed} "
          f"replications={args.replications} jobs={runner.jobs} "
          f"backend={runner.stats.backend}", file=out)
    print(f"availability: simulated {availability.mean:.6f} "
          f"+/- {availability.stderr:.6f}  analytic {analytic:.6f}",
          file=out)
    print(f"write msgs:   simulated {writes.mean:.3f}  "
          f"model {model.write:.3f}", file=out)
    print(f"read msgs:    simulated {reads.mean:.3f}  "
          f"model {model.read:.3f}", file=out)
    return 0


def _cmd_simulate(args, out) -> int:
    error = _check_jobs(args.jobs)
    if error is None and args.replications < 1:
        error = f"--replications must be >= 1, got {args.replications}"
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.replications > 1:
        return _cmd_simulate_replicated(args, out)
    mode = AddressingMode(args.addressing)
    cluster = ReplicatedCluster(
        ClusterConfig(
            scheme=args.scheme,
            num_sites=args.sites,
            failure_rate=args.rho,
            repair_rate=1.0,
            addressing=mode,
            seed=args.seed,
        )
    )
    obs = None
    if args.trace:
        from .obs import observe_cluster

        obs = observe_cluster(cluster)
    runner = WorkloadRunner(
        cluster,
        WorkloadSpec(read_write_ratio=args.read_write_ratio,
                     op_rate=args.op_rate),
        metrics=obs.registry if obs else None,
    )
    result = runner.run(args.horizon)
    if obs is not None:
        status = _dump_trace(obs.tracer, args.trace, out)
        if status:
            return status
    analytic = scheme_availability(args.scheme, args.sites, args.rho)
    model = traffic_model(args.scheme, args.sites, args.rho, mode=mode)
    print(f"scheme={args.scheme.value} n={args.sites} rho={args.rho:g} "
          f"horizon={args.horizon:g} seed={args.seed}", file=out)
    print(f"availability: simulated {cluster.availability():.6f}  "
          f"analytic {analytic:.6f}", file=out)
    print(f"write msgs:   simulated "
          f"{result.mean_messages(OpKind.WRITE):.3f}  "
          f"model {model.write:.3f}", file=out)
    print(f"read msgs:    simulated "
          f"{result.mean_messages(OpKind.READ):.3f}  "
          f"model {model.read:.3f}", file=out)
    print(f"recovery:     simulated "
          f"{cluster.meter.mean_messages('recovery'):.3f}  "
          f"model {model.recovery:.3f}", file=out)
    failed = sum(result.attempted.values()) - sum(result.succeeded.values())
    print(f"operations:   {sum(result.attempted.values())} attempted, "
          f"{failed} failed while unavailable", file=out)
    return 0


def _cmd_chaos(args, out) -> int:
    from .core import QuorumPolicy
    from .device.reliable import RetryPolicy
    from .errors import QuorumPolicyError, ReproError
    from .faults import ChaosConfig, run_chaos, run_chaos_campaign

    try:
        retry = RetryPolicy(max_attempts=args.max_attempts,
                            initial_delay=0.0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    policy = None
    if args.policy is not None:
        try:
            policy = QuorumPolicy.parse(
                args.policy,
                allow_sloppy=True,
                hinted_handoff=not args.no_hinted_handoff,
                read_repair=not args.no_read_repair,
            )
        except QuorumPolicyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elif args.no_hinted_handoff or args.no_read_repair:
        print("error: --no-hinted-handoff/--no-read-repair need --policy",
              file=sys.stderr)
        return 2
    error = _check_jobs(args.jobs)
    if error is None and args.campaign < 1:
        error = f"--campaign must be >= 1, got {args.campaign}"
    if error is None and args.reconfigure_rate is not None:
        if not 0.0 < args.reconfigure_rate <= 1.0:
            error = ("--reconfigure-rate must be in (0, 1], got "
                     f"{args.reconfigure_rate}")
    if error is None and args.spare_sites < 0:
        error = f"--spare-sites must be >= 0, got {args.spare_sites}"
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    reconfigure_rate = args.reconfigure_rate
    if reconfigure_rate is None:
        reconfigure_rate = 0.08 if args.reconfigure else 0.0
    if args.campaign > 1 and args.trace:
        print("error: --trace needs a single run (drop --campaign)",
              file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from .obs import Tracer

        tracer = Tracer()
    schemes = [args.scheme] if args.scheme else list(SchemeName)
    all_ok = True
    for scheme in schemes:
        config = ChaosConfig(
            scheme=scheme,
            seed=args.seed,
            num_sites=policy.rf if policy is not None else args.sites,
            num_blocks=args.blocks,
            operations=args.operations,
            fault_rate=args.fault_rate,
            reconfigure_rate=reconfigure_rate,
            spare_sites=args.spare_sites,
            retry=retry,
            policy=policy,
        )
        try:
            if args.campaign > 1:
                results = run_chaos_campaign(
                    config, runs=args.campaign, jobs=args.jobs
                )
            else:
                results = [run_chaos(config, tracer=tracer)]
        except ReproError as exc:
            # A run that dies (instead of recording a violation) is
            # still a failed check: report it and exit nonzero rather
            # than crash with a traceback -- CI keys off the exit code.
            print(f"  RUN FAILED [{scheme.value}] "
                  f"{type(exc).__name__}: {exc}", file=out)
            all_ok = False
            continue
        for result in results:
            print(result.summary(), file=out)
            if args.verbose:
                for kind, count in sorted(result.history.items()):
                    print(f"    {kind:22s} {count}", file=out)
            for violation in result.violations:
                print(f"  VIOLATION {violation}", file=out)
            if args.verbose:
                for witness in result.staleness_witnesses:
                    print(f"  STALE {witness}", file=out)
            for site_id, block in result.unaccounted_corruptions:
                print(f"  UNACCOUNTED corruption at site {site_id}, "
                      f"block {block}", file=out)
            all_ok = all_ok and result.ok
    if tracer is not None:
        status = _dump_trace(tracer, args.trace, out)
        if status:
            return status
    print("chaos: all checks passed" if all_ok
          else "chaos: CONSISTENCY CHECK FAILED", file=out)
    return 0 if all_ok else 1


def _cmd_metrics(args, out) -> int:
    from .obs import traced_workload

    run = traced_workload(
        scheme=args.scheme,
        num_sites=args.sites,
        rho=args.rho,
        horizon=args.horizon,
        seed=args.seed,
    )
    if args.trace:
        status = _dump_trace(run.obs.tracer, args.trace, out)
        if status:
            return status
    snapshot = run.obs.registry.snapshot()
    if args.json:
        print(snapshot.to_json(), file=out)
    else:
        print(snapshot.render(), file=out)
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "experiments":
        return _cmd_experiments(args, out)
    if args.command == "availability":
        return _cmd_availability(args, out)
    if args.command == "size":
        return _cmd_size(args, out)
    if args.command == "mttf":
        return _cmd_mttf(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "chaos":
        return _cmd_chaos(args, out)
    if args.command == "metrics":
        return _cmd_metrics(args, out)
    if args.command == "lint":
        from .lint.cli import run_lint

        return run_lint(args, out)
    return _cmd_simulate(args, out)

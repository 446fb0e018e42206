"""Command-line interface: regenerate any paper artifact from the shell.

Usage::

    python -m repro.cli summary            # headline performance counters
    python -m repro.cli claims             # paper-vs-measured claim table
    python -m repro.cli fig4 | fig8 | fig9 # figure regenerations
    python -m repro.cli table1             # Table I
    python -m repro.cli table2 [--fast]    # Table II (trains networks!)
    python -m repro.cli compare            # platform comparison report
    python -m repro.cli sweep              # registry-driven platform sweep
    python -m repro.cli serve              # batched frame-serving demo
    python -m repro.cli bench              # perf bench -> BENCH_program.json
    python -m repro.cli cache stats        # on-disk program store inventory

(Installed as the ``repro`` console script via ``pyproject.toml``.)
"""

from __future__ import annotations

import argparse
import math
import sys


def _cmd_summary(_args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.accelerator import OISAAccelerator

    oisa = OISAAccelerator(seed=0)
    weights = np.random.default_rng(0).normal(size=(64, 3, 3, 3)) * 0.1
    oisa.program_conv(weights, padding=1)
    for key, value in oisa.performance_summary().items():
        print(f"{key:28s}: {value:.6g}")
    return 0


def _cmd_claims(_args: argparse.Namespace) -> int:
    from repro.analysis.claims import build_claims, render_claims

    claims = build_claims(include_fig9=True)
    print(render_claims(claims))
    return 0 if all(claim.holds for claim in claims) else 1


def _cmd_fig4(_args: argparse.Namespace) -> int:
    from repro.analysis.fig4 import render_fig4

    print(render_fig4())
    return 0


def _cmd_fig8(_args: argparse.Namespace) -> int:
    from repro.analysis.fig8 import render_fig8

    print(render_fig8())
    return 0


def _cmd_fig9(_args: argparse.Namespace) -> int:
    from repro.analysis.fig9 import render_fig9

    print(render_fig9())
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    from repro.analysis.table1 import render_table1

    print(render_table1())
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.analysis.table2 import build_table2, ordering_checks, render_table2
    from repro.sim.accuracy import Table2Settings

    settings = Table2Settings.fast() if args.fast else Table2Settings.full()
    data = build_table2(settings=settings, cache_path=args.cache)
    print(render_table2(data))
    checks = ordering_checks(data)
    for name, holds in checks.items():
        print(f"{name:32s}: {'holds' if holds else 'VIOLATED'}")
    return 0 if all(checks.values()) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import write_report

    path = write_report(args.output, table2_cache=args.table2_cache)
    print(f"report written to {path}")
    return 0


def _cmd_compare(_args: argparse.Namespace) -> int:
    from repro.core.energy import resnet18_first_layer_workload
    from repro.sim.platforms import iter_platforms
    from repro.sim.reports import render_report

    workload = resnet18_first_layer_workload()
    reports = [
        platform.simulate_conv(workload, weight_bits=4)
        for platform in iter_platforms()
        if platform.supports_conv
    ]
    print(render_report(reports, title="Platform comparison — ResNet-18 first layer"))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.sweeps import render_platform_sweep, sweep_platforms

    print(render_platform_sweep(sweep_platforms()))
    if args.platforms:
        from repro.sim.platforms import iter_platforms

        print("\nregistered platforms:")
        for platform in iter_platforms():
            print(f"  {platform.key:12s}: {platform.parameters()}")
    if args.fault_profile != "none":
        from dataclasses import replace

        from repro.engine.health import FaultProfile
        from repro.analysis.robustness_report import (
            RobustnessSettings,
            build_robustness_report,
            render_robustness_report,
        )

        profile = FaultProfile.named(args.fault_profile)
        settings = (
            RobustnessSettings.fast() if args.fast else RobustnessSettings()
        )
        # The profile's fault classes (stuck branches, gain drift, ...)
        # ride along at every swept dead-MR rate.
        settings = replace(
            settings, base_spec=profile.fault_spec, label=profile.name
        )
        print()
        print(render_robustness_report(build_robustness_report(settings)))
    if args.capacity:
        from dataclasses import replace

        from repro.analysis.capacity import (
            CapacitySettings,
            build_capacity_report,
            render_capacity_report,
        )

        capacity = (
            CapacitySettings.fast() if args.fast else CapacitySettings()
        )
        if args.capacity_scenario:
            capacity = replace(capacity, scenario=args.capacity_scenario)
        if args.capacity_policies:
            capacity = replace(capacity, policies=args.capacity_policies)
        if args.capacity_nodes:
            capacity = replace(capacity, node_counts=args.capacity_nodes)
        print()
        print(
            render_capacity_report(
                build_capacity_report(
                    capacity, program_store=args.program_store
                )
            )
        )
    if args.resilience:
        from dataclasses import replace

        from repro.analysis.robustness_report import (
            ResilienceSettings,
            build_resilience_report,
            render_resilience_report,
        )

        settings = (
            ResilienceSettings.fast() if args.fast else ResilienceSettings()
        )
        settings = replace(
            settings,
            chaos_plan=args.chaos_plan,
            retry_policy=args.retry_policy,
            spares=args.spares,
        )
        print()
        print(render_resilience_report(build_resilience_report(settings)))
    return 0


def _na_if_nan(value: float, spec: str) -> str:
    """Format a stream metric, rendering NaN as ``n/a``.

    Latency statistics are NaN when a stream (or SLO class) delivers zero
    frames — e.g. greedy under overload shedding a whole batch tier; the
    table must say "no measurement", not print ``nan``.
    """
    return "n/a" if value != value else f"{value:{spec}}"


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.engine import FrameServer
    from repro.engine.workloads import build_scenario, models_scenario
    from repro.util.tables import format_table

    # The request stream comes from the workload layer: a registered
    # scenario (default: the historical two-LeNet demo, byte-for-byte),
    # or an ad-hoc zoo mix via --models.
    if args.models:
        scenario = models_scenario(
            args.models,
            frames=args.frames,
            offered_fps=args.fps,
            seed=args.seed,
        )
    else:
        scenario = build_scenario(
            args.scenario,
            frames=args.frames,
            offered_fps=args.fps,
            seed=args.seed,
        )
    resilient = (
        args.chaos_plan != "none"
        or args.retry_policy != "none"
        or args.spares > 0
        or args.brownout != "none"
    )
    warm = None
    if args.shards > 0:
        # The sharded control plane builds plain shard servers — the
        # fault/chaos/failover layers do not compose with node_limit
        # autoscaling (see FrameServer.serve).
        if resilient or args.fault_profile != "none":
            raise SystemExit(
                "--shards does not compose with --fault-profile/"
                "--chaos-plan/--retry-policy/--spares/--brownout; "
                "shard servers are built plain"
            )
        from repro.engine import ControlPlane

        plane = ControlPlane(
            shards=args.shards,
            nodes_per_shard=args.nodes,
            micro_batch=args.batch,
            seed=args.seed,
            policy=args.policy,
            autoscaler=args.autoscale,
            program_store=args.program_store,
        )
        report = plane.serve_scenario(
            scenario, offered_fps=args.fps, placement=args.placement
        )
        store = plane.cache.store
    else:
        if args.autoscale is not None:
            raise SystemExit("--autoscale requires --shards")
        server = FrameServer(
            num_nodes=args.nodes,
            micro_batch=args.batch,
            seed=args.seed,
            fault_profile=args.fault_profile,
            policy=args.policy,
            chaos_plan=args.chaos_plan,
            retry_policy=args.retry_policy,
            spares=args.spares,
            brownout=args.brownout,
            program_store=args.program_store,
        )
        # A failover configuration warms up front: pre-warmed programs
        # are what make spare activation pure cache hits.
        if resilient:
            for key, model in scenario.models.items():
                server.register_model(key, model)
            warm = server.warmup()
        report = server.serve_scenario(scenario, offered_fps=args.fps)
        store = server.cache.store
    rows = [
        ("scenario", scenario.name),
        ("models", ", ".join(scenario.model_keys)),
        ("policy", args.policy),
        ("frames offered", report.stream.frames),
        ("frames delivered", report.delivered),
        ("drop rate", f"{report.stream.drop_rate:.3f}"),
        ("mean latency [ms]", _na_if_nan(report.stream.mean_latency_s * 1e3, ".3f")),
        ("sustained FPS (simulated)", _na_if_nan(report.stream.sustained_fps, ".0f")),
        ("wall-clock FPS (host)", f"{report.wall_clock_fps:.0f}"),
        ("cache hits / misses", f"{report.cache_hits} / {report.cache_misses}"),
        ("frame energy total [uJ]", f"{report.stream.total_energy_j * 1e6:.3f}"),
        ("radio energy [mJ]", f"{report.radio_energy_j * 1e3:.3f}"),
        ("payload [kB]", f"{report.payload_bytes / 1e3:.1f}"),
    ]
    if store is not None:
        rows.append(
            (
                "program store (loads / writes / entries)",
                f"{store.stats.hits} / {store.stats.writes} / {len(store)}",
            )
        )
    if warm is not None:
        rows.append(
            (
                "warmup (models x nodes)",
                f"{warm['models']} x {warm['nodes']} in "
                f"{warm['wall_clock_s'] * 1e3:.1f} ms",
            )
        )
    rows.extend(
        (f"frames on node {node}", count)
        for node, count in sorted(report.node_frames.items())
    )
    if report.controlplane is not None:
        plane_report = report.controlplane
        rows.extend(
            (
                ("shards", ", ".join(plane_report.shards)),
                ("router", plane_report.router),
                (
                    "routes (tenant|model -> shard)",
                    ", ".join(
                        f"{pair}->{shard}"
                        for pair, shard in plane_report.routes.items()
                    )
                    or "-",
                ),
                (
                    "reroutes / preloads",
                    f"{plane_report.reroutes} / {plane_report.preloads}",
                ),
                (
                    "node-seconds (active / static)",
                    f"{plane_report.node_seconds:.4f} / "
                    f"{plane_report.static_node_seconds:.4f}",
                ),
            )
        )
        if plane_report.autoscaled:
            rows.extend(
                (
                    (
                        "node-seconds saved",
                        f"{plane_report.node_seconds_saved_frac * 100:.1f}%",
                    ),
                    (
                        "scaling windows / decisions",
                        f"{plane_report.windows} / "
                        f"{len(plane_report.decisions)}",
                    ),
                )
            )
    if report.health is not None:
        health = report.health
        rows.extend(
            (
                ("fault profile", health.profile),
                ("upsets / recalibrations", f"{health.upsets} / {health.recalibrations}"),
                (
                    "degraded frames",
                    f"{health.degraded_frames} ({health.degraded_fraction * 100:.1f}%)",
                ),
                ("peak thermal drift [K]", f"{health.peak_drift_k:.3f}"),
                ("recalibration energy [nJ]", f"{health.recalibration_energy_j * 1e9:.2f}"),
            )
        )
        if health.chaos_events:
            rows.append(("chaos events fired", health.chaos_events))
    if report.resilience is not None:
        from repro.engine.failover import availability, recovery_time_s

        res = report.resilience
        recovery = recovery_time_s(report)
        rows.extend(
            (
                ("retry policy", res.retry_policy),
                ("availability", f"{availability(report) * 100:.1f}%"),
                (
                    "lost in flight / recovered / abandoned",
                    f"{res.frames_lost_in_flight} / {res.frames_recovered} "
                    f"/ {res.frames_abandoned}",
                ),
                (
                    "retries scheduled / dispatched / denied",
                    f"{res.retries_scheduled} / {res.retries_dispatched} "
                    f"/ {res.retry_budget_denials}",
                ),
                (
                    "spares activated / configured",
                    f"{res.spares_activated} / {res.spares_configured}",
                ),
                ("wasted dispatch energy [nJ]", f"{res.wasted_energy_j * 1e9:.2f}"),
            )
        )
        if recovery is not None:
            rows.append(
                (
                    "recovery time [ms]",
                    "never"
                    if recovery != recovery or recovery == float("inf")
                    else f"{recovery * 1e3:.2f}",
                )
            )
    if report.brownout is not None:
        brown = report.brownout
        rows.extend(
            (
                ("brownout peak tier", brown.peak_tier_name),
                (
                    "brownout shed / reduced-bits frames",
                    f"{brown.shed_frames} / {brown.reduced_bits_frames}",
                ),
            )
        )
    print(
        format_table(
            ("metric", "value"),
            rows,
            title=f"FrameServer — {args.nodes} node(s), micro-batch {args.batch}",
        )
    )
    if report.slo is not None:
        slo_rows = [
            (
                stats.name,
                stats.priority,
                "-"
                if stats.deadline_s is None
                else f"{stats.deadline_s * 1e3:.1f}",
                stats.offered,
                stats.delivered,
                _na_if_nan(stats.hit_rate, ".3f"),
                "n/a"
                if stats.p99_latency_s != stats.p99_latency_s
                else f"{stats.p99_latency_s * 1e3:.2f}",
                stats.shed,
                stats.expired,
                stats.lost,
            )
            for stats in sorted(
                report.slo.classes.values(),
                key=lambda s: (-s.priority, s.name),
            )
        ]
        print()
        print(
            format_table(
                (
                    "class",
                    "prio",
                    "deadline [ms]",
                    "offered",
                    "delivered",
                    "hit rate",
                    "p99 [ms]",
                    "shed",
                    "expired",
                    "lost",
                ),
                slo_rows,
                title=f"SLO outcomes — policy {report.slo.policy!r}",
            )
        )
    if report.brownout is not None and report.brownout.transitions:
        print("\nbrownout transitions:")
        for transition in report.brownout.transitions:
            print(
                f"  t={transition.time_s * 1e3:8.2f} ms  "
                f"tier {transition.from_tier} -> {transition.to_tier} "
                f"({transition.to_name}): pressure {transition.pressure:.2f}, "
                f"{transition.reason}"
            )
    if (
        report.controlplane is not None
        and report.controlplane.decisions
    ):
        print("\nscaling decisions:")
        for decision in report.controlplane.decisions:
            print(f"  {decision.line()}")
    if report.health is not None and report.health.events:
        print("\nhealth events:")
        for event in report.health.events:
            detail = f": {event.detail}" if event.detail else ""
            print(
                f"  t={event.time_s * 1e3:8.2f} ms  node {event.node_id}  "
                f"{event.kind}{detail}"
            )
    if args.check_slo:
        # SLO gate (CI-friendly): every class with a deadline must hit it
        # at >= --slo-target over offered frames, else exit nonzero.
        if report.slo is None:
            print(
                "\n--check-slo: no SLO accounting on this configuration "
                "(no classes and a non-queueing policy)"
            )
            return 1
        failures = []
        print(f"\nSLO check (target {args.slo_target:.2f}):")
        for stats in sorted(
            report.slo.classes.values(), key=lambda s: (-s.priority, s.name)
        ):
            if stats.deadline_s is None:
                print(f"  {stats.name:16s}: no deadline — exempt")
                continue
            ok = stats.hit_rate >= args.slo_target
            print(
                f"  {stats.name:16s}: hit rate {stats.hit_rate:.3f} "
                f"{'>=' if ok else '<'} {args.slo_target:.2f} "
                f"{'OK' if ok else 'MISS'}"
            )
            if not ok:
                failures.append(stats.name)
        if failures:
            print(f"--check-slo: FAILED for {', '.join(failures)}")
            return 1
        print("--check-slo: all classes meet the target")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.perf import (
        EXACT_CLAIMS,
        render_bench,
        run_bench,
        would_clobber_full_bench,
        write_bench,
    )

    result = run_bench(quick=args.quick, seed=args.seed)
    print(render_bench(result))
    kept = would_clobber_full_bench(args.output, result)
    path = write_bench(args.output, result)
    if kept:
        print(f"\nfull-mode perf trajectory entry at {path} kept")
    else:
        print(f"\nperf trajectory entry written to {path}")
    failed = 0
    for claim in EXACT_CLAIMS:
        section, flag = claim.split(".")
        if result[section][flag] is not True:
            print(f"ERROR: exact claim {claim} is false")
            failed += 1
    return 1 if failed else 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or maintain the on-disk program store.

    ``stats`` prints the inventory and ``verify`` integrity-checks every
    entry (exit 1 when any is corrupt or the directory is missing), both
    over current-schema entries; ``purge`` removes every entry, including
    ones an older schema left behind.  Table output matches ``repro
    serve``'s reporting style.
    """
    import os

    from repro.engine.store import STORE_SCHEMA_VERSION, ProgramStore
    from repro.util.tables import format_table

    if not os.path.isdir(args.program_store):
        # A store that was never written is an empty answer, not a
        # directory-creating side effect; verify fails, since it checked
        # nothing (a mistyped path must not pass a CI smoke step).
        print(f"program store {args.program_store!r}: no store directory")
        return 1 if args.action == "verify" else 0
    store = ProgramStore(args.program_store)
    if args.action == "purge":
        removed = store.purge()
        print(
            f"program store {store.root!r}: purged {removed} entr"
            f"{'y' if removed == 1 else 'ies'}"
        )
        return 0
    verified = store.verify() if args.action == "verify" else None
    rows = [
        ("store path", store.root),
        ("schema version", STORE_SCHEMA_VERSION),
        ("schema token", ProgramStore.schema_token()),
        ("entries", len(store)),
        ("bytes on disk", store.total_bytes()),
    ]
    if verified is not None:
        rows.append(("verified ok", len(verified["ok"])))
        rows.append(("corrupt", len(verified["corrupt"])))
    print(
        format_table(
            ("metric", "value"),
            rows,
            title=f"program store — {args.action}",
        )
    )
    if verified is not None and verified["corrupt"]:
        print("\ncorrupt entries (kept for inspection; purge to remove):")
        for key in verified["corrupt"]:
            print(f"  {key}")
        return 1
    return 0


def _number(kind: type, accepts, requirement: str):
    """argparse ``type=`` for a finite ``kind`` value ``accepts`` holds for.

    A bad count, rate or fraction is a usage error (exit 2) at parse
    time, not a ``ValueError`` from inside the engine.
    """

    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and accepts(value)):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {text!r}"
            )
        return value

    # argparse names the type in its "invalid ... value" message.
    parse.__name__ = kind.__name__
    return parse


def _positive(kind: type):
    """argparse ``type=`` for a finite ``kind`` value above zero."""
    return _number(kind, lambda value: value > 0, "a finite number above zero")


#: A count that may be zero (``--spares``, ``--shards``).
_count = _number(int, lambda value: value >= 0, "zero or more")
#: A hit-rate target (``--slo-target``).
_fraction = _number(float, lambda value: 0 < value <= 1, "in (0, 1]")


def _comma_list(item):
    """argparse ``type=`` for a non-empty comma list of ``item`` values."""

    def parse(text: str) -> tuple:
        values = tuple(
            item(token.strip()) for token in text.split(",") if token.strip()
        )
        if not values:
            raise argparse.ArgumentTypeError(
                f"must list at least one value, got {text!r}"
            )
        return values

    parse.__name__ = item.__name__
    return parse


def _accept(resolve, text: str):
    """``resolve(text)``, with its ``ValueError`` as a usage error.

    Each ``type=`` below hands its flag to the registry that owns the
    names, so a name is spelled once, there.
    """
    try:
        return resolve(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _policy(text: str) -> str:
    """argparse ``type=`` for a registered scheduling-policy name."""
    from repro.engine.scheduler import scheduling_policy

    _accept(scheduling_policy, text)
    return text


def _scenario(text: str) -> str:
    """argparse ``type=`` for a registered scenario key."""
    from repro.engine.workloads import scenario_description

    _accept(scenario_description, text)
    return text


def _fault_profile(text: str) -> str:
    """argparse ``type=`` for a named fault profile."""
    from repro.engine.health import FaultProfile

    _accept(FaultProfile.named, text)
    return text


def _chaos_plan(text: str) -> str:
    """argparse ``type=`` for a named chaos plan."""
    from repro.engine.chaos import ChaosPlan

    _accept(ChaosPlan.named, text)
    return text


def _retry_policy(text: str) -> str:
    """argparse ``type=`` for a named retry policy."""
    from repro.engine.failover import RetryPolicy

    _accept(RetryPolicy.named, text)
    return text


def _brownout(text: str) -> str:
    """argparse ``type=`` for a ``--brownout`` name."""
    from repro.engine.failover import brownout_enabled

    _accept(brownout_enabled, text)
    return text


def _models(text: str):
    """argparse ``type=`` for a ``family[:bits]`` zoo mix (its specs)."""
    from repro.engine.workloads import parse_model_specs

    return _accept(parse_model_specs, text)


def _autoscale(text: str):
    """argparse ``type=`` for a ``MIN:MAX[:WINDOW_S]`` autoscaler spec."""
    from repro.engine.controlplane import AutoscalerConfig

    return _accept(AutoscalerConfig.parse, text)


def _add_store_flag(sub: argparse.ArgumentParser) -> None:
    """``--program-store`` for the on-disk program-artifact tier.

    Results are bit-identical with or without a store (store-restored
    programs are byte-equal to freshly programmed ones); the flag only
    kills repeat programming across runs.
    """
    sub.add_argument(
        "--program-store",
        default=None,
        metavar="PATH",
        help="directory of content-addressed programmed-weight artifacts "
        "(engine/store); a second run against the same store programs "
        "nothing",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OISA (DATE 2024) reproduction — regenerate paper artifacts",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text in (
        ("summary", _cmd_summary, "headline performance counters"),
        ("claims", _cmd_claims, "paper-vs-measured claim table"),
        ("fig4", _cmd_fig4, "AWC staircase (Fig. 4b)"),
        ("fig8", _cmd_fig8, "VAM thresholding (Fig. 8)"),
        ("fig9", _cmd_fig9, "power comparison (Fig. 9)"),
        ("table1", _cmd_table1, "PIS/PNS comparison (Table I)"),
        ("compare", _cmd_compare, "in-house simulator platform report"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
    table2 = subparsers.add_parser("table2", help="accuracy table (Table II)")
    table2.add_argument("--fast", action="store_true", help="fast preset")
    table2.add_argument("--cache", default=".table2_cli_cache.json")
    table2.set_defaults(handler=_cmd_table2)
    report = subparsers.add_parser("report", help="write the full reproduction report")
    report.add_argument("--output", default="REPORT.md")
    report.add_argument("--table2-cache", default=".table2_bench_cache.json")
    report.set_defaults(handler=_cmd_report)
    sweep = subparsers.add_parser(
        "sweep", help="registry-driven cross-platform sweep"
    )
    sweep.add_argument(
        "--platforms", action="store_true", help="also list platform metadata"
    )
    sweep.add_argument(
        "--fault-profile",
        default="none",
        type=_fault_profile,
        help="also run the accuracy-vs-fault-rate robustness sweep "
        "(any non-none profile enables it and contributes its fault classes)",
    )
    sweep.add_argument(
        "--fast",
        action="store_true",
        help="trimmed grids (tier-1-test preset; applies to robustness "
        "and capacity sweeps)",
    )
    sweep.add_argument(
        "--capacity",
        action="store_true",
        help="also run the capacity-planning search "
        "(sustainable FPS vs nodes vs policy; analysis/capacity)",
    )
    sweep.add_argument(
        "--capacity-scenario",
        type=_scenario,
        default=None,
        help="workload scenario for --capacity (default: poisson, "
        "or diurnal with --fast)",
    )
    sweep.add_argument(
        "--capacity-policies",
        type=_comma_list(_policy),
        default=None,
        help="comma list of policies for --capacity (e.g. 'greedy,slo')",
    )
    sweep.add_argument(
        "--capacity-nodes",
        type=_comma_list(_positive(int)),
        default=None,
        help="comma list of node counts for --capacity (e.g. '1,2,4')",
    )
    sweep.add_argument(
        "--resilience",
        action="store_true",
        help="also run the failover ladder under chaos "
        "(no-failover vs retry vs retry+spares; analysis/robustness_report)",
    )
    sweep.add_argument(
        "--chaos-plan",
        default="node-loss",
        type=_chaos_plan,
        help="chaos plan for --resilience (engine/chaos registry)",
    )
    sweep.add_argument(
        "--retry-policy",
        default="deadline",
        type=_retry_policy,
        help="retry policy for the --resilience failover rungs",
    )
    sweep.add_argument(
        "--spares",
        type=_count,
        default=1,
        help="spare budget for the --resilience retry+spares rung",
    )
    _add_store_flag(sweep)
    sweep.set_defaults(handler=_cmd_sweep)
    serve = subparsers.add_parser(
        "serve", help="batched frame-serving engine demo"
    )
    serve.add_argument("--frames", type=_positive(int), default=64)
    serve.add_argument("--fps", type=_positive(float), default=1000.0)
    serve.add_argument("--nodes", type=_positive(int), default=2)
    serve.add_argument("--batch", type=_positive(int), default=16)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--scenario",
        default="default",
        type=_scenario,
        help="workload scenario (engine/workloads registry)",
    )
    serve.add_argument(
        "--models",
        default=None,
        type=_models,
        help="ad-hoc zoo mix overriding --scenario, e.g. "
        "'lenet:4,mlp:2,vgg16:1' (family[:weight_bits])",
    )
    serve.add_argument(
        "--policy",
        default="greedy",
        type=_policy,
        help="scheduling policy (greedy-FIFO, earliest-deadline-first, "
        "priority + per-tenant weighted fair queuing)",
    )
    serve.add_argument(
        "--fault-profile",
        default="none",
        type=_fault_profile,
        help="degradation scenario to serve under",
    )
    serve.add_argument(
        "--chaos-plan",
        default="none",
        type=_chaos_plan,
        help="injected fleet-failure schedule (engine/chaos registry); "
        "deterministic per seed",
    )
    serve.add_argument(
        "--retry-policy",
        default="none",
        type=_retry_policy,
        help="deadline-aware re-dispatch of frames killed in flight",
    )
    serve.add_argument(
        "--spares",
        type=_count,
        default=0,
        help="warm-standby spare budget (spares adopt the failed node's "
        "die seed, so pre-warmed programs activate as cache hits)",
    )
    serve.add_argument(
        "--brownout",
        default="none",
        type=_brownout,
        help="degradation-tier admission ladder under overload/capacity loss",
    )
    serve.add_argument(
        "--shards",
        type=_count,
        default=0,
        help="serve through the sharded control plane with this many "
        "shards (0 = plain single-fleet path); --nodes becomes the "
        "per-shard node count",
    )
    serve.add_argument(
        "--autoscale",
        default=None,
        type=_autoscale,
        metavar="MIN:MAX[:WINDOW_S]",
        help="autoscale each shard's active node count between MIN and "
        "MAX, observing load every WINDOW_S simulated seconds "
        "(requires --shards)",
    )
    serve.add_argument(
        "--placement",
        default="replicate",
        choices=("replicate", "partition"),
        help="zoo placement across shards (replicate everywhere, or "
        "partition round-robin with spillover)",
    )
    serve.add_argument(
        "--check-slo",
        action="store_true",
        help="exit nonzero when any SLO class with a deadline misses the "
        "--slo-target deadline-hit rate",
    )
    serve.add_argument(
        "--slo-target",
        type=_fraction,
        default=0.95,
        help="deadline-hit target for --check-slo (default 0.95)",
    )
    _add_store_flag(serve)
    serve.set_defaults(handler=_cmd_serve)
    bench = subparsers.add_parser(
        "bench",
        help="weight-programming perf bench (writes BENCH_program.json)",
    )
    bench.add_argument("--output", default="BENCH_program.json")
    bench.add_argument(
        "--quick", action="store_true", help="CI smoke mode (fewer repeats)"
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(handler=_cmd_bench)
    cache = subparsers.add_parser(
        "cache",
        help="inspect/maintain the on-disk program store (engine/store)",
    )
    cache.add_argument(
        "action",
        choices=("stats", "verify", "purge"),
        help="stats: inventory table; verify: integrity-check every "
        "entry (exit 1 on corruption or a missing store); purge: remove "
        "every entry of any schema version",
    )
    cache.add_argument(
        "--program-store",
        default=".program-store",
        metavar="PATH",
        help="store directory (default: .program-store)",
    )
    cache.set_defaults(handler=_cmd_cache)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())

"""``python -m repro`` -- headless measurement campaigns.

Every subcommand drives the experiment execution engine
(:mod:`repro.exec`): it builds an experiment plan, executes it
in-process, and optionally persists every measurement in an on-disk
result store (``--store DIR``) so re-runs are served from disk without
touching the machine substrate; each store-backed run is recorded in
the store's run ledger.

Subcommands::

    sweep       a workload set across a CMP-SMT (x DVFS) sweep,
                or across heterogeneous big.LITTLE topologies
    campaign    the full section-4 modeling campaign + PAAE report
    stressmark  the section-6 max-power stressmark hunt
    store       audit (verify) or repair/compact (scrub) a result store
                and its run ledger
    serve       run the campaign service: a resident, multi-tenant
                measurement server over HTTP/JSON

Any measuring subcommand accepts ``--server URL`` to execute its plan
on a running campaign service instead of in-process -- results are
bit-identical either way, but the service keeps machines, caches and
the store resident across clients; with a store, it measures each
distinct cell once however many clients ask for it.

Examples::

    python -m repro sweep --workloads spec --store .store
    python -m repro sweep --topology 8big,4big+4little,8little
    python -m repro campaign --scale 0.05 --loop-size 256 --store .store
    python -m repro -v stressmark --loop-size 384
    python -m repro store verify --store .store
    python -m repro serve --store .store --port 8787
    python -m repro sweep --workloads daxpy --server http://127.0.0.1:8787
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys
from collections.abc import Sequence

from repro.exec.executors import default_executor
from repro.march import get_architecture
from repro.sim import (
    Machine,
    parse_config,
    parse_topology,
    standard_configurations,
)
from repro.sim.pstate import get_pstate

logger = logging.getLogger("repro.cli")


def _window_seconds(text: str) -> float:
    """``--duration``: a finite, positive number of seconds."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"measurement window must be a finite positive number of "
            f"seconds, got {text!r}"
        )
    return value


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="persist measurements in an on-disk result store; warm "
        "cells are served from disk (default: the REPRO_STORE "
        "environment variable, else no store)",
    )
    parser.add_argument(
        "--arch", default="POWER7", help="architecture name (default POWER7)"
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="machine seed (default 0)"
    )
    parser.add_argument(
        "--duration",
        type=_window_seconds,
        default=10.0,
        metavar="S",
        help="measurement window in seconds (default 10)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print the machine's memo-cache hit/miss counters "
        "at the end of the run",
    )
    parser.add_argument(
        "--server",
        metavar="URL",
        help="execute the plan on a running campaign service "
        "(python -m repro serve) instead of in-process; bit-identical "
        "results (default: the REPRO_SERVER environment variable, "
        "else local execution)",
    )


def _build_machine(arch, args: argparse.Namespace) -> Machine:
    return Machine(arch, seed=args.seed)


@contextlib.contextmanager
def _executor(machine: Machine, args: argparse.Namespace):
    """The verb's executor; its store (if any) closes on the way out."""
    # Explicit flags win; unset flags fall back to the documented
    # REPRO_STORE / REPRO_SERVER environment knobs.
    server = getattr(args, "server", None) or os.environ.get("REPRO_SERVER")
    if server:
        from repro.exec.client import RemoteExecutor

        executor = RemoteExecutor(server, arch=args.arch, seed=args.seed)
    else:
        executor = default_executor(machine, store=args.store)
    try:
        yield executor
    finally:
        if executor.store is not None:
            executor.store.close()


def _report_store(executor) -> None:
    store = executor.store
    if store is not None:
        line = (
            f"store {store.root}: {store.hits} cells warm, "
            f"{store.misses} measured this run, {len(store)} total"
        )
        if store.kernel_hits or store.kernel_misses:
            # Every kernel lookup that misses is synthesized.
            line += (
                f"; kernels: {store.kernel_hits} loaded, "
                f"{store.kernel_misses} synthesized"
            )
        print(line)
        stats = store.fault_stats()
        if stats:
            print(
                "store faults: "
                + ", ".join(
                    f"{name}={value}" for name, value in sorted(stats.items())
                )
            )
    # Surface any recovery work (retries, degraded cells, quarantines)
    # the run needed; a clean run prints nothing extra.
    report = getattr(executor, "last_report", None)
    if report is not None and (report.failures or report.fault_counters):
        print(f"execution: {report.describe()}")


def _report_cache_stats(machine: Machine, args: argparse.Namespace) -> None:
    """Print (and log) the substrate's memo-cache counters."""
    if not args.cache_stats:
        return
    stats = machine.cache_stats()
    print("=== cache stats ===")
    for name in sorted(stats):
        counters = stats[name]
        print(
            f"{name:>20s}  {counters['hits']:>8d} hits  "
            f"{counters['misses']:>8d} misses  "
            f"{counters['size']:>6d}/{counters['capacity']} held  "
            f"{counters['evictions']} evicted"
        )
        logger.info("cache %s: %s", name, counters)


# -- sweep ---------------------------------------------------------------------


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.measure.runner import MeasurementRunner
    from repro.power_model.metrics import ordered_sum
    from repro.workloads import daxpy_kernels, extreme_kernels, spec_cpu2006

    arch = get_architecture(args.arch)
    machine = _build_machine(arch, args)
    if args.workloads == "spec":
        workloads = spec_cpu2006()
    elif args.workloads == "daxpy":
        workloads = daxpy_kernels(arch, loop_size=args.loop_size)
    else:
        workloads = list(extreme_kernels(arch, loop_size=args.loop_size).values())

    if args.topology:
        # Heterogeneous sweep: each spec is one big.LITTLE chip shape.
        configs = [
            parse_topology(spec) for spec in args.topology.split(",")
        ]
    elif args.configs:
        configs = [parse_config(label) for label in args.configs.split(",")]
    else:
        configs = list(
            standard_configurations(arch.chip.max_cores, arch.chip.smt_modes())
        )
    p_states = (
        [get_pstate(name) for name in args.p_states.split(",")]
        if args.p_states
        else None
    )

    with _executor(machine, args) as executor:
        runner = MeasurementRunner(machine, args.duration, executor=executor)
        logger.info(
            "sweep: %d workloads x %d configurations%s",
            len(workloads),
            len(configs),
            f" x {len(p_states)} p-states" if p_states else "",
        )
        sweep = runner.run_sweep(workloads, configs=configs, p_states=p_states)

        print(f"=== {args.workloads} sweep: {len(sweep)} configurations ===")
        width = max(len(config.label) for config in sweep)
        for config, measurements in sweep.items():
            powers = [measurement.mean_power for measurement in measurements]
            hottest = max(measurements, key=lambda m: m.mean_power)
            print(
                f"{config.label:>{max(8, width)}s}  "
                f"mean {ordered_sum(powers) / len(powers):7.1f} W  "
                f"max {hottest.mean_power:7.1f} W ({hottest.workload_name})"
            )
        _report_store(executor)
    _report_cache_stats(machine, args)
    return 0


# -- campaign ------------------------------------------------------------------


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.power_model.campaign import ModelingCampaign
    from repro.power_model.metrics import ordered_sum, prediction_errors

    arch = get_architecture(args.arch)
    machine = _build_machine(arch, args)
    with _executor(machine, args) as executor:
        campaign = ModelingCampaign(
            machine,
            scale=args.scale,
            loop_size=args.loop_size,
            duration=args.duration,
            seed=args.seed,
            executor=executor,
        )
        result = campaign.run()

        validation = [
            measurement
            for measurements in result.spec_by_config.values()
            for measurement in measurements
        ]
        models = {"BU": result.bottom_up, **result.top_down}
        print(
            f"=== modeling campaign: scale {args.scale}, "
            f"{len(result.configs)} configurations, "
            f"{len(validation)} SPEC validation measurements ==="
        )
        for name, model in models.items():
            # One scoring pass: PAAE and the worst case of one error list.
            errors = prediction_errors(model.predict, validation)
            mean = ordered_sum(errors) / len(errors)
            print(
                f"{name:>10s}  PAAE {mean:5.2f} %  "
                f"max error {max(errors):5.2f} %"
            )
        _report_store(executor)
    _report_cache_stats(machine, args)
    return 0


# -- stressmark ----------------------------------------------------------------


def _cmd_stressmark(args: argparse.Namespace) -> int:
    from repro.march.bootstrap import Bootstrapper
    from repro.stressmark import (
        select_candidates,
        spec_power_baseline,
        stressmark_search,
    )
    from repro.stressmark.report import (
        best_sequence,
        order_spread_analysis,
        summarize_set,
    )
    from repro.stressmark.search import covering_sequences

    arch = get_architecture(args.arch)
    machine = _build_machine(arch, args)
    with _executor(machine, args) as executor:
        logger.info("bootstrapping per-instruction EPI/IPC records")
        # The bootstrap routes through the same executor, so a warm store
        # serves the whole-ISA probe's cells and, from its kernel memo, the
        # probe's 315 kernels: a warm run synthesizes none of them.
        # Paper-standard 10 s windows for the bootstrap regardless of
        # --duration: the EPI/latency records are reference data.
        records = Bootstrapper(
            arch,
            machine,
            loop_size=args.bootstrap_loop,
            executor=executor,
        ).run()
        candidates = select_candidates(arch, records)
        print(f"IPC*EPI candidates per unit: {candidates}")

        logger.info("measuring the SPEC maximum-power baseline")
        baseline = spec_power_baseline(
            machine, duration=args.duration, executor=executor
        )
        print(f"SPEC CPU2006 maximum: {baseline:.1f} W")

        sequences = covering_sequences(tuple(candidates.values()))
        results = stressmark_search(
            machine,
            sequences,
            loop_size=args.loop_size,
            duration=args.duration,
            executor=executor,
        )
        summary = summarize_set("MicroProbe", results, baseline)
        spread = order_spread_analysis(results, baseline)
        print(f"best stressmark: {' '.join(best_sequence(results))}")
        print(
            f"max power: {summary.maximum:.3f}x the SPEC maximum "
            f"(+{(summary.maximum - 1) * 100:.1f}%; paper: +10.7%)"
        )
        print(
            f"order-only spread at max IPC: {spread.spread_percent:.1f}% over "
            f"{spread.sequences_at_max_ipc} orderings (paper: ~17%)"
        )
        _report_store(executor)
    _report_cache_stats(machine, args)
    return 0


# -- store ---------------------------------------------------------------------


# -- serve ---------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.exec.service import MeasurementService, build_server

    store = args.store or os.environ.get("REPRO_STORE")
    port = args.port
    if port is None:
        port = int(os.environ.get("REPRO_SERVE_PORT", "8787"))
    token = args.token or os.environ.get("REPRO_TOKEN")
    service = MeasurementService(
        store=store,
        token=token,
        max_inflight_cells=args.max_inflight_cells,
        max_requests=args.max_requests,
        write_deadline=args.write_deadline,
    )
    server = build_server(service, host=args.host, port=port)
    bound = f"http://{args.host}:{server.server_port}"
    print(
        f"campaign service on {bound} "
        f"(store: {store or 'none'}, "
        f"auth: {'token' if token else 'open'})",
        flush=True,
    )
    logger.info(
        "endpoints: POST /plans, GET /runs, GET /runs/<id>, GET /stats, "
        "GET /health"
    )

    # SIGTERM drains: stop admitting (503 + Retry-After), let in-flight
    # submissions finish streaming and record their ends, exit 0.  The
    # actual shutdown must run off-signal -- server.shutdown() blocks
    # until serve_forever returns.
    def _drain(signo, frame):  # pragma: no cover - signal path
        service.drain()
        threading.Thread(target=server.shutdown, daemon=True).start()

    try:
        signal.signal(signal.SIGTERM, _drain)
    except ValueError:  # pragma: no cover - non-main thread (tests)
        pass
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("campaign service shutting down")
    finally:
        if service.draining:
            drained = service.wait_idle(timeout=args.drain_grace)
            print(
                "campaign service drained"
                if drained
                else f"campaign service drain grace ({args.drain_grace:g}s) "
                "expired with requests still in flight",
                flush=True,
            )
        server.server_close()
        service.close()
    return 0


# -- store ---------------------------------------------------------------------


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.exec.journal import gc_journals
    from repro.exec.registry import RunRegistry
    from repro.exec.store import ResultStore

    root = args.store or os.environ.get("REPRO_STORE")
    if not root:
        print(
            "store: no store directory (pass --store DIR or set REPRO_STORE)",
            file=sys.stderr,
        )
        return 2
    with ResultStore(root) as store:
        if args.action == "verify":
            report = store.verify()
            print(f"store {store.root}: {report.describe()}")
            ledger = RunRegistry(store.root)
            if len(ledger):
                journals = ledger.journal_summary()
                print(
                    f"journals: {journals['runs']} run(s), "
                    f"{journals['complete']} complete, "
                    f"{journals['interrupted']} interrupted"
                )
                summary = ledger.summary()
                print(
                    f"registry: {summary['runs']} run(s), "
                    f"{summary['complete']} complete, "
                    f"{summary['interrupted']} interrupted, "
                    f"{summary['quarantined']} quarantined, "
                    f"{summary['running']} running"
                )
            if ledger.skipped:
                print(
                    f"registry: {ledger.skipped} line(s) skipped, not intact "
                    "run records (`store scrub` compacts them away)"
                )
            if not report.ok:
                print(
                    "store has damaged records; "
                    "run `python -m repro store scrub` to repair",
                    file=sys.stderr,
                )
                return 1
            return 0
        report = store.scrub()
        print(f"store {store.root}: {report.describe()}")
        # Scrub is also the ledger's retention pass: manifests of runs that
        # recorded their end carry nothing the store does not, and the
        # ledger collapses to one line per run.
        ledger = RunRegistry(store.root)
        swept = gc_journals(ledger)
        if swept:
            print(f"journals: swept {swept} run manifest(s) left behind")
        if len(ledger) or ledger.skipped:
            dropped = ledger.compact()
            if dropped > 0:
                print(f"registry: compacted away {dropped} superseded line(s)")
        return 0


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Headless measurement campaigns over the execution engine.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="log engine/campaign progress to stderr",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sweep = subparsers.add_parser(
        "sweep", help="measure a workload set across a configuration sweep"
    )
    sweep.add_argument(
        "--workloads",
        choices=("spec", "daxpy", "extreme"),
        default="spec",
        help="workload set (default spec)",
    )
    sweep.add_argument(
        "--configs",
        metavar="LIST",
        help="comma-separated configuration labels (e.g. 8-1,8-4@p2); "
        "default: the full 24-configuration sweep",
    )
    sweep.add_argument(
        "--topology",
        metavar="LIST",
        help="comma-separated heterogeneous chip topologies to sweep "
        "instead of CMP-SMT configurations (e.g. "
        "8big,4big+4little,4big-2@p2+4little); overrides --configs",
    )
    sweep.add_argument(
        "--p-states",
        metavar="LIST",
        help="comma-separated p-state names to cross with the sweep",
    )
    sweep.add_argument(
        "--loop-size",
        type=int,
        default=1024,
        help="generated-kernel loop size (daxpy/extreme sets)",
    )
    _add_engine_options(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    campaign = subparsers.add_parser(
        "campaign", help="run the section-4 modeling campaign"
    )
    campaign.add_argument(
        "--scale",
        type=float,
        default=0.3,
        help="training-suite scale factor (1.0 = paper scale)",
    )
    campaign.add_argument(
        "--loop-size", type=int, default=1024, help="generated loop size"
    )
    _add_engine_options(campaign)
    campaign.set_defaults(handler=_cmd_campaign)

    stressmark = subparsers.add_parser(
        "stressmark", help="run the section-6 max-power stressmark hunt"
    )
    stressmark.add_argument(
        "--loop-size",
        type=int,
        default=384,
        help="stressmark loop size (steady-state metrics are "
        "size-invariant)",
    )
    stressmark.add_argument(
        "--bootstrap-loop",
        type=int,
        default=256,
        help="bootstrap micro-benchmark loop size",
    )
    _add_engine_options(stressmark)
    stressmark.set_defaults(handler=_cmd_stressmark)

    store = subparsers.add_parser(
        "store", help="audit or repair an on-disk result store"
    )
    store.add_argument(
        "action",
        choices=("verify", "scrub"),
        help="verify: read-only audit (checksums, torn tails, run "
        "ledger; exit 1 on damaged records); scrub: repair and compact "
        "every shard in place, compact the run ledger and sweep run "
        "manifests left behind",
    )
    store.add_argument(
        "--store",
        metavar="DIR",
        help="store directory (default: the REPRO_STORE environment "
        "variable)",
    )
    store.set_defaults(handler=_cmd_store)

    serve = subparsers.add_parser(
        "serve",
        help="run the campaign service: a resident multi-tenant "
        "measurement server over HTTP/JSON",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="port to bind; 0 picks an ephemeral port (default: the "
        "REPRO_SERVE_PORT environment variable, else 8787)",
    )
    serve.add_argument(
        "--store",
        metavar="DIR",
        help="result store backing the service; warm cells are served "
        "from disk with zero measurements (default: REPRO_STORE, "
        "else no store)",
    )
    serve.add_argument(
        "--token",
        metavar="SECRET",
        default=None,
        help="require 'Authorization: Bearer SECRET' on every endpoint "
        "but /health (default: the REPRO_TOKEN environment variable, "
        "else open)",
    )
    serve.add_argument(
        "--max-inflight-cells",
        type=int,
        default=None,
        metavar="N",
        help="admission budget: reject plan submissions with 429 + "
        "Retry-After while more than N cells are admitted and "
        "unfinished (default: unbounded)",
    )
    serve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="admission budget: at most N concurrently admitted plan "
        "submissions; excess answers 429 + Retry-After (default: "
        "unbounded)",
    )
    serve.add_argument(
        "--write-deadline",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-connection socket deadline; a client that stops "
        "draining its response stream is disconnected instead of "
        "wedging the engine queue (default 60)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="on SIGTERM, how long to wait for in-flight submissions "
        "to finish streaming before exiting (default 30)",
    )
    serve.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
        stream=sys.stderr,
    )
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())

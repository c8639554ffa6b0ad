"""One benchmark pass of one workload, run in a fresh interpreter.

    python3 perfbench/workloads.py --workload campaign|sweep|serve \
        --seed N --seconds S --trace 0|1 --size full|smoke --tmp DIR \
        [--corrupt]

The pass runs one untimed warm-up repetition on the default seed, whose
digest must equal the one recorded in ``expected.json``, then timed
repetitions on fresh seeds derived from ``--seed`` until ``--seconds``
of timed work have accumulated.  Every repetition is a closed loop in
this single process (plus the server process for ``serve``): a cold
unit of work on inputs nothing has seen, then warm units on the same
inputs.  The last stdout line is one JSON object with the timed units,
failure accounting, correctness problems, peak RSS and, when traced,
the per-layer table.

Workloads (why each exists):

* ``campaign`` -- the paper's query (a) as ``repro campaign --store``
  runs it: a cold ``ModelingCampaign`` on a fresh store, then the same
  seed warm.  Synthesis dominates both; the store's put path loads the
  cold run and its get path the warm one.
* ``sweep`` -- a store-less ``repro sweep`` on a fresh machine: SPEC
  protocol proxies and mix placements (the scalar walk) beside fused
  stressmark kernel cells, across 24 CMP-SMT configurations x 4
  p-states; then the same inputs re-run on the now-warm machine.
* ``serve`` -- one ``repro serve`` process and one closed-loop
  ``RemoteExecutor`` client: a cold 192-cell request of new kernels,
  then three warm requests of already-served kernels.  Store, wire and
  stream I/O do the work; compute is small.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field, replace
from operator import itemgetter

import hostspeed
import tracing
from repro.errors import ExecutionError, ServiceError
from repro.exec.client import RemoteExecutor, ServiceClient
from repro.exec.executors import SerialExecutor
from repro.exec.plan import ExperimentPlan, PlanCell, sweep_configs
from repro.exec.store import ResultStore
from repro.march import get_architecture
from repro.power_model.campaign import ModelingCampaign
from repro.power_model.metrics import paae
from repro.sim import Machine, standard_configurations
from repro.sim.pstate import standard_pstates
from repro.stressmark import search
from repro.stressmark.heuristics import TARGET_UNITS
from repro.workloads import spec_cpu2006
from repro.workloads.mixes import mix_scenarios

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

DEFAULT_SEED = 0
#: Simulated measurement window of every cell, seconds (the CLI default).
DURATION = 10.0
#: Stressmark loop size (the ``repro stressmark`` default).
STRESS_LOOP = 384

SIZES = {
    "campaign": {
        "full": {"scale": 0.3, "loop": 1024},
        "smoke": {"scale": 0.05, "loop": 256},
    },
    # ~180 kernels put about half of a cold sweep's time in fused cells.
    "sweep": {
        "full": {"kernels": 180, "p_states": 4},
        "smoke": {"kernels": 8, "p_states": 1},
    },
    "serve": {
        "full": {"kernels": 8, "warm": 3},
        "smoke": {"kernels": 2, "warm": 1},
    },
}
#: Served cells re-measured locally to check the server.
SERVE_LOCAL_SAMPLE = 16
#: Sweep cells re-measured one shot to check the plane.
SWEEP_ONESHOT_SAMPLE = 12


def rep_seeds(workload: str, seed: int):
    """The timed repetitions' seeds: fresh inputs, never the default."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    while True:
        yield rng.randrange(1, 2**31)


# -- correctness digests ---------------------------------------------------------


#: Counter-name tuple -> (sorted names as bytes, getter of the values
#: in sorted-name order).
_COUNTER_ORDER: dict = {}


def _counter_row(counters) -> tuple[bytes, bytes]:
    keys = tuple(counters)
    order = _COUNTER_ORDER.get(keys)
    if order is None:
        names = sorted(keys)
        order = _COUNTER_ORDER[keys] = (
            "|".join(names).encode(),
            itemgetter(*[keys.index(name) for name in names]),
        )
    values = order[1](list(counters.values()))
    return order[0], array("d", values).tobytes()


def feed(update, measurement) -> None:
    """Hash every field of one measurement, floats bit-exact.

    The hash depends on content only: threads sharing one counters
    object hash exactly like threads holding equal copies.
    """
    threads = measurement.thread_counters
    first = threads[0]
    names, row = _counter_row(first)
    if threads.count(first) == len(threads):
        rows = row * len(threads)
    else:
        seen = {id(first): row}
        parts = []
        for counters in threads:
            data = seen.get(id(counters))
            if data is None:
                data = seen[id(counters)] = _counter_row(counters)[1]
            parts.append(data)
        rows = b"".join(parts)
    update(
        f"{measurement.workload_name}\0{measurement.config.label}\0"
        f"{measurement.sample_count}\0{measurement.thread_workloads}\0"
        .encode()
    )
    update(
        array(
            "d",
            (measurement.duration, measurement.mean_power,
             measurement.power_std),
        ).tobytes()
    )
    update(names)
    update(rows)


def digest_of(measurements, extra: str = "") -> str:
    hasher = hashlib.blake2b(extra.encode(), digest_size=16)
    for measurement in measurements:
        feed(hasher.update, measurement)
    return hasher.hexdigest()


def fingerprint(measurement) -> str:
    return digest_of([measurement])


def _rounded(value):
    """Fitted numbers to 9 significant digits: BLAS may differ in the
    last bits across CPUs, a real change moves far more."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def corrupted(measurement):
    """One measurement with its power nudged: the self-test's fault."""
    return replace(measurement, mean_power=measurement.mean_power + 1.0)


@dataclass
class Rep:
    """What one repetition did: timed units, accounting, verdicts."""

    #: (kind, wall_s, cells, reference_s): each timed unit with the
    #: host-speed reference measured around it.
    units: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digest: str = ""
    extra: dict = field(default_factory=dict)


def _report_failures(report) -> int:
    counters = report.fault_counters
    return (
        len(report.failures)
        + counters.get("retries", 0)
        + counters.get("store_put_retries", 0)
        + counters.get("store_put_failures", 0)
    )


def unit_pools(arch) -> list[list[str]]:
    """Per target unit, the pure single-unit mnemonics a stressmark
    draws from (the candidate filter of ``select_candidates``)."""
    pools: dict[str, list[str]] = {unit: [] for unit in TARGET_UNITS}
    for mnemonic in arch.isa.mnemonics():
        props = arch.props(mnemonic)
        if len(props.usages) != 1:
            continue
        usage = props.usages[0]
        if usage.is_flexible or usage.ops != 1:
            continue
        unit = usage.units[0]
        if unit in pools and not arch.isa.instruction(mnemonic).is_store:
            pools[unit].append(mnemonic)
    return [sorted(pools[unit]) for unit in TARGET_UNITS]


def store_bytes_per_cell(root: str) -> tuple[int, int]:
    """(record bytes, records) over a store's JSONL shards."""
    total = lines = 0
    shard_dir = os.path.join(root, "shards")
    for name in os.listdir(shard_dir):
        if name.endswith(".jsonl"):
            with open(os.path.join(shard_dir, name), "rb") as handle:
                data = handle.read()
            total += len(data)
            lines += data.count(b"\n")
    return total, lines


# -- campaign --------------------------------------------------------------------


class RecordingExecutor(SerialExecutor):
    """A serial executor that keeps every report it returns."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reports = []

    def execute(self, plan, progress=None):
        report = super().execute(plan, progress)
        self.reports.append(report)
        return report


class Campaign:
    name = "campaign"
    #: The warm-up is a smoke-size campaign: it runs every code path of
    #: the full one at a tenth of the cost.
    warmup_size = "smoke"

    def __init__(self, tracer, tmp: str) -> None:
        self.tracer = tracer
        self.tmp = tmp

    def setup(self) -> None:
        self.arch = get_architecture("POWER7")

    def repetition(self, seed: int, ordinal: int, size: str, corrupt=False):
        params = SIZES["campaign"][size]
        rep = Rep()
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.tmp)
        digests = []
        reference = hostspeed.reference()
        try:
            for kind in ("cold", "warm"):
                with self.tracer.root(f"bench.{kind}", ordinal):
                    start = time.perf_counter()
                    machine = Machine(self.arch, seed=seed)
                    executor = RecordingExecutor(
                        machine, store=ResultStore(store_dir)
                    )
                    try:
                        result = ModelingCampaign(
                            machine,
                            scale=params["scale"],
                            loop_size=params["loop"],
                            duration=DURATION,
                            seed=seed,
                            executor=executor,
                        ).run()
                    except ExecutionError as exc:
                        result = None
                        executor.reports.append(exc.report)
                    wall = time.perf_counter() - start
                after = hostspeed.reference()
                executor.store.close()
                measurements = [
                    measurement
                    for report in executor.reports
                    for measurement in report.measurements
                ]
                rep.units.append(
                    (kind, wall, len(measurements), (reference + after) / 2)
                )
                reference = after
                rep.attempted += len(measurements)
                rep.failed += sum(
                    _report_failures(report) for report in executor.reports
                )
                if result is None:
                    rep.problems.append(f"{kind} campaign quarantined cells")
                    continue
                if kind == "cold":
                    record_bytes, records = store_bytes_per_cell(store_dir)
                    rep.extra["store_bytes"] = record_bytes
                    rep.extra["store_records"] = records
                if corrupt and kind == "cold":
                    measurements[0] = corrupted(measurements[0])
                validation = [
                    measurement
                    for group in result.spec_by_config.values()
                    for measurement in group
                ]
                bu_paae = paae(result.bottom_up.predict, validation)
                rep.extra.setdefault("paae_pct", []).append(bu_paae)
                bottom_up = result.bottom_up
                models = [
                    sorted(bottom_up.weights.items()),
                    bottom_up.smt_effect,
                    bottom_up.cmp_effect,
                    bottom_up.uncore,
                    bottom_up.workload_independent,
                    [
                        (name, list(model.coefficients), model.intercept)
                        for name, model in sorted(result.top_down.items())
                    ],
                    bu_paae,
                ]
                digests.append(
                    digest_of(measurements, repr(_rounded(models)))
                )
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        if len(digests) == 2 and digests[0] != digests[1]:
            rep.problems.append(
                f"seed {seed}: warm campaign digest {digests[1]} != cold "
                f"{digests[0]}"
            )
            rep.failed += 1
        rep.digest = digests[0] if digests else ""
        return rep

    def teardown(self, problems: list) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- sweep -----------------------------------------------------------------------


class Sweep:
    name = "sweep"
    warmup_size = None  # the run's own size

    def __init__(self, tracer, tmp: str) -> None:
        self.tracer = tracer
        self.tmp = tmp

    def setup(self) -> None:
        self.arch = get_architecture("POWER7")
        self.pools = unit_pools(self.arch)

    def _swept(self, size: str):
        chip = self.arch.chip
        return sweep_configs(
            standard_configurations(chip.max_cores, chip.smt_modes()),
            standard_pstates()[: SIZES["sweep"][size]["p_states"]],
        )

    def _sweep(self, executor, spec, placements, kernels, swept):
        plans = [
            ExperimentPlan.cross(spec, swept, duration=DURATION),
            ExperimentPlan(
                PlanCell(placement, config, DURATION)
                for config, placement in placements
            ),
            ExperimentPlan.cross(kernels, swept, duration=DURATION),
        ]
        return [(plan, executor.execute(plan)) for plan in plans]

    def repetition(self, seed: int, ordinal: int, size: str, corrupt=False):
        rng = random.Random(seed)
        triple = tuple(rng.choice(pool) for pool in self.pools)
        sequences = rng.sample(
            search.covering_sequences(triple), SIZES["sweep"][size]["kernels"]
        )
        swept = self._swept(size)
        rep = Rep()
        phases = []
        references = [hostspeed.reference()]
        with self.tracer.root("bench.cold", ordinal):
            start = time.perf_counter()
            machine = Machine(self.arch, seed=seed)
            executor = SerialExecutor(machine)
            kernels = [
                search.build_stressmark(self.arch, sequence, STRESS_LOOP)
                for sequence in sequences
            ]
            spec = spec_cpu2006()
            mixes = mix_scenarios()
            placements = [
                (config, mix.placement(config))
                for config in swept
                for mix in mixes
            ]
            phases.append(
                self._sweep(executor, spec, placements, kernels, swept)
            )
            cold_wall = time.perf_counter() - start
        references.append(hostspeed.reference())
        with self.tracer.root("bench.warm", ordinal):
            start = time.perf_counter()
            phases.append(
                self._sweep(executor, spec, placements, kernels, swept)
            )
            warm_wall = time.perf_counter() - start
        references.append(hostspeed.reference())
        results = []
        for index, (kind, wall, phase) in enumerate(
            zip(("cold", "warm"), (cold_wall, warm_wall), phases)
        ):
            count = sum(len(report) for _, report in phase)
            reference = (references[index] + references[index + 1]) / 2
            rep.units.append((kind, wall, count, reference))
            rep.attempted += count
            rep.failed += sum(_report_failures(report) for _, report in phase)
            results.append([
                (cell, measurement)
                for plan, report in phase
                for cell, measurement in zip(plan.cells, report.measurements)
            ])
        cold, warm = results
        if corrupt:
            cold[0] = (cold[0][0], corrupted(cold[0][1]))
        rep.digest = digest_of(measurement for _, measurement in cold)
        if rep.digest != digest_of(measurement for _, measurement in warm):
            rep.problems.append(f"seed {seed}: warm sweep differs from cold")
            rep.failed += sum(
                fingerprint(a) != fingerprint(b)
                for (_, a), (_, b) in zip(cold, warm)
            )
        # One-shot Machine.run on a fresh machine must agree cell for cell.
        oneshot = Machine(self.arch, seed=seed)
        for cell, measurement in rng.sample(
            cold, min(SWEEP_ONESHOT_SAMPLE, len(cold))
        ):
            alone = oneshot.run(cell.workload, cell.config, cell.duration)
            if fingerprint(alone) != fingerprint(measurement):
                rep.problems.append(
                    f"seed {seed}: one-shot run of {measurement.workload_name}"
                    f" on {cell.config.label} differs from the sweep"
                )
                rep.failed += 1
        return rep

    def teardown(self, problems: list) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- serve -----------------------------------------------------------------------


class Serve:
    name = "serve"
    warmup_size = None

    def __init__(self, tracer, tmp: str) -> None:
        self.tracer = tracer
        self.tmp = tmp
        self.traced = isinstance(tracer, tracing.Tracer)
        self.spans_path = os.path.join(tmp, "server-spans.jsonl")
        self.http_bytes = {"sent": 0, "received": 0}

    def setup(self) -> None:
        self.arch = get_architecture("POWER7")
        self.pools = unit_pools(self.arch)
        chip = self.arch.chip
        self.configs = list(
            standard_configurations(chip.max_cores, chip.smt_modes())
        )
        #: kernel name -> kernel, and (kernel name, label) -> fingerprint
        #: of every cell served cold.
        self.kernels: dict = {}
        self.served: dict = {}
        self.latencies = {"cold": [], "warm": []}
        self.first_cell_ms: list[float] = []
        self.requests = {"attempted": 0, "failed": 0}
        self.store_dir = tempfile.mkdtemp(prefix="serve-store-", dir=self.tmp)
        if self.traced:
            command = [
                sys.executable, os.path.join(HERE, "launcher.py"),
                self.spans_path,
            ]
            self._count_http_bytes()
        else:
            command = [sys.executable, "-m", "repro"]
        command += [
            "serve", "--host", "127.0.0.1", "--port", "0",
            "--store", self.store_dir,
        ]
        self.server = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True
        )
        banner = self.server.stdout.readline()
        found = re.search(r"http://[\w.:]+", banner)
        if found is None:
            self.server.kill()
            self.server.wait()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.client = ServiceClient(found.group(0))
        self.executor = RemoteExecutor(self.client, arch="POWER7", seed=0)

    def _count_http_bytes(self) -> None:
        """Count request and response body bytes at the socket client."""
        import http.client

        counts = self.http_bytes
        request = http.client.HTTPConnection.request
        readline = http.client.HTTPResponse.readline

        def counted_request(self, method, url, body=None, *args, **kwargs):
            if body is not None and url == "/plans":
                counts["sent"] += len(body)
            return request(self, method, url, body, *args, **kwargs)

        def counted_readline(self, *args):
            line = readline(self, *args)
            counts["received"] += len(line)
            return line

        http.client.HTTPConnection.request = counted_request
        http.client.HTTPResponse.readline = counted_readline

    def _new_kernels(self, rng, count: int) -> list:
        kernels = []
        while len(kernels) < count:
            triple = tuple(rng.choice(pool) for pool in self.pools)
            sequence = rng.choice(search.covering_sequences(triple))
            kernel = search.build_stressmark(self.arch, sequence, STRESS_LOOP)
            if kernel.name in self.kernels:
                continue
            self.kernels[kernel.name] = kernel
            kernels.append(kernel)
        return kernels

    def _request(self, kind: str, kernels, ordinal: int, rep: Rep):
        plan = ExperimentPlan.cross(kernels, self.configs, duration=DURATION)
        first = []

        def progress(cells, measurements, warm):
            if not first:
                first.append(time.perf_counter())

        retries = self.executor.transport_retries
        self.requests["attempted"] += 1
        rep.attempted += plan.size
        with self.tracer.root(f"bench.{kind}", ordinal):
            start = time.perf_counter()
            try:
                report = self.executor.execute(plan, progress=progress)
            except ServiceError as exc:
                report = None
                rep.problems.append(f"{kind} request failed: {exc}")
            wall = time.perf_counter() - start
        if report is None:
            self.requests["failed"] += 1
            rep.failed += plan.size
            return None
        rep.units.append((kind, wall, plan.size))
        self.latencies[kind].append(wall * 1000.0)
        if first:
            self.first_cell_ms.append((first[0] - start) * 1000.0)
        failed = len(report.failures) + (
            self.executor.transport_retries - retries
        ) * plan.size
        if failed:
            self.requests["failed"] += 1
            rep.failed += failed
        return [
            (cell, measurement)
            for cell, measurement in zip(plan.cells, report.measurements)
        ]

    def repetition(self, seed: int, ordinal: int, size: str, corrupt=False):
        params = SIZES["serve"][size]
        rng = random.Random(seed)
        rep = Rep()
        cold = []
        before = hostspeed.reference()
        served = self._request(
            "cold", self._new_kernels(rng, params["kernels"]), ordinal, rep
        )
        for cell, measurement in served or ():
            key = (cell.workload.name, cell.config.label)
            self.served[key] = fingerprint(measurement)
            cold.append(measurement)
        names = sorted(self.kernels)
        for number in range(params["warm"]):
            chosen = [
                self.kernels[name]
                for name in rng.sample(names, params["kernels"])
            ]
            for index, (cell, measurement) in enumerate(
                self._request("warm", chosen, ordinal, rep) or ()
            ):
                if corrupt and number == 0 and index == 0:
                    measurement = corrupted(measurement)
                key = (cell.workload.name, cell.config.label)
                if fingerprint(measurement) != self.served[key]:
                    rep.problems.append(
                        f"warm cell {key} differs from its cold serve"
                    )
                    rep.failed += 1
        # One reference per round: the requests are too short to
        # bracket one by one.
        reference = (before + hostspeed.reference()) / 2
        rep.units = [unit + (reference,) for unit in rep.units]
        rep.digest = digest_of(cold)
        return rep

    def _stats(self) -> dict:
        stats = self.client.stats()["service"]
        return {
            "measured_cells": stats["measured_cells"],
            "store_cells": stats["warm_cells"],
            "rejected": stats["rejected_requests"] + stats["drain_rejected"],
        }

    def begin_timed(self) -> None:
        """Zero the client-side accounting the warm-up round touched."""
        self.stats_before = self._stats()
        self.http_bytes.update(sent=0, received=0)
        self.latencies = {"cold": [], "warm": []}
        self.first_cell_ms = []
        self.requests = {"attempted": 0, "failed": 0}
        self.executor.transport_retries = 0

    def end_timed(self) -> None:
        after = self._stats()
        self.service = {
            name: after[name] - self.stats_before[name] for name in after
        }
        self.store_bytes = store_bytes_per_cell(self.store_dir)

    def local_check(self, seed: int, problems: list) -> int:
        """Served cells re-measured by a local SerialExecutor must agree."""
        rng = random.Random(seed)
        keys = sorted(self.served)
        sample = rng.sample(keys, min(SERVE_LOCAL_SAMPLE, len(keys)))
        configs = {config.label: config for config in self.configs}
        plan = ExperimentPlan(
            PlanCell(self.kernels[name], configs[label], DURATION)
            for name, label in sample
        )
        local = SerialExecutor(Machine(self.arch, seed=0)).execute(plan)
        mismatches = 0
        for (name, label), measurement in zip(sample, local.measurements):
            if fingerprint(measurement) != self.served[(name, label)]:
                problems.append(
                    f"served cell ({name}, {label}) differs from local "
                    "SerialExecutor"
                )
                mismatches += 1
        return mismatches

    def teardown(self, problems: list) -> float:
        self.server.send_signal(signal.SIGTERM)
        try:
            code = self.server.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.server.kill()
            code = self.server.wait()
            problems.append("server ignored SIGTERM for 60 s")
        self.server.stdout.close()
        if code != 0:
            problems.append(f"server exited with code {code}")
        shutil.rmtree(self.store_dir, ignore_errors=True)
        # The server is this process's only child.
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {"campaign": Campaign, "sweep": Sweep, "serve": Serve}


# -- per-layer metrics -----------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest standard percentile that has
    at least ten samples beyond it; the median if none has."""
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0
    chosen = 50.0
    for percentile in (75.0, 90.0, 95.0, 99.0, 99.9):
        if len(ordered) * (1 - percentile / 100.0) >= 10:
            chosen = percentile
    index = min(len(ordered) - 1, int(len(ordered) * chosen / 100.0))
    return ordered[index], chosen


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(rows: dict, reps: int, units: list, extra: dict) -> dict:
    """Per-repetition per-layer numbers from the aggregated spans."""

    def row(name):
        return rows.get(name, {"self_s": 0.0, "calls": 0, "n": None})

    def self_s(name):
        return row(name)["self_s"] / reps

    def calls(name):
        return row(name)["calls"] / reps

    def count(name, index=0):
        values = row(name)["n"]
        return (values[index] if values else 0) / reps

    def ratio(part, whole):
        return part / whole if whole else 0.0

    cold_cells = sum(unit[2] for unit in units if unit[0] == "cold")
    instructions = count("core.synthesize")
    machine_cells = count("machine.run")
    fused = count("vector.fused")
    metrics = {
        "core.synthesize_s": self_s("core.synthesize"),
        "core.synthesize_calls": calls("core.synthesize"),
        "core.instructions": instructions,
        "core.us_per_instruction": ratio(
            self_s("core.synthesize") * 1e6, instructions
        ),
        "core.to_kernel_s": self_s("core.to_kernel"),
        "power_model.suite_s": self_s("power_model.suite"),
        "power_model.fit_bu_s": self_s("power_model.fit_bu"),
        "power_model.fit_td_s": self_s("power_model.fit_td"),
        "power_model.bu_paae_pct": extra.get("paae_pct", 0.0),
        "stressmark.build_s": self_s("stressmark.build"),
        "plan.build_s": self_s("plan.build"),
        "plan.cells": count("plan.build", 0),
        "plan.unique_ratio": ratio(
            count("plan.build", 0), count("plan.build", 1)
        ),
        "executors.execute_s": self_s("executors.execute"),
        "executors.failed_cells": count("executors.execute", 0),
        "executors.retries": count("executors.execute", 1),
        "pipeline.summarize_s": self_s("pipeline.summarize"),
        "pipeline.summarize_calls": calls("pipeline.summarize"),
        "pipeline.summary_hit_ratio": ratio(
            count("pipeline.summarize", 0),
            count("pipeline.summarize", 0) + count("pipeline.summarize", 1),
        ),
        "machine.run_s": self_s("machine.run"),
        "machine.cells": machine_cells,
        "machine.scalar_cells": max(0.0, machine_cells - fused),
        "vector.fused_s": self_s("vector.fused"),
        "vector.fused_cells": fused,
        "vector.fused_share": ratio(fused, machine_cells),
        "vector.program_hit_ratio": ratio(
            count("vector.fused", 1),
            count("vector.fused", 1) + count("vector.fused", 2),
        ),
        "sensors.measure_s": self_s("sensors.measure"),
        "sensors.measure_calls": calls("sensors.measure"),
        "sensors.batch_s": self_s("sensors.batch"),
        "sensors.draws_s": self_s("sensors.draws"),
        "sensors.draw_hit_ratio": ratio(
            count("sensors.draws", 0),
            count("sensors.draws", 0) + count("sensors.draws", 1),
        ),
        "store.get_s": self_s("store.get"),
        "store.get_calls": calls("store.get"),
        "store.put_s": self_s("store.put"),
        "store.put_calls": calls("store.put"),
        "store.cells_written": count("store.put"),
        "store.misses_per_cold_cell": ratio(
            count("store.get") * reps, cold_cells
        ),
        "store.bytes_per_cell": extra.get("store_bytes_per_cell", 0.0),
        "journal.s": self_s("journal"),
        "registry.s": self_s("registry"),
        "serialize.encode_s": self_s("serialize.encode"),
        "serialize.decode_s": self_s("serialize.decode"),
        "serialize.request_bytes_per_cell": extra.get(
            "request_bytes_per_cell", 0.0
        ),
        "serialize.intern_hit_ratio": ratio(
            count("serialize.decode", 0),
            count("serialize.decode", 0) + count("serialize.decode", 1),
        ),
        "client.wait_s": extra.get("client_wait_s", 0.0) / reps,
        "client.response_bytes_per_cell": extra.get(
            "response_bytes_per_cell", 0.0
        ),
        "client.retries": extra.get("client_retries", 0) / reps,
        "service.submit_s": self_s("service.submit"),
        "measure.from_dict_s": self_s("measure.from_dict"),
        "measure.to_dict_s": self_s("measure.to_dict"),
    }
    for name in ("cold_p50_ms", "cold_tail_ms", "warm_p50_ms",
                 "warm_tail_ms", "first_cell_ms"):
        metrics[f"client.{name}"] = extra.get(name, 0.0)
    for name in ("measured_cells", "store_cells", "rejected"):
        metrics[f"service.{name}"] = extra.get("service", {}).get(name, 0) / reps
    return metrics


# -- the pass --------------------------------------------------------------------


def run_pass(args) -> dict:
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracing.install(tracer)
    runner = WORKLOADS[args.workload](tracer, args.tmp)
    runner.setup()
    problems: list[str] = []
    try:
        warmup_size = runner.warmup_size or args.size
        warmup = runner.repetition(DEFAULT_SEED, 0, warmup_size)
        problems.extend(f"warm-up: {p}" for p in warmup.problems)
        with open(EXPECTED_PATH) as handle:
            expected = json.load(handle).get(f"{args.workload}/{warmup_size}")
        if warmup.digest != expected:
            problems.append(
                f"warm-up digest {warmup.digest} on the default seed != "
                f"recorded {expected} ({args.workload}/{warmup_size})"
            )
        tracer.reset()
        if isinstance(runner, Serve):
            runner.begin_timed()
        units: list = []
        attempted = failed = 0
        extra: dict = {}
        timed = 0.0
        reps = 0
        for seed in rep_seeds(args.workload, args.seed):
            gc.collect()
            reps += 1
            rep = runner.repetition(
                seed, reps, args.size, corrupt=args.corrupt and reps == 1
            )
            units.extend(rep.units)
            attempted += rep.attempted
            failed += rep.failed
            problems.extend(rep.problems)
            for name, value in rep.extra.items():
                if isinstance(value, list):
                    extra.setdefault(name, []).extend(value)
                else:
                    extra[name] = extra.get(name, 0) + value
            timed += sum(unit[1] for unit in rep.units)
            if timed >= args.seconds or not rep.units:
                break
        if isinstance(runner, Serve):
            runner.end_timed()
            failed += runner.local_check(args.seed, problems)
    finally:
        peak_rss_mb = runner.teardown(problems)
    result = {
        "workload": args.workload,
        "units": units,
        "reps": reps,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "warmup_digest": warmup.digest,
        "peak_rss_mb": peak_rss_mb,
    }
    if isinstance(runner, Serve):
        result["requests"] = runner.requests
        result["service"] = runner.service
    if "paae_pct" in extra:
        result["paae_pct"] = sum(extra["paae_pct"]) / len(extra["paae_pct"])
    if args.trace:
        result["layers"] = _layers(runner, tracer, units, reps, extra, result)
    return result


def _layers(runner, tracer, units, reps, extra, result) -> dict:
    spans = tracer.spans
    layer_extra: dict = {}
    if "paae_pct" in result:
        layer_extra["paae_pct"] = result["paae_pct"]
    if extra.get("store_records"):
        layer_extra["store_bytes_per_cell"] = (
            extra["store_bytes"] / extra["store_records"]
        )
    if isinstance(runner, Serve):
        rows, _, _ = tracing.layer_report(spans)
        decode = sum(
            row["self_s"]
            for name, row in rows.items()
            if name in ("measure.from_dict", "serialize.encode")
        )
        request_s = sum(unit[1] for unit in units)
        cells = sum(unit[2] for unit in units)
        server = tracing.load_spans(runner.spans_path)
        spans = spans + tracing.adopt(spans, server)
        record_bytes, records = runner.store_bytes
        cold = runner.latencies["cold"]
        warm = runner.latencies["warm"]
        cold_tail, cold_pct = tail(cold)
        warm_tail, warm_pct = tail(warm)
        layer_extra.update(
            client_wait_s=request_s - decode,
            request_bytes_per_cell=runner.http_bytes["sent"] / max(1, cells),
            response_bytes_per_cell=(
                runner.http_bytes["received"] / max(1, cells)
            ),
            client_retries=runner.executor.transport_retries,
            cold_p50_ms=median(cold),
            cold_tail_ms=cold_tail,
            warm_p50_ms=median(warm),
            warm_tail_ms=warm_tail,
            first_cell_ms=median(runner.first_cell_ms),
            service=runner.service,
            tails={
                "cold": [cold_pct, len(cold)],
                "warm": [warm_pct, len(warm)],
            },
        )
        if records:
            layer_extra["store_bytes_per_cell"] = record_bytes / records
    tracing.write_spans(spans, os.path.join(runner.tmp, "spans.jsonl"))
    rows, wall, unattributed = tracing.layer_report(spans)
    metrics = layer_metrics(rows, reps, units, layer_extra)
    metrics["trace.unattributed_share"] = unattributed / wall if wall else 0.0
    return {
        "rows": rows,
        "wall": wall,
        "unattributed": unattributed,
        "metrics": metrics,
        "tails": layer_extra.get("tails"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    tempfile.tempdir = args.tmp
    result = run_pass(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repro benchmark: campaign, sweep and serve, end to end and per layer.

    python3 perfbench/run.py --workload campaign|sweep|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root; it needs nothing but the sources under
``src/`` and the Python the tests use.  One run:

1. times the host-speed reference loop (``hostspeed.py``) as a record;
2. measures ``setup_s``: the median start-up of several fresh
   interpreters, from launch to a ready engine (``probe.py``), or for
   ``serve`` to a server answering ``GET /health``;
3. runs the workload in a fresh interpreter (``workloads.py``) for
   ``--seconds`` of timed work and checks its correctness gates;
4. times the reference again, appends the run to
   ``.perfbench/runs.jsonl`` (a traced run also leaves its spans in
   ``.perfbench/spans-<workload>.jsonl``) and prints the metrics, then,
   as the last line, one JSON object ``{"correct", "attempted",
   "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  Their times are wall
seconds rescaled to the nominal host by the reference loop timed right
around each start-up and each unit of work (``hostspeed.py`` says
why); the raw wall means are printed beside them.  ``--trace 1`` runs the
workload twice, half the seconds each: untraced, then with every
layer's public entry points wrapped in span recorders (``tracing.py``;
the server through ``launcher.py``).  It prints the per-layer table and
the tracing overhead, and reports the per-layer metrics.  Every
interpreter the benchmark starts gets ``PYTHONHASHSEED=0``, no
``REPRO_*`` knobs, and a temporary directory under ``.perfbench/``
that is deleted afterwards.  ``--selftest`` runs each workload at smoke
size, checks that every metric ``BENCHMARK.json`` names is printed
with its unit, and that a corrupted measurement fails the gate.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import hostspeed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("campaign", "sweep", "serve")

#: Fresh interpreters started before and again after the workload;
#: the median of all of them is ``setup_s``.  Spreading them over the
#: run keeps one slow phase of the host from moving the median.  One
#: more untimed start first warms the bytecode and page caches.
PROBES = {"full": 3, "smoke": 1}
#: A run must end within 180 s; workers get what is left of this.
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_s": "s",
    "warm_s": "s",
    "cells_per_s": "cells/s",
    "cold_cells_per_s": "cells/s",
    "warm_cells_per_s": "cells/s",
}

PER_LAYER = {
    "startup.import_s": "s",
    "startup.arch_s": "s",
    "startup.machine_s": "s",
    "startup.server_ready_s": "s",
    "core.synthesize_s": "s/rep",
    "core.synthesize_calls": "calls/rep",
    "core.instructions": "instr/rep",
    "core.us_per_instruction": "us/instr",
    "core.to_kernel_s": "s/rep",
    "power_model.suite_s": "s/rep",
    "power_model.fit_bu_s": "s/rep",
    "power_model.fit_td_s": "s/rep",
    "power_model.bu_paae_pct": "%",
    "stressmark.build_s": "s/rep",
    "plan.build_s": "s/rep",
    "plan.cells": "cells/rep",
    "plan.unique_ratio": "ratio",
    "executors.execute_s": "s/rep",
    "executors.failed_cells": "cells/rep",
    "executors.retries": "count/rep",
    "pipeline.summarize_s": "s/rep",
    "pipeline.summarize_calls": "calls/rep",
    "pipeline.summary_hit_ratio": "ratio",
    "machine.run_s": "s/rep",
    "machine.cells": "cells/rep",
    "machine.scalar_cells": "cells/rep",
    "vector.fused_s": "s/rep",
    "vector.fused_cells": "cells/rep",
    "vector.fused_share": "ratio",
    "vector.program_hit_ratio": "ratio",
    "sensors.measure_s": "s/rep",
    "sensors.measure_calls": "calls/rep",
    "sensors.batch_s": "s/rep",
    "sensors.draws_s": "s/rep",
    "sensors.draw_hit_ratio": "ratio",
    "store.get_s": "s/rep",
    "store.get_calls": "calls/rep",
    "store.put_s": "s/rep",
    "store.put_calls": "calls/rep",
    "store.cells_written": "cells/rep",
    "store.misses_per_cold_cell": "ratio",
    "store.bytes_per_cell": "B/cell",
    "journal.s": "s/rep",
    "registry.s": "s/rep",
    "serialize.encode_s": "s/rep",
    "serialize.decode_s": "s/rep",
    "serialize.request_bytes_per_cell": "B/cell",
    "serialize.intern_hit_ratio": "ratio",
    "client.cold_p50_ms": "ms",
    "client.cold_tail_ms": "ms",
    "client.warm_p50_ms": "ms",
    "client.warm_tail_ms": "ms",
    "client.first_cell_ms": "ms",
    "client.wait_s": "s/rep",
    "client.response_bytes_per_cell": "B/cell",
    "client.retries": "count/rep",
    "service.submit_s": "s/rep",
    "service.measured_cells": "cells/rep",
    "service.store_cells": "cells/rep",
    "service.rejected": "count/rep",
    "measure.from_dict_s": "s/rep",
    "measure.to_dict_s": "s/rep",
    "trace.unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


def child_env(tmp: str) -> dict:
    env = {
        name: value
        for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = tmp
    return env


# -- start-up ------------------------------------------------------------------


def probe_once(env: dict, store: str | None) -> tuple[float, dict]:
    command = [sys.executable, os.path.join(HERE, "probe.py")]
    if store is not None:
        command += ["--store", store]
    start = time.perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
    )
    with process:
        line = process.stdout.readline()
        ready = time.perf_counter() - start
        process.stdout.read()
    if process.returncode != 0 or not line:
        raise RuntimeError(f"start-up probe failed ({process.returncode})")
    return ready, json.loads(line)


def _health(url: str, deadline: float) -> None:
    """Poll ``GET /health`` until the server answers 200."""
    host, port = url.rsplit("/", 1)[-1].rsplit(":", 1)
    while time.monotonic() < deadline:
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.request("GET", "/health")
            response = connection.getresponse()
            response.read()
            if response.status == 200:
                return
        except OSError:
            pass
        finally:
            connection.close()
        time.sleep(0.005)
    raise RuntimeError(f"{url} did not answer GET /health")


def stop(process: subprocess.Popen) -> int:
    """SIGTERM (the server drains), then wait; kill if it hangs."""
    process.send_signal(signal.SIGTERM)
    try:
        return process.wait(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        raise RuntimeError("process ignored SIGTERM for 60 s") from None


def server_once(env: dict, tmp: str) -> float:
    store = tempfile.mkdtemp(prefix="probe-store-", dir=tmp)
    command = [
        sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
        "--port", "0", "--store", store,
    ]
    start = time.perf_counter()
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
    )
    try:
        found = re.search(r"http://[\w.:]+", process.stdout.readline())
        if found is None:
            raise RuntimeError("server printed no address")
        _health(found.group(0), time.monotonic() + 60)
        ready = time.perf_counter() - start
    finally:
        code = stop(process)
        process.stdout.close()
    if code != 0:
        raise RuntimeError(f"probe server exited with code {code}")
    return ready


def startups(workload: str, env: dict, tmp: str, count: int, traced):
    """``count`` fresh start-ups: (scaled ready times, probe phase times).

    Each ready time is rescaled by the host reference timed just before
    and just after its start-up.
    """
    ready, phases = [], []
    for _ in range(count):
        reference = hostspeed.reference()
        if workload == "serve":
            seconds = server_once(env, tmp)
        if workload != "serve" or traced:
            store = (
                tempfile.mkdtemp(prefix="probe-", dir=tmp)
                if workload == "campaign"
                else None
            )
            probe_seconds, split = probe_once(env, store)
            phases.append(split)
            if workload != "serve":
                seconds = probe_seconds
        reference = (reference + hostspeed.reference()) / 2
        ready.append(hostspeed.scaled(seconds, reference))
    return ready, phases


def startup_split(workload: str, ready: list, phases: list) -> dict:
    split = {
        f"startup.{phase}_s": statistics.median(
            times[f"{phase}_s"] for times in phases
        )
        for phase in ("import", "arch", "machine")
    }
    split["startup.server_ready_s"] = (
        statistics.median(ready) if workload == "serve" else 0.0
    )
    return split


# -- the workload pass ---------------------------------------------------------


def run_worker(workload, seed, seconds, trace, size, env, tmp, deadline,
               corrupt=False) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace), "--size", size,
        "--tmp", tmp,
    ]
    if corrupt:
        command.append("--corrupt")
    # Own process group: a worker past the deadline is killed with its
    # server.
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        start_new_session=True,
    )
    try:
        output, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RuntimeError(f"{workload} pass ran past the deadline") from None
    lines = output.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} pass failed with code {process.returncode}"
        )
    return json.loads(lines[-1])


def scaled_units(result: dict) -> list[tuple[str, float, int]]:
    """(kind, wall seconds rescaled to the nominal host, cells)."""
    return [
        (kind, hostspeed.scaled(wall, reference), cells)
        for kind, wall, cells, reference in result["units"]
    ]


def end_to_end(result: dict, setup_s: float) -> dict:
    units = scaled_units(result)

    def walls(kind):
        return [wall for unit_kind, wall, _ in units if unit_kind == kind]

    def cells(kind):
        return sum(count for unit_kind, _, count in units if unit_kind == kind)

    total_wall = sum(wall for _, wall, _ in units)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "cold_s": statistics.fmean(walls("cold")),
        "warm_s": statistics.fmean(walls("warm")),
        "cells_per_s": sum(count for _, _, count in units) / total_wall,
        "cold_cells_per_s": cells("cold") / sum(walls("cold")),
        "warm_cells_per_s": cells("warm") / sum(walls("warm")),
    }


def raw_means(result: dict) -> str:
    means = []
    for kind in ("cold", "warm"):
        walls = [unit[1] for unit in result["units"] if unit[0] == kind]
        means.append(f"{kind} {statistics.fmean(walls):.4f} s")
    return ", ".join(means)


def wall_per_rep(result: dict) -> float:
    return sum(wall for _, wall, _ in scaled_units(result)) / result["reps"]


def layer_table(result: dict, overhead: float) -> list[str]:
    layers = result["layers"]
    wall = layers["wall"]
    lines = [
        f"{'layer span':<22} {'self s':>9} {'share':>7} {'calls':>8}  counts"
    ]
    rows = sorted(
        layers["rows"].items(), key=lambda item: -item[1]["self_s"]
    )
    for name, row in rows:
        labels = tracing.COUNT_LABELS.get(name, ())
        counts = ", ".join(
            f"{label} {value:g}" for label, value in zip(labels, row["n"])
        )
        lines.append(
            f"{name:<22} {row['self_s']:9.3f} "
            f"{row['self_s'] / wall:7.1%} {row['calls']:8d}  {counts}"
        )
    lines.append(
        f"{'unattributed':<22} {layers['unattributed']:9.3f} "
        f"{layers['unattributed'] / wall:7.1%}"
    )
    lines.append(
        f"timed wall {wall:.3f} s over {result['reps']} repetitions; named "
        f"spans cover {1 - layers['unattributed'] / wall:.1%}; tracing "
        f"overhead {overhead:+.1%} (traced / untraced wall - 1)"
    )
    return lines


def run(args, size: str = "full", corrupt: bool = False) -> tuple[dict, list]:
    """One benchmark run; the result object and the lines to print."""
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=WORK)
    deadline = time.monotonic() + DEADLINE_S
    try:
        env = child_env(tmp)
        reference_before = hostspeed.reference()
        startups(args.workload, env, tmp, 1, args.trace)
        ready, phases = startups(
            args.workload, env, tmp, PROBES[size], args.trace
        )
        passes = []
        seconds = args.seconds / 2 if args.trace else args.seconds
        for trace in ((0, 1) if args.trace else (0,)):
            passes.append(
                run_worker(
                    args.workload, args.seed, seconds, trace, size, env, tmp,
                    deadline, corrupt,
                )
            )
        if args.trace:
            # The traced pass's spans, client and server, for inspection.
            os.replace(
                os.path.join(tmp, "spans.jsonl"),
                os.path.join(WORK, f"spans-{args.workload}.jsonl"),
            )
        more_ready, more_phases = startups(
            args.workload, env, tmp, PROBES[size], args.trace
        )
        ready += more_ready
        phases += more_phases
        reference_after = hostspeed.reference()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    problems = [problem for done in passes for problem in done["problems"]]
    lines = [
        f"perfbench {args.workload} seed {args.seed}: "
        + "; ".join(
            f"{done['reps']} repetitions, "
            f"{sum(unit[1] for unit in done['units']):.1f} s timed"
            + (" (traced)" if "layers" in done else "")
            for done in passes
        ),
        f"host reference {reference_before * 1000:.2f} ms before, "
        f"{reference_after * 1000:.2f} ms after (nominal "
        f"{hostspeed.NOMINAL_S * 1000:g} ms)",
        "unscaled wall means: " + raw_means(passes[0]),
    ]
    requests = passes[0].get("requests")
    if requests:
        lines.append(
            f"requests: {requests['attempted']} attempted, "
            f"{requests['failed']} failed"
        )
    if "paae_pct" in passes[0]:
        lines.append(f"bottom-up PAAE {passes[0]['paae_pct']:.3f} %")
    if args.trace:
        traced = passes[1]
        overhead = wall_per_rep(traced) / wall_per_rep(passes[0]) - 1
        lines.extend(layer_table(traced, overhead))
        values = dict(
            traced["layers"]["metrics"],
            **startup_split(args.workload, ready, phases),
        )
        values["trace.overhead_ratio"] = overhead
        units = PER_LAYER
    else:
        values = end_to_end(passes[0], statistics.median(ready))
        units = END_TO_END
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    tails = passes[-1].get("layers", {}).get("tails") or {}
    for name, metric in metrics.items():
        line = f"{name:<34} {metric['value']:.6g} {metric['unit']}"
        for kind, (percentile, count) in tails.items():
            if name == f"client.{kind}_tail_ms":
                line += f"  (p{percentile:g} of {count} requests)"
        lines.append(line)
    lines.extend(f"INCORRECT: {problem}" for problem in problems)
    result = {
        "correct": not problems,
        "attempted": sum(done["attempted"] for done in passes),
        "failed": sum(done["failed"] for done in passes),
        "metrics": metrics,
    }
    with open(os.path.join(WORK, "runs.jsonl"), "a") as handle:
        handle.write(json.dumps({
            "at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": size,
            "host_reference_s": [reference_before, reference_after],
            **result,
        }) + "\n")
    return result, lines


# -- self-test -----------------------------------------------------------------


def selftest() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    failures = []
    for workload in declared["workloads"]:
        name = workload["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(
                workload=name, seed=1, seconds=0.5, trace=trace
            )
            result, _ = run(args, size="smoke")
            printed = result["metrics"]
            for metric in declared[group]:
                found = printed.get(metric["name"])
                if found is None or found["unit"] != metric["unit"]:
                    failures.append(
                        f"{name} trace {trace}: {metric['name']} not printed "
                        f"with unit {metric['unit']}"
                    )
                elif not math.isfinite(found["value"]):
                    failures.append(f"{name}: {metric['name']} not finite")
            if set(printed) != {m["name"] for m in declared[group]}:
                failures.append(f"{name} trace {trace}: extra metrics")
            if not result["correct"]:
                failures.append(f"{name} trace {trace}: gate failed")
        args = argparse.Namespace(workload=name, seed=1, seconds=0.5, trace=0)
        result, _ = run(args, size="smoke", corrupt=True)
        if result["correct"]:
            failures.append(f"{name}: a corrupted measurement passed the gate")
        print(f"selftest {name}: done", flush=True)
    for failure in failures:
        print(f"SELFTEST FAILED: {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = run(args)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

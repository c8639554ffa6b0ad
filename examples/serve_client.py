"""Campaign-service walkthrough: resident server, shared store, warm serving.

Starts an in-process campaign service (the same code path as
``python -m repro serve``), then drives it the three ways a client
can:

1. ``ServiceClient`` -- raw streamed JSON lines, cell by cell;
2. ``RemoteExecutor`` -- the executor-shaped adapter (bit-identical
   to local execution, asserted);
3. two concurrent clients submitting *overlapping* plans -- with a
   store, each distinct cell is measured once (a request queued behind
   another is served what that one persisted), and the ``/stats``
   counters prove it.

Underneath all three, the client ships wire-v2 plan bodies (each
distinct workload/config pooled once, referenced by digest), and the
server's intern cache rebuilds each digest only on first sight.

Run:  python examples/serve_client.py   (takes a few seconds)
"""

import tempfile
import threading
import time

from repro.exec import (
    ExperimentPlan,
    MeasurementService,
    RemoteExecutor,
    SerialExecutor,
    ServiceClient,
    build_server,
)
from repro.march import get_architecture
from repro.sim import Machine, MachineConfig
from repro.workloads import spec_cpu2006

arch = get_architecture("POWER7")
suite = spec_cpu2006()
configs = [MachineConfig(1, 1), MachineConfig(2, 2), MachineConfig(4, 2)]

with tempfile.TemporaryDirectory() as store_dir:
    # 1. Bring up the service: resident machine, shared store, one
    #    engine lock -- exactly what `python -m repro serve` runs.
    service = MeasurementService(store=store_dir)
    server = build_server(service)  # port 0 = ephemeral
    threading.Thread(target=server.serve_forever, daemon=True).start()
    url = f"http://127.0.0.1:{server.server_port}"
    client = ServiceClient(url)
    print(f"service up at {url}: {client.health()}")

    # 2. Stream a small plan line by line.
    plan = ExperimentPlan.cross(suite[:3], configs, duration=2.0)
    print(f"\nsubmitting {plan.describe()}")
    for line in client.submit(plan):
        if "measurement" in line:
            m = line["measurement"]
            print(
                f"  cell {line['cell']} [{line['source']:>8s}] "
                f"{m['workload_name']:>12s} on {m['config']['cores']}-"
                f"{m['config']['smt']}: {m['mean_power']:.1f} W"
            )
        elif line.get("complete"):
            print(
                f"  run {line['run']}: {line['measured']} measured, "
                f"{line['warm']} warm"
            )

    # 3. The executor-shaped client: bit-identical to local execution.
    remote = RemoteExecutor(url)
    served = remote.run(plan)
    local = SerialExecutor(Machine(arch)).run(plan)
    assert served == local, "served results must be bit-identical"
    print("\nRemoteExecutor results == one-shot SerialExecutor: OK")

    # 4. Two concurrent clients, overlapping plans: each shared cell is
    #    measured once and served warm from the store to the other.
    big = ExperimentPlan.cross(suite[:4], configs, duration=2.0)
    overlapping = ExperimentPlan.cross(suite[2:6], configs, duration=2.0)
    outputs = {}

    def run_client(name, submitted):
        start = time.perf_counter()
        outputs[name] = RemoteExecutor(url).run(submitted)
        print(
            f"  client {name}: {len(outputs[name])} cells in "
            f"{time.perf_counter() - start:.2f}s"
        )

    threads = [
        threading.Thread(target=run_client, args=("A", big)),
        threading.Thread(target=run_client, args=("B", overlapping)),
    ]
    print("\ntwo concurrent clients, 6 shared cells:")
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    counters = client.stats()["service"]
    distinct = len(suite[:6]) * len(configs)
    print(
        f"service counters: measured={counters['measured_cells']} "
        f"warm={counters['warm_cells']} "
        f"(each of the {distinct} distinct cells measured exactly once)"
    )
    assert counters["measured_cells"] == distinct

    # 5. Warm re-query: everything from the store, nothing measured.
    before = counters["measured_cells"]
    RemoteExecutor(url).run(big)
    after = client.stats()["service"]["measured_cells"]
    print(f"warm re-query measured {after - before} cells (expected 0)")
    assert after == before

    server.shutdown()
    server.server_close()
    service.close()

"""One fresh-interpreter start-up, from import to a ready engine.

    python3 perfbench/probe.py [--store DIR]

Imports what ``python -m repro`` imports, parses the POWER7 definition,
builds a ``Machine`` and a ``SerialExecutor`` (store-backed with
``--store``), then prints one JSON line with the phase times.  The
caller times the whole start-up from outside, up to that line.
"""

import time

started = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    import repro.__main__  # noqa: F401  (the CLI's import graph)
    from repro.exec.executors import SerialExecutor
    from repro.exec.store import ResultStore
    from repro.march import get_architecture
    from repro.sim import Machine

    imported = time.perf_counter()
    arch = get_architecture("POWER7")
    parsed = time.perf_counter()
    machine = Machine(arch)
    built = time.perf_counter()
    store = sys.argv[2] if sys.argv[1:2] == ["--store"] else None
    SerialExecutor(machine, store=ResultStore(store) if store else None)
    print(
        json.dumps({
            "import_s": imported - started,
            "arch_s": parsed - imported,
            "machine_s": built - parsed,
        }),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

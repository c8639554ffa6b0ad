"""Shared fixtures and golden-file plumbing for the whole test suite.

The POWER7 architecture, a machine on it, and the uniform-kernel
builder used to be re-declared in almost every test module; they live
here once, session-scoped (the machine's measurements are
deterministic given its seed, so sharing one instance across modules
only shares its summary/activity caches).

Golden regression files live under ``tests/golden/``.  Run

    pytest --update-goldens

to rewrite them after a *deliberate* retune (e.g. of the hidden
ground-truth energy tables); the resulting JSON diff is the reviewable
record of what moved.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

from repro.exec import MeasurementService, ResultStore, build_server
from repro.march import get_architecture
from repro.sim import Kernel, KernelInstruction, Machine

GOLDEN_DIR = Path(__file__).parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json from current behaviour "
        "instead of asserting against it",
    )


@pytest.fixture(scope="session")
def power7_arch():
    """The bundled POWER7 micro-architecture definition."""
    return get_architecture("POWER7")


@pytest.fixture
def open_store():
    """``open_store(root)`` opens a :class:`ResultStore` that closes
    (releasing its shard read handles) when the test ends."""
    stores = []

    def open_(root):
        stores.append(ResultStore(root))
        return stores[-1]

    yield open_
    for store in stores:
        store.close()


@pytest.fixture
def service_url():
    """A store-less campaign service on an ephemeral localhost port."""
    service = MeasurementService()
    server = build_server(service)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    service.close()


@pytest.fixture(scope="session")
def machine(power7_arch):
    """One shared machine; deterministic, so safe across modules."""
    return Machine(power7_arch)


@pytest.fixture(scope="session")
def bootstrap_records(power7_arch, machine):
    """Bootstrap EPI/latency records at the integration-test scale."""
    from repro.march.bootstrap import Bootstrapper

    return Bootstrapper(power7_arch, machine, loop_size=256).run()


def make_uniform_kernel(
    mnemonic: str,
    count: int = 64,
    dep: int | None = None,
    level: str | None = None,
    entropy: float = 1.0,
) -> Kernel:
    """A single-mnemonic loop body, the workhorse of the unit tests."""
    return Kernel(
        name=f"test-{mnemonic}-{dep}-{level}-{count}",
        instructions=tuple(
            KernelInstruction(
                mnemonic,
                dep_distance=dep,
                source_level=level,
                address=0x1000 + 128 * index if level else None,
            )
            for index in range(count)
        ),
        operand_entropy=entropy,
    )


@pytest.fixture(scope="session")
def small_kernel_factory():
    """The uniform-kernel builder, as a fixture for test signatures."""
    return make_uniform_kernel


@pytest.fixture
def golden(request):
    """Compare-or-update accessor for one golden JSON file.

    Usage::

        def test_something(golden):
            golden("my_file.json", payload)

    Asserts ``payload`` equals the checked-in JSON, or rewrites the
    file when the suite runs with ``--update-goldens``.
    """
    update = request.config.getoption("--update-goldens")

    def check(filename: str, payload) -> None:
        path = GOLDEN_DIR / filename
        # Round-trip through JSON so tuples/ints compare canonically.
        payload = json.loads(json.dumps(payload, sort_keys=True))
        if update:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            return
        if not path.exists():
            pytest.fail(
                f"golden file {path} missing; generate it with "
                "pytest --update-goldens"
            )
        expected = json.loads(path.read_text())
        assert payload == expected, (
            f"behaviour diverged from {path.name}; if the change is "
            "deliberate, rerun with --update-goldens and commit the diff"
        )

    return check

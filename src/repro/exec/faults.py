"""Deterministic fault injection for the execution engine.

Long unattended campaigns treat partial failure as the normal case:
measurement passes fail, store I/O hiccups, records tear, processes die
mid-write.  Every recovery path in :mod:`repro.exec` is therefore
exercised by *injected* faults rather than hoped-for ones -- and the
injection is deterministic, so a failing chaos run reproduces from its
seed alone.

A :class:`FaultPlan` holds per-site fault specs.  Whether a fault fires
at a given site for a given key is a pure function of ``(seed, site,
key)`` through the shared content hash -- never of wall clock, process
id or call order -- so the same plan poisons the same cell in every
run, in every process.  A ``times`` cap per site bounds how many
*attempts* of one key the fault hits, which is how transient faults
(fail once, succeed on retry) are modeled.

Sites:

``slow``     each shard append of measured cells sleeps ``slow_s``
             seconds first -- for pacing kill/resume tests; results
             are unaffected.
``io``       store reads/appends raise a transient ``OSError``.
``corrupt``  a persisted record's payload is tampered *after* its
             checksum is computed, so reads must detect it.
``torn``     a store append writes half its payload and hard-exits --
             a ``kill -9`` mid-write, leaving a torn shard tail.
``poison``   measuring a matching cell raises
             :class:`FaultInjectedError`, so its pass degrades to
             cell-by-cell execution; a cell that fails on every
             attempt ends up quarantined.
``reject``   the campaign service answers a plan submission with
             ``429 Too Many Requests`` (+ ``Retry-After``) before any
             work happens -- an admission-control rejection, for
             exercising client retry/backoff deterministically.
``stall``    the campaign service sleeps ``stall_s`` seconds mid-plan
             (after the stream header, before any cell) -- a slow
             server, for exercising client stream reads; results are
             unaffected.

Activation: :func:`active` returns the installed plan (tests inject one
with :func:`injected`) or, failing that, parses the ``REPRO_FAULTS``
environment variable -- which child processes (a ``repro serve``
server, a killed-and-resumed campaign) inherit, so one knob arms every
process of a test.  The spec is comma-separated tokens::

    REPRO_FAULTS="seed:42,poison:0.05:1,io:0.1,slow:1.0"

``site:probability[:times]`` arms a site (``times`` defaults to 1 for
io/corrupt/torn/reject/stall -- transient -- and unbounded for
slow/poison); ``seed:N`` seeds the draws; ``slow_s:X``/``stall_s:X``
set the sleep durations.  No variable, no installed plan: zero
overhead -- every hook starts with an ``active() is None`` check.
"""

from __future__ import annotations

import contextlib
import logging
import os
import time
from dataclasses import dataclass, field

from repro.errors import FaultInjectedError, MeasurementError
from repro.hashing import content_hash

logger = logging.getLogger("repro.exec.faults")

#: Sites that default to firing once per key (transient faults); the
#: rest (slow, poison) default to firing on every attempt.
_TRANSIENT_SITES = frozenset({"io", "corrupt", "torn", "reject", "stall"})
SITES = frozenset(
    {
        "io",
        "corrupt",
        "torn",
        "slow",
        "poison",
        "reject",
        "stall",
    }
)

_UNBOUNDED = 1 << 30


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault site: fire with ``probability`` per key, at most
    ``times`` attempts of that key."""

    site: str
    probability: float
    times: int

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise MeasurementError(
                f"unknown fault site {self.site!r}; known: {sorted(SITES)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise MeasurementError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.times < 1:
            raise MeasurementError("fault times cap must be >= 1")


def _unit_draw(seed: int, site: str, key: str) -> float:
    """Deterministic draw in [0, 1) for one (seed, site, key)."""
    return content_hash(f"fault-v1|{seed}|{site}|{key}") / float(1 << 64)


@dataclass
class FaultPlan:
    """A seeded set of fault specs, deterministic per (site, key, attempt).

    The plan is cheap state; the decision function :meth:`fire` is pure
    given an explicit attempt number, so processes sharing a spec agree
    on every decision.  Without an attempt number, the plan counts
    calls per (site, key) locally -- each process sees its *own*
    attempt sequence, which is exactly the transient-fault semantics
    retries need.
    """

    seed: int = 0
    specs: dict[str, FaultSpec] = field(default_factory=dict)
    slow_s: float = 0.05
    stall_s: float = 0.5
    _attempts: dict[tuple[str, str], int] = field(
        default_factory=dict, repr=False
    )

    def arm(
        self, site: str, probability: float = 1.0, times: int | None = None
    ) -> "FaultPlan":
        """Arm one site; returns the plan for chaining."""
        if times is None:
            times = 1 if site in _TRANSIENT_SITES else _UNBOUNDED
        self.specs[site] = FaultSpec(site, probability, times)
        return self

    def wants(self, site: str) -> bool:
        return site in self.specs

    def fire(self, site: str, key: str, attempt: int | None = None) -> bool:
        """Whether the fault fires at ``site`` for ``key`` on ``attempt``."""
        spec = self.specs.get(site)
        if spec is None:
            return False
        if attempt is None:
            slot = (site, key)
            attempt = self._attempts.get(slot, 0)
            self._attempts[slot] = attempt + 1
        if attempt >= spec.times:
            return False
        fired = _unit_draw(self.seed, site, key) < spec.probability
        if fired:
            logger.warning(
                "injected fault %s on %s (attempt %d)", site, key, attempt
            )
        return fired

    # -- fault actions ---------------------------------------------------------

    def maybe_slow(self, key: str) -> None:
        if self.fire("slow", key):
            time.sleep(self.slow_s)

    def maybe_io_error(self, key: str) -> None:
        if self.fire("io", key):
            raise OSError(f"injected transient I/O fault on {key}")

    def maybe_reject(self, key: str) -> bool:
        """Whether the service should 429 this submission (service-side)."""
        return self.fire("reject", key)

    def maybe_stall(self, key: str) -> None:
        if self.fire("stall", key):
            time.sleep(self.stall_s)

    def maybe_poison(self, key: str) -> None:
        if self.fire("poison", key):
            raise FaultInjectedError(f"injected poison fault on cell {key}")

    # -- spec round trip -------------------------------------------------------

    def render(self) -> str:
        """The ``REPRO_FAULTS`` spec string reproducing this plan."""
        tokens = [f"seed:{self.seed}"]
        for spec in self.specs.values():
            default_times = 1 if spec.site in _TRANSIENT_SITES else _UNBOUNDED
            token = f"{spec.site}:{spec.probability:g}"
            if spec.times != default_times:
                token += f":{spec.times}"
            tokens.append(token)
        if self.specs.get("slow") and self.slow_s != 0.05:
            tokens.append(f"slow_s:{self.slow_s:g}")
        if self.specs.get("stall") and self.stall_s != 0.5:
            tokens.append(f"stall_s:{self.stall_s:g}")
        return ",".join(tokens)


def parse_faults(spec: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec string into a :class:`FaultPlan`."""
    plan = FaultPlan()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        name = parts[0].strip()
        try:
            if name == "seed":
                plan.seed = int(parts[1])
            elif name == "slow_s":
                plan.slow_s = float(parts[1])
            elif name == "stall_s":
                plan.stall_s = float(parts[1])
            elif name in SITES:
                probability = float(parts[1]) if len(parts) > 1 else 1.0
                times = int(parts[2]) if len(parts) > 2 else None
                plan.arm(name, probability, times)
            else:
                raise MeasurementError(
                    f"unknown fault token {name!r} in REPRO_FAULTS"
                )
        except (IndexError, ValueError) as exc:
            raise MeasurementError(
                f"malformed fault token {token!r} in REPRO_FAULTS: {exc}"
            ) from None
    return plan


# -- activation ----------------------------------------------------------------

_INSTALLED: FaultPlan | None = None
#: (env value, parsed plan) memo so the per-call hook cost is one dict
#: lookup and a string compare.
_ENV_CACHE: tuple[str, FaultPlan] | None = None


def install(plan: FaultPlan | None) -> None:
    """Install (or with ``None`` clear) the process-local fault plan.

    An installed plan wins over ``REPRO_FAULTS`` but does *not*
    propagate to child processes -- use the environment variable (or
    the :func:`injected` fixture-style context manager, which sets
    both) when a child's sites must fire.
    """
    global _INSTALLED
    _INSTALLED = plan


def active() -> FaultPlan | None:
    """The fault plan in effect, or ``None`` (the overwhelmingly common
    case -- a single dict lookup and string compare)."""
    global _ENV_CACHE
    if _INSTALLED is not None:
        return _INSTALLED
    spec = os.environ.get("REPRO_FAULTS")
    if not spec:
        return None
    if _ENV_CACHE is None or _ENV_CACHE[0] != spec:
        _ENV_CACHE = (spec, parse_faults(spec))
    return _ENV_CACHE[1]


@contextlib.contextmanager
def injected(plan: FaultPlan):
    """Context manager arming ``plan`` in-process *and* in the
    environment, so freshly spawned child processes inherit it.

    The test-suite idiom::

        with faults.injected(FaultPlan(seed=7).arm("poison", times=1)):
            report = executor.execute(plan)
    """
    previous_env = os.environ.get("REPRO_FAULTS")
    install(plan)
    os.environ["REPRO_FAULTS"] = plan.render()
    try:
        yield plan
    finally:
        install(None)
        if previous_env is None:
            os.environ.pop("REPRO_FAULTS", None)
        else:
            os.environ["REPRO_FAULTS"] = previous_env


# -- site keys -----------------------------------------------------------------


def cell_key(cell) -> str:
    """Stable fault key of one plan cell (content identity, not order)."""
    return f"cell:{content_hash(str(cell.identity())):016x}"


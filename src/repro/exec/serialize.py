"""JSON wire form for experiment plans: pooled workloads and configs.

The campaign service (:mod:`repro.exec.service`) accepts
:class:`~repro.exec.plan.ExperimentPlan`s over HTTP, so every plan
ingredient needs a JSON round trip that preserves *content identity*
exactly: a cell rebuilt from its wire form must produce the same
workload fingerprint, the same store key, the same noise salt and
therefore the same measurement bytes as the original.  Kernels and
placements already round-trip through their own ``to_dict``/``from_dict``
(digest-exact by design); this module adds the workload/config
discriminators, the profiled-workload form and the one plan body
(:func:`plan_to_dict_v2`: each distinct ingredient pooled once, cells
referencing it by digest) on top.

Profiled workloads (the SPEC CPU2006 proxies) serialize their full
:class:`~repro.workloads.profiles.ActivityProfile`.  Their plan
fingerprint hashes ``repr(profile)``, which embeds dict iteration
order -- so the wire form preserves insertion order (JSON objects keep
key order through ``json`` both ways) and restores the integer keys of
``smt_scaling`` that JSON stringifies.  A round-tripped profile is
``repr``-identical to the original, so fingerprints, dedup slots and
store keys all agree between client and server.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import fields

from repro.caching import LRUCache
from repro.errors import MeasurementError
from repro.exec.plan import ExperimentPlan, PlanCell, workload_fingerprint
from repro.hashing import content_hex
from repro.sim.config import MachineConfig
from repro.sim.kernel import Kernel
from repro.sim.placement import Placement
from repro.sim.topology import ChipTopology
from repro.workloads.profiles import ActivityProfile, ProfiledWorkload


# -- activity profiles ---------------------------------------------------------


def profile_to_dict(profile: ActivityProfile) -> dict:
    """JSON-able form of one activity profile, field order preserved."""
    data = {}
    for spec in fields(profile):
        value = getattr(profile, spec.name)
        if spec.name == "smt_scaling":
            # JSON object keys are strings; stringify here, restore in
            # :func:`profile_from_dict`.  Insertion order is preserved.
            value = {str(way): scale for way, scale in value.items()}
        elif isinstance(value, dict):
            value = dict(value)
        data[spec.name] = value
    return data


def profile_from_dict(data: dict) -> ActivityProfile:
    """Rebuild a profile serialized by :func:`profile_to_dict`."""
    kwargs = dict(data)
    scaling = data["smt_scaling"]
    if isinstance(scaling, dict):  # anything else the profile rejects
        kwargs["smt_scaling"] = {
            int(way): scale for way, scale in scaling.items()
        }
    return ActivityProfile(**kwargs)


# -- workloads -----------------------------------------------------------------


def workload_to_dict(workload: object) -> dict:
    """Wire form of one plan workload, tagged by kind.

    Kernels and kernel placements carry their full content; profiled
    workloads carry their activity profile.  Anything else (an opaque
    protocol workload) cannot cross a process boundary faithfully and
    raises :class:`~repro.errors.MeasurementError`.
    """
    if isinstance(workload, Kernel):
        return {"kind": "kernel", "kernel": workload.to_dict()}
    if isinstance(workload, Placement):
        return {"kind": "placement", "placement": workload.to_dict()}
    if isinstance(workload, ProfiledWorkload):
        return {"kind": "profile", "profile": profile_to_dict(workload.profile)}
    raise MeasurementError(
        f"workload {getattr(workload, 'name', workload)!r} of type "
        f"{type(workload).__name__} has no JSON wire form; only kernels, "
        "kernel placements and profiled workloads can be submitted to a "
        "campaign service"
    )


def workload_from_dict(data: dict) -> object:
    """Rebuild a workload serialized by :func:`workload_to_dict`."""
    kind = data.get("kind")
    if kind == "kernel":
        return Kernel.from_dict(data["kernel"])
    if kind == "placement":
        return Placement.from_dict(data["placement"])
    if kind == "profile":
        return ProfiledWorkload(profile_from_dict(data["profile"]))
    raise MeasurementError(f"unknown workload kind {kind!r} in plan request")


# -- configurations ------------------------------------------------------------


def config_to_dict(config: MachineConfig | ChipTopology) -> dict:
    """Wire form of a configuration; topologies marked by ``clusters``."""
    return config.to_dict()


def config_from_dict(data: dict) -> MachineConfig | ChipTopology:
    """Rebuild a configuration, dispatching on shape like
    :meth:`~repro.measure.measurement.Measurement.from_dict` does."""
    if "clusters" in data:
        return ChipTopology.from_dict(data)
    return MachineConfig.from_dict(data)


# -- plans: digest-interned pools ---------------------------------------------
#
# A plan body ships each distinct ingredient once in a digest-keyed
# pool and cells reference pool entries by digest, so a 24-config sweep
# over one stressmark ships (and rebuilds) the kernel once:
#
#     {"wire": "plan-v2",
#      "pool": {"workloads": [[digest, entry], ...],
#               "configs":   [[digest, entry], ...]},
#      "cells": [{"workload": digest, "config": digest, "duration": s}, ...]}
#
# The digest is the content hash of the entry's *compact, order
# preserving* JSON encoding (``wire_digest``).  Order preservation
# matters: profiled-workload fingerprints hash ``repr(profile)``, which
# embeds dict insertion order, so two profiles that differ only in key
# order are different content and must not alias to one pool entry --
# ``sort_keys`` would merge them.  Pools are [digest, entry] pairs, not
# JSON objects, because object parsing silently collapses duplicate
# keys and a duplicated digest must be *rejected*, not absorbed.
#
# A server-side :class:`WireInternCache` keys rebuilt objects on these
# digests across requests: the first intern of a claimed digest is
# verified (the entry is re-hashed) and the rebuilt object's own content
# digest/fingerprint is pinned, so repeat campaigns rebuild zero kernels
# and skip every fingerprint recompute.  Rebuilt objects are frozen
# (kernels, placements, configs) or never mutated (profiled workloads),
# so sharing them across handler threads is safe.

PLAN_WIRE_V2 = "plan-v2"
DEFAULT_INTERN_CAPACITY = 4096


def wire_digest(entry: dict) -> str:
    """Content digest of one pool entry's canonical (compact) encoding."""
    return content_hex(
        "wire-v2|" + json.dumps(entry, separators=(",", ":"))
    )


def _pin_workload(workload: object) -> None:
    """Precompute the rebuilt workload's content identity once.

    Kernel digests and placement/profile fingerprints are pure content;
    computing them at intern time means every later request served from
    the cache skips the recursive fingerprint walk entirely.
    """
    workload_fingerprint(workload)


class WireInternCache:
    """Bounded cross-request intern cache: wire digest -> rebuilt object.

    Thread-safe.  Digests are client claims, so the first intern of
    each one re-hashes its entry and rejects a mismatch.  Hits return
    the already-built object -- same instance, same pinned digest -- so
    overlapping campaigns share one kernel graph.
    """

    def __init__(self, capacity: int = DEFAULT_INTERN_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._workloads: LRUCache[str, object] = LRUCache(
            capacity, "wire.workloads"
        )
        self._configs: LRUCache[str, object] = LRUCache(capacity, "wire.configs")
        self.verified = 0
        self.rejected = 0

    def _intern(self, cache, digest, entry, builder, pin):
        with self._lock:
            found = cache.get(digest)
            if found is not None:
                return found
            if entry is None:
                raise MeasurementError(
                    f"references pool digest {digest!r} which the pool does "
                    "not define"
                )
            actual = wire_digest(entry)
            if actual != digest:
                self.rejected += 1
                raise MeasurementError(
                    f"pool entry claims digest {digest!r} but its content "
                    f"hashes to {actual!r}"
                )
            self.verified += 1
            built = builder(entry)
            pin(built)
            cache.put(digest, built)
            return built

    def workload(self, digest: str, entry: dict | None = None) -> object:
        """The interned workload for ``digest``, building from ``entry``."""
        return self._intern(
            self._workloads, digest, entry, workload_from_dict, _pin_workload
        )

    def config(self, digest: str, entry: dict | None = None) -> object:
        """The interned configuration for ``digest``."""
        return self._intern(
            self._configs, digest, entry, config_from_dict, lambda built: None
        )

    def clear(self) -> None:
        """Drop every interned object (counters are preserved)."""
        with self._lock:
            self._workloads.clear()
            self._configs.clear()

    def stats(self) -> dict:
        """Hit/miss/eviction and verification counters for diagnostics."""
        with self._lock:
            return {
                "workloads": self._workloads.stats(),
                "configs": self._configs.stats(),
                "verified": self.verified,
                "rejected": self.rejected,
            }


def plan_to_dict_v2(plan: ExperimentPlan) -> dict:
    """Wire form of a plan: pooled ingredients, digest refs.

    Only the plan's *unique* cells travel, in construction order:
    duplicate requested cells are a client-side concern (the client
    keeps its plan and fans unique results back out with
    :meth:`~repro.exec.plan.ExperimentPlan.expand`).  Each distinct
    workload/config serializes once; repeated objects
    (the common case -- ``ExperimentPlan.cross`` shares instances) are
    recognized by identity before falling back to content digest, so a
    stressmark x 24-config sweep hashes the kernel once, not 24 times.
    """
    workload_pool: list[list] = []
    config_pool: list[list] = []
    workload_by_id: dict[int, str] = {}
    config_by_id: dict[int, str] = {}
    workload_digests: set[str] = set()
    config_digests: set[str] = set()
    cells = []
    for cell in plan.cells:
        wdigest = workload_by_id.get(id(cell.workload))
        if wdigest is None:
            entry = workload_to_dict(cell.workload)
            wdigest = wire_digest(entry)
            if wdigest not in workload_digests:
                workload_digests.add(wdigest)
                workload_pool.append([wdigest, entry])
            workload_by_id[id(cell.workload)] = wdigest
        cdigest = config_by_id.get(id(cell.config))
        if cdigest is None:
            entry = config_to_dict(cell.config)
            cdigest = wire_digest(entry)
            if cdigest not in config_digests:
                config_digests.add(cdigest)
                config_pool.append([cdigest, entry])
            config_by_id[id(cell.config)] = cdigest
        cells.append(
            {"workload": wdigest, "config": cdigest, "duration": cell.duration}
        )
    return {
        "wire": PLAN_WIRE_V2,
        "pool": {"workloads": workload_pool, "configs": config_pool},
        "cells": cells,
    }


def _pool_entries(raw: object, label: str, cells: list, field: str) -> dict:
    """Validate one pool section into a digest -> entry mapping.

    Duplicate digests are rejected (they signal a malformed or
    tampered encoder) and the error names the first cell that
    references the offending digest so the client can locate it.
    """
    if raw is None:
        return {}
    if not isinstance(raw, list):
        raise MeasurementError(
            f"plan-v2 pool {label!r} must be a list of [digest, entry] pairs"
        )
    entries: dict[str, dict] = {}
    for item in raw:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not isinstance(item[0], str)
            or not isinstance(item[1], dict)
        ):
            raise MeasurementError(
                f"plan-v2 pool {label!r} entry {item!r} is not a "
                "[digest, entry] pair"
            )
        digest, entry = item
        if digest in entries:
            index = next(
                (
                    i
                    for i, cell in enumerate(cells)
                    if isinstance(cell, dict) and cell.get(field) == digest
                ),
                None,
            )
            where = (
                f" (first referenced by cell {index})" if index is not None else ""
            )
            raise MeasurementError(
                f"plan-v2 pool {label!r} defines digest {digest!r} "
                f"twice{where}"
            )
        entries[digest] = entry
    return entries


def plan_from_dict(
    data: dict, intern: WireInternCache | None = None
) -> ExperimentPlan:
    """Rebuild a plan serialized by :func:`plan_to_dict_v2`.

    A body without the ``"wire": "plan-v2"`` marker (such as the
    inline-cell v1 body older clients sent) is rejected.  ``intern``
    (optional) is a cross-request :class:`WireInternCache`; with one
    attached, each distinct ingredient rebuilds at most once per cache
    lifetime.
    """
    if data.get("wire") != PLAN_WIRE_V2:
        raise MeasurementError(
            f"plan request is not a {PLAN_WIRE_V2!r} body (wire marker "
            f"{data.get('wire')!r}); inline-cell v1 bodies are not accepted"
        )
    pool = data.get("pool")
    if not isinstance(pool, dict):
        raise MeasurementError("plan-v2 request carries no 'pool' object")
    cell_forms = data.get("cells")
    if not isinstance(cell_forms, list):
        raise MeasurementError("plan request carries no 'cells' list")
    workloads = _pool_entries(
        pool.get("workloads"), "workloads", cell_forms, "workload"
    )
    configs = _pool_entries(pool.get("configs"), "configs", cell_forms, "config")
    if intern is None:
        # One-shot private intern: a standalone decode still deduplicates
        # rebuild work within the request.
        intern = WireInternCache(
            capacity=max(1, len(workloads) + len(configs))
        )
    cells = []
    for index, form in enumerate(cell_forms):
        try:
            workload = intern.workload(
                form["workload"], workloads.get(form["workload"])
            )
            config = intern.config(form["config"], configs.get(form["config"]))
            duration = float(form["duration"])
            if not (math.isfinite(duration) and duration > 0):
                raise ValueError(
                    f"duration {form['duration']!r} is not a finite "
                    "positive number of seconds"
                )
        except MeasurementError as exc:
            raise MeasurementError(f"plan-v2 cell {index}: {exc}") from None
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MeasurementError(
                f"plan-v2 cell {index}: malformed cell ({exc})"
            ) from None
        cells.append(
            PlanCell(workload=workload, config=config, duration=duration)
        )
    return ExperimentPlan(cells)

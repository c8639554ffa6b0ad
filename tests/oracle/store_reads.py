"""The per-key store reads the batch read path replaced.

:func:`get`, :func:`get_body` and :func:`get_kernel` read one key at a
time, as :class:`repro.exec.store.ResultStore` did before every read
went through its batch path: look the key up in its shard's offset
index (re-scanning the shard on every miss), draw the key's ``get``
fault, seek and read the record through the shard's buffered handle,
check it (:func:`~repro.exec.store._sliced_body`, else a parse and the
canonical checksum recompute) and decode the body with one
``json.loads`` of its own.  Each takes the store it reads and moves the
same counters, fault statistics and quarantine log as the store's own
methods.  ``tests/exec/test_batch_reads.py`` reads two copies of one
store both ways and compares them bit for bit.
"""

from __future__ import annotations

import json

from repro.exec import faults
from repro.exec.store import (
    CELLS,
    KERNELS,
    ResultStore,
    _checksum_matches,
    _sliced_body,
    kernel_from_body,
    logger,
)
from repro.measure.measurement import Measurement

#: A read's default ``fault_plan``: look the plan in effect up.
_RESOLVE = object()


def _read(store: ResultStore, key: str, kind, fault_plan=_RESOLVE):
    """The verified canonical body text of ``key``, or ``None``.

    Unreadable, corrupt (checksum-mismatched) or format-mismatched
    records are quarantined: counted in ``fault_stats``, logged and read
    as ``None``.  A record in a retired format is a plain miss.
    """
    shard = store._shard(key, kind)
    location = shard.offsets.get(key)
    if location is None:
        # Another process may have appended since the last scan.
        store._refresh(shard)
        location = shard.offsets.get(key)
    if location is None:
        return None
    try:
        if fault_plan is _RESOLVE:
            fault_plan = faults.active()
        if fault_plan is not None:
            fault_plan.maybe_io_error(f"get:{key}")
        handle = shard.reader()
        handle.seek(location[0])
        raw = handle.read(location[1])
    except OSError as exc:
        store._count_io_error(shard.path, exc)
        return None
    try:
        text = _sliced_body(kind, key, raw)
        if text is not None:
            return text
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("store record is not a JSON object")
        layout = payload.get("format")
        if layout != kind.format and layout not in kind.retired:
            raise ValueError(f"unknown store format {layout!r}")
        if payload.get("key") != key:
            raise ValueError(
                f"stale shard index: found {payload.get('key')!r}"
            )
        if layout != kind.format:
            return None
        body = payload[kind.field]
        if not _checksum_matches(kind, key, payload.get("sum"), raw, body):
            store.checksum_failures += 1
            logger.warning(
                "quarantining corrupt store record %s[%s]: "
                "checksum missing or mismatched (served as a miss; "
                "run `python -m repro store scrub` to repair the "
                "shard)",
                shard.path,
                key,
            )
            return None
        return json.dumps(body, sort_keys=True).encode()
    except (ValueError, KeyError, TypeError) as exc:
        store._discard(shard, key, exc)
        return None


def _decoded(store: ResultStore, key: str, kind, decode, fault_plan=_RESOLVE):
    """:func:`_read`, decoded; a body that does not decode is
    quarantined as a corrupt record and read as ``None``."""
    text = _read(store, key, kind, fault_plan)
    if text is None:
        return None
    try:
        return decode(json.loads(text))
    except (ValueError, KeyError, TypeError) as exc:
        store._discard(store._shard(key, kind), key, exc)
        return None


def get_body(store: ResultStore, key: str, fault_plan=_RESOLVE):
    """``key``'s verified cell body text, or ``None``; moves
    ``hits``/``misses``."""
    with store._lock:
        text = _read(store, key, CELLS, fault_plan)
        if text is None:
            store.misses += 1
        else:
            store.hits += 1
        return text


def get(store: ResultStore, key: str, fault_plan=_RESOLVE):
    """``key``'s stored measurement, or ``None``; moves
    ``hits``/``misses``."""
    with store._lock:
        measurement = _decoded(
            store, key, CELLS, Measurement.from_dict, fault_plan
        )
        if measurement is None:
            store.misses += 1
        else:
            store.hits += 1
        return measurement


def get_kernel(store: ResultStore, key: str):
    """The kernel stored under recipe ``key``, or ``None``; moves
    ``kernel_hits``/``kernel_misses``."""
    with store._lock:
        kernel = _decoded(store, key, KERNELS, kernel_from_body)
        if kernel is None:
            store.kernel_misses += 1
        else:
            store.kernel_hits += 1
        return kernel

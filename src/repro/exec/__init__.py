"""Experiment execution engine: plans, executors, persistent results.

The automation layer behind every measurement campaign::

    plan      what to measure  -- a deduplicated cross product of
              workloads/placements x configurations x p-states x window
    executor  how to measure   -- in-process, or on a campaign
              service (bit-identical either way)
    store     where results go -- checksummed JSON-line shard files
              keyed by content-addressed cell keys, so warm re-runs
              never touch ``Machine.run``; next to them, one run
              ledger records every store-backed run

All measurement consumers (the runner, the section-4 modeling
campaign, the stressmark search, the figure benchmarks and the
``python -m repro`` CLI) route through this engine.
The campaign service (``python -m repro serve`` /
:mod:`repro.exec.service`) keeps the whole engine resident behind an
HTTP/JSON API; :class:`~repro.exec.client.RemoteExecutor` is the
executor-shaped client for it, and plans travel in one wire format
(:func:`~repro.exec.serialize.plan_to_dict_v2`).
"""

from repro.exec.client import RemoteExecutor, ServiceClient
from repro.exec.executors import SerialExecutor, default_executor
from repro.exec.faults import FaultPlan, parse_faults
from repro.exec.journal import RunJournal, gc_journals, run_id
from repro.exec.registry import RunRegistry
from repro.exec.plan import (
    ExperimentPlan,
    PlanCell,
    sweep_configs,
    workload_fingerprint,
)
from repro.exec.report import CellFailure, ExecutionReport
from repro.exec.serialize import (
    WireInternCache,
    plan_from_dict,
    plan_to_dict_v2,
    wire_digest,
)
from repro.exec.service import MeasurementService, build_server
from repro.exec.store import ResultStore, StoreReport

__all__ = [
    "CellFailure",
    "ExecutionReport",
    "ExperimentPlan",
    "FaultPlan",
    "MeasurementService",
    "PlanCell",
    "RemoteExecutor",
    "ResultStore",
    "RunJournal",
    "RunRegistry",
    "SerialExecutor",
    "ServiceClient",
    "StoreReport",
    "WireInternCache",
    "build_server",
    "default_executor",
    "gc_journals",
    "parse_faults",
    "plan_from_dict",
    "plan_to_dict_v2",
    "run_id",
    "sweep_configs",
    "wire_digest",
    "workload_fingerprint",
]

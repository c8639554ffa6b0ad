"""Measurement records: what modeling code is allowed to see.

A :class:`Measurement` carries performance-counter readings per
hardware thread plus reduced power-sensor statistics for one
measurement window.  It is the *only* interface between the machine
substrate and the power-modeling code, preserving the post-silicon
blindness of the paper's methodology.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass

from repro.sim.config import MachineConfig
from repro.sim.topology import ChipTopology

#: Default measurement window, matching the paper's 10-second runs.
DEFAULT_DURATION_S = 10.0


@dataclass(frozen=True)
class Measurement:
    """One measurement window of one workload on one configuration.

    Attributes:
        workload_name: Identifier of the workload that ran.
        config: The CMP-SMT configuration used.
        duration: Window length in seconds.
        thread_counters: Per-hardware-thread counter readings
            (counts over the window, not rates).
        mean_power: Sensor-reported mean chip power over the window, W.
        power_std: Per-sample sensor noise, W.
        sample_count: Number of 1 ms sensor samples in the window.
    """

    workload_name: str
    config: MachineConfig | ChipTopology
    duration: float
    thread_counters: tuple[Mapping[str, float], ...]
    mean_power: float
    power_std: float
    sample_count: int
    thread_workloads: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if len(self.thread_counters) != self.config.threads:
            raise ValueError(
                f"expected {self.config.threads} per-thread counter sets, "
                f"got {len(self.thread_counters)}"
            )
        if (
            self.thread_workloads is not None
            and len(self.thread_workloads) != self.config.threads
        ):
            raise ValueError(
                f"expected {self.config.threads} per-thread workload "
                f"names, got {len(self.thread_workloads)}"
            )

    @property
    def threads(self) -> int:
        return self.config.threads

    @property
    def is_heterogeneous(self) -> bool:
        """Whether different hardware threads ran different workloads."""
        return (
            self.thread_workloads is not None
            and len(set(self.thread_workloads)) > 1
        )

    def total_counters(self) -> dict[str, float]:
        """Counter readings summed over all hardware threads."""
        totals: dict[str, float] = {}
        for counters in self.thread_counters:
            for name, value in counters.items():
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def thread_rates(self, thread: int = 0) -> dict[str, float]:
        """Per-second rates for one hardware thread."""
        return {
            name: value / self.duration
            for name, value in self.thread_counters[thread].items()
        }

    def thread_ipc(self, thread: int = 0) -> float:
        """Committed IPC of one hardware thread, from its counters.

        This is the per-thread view co-scheduling analyses need: with a
        heterogeneous placement each thread's counters describe *its*
        workload, not a chip average.
        """
        counters = self.thread_counters[thread]
        cycles = counters.get("PM_RUN_CYC", 0.0)
        if not cycles:
            return 0.0
        return counters.get("PM_RUN_INST_CMPL", 0.0) / cycles

    def thread_ipcs(self) -> tuple[float, ...]:
        """Per-thread committed IPCs, placement declaration order."""
        return tuple(
            self.thread_ipc(thread) for thread in range(self.threads)
        )

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form, round-tripped exactly by :meth:`from_dict`.

        Per-thread counters are written compactly: ``counters`` lists
        each distinct counter set once, in first-use order, and
        ``threads`` maps every hardware thread to its set's index.  One
        benchmark copy per thread makes a 32-thread measurement one set
        plus 32 small integers.  Sets are deduplicated by content, with
        floats compared by their exact bits, so threads sharing one
        counters object, holding equal copies or decoded from an older
        record encode identically.

        Counter values and power statistics are floats; JSON carries
        them at full shortest-round-trip precision, so a deserialized
        measurement compares equal to the original bit for bit.
        """
        counters, threads = _compact_counters(self.thread_counters)
        return {
            "workload_name": self.workload_name,
            "config": self.config.to_dict(),
            "duration": self.duration,
            "counters": counters,
            "threads": threads,
            "mean_power": self.mean_power,
            "power_std": self.power_std,
            "sample_count": self.sample_count,
            "thread_workloads": (
                list(self.thread_workloads)
                if self.thread_workloads is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict, configs=None) -> "Measurement":
        """Rebuild a measurement serialized by :meth:`to_dict`.

        The configuration deserializes by shape: a ``clusters`` key
        marks a heterogeneous :class:`~repro.sim.topology.ChipTopology`,
        anything else is a :class:`MachineConfig`.  Given ``configs``, a
        batch's memo, each distinct section (by ``repr``, which tells
        ``1`` from ``1.0``) decodes once and is shared.  Threads that map
        to one counter set share one dict.  Records written before the
        compact form (one ``thread_counters`` entry per thread) still
        read.

        Raises:
            ValueError: On a malformed configuration or counter section:
                a set that is not a mapping, a thread index that is not
                an integer or is out of range, or a thread count that
                does not match the configuration.  Missing fields raise
                ``KeyError`` and mistyped ones ``TypeError``, the three
                errors the store quarantines as corrupt records.
        """
        config_data = data["config"]
        section = None if configs is None else repr(config_data)
        config = None if section is None else configs.get(section)
        if config is None:
            try:
                config = (
                    ChipTopology.from_dict(config_data)
                    if "clusters" in config_data
                    else MachineConfig.from_dict(config_data)
                )
            except AttributeError as exc:  # a list or string where a dict goes
                raise ValueError(f"malformed configuration: {exc}") from None
            if section is not None:
                configs[section] = config
        counters = data.get("counters")
        if counters is None:
            thread_counters = tuple(
                _counter_set(entry) for entry in data["thread_counters"]
            )
        else:
            thread_counters = _expand_counters(counters, data["threads"])
        thread_workloads = data.get("thread_workloads")
        return cls(
            workload_name=data["workload_name"],
            config=config,
            duration=data["duration"],
            thread_counters=thread_counters,
            mean_power=data["mean_power"],
            power_std=data["power_std"],
            sample_count=data["sample_count"],
            thread_workloads=(
                tuple(thread_workloads) if thread_workloads is not None else None
            ),
        )

    def mean_rates(self) -> dict[str, float]:
        """Per-second rates averaged across threads."""
        totals = self.total_counters()
        scale = self.duration * self.threads
        return {name: value / scale for name, value in totals.items()}


def energy_per_instruction_nj(measurement: Measurement) -> float:
    """Chip energy per committed instruction, nanojoules.

    The sensor-level EPI a cross-architecture campaign compares big
    and little shapes on: window energy over the instructions every
    hardware thread committed.  Returns ``inf`` for a window that
    committed nothing.
    """
    instructions = sum(
        counters.get("PM_RUN_INST_CMPL", 0.0)
        for counters in measurement.thread_counters
    )
    if not instructions:
        return float("inf")
    return (
        measurement.mean_power * measurement.duration / instructions * 1e9
    )


# -- compact counter codec ---------------------------------------------------

_FLOAT_ONLY = frozenset((float,))
_INT_ONLY = frozenset((int,))


def _row_key(row: dict) -> tuple:
    """Hashable identity of one counter set, floats by their exact bits.

    Plain dict equality would merge ``0.0`` with ``-0.0`` and split
    NaNs with identical bits.  Rows holding anything but floats key on
    ``repr``, which tells ``1``, ``1.0`` and ``True`` apart.
    """
    values = tuple(row.values())
    if set(map(type, values)) <= _FLOAT_ONLY:
        return tuple(row), array("d", values).tobytes()
    return tuple(row), repr(values)


def _compact_counters(
    thread_counters: tuple[Mapping[str, float], ...],
) -> tuple[list[dict], list[int]]:
    """``(distinct counter sets, per-thread set index)``.

    Object identity is only a shortcut: each new object is keyed by
    content, so the result depends on the values alone.  Mappings other
    than dicts (the fused plane's lazy row views) materialize through
    ``items()``, one row read per distinct object.
    """
    rows: list[dict] = []
    threads: list[int] = []
    by_object: dict[int, int] = {}
    by_value: dict[tuple, int] = {}
    for counters in thread_counters:
        index = by_object.get(id(counters))
        if index is None:
            row = (
                dict(counters)
                if type(counters) is dict
                else dict(counters.items())
            )
            index = by_value.setdefault(_row_key(row), len(rows))
            if index == len(rows):
                rows.append(row)
            by_object[id(counters)] = index
        threads.append(index)
    return rows, threads


def _counter_set(data) -> dict:
    if not isinstance(data, Mapping):
        raise ValueError(
            f"counter set must be a mapping, got {type(data).__name__}"
        )
    return dict(data)


def _expand_counters(counters, threads) -> tuple[dict, ...]:
    """Per-thread counters from a compact section; threads share sets."""
    if not isinstance(counters, list) or not isinstance(threads, list):
        raise ValueError("compact counters and threads must be lists")
    rows = [_counter_set(row) for row in counters]
    if not threads:
        raise ValueError("compact counters map no threads")
    if not set(map(type, threads)) <= _INT_ONLY:
        raise ValueError("thread counter indices must be integers")
    if min(threads) < 0 or max(threads) >= len(rows):
        raise ValueError(
            f"thread counter index out of range for {len(rows)} sets"
        )
    return tuple(map(rows.__getitem__, threads))

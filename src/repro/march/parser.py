"""Parser for the readable text-file micro-architecture definitions.

Format (``*.march``)::

    march <name>

    [chip]
    cores = 8
    smt = 4
    ...

    [unit FXU]
    pipes = 2
    counter = PM_FXU_FIN
    description = Fixed-point unit

    [cache L1]
    level = 1
    size_kb = 32
    line_bytes = 128
    ways = 8
    latency = 2

    [memory]
    latency = 230
    counter = PM_DATA_FROM_LMEM

    [counter PM_RUN_CYC]
    description = Processor run cycles

    [formula IPC]
    expr = PM_RUN_INST_CMPL / PM_RUN_CYC

    [iproperties]
    default type:int | FXU | 2 | 1.0
    ins mulldo       | FXU | 5 | 1.43

``[iproperties]`` records assign unit usages, latency and inverse
throughput.  ``default type:<t>`` records apply to every ISA instruction
of coarse type ``<t>``; ``ins <mnemonic>`` records override or add
specific instructions.  Every ISA instruction must end up covered.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from repro.errors import DefinitionError
from repro.isa.instruction import InstructionType
from repro.isa.registry import ISA
from repro.march.caches import CacheGeometry, MemoryLevel
from repro.march.components import ChipGeometry, ClusterSpec, FunctionalUnit
from repro.march.counters import (
    CounterDef,
    CounterFormula,
    FormulaError,
    check_counters_known,
)
from repro.march.definition import MicroArchitecture
from repro.march.properties import (
    InstructionProperties,
    PropertyDatabase,
    parse_unit_usages,
)

_CHIP_KEYS = {"cores", "smt", "frequency_ghz", "dispatch_width", "issue_width"}


class _Section:
    """One parsed ``[kind name]`` section with its key/value pairs."""

    def __init__(self, kind: str, name: str, line_number: int) -> None:
        self.kind = kind
        self.name = name
        self.line_number = line_number
        self.pairs: dict[str, str] = {}
        self.lines: dict[str, int] = {}
        self.records: list[tuple[int, str]] = []


def parse_march_text(
    text: str, isa: ISA, origin: str = "<string>"
) -> MicroArchitecture:
    """Parse micro-architecture definition text against an ISA.

    Raises:
        DefinitionError: On malformed syntax or values, unknown
            references or instructions left without properties, naming
            ``origin`` and the offending line.
    """
    name, sections = _split_sections(text, origin)
    chip = _build_chip(_single(sections, "chip", origin), origin)
    units = _build_units(sections, origin)
    caches, memory = _build_hierarchy(sections, origin)
    counters = _build_counters(sections)
    formulas = _build_formulas(sections, counters, origin)
    if "IPC" not in formulas:
        raise DefinitionError(origin, 0, "missing required formula IPC")
    properties = _build_properties(
        _single(sections, "iproperties", origin), isa, units, origin
    )
    return MicroArchitecture(
        name=name,
        isa=isa,
        chip=chip,
        units=units,
        caches=caches,
        memory=memory,
        counters=counters,
        formulas=formulas,
        properties=properties,
        clusters=_build_clusters(sections, chip, origin),
    )


def parse_march_file(path: str | Path, isa: ISA) -> MicroArchitecture:
    """Parse a micro-architecture definition file from disk."""
    path = Path(path)
    with open(path) as handle:
        return parse_march_text(handle.read(), isa, origin=str(path))


# -- low-level line handling ----------------------------------------------------


def _strip_comment(line: str) -> str:
    index = line.find("#")
    return line if index == -1 else line[:index]


def _split_sections(
    text: str, origin: str
) -> tuple[str, list[_Section]]:
    name: str | None = None
    sections: list[_Section] = []
    current: _Section | None = None

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        if name is None:
            if not line.startswith("march "):
                raise DefinitionError(
                    origin, line_number, "first record must be 'march <name>'"
                )
            name = line[len("march "):].strip()
            continue
        if line.startswith("[") and line.endswith("]"):
            kind, _, section_name = line[1:-1].strip().partition(" ")
            current = _Section(kind, section_name.strip(), line_number)
            sections.append(current)
            continue
        if current is None:
            raise DefinitionError(
                origin, line_number, "content before any section header"
            )
        if "|" in line:
            current.records.append((line_number, line))
        elif "=" in line:
            key, _, value = line.partition("=")
            current.pairs[key.strip()] = value.strip()
            current.lines[key.strip()] = line_number
        else:
            raise DefinitionError(
                origin, line_number, f"cannot parse line {line!r}"
            )

    if name is None:
        raise DefinitionError(origin, 0, "empty micro-architecture definition")
    return name, sections


def _single(sections: list[_Section], kind: str, origin: str) -> _Section:
    found = [section for section in sections if section.kind == kind]
    if len(found) != 1:
        raise DefinitionError(
            origin, 0, f"expected exactly one [{kind}] section, got {len(found)}"
        )
    return found[0]


def _need(section: _Section, key: str, origin: str) -> str:
    try:
        return section.pairs[key]
    except KeyError:
        raise DefinitionError(
            origin,
            section.line_number,
            f"[{section.kind} {section.name}] missing key {key!r}",
        ) from None


def _parse_number(text: str, kind: type, origin: str, line: int, what: str):
    """``kind(text)`` for a finite ``int``/``float`` field, else a
    :class:`DefinitionError` at ``line``."""
    try:
        value = kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise DefinitionError(
            origin, line, f"{what} {text!r} is not {noun}"
        ) from None
    if not math.isfinite(value):
        raise DefinitionError(origin, line, f"{what} {text!r} is not finite")
    return value


def _number(section: _Section, key: str, origin: str, kind=int, default=None):
    """One numeric key of a section; ``default`` makes it optional."""
    if default is None:
        text = _need(section, key, origin)
    else:
        text = section.pairs.get(key, default)
    what = f"[{section.kind} {section.name}".rstrip() + f"] {key}"
    line = section.lines.get(key, section.line_number)
    return _parse_number(text, kind, origin, line, what)


@contextmanager
def _section_errors(section: _Section, origin: str):
    """Re-raise a component's range error at the section's line."""
    try:
        yield
    except (ValueError, FormulaError) as exc:
        raise DefinitionError(origin, section.line_number, str(exc)) from None


# -- section builders ------------------------------------------------------------


def _build_chip(section: _Section, origin: str) -> ChipGeometry:
    missing = _CHIP_KEYS - set(section.pairs)
    if missing:
        raise DefinitionError(
            origin, section.line_number,
            f"[chip] missing keys: {sorted(missing)}",
        )
    with _section_errors(section, origin):
        return ChipGeometry(
            max_cores=_number(section, "cores", origin),
            max_smt=_number(section, "smt", origin),
            frequency_ghz=_number(section, "frequency_ghz", origin, float),
            dispatch_width=_number(section, "dispatch_width", origin),
            issue_width=_number(section, "issue_width", origin),
            # Optional: low-power core classes declare a dynamic-energy
            # discount the hidden ground-truth model applies.
            energy_scale=_number(section, "energy_scale", origin, float, "1.0"),
        )


def _build_clusters(
    sections: list[_Section], chip: ChipGeometry, origin: str
) -> tuple[ClusterSpec, ...]:
    """Optional ``[cluster <name>]`` blocks of a heterogeneous chip."""
    clusters = []
    for section in sections:
        if section.kind != "cluster":
            continue
        if not section.name:
            raise DefinitionError(
                origin, section.line_number, "[cluster] needs a name"
            )
        with _section_errors(section, origin):
            spec = ClusterSpec(
                name=section.name,
                core_class=section.pairs.get("core_class", "self"),
                cores=_number(section, "cores", origin),
                smt=_number(section, "smt", origin),
                p_state=section.pairs.get("p_state", "nominal"),
            )
        clusters.append(spec)
        if spec.core_class == "self" and (
            spec.cores > chip.max_cores or spec.smt > chip.max_smt
        ):
            raise DefinitionError(
                origin,
                section.line_number,
                f"cluster {spec.name!r} exceeds the defining chip's "
                f"{chip.max_cores} cores x SMT-{chip.max_smt}",
            )
    names = [cluster.name for cluster in clusters]
    if len(set(names)) != len(names):
        raise DefinitionError(
            origin, 0, f"duplicate cluster names: {names}"
        )
    return tuple(clusters)


def _build_units(
    sections: list[_Section], origin: str
) -> dict[str, FunctionalUnit]:
    units = {}
    for section in sections:
        if section.kind != "unit":
            continue
        with _section_errors(section, origin):
            units[section.name] = FunctionalUnit(
                name=section.name,
                pipes=_number(section, "pipes", origin, int, "1"),
                counter=section.pairs.get("counter", ""),
                description=section.pairs.get("description", ""),
            )
    return units


def _build_hierarchy(
    sections: list[_Section], origin: str
) -> tuple[tuple[CacheGeometry, ...], MemoryLevel]:
    caches = []
    for section in sections:
        if section.kind != "cache":
            continue
        with _section_errors(section, origin):
            caches.append(
                CacheGeometry(
                    name=section.name,
                    level=_number(section, "level", origin),
                    size_bytes=_number(section, "size_kb", origin) * 1024,
                    line_bytes=_number(section, "line_bytes", origin),
                    ways=_number(section, "ways", origin),
                    latency=_number(section, "latency", origin),
                    counter=section.pairs.get("counter", ""),
                )
            )
    caches.sort(key=lambda cache: cache.level)
    levels = [cache.level for cache in caches]
    if levels != list(range(1, len(caches) + 1)):
        raise DefinitionError(
            origin, 0, f"cache levels must be contiguous from 1, got {levels}"
        )
    memory_section = _single(sections, "memory", origin)
    with _section_errors(memory_section, origin):
        memory = MemoryLevel(
            latency=_number(memory_section, "latency", origin),
            counter=memory_section.pairs.get("counter", ""),
        )
    return tuple(caches), memory


def _build_counters(sections: list[_Section]) -> dict[str, CounterDef]:
    counters = {}
    for section in sections:
        if section.kind != "counter":
            continue
        counters[section.name] = CounterDef(
            name=section.name,
            description=section.pairs.get("description", ""),
        )
    return counters


def _build_formulas(
    sections: list[_Section],
    counters: dict[str, CounterDef],
    origin: str,
) -> dict[str, CounterFormula]:
    formulas = {}
    for section in sections:
        if section.kind != "formula":
            continue
        with _section_errors(section, origin):
            formula = CounterFormula(
                name=section.name,
                expression=_need(section, "expr", origin),
            )
        check_counters_known(formula, counters, origin)
        formulas[section.name] = formula
    return formulas


def _build_properties(
    section: _Section,
    isa: ISA,
    units: dict[str, FunctionalUnit],
    origin: str,
) -> PropertyDatabase:
    defaults: dict[InstructionType, InstructionProperties] = {}
    overrides: dict[str, InstructionProperties] = {}

    for line_number, record in section.records:
        fields = [field.strip() for field in record.split("|")]
        if len(fields) != 4:
            raise DefinitionError(
                origin, line_number,
                "iproperties records need 4 fields: "
                "selector | units | latency | inv_throughput",
            )
        selector, units_spec, latency_spec, thr_spec = fields
        try:
            # A template under the selector's name: the properties'
            # own range checks run once per record, at its line.
            record = InstructionProperties(
                mnemonic=selector,
                usages=parse_unit_usages(units_spec),
                latency=_parse_number(
                    latency_spec, float, origin, line_number, "latency"
                ),
                inv_throughput=_parse_number(
                    thr_spec, float, origin, line_number, "inv_throughput"
                ),
            )
        except ValueError as exc:
            raise DefinitionError(origin, line_number, str(exc)) from None

        for usage in record.usages:
            for unit in usage.units:
                if unit not in units:
                    raise DefinitionError(
                        origin, line_number, f"unknown unit {unit!r}"
                    )

        if selector.startswith("default type:"):
            type_name = selector[len("default type:"):].strip()
            try:
                itype = InstructionType(type_name)
            except ValueError:
                raise DefinitionError(
                    origin, line_number, f"unknown type {type_name!r}"
                ) from None
            defaults[itype] = record
        elif selector.startswith("ins "):
            mnemonic = selector[len("ins "):].strip()
            if mnemonic not in isa:
                raise DefinitionError(
                    origin, line_number,
                    f"iproperties for unknown instruction {mnemonic!r}",
                )
            overrides[mnemonic] = record
        else:
            raise DefinitionError(
                origin, line_number, f"bad iproperties selector {selector!r}"
            )

    database = PropertyDatabase()
    uncovered = []
    for instruction in isa:
        record = overrides.get(instruction.mnemonic)
        if record is None:
            record = defaults.get(instruction.itype)
        if record is None:
            uncovered.append(instruction.mnemonic)
            continue
        database.add(replace(record, mnemonic=instruction.mnemonic))
    if uncovered:
        raise DefinitionError(
            origin, 0,
            f"instructions without properties: {uncovered[:8]}"
            + ("..." if len(uncovered) > 8 else ""),
        )
    return database

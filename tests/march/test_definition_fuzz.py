"""Seeded mutational fuzzing of the ``.isa`` and ``.march`` parsers.

Definition files are meant to be edited by hand, so a malformed value
must fail as a :class:`~repro.errors.DefinitionError` that names the
file and line -- never as a bare ``ValueError`` or ``FormulaError``
from deep inside a component -- and an accepted file must never carry
a non-finite or out-of-range number into the machine.

Mutations are stdlib ``random`` only: one line of a shipped definition
file has a value or a record field overwritten from a fixed palette of
wrong types, bad signs and non-finite numbers, or is deleted,
duplicated or truncated.  A mutated ISA that parses is then bound to
both shipped micro-architectures.
"""

import math
import random
from importlib import resources

import pytest

from repro.errors import DefinitionError
from repro.isa import parse_isa_text
from repro.isa.registry import load_default_isa
from repro.march import parse_march_text

_SEED = 20121201
_TRIALS = 900

#: Values written over a ``key = value`` pair or a record field.
_PALETTE = [
    "",
    "0",
    "-1",
    "-5",
    "1.5",
    "2nan",
    "nan",
    "inf",
    "-inf",
    "1e3",
    "0x10",
    "x",
    "FXU:nan",
    "FXU:inf",
    "FXU:0",
]

_ISA = "power_v206b.isa"
_MARCHES = ("power7.march", "power7_eco.march")


def _source(package: str, name: str) -> str:
    return (resources.files(package) / "data" / name).read_text()


@pytest.fixture(scope="module")
def isa():
    return load_default_isa()


def _mutate(rng, text: str) -> tuple[str, str]:
    """``text`` with one content line mutated, and what was done."""
    lines = text.split("\n")
    candidates = [
        index
        for index, line in enumerate(lines)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    index = rng.choice(candidates)
    line = lines[index]
    what = f"line {index + 1} {line!r}"
    operation = rng.choice(["value", "value", "field", "drop", "copy", "cut"])
    value = rng.choice(_PALETTE)
    if operation == "value" and "=" in line:
        key = line.partition("=")[0]
        lines[index] = f"{key}= {value}"
    elif operation == "field" and "|" in line:
        fields = line.split("|")
        fields[rng.randrange(len(fields))] = f" {value} "
        lines[index] = "|".join(fields)
    elif operation == "drop":
        del lines[index]
    elif operation == "copy":
        lines.insert(index, line)
    else:
        lines[index] = line[: rng.randrange(len(line))]
    return "\n".join(lines), f"{what} {operation}: {lines[index:index + 1]}"


def _check_accepted(arch) -> None:
    chip = arch.chip
    for value in (
        chip.max_cores,
        chip.max_smt,
        chip.frequency_ghz,
        chip.dispatch_width,
        chip.issue_width,
        chip.energy_scale,
    ):
        assert math.isfinite(value) and value > 0, chip
    for cache in arch.caches:
        assert cache.latency >= 0, cache
    assert arch.memory.latency >= 0, arch.memory
    for prop in arch.properties:
        assert math.isfinite(prop.latency) and prop.latency > 0, prop
        assert math.isfinite(prop.inv_throughput), prop
        assert prop.inv_throughput > 0, prop
        assert all(math.isfinite(usage.ops) for usage in prop.usages), prop


def _parse(text: str, origin: str, parse) -> object | None:
    """The parsed definition, or ``None`` on a well-formed failure."""
    try:
        return parse(text, origin)
    except DefinitionError as exc:
        assert exc.path == origin, exc
        assert str(exc).startswith(f"{origin}:"), exc
        return None


def test_mutated_definitions(isa):
    rng = random.Random(_SEED)
    isa_text = _source("repro.isa", _ISA)
    marches = {name: _source("repro.march", name) for name in _MARCHES}
    outcomes = {"rejected": 0, "accepted": 0}
    for trial in range(_TRIALS):
        target = (_ISA, *_MARCHES)[trial % 3]
        try:
            if target == _ISA:
                text, what = _mutate(rng, isa_text)
                mutated = _parse(text, _ISA, parse_isa_text)
                archs = (
                    []
                    if mutated is None
                    else [
                        _parse(
                            source,
                            name,
                            lambda t, o: parse_march_text(t, mutated, o),
                        )
                        for name, source in marches.items()
                    ]
                )
            else:
                text, what = _mutate(rng, marches[target])
                archs = [
                    _parse(
                        text, target, lambda t, o: parse_march_text(t, isa, o)
                    )
                ]
            accepted = [arch for arch in archs if arch is not None]
            for arch in accepted:
                _check_accepted(arch)
        except AssertionError as exc:
            raise AssertionError(f"trial {trial}, {target} {what}: {exc}")
        except Exception as exc:
            raise AssertionError(
                f"trial {trial}, {target} {what}: {exc!r}"
            ) from exc
        outcomes["accepted" if accepted else "rejected"] += 1
    assert outcomes["rejected"] > 0 and outcomes["accepted"] > 0, outcomes


# -- pinned cases ---------------------------------------------------------------


def _edit(text: str, header: str, key: str, value: str) -> tuple[str, int, int]:
    """``text`` with ``key``'s value in section ``header`` replaced (or
    added under the header); returns the text, the key's line and the
    header's line, 1-based."""
    lines = text.split("\n")
    start = lines.index(header)
    for index in range(start + 1, len(lines)):
        if lines[index].startswith("["):
            break
        if lines[index].partition("=")[0].strip() == key:
            lines[index] = f"{key} = {value}"
            return "\n".join(lines), index + 1, start + 1
    lines.insert(start + 1, f"{key} = {value}")
    return "\n".join(lines), start + 2, start + 1


_VALUE_CASES = [
    pytest.param("[unit FXU]", "pipes", "2nan", "key", id="pipes-2nan"),
    pytest.param("[unit FXU]", "pipes", "0", "section", id="pipes-0"),
    pytest.param("[chip]", "frequency_ghz", "nan", "key", id="frequency-nan"),
    pytest.param("[chip]", "energy_scale", "inf", "key", id="energy-inf"),
    pytest.param("[memory]", "latency", "-5", "section", id="memory-latency"),
    pytest.param("[cache L2]", "latency", "-5", "section", id="cache-latency"),
    pytest.param(
        "[formula IPC]", "expr", "PM_RUN_INST_CMPL **", "section",
        id="formula-syntax",
    ),
    pytest.param(
        "[formula IPC]", "expr", "PM_RUN_INST_CMPL ** 2", "section",
        id="formula-operator",
    ),
]


@pytest.mark.parametrize("header, key, value, where", _VALUE_CASES)
def test_bad_value_names_file_and_line(isa, header, key, value, where):
    origin = "power7.march"
    text, key_line, header_line = _edit(
        _source("repro.march", origin), header, key, value
    )
    with pytest.raises(DefinitionError) as caught:
        parse_march_text(text, isa, origin)
    assert caught.value.path == origin
    assert caught.value.line_number == (
        key_line if where == "key" else header_line
    )


@pytest.mark.parametrize(
    "record",
    [
        "ins mulldo | FXU | 0 | 1.43",
        "ins mulldo | FXU | 5 | -1",
        "ins mulldo | FXU | nan | 1.43",
        "ins mulldo | FXU:inf | 5 | 1.43",
    ],
)
def test_bad_property_record_names_its_line(isa, record):
    origin = "power7.march"
    lines = _source("repro.march", origin).split("\n")
    index = next(
        i for i, line in enumerate(lines) if line.startswith("ins mulldo")
    )
    lines[index] = record
    with pytest.raises(DefinitionError) as caught:
        parse_march_text("\n".join(lines), isa, origin)
    assert caught.value.path == origin
    assert caught.value.line_number == index + 1

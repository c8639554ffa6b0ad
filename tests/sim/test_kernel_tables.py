"""Slot-table kernels against the slot-object path kept as their oracle.

``Program.to_kernel`` builds a kernel as a slot table and every
analytic reader -- digest, slot table, record body, wire form, counts
and the pipeline model's summary -- reads that table; kernels built
from slot objects reach the same readers through a table derived from
their pattern and tail.  ``tests/oracle/kernels.py`` keeps the path
the table replaced, verbatim.  Over four kernel sources (the random
synthesis recipes, the Table-2 suites, stressmark and mix kernels,
wire round trips) both paths must agree on the digest, the slot table,
the kernel record bytes, ``to_dict``, ``len``, ``instructions``, ``==``,
``hash`` and every :class:`KernelSummary` field, floats compared by
``float.hex`` and dicts in order; a table kernel must answer all of it
before building a slot object.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.core import synthesizer as synthesizer_module
from repro.core.synthesizer import Synthesizer
from repro.exec.store import KERNELS, kernel_body, kernel_from_body, render_record
from repro.march.bootstrap import Bootstrapper
from repro.power_model.training import generate_training_suite
from repro.sim.kernel import Kernel
from repro.sim.pipeline import CorePipelineModel
from repro.sim.summary import KernelSummary
from repro.stressmark.search import build_stressmark, covering_sequences
from repro.workloads.mixes import biglittle_mixes, mix_scenarios
from tests.core.test_synthesis_oracle import _random_pipeline
from tests.oracle import kernels as oracle

_KEY = "ab" * 16


def _hexed(value):
    """``value`` with every float spelled by ``float.hex`` and every
    dict as its item list, so comparisons see bits, types and order."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(_hexed(key), _hexed(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_hexed(item) for item in value]
    return value


def _summary_fields(summary: KernelSummary) -> list:
    return [
        (field.name, _hexed(getattr(summary, field.name)))
        for field in dataclasses.fields(summary)
    ]


@pytest.fixture(scope="module")
def models(power7_arch):
    return CorePipelineModel(power7_arch), oracle.OraclePipelineModel(power7_arch)


def assert_readers_match(kernel: Kernel, reference: Kernel, models) -> None:
    """``kernel``'s readers equal the slot-object readers on
    ``reference``; a table kernel builds no slot object doing so."""
    model, oracle_model = models
    tabled = "_index" in vars(kernel)
    digest = oracle.digest(reference)
    assert kernel.digest() == digest == reference.digest()
    assert len(kernel) == len(reference.instructions)
    expected_table = oracle.slot_table(reference)
    assert kernel.slot_table() == expected_table
    body = kernel_body(kernel)
    assert (body is None) == (expected_table is None)
    if body is not None:
        assert render_record(_KEY, body, KERNELS) == render_record(
            _KEY, kernel_body(reference), KERNELS
        )
    assert json.dumps(kernel.to_dict()) == json.dumps(oracle.to_dict(reference))
    assert list(kernel.mnemonic_counts().items()) == list(
        oracle.mnemonic_counts(reference).items()
    )
    summary = model._build_summary(kernel, digest)
    assert _summary_fields(summary) == _summary_fields(
        oracle_model._build_summary(reference, digest)
    )
    if tabled:
        assert "instructions" not in vars(kernel)
    assert kernel.instructions == reference.instructions
    assert kernel == reference and hash(kernel) == hash(reference)


def assert_round_trips(kernel: Kernel, models) -> None:
    """The kernel's wire form and, when it has one, its record body
    decode to kernels whose readers match the oracle's."""
    wire = Kernel.from_dict(json.loads(json.dumps(kernel.to_dict())))
    assert wire.digest() == kernel.digest()
    assert_readers_match(wire, wire, models)
    body = kernel_body(kernel)
    if body is not None:
        loaded = kernel_from_body(json.loads(json.dumps(body)))
        assert_readers_match(loaded, kernel, models)


def test_random_recipes_match_the_oracle(power7_arch, models):
    rng = random.Random(2029)
    built = tabled_errors = 0
    for case in range(60):
        synth = _random_pipeline(power7_arch, rng, case)
        try:
            program = synth.synthesize()
        except Exception:  # noqa: BLE001 -- recipes that cannot build
            continue
        kernel = program.to_kernel()
        assert "_index" in vars(kernel)
        reference = oracle.to_kernel(program)
        assert_readers_match(kernel, reference, models)
        assert_round_trips(kernel, models)
        built += 1
        # A dependency distance below 1 fails both paths alike, naming
        # its first slot.
        slot = rng.randrange(len(program.dep_distances))
        program.dep_distances[slot] = rng.choice([0, -3])
        with pytest.raises(ValueError) as table_error:
            program.to_kernel()
        with pytest.raises(ValueError) as slot_error:
            oracle.to_kernel(program)
        assert str(table_error.value) == str(slot_error.value)
        tabled_errors += 1
    assert built >= 30 and tabled_errors == built


@pytest.fixture
def programs(monkeypatch):
    """Every program the pass pipeline builds, in order, in one
    process (a forked child's programs never reach the patch)."""
    built = []
    synthesize = Synthesizer.synthesize

    def recording(self, name=None):
        program = synthesize(self, name)
        built.append(program)
        return program

    monkeypatch.setattr(Synthesizer, "synthesize", recording)
    monkeypatch.setattr(synthesizer_module, "_usable_cpus", lambda: 1)
    return built


def test_bootstrap_kernels_match_the_oracle(power7_arch, models, programs):
    """The bootstrap's single-instruction loops: uniform bodies, table
    kernels with a period fingerprint."""
    rng = random.Random(7)
    mnemonics = [
        definition.mnemonic for definition in power7_arch.isa
        if not definition.is_branch
    ]
    bootstrapper = Bootstrapper(power7_arch, None)
    for mnemonic in rng.sample(mnemonics, 24):
        bootstrapper.loop_size = rng.choice([12, 255, 256, 1023, 4096])
        bootstrapper._build(mnemonic, rng.random() < 0.5).kernel()
    assert len(programs) == 24
    periodic = 0
    for program in programs:
        kernel = program.to_kernel()
        periodic += kernel.period is not None
        assert_readers_match(kernel, oracle.to_kernel(program), models)
        assert_round_trips(kernel, models)
    assert periodic >= 12


def test_table2_suites_match_the_oracle(power7_arch, models, programs):
    suite = generate_training_suite(power7_arch, 1024, 0.3)
    assert len(programs) == len(suite) == 174
    for program, entry in zip(programs, suite):
        kernel = program.to_kernel()
        assert "_index" in vars(entry.kernel)
        assert_readers_match(kernel, oracle.to_kernel(program), models)
        assert_round_trips(kernel, models)


def test_stressmark_and_mix_kernels_match_the_oracle(power7_arch, models):
    sequences = list(covering_sequences(("mulldo", "lxvw4x", "xvnmsubmdp")))
    rng = random.Random(11)
    kernels = [
        build_stressmark(power7_arch, sequence, loop_size)
        for sequence in rng.sample(sequences, 12)
        for loop_size in (1, 7, 256, 1023, 4096)
    ]
    for loop_size in (1, 2, 64, 256):
        for scenario in mix_scenarios(loop_size):
            kernels.extend(scenario.workloads)
        for mix in biglittle_mixes(loop_size):
            kernels.extend((mix.big_workload, mix.little_workload))
    for kernel in kernels:
        assert "_index" not in vars(kernel)
        assert_readers_match(kernel, kernel, models)
        assert_round_trips(kernel, models)


def test_summaries_reach_the_memo_from_either_form(power7_arch):
    """A table kernel and the equal slot-object kernel share one
    memoized summary, equal to the oracle's."""
    kernel = generate_training_suite(power7_arch, 256, 0.05)[0].kernel
    rebuilt = dataclasses.replace(kernel)
    assert "_index" not in vars(rebuilt)
    model = CorePipelineModel(power7_arch)
    summary = model.summarize(kernel)
    assert model.summarize(rebuilt) is summary
    expected = oracle.OraclePipelineModel(power7_arch).summarize(rebuilt)
    assert _summary_fields(summary) == _summary_fields(expected)

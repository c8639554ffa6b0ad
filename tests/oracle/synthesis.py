"""The per-slot synthesis pipeline, kept as the column pipeline's oracle.

:class:`repro.core.ir.Program` holds its body as per-slot columns that
every pass reads and writes.  This module is the pipeline those columns
replaced, verbatim: one :class:`IRInstruction` object per slot, each
pass walking and rewriting those objects, and ``to_kernel`` reading
them back.  Only the mode tuples of the init, ILP and order passes are
renamed apart, since the three share one module here.

:func:`synthesize` applies the twins of a production synthesizer's
passes (same class names, same constructor state) exactly as
``Synthesizer.synthesize`` did, and returns the program with the
context it ran in.  Tests compare the emitted text, kernels, metadata,
rows, random streams and errors of both pipelines.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import PassError, SynthesisError
from repro.isa.instruction import InstructionDef
from repro.isa.operand import OperandKind
from repro.march.cache_model import SetAssociativeCacheModel
from repro.march.definition import MicroArchitecture
from repro.sim.kernel import Kernel, KernelInstruction


# -- repro/core/ir.py -------------------------------------------------------

#: Value-initialisation policies and the operand-data entropy they induce.
DATA_ENTROPY = {"zero": 0.0, "pattern": 0.5, "random": 1.0}


@dataclass
class IRInstruction:
    """One slot of the loop body.

    Attributes:
        definition: The ISA instruction occupying this slot.
        registers: Register number per register operand name.
        immediates: Immediate value per immediate operand name.
        dep_distance: Slots back to this instruction's producer, or
            ``None`` when independent.
        dep_operand: Name of the source operand carrying the dependency
            (set alongside ``dep_distance`` by the ILP pass).
        address: Planned byte address for memory operations.
        source_level: Hierarchy level the address is planned to hit.
        structural: True for skeleton-owned slots (the loop-closing
            branch) that distribution passes must not replace.
        comment: Free-form annotation carried into emitted code.
    """

    definition: InstructionDef
    registers: dict[str, int] = field(default_factory=dict)
    immediates: dict[str, int] = field(default_factory=dict)
    dep_distance: int | None = None
    dep_operand: str | None = None
    address: int | None = None
    source_level: str | None = None
    structural: bool = False
    comment: str = ""

    @property
    def mnemonic(self) -> str:
        return self.definition.mnemonic

    def target_register(self) -> tuple[str, OperandKind, int] | None:
        """(operand name, kind, number) of the primary written register."""
        registers = self.registers
        for name, kind in self.definition.write_slots:
            number = registers.get(name)
            if number is not None:
                return name, kind, number
        return None


@dataclass
class Program:
    """A micro-benchmark: an endless loop over a fixed body.

    Built by the skeleton pass, refined by the remaining passes.
    """

    name: str
    arch: MicroArchitecture
    body: list[IRInstruction] = field(default_factory=list)
    loop_label: str = "loop"
    register_init: str = "random"
    immediate_init: str = "random"
    init_pattern: int = 0
    memory_base: int = 0
    metadata: dict[str, object] = field(default_factory=dict)

    @property
    def size(self) -> int:
        """Body slots, excluding structural slots."""
        return sum(1 for ins in self.body if not ins.structural)

    @property
    def operand_entropy(self) -> float:
        """Data-switching entropy implied by the value-init policies."""
        register_entropy = DATA_ENTROPY[self.register_init]
        immediate_entropy = DATA_ENTROPY[self.immediate_init]
        # Register values dominate datapath toggling; immediates only
        # feed a slice of the operand bits.
        return 0.8 * register_entropy + 0.2 * immediate_entropy

    def workload_slots(self) -> list[int]:
        """Indices of non-structural slots, in program order."""
        return [
            index for index, ins in enumerate(self.body) if not ins.structural
        ]

    def memory_instructions(self) -> list[IRInstruction]:
        """Memory-op slots (loads and stores), program order."""
        return [
            ins for ins in self.body
            if ins.definition.accesses_memory and not ins.structural
        ]

    # -- downstream views ------------------------------------------------------

    def to_kernel(self) -> Kernel:
        """The simulator-facing view of this program.

        Bodies the pass pipeline left analytically uniform (every
        workload slot shares mnemonic, dependency link and memory
        level -- the bootstrap's single-instruction loops) are stamped
        with a period fingerprint so the steady-state evaluation engine
        summarizes them in O(period) work.
        """
        if not self.body:
            raise SynthesisError(
                f"program {self.name!r} has no body; run a skeleton pass"
            )
        # Slots with equal content share one (immutable) kernel slot.
        shared: dict[tuple, KernelInstruction] = {}
        slots = []
        for ins in self.body:
            key = (
                ins.definition.mnemonic, ins.dep_distance,
                ins.source_level, ins.address,
            )
            slot = shared.get(key)
            if slot is None:
                slot = shared[key] = KernelInstruction(*key)
            slots.append(slot)
        instructions = tuple(slots)
        return Kernel(
            name=self.name,
            instructions=instructions,
            operand_entropy=self.operand_entropy,
            period=self._analytic_period(instructions),
        )

    def _analytic_period(
        self, instructions: tuple[KernelInstruction, ...]
    ) -> int | None:
        """Period fingerprint of a uniform body, or ``None``.

        The fingerprint contract places the trailing structural slots
        (the loop-closing branch) in the remainder tail, so the period
        must divide the workload length while leaving the tail short of
        one full period; the smallest such divisor is returned.
        """
        tail = 0
        while tail < len(self.body) and self.body[-1 - tail].structural:
            tail += 1
        workload = len(self.body) - tail
        if workload < 2 or any(
            ins.structural for ins in self.body[:workload]
        ):
            return None
        key = instructions[0].analytic_key()
        if any(
            instructions[index].analytic_key() != key
            for index in range(1, workload)
        ):
            return None
        for divisor in (2, 3, 5, 7, 11, 13):
            if tail < divisor and workload % divisor == 0:
                return divisor
        return None

    def save(self, path: str | Path) -> Path:
        """Emit the program to ``path`` (.c or .s decides the emitter)."""
        from repro.core.emit.asm_emitter import emit_assembly
        from repro.core.emit.c_emitter import emit_c

        path = Path(path)
        if path.suffix == ".c":
            text = emit_c(self)
        elif path.suffix == ".s":
            text = emit_assembly(self)
        else:
            raise SynthesisError(
                f"cannot infer emitter from suffix {path.suffix!r}; "
                "use .c or .s"
            )
        path.write_text(text)
        return path

    def mnemonic_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ins in self.body:
            counts[ins.mnemonic] = counts.get(ins.mnemonic, 0) + 1
        return counts


# -- repro/core/registers.py ------------------------------------------------

#: Register reserved as the memory-region base pointer in generated code.
MEMORY_BASE_REGISTER = 28
#: Register reserved as scratch for large-displacement address forming.
ADDRESS_SCRATCH_REGISTER = 27

_RESERVED_GPRS = frozenset({0, 1, 2, 13, ADDRESS_SCRATCH_REGISTER, MEMORY_BASE_REGISTER})

#: Allocatable register numbers per kind, in round-robin order.
_POOLS = {
    OperandKind.GPR: tuple(n for n in range(32) if n not in _RESERVED_GPRS),
    OperandKind.FPR: tuple(range(32)),
    OperandKind.VR: tuple(range(32)),
    OperandKind.VSR: tuple(range(64)),
    OperandKind.CR: tuple(range(8)),
    OperandKind.SPR: (0,),
}


@dataclass
class RegisterPools:
    """Round-robin register allocator over the architected files."""

    _cycles: dict[OperandKind, Iterator[int]] = field(default_factory=dict)

    def take(self, kind: OperandKind) -> int:
        """Next register in round-robin order for ``kind``."""
        cycle = self._cycles.get(kind)
        if cycle is None:
            if kind not in _POOLS:
                raise ValueError(f"no register pool for {kind}")
            cycle = self._cycles[kind] = itertools.cycle(_POOLS[kind])
        return next(cycle)

    def reset(self) -> None:
        self._cycles.clear()


# -- repro/core/passes/base.py ----------------------------------------------

@dataclass
class PassContext:
    """State shared by the passes of one synthesis run.

    Attributes:
        arch: The target micro-architecture.
        rng: Seeded generator; all pass randomness must come from here
            so a synthesis run is reproducible from its seed.
        pools: Round-robin register allocator shared across passes.
        synthesis_index: Ordinal of this run within the synthesizer
            (the paper's example calls ``synthesize()`` ten times).
    """

    arch: MicroArchitecture
    rng: random.Random
    pools: RegisterPools = field(default_factory=RegisterPools)
    synthesis_index: int = 0


class Pass(ABC):
    """One transformation of the program under construction."""

    @property
    def name(self) -> str:
        """Human-readable pass name (defaults to the class name)."""
        return type(self).__name__

    @abstractmethod
    def apply(self, program: Program, context: PassContext) -> None:
        """Transform ``program`` in place.

        Raises:
            PassError: If the program is not in a state this pass can
                handle (e.g. distribution before skeleton).
        """

    def __repr__(self) -> str:
        return f"<pass {self.name}>"


# -- repro/core/passes/skeleton.py ------------------------------------------

class EndlessLoopSkeleton(Pass):
    """Define the program as an endless loop of ``size`` instructions.

    The body is created as ``size`` nop placeholder slots that the
    instruction-distribution pass later fills, plus a structural
    backward branch closing the loop.  This is the paper's
    "Single end-less loop of 4096 instructions" pass.
    """

    def __init__(self, size: int = 4096) -> None:
        if size < 1:
            raise ValueError("loop size must be >= 1")
        self.size = size

    @property
    def name(self) -> str:
        return f"EndlessLoopSkeleton({self.size})"

    def apply(self, program: Program, context: PassContext) -> None:
        if program.body:
            raise PassError(
                f"{program.name}: skeleton applied to a non-empty program"
            )
        isa = context.arch.isa
        nop = isa.instruction("nop")
        branch = isa.instruction("b")
        program.body = [
            IRInstruction(definition=nop) for _ in range(self.size)
        ]
        closing = IRInstruction(
            definition=branch,
            structural=True,
            comment="loop-closing branch",
        )
        program.body.append(closing)
        program.loop_label = "loop"


# -- repro/core/passes/distribution.py --------------------------------------

class InstructionDistribution(Pass):
    """Fill workload slots with a mix of instructions.

    Args:
        pool: Instruction definitions (or mnemonics, resolved against
            the target ISA) to draw from.
        weights: Optional relative weight per pool entry, parallel to
            ``pool``; uniform when omitted.
        exact: When true (default), realize the weights exactly as a
            shuffled multiset; when false, draw each slot independently.
    """

    def __init__(
        self,
        pool: Sequence[InstructionDef | str],
        weights: Sequence[float] | None = None,
        exact: bool = True,
    ) -> None:
        if not pool:
            raise ValueError("instruction pool must not be empty")
        if weights is not None and len(weights) != len(pool):
            raise ValueError("weights must parallel the pool")
        if weights is not None and (min(weights) < 0 or sum(weights) <= 0):
            raise ValueError("weights must be non-negative and sum > 0")
        self.pool = list(pool)
        self.weights = list(weights) if weights is not None else None
        self.exact = exact

    @property
    def name(self) -> str:
        return f"InstructionDistribution({len(self.pool)} instructions)"

    def apply(self, program: Program, context: PassContext) -> None:
        slots = program.workload_slots()
        if not slots:
            raise PassError(
                f"{program.name}: no slots to fill; run a skeleton pass first"
            )
        definitions = [
            entry if isinstance(entry, InstructionDef)
            else context.arch.isa.instruction(entry)
            for entry in self.pool
        ]
        # Each definition with its register template: operand names and
        # pool kinds, ``None`` for the base register of a load or store
        # (it points at the benchmark's memory region; the memory pass
        # plans the rest of the address).
        entries = [
            (definition, tuple(
                (name, None if definition.is_memory and name == "RA" else kind)
                for name, kind in definition.register_slots
            ))
            for definition in definitions
        ]
        if self.exact:
            choices = self._exact_mix(entries, len(slots), context)
        else:
            weights = self.weights or [1.0] * len(entries)
            choices = context.rng.choices(entries, weights, k=len(slots))

        take = context.pools.take
        for slot, (definition, template) in zip(slots, choices):
            program.body[slot] = IRInstruction(definition, registers={
                name: MEMORY_BASE_REGISTER if kind is None else take(kind)
                for name, kind in template
            })

    def _exact_mix(
        self,
        entries: list[tuple],
        count: int,
        context: PassContext,
    ) -> list[tuple]:
        weights = self.weights or [1.0] * len(entries)
        total = sum(weights)
        raw = [weight / total * count for weight in weights]
        counts = [int(value) for value in raw]
        remainder = count - sum(counts)
        order = sorted(
            range(len(raw)), key=lambda i: raw[i] - counts[i], reverse=True
        )
        for index in order[:remainder]:
            counts[index] += 1
        mix: list[tuple] = []
        for entry, amount in zip(entries, counts):
            mix.extend([entry] * amount)
        context.rng.shuffle(mix)
        return mix


# -- repro/core/passes/memory.py --------------------------------------------

class MemoryModel(Pass):
    """Assign addresses realizing a target hierarchy hit distribution.

    Args:
        weights: Per-level hit fractions, e.g. ``{"L1": 1/3, "L2": 1/3,
            "L3": 1/3}``.  Keys are the architecture's level names.
        base_address: Optional override of the model's memory-region
            base (useful to give concurrent benchmarks disjoint
            regions).
    """

    def __init__(
        self,
        weights: Mapping[str, float],
        base_address: int | None = None,
    ) -> None:
        self.weights = dict(weights)
        self.base_address = base_address

    @property
    def name(self) -> str:
        spec = ", ".join(
            f"{level}={weight:.0%}" for level, weight in self.weights.items()
        )
        return f"MemoryModel({spec})"

    def apply(self, program: Program, context: PassContext) -> None:
        memory_instructions = program.memory_instructions()
        if not memory_instructions:
            raise PassError(
                f"{program.name}: memory model applied but the body has "
                "no memory instructions; order the distribution pass first"
            )
        if self.base_address is not None:
            model = SetAssociativeCacheModel(
                context.arch.caches,
                context.arch.memory,
                base_address=self.base_address,
            )
        else:
            model = SetAssociativeCacheModel.for_architecture(context.arch)

        plan = model.plan(
            self.weights,
            slot_count=len(memory_instructions),
            seed=context.rng.randrange(2 ** 31),
        )
        program.memory_base = model.base_address
        program.metadata["memory_plan"] = plan

        fits_dform = 0
        for instruction, address, level in zip(
            memory_instructions, plan.slots, plan.slot_levels
        ):
            instruction.address = address
            instruction.source_level = level
            offset = address - model.base_address
            displacement = instruction.definition.displacement
            if displacement is not None:
                instruction.immediates[displacement] = offset
                if -32768 <= offset <= 32767:
                    fits_dform += 1
        program.metadata["dform_offsets_in_range"] = fits_dform


# -- repro/core/passes/init_values.py ---------------------------------------

_INIT_MODES = tuple(DATA_ENTROPY)


def _check_mode(mode: str) -> None:
    if mode not in _INIT_MODES:
        raise ValueError(f"mode must be one of {_INIT_MODES}, got {mode!r}")


class InitRegisters(Pass):
    """Set the register-initialisation policy of the program.

    The Figure-2 example's "Init registers to 0b01010101" is
    ``InitRegisters("pattern", pattern=0b01010101)``.
    """

    def __init__(self, mode: str = "random", pattern: int = 0b01010101) -> None:
        _check_mode(mode)
        self.mode = mode
        self.pattern = pattern

    @property
    def name(self) -> str:
        if self.mode == "pattern":
            return f"InitRegisters(pattern=0b{self.pattern:b})"
        return f"InitRegisters({self.mode})"

    def apply(self, program: Program, context: PassContext) -> None:
        program.register_init = self.mode
        if self.mode == "pattern":
            program.init_pattern = self.pattern


class InitImmediates(Pass):
    """Assign immediate operand values throughout the body.

    Displacement operands are exempt: they carry addresses planned by
    the memory pass, not data.
    """

    def __init__(self, mode: str = "random", pattern: int = 0b01010101) -> None:
        _check_mode(mode)
        self.mode = mode
        self.pattern = pattern

    @property
    def name(self) -> str:
        if self.mode == "pattern":
            return f"InitImmediates(pattern=0b{self.pattern:b})"
        return f"InitImmediates({self.mode})"

    def apply(self, program: Program, context: PassContext) -> None:
        if not program.body:
            raise PassError(f"{program.name}: nothing to initialize")
        program.immediate_init = self.mode
        for instruction in program.body:
            for name, width in instruction.definition.immediate_fields:
                instruction.immediates[name] = self._value(width, context)

    def _value(self, width: int, context: PassContext) -> int:
        # Immediates are encoded as signed fields; stay within the
        # non-negative half so every mode emits valid assembly.
        limit = max(1, 2 ** (width - 1) - 1)
        if self.mode == "zero":
            return 0
        if self.mode == "pattern":
            return self.pattern & limit
        return context.rng.randint(0, limit)


# -- repro/core/passes/ilp.py -----------------------------------------------

_ILP_MODES = ("none", "chain", "fixed", "random", "mean")
#: How far around the requested distance to search for a compatible producer.
_SEARCH_WINDOW = 8

class DependencyDistance(Pass):
    """Assign dependency distances and wire registers accordingly."""

    def __init__(
        self,
        mode: str = "random",
        distance: int | None = None,
        min_distance: int = 1,
        max_distance: int = 32,
        mean_distance: float | None = None,
    ) -> None:
        if mode not in _ILP_MODES:
            raise ValueError(f"mode must be one of {_ILP_MODES}, got {mode!r}")
        if mode == "fixed" and (distance is None or distance < 1):
            raise ValueError("fixed mode needs distance >= 1")
        if mode == "mean" and (mean_distance is None or mean_distance < 1):
            raise ValueError("mean mode needs mean_distance >= 1")
        if min_distance < 1 or max_distance < min_distance:
            raise ValueError("need 1 <= min_distance <= max_distance")
        self.mode = mode
        self.distance = distance
        self.min_distance = min_distance
        self.max_distance = max_distance
        self.mean_distance = mean_distance

    @property
    def name(self) -> str:
        if self.mode == "fixed":
            return f"DependencyDistance(fixed={self.distance})"
        if self.mode == "random":
            return (
                f"DependencyDistance(random "
                f"[{self.min_distance}, {self.max_distance}])"
            )
        if self.mode == "mean":
            return f"DependencyDistance(mean={self.mean_distance:g})"
        return f"DependencyDistance({self.mode})"

    def apply(self, program: Program, context: PassContext) -> None:
        slots = program.workload_slots()
        if not slots:
            raise PassError(f"{program.name}: no instructions to link")

        if self.mode == "none":
            for index in slots:
                program.body[index].dep_distance = None
                program.body[index].dep_operand = None
            return

        body = program.body
        # Index table of each slot's (name, kind, number) target, ``None``
        # where no dependency can start (structural or writing nothing).
        targets = [
            None if ins.structural else ins.target_register() for ins in body
        ]
        candidates: dict[int, list[int]] = {}
        for index in slots:
            wanted = self._wanted_distance(context)
            order = candidates.get(wanted)
            if order is None:
                order = candidates[wanted] = _candidates(wanted, len(body))
            self._link(body, targets, index, order)

    def _wanted_distance(self, context: PassContext) -> int:
        if self.mode == "chain":
            return 1
        if self.mode == "fixed":
            assert self.distance is not None
            return self.distance
        if self.mode == "mean":
            # Bernoulli mix of floor/ceil realizes a fractional mean
            # distance; random assignment mixes the distances within
            # dependence cycles, so steady-state IPC interpolates.
            assert self.mean_distance is not None
            low = int(self.mean_distance)
            fraction = self.mean_distance - low
            if context.rng.random() < fraction:
                return low + 1
            return low
        return context.rng.randint(self.min_distance, self.max_distance)

    @staticmethod
    def _link(
        body: list[IRInstruction],
        targets: list[tuple[str, OperandKind, int] | None],
        index: int,
        candidates: list[int],
    ) -> None:
        """Try body distances around the wanted one until kinds match.

        Distances are expressed in *body* positions (the same space the
        machine substrate and the validation pass use); structural
        slots are never selected as producers.  Data-register sources
        are preferred across the whole search window before any
        address-register (pointer-chase) link is considered, so memory
        operations keep their planned addressing whenever a data
        dependency can realize the distance.
        """
        consumer = body[index]
        groups = consumer.definition.dependency_sources
        if not groups:
            consumer.dep_distance = None
            return
        for sources in groups:
            for candidate in candidates:
                target = targets[index - candidate]  # wraps like the loop
                if target is None:
                    continue
                __, kind, number = target
                for source_name, source_kind in sources:
                    if source_kind is kind:
                        consumer.registers[source_name] = number
                        consumer.dep_distance = candidate
                        consumer.dep_operand = source_name
                        # A read-write source renames the consumer's
                        # own target (``XT`` of the VSX FMAs).
                        targets[index] = consumer.target_register()
                        return
        consumer.dep_distance = None
        consumer.dep_operand = None


def _candidates(wanted: int, size: int) -> list[int]:
    """Distances tried for ``wanted``, nearest first, inside the body."""
    order = [wanted]
    for delta in range(1, _SEARCH_WINDOW + 1):
        order += (wanted + delta, wanted - delta)
    return [candidate for candidate in order if 1 <= candidate < size]


# -- repro/core/passes/order.py ---------------------------------------------

_ORDER_MODES = ("shuffle", "interleave", "blocked", "rotate")


class SequenceOrder(Pass):
    """Reorder the workload slots of the body.

    Modes:
        * ``shuffle`` -- random permutation;
        * ``interleave`` -- round-robin across functional-unit groups
          (maximizes unit alternation between neighbours);
        * ``blocked`` -- group instructions by functional unit
          (minimizes alternation);
        * ``rotate`` -- rotate the sequence by ``amount`` slots.
    """

    def __init__(self, mode: str = "shuffle", amount: int = 0) -> None:
        if mode not in _ORDER_MODES:
            raise ValueError(f"mode must be one of {_ORDER_MODES}, got {mode!r}")
        self.mode = mode
        self.amount = amount

    @property
    def name(self) -> str:
        if self.mode == "rotate":
            return f"SequenceOrder(rotate {self.amount})"
        return f"SequenceOrder({self.mode})"

    def apply(self, program: Program, context: PassContext) -> None:
        slots = program.workload_slots()
        if not slots:
            raise PassError(f"{program.name}: nothing to reorder")
        instructions = [program.body[index] for index in slots]

        if self.mode == "shuffle":
            context.rng.shuffle(instructions)
        elif self.mode == "rotate":
            shift = self.amount % len(instructions)
            instructions = instructions[shift:] + instructions[:shift]
        else:
            groups: dict[str, list] = {}
            for instruction in instructions:
                props = context.arch.props(instruction.mnemonic)
                unit = props.usages[0].units[0] if props.usages else "-"
                groups.setdefault(unit, []).append(instruction)
            if self.mode == "blocked":
                instructions = [
                    instruction
                    for unit in sorted(groups)
                    for instruction in groups[unit]
                ]
            else:  # interleave
                instructions = []
                queues = [groups[unit] for unit in sorted(groups)]
                cursors = [0] * len(queues)
                while any(c < len(q) for c, q in zip(cursors, queues)):
                    for position, queue in enumerate(queues):
                        if cursors[position] < len(queue):
                            instructions.append(queue[cursors[position]])
                            cursors[position] += 1

        for index, instruction in zip(slots, instructions):
            program.body[index] = instruction
            instruction.dep_distance = None


# -- repro/core/passes/branch.py --------------------------------------------

class BranchBehavior(Pass):
    """Replace a fraction of slots with predictable conditional branches.

    Args:
        fraction: Fraction of workload slots to turn into branches.
        mnemonic: Branch mnemonic to plant (default ``bc`` -- a
            conditional branch whose condition the init passes keep
            false, so it falls through and the loop structure is
            preserved).
    """

    def __init__(self, fraction: float, mnemonic: str = "bc") -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        self.fraction = fraction
        self.mnemonic = mnemonic

    @property
    def name(self) -> str:
        return f"BranchBehavior({self.fraction:.0%} {self.mnemonic})"

    def apply(self, program: Program, context: PassContext) -> None:
        slots = program.workload_slots()
        if not slots:
            raise PassError(f"{program.name}: no slots for branch planting")
        definition = context.arch.isa.instruction(self.mnemonic)
        if not definition.is_branch:
            raise PassError(f"{self.mnemonic!r} is not a branch")
        count = round(self.fraction * len(slots))
        for index in context.rng.sample(slots, count):
            instruction = program.body[index]
            instruction.definition = definition
            instruction.registers = {}
            instruction.immediates = {}
            instruction.dep_distance = None
            instruction.address = None
            instruction.source_level = None
            instruction.comment = "planted branch (fall-through)"


# -- repro/core/passes/verify.py --------------------------------------------

class ValidateProgram(Pass):
    """Check IR well-formedness after all transformations."""

    def apply(self, program: Program, context: PassContext) -> None:
        body = program.body
        if not body:
            raise PassError(f"{program.name}: empty program")
        size = len(body)
        for index, instruction in enumerate(body):
            definition = instruction.definition
            for name in definition.required_registers:
                if name not in instruction.registers:
                    raise _slot_error(
                        program, index, f"operand {name} unassigned"
                    )
            if definition.accesses_memory and not instruction.structural:
                if instruction.address is None:
                    raise _slot_error(
                        program, index, "memory instruction without a "
                        "planned address; run a MemoryModel pass"
                    )
            distance = instruction.dep_distance
            if distance is not None:
                if distance < 1 or distance >= size:
                    raise _slot_error(
                        program, index,
                        f"dependency distance {distance} out of range",
                    )
                producer = body[index - distance]  # wraps like the loop
                if producer.target_register() is None:
                    raise _slot_error(
                        program, index, f"producer at distance {distance} "
                        f"({producer.mnemonic}) writes no register",
                    )


def _slot_error(program: Program, index: int, reason: str) -> PassError:
    mnemonic = program.body[index].mnemonic
    return PassError(f"{program.name} slot {index} ({mnemonic}): {reason}")


# -- replaying a production recipe --------------------------------------------

#: The oracle twin of each production pass class, by class name.
TWINS = {
    cls.__name__: cls
    for cls in (
        BranchBehavior, DependencyDistance, EndlessLoopSkeleton,
        InitImmediates, InitRegisters, InstructionDistribution,
        MemoryModel, SequenceOrder, ValidateProgram,
    )
}


def twin(pass_) -> Pass:
    """The oracle pass with ``pass_``'s class name and constructor state."""
    cls = TWINS[type(pass_).__name__]
    copy = cls.__new__(cls)
    copy.__dict__.update(vars(pass_))
    return copy


def synthesize(
    synth, ordinal: int, name: str | None = None
) -> tuple[Program, PassContext]:
    """Synthesis call ``ordinal`` of ``synth`` on the oracle pipeline.

    Mirrors ``Synthesizer.synthesize`` step for step: the same random
    stream, a fresh register allocator, the validation pass appended
    when the synthesizer validates, and the pass names recorded.
    """
    if name is None:
        name = f"{synth.name_prefix}-{ordinal}"
    context = PassContext(
        arch=synth.arch,
        rng=random.Random(f"{synth.seed}:{ordinal}"),
        pools=RegisterPools(),
        synthesis_index=ordinal,
    )
    program = Program(name=name, arch=synth.arch)
    pipeline = [twin(pass_) for pass_ in synth.passes]
    if synth.validate:
        pipeline.append(ValidateProgram())
    for pass_ in pipeline:
        pass_.apply(program, context)
    program.metadata["passes"] = [pass_.name for pass_ in pipeline]
    return program, context

"""The micro-benchmark synthesizer: the pass manager (paper Fig. 1-2).

The synthesizer holds a user-ordered list of passes and applies them to
a fresh program on every :meth:`Synthesizer.synthesize` call.  Each
call derives its own random stream from the synthesizer seed and the
call ordinal, so ``for i in range(10): synth.synthesize()`` yields ten
*different* micro-benchmarks implementing the same policy -- exactly
the paper's Figure-2 example.

Synthesis is a pure function of its *recipe*: the architecture, the
seed, the name prefix, the validate flag, the ordinal and every pass
with its constructor parameters.  :meth:`Synthesizer.recipe_key` hashes
that recipe, and :meth:`Synthesizer.kernel` looks the key up in a
:class:`KernelMemo` over a result store before synthesizing, so a
training suite built once loads from disk on every later run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import random

from repro.core.ir import Program
from repro.core.passes.base import Pass, PassContext
from repro.core.passes.verify import ValidateProgram
from repro.core.registers import RegisterPools
from repro.errors import SynthesisError
from repro.hashing import content_hex
from repro.march.definition import MicroArchitecture
from repro.sim.kernel import Kernel

#: Version of what a recipe synthesizes; it enters every memo key.
#: Bump it with any change that moves synthesis output -- one that
#: re-records ``tests/golden/synthesis_corpus.json`` -- so stores
#: written before the change miss instead of serving stale kernels.
SYNTHESIS_VERSION = 1


class KernelMemo:
    """A result store's kernel records, as one suite call sees them.

    Computes the architecture digest once and collects the kernels
    synthesized on misses; leaving the ``with`` block writes them back
    in one batch, one locked append per touched shard.  The store is
    anything with ``get_kernel(key)`` and ``put_kernels(entries)``
    (:class:`~repro.exec.store.ResultStore`).
    """

    def __init__(self, store, arch: MicroArchitecture) -> None:
        self.store = store
        self.arch_digest = arch.content_digest()
        #: (recipe key, kernel) synthesized on misses, not yet written.
        self.pending: list[tuple[str, Kernel]] = []

    def __enter__(self) -> "KernelMemo":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.pending:
            self.store.put_kernels(self.pending)
            self.pending = []


def kernel_memo(store, arch: MicroArchitecture):
    """A :class:`KernelMemo` over ``store``, or a null context without one."""
    if store is None:
        return contextlib.nullcontext()
    return KernelMemo(store, arch)


class Synthesizer:
    """Applies an ordered pass pipeline to produce micro-benchmarks.

    Args:
        arch: Target micro-architecture (binds the ISA too).
        seed: Base seed; synthesis ``i`` uses stream ``(seed, i)``.
        name_prefix: Benchmark names are ``{prefix}-{ordinal}``.
        validate: Append the :class:`ValidateProgram` pass automatically.
    """

    def __init__(
        self,
        arch: MicroArchitecture,
        seed: int = 0,
        name_prefix: str = "ubench",
        validate: bool = True,
    ) -> None:
        self.arch = arch
        self.seed = seed
        self.name_prefix = name_prefix
        self.validate = validate
        self._passes: list[Pass] = []
        self._counter = 0

    @property
    def passes(self) -> tuple[Pass, ...]:
        """The configured pipeline, in application order."""
        return tuple(self._passes)

    def add_pass(self, pass_: Pass) -> "Synthesizer":
        """Append a pass; returns self so calls chain."""
        if not isinstance(pass_, Pass):
            raise SynthesisError(
                f"add_pass needs a Pass instance, got {type(pass_).__name__}"
            )
        self._passes.append(pass_)
        return self

    def clear_passes(self) -> None:
        self._passes.clear()

    def synthesize(self, name: str | None = None) -> Program:
        """Apply the pipeline to a fresh program.

        Raises:
            SynthesisError: If no passes are configured.
            PassError: If a pass cannot be applied (bad ordering etc.).
        """
        if not self._passes:
            raise SynthesisError("no passes configured")
        ordinal = self._counter
        self._counter += 1
        if name is None:
            name = f"{self.name_prefix}-{ordinal}"

        context = PassContext(
            arch=self.arch,
            rng=random.Random(f"{self.seed}:{ordinal}"),
            pools=RegisterPools(),
            synthesis_index=ordinal,
        )
        program = Program(name=name, arch=self.arch)
        pipeline = list(self._passes)
        if self.validate:
            pipeline.append(ValidateProgram())
        for pass_ in pipeline:
            pass_.apply(program, context)
        program.metadata["passes"] = [pass_.name for pass_ in pipeline]
        return program

    def recipe_key(self, arch_digest: int) -> str | None:
        """Content key of the kernel the next :meth:`synthesize` builds.

        Hashes :data:`SYNTHESIS_VERSION`, ``arch_digest`` (the
        architecture's :meth:`~MicroArchitecture.content_digest`), the
        seed's ``repr``, the name prefix, the validate flag, the ordinal
        and each pass's class with its constructor parameters -- read
        through the ``__init__`` signature, mappings in their insertion
        order.  ``None`` when the recipe is not canonical: no passes, a
        seed that is not an int or str, a pass class outside
        :mod:`repro.core.passes`, or a parameter that is not plain JSON
        data (an ``InstructionDef`` in a pool, a NaN).
        """
        if (
            not self._passes
            or type(self.seed) not in (int, str)
            or type(self.name_prefix) is not str
        ):
            return None
        passes = []
        for pass_ in self._passes:
            recipe = _pass_recipe(pass_)
            if recipe is None:
                return None
            passes.append(recipe)
        text = json.dumps(
            [
                SYNTHESIS_VERSION,
                arch_digest,
                repr(self.seed),
                self.name_prefix,
                bool(self.validate),
                self._counter,
                passes,
            ]
        )
        return content_hex("kernel-recipe-v1|" + text)

    def kernel(self, memo: KernelMemo | None = None) -> Kernel:
        """The next micro-benchmark as a :class:`Kernel`.

        ``synthesize().to_kernel()``, unless ``memo``'s store holds the
        kernel of this exact recipe (:meth:`recipe_key`): then it is
        loaded instead.  A loaded kernel ``==`` the one synthesis
        builds, and the ordinal advances just as a synthesis advances
        it (kernel names embed it).  A synthesized kernel of a
        canonical recipe is queued on the memo for writing.
        """
        key = None if memo is None else self.recipe_key(memo.arch_digest)
        if key is not None:
            found = memo.store.get_kernel(key)
            if found is not None:
                self._counter += 1
                return found
        kernel = self.synthesize().to_kernel()
        if key is not None:
            memo.pending.append((key, kernel))
        return kernel


def _pass_recipe(pass_: Pass) -> list | None:
    """``[class, [[parameter, value], ...]]`` of a pass, or ``None``."""
    cls = type(pass_)
    names = _init_parameters(cls)
    if names is None:
        return None
    state = vars(pass_)
    parameters = []
    for name in names:
        if name not in state or not _plain(state[name]):
            return None
        parameters.append([name, state[name]])
    return [f"{cls.__module__}.{cls.__qualname__}", parameters]


@functools.lru_cache(maxsize=None)
def _init_parameters(cls: type) -> tuple[str, ...] | None:
    """Constructor parameter names of a library pass class, else ``None``."""
    if not cls.__module__.startswith("repro.core.passes."):
        return None
    parameters = inspect.signature(cls).parameters.values()
    if any(p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD) for p in parameters):
        return None
    return tuple(parameter.name for parameter in parameters)


def _plain(value) -> bool:
    """Whether JSON renders ``value`` exactly and unambiguously."""
    kind = type(value)
    if value is None or kind in (str, int, bool):
        return True
    if kind is float:
        return math.isfinite(value)
    if kind is list:
        return all(map(_plain, value))
    if kind is dict:
        return all(
            type(name) is str and _plain(item) for name, item in value.items()
        )
    return False

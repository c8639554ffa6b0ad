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
that recipe, and :func:`build_kernels` looks the key up in a
:class:`KernelMemo` over a result store before synthesizing, so a
training suite built once loads from disk on every later run.  Recipes
draw only from their own streams, so a forked child may build part of
a batch, unseen by in-process patches (tests pin :func:`_usable_cpus`).
"""

from __future__ import annotations

import contextlib
import copy
import functools
import inspect
import json
import math
import os
import pickle
import random
import signal
import threading

from repro.core.ir import Program
from repro.core.passes.base import Pass, PassContext
from repro.core.passes.skeleton import EndlessLoopSkeleton
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

#: Loop instructions a forked child's share must hold: smaller shares
#: cost more to fork, pickle and reap than they save (break-even near
#: 2,000 beside a 73 MB parent and 4,500 beside a 273 MB one).
FORK_MIN_INSTRUCTIONS = 4096


class KernelMemo:
    """A result store's kernel records, as one suite call sees them.

    Computes the architecture digest once and collects the kernels
    synthesized on misses; leaving the ``with`` block writes them back
    in one batch, one locked append per touched shard.  The store is
    anything with ``get_kernels(keys)`` (one batch read of a suite's
    recipe keys, ``None`` for each miss) and ``put_kernels(entries)``
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
        """The next micro-benchmark as a :class:`Kernel`: the batch of
        one, ``build_kernels([self], memo)[0]``."""
        return build_kernels([self], memo)[0]


def build_kernels(
    synthesizers: list[Synthesizer], memo: KernelMemo | None = None
) -> list[Kernel]:
    """Each synthesizer's next micro-benchmark as a :class:`Kernel`.

    Every recipe is looked up in ``memo``'s store first (each lookup
    counts, even past a recipe that fails); the misses are synthesized
    here and in a forked child when that pays (:func:`_split`).  Then,
    in order, kernels are queued on the memo and ordinals advance up to
    the first recipe that fails, which is synthesized again here to
    raise its own error.  A synthesizer appears at most once.
    """
    keys = [memo and s.recipe_key(memo.arch_digest) for s in synthesizers]
    found = iter(memo.store.get_kernels([k for k in keys if k]) if memo else ())
    kernels = [key and next(found) for key in keys]
    misses = [i for i, kernel in enumerate(kernels) if kernel is None]
    delivered = _split(synthesizers, misses)
    for position, synth in enumerate(synthesizers):
        hit = kernels[position] is not None
        kernel = kernels[position] if hit else delivered.get(position)
        if kernel is None:  # its share stopped short of it: a failing
            kernel = synth.synthesize().to_kernel()  # recipe raises here
        else:
            synth._counter += 1
        if not hit and keys[position] is not None:
            memo.pending.append((keys[position], kernel))
        kernels[position] = kernel
    return kernels


def _usable_cpus() -> int:
    """How many CPUs this process may run on (1 if it cannot tell)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return 1 if getaffinity is None else len(getaffinity(0))


def _synthesized(synthesizers: list[Synthesizer], positions) -> dict:
    """``{position: kernel}`` of ``positions``, in order, up to the
    first recipe that fails; built on copies, so no ordinal moves."""
    kernels = {}
    for position in positions:
        try:
            synth = copy.copy(synthesizers[position])
            kernels[position] = synth.synthesize().to_kernel()
        except Exception:  # build_kernels reruns it to raise, in order
            break
    return kernels


def _split(synthesizers: list[Synthesizer], positions: list[int]) -> dict:
    """:func:`_synthesized` of ``positions``, every other one built by a
    forked child (pickled back, ``os._exit``) when that pays: two usable
    CPUs, no second live thread (unsafe to fork) and a share of at least
    :data:`FORK_MIN_INSTRUCTIONS` loop instructions.  The child is reaped
    before this returns or raises; one that exits without its kernels
    raises :class:`SynthesisError`."""
    share = positions[1::2]
    passes = [p for i in share for p in synthesizers[i].passes]
    work = sum(p.size for p in passes if isinstance(p, EndlessLoopSkeleton))
    alone = threading.active_count() == 1
    if not alone or _usable_cpus() < 2 or work < FORK_MIN_INSTRUCTIONS:
        return _synthesized(synthesizers, positions)
    received, sending = map(open, os.pipe(), ("rb", "wb"))
    with sending:
        try:
            pid = os.fork()
        except OSError:  # EAGAIN, ENOMEM: this process builds them all
            received.close()
            return _synthesized(synthesizers, positions)
        if pid == 0:
            try:
                pickle.dump(_synthesized(synthesizers, share), sending)
                sending.flush()
                os._exit(0)
            finally:
                os._exit(1)
    try:
        delivered = _synthesized(synthesizers, positions[::2])
        sent = received.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        received.close()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        message = f"a forked synthesis child exited with status {status}"
        raise SynthesisError(message)
    delivered.update(pickle.loads(sent))
    return delivered


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

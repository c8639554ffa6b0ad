"""TPMD-like power sensor model.

The paper reads the POWER7's Thermal and Power Management Device
through the Flexible Support Processor: milliwatt-granularity samples
at 1 ms intervals.  This module adds the imperfections a real sensor
chain has -- per-sample Gaussian noise, milliwatt quantisation, and a
small run-to-run calibration offset that does *not* average away over
a measurement window (the dominant contributor to model error).

Everything is deterministic given a seed, so experiments reproduce
bit-for-bit.
"""

from __future__ import annotations

import math
import random
import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

#: Sensor sampling interval (paper: 1 ms granularity).
SAMPLE_INTERVAL_S = 1e-3
#: Per-sample Gaussian noise, watts.
SAMPLE_NOISE_W = 0.5
#: Run-to-run calibration offset, as a fraction of true power (1 sigma).
RUN_OFFSET_FRACTION = 0.012
#: Sensor quantum: 1 milliwatt.
QUANTUM_W = 1e-3


def stable_seed(*parts: object) -> int:
    """Deterministic 32-bit seed from arbitrary labels.

    Uses CRC32 rather than ``hash()`` so results do not depend on
    Python's per-process hash randomization.

    Measurement identity flows in through the parts: the workload (or
    placement) name, the configuration label -- which embeds the DVFS
    p-state when non-nominal, so every operating point draws fresh
    noise -- the window length, the machine seed, and a content salt
    (kernel digest, or the placement's canonical per-thread digest
    combination, which is invariant under co-runner permutation).
    """
    text = "|".join(str(part) for part in parts)
    return zlib.crc32(text.encode())


@dataclass(frozen=True)
class SensorSummary:
    """Reduced statistics of a sensor trace over one window."""

    mean_power: float
    power_std: float
    sample_count: int


# -- batched Mersenne-Twister seeding -----------------------------------------
#
# The noise draws of a measurement cell are, by contract, the first two
# ``random.Random(seed).gauss`` values -- which consume exactly the
# first two uniform doubles of a CPython-seeded MT19937 stream.  The
# per-cell generator construction (~6 us of C state initialization) is
# the throughput floor of the whole measurement plane, so the batched
# sensor replays CPython's seeding *across all cells at once* as uint32
# array arithmetic: ``random_seed`` for a sub-2^32 integer key is
# ``init_by_array`` over a single-word key, a pair of sequential
# 624-step mixing recurrences that vectorize perfectly across cells.
# Only the first four raw outputs are needed, so the twist runs for
# four rows instead of 624.  Everything below is integer arithmetic mod
# 2^32 (bit-exact on any platform) except the final uniform-double
# conversion, which replays the C double expression operation for
# operation; the Gaussian trig is then evaluated per cell with the
# same ``math`` functions ``random.gauss`` uses.  A property test
# asserts draw-for-draw equality with ``random.Random``.

_MT_N = 624
_MT_M = 397
_MT_UPPER = np.uint32(0x8000_0000)
_MT_LOWER = np.uint32(0x7FFF_FFFF)
_MT_MATRIX_A = np.uint32(0x9908_B0DF)
#: Minimum *cache-miss* count for the vectorized seeding; the 1247
#: sequential mixing steps are vector ops whose fixed dispatch
#: overhead needs a wide batch to amortize.  Below this the exact
#: per-cell C loop wins (measured crossover ~500 fresh seeds).  Note
#: this threshold only applies to seeds the draw cache has never seen:
#: re-measured cells skip seeding entirely at any batch size, which is
#: what pushes the *effective* crossover to 1 for warm campaigns.
MT_BATCH_MIN = 512
#: Most seeds replayed in one vectorized pass.  A pass holds a
#: ``(624 x seeds)`` uint32 state matrix, so wider batches split into
#: even chunks: a sweep's 17,280 fresh seeds then hold 14 MB at a time
#: instead of 43 MB, for two extra passes of fixed dispatch cost.
MT_CHUNK = 8192


def _mt_base_state() -> np.ndarray:
    """State after ``init_genrand(19650218)`` -- shared by every seed."""
    state = [19650218]
    for index in range(1, _MT_N):
        previous = state[-1]
        state.append(
            (1812433253 * (previous ^ (previous >> 30)) + index)
            & 0xFFFF_FFFF
        )
    return np.array(state, dtype=np.uint32)


_MT_BASE = _mt_base_state()


def _mt_first_uniform_pairs(seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """First two ``random()`` doubles of ``random.Random(seed)``, batched.

    Seeds must be non-negative and below 2^32 (``stable_seed`` values
    always are), so CPython's ``init_by_array`` key is the single word
    ``seed``.  Returns two float64 arrays, bit-identical per element to
    the scalar generator's first two uniforms.  Batches wider than
    :data:`MT_CHUNK` replay in even chunks.
    """
    key = np.asarray(seeds, dtype=np.uint32)
    chunks = -(-key.shape[0] // MT_CHUNK)
    if chunks <= 1:
        return _mt_replay(key)
    pairs = [_mt_replay(part) for part in np.array_split(key, chunks)]
    return (
        np.concatenate([first for first, _ in pairs]),
        np.concatenate([second for _, second in pairs]),
    )


def _mt_replay(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One vectorized pass of :func:`_mt_first_uniform_pairs`."""
    cells = key.shape[0]
    state = np.empty((_MT_N, cells), dtype=np.uint32)
    state[:] = _MT_BASE[:, None]

    # init_by_array, single-word key: j stays 0 throughout loop 1.
    # The recurrences are sequential in the state index but vectorize
    # across cells; in-place ufuncs keep each step allocation-free.
    mult1 = np.uint32(1664525)
    mult2 = np.uint32(1566083941)
    scratch = np.empty_like(key)
    xor = np.bitwise_xor
    rshift = np.right_shift
    i = 1
    for _ in range(_MT_N):
        previous = state[i - 1]
        rshift(previous, 30, out=scratch)
        xor(scratch, previous, out=scratch)
        scratch *= mult1
        row = state[i]
        row ^= scratch
        row += key
        i += 1
        if i >= _MT_N:
            state[0] = state[_MT_N - 1]
            i = 1
    for _ in range(_MT_N - 1):
        previous = state[i - 1]
        rshift(previous, 30, out=scratch)
        xor(scratch, previous, out=scratch)
        scratch *= mult2
        row = state[i]
        row ^= scratch
        row -= np.uint32(i)
        i += 1
        if i >= _MT_N:
            state[0] = state[_MT_N - 1]
            i = 1
    state[0] = _MT_UPPER

    # First four outputs of the twist (rows 0..3 only: they depend on
    # original rows 0..4 and 397..400 alone).
    y = (state[0:4] & _MT_UPPER) | (state[1:5] & _MT_LOWER)
    raw = state[_MT_M : _MT_M + 4] ^ (y >> np.uint32(1)) ^ (
        (y & np.uint32(1)) * _MT_MATRIX_A
    )
    # Tempering.
    raw = raw ^ (raw >> np.uint32(11))
    raw = raw ^ ((raw << np.uint32(7)) & np.uint32(0x9D2C_5680))
    raw = raw ^ ((raw << np.uint32(15)) & np.uint32(0xEFC6_0000))
    raw = raw ^ (raw >> np.uint32(18))

    # random_random(): (a>>5) * 67108864.0 + (b>>6), scaled by 2^-53.
    scale = 1.0 / 9007199254740992.0
    first = (
        (raw[0] >> np.uint32(5)).astype(np.float64) * 67108864.0
        + (raw[1] >> np.uint32(6)).astype(np.float64)
    ) * scale
    second = (
        (raw[2] >> np.uint32(5)).astype(np.float64) * 67108864.0
        + (raw[3] >> np.uint32(6)).astype(np.float64)
    ) * scale
    return first, second


# -- draw-constant cache ------------------------------------------------------
#
# The two Gaussian draws of a cell factor into per-seed *constants*:
# ``random.gauss(0.0, RUN_OFFSET_FRACTION)`` is ``0.0 +
# (cos(x2pi) * g2rad) * RUN_OFFSET_FRACTION`` (independent of power and
# window), and the second draw is ``0.0 + z2 * sigma`` with ``z2 =
# sin(x2pi) * g2rad`` cached by the generator itself.  Both constants
# are pure functions of the seed, so they memoize like every other
# content-keyed value in the system: once a cell's seed has been seen,
# *no* MT19937 seeding happens on a re-measure -- at any batch size.
# That is what moves the practical vectorization crossover from ~800
# cells to 1.  The cache is two plain-dict generations (cheaper per
# hit than an ordered LRU) swapped at capacity, so memory stays
# bounded without per-access bookkeeping.  Each seed's pair is stored
# as one ``complex`` (offset draw as the real part, residual z as the
# imaginary part): two exact doubles in one 32-byte object, where a
# tuple of two floats costs 104 bytes.

#: Seeds retained per generation (two generations resident).
DRAW_CACHE_GENERATION = 1 << 18

_TWO_PI = 2.0 * math.pi


class _DrawCache:
    """Two-generation seed -> ``complex(offset draw, residual z)`` memo."""

    __slots__ = ("current", "previous", "hits", "misses")

    def __init__(self) -> None:
        self.current: dict[int, complex] = {}
        self.previous: dict[int, complex] = {}
        self.hits = 0
        self.misses = 0

    def rotate_if_full(self) -> None:
        if len(self.current) >= DRAW_CACHE_GENERATION:
            self.previous = self.current
            self.current = {}

    def clear(self) -> None:
        self.current = {}
        self.previous = {}

    def stats(self) -> dict:
        return {
            "name": "sensor.draws",
            "size": len(self.current) + len(self.previous),
            "capacity": 2 * DRAW_CACHE_GENERATION,
            "hits": self.hits,
            "misses": self.misses,
        }


_DRAWS = _DrawCache()


def draw_cache_stats() -> dict:
    """Hit/miss/size counters of the sensor draw-constant cache."""
    return _DRAWS.stats()


def _scalar_draw_constants(seed: int, rng: random.Random) -> tuple[float, float]:
    """One seed's draw constants via the exact ``random.gauss`` arithmetic.

    ``Random.seed`` resets the cached gauss pair, so a reused generator
    draws exactly like a freshly constructed one.
    """
    rng.seed(seed)
    u1 = rng.random()
    u2 = rng.random()
    x2pi = u1 * _TWO_PI  # random.gauss's TWOPI
    g2rad = math.sqrt(-2.0 * math.log(1.0 - u2))
    zo1 = 0.0 + (math.cos(x2pi) * g2rad) * RUN_OFFSET_FRACTION
    z2 = math.sin(x2pi) * g2rad
    return zo1, z2


def draw_constants(seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-seed draw constants ``(zo1, z2)`` for a whole batch.

    ``zo1[i]`` is the first ``gauss(0.0, RUN_OFFSET_FRACTION)`` value of
    ``random.Random(seeds[i])`` and ``z2[i]`` the generator's cached
    second normal (to be scaled by the caller's sigma), both bit-exact.
    Cached seeds resolve with no seeding at all; fresh seeds batch
    through the vectorized MT19937 replay when there are enough of them
    to amortize its fixed dispatch cost, and fall back to the exact
    per-seed C loop otherwise.
    """
    count = len(seeds)
    draws = np.empty(count, dtype=np.complex128)
    cache = _DRAWS
    current = cache.current
    previous = cache.previous
    miss_positions: list[int] = []
    miss_seeds: list[int] = []
    get_current = current.get
    get_previous = previous.get
    hits = 0
    for position, seed in enumerate(seeds):
        pair = get_current(seed)
        if pair is None:
            pair = get_previous(seed)
            if pair is None:
                miss_positions.append(position)
                miss_seeds.append(seed)
                continue
            current[seed] = pair  # promote across the generation swap
        hits += 1
        draws[position] = pair
    cache.hits += hits
    cache.misses += len(miss_seeds)
    if miss_seeds:
        cache.rotate_if_full()
        current = cache.current
        if len(miss_seeds) >= MT_BATCH_MIN:
            # Wide miss batches vectorize the seeding; the Gaussian
            # trig stays per cell with ``math``'s functions (numpy's
            # SIMD trig may differ in the last ulp, and the draw
            # contract is pinned to ``random.gauss``'s arithmetic).
            first, second = _mt_first_uniform_pairs(miss_seeds)
            cos, sin = math.cos, math.sin
            log, sqrt = math.log, math.sqrt
            for position, seed, u1, u2 in zip(
                miss_positions, miss_seeds, first.tolist(), second.tolist()
            ):
                x2pi = u1 * _TWO_PI
                g2rad = sqrt(-2.0 * log(1.0 - u2))
                pair = complex(
                    0.0 + (cos(x2pi) * g2rad) * RUN_OFFSET_FRACTION,
                    sin(x2pi) * g2rad,
                )
                draws[position] = pair
                current[seed] = pair
        else:
            rng = random.Random()
            for position, seed in zip(miss_positions, miss_seeds):
                pair = complex(*_scalar_draw_constants(seed, rng))
                draws[position] = pair
                current[seed] = pair
    return draws.real.copy(), draws.imag.copy()


class PowerSensor:
    """Samples a constant true power over a measurement window."""

    def measure(
        self, true_power: float, duration: float, seed: int
    ) -> SensorSummary:
        """Summarize a window without materializing the trace.

        The mean of ``n`` per-sample noise draws is itself Gaussian
        with sigma ``SAMPLE_NOISE_W / sqrt(n)``; the run offset applies
        in full.  Both draws come from the seeded generator, so
        :meth:`synthesize_trace` reproduces statistically consistent
        traces for the same seed.
        """
        return self.measure_many([true_power], duration, [seed])[0]

    def measure_many(
        self,
        true_powers: Sequence[float],
        duration: float,
        seeds: Sequence[int],
    ) -> list[SensorSummary]:
        """Summarize a whole batch of windows sharing one duration.

        Each returned summary is bit-identical to a standalone
        :meth:`measure` call with the same power, duration and seed;
        see :meth:`measure_batch` for how the draws are batched.
        """
        means, power_std, sample_count = self.measure_batch(
            true_powers, duration, seeds
        )
        return [
            SensorSummary(
                mean_power=mean,
                power_std=power_std,
                sample_count=sample_count,
            )
            for mean in means
        ]

    def measure_batch(
        self,
        true_powers: Sequence[float],
        duration: float,
        seeds: Sequence[int],
    ) -> tuple[list[float], float, int]:
        """``(mean powers, power std, sample count)`` for a whole batch.

        This is the sensor half of the vectorized measurement plane.
        The noise contract is irreducibly per-cell -- every window's
        draws come from its own ``stable_seed``-seeded generator, so a
        measurement can never depend on batch composition or order --
        but the draws factor into per-seed constants served by the
        draw cache (:func:`draw_constants`), leaving only the
        power/sigma application per call: pure Python for narrow
        batches, one elementwise pass for wide ones.  Both replay
        ``random.gauss``'s arithmetic operation for operation.
        """
        sample_count = max(1, int(duration / SAMPLE_INTERVAL_S))
        sigma = SAMPLE_NOISE_W / sample_count ** 0.5
        count = len(true_powers)
        if count < 8:
            zo1, z2 = draw_constants(seeds)
            zo1_list = zo1.tolist()
            z2_list = z2.tolist()
            means = []
            for power, o, z in zip(true_powers, zo1_list, z2_list):
                # Exactly the scalar walk: mean = power + gauss1*power
                # + gauss2, with gauss1 = 0.0 + z1*RUN_OFFSET_FRACTION
                # (folded into o) and gauss2 = 0.0 + z2*sigma.
                mean = power + o * power + (0.0 + z * sigma)
                means.append(round(mean / QUANTUM_W) * QUANTUM_W)
            return means, SAMPLE_NOISE_W, sample_count
        zo1, z2 = draw_constants(seeds)
        power = np.asarray(true_powers, dtype=np.float64)
        mean = (power + zo1 * power) + (0.0 + z2 * sigma)
        means = (np.round(mean / QUANTUM_W) * QUANTUM_W).tolist()
        return means, SAMPLE_NOISE_W, sample_count

    def synthesize_trace(
        self, true_power: float, duration: float, seed: int
    ) -> np.ndarray:
        """Full 1 ms-granularity trace for plotting/analysis examples."""
        sample_count = max(1, int(duration / SAMPLE_INTERVAL_S))
        rng = np.random.default_rng(seed)
        offset = random.Random(seed).gauss(0.0, RUN_OFFSET_FRACTION) * true_power
        samples = true_power + offset + rng.normal(
            0.0, SAMPLE_NOISE_W, sample_count
        )
        return np.round(samples / QUANTUM_W) * QUANTUM_W

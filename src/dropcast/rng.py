"""Deterministic counter-based random number generation.

All randomness in the package (train/test splits, bootstrap samples,
per-split feature subsets, epoch shuffles, synthetic fixtures) flows
through :class:`SeededRng`, a counter-based generator built on the
SplitMix64 mixing function. The seed is scrambled once through the
mixer at construction, so nearby seeds (42, 43, ...) start unrelated
streams; the ``i``-th raw output is then

    mix64(mix64(seed) + i * 0x9E3779B97F4A7C15)

computed in wrapping 64-bit arithmetic. Output is a pure function of
``(seed, counter)``, so streams reproduce bit-for-bit across runs,
processes, and platforms. The process-global ``random`` and
``numpy.random`` states are never touched.

Each method consumes a contiguous block of counter values, so a fixed
call sequence always sees the same stream regardless of batch sizes.
When several logically independent streams are carved out of one seed
(the fixture generator does this per column), use :meth:`child` rather
than interleaving draws: child streams sit at mixer-scrambled offsets
instead of small structured ones, which measurably decorrelates them.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_DOUBLE_SCALE = float(2.0 ** -53)


def check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2**64): streams take seeds modulo 2**64,
    so such a seed would repeat the stream of one inside."""
    if not isinstance(seed, (int, np.integer)):
        raise InvalidArgumentError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise InvalidArgumentError(f"seed must be non-negative, got {seed}")
    if seed > _MASK64:
        raise InvalidArgumentError(f"seed must be below 2**64, got {seed}")


def check_seeds(seeds: tuple[int, ...]) -> None:
    """Reject an empty or repeated seed list, or a seed ``check_seed`` rejects."""
    if not seeds:
        raise InvalidArgumentError("at least one seed is needed")
    for seed in seeds:
        check_seed(seed)
    if len(set(seeds)) != len(seeds):
        raise InvalidArgumentError(f"repeated seed in {list(seeds)}")


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class SeededRng:
    """One SplitMix64 stream per seed, consumed in counter order."""

    def __init__(self, seed: int):
        self._seed = _mix64(np.array([seed & _MASK64], dtype=np.uint64))[0]
        self._counter = 0

    def uint64(self, n: int) -> np.ndarray:
        start = self._counter + 1
        self._counter += n
        idx = np.arange(start, start + n, dtype=np.uint64)
        return _mix64(self._seed + idx * _GAMMA)

    def child(self) -> "SeededRng":
        """Independent stream seeded by one draw from this one."""
        return SeededRng(int(self.uint64(1)[0]))

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), from the top 53 bits of each raw draw."""
        return (self.uint64(n) >> np.uint64(11)).astype(np.float64) * _DOUBLE_SCALE

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n ints uniform on [0, bound) via floor(u * bound).

        The floor construction carries a relative bias of about
        bound * 2**-53, negligible for the array sizes used here, and
        keeps the draw count independent of the values drawn (no
        rejection).
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        return np.floor(self.uniforms(n) * bound).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n): argsort of n raw keys.

        The keys of one call are distinct: their counters are distinct,
        so are the counters times the odd ``_GAMMA`` (mod 2**64), and
        ``_mix64`` is a bijection. So any sort gives the one order that
        a stable sort gives, and the faster unstable sort is used.
        """
        return np.argsort(self.uint64(n)).astype(np.int64, copy=False)


def subsets(streams: list[SeededRng], n: int, k: int) -> np.ndarray:
    """Row i: the first k of ``streams[i].permutation(n)``, sorted, from one
    (streams × n) block of raw keys; each stream advances n counters."""
    if k > n:
        raise ValueError("subset size exceeds population")
    seeds = np.array([stream._seed for stream in streams], dtype=np.uint64)
    starts = np.array([stream._counter + 1 for stream in streams], dtype=np.uint64)
    for stream in streams:
        stream._counter += n
    counters = starts[:, None] + np.arange(n, dtype=np.uint64)
    keys = _mix64(seeds[:, None] + counters * _GAMMA)
    return np.sort(np.argsort(keys, axis=1)[:, :k], axis=1)

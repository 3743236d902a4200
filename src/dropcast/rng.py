"""Deterministic counter-based random number generation.

All randomness in the package (train/test splits, bootstrap samples,
per-split feature subsets, epoch shuffles, synthetic fixtures) comes
from a counter-based generator built on the SplitMix64 mixing function.
A seed is scrambled once through the mixer (``scramble``), so nearby
seeds (42, 43, ...) start unrelated streams; the raw output at counter
``i`` (from 1) is then

    mix64(mix64(seed) + i * 0x9E3779B97F4A7C15)

computed in wrapping 64-bit arithmetic. Output is a pure function of
``(seed, counter)``, so streams reproduce bit-for-bit across runs,
processes, and platforms. The process-global ``random`` and
``numpy.random`` states are never touched.

:class:`SeededRng` is one stream consumed in counter order, so a fixed
call sequence sees the same values regardless of batch sizes.
``subsets`` and ``integer_block`` hold no stream: row i is drawn after
counter ``counters[i]`` of the scrambled seed ``seeds[i]``, as a
``SeededRng`` draws it after ``counters[i]`` values. Lanes compared row
by row (the fixture's columns) take :meth:`SeededRng.child` streams, at
mixer-scrambled rather than small structured offsets, which measurably
decorrelates them.
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
    """The finalizer, in place on the uint64 array ``z``, with one
    temporary of its size."""
    t = z >> np.uint64(30)
    z ^= t
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def scramble(seeds) -> np.ndarray:
    """The uint64 stream keys ``mix64(seed mod 2**64)`` of ``seeds``."""
    return _mix64(np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64))


def _raw_block(seeds: np.ndarray, counters, n: int) -> np.ndarray:
    """(entries × n) raw draws, row i those at counters ``counters[i] + 1``
    to ``counters[i] + n`` of the stream keyed ``seeds[i]``."""
    z = np.asarray(counters, dtype=np.uint64)[:, None] + np.arange(1, n + 1, dtype=np.uint64)
    z *= _GAMMA
    z += seeds[:, None]
    return _mix64(z)


class SeededRng:
    """One SplitMix64 stream per seed, consumed in counter order."""

    def __init__(self, seed: int):
        self._seed = scramble([seed])
        self._counter = 0

    def uint64(self, n: int) -> np.ndarray:
        self._counter += n
        return _raw_block(self._seed, [self._counter - n], n)[0]

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
        out = integer_block(self._seed, [self._counter], n, bound)[0]
        self._counter += n
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Permutation of range(n): argsort of n raw keys.

        The keys of one call are distinct: their counters are distinct,
        so are the counters times the odd ``_GAMMA`` (mod 2**64), and
        ``_mix64`` is a bijection. So any sort gives the one order that
        a stable sort gives, and the faster unstable sort is used.
        """
        return np.argsort(self.uint64(n)).astype(np.int64, copy=False)


def subsets(seeds: np.ndarray, counters, n: int, k: int) -> np.ndarray:
    """Row i: the first k, sorted, of the permutation of range(n) drawn
    at ``(seeds[i], counters[i])``, from one (entries × n) block of raw
    keys."""
    if k > n:
        raise ValueError("subset size exceeds population")
    return np.sort(np.argsort(_raw_block(seeds, counters, n), axis=1)[:, :k], axis=1)


def integer_block(seeds: np.ndarray, counters, n: int, bound: int) -> np.ndarray:
    """Row i: n ints on [0, bound) drawn at ``(seeds[i], counters[i])``
    as ``SeededRng.integers`` draws them, from one (entries × n) block of
    raw draws."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    raw = _raw_block(seeds, counters, n)
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u *= _DOUBLE_SCALE
    u *= bound
    np.floor(u, out=u)
    # The integers go into the raw draws' buffer: one temporary block.
    out = raw.view(np.int64)
    np.copyto(out, u, casting="unsafe")
    return out

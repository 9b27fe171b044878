"""Reproducible, counter-based randomness: game substreams and eval splits.

Every simulated or synthesized game draws from its own counter-based
Philox stream keyed by (seed, game index), so corpora are bit-identical
for a fixed seed regardless of generation order or parallelism.

The train/test splits of `evaluate_predictability` are counter-based
too, but need no generator: `split_permutation` orders the games by a
SplitMix64 hash of (seed, split, game index), computed with numpy's
uint64 array arithmetic. Split k therefore depends only on (seed, k) and
the number of games, and eval and report never load `numpy.random`.
This module imports only numpy and `core` at load time; `numpy.random`
is loaded on the first `substream` call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import _index

_MASK64 = (1 << 64) - 1

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the stream's increment
# (the golden-ratio gamma) and its output mix's two multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def check_seed(seed: int, name: str = "seed") -> int:
    """`seed` (or another Philox key word, `name`) as an int, if it lies in
    [0, 2**64); ValueError otherwise. The CLI takes seeds in this range
    only, so no two seeds share a stream."""
    seed = _index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"{name} must be in [0, 2**64), got {seed}")
    return seed


def substream(seed: int, index: int) -> np.random.Generator:
    """Return the Philox generator for substream `index` of master `seed`."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekeyer(rng: np.random.Generator, seed: int) -> Callable[[int], None]:
    """`rekey(index)`: move `rng` to the state `substream(seed, index)` starts
    in, built once, with only its index word set per call. Cheaper than a
    new generator, which seeds and discards a `SeedSequence` from OS entropy."""
    key, bit_generator = [seed & _MASK64, 0], rng.bit_generator
    state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": key},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def rekey(index: int) -> None:
        key[1] = index & _MASK64
        bit_generator.state = state

    return rekey


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output mix of each uint64 in `z`: a bijection. Array
    arithmetic only: a numpy scalar multiply that wraps warns, an array
    multiply wraps silently."""
    z = (z ^ (z >> 30)) * _MIX1
    z = (z ^ (z >> 27)) * _MIX2
    return z ^ (z >> 31)


def split_permutation(seed: int, split: int, n: int) -> np.ndarray:
    """The game order of train/test split `split` of master `seed` over `n` games.

    Output k of a SplitMix64 stream seeded with s is mix(s + k * gamma).
    Game i's sort key is output i + 1 of the stream seeded with output
    `split` + 1 of the stream seeded with `seed`. A stream's outputs are
    distinct (its state steps by an odd gamma, and the mix is a
    bijection), so the keys never tie and the stable argsort is a
    permutation that depends only on (seed, split, n). `seed` must lie
    in [0, 2**64).
    """
    seed, split = check_seed(seed), _index(split)
    state = _mix64(np.array([(seed + (split + 1) * _GAMMA) & _MASK64], dtype=np.uint64))
    keys = _mix64(state + np.arange(1, n + 1, dtype=np.uint64) * _GAMMA)
    return np.argsort(keys, kind="stable")

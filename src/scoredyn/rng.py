"""Reproducible random-number substreams for parallel game generation.

Every simulated or synthesized game draws from its own counter-based
Philox stream keyed by (seed, game index), so corpora are bit-identical
for a fixed seed regardless of generation order or parallelism.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def substream(seed: int, index: int) -> np.random.Generator:
    """Return the Philox generator for substream `index` of master `seed`."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekey(rng: np.random.Generator, seed: int, index: int) -> None:
    """Move the Philox generator `rng` to the start of substream `index` of
    `seed`: the state `substream(seed, index)` starts in (counter 0, an
    empty output buffer). Cheaper than a new generator, which first seeds
    and then discards a `SeedSequence` from OS entropy. A simulated game's
    draws all come after one re-key, in the order its contract fixes
    (`scoredyn.simulate`); each double takes one 64-bit output."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [seed & _MASK64, index & _MASK64]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }

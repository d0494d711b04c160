"""Counter-addressed random streams: one keyed Philox generator per (root, name, counter).

Every draw in lobmix comes from :func:`make_rng`. A stream is named by a
root seed and a label ("epoch", "init", "holdout", ...), which together
fix the Philox key; the counter addresses a block inside that keyed
stream, e.g. ``make_rng(seed, "epoch", epoch)`` for the rows of one training
epoch (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).
"""
from __future__ import annotations

import hashlib

import numpy as np

MAX_SEED = 2**64 - 1

# Version of the mapping from (root, name, counter) to random numbers. Run
# outputs record it, so runs drawn under different layouts are never mixed.
RNG_LAYOUT = 4


def _word(value: int, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")
    if not 0 <= value <= MAX_SEED:
        raise ValueError(f"{what} must fit in 64 bits, got {value}")
    return value


def make_rng(root: int, name: str, counter: int = 0) -> np.random.Generator:
    """Philox generator keyed by ``(root, name)`` and started at ``counter``.

    The key is the first two little-endian 64-bit words of the sha256 digest
    of the 8-byte big-endian root followed by the UTF-8 name. ``counter``
    fills Philox counter word 1; word 0 is the block counter Philox advances
    as it draws, and words 2-3 are 0. The same address always gives the same
    draws, and changing the root, the name or the counter gives another
    stream.
    """
    _word(root, "root seed")
    words = np.array([0, _word(counter, "counter word"), 0, 0], dtype=np.uint64)
    digest = hashlib.sha256(root.to_bytes(8, "big") + name.encode("utf-8")).digest()
    key = np.frombuffer(digest, dtype="<u8", count=2)
    return np.random.Generator(np.random.Philox(key=key, counter=words))

"""Deterministic per-node randomness.

Every node owns a private source of randomness (the paper's model).  To keep
whole simulations reproducible from a single master seed we derive one child
seed per node with an integer mixing function (a SplitMix64 step), which is
stable across Python processes -- unlike ``hash`` on strings.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    import numpy as np

__all__ = ["derive_seed", "derive_seeds", "node_rng", "fresh_master_seed"]

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    """One SplitMix64 scrambling step (public-domain constants)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (value ^ (value >> 31)) & _MASK64


def derive_seed(master_seed: int, stream: int) -> int:
    """Derive a child seed for stream ``stream`` from ``master_seed``.

    Distinct ``(master_seed, stream)`` pairs map to (practically) independent
    seeds; the same pair always maps to the same seed.
    """
    return _splitmix64(_splitmix64(master_seed & _MASK64) ^ _splitmix64(stream & _MASK64))


def _splitmix64_array(values: np.ndarray) -> np.ndarray:
    """:func:`_splitmix64` of every ``uint64`` in ``values`` (arithmetic
    wraps modulo 2**64, as the masks do)."""
    import numpy as np

    values = values + np.uint64(0x9E3779B97F4A7C15)
    values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


def derive_seeds(master_seed: int, count: int) -> List[int]:
    """``[derive_seed(master_seed, i) for i in range(count)]``, in bulk.

    >>> derive_seeds(7, 3) == [derive_seed(7, i) for i in range(3)]
    True
    """
    import numpy as np

    master = np.uint64(_splitmix64(master_seed & _MASK64))
    streams = _splitmix64_array(np.arange(count, dtype=np.uint64))
    return _splitmix64_array(streams ^ master).tolist()


def node_rng(master_seed: Optional[int], node_index: int) -> random.Random:
    """A private ``random.Random`` for node ``node_index``."""
    if master_seed is None:
        return random.Random()
    return random.Random(derive_seed(master_seed, node_index))


def fresh_master_seed() -> int:
    """A fresh 63-bit master seed from the system entropy pool."""
    return random.SystemRandom().getrandbits(63)

"""Deterministic randomness discipline.

Every stochastic component derives its own :class:`random.Random` stream
from the experiment seed plus a path of names, so adding a new consumer
of randomness never perturbs the draws seen by existing ones. This is
what makes the benchmark tables stable across runs and Python versions.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(seed: int, *path: str) -> int:
    """Derive a child seed from a parent seed and a name path."""
    digest = hashlib.sha256()
    digest.update(str(seed).encode("utf-8"))
    for name in path:
        digest.update(b"/")
        digest.update(name.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def derive_rng(seed: int, *path: str) -> random.Random:
    """A fresh Random stream addressed by ``seed`` and a name path."""
    return random.Random(derive_seed(seed, *path))

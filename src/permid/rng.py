"""Named, seedable, splittable random streams.

Every stochastic operation in the package takes an explicit `Stream`. A
stream is identified by (root seed, label); its state is derived by hashing
that pair, so results are reproducible for any subset of streams regardless
of evaluation order or worker count.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from .errors import ValidationError


class Stream:
    """Deterministic RNG stream derived from a 64-bit root seed and a label."""

    def __init__(self, root: int, label: str = "root"):
        if not isinstance(root, int):
            raise ValidationError("root seed must be an integer")
        if not 0 <= root < 2**64:
            raise ValidationError("root seed must fit in 64 bits")
        self.root = root
        self.label = label
        digest = hashlib.sha256(f"permid:{root}:{label}".encode()).digest()
        self._py_seed = int.from_bytes(digest[:16], "big")
        self._np_seed = int.from_bytes(digest[16:], "big")
        self._rand: random.Random | None = None
        self._np: np.random.Generator | None = None

    def child(self, label: str) -> "Stream":
        """Derive an independent sub-stream; safe to call repeatedly."""
        return Stream(self.root, f"{self.label}/{label}")

    @property
    def rand(self) -> random.Random:
        if self._rand is None:
            self._rand = random.Random(self._py_seed)
        return self._rand

    @property
    def numpy(self) -> np.random.Generator:
        if self._np is None:
            self._np = np.random.Generator(np.random.PCG64(self._np_seed))
        return self._np

    def __repr__(self) -> str:
        return f"Stream(root={self.root}, label={self.label!r})"

"""Deterministic random number generation.

Every stochastic choice in this package flows through :class:`Rng`, a
splitmix64 generator with Box-Muller normal draws.  The generator is defined
in terms of 64-bit integer arithmetic only, so the exact draw sequence can be
reproduced in any language; the full contract (seed expansion, draw order,
float conversion) is documented in ``docs/rng.md``.  Golden files and corpus
trees depend on this sequence byte for byte: do not change it.
"""

import math

M64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

# Stream tags shared through this module; catalog and corpus hold private
# ones (_TAG_*).  docs/rng.md's corpus seed tree shows every derivation.
TAG_TREND_RESAMPLE = 0x54524E44  # trend-series resample attempts
TAG_DESCRIPTION = 0x44455343     # per-variant description seeds
TAG_RETRY = 0x52545259           # record retry seeds


def mix64(x: int) -> int:
    """splitmix64 output mix of a 64-bit word."""
    x &= M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & M64
    return x ^ (x >> 31)


def derive_seed(seed: int, *words: int) -> int:
    """Fold integer words into a seed, one mix64 round per word.

    Used to give sub-tasks (records, resample attempts, description
    variants) independent deterministic streams.
    """
    h = seed & M64
    for w in words:
        h = mix64(((h + GAMMA) & M64) ^ (w & M64))
    return h


class Rng:
    """splitmix64 stream with the documented float conversions.

    Not thread-safe; create one per task from a derived seed instead of
    sharing instances.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & M64

    def next_raw(self) -> int:
        """Next raw 64-bit output word."""
        self._state = (self._state + GAMMA) & M64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1), 53-bit resolution."""
        return (self.next_raw() >> 11) * 2.0 ** -53

    def normal(self) -> float:
        """Standard normal via Box-Muller.

        Consumes exactly two raw words; the sine companion value is
        discarded (no cached state, simpler to port).
        """
        a = self.next_raw()
        b = self.next_raw()
        u1 = ((a >> 11) + 1) * 2.0 ** -53  # (0, 1], keeps log() finite
        u2 = (b >> 11) * 2.0 ** -53        # [0, 1)
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def randint(self, n: int) -> int:
        """Integer in [0, n) as next_raw() mod n.

        The modulo bias is below 2**-50 for any n this package uses; the
        simple rule is part of the frozen contract.
        """
        if n <= 0:
            raise ValueError("randint() requires n >= 1")
        return self.next_raw() % n

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def choice(self, seq):
        if not seq:
            raise ValueError("choice() on empty sequence")
        return seq[self.randint(len(seq))]

    def sample(self, seq, k: int) -> list:
        """k distinct elements via partial Fisher-Yates, order randomized."""
        if not 0 <= k <= len(seq):
            raise ValueError(f"sample() of {k} from sequence of {len(seq)}")
        pool = list(seq)
        for i in range(k):
            j = i + self.randint(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

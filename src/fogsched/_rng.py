"""numpy's seeded PCG64 stream in pure Python.

`Stream(entropy, spawn_key)` gives, bit for bit, the draws of
`numpy.random.default_rng(numpy.random.SeedSequence(entropy,
spawn_key=spawn_key))` for the two calls fogsched makes: `integers(low,
high)` for scalar bounds and `random()`.  The seed is mixed as numpy's
SeedSequence mixes it (pool of four 32-bit words); the generator is PCG64
(O'Neill, HMC-CS-2014-0905: 128-bit LCG, XSL-RR output), and bounded integers
use Lemire's rejection method (ACM TOMACS 2019) on 32-bit draws, as numpy
does for ranges of at most 2^32.  The tests cross-check it against numpy.
"""
from __future__ import annotations

from operator import index

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(value) -> list:
    """A non-negative integer as 32-bit words, least significant first."""
    value = index(value)
    if value < 0:
        raise ValueError(f"entropy must be non-negative, got {value}")
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _seed_state(entropy, spawn_key) -> tuple[int, int]:
    """SeedSequence(entropy, spawn_key).generate_state(4, uint64), read as
    PCG64's (initstate, initseq)."""
    run = _words(entropy)
    spawn = [w for key in spawn_key for w in _words(key)]
    if spawn:
        run += [0] * (4 - len(run))
    words = run + spawn
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = []
    hash_const = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    # pairs of words little-endian into four uint64, then (high, low) pairs
    u = [out[j] | out[j + 1] << 32 for j in range(0, 8, 2)]
    return u[0] << 64 | u[1], u[2] << 64 | u[3]


class Stream:
    """One seeded stream; see the module docstring."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy, spawn_key=()):
        initstate, initseq = _seed_state(entropy, spawn_key)
        self._inc = inc = (initseq << 1 | 1) & _M128
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _M128
        # the upper half of the last 64-bit draw, kept for the next 32-bit one
        self._half = None

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (state >> 64) ^ (state & _M64)
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def random(self) -> float:
        """A float in [0, 1) with 53 random bits; leaves the kept half alone."""
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        """A uniform integer in [low, high), for 1 <= high - low <= 2^32."""
        excl = high - low
        if not 1 <= excl <= 1 << 32:
            raise ValueError(f"integers needs 1 <= high - low <= 2**32, got {excl}")
        if excl == 1:
            return low
        m = self._next32() * excl
        if m & _M32 < excl:
            threshold = ((1 << 32) - excl) % excl
            while m & _M32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)

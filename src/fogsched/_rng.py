"""numpy's seeded PCG64 stream in pure Python.

`Stream(entropy, spawn_key)` gives, bit for bit, the draws of
`numpy.random.default_rng(numpy.random.SeedSequence(entropy,
spawn_key=spawn_key))` for the calls fogsched makes: `integers(low, high)`
and `random()`, each for one draw or, with `size`, for a list of draws.  The
seed is mixed as numpy's SeedSequence mixes it (pool of four 32-bit words);
the generator is PCG64 (O'Neill, HMC-CS-2014-0905: 128-bit LCG, XSL-RR
output), and bounded integers use Lemire's rejection method (ACM TOMACS 2019)
on 32-bit draws, as numpy does for ranges of at most 2^32.  The tests
cross-check it against numpy.

Seeding is two steps.  `mix_entropy(entropy)` mixes the entropy's words into
the pool; the pool it gives does not depend on the spawn key, so a caller
that makes streams for many keys of one entropy mixes it once and makes each
stream with `Stream.from_pool(pool, spawn_key)`, which mixes only the key's
words.  `Stream(entropy, spawn_key)` takes the same two steps.
"""
from __future__ import annotations

from operator import index

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash constants: the first for mixing, with its multiplier
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
# generate_state's hash constants 0x8B51F9DD * 0x58F38DED**i mod 2^32, i = 0..8:
# output word i xors the i-th and multiplies by the (i+1)-th
_OUT_HASH = (0x8B51F9DD, 0x464A0A99, 0x819D14A5, 0xD369FDC1, 0x501638AD,
             0xA600C129, 0x8B0167F5, 0x5C1E2ED1, 0x301D747D)


def _words(value) -> list:
    """A non-negative integer as 32-bit words, least significant first."""
    value = index(value)
    if value < 0:
        raise ValueError(f"entropy must be non-negative, got {value}")
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _absorb(pool: list, h: int, words) -> int:
    """Mix each of `words` into every pool word, in place, as SeedSequence
    mixes the words past the pool's size; returns the hash constant reached."""
    for word in words:
        for dst in range(4):
            v = word ^ h
            h = h * _MULT_A & _M32
            v = v * h & _M32
            r = (0xCA01F9DD * pool[dst] - 0x4973F715 * (v ^ v >> 16)) & _M32
            pool[dst] = r ^ r >> 16
    return h


def mix_entropy(entropy) -> tuple:
    """SeedSequence's pool after mixing the words of `entropy`, and the
    hash constant reached, as one tuple for `Stream.from_pool`.

    SeedSequence pads the entropy with zero words to the pool's size before
    a spawn key, and hashes a missing word as zero without one, so the pool
    after the entropy's words is the same with every spawn key."""
    words = _words(entropy)
    h = _INIT_A
    pool = []
    for i in range(4):
        v = (words[i] if i < len(words) else 0) ^ h
        h = h * _MULT_A & _M32
        v = v * h & _M32
        pool.append(v ^ v >> 16)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v = pool[src] ^ h
                h = h * _MULT_A & _M32
                v = v * h & _M32
                r = (0xCA01F9DD * pool[dst] - 0x4973F715 * (v ^ v >> 16)) & _M32
                pool[dst] = r ^ r >> 16
    h = _absorb(pool, h, words[4:])
    return (*pool, h)


class Stream:
    """One seeded stream; see the module docstring."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy, spawn_key=()):
        self._seed(mix_entropy(entropy), spawn_key)

    @classmethod
    def from_pool(cls, pool: tuple, spawn_key=()) -> Stream:
        """The stream of `spawn_key` from `mix_entropy`'s pool of an entropy:
        `Stream(entropy, spawn_key)` without mixing the entropy again."""
        stream = cls.__new__(cls)
        stream._seed(pool, spawn_key)
        return stream

    def _seed(self, pool: tuple, spawn_key) -> None:
        # the key's words, then SeedSequence(...).generate_state(4, uint64)
        # read as PCG64's (initstate, initseq)
        *mixed, h = pool
        for key in spawn_key:
            h = _absorb(mixed, h, _words(key))
        out = []
        for i in range(8):
            v = (mixed[i & 3] ^ _OUT_HASH[i]) * _OUT_HASH[i + 1] & _M32
            out.append(v ^ v >> 16)
        # pairs of words little-endian into four uint64, then (high, low) pairs
        initstate = out[1] << 96 | out[0] << 64 | out[3] << 32 | out[2]
        initseq = out[5] << 96 | out[4] << 64 | out[7] << 32 | out[6]
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

    def random(self, size=None):
        """A float in [0, 1) with 53 random bits, or with `size` a list of
        `size` of them; leaves the kept half alone."""
        if size is None:
            return (self._next64() >> 11) * 2.0**-53
        return [(self._next64() >> 11) * 2.0**-53 for _ in range(index(size))]

    def integers(self, low: int, high: int, size=None):
        """A uniform integer in [low, high), for 1 <= high - low <= 2^32, or
        with `size` a list of the `size` integers that as many calls without
        it would return, as numpy's `integers(low, high, size)` gives."""
        excl = high - low
        if not 1 <= excl <= 1 << 32:
            raise ValueError(f"integers needs 1 <= high - low <= 2**32, got {excl}")
        if size is not None:
            return self._integers(low, excl, index(size))
        if excl == 1:
            return low
        m = self._next32() * excl
        if m & _M32 < excl:
            threshold = ((1 << 32) - excl) % excl
            while m & _M32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)

    def _integers(self, low: int, excl: int, size: int) -> list:
        """`size` draws of `integers(low, low + excl)`: one loop takes the
        kept half, then both halves of each 64-bit draw, low half first, and
        keeps the high half of the last draw when its low half ends the list."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if excl == 1 or not size:
            return [low] * size
        # Lemire's test: a draw is rejected when its low product word is
        # below the threshold, which is below excl
        threshold = ((1 << 32) - excl) % excl
        out = []
        append = out.append
        half = self._half
        if half is not None:
            m = half * excl
            if m & _M32 >= threshold:
                append(low + (m >> 32))
        need = size - len(out)
        half = None
        state, inc = self._state, self._inc
        while need:
            state = (state * _PCG_MULT + inc) & _M128
            x = (state >> 64) ^ (state & _M64)
            rot = state >> 122
            x = (x >> rot | x << (64 - rot)) & _M64
            m = (x & _M32) * excl
            if m & _M32 >= threshold:
                append(low + (m >> 32))
                need -= 1
                if not need:
                    half = x >> 32
                    break
            m = (x >> 32) * excl
            if m & _M32 >= threshold:
                append(low + (m >> 32))
                need -= 1
        self._state, self._half = state, half
        return out

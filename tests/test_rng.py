"""The pure-Python seed streams and sweep values against numpy's own."""
import numpy as np
import pytest

from fogsched import bench
from fogsched._rng import _OUT_HASH, Stream, mix_entropy

# one- and multi-word entropy (2^130: more words than the pool holds), and
# the spawn keys fogsched uses: (restart,) for annealing, (1000, value index)
# for task_count chains
ENTROPIES = (0, 5, 2**32, 2**64 + 3, 2**130)
SPAWN_KEYS = ((), (0,), (7,), (1000, 0), (1000, 9))
# exclusive range widths: no draw at 1, Lemire's rejection up to 2^32
RANGES = (1, 2, 3, 7, 40, 2**31 + 1, 2**32)


def _numpy(entropy, spawn_key):
    return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=spawn_key))


class _Counting(Stream):
    """A Stream that counts its 32-bit draws."""

    __slots__ = ("draws",)

    def _next32(self):
        self.draws += 1
        return super()._next32()


@pytest.mark.parametrize("spawn_key", SPAWN_KEYS)
@pytest.mark.parametrize("entropy", ENTROPIES)
def test_stream_matches_numpy(entropy, spawn_key):
    ours, theirs = Stream(entropy, spawn_key), _numpy(entropy, spawn_key)
    for k in range(280):
        excl = RANGES[k % len(RANGES)]
        low = k % 5 - 2
        assert ours.integers(low, low + excl) == theirs.integers(low, low + excl)
        # a 64-bit draw between two 32-bit ones leaves the kept half alone
        if k % 3 == 0:
            assert ours.random() == theirs.random()


def test_scalar_draws_equal_numpys_array_draws():
    # one call per draw gives numpy's bulk draws, which sa_solve's start
    # tiers and a task_count sweep's sizes reproduce with `size`
    ours, theirs = Stream(99, (0,)), _numpy(99, (0,))
    assert [ours.integers(1, 4) for _ in range(41)] == theirs.integers(1, 4, size=41).tolist()
    ours, theirs = Stream(3, (1000, 2)), _numpy(3, (1000, 2))
    assert [100.0 + 900.0 * ours.random() for _ in range(41)] == (
        theirs.uniform(100.0, 1000.0, size=41).tolist()
    )


@pytest.mark.parametrize("excl", (1, 3, 2**31 + 1, 2**32))
def test_bulk_integers_equal_scalar_calls_and_numpy(excl):
    # sizes are odd and even; a call after an odd count of 32-bit draws
    # starts on the kept upper half, and random() between two calls leaves
    # that half alone; the rejecting width 2^31+1 rejects about half
    ours, scalar, theirs = Stream(7, (3,)), _Counting(7, (3,)), _numpy(7, (3,))
    scalar.draws = 0
    low = -5
    for k, size in enumerate((1, 7, 0, 2, 13, 1, 40, 3, 31)):
        got = ours.integers(low, low + excl, size)
        assert got == [scalar.integers(low, low + excl) for _ in range(size)]
        assert got == theirs.integers(low, low + excl, size=size).tolist()
        assert [type(v) for v in got] == [int] * size
        if k % 2:
            assert ours.random() == scalar.random() == theirs.random()
    # 98 integers: no 32-bit draw at width 1, one each at widths 3 and 2^32
    # (3 rejects only a zero word), about two each at 2^31+1
    if excl == 2**31 + 1:
        assert scalar.draws > 150
    else:
        assert scalar.draws == (0 if excl == 1 else 98)
    assert ours.random(5) == [scalar.random() for _ in range(5)] == theirs.random(5).tolist()
    assert ours.integers(0, 40) == scalar.integers(0, 40) == theirs.integers(0, 40)


def test_bulk_integers_from_a_kept_half():
    # one 32-bit draw leaves the upper half kept; the bulk call takes it
    # first, and a call that ends on a low half keeps the high half
    for size in (1, 2, 3, 4):
        ours, theirs = Stream(2**64 + 3, (5,)), _numpy(2**64 + 3, (5,))
        assert ours.integers(0, 3) == theirs.integers(0, 3)
        assert ours.integers(1, 4, size) == theirs.integers(1, 4, size=size).tolist()
        assert ours._half is None if size % 2 else ours._half is not None
        assert ours.integers(0, 7) == theirs.integers(0, 7)
        assert ours.random() == theirs.random()


def test_bulk_draws_refuse_what_numpy_refuses():
    stream = Stream(1, (0,))
    with pytest.raises(ValueError, match="size"):
        stream.integers(1, 4, -1)
    with pytest.raises(ValueError, match="high - low"):
        stream.integers(4, 4, 3)
    with pytest.raises(TypeError):
        stream.integers(1, 4, 2.0)
    with pytest.raises(ValueError):
        np.random.default_rng(1).integers(1, 4, size=-1)


@pytest.mark.parametrize("entropy", (0, 5, 2**32, 2**64 + 3, 2**130))
def test_pool_mixed_once_gives_every_spawned_stream(entropy):
    # sa_solve mixes the seed once per solve and each restart k only its key
    pool = mix_entropy(entropy)
    for key in [(k,) for k in range(61)] + [(2**32 + 5,), (), (1000, 4)]:
        ours, again = Stream.from_pool(pool, key), Stream(entropy, key)
        theirs = _numpy(entropy, key)
        want = theirs.integers(1, 4, size=9).tolist()
        assert ours.integers(1, 4, 9) == [again.integers(1, 4) for _ in range(9)] == want, key
        assert ours.random() == again.random() == theirs.random()
    assert mix_entropy(entropy) == pool


def test_output_hash_constants():
    h = 0x8B51F9DD
    for want in _OUT_HASH:
        assert h == want
        h = h * 0x58F38DED & 0xFFFFFFFF


def test_lemire_rejection_matches_numpy():
    # excl = 2^31 + 1 rejects every draw whose low word is below
    # (2^32 - excl) % excl = 2^31 - 1, about half of them
    excl = 2**31 + 1
    ours, theirs = _Counting(5, (0,)), _numpy(5, (0,))
    ours.draws = 0
    assert [ours.integers(0, excl) for _ in range(200)] == theirs.integers(0, excl, size=200).tolist()
    assert ours.draws > 300
    assert ours.random() == theirs.random()
    # a width of one returns low without drawing, as numpy does
    ours.draws = 0
    assert ours.integers(4, 5) == theirs.integers(4, 5) == 4
    assert ours.draws == 0
    assert ours.integers(0, 40) == theirs.integers(0, 40)


def test_stream_refuses_what_numpy_refuses():
    with pytest.raises(ValueError, match="non-negative"):
        Stream(-1, (0,))
    with pytest.raises(ValueError, match="non-negative"):
        Stream(1, (1000, -2))
    with pytest.raises(ValueError):
        np.random.SeedSequence(-1)
    with pytest.raises(TypeError):
        Stream(1.5)
    stream = Stream(1, (0,))
    for low, high in ((4, 4), (4, 3), (0, 2**32 + 1)):
        with pytest.raises(ValueError, match="high - low"):
            stream.integers(low, high)
    with pytest.raises(ValueError):
        np.random.default_rng(1).integers(4, 4)


@pytest.mark.parametrize("start, stop, steps", [
    (0.5, 100.0, 21), (5, 60, 12), (5.0, 60.0, 10), (0.0005, 0.003, 6), (0.1, 5.0, 13),
    (-3.25, 7.1, 9), (2.0, 2.0, 4), (1.0, 1.0 + 2**-40, 7), (0.0, 5e-324, 3),
    (0.0, 1e-323, 5), (7.0, 8.0, 1), (1e-300, 1e300, 6),
])
def test_sweep_values_equal_numpy_linspace(start, stop, steps):
    spec = bench.SweepSpec("budget", start, stop, steps)
    got = spec.values()
    want = [float(v) for v in np.linspace(start, stop, steps)]
    assert got == want
    assert [type(v) for v in got] == [float] * steps

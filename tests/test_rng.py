"""The pure-Python seed streams and sweep values against numpy's own."""
import numpy as np
import pytest

from fogsched import bench
from fogsched._rng import Stream

# one- and multi-word entropy, and the spawn keys fogsched uses: (restart,)
# for annealing, (1000, value index) for task_count chains
ENTROPIES = (0, 5, 2**32, 2**64 + 3)
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
    # sa_solve draws its start tiers and a task_count sweep its sizes one by one
    ours, theirs = Stream(99, (0,)), _numpy(99, (0,))
    assert [ours.integers(1, 4) for _ in range(41)] == theirs.integers(1, 4, size=41).tolist()
    ours, theirs = Stream(3, (1000, 2)), _numpy(3, (1000, 2))
    assert [100.0 + 900.0 * ours.random() for _ in range(41)] == (
        theirs.uniform(100.0, 1000.0, size=41).tolist()
    )


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

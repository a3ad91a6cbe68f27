"""Cost engine: frozen example values and scaling/monotonicity properties.

Derived expectations are recomputed here with mpmath at 50 digits, so the
assertions never depend on the code path they check.
"""
import math

import mpmath
import numpy as np
import pytest

from fogsched import (
    CloudSpec,
    FogSpec,
    Platform,
    RadioLink,
    TaskGraph,
    TaskSpec,
    fog_cloud_energy,
    fog_cloud_time,
    local_energy,
    local_exec_time,
    server_exec_time,
    uplink_rate,
)
from fogsched.schedule import EvalContext
import gen
from oracles import server_energy, uplink_time

mpmath.mp.dps = 50


def _link(bandwidth=5e6, tx_power=1.0, gain=1.0, noise=1.0, interference=0.0):
    return RadioLink(
        bandwidth=bandwidth,
        tx_power_max=tx_power,
        channel_gain=gain,
        noise=noise,
        interference=interference,
    )


def _platform(device_cpu=1e9, kappa=1e-11, link=None):
    return Platform(
        device_cpu=device_cpu,
        kappa=kappa,
        fog=FogSpec(cpu=3.6e9, alpha=0.5, beta=0.4, epsilon=3.0, price=0.001),
        cloud=CloudSpec(cpu=3.6e10, alpha=0.6, beta=0.6, epsilon=3.0, price=0.004),
        fog_cloud_bandwidth=1e5,
        fog_forward_power=0.1,
        radio=link or _link(),
    )


def test_uplink_rate_snr_one():
    assert uplink_rate(_link()) == pytest.approx(5e6, rel=1e-15)


def test_uplink_rate_snr_three():
    assert uplink_rate(_link(tx_power=3.0)) == pytest.approx(1e7, rel=1e-15)


def test_uplink_rate_with_interference():
    # independent high-precision evaluation of W * log2(1 + 1 / (1 + 1))
    expected = float(5e6 * mpmath.log(mpmath.mpf(3) / 2) / mpmath.log(2))
    assert uplink_rate(_link(interference=1.0)) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(2.9248e6, rel=1e-4)


def test_local_exec_time():
    p = _platform()
    assert local_exec_time(TaskSpec(1, 1e9, 0.0), p) == 1.0
    assert local_exec_time(TaskSpec(1, 0.0, 0.0), p) == 0.0
    assert local_exec_time(TaskSpec(1, 3.6e9, 0.0), p) == pytest.approx(3.6, rel=1e-15)


def test_local_energy():
    p = Platform(
        device_cpu=1e3,
        kappa=1e-11,
        fog=_platform().fog,
        cloud=_platform().cloud,
        fog_cloud_bandwidth=1e5,
        fog_forward_power=0.1,
        radio=_link(),
    )
    assert local_energy(TaskSpec(1, 100.0, 0.0), p) == pytest.approx(1e-3, rel=1e-12)
    assert local_energy(TaskSpec(1, 0.0, 0.0), p) == 0.0
    p0 = Platform(
        device_cpu=1e3,
        kappa=0.0,
        fog=p.fog,
        cloud=p.cloud,
        fog_cloud_bandwidth=1e5,
        fog_forward_power=0.1,
        radio=_link(),
    )
    assert local_energy(TaskSpec(1, 100.0, 0.0), p0) == 0.0


def test_fog_exec_time():
    fog = FogSpec(cpu=3.6e9, alpha=0.5, beta=0.4)
    assert server_exec_time(TaskSpec(1, 3.6e9, 0), fog) == 1.0
    assert server_exec_time(TaskSpec(1, 0, 0), fog) == 0.0
    assert server_exec_time(TaskSpec(1, 7.2e9, 0), fog) == 2.0


def test_fog_energy():
    fog = FogSpec(cpu=2.0, alpha=0.5, beta=0.4, epsilon=3.0)
    # power draw 0.5 * 8 + 0.4 = 4.4 over one second of work
    assert server_energy(TaskSpec(1, 2.0, 0), fog) == pytest.approx(4.4, rel=1e-15)
    assert server_energy(TaskSpec(1, 0.0, 0), fog) == 0.0
    flat = FogSpec(cpu=1.0, alpha=0.0, beta=1.0)
    assert server_energy(TaskSpec(1, 2.0, 0), flat) == 2.0


def test_cloud_exec_time():
    cloud = CloudSpec(cpu=3.6e10, alpha=0.6, beta=0.6)
    assert server_exec_time(TaskSpec(1, 3.6e10, 0), cloud) == 1.0
    assert server_exec_time(TaskSpec(1, 0, 0), cloud) == 0.0
    assert server_exec_time(TaskSpec(1, 1.8e10, 0), cloud) == 0.5


def test_cloud_energy():
    cloud = CloudSpec(cpu=1.0, alpha=0.6, beta=0.6, epsilon=3.0)
    assert server_energy(TaskSpec(1, 1.0, 0), cloud) == pytest.approx(1.2, rel=1e-15)
    assert server_energy(TaskSpec(1, 0.0, 0), cloud) == 0.0
    flat = CloudSpec(cpu=1.0, alpha=0.0, beta=0.5)
    assert server_energy(TaskSpec(1, 4.0, 0), flat) == 2.0


def test_uplink_time_and_energy():
    link = _link()
    assert uplink_time(TaskSpec(1, 0, 5e6), link) == pytest.approx(1.0, rel=1e-15)
    assert uplink_time(TaskSpec(1, 0, 0.0), link) == 0.0
    assert uplink_time(TaskSpec(1, 0, 1e7), link) == pytest.approx(2.0, rel=1e-15)


def test_fog_cloud_time_and_energy():
    p = _platform()
    assert fog_cloud_time(TaskSpec(1, 0, 1e5), p) == 1.0
    assert fog_cloud_time(TaskSpec(1, 0, 0.0), p) == 0.0
    assert fog_cloud_time(TaskSpec(1, 0, 2e5), p) == 2.0
    assert fog_cloud_energy(TaskSpec(1, 0, 2e5), p) == pytest.approx(0.2, rel=1e-15)
    assert fog_cloud_energy(TaskSpec(1, 0, 0.0), p) == 0.0
    p1 = Platform(
        device_cpu=1e9,
        kappa=1e-11,
        fog=p.fog,
        cloud=p.cloud,
        fog_cloud_bandwidth=1e5,
        fog_forward_power=1.0,
        radio=_link(),
    )
    assert fog_cloud_energy(TaskSpec(1, 0, 3e5), p1) == pytest.approx(3.0, rel=1e-15)


def _columns(ctx):
    """EvalContext's per-task columns, by the quantity each one holds (local
    energy and the two revenues are the device's cost on each tier, and
    forwarding energy is negated in the fog's utility on the cloud)."""
    return {
        "local_time": ctx.tau_l,
        "local_energy": ctx.cost[1],
        "uplink_time": ctx.tau_t,
        "fog_time": ctx.tau_f,
        "fog_energy": ctx.e_f,
        "fog_cloud_time": ctx.tau_r,
        "fog_cloud_energy": tuple(-d for d in ctx.du_f[3]),
        "cloud_time": ctx.tau_c,
        "cloud_energy": ctx.e_c,
        "fog_revenue": ctx.cost[2],
        "cloud_revenue": ctx.cost[3],
    }


def _formulas(platform):
    """The function of one task behind each column of `_columns`."""
    return {
        "local_time": lambda t: local_exec_time(t, platform),
        "local_energy": lambda t: local_energy(t, platform),
        "uplink_time": lambda t: uplink_time(t, platform.radio),
        "fog_time": lambda t: server_exec_time(t, platform.fog),
        "fog_energy": lambda t: server_energy(t, platform.fog),
        "fog_cloud_time": lambda t: fog_cloud_time(t, platform),
        "fog_cloud_energy": lambda t: fog_cloud_energy(t, platform),
        "cloud_time": lambda t: server_exec_time(t, platform.cloud),
        "cloud_energy": lambda t: server_energy(t, platform.cloud),
        "fog_revenue": lambda t: platform.fog.price * t.data_size,
        "cloud_revenue": lambda t: platform.cloud.price * t.data_size,
    }


def _task_columns(task, platform):
    """The per-task column values of a one-task graph."""
    ctx = EvalContext(TaskGraph([task]), platform)
    return {name: column[0] for name, column in _columns(ctx).items()}


def test_task_costs_matches_components():
    # column i holds its cost function of task id i+1, also when the ids
    # are not a topological order
    rng = np.random.default_rng(21)
    for case in range(300):
        scenario = gen.random_scenario(rng)
        graph = scenario.graph
        if case % 3 == 0:
            graph = gen.permute_ids(rng, graph)
        by_id = {t.id: t for t in graph.tasks}
        formulas = _formulas(scenario.platform)
        for name, column in _columns(EvalContext(graph, scenario.platform)).items():
            assert len(column) == len(graph)
            for i, value in enumerate(column):
                assert value == formulas[name](by_id[i + 1]), (case, name, i)


def test_task_costs_zero_task():
    c = _task_columns(TaskSpec(1, 0.0, 0.0), _platform())
    for value in c.values():
        assert value == 0.0


def test_task_costs_baseline_values():
    # baseline platform, workload 3.6e9 cycles, 5e6 bits of input
    c = _task_columns(TaskSpec(1, 3.6e9, 5e6), _platform())
    assert c["local_time"] == pytest.approx(3.6, rel=1e-15)
    assert c["fog_time"] == pytest.approx(1.0, rel=1e-15)
    assert c["cloud_time"] == pytest.approx(0.1, rel=1e-15)
    assert c["uplink_time"] == pytest.approx(1.0, rel=1e-15)
    assert c["fog_cloud_time"] == pytest.approx(50.0, rel=1e-15)
    assert c["fog_cloud_energy"] == pytest.approx(5.0, rel=1e-15)
    w, f_l, f_f, f_c = (mpmath.mpf(x) for x in (3.6e9, 1e9, 3.6e9, 3.6e10))
    assert c["local_energy"] == pytest.approx(
        float(mpmath.mpf(1e-11) * w * f_l**2), rel=1e-14
    )
    assert c["fog_energy"] == pytest.approx(
        float((mpmath.mpf(0.5) * f_f**3 + mpmath.mpf(0.4)) * (w / f_f)), rel=1e-14
    )
    assert c["cloud_energy"] == pytest.approx(
        float((mpmath.mpf(0.6) * f_c**3 + mpmath.mpf(0.6)) * (w / f_c)), rel=1e-14
    )


def test_uplink_rate_monotonic():
    rng = np.random.default_rng(33)
    for _ in range(200):
        w = float(rng.uniform(1, 10))
        gain = float(rng.uniform(0.1, 5))
        noise = float(rng.uniform(0.1, 5))
        p_lo, p_hi = sorted(rng.uniform(0.1, 5, size=2))
        i_lo, i_hi = sorted(rng.uniform(0.0, 5, size=2))
        if p_lo < p_hi:
            assert uplink_rate(
                RadioLink(w, p_hi, gain, noise, i_lo, p_hi)
            ) > uplink_rate(RadioLink(w, p_hi, gain, noise, i_lo, p_lo))
        if i_lo < i_hi:
            assert uplink_rate(
                RadioLink(w, p_hi, gain, noise, i_lo)
            ) > uplink_rate(RadioLink(w, p_hi, gain, noise, i_hi))


def test_doubling_workload_and_data():
    rng = np.random.default_rng(34)
    for _ in range(100):
        platform = gen.desk_platform(rng)
        w = float(rng.uniform(1, 1000))
        d = float(rng.uniform(1, 1000))
        c1 = _task_columns(TaskSpec(1, w, d), platform)
        c2 = _task_columns(TaskSpec(1, 2 * w, d), platform)
        assert c2["local_time"] == 2 * c1["local_time"]
        assert c2["fog_time"] == 2 * c1["fog_time"]
        assert c2["cloud_time"] == 2 * c1["cloud_time"]
        assert c2["local_energy"] == 2 * c1["local_energy"]
        c3 = _task_columns(TaskSpec(1, w, 2 * d), platform)
        assert c3["uplink_time"] == 2 * c1["uplink_time"]
        assert c3["fog_cloud_time"] == 2 * c1["fog_cloud_time"]


def test_outputs_finite_nonnegative():
    rng = np.random.default_rng(35)
    for _ in range(100):
        platform = gen.desk_platform(rng)
        task = TaskSpec(1, float(rng.uniform(0, 1e6)), float(rng.uniform(0, 1e6)))
        c = _task_columns(task, platform)
        for value in c.values():
            assert math.isfinite(value)
            assert value >= 0.0

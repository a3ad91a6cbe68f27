"""Closed-form per-task timing and energy quantities.

Pure functions of a task and the platform; nothing here depends on the
placement or on other tasks.
"""
from __future__ import annotations

from math import log2

from .model import Platform, RadioLink, ServerSpec, TaskSpec


def uplink_rate(link: RadioLink) -> float:
    """Achievable uplink rate: bandwidth * log2(1 + SINR)."""
    sinr = link.tx_power * link.channel_gain / (link.noise + link.interference)
    return link.bandwidth * log2(1.0 + sinr)


def local_exec_time(task: TaskSpec, platform: Platform) -> float:
    """workload / device CPU speed."""
    return task.workload / platform.device_cpu


def local_energy(task: TaskSpec, platform: Platform) -> float:
    """kappa * workload * device_cpu^2."""
    return platform.kappa * task.workload * platform.device_cpu**2


def server_exec_time(task: TaskSpec, server: ServerSpec) -> float:
    """workload / server CPU speed."""
    return task.workload / server.cpu


def energy_coefficient(server: ServerSpec) -> float:
    """alpha * cpu^epsilon + beta: energy per unit of execution time."""
    return server.alpha * server.cpu**server.epsilon + server.beta


def fog_cloud_time(task: TaskSpec, platform: Platform) -> float:
    """data_size / fog-to-cloud bandwidth."""
    return task.data_size / platform.fog_cloud_bandwidth


def fog_cloud_energy(task: TaskSpec, platform: Platform) -> float:
    """Forwarding power * fog-to-cloud transfer time, paid by the fog node."""
    return platform.fog_forward_power * fog_cloud_time(task, platform)

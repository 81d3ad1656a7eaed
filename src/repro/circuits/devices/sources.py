"""Independent sources."""

from __future__ import annotations

import numpy as np

from repro.circuits.devices.base import (
    Device,
    per_scenario_parameter,
    slice_per_scenario,
)
from repro.circuits.waveforms import as_waveform


class CurrentSource(Device):
    """Independent current source driving ``scale * waveform(t)`` a -> b.

    The source current leaves ``node_a`` and enters ``node_b``; with the
    library's form ``d/dt q + f = b`` it appears purely in the right-hand
    side: ``b[a] = -J(t)``, ``b[b] = +J(t)``.

    ``scale`` may be a ``(B,)`` per-scenario stack
    (:func:`~repro.circuits.devices.base.per_scenario_parameter`): the
    device then stamps row ``b`` of an ensemble with ``scale[b]`` times the
    shared waveform — a drive-amplitude spread in one stacked evaluation.
    """

    def __init__(self, name, node_a, node_b, waveform, scale=1.0):
        super().__init__(name, (node_a, node_b))
        self.waveform = as_waveform(waveform)
        self.scale = per_scenario_parameter(
            scale, "scale", name, positive=False
        )

    def subset_scenarios(self, indices):
        return CurrentSource(
            self.name, self.ports[0], self.ports[1], self.waveform,
            scale=slice_per_scenario(self.scale, indices),
        )

    def f_local(self, u):
        return np.zeros(2)

    def df_local(self, u):
        return np.zeros((2, 2))

    def b_local(self, t):
        value = self.scale * float(self.waveform(t))
        return np.array([-value, value])

    def f_local_batch(self, U):
        return np.zeros((np.asarray(U).shape[0], 2))

    def df_local_batch(self, U):
        return np.zeros((np.asarray(U).shape[0], 2, 2))

    def b_local_batch(self, times):
        times = np.asarray(times, dtype=float).ravel()
        value = self.scale * np.asarray(self.waveform(times), dtype=float)
        return np.stack([-value, value], axis=1)


class VoltageSource(Device):
    """Independent voltage source enforcing ``v_a - v_b = scale * E(t)``.

    Adds a branch-current unknown ``i`` (flowing from ``node_a`` through the
    source to ``node_b``); rows are the two KCL stamps plus the KVL row
    ``v_a - v_b = scale * E(t)``.  ``scale`` accepts a ``(B,)``
    per-scenario stack exactly like :class:`CurrentSource`.
    """

    internal_names = ("i",)

    def __init__(self, name, node_a, node_b, waveform, scale=1.0):
        super().__init__(name, (node_a, node_b))
        self.waveform = as_waveform(waveform)
        self.scale = per_scenario_parameter(
            scale, "scale", name, positive=False
        )

    def subset_scenarios(self, indices):
        return VoltageSource(
            self.name, self.ports[0], self.ports[1], self.waveform,
            scale=slice_per_scenario(self.scale, indices),
        )

    def f_local(self, u):
        return np.array([u[2], -u[2], u[0] - u[1]])

    def df_local(self, u):
        return np.array(
            [
                [0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0],
                [1.0, -1.0, 0.0],
            ]
        )

    def b_local(self, t):
        return np.array([0.0, 0.0, self.scale * float(self.waveform(t))])

    def f_local_batch(self, U):
        U = np.asarray(U, dtype=float)
        return np.stack([U[:, 2], -U[:, 2], U[:, 0] - U[:, 1]], axis=1)

    def df_local_batch(self, U):
        out = np.zeros((np.asarray(U).shape[0], 3, 3))
        out[:, 0, 2] = 1.0
        out[:, 1, 2] = -1.0
        out[:, 2, 0] = 1.0
        out[:, 2, 1] = -1.0
        return out

    def b_local_batch(self, times):
        times = np.asarray(times, dtype=float).ravel()
        out = np.zeros((times.size, 3))
        out[:, 2] = self.scale * np.asarray(self.waveform(times), dtype=float)
        return out

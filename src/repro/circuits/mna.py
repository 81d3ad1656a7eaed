"""MNA assembly: compile a :class:`~repro.circuits.netlist.Circuit` to a DAE.

Unknown ordering: node voltages in order of first appearance, then each
device's internal unknowns in device insertion order.  Equation rows match
the unknowns one-for-one (KCL per node, constitutive row per internal
unknown), so the assembled system is square by construction.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.netlist import GROUND_NAMES
from repro.dae.base import SemiExplicitDAE


class _DeviceSlot:
    """Precomputed scatter/gather maps for one device."""

    __slots__ = (
        "device",
        "columns",
        "rows",
        "gather_cols",
        "gather_scale",
        "row_sel",
        "row_targets",
        "col_sel",
        "col_targets",
        "jac_flat",
    )

    def __init__(self, device, columns, rows):
        self.device = device
        # Global unknown index per local unknown; -1 means ground (v = 0).
        self.columns = columns
        # Global equation row per local row; -1 means the dropped ground row.
        self.rows = rows
        # Batched gather: read ground columns from index 0 and zero them out.
        self.gather_cols = np.where(columns >= 0, columns, 0)
        self.gather_scale = (columns >= 0).astype(float)
        # Batched scatter: local positions kept and their global targets.
        self.row_sel = np.nonzero(rows >= 0)[0]
        self.row_targets = rows[self.row_sel]
        self.col_sel = np.nonzero(columns >= 0)[0]
        self.col_targets = columns[self.col_sel]
        # Flat (row, col) offsets of the surviving Jacobian block entries
        # within one dense (n, n) system Jacobian; filled by CircuitDAE once
        # the system size is known.
        self.jac_flat = None


class CircuitDAE(SemiExplicitDAE):
    """The compiled ``d/dt q(x) + f(x) = b(t)`` system of a circuit.

    Build with :meth:`repro.circuits.netlist.Circuit.to_dae`.
    """

    def __init__(self, circuit):
        self.circuit = circuit
        node_names = circuit.node_names()
        node_index = {name: i for i, name in enumerate(node_names)}

        names = [f"v({name})" for name in node_names]
        slots = []
        next_index = len(node_names)
        for device in circuit.devices:
            columns = []
            rows = []
            for port in device.ports:
                if port in GROUND_NAMES:
                    columns.append(-1)
                    rows.append(-1)
                else:
                    columns.append(node_index[port])
                    rows.append(node_index[port])
            for label in device.internal_names:
                columns.append(next_index)
                rows.append(next_index)
                names.append(f"{device.name}.{label}")
                next_index += 1
            slots.append(
                _DeviceSlot(
                    device,
                    np.asarray(columns, dtype=int),
                    np.asarray(rows, dtype=int),
                )
            )

        self._slots = slots
        self.n = next_index
        self.variable_names = tuple(names)
        for slot in slots:
            slot.jac_flat = (
                slot.row_targets[:, None] * self.n + slot.col_targets[None, :]
            ).ravel()

    def subset_scenarios(self, indices):
        """Stacked-circuit slice: every device's ``(B,)`` parameter stacks
        restricted to ``indices`` (see
        :meth:`repro.circuits.devices.base.Device.subset_scenarios`).  Lets
        ensemble service shards carve one stacked circuit into scenario
        blocks."""
        from repro.circuits.netlist import Circuit

        circuit = Circuit(self.circuit.title)
        for device in self.circuit.devices:
            circuit.add(device.subset_scenarios(indices))
        return CircuitDAE(circuit)

    # -- gather/scatter helpers --------------------------------------------------

    @staticmethod
    def _gather(x, columns):
        """Local unknown vector for a device; ground columns read 0."""
        local = np.zeros(columns.size)
        mask = columns >= 0
        local[mask] = x[columns[mask]]
        return local

    def _accumulate_vector(self, evaluate):
        out = np.zeros(self.n)
        for slot in self._slots:
            local = evaluate(slot)
            mask = slot.rows >= 0
            np.add.at(out, slot.rows[mask], local[mask])
        return out

    def _accumulate_matrix(self, evaluate, x):
        out = np.zeros((self.n, self.n))
        for slot in self._slots:
            local = evaluate(slot.device, self._gather(x, slot.columns))
            row_mask = slot.rows >= 0
            col_mask = slot.columns >= 0
            rows = slot.rows[row_mask]
            cols = slot.columns[col_mask]
            block = local[np.ix_(row_mask, col_mask)]
            # add.at, not +=: a device with two ports on one node repeats
            # that node's row or column, and both entries must land.
            np.add.at(out, np.ix_(rows, cols), block)
        return out

    # -- DAE interface -----------------------------------------------------------

    def q(self, x):
        x = np.asarray(x, dtype=float)
        return self._accumulate_vector(
            lambda slot: slot.device.q_local(self._gather(x, slot.columns))
        )

    def f(self, x):
        x = np.asarray(x, dtype=float)
        return self._accumulate_vector(
            lambda slot: slot.device.f_local(self._gather(x, slot.columns))
        )

    def b(self, t):
        t = float(t)
        return self._accumulate_vector(lambda slot: slot.device.b_local(t))

    def dq_dx(self, x):
        x = np.asarray(x, dtype=float)
        return self._accumulate_matrix(lambda dev, u: dev.dq_local(u), x)

    def df_dx(self, x):
        x = np.asarray(x, dtype=float)
        return self._accumulate_matrix(lambda dev, u: dev.df_local(u), x)

    # -- batched DAE interface ---------------------------------------------------
    #
    # The multi-time engines evaluate the system at every collocation point
    # of a grid on each Newton iteration; these overrides gather all local
    # states with one fancy-index per device, evaluate each device *once*
    # over the whole batch, and scatter-add with precomputed flat index maps
    # and a single ``np.bincount`` — no per-point Python loop.

    def _gather_batch(self, states, slot):
        """Local state stack ``(m, n_local)``; ground columns read 0."""
        return states[:, slot.gather_cols] * slot.gather_scale

    def _accumulate_vector_batch(self, m, contributions):
        """Sum per-device ``(m, n_valid)`` stacks into an ``(m, n)`` array.

        ``contributions`` yields ``(slot, values)`` pairs where ``values``
        holds the surviving local rows (``slot.row_sel``) of the device's
        batched evaluation.
        """
        offsets = self.n * np.arange(m)
        idx_parts = []
        val_parts = []
        for slot, values in contributions:
            idx = offsets[:, None] + slot.row_targets[None, :]
            idx_parts.append(idx.ravel())
            val_parts.append(np.ascontiguousarray(values).ravel())
        if not idx_parts:
            return np.zeros((m, self.n))
        flat = np.bincount(
            np.concatenate(idx_parts),
            weights=np.concatenate(val_parts),
            minlength=m * self.n,
        )
        return flat.reshape(m, self.n)

    def _accumulate_matrix_batch(self, states, evaluate):
        states = np.asarray(states, dtype=float)
        m = states.shape[0]
        offsets = self.n * self.n * np.arange(m)
        idx_parts = []
        val_parts = []
        for slot in self._slots:
            local = evaluate(slot.device, self._gather_batch(states, slot))
            block = local[:, slot.row_sel][:, :, slot.col_sel]
            idx = offsets[:, None] + slot.jac_flat[None, :]
            idx_parts.append(idx.ravel())
            val_parts.append(block.reshape(m, -1).ravel())
        if not idx_parts:
            return np.zeros((m, self.n, self.n))
        flat = np.bincount(
            np.concatenate(idx_parts),
            weights=np.concatenate(val_parts),
            minlength=m * self.n * self.n,
        )
        return flat.reshape(m, self.n, self.n)

    def q_batch(self, states):
        states = np.asarray(states, dtype=float)
        return self._accumulate_vector_batch(
            states.shape[0],
            (
                (
                    slot,
                    slot.device.q_local_batch(
                        self._gather_batch(states, slot)
                    )[:, slot.row_sel],
                )
                for slot in self._slots
            ),
        )

    def f_batch(self, states):
        states = np.asarray(states, dtype=float)
        return self._accumulate_vector_batch(
            states.shape[0],
            (
                (
                    slot,
                    slot.device.f_local_batch(
                        self._gather_batch(states, slot)
                    )[:, slot.row_sel],
                )
                for slot in self._slots
            ),
        )

    def qf_batch(self, states):
        # One gather per device serves both stamps (the ensemble engine
        # calls this at every Newton iterate).
        states = np.asarray(states, dtype=float)
        m = states.shape[0]
        q_parts = []
        f_parts = []
        for slot in self._slots:
            local = self._gather_batch(states, slot)
            q_parts.append(
                (slot, slot.device.q_local_batch(local)[:, slot.row_sel])
            )
            f_parts.append(
                (slot, slot.device.f_local_batch(local)[:, slot.row_sel])
            )
        return (
            self._accumulate_vector_batch(m, q_parts),
            self._accumulate_vector_batch(m, f_parts),
        )

    def b_batch(self, times):
        times = np.asarray(times, dtype=float).ravel()
        return self._accumulate_vector_batch(
            times.size,
            (
                (slot, slot.device.b_local_batch(times)[:, slot.row_sel])
                for slot in self._slots
            ),
        )

    def dq_dx_batch(self, states):
        return self._accumulate_matrix_batch(
            states, lambda dev, U: dev.dq_local_batch(U)
        )

    def df_dx_batch(self, states):
        return self._accumulate_matrix_batch(
            states, lambda dev, U: dev.df_local_batch(U)
        )

    # -- structural sparsity ------------------------------------------------------

    def _device_block_structure(self):
        """Union of every device's dense local block — a safe superset."""
        mask = np.zeros((self.n, self.n), dtype=bool)
        for slot in self._slots:
            mask[np.ix_(slot.row_targets, slot.col_targets)] = True
        return mask

    def dq_structure(self):
        return self._device_block_structure()

    def df_structure(self):
        return self._device_block_structure()

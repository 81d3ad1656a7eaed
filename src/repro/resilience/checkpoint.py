"""Checkpoint/restart for long marches (transient and envelope runs).

A :class:`Checkpoint` is an RNG-free snapshot of everything a march needs
to continue *bit-identically*: the integrator history window, the stored
trajectory prefix, the step controller's registered parameters, the
engine's counters, and — the subtle part — the *metadata* of the frozen
chord factorisation (e.g. the ``(alpha, beta, x)`` the transient step
Jacobian was last assembled at).  The factorisation object itself
(SuperLU handle, LAPACK factors) is not picklable and is not stored;
instead the resuming engine re-assembles the same matrix at the same
point and refactorises.  LU of an identical matrix is deterministic, so
the resumed run's chord policy makes exactly the decisions the
uninterrupted run would have made.

:class:`CheckpointManager` owns the cadence: a march offers it a
zero-cost *factory* closure once per accepted step, and the manager
decides (modulo its ``every`` knob) whether to materialise a snapshot,
keep it in memory, and/or spool it to disk.  Every engine reaches both
through :class:`repro.resilience.march.March`, which builds the snapshots,
attaches the last one to the :class:`~repro.errors.SimulationError` of a
march that dies, and continues from one given as ``resume_from``.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass, field


@dataclass
class Checkpoint:
    """One resumable snapshot of a march.

    Attributes
    ----------
    kind:
        The producing engine (``"transient"``, ``"wampde_envelope"``,
        ``"wampde_envelope_adaptive"``, ``"mpde_envelope"``), checked by
        the resuming engine.
    step:
        Accepted steps at the snapshot.
    t:
        Last accepted time (``t`` or the slow time ``t2``).
    dt:
        Step size the next attempt would use.
    payload:
        The :class:`~repro.resilience.march.March` payload: the engine's
        own state (e.g. the integrator history window), the store
        counter, the engine counters, the solver-core snapshot (stats,
        registered parameters, frozen-factorisation metadata) and the
        partial result of the stored trajectory prefix.  No
        factorisation handles, no RNG state, no open resources.
    """

    kind: str
    step: int
    t: float
    dt: float
    payload: dict = field(default_factory=dict)

    def save(self, path):
        """Pickle the snapshot to ``path`` atomically (write + rename)."""
        path = os.fspath(path)
        directory = os.path.dirname(path) or "."
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=".ckpt-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(self, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    @staticmethod
    def load(path):
        """Load a snapshot previously written by :meth:`save`."""
        with open(os.fspath(path), "rb") as handle:
            checkpoint = pickle.load(handle)
        if not isinstance(checkpoint, Checkpoint):
            raise TypeError(
                f"{path!r} does not contain a Checkpoint "
                f"(got {type(checkpoint).__name__})"
            )
        return checkpoint


class CheckpointManager:
    """Cadence and retention policy for periodic checkpoints.

    Parameters
    ----------
    every:
        Take a snapshot every this-many accepted steps (0 disables
        periodic snapshots; the manager then only holds snapshots pushed
        explicitly through :meth:`take`).
    path:
        Optional file the latest snapshot is spooled to (atomic
        write-and-rename, so a crash mid-save never corrupts the
        previous one) — or a *callable* sink invoked with each
        materialised :class:`Checkpoint`.  The callable form is how the
        service layer streams partial results out of a running job
        without the engines knowing about streaming.
    keep:
        In-memory snapshots retained, newest last.
    """

    def __init__(self, every=0, path=None, keep=2):
        self.every = max(int(every), 0)
        self.path = path
        self.keep = max(int(keep), 1)
        self.checkpoints = []
        self.taken = 0

    @property
    def last(self):
        """The most recent snapshot, or ``None``."""
        return self.checkpoints[-1] if self.checkpoints else None

    def offer(self, step, factory):
        """Maybe snapshot at accepted step ``step``.

        ``factory`` is a zero-argument closure building the
        :class:`Checkpoint`; it is only invoked when the cadence fires,
        so a run with ``every=0`` (or between cadence points) pays one
        integer comparison per accepted step and nothing else.
        """
        if self.every and step > 0 and step % self.every == 0:
            return self.take(factory)
        return None

    def take(self, factory):
        """Unconditionally snapshot (used for the final/failure state)."""
        checkpoint = factory()
        self.checkpoints.append(checkpoint)
        del self.checkpoints[: -self.keep]
        self.taken += 1
        if callable(self.path):
            self.path(checkpoint)
        elif self.path is not None:
            checkpoint.save(self.path)
        return checkpoint

"""Solver resilience layer: recovery ladders, continuation, checkpoints.

Five pieces, each usable on its own:

* :mod:`repro.resilience.recovery` — the recovery-ladder vocabulary
  (rung names, per-rung budgets, the structured :class:`RecoveryLog`
  that :class:`repro.linalg.solver_core.SolverCore` attaches to its
  stats);
* :mod:`repro.resilience.continuation` — gmin/source/pseudo-transient
  continuation embeddings as ``CollocationSystem`` wrappers;
* :mod:`repro.resilience.checkpoint` — RNG-free snapshots and the
  cadence manager behind ``simulate_transient(resume_from=...)``;
* :mod:`repro.resilience.march` — the driver every time march runs its
  resume, store cadence, checkpoints, failure context and final stats
  through;
* :mod:`repro.resilience.guards` — finite-value guards attributing the
  first NaN/Inf at the device/DAE boundary to a device and unknown.
"""

from repro.resilience.checkpoint import Checkpoint, CheckpointManager
from repro.resilience.continuation import (
    GminShiftedSystem,
    PseudoTransientSystem,
    SourceScaledSystem,
    pseudo_transient_march,
)
from repro.resilience.guards import (
    GuardedDAE,
    diagnose_nonfinite,
    first_nonfinite,
    guard_dae,
)
from repro.resilience.recovery import (
    DEFAULT_CHORD_LADDER,
    DEFAULT_FULL_LADDER,
    EXTENDED_CHORD_LADDER,
    EXTENDED_FULL_LADDER,
    LADDER_RUNGS,
    RecoveryAttempt,
    RecoveryLog,
    RecoveryPolicy,
    default_ladder,
    extended_ladder,
)

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "DEFAULT_CHORD_LADDER",
    "DEFAULT_FULL_LADDER",
    "EXTENDED_CHORD_LADDER",
    "EXTENDED_FULL_LADDER",
    "GminShiftedSystem",
    "GuardedDAE",
    "LADDER_RUNGS",
    "PseudoTransientSystem",
    "RecoveryAttempt",
    "RecoveryLog",
    "RecoveryPolicy",
    "SourceScaledSystem",
    "default_ladder",
    "diagnose_nonfinite",
    "extended_ladder",
    "first_nonfinite",
    "guard_dae",
    "pseudo_transient_march",
]

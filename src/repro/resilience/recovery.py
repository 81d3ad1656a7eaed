"""Recovery ladder vocabulary: rungs, attempts and the structured log.

A *recovery ladder* is an ordered escalation policy a
:class:`repro.linalg.solver_core.SolverCore` walks when a nonlinear solve
fails: cheap retries first (the chord iteration with whatever factors are
frozen), progressively more expensive and more robust strategies after
(fresh factorisation, damped full Newton from the last good state, a
frozen-LU GMRES retry, pseudo-transient continuation).  Every attempt is
recorded as a :class:`RecoveryAttempt` in a :class:`RecoveryLog` attached
to the core's :class:`~repro.linalg.solver_core.SolverStats`, so a failure
is an observable, structured event rather than a bare stack trace.

Rungs
-----

``"chord"``
    Chord (stale-Jacobian) iteration with the currently frozen factors.
``"refresh"``
    Drop the frozen factors and retry the chord iteration with a fresh
    factorisation at the start point.
``"newton"``
    Full Newton from the caller's start point through the configured
    linear solver (the primary attempt of a full-mode core).
``"full_newton"``
    Damped full Newton restarted from the fallback start point (the last
    accepted state of a step sequence when the engine provides one) with
    fresh direct factorisations; a converged run's last factorisation is
    adopted by the chord policy.
``"gmres"``
    Full Newton through GMRES preconditioned by a complete LU of each
    iteration's matrix — a different linear-algebra route around a badly
    conditioned direct factorisation.
``"continuation"``
    Pseudo-transient continuation (see
    :mod:`repro.resilience.continuation`): embed the root-finding problem
    in an artificial time march whose steps grow until the plain system
    is recovered.  The last, most expensive rung.

Each rung of a ladder runs at most once per solve; ``"refresh"`` is the
chord retry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

#: Every rung name a ladder may contain, in canonical escalation order.
LADDER_RUNGS = (
    "chord", "refresh", "newton", "full_newton", "gmres", "continuation",
)

#: Default ladders — these reproduce the historical chord-with-fallback /
#: full-with-restart policies exactly.
DEFAULT_CHORD_LADDER = ("chord", "full_newton")
DEFAULT_FULL_LADDER = ("newton", "full_newton")

#: Extended ladders — every recovery strategy, in escalation order.
EXTENDED_CHORD_LADDER = (
    "chord", "refresh", "full_newton", "gmres", "continuation",
)
EXTENDED_FULL_LADDER = ("newton", "full_newton", "gmres", "continuation")


def default_ladder(mode):
    """The historical escalation policy for a Newton ``mode``."""
    return DEFAULT_CHORD_LADDER if mode == "chord" else DEFAULT_FULL_LADDER


def extended_ladder(mode):
    """The full escalation policy for a Newton ``mode``."""
    return EXTENDED_CHORD_LADDER if mode == "chord" else EXTENDED_FULL_LADDER


@dataclass
class RecoveryAttempt:
    """One rung attempt of one nonlinear solve.

    Attributes
    ----------
    solve:
        Index of the solve (the core's ``stats.solves`` value at the
        time) the attempt belongs to, so attempts of the same solve can
        be grouped when reading the log.
    rung:
        Rung name (one of :data:`LADDER_RUNGS`).
    converged:
        Whether this attempt solved the system.
    iterations:
        Newton/chord iterations the attempt burned.
    residual_norm:
        Residual infinity-norm at the attempt's last iterate (NaN when
        the attempt died before producing one).
    detail:
        Free-text context — the exception message of a raising attempt,
        or continuation-stage information.
    """

    solve: int
    rung: str
    converged: bool
    iterations: int = 0
    residual_norm: float = float("nan")
    detail: str = ""

    def as_dict(self):
        """Plain-dict view (stable keys, for result payloads)."""
        return {
            "solve": self.solve,
            "rung": self.rung,
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "detail": self.detail,
        }


class RecoveryLog:
    """Bounded record of every recovery-ladder escalation of one core.

    Solves that converge on their first rung are *not* recorded (a long
    healthy transient would otherwise accumulate one entry per step);
    the log holds the full attempt sequence of every solve that needed
    escalation, up to ``maxlen`` most recent attempts, plus exact
    aggregate counters that never roll off.

    Attributes
    ----------
    attempts:
        The retained :class:`RecoveryAttempt` entries, oldest first.
    escalated_solves:
        Number of solves that went beyond their first rung.
    total_attempts:
        Rung attempts recorded over the core's lifetime (including ones
        that have rolled off the bounded deque).
    rung_counts:
        ``{rung: attempts}`` aggregate, also exact.
    """

    def __init__(self, maxlen=256):
        self.attempts = deque(maxlen=maxlen)
        self.escalated_solves = 0
        self.total_attempts = 0
        self.rung_counts = {}

    def __len__(self):
        return len(self.attempts)

    def __iter__(self):
        return iter(self.attempts)

    def __bool__(self):
        return self.total_attempts > 0

    def extend(self, attempts):
        """Record one solve's escalation (its full attempt sequence)."""
        self.escalated_solves += 1
        for attempt in attempts:
            self.attempts.append(attempt)
            self.total_attempts += 1
            self.rung_counts[attempt.rung] = (
                self.rung_counts.get(attempt.rung, 0) + 1
            )

    def rungs(self):
        """Rung names of the retained attempts, in order."""
        return [attempt.rung for attempt in self.attempts]

    def last_solve_attempts(self):
        """The retained attempts of the most recent escalated solve."""
        if not self.attempts:
            return []
        last = self.attempts[-1].solve
        return [a for a in self.attempts if a.solve == last]

    def as_dict(self):
        """Aggregate summary (stable keys, for result ``stats`` payloads)."""
        return {
            "escalated_solves": self.escalated_solves,
            "total_attempts": self.total_attempts,
            "rung_counts": dict(self.rung_counts),
        }

    def summary(self):
        """One-line human-readable summary (printed by the CLI)."""
        if not self:
            return "no recovery escalations"
        rungs = ", ".join(
            f"{rung}×{count}" for rung, count in sorted(
                self.rung_counts.items(),
                key=lambda item: LADDER_RUNGS.index(item[0])
                if item[0] in LADDER_RUNGS else len(LADDER_RUNGS),
            )
        )
        return (
            f"{self.escalated_solves} escalated solve(s), "
            f"{self.total_attempts} ladder attempt(s): {rungs}"
        )

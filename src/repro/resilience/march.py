"""One driver for the bookkeeping every time march shares.

The transient engine (fixed and adaptive), the lock-step ensemble, both
WaMPDE envelopes and the MPDE envelope supply only their numerics: the
predictor, the step solve, step-size control, a snapshot of their own
state and their result type.  :class:`March` does the rest, once: resume
(with the frozen chord LU refactorised at its saved metadata), the store
cadence over single steps and compiled chunks, checkpoints that carry the
partial result, failure context, and the final ``solver``/``recovery``/
``warm`` stats.

The checkpoint payload is this module's format and nobody else's::

    {"state": engine snapshot, "since_store": int, "stats": counters,
     "solver": SolverCore.snapshot(), "partial": partial result}

Readers of a streamed checkpoint go through :func:`partial_result`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SimulationError
from repro.resilience.checkpoint import Checkpoint, CheckpointManager


def partial_result(checkpoint):
    """The partial result a :class:`March` checkpoint carries, or ``None``."""
    return checkpoint.payload.get("partial")


def _copy(value):
    return value.copy() if isinstance(value, np.ndarray) else value


def _copy_stats(stats):
    # Nested dicts (``kernel``) keep changing while the march runs; a
    # snapshot must not.
    return {key: dict(value) if isinstance(value, dict) else value
            for key, value in stats.items()}


class March:
    """Bookkeeping of one time march.

    The engine keeps its loop and, around it, calls :meth:`start` (fresh
    runs) or reads :attr:`state` (resumed runs), then :meth:`accept` /
    :meth:`accept_chunk` per accepted step or compiled chunk,
    ``raise march.fail(...)`` on failure and ``return march.finish()``.

    Parameters
    ----------
    kind:
        Checkpoint kind (``"transient"``, ``"wampde_envelope"``,
        ``"wampde_envelope_adaptive"``, ``"mpde_envelope"``); ``None``
        for a march that takes no checkpoints and cannot resume.
    options:
        Engine options; ``store_every``, ``checkpoint_every`` and
        ``checkpoint_path`` are read from it.
    resume_from:
        A checkpoint of this ``kind`` (or a path to one) to continue
        from, or ``None``.
    result:
        ``result(*columns, stats)`` builds the engine's result from the
        stored columns, time first.
    fields:
        The result attributes holding those columns, in the same order.
    snapshot:
        Zero-argument callable returning a picklable dict of the
        engine's own state at the last accepted step.
    counters:
        The engine's integer counters besides ``steps``.
    core:
        The march's :class:`~repro.linalg.solver_core.SolverCore`.
    matrix_at:
        ``matrix_at(meta)`` assembles the step matrix at frozen-factor
        metadata (see :meth:`SolverCore.refactor_at`).
    summarize:
        Optional ``summarize(stats)`` adding engine-specific entries to
        the stats of a partial or final result.
    max_steps:
        Accepted-step limit (``None``: unlimited).
    warm:
        Export ``stats["warm"]`` (solver state and frozen-factor
        metadata) on the final result.

    Attributes
    ----------
    stats:
        The live counters; engines add to them directly.
    t, dt:
        The last accepted time and the step the next attempt starts
        from.
    state:
        The engine snapshot of a resumed run, ``None`` on a fresh one.
    """

    def __init__(self, kind, options, resume_from=None, *, result, fields,
                 snapshot=None, counters=(), core=None, matrix_at=None,
                 summarize=None, max_steps=None, warm=False):
        self.kind = kind
        self.result = result
        self.snapshot = snapshot
        self.core = core
        self.matrix_at = matrix_at
        self.summarize = summarize
        self.max_steps = math.inf if max_steps is None else max_steps
        self.warm = warm
        self.store_every = getattr(options, "store_every", 1)
        self.manager = None if kind is None else CheckpointManager(
            every=getattr(options, "checkpoint_every", 0) or 0,
            path=getattr(options, "checkpoint_path", None),
        )
        self.state = None
        self.t = self.dt = None
        self.columns = None
        self.since_store = 0
        self.stats = dict.fromkeys(("steps",) + tuple(counters), 0)
        if resume_from is None:
            return
        checkpoint = resume_from
        if not isinstance(checkpoint, Checkpoint):
            checkpoint = Checkpoint.load(checkpoint)
        if checkpoint.kind != kind:
            raise SimulationError(
                f"cannot resume a {kind!r} march from a "
                f"{checkpoint.kind!r} checkpoint"
            )
        payload = checkpoint.payload
        self.state = payload["state"]
        self.t, self.dt = checkpoint.t, checkpoint.dt
        self.since_store = payload["since_store"]
        self.stats = dict(payload["stats"])
        partial = payload["partial"]
        self.columns = [list(getattr(partial, name)) for name in fields]
        core.restore(payload["solver"], matrix_at)

    def start(self, t, dt, *values, warm_start=None):
        """Begin a fresh march: store the initial point, adopt a warm seed.

        ``warm_start`` (duck-typed, typically
        :class:`repro.service.cache.WarmStart`) pre-adopts a previously
        exported solver state and frozen chord factors;
        :meth:`SolverCore.note_parameters` still drops the factors on a
        parameter jump, so a badly matched seed degrades to a cold start.
        """
        self.t, self.dt = t, dt
        self.columns = [[t]] + [[_copy(value)] for value in values]
        if warm_start is not None:
            self.core.adopt_warm_state(
                getattr(warm_start, "solver_state", None) or {}
            )
            self.core.refactor_at(
                getattr(warm_start, "factor_meta", None), self.matrix_at
            )

    def accept(self, t, dt, *values, final=False):
        """Count one accepted step at ``t`` (next step ``dt``).

        The point is stored at the ``store_every`` cadence and always
        when ``final``; a checkpoint is offered, and ``max_steps`` is
        enforced.
        """
        self.t, self.dt = t, dt
        self.stats["steps"] += 1
        self.since_store += 1
        if self.since_store >= self.store_every or final:
            self._store(t, values)
        self._accepted()

    def accept_chunk(self, times, rows, dt, t_stop):
        """Count a compiled chunk: ``rows[j]`` accepted at ``times[j]``.

        The store cadence runs over the chunk exactly as over single
        steps, a point at or past ``t_stop`` being the final one.
        """
        times = times.tolist()
        if self.store_every == 1:
            self.columns[0].extend(times)
            self.columns[1].extend(rows.copy())
            self.since_store = 0
        else:
            for tj, row in zip(times, rows):
                self.since_store += 1
                if self.since_store >= self.store_every or tj >= t_stop:
                    self._store(tj, (row,))
        self.t, self.dt = times[-1], dt
        self.stats["steps"] += len(times)
        self._accepted()

    def chunk_budget(self, limit):
        """Steps the next compiled chunk may take.

        At most ``limit``, ending at ``max_steps`` and at the next
        checkpoint cadence point, so chunked runs checkpoint exactly
        where single steps would.
        """
        steps = self.stats["steps"]
        room = self.max_steps - steps
        if room <= 0:
            raise self.fail(self._exceeded())
        every = self.manager.every if self.manager is not None else 0
        if every:
            limit = min(limit, every - steps % every)
        return min(limit, room)

    def fail(self, error, dt=None, result=None):
        """``error`` with the march's failure context, ready to raise.

        ``error`` is a message or a :class:`~repro.errors.SimulationError`
        raised inside a step, which keeps its type and message.  Context
        it does not carry yet is filled in: the accepted steps, the last
        accepted time, ``dt`` (default: the current step), the Newton
        ``iterations``/``residual_norm`` of ``result`` (a
        :class:`~repro.linalg.newton.NewtonResult` or
        :class:`~repro.errors.ConvergenceError`), a checkpoint of the last
        accepted state (marches with a ``kind``) and the partial result.
        """
        if not isinstance(error, SimulationError):
            error = SimulationError(error)
        context = {
            "step": self.stats["steps"],
            "time": self.t,
            "dt": self.dt if dt is None else dt,
            "iterations": getattr(result, "iterations", None),
            "residual_norm": getattr(result, "residual_norm", None),
        }
        for key, value in context.items():
            if getattr(error, key) is None:
                setattr(error, key, value)
        if error.checkpoint is None and self.manager is not None:
            error.checkpoint = self.manager.take(self._checkpoint)
        if error.partial_result is None:
            error.partial_result = (
                partial_result(error.checkpoint)
                if error.checkpoint is not None else self.partial()
            )
        return error

    def partial(self):
        """The result of the stored prefix (never the in-flight step)."""
        return self.result(*map(np.asarray, self.columns), self._report())

    def finish(self):
        """The final result, with ``solver``/``recovery``/``warm`` stats."""
        stats = self._report()
        if self.warm:
            stats["warm"] = {
                "factor_meta": self.core.factor_metadata(),
                "solver_state": self.core.export_warm_state(),
            }
        return self.result(*map(np.asarray, self.columns), stats)

    def _store(self, t, values):
        self.columns[0].append(t)
        for column, value in zip(self.columns[1:], values):
            column.append(_copy(value))
        self.since_store = 0

    def _accepted(self):
        steps = self.stats["steps"]
        if self.manager is not None:
            self.manager.offer(steps, self._checkpoint)
        if steps >= self.max_steps:
            raise self.fail(self._exceeded())

    def _exceeded(self):
        return f"exceeded max_steps={self.max_steps} at t={self.t:.6e}"

    def _report(self):
        stats = _copy_stats(self.stats)
        if self.summarize is not None:
            self.summarize(stats)
        core = self.core
        if core is not None:
            stats["solver"] = core.stats.as_dict()
            if core.recovery:
                stats["recovery"] = core.recovery.as_dict()
        return stats

    def _checkpoint(self):
        return Checkpoint(
            kind=self.kind,
            step=self.stats["steps"],
            t=self.t,
            dt=self.dt,
            payload={
                "state": self.snapshot(),
                "since_store": self.since_store,
                "stats": _copy_stats(self.stats),
                "solver": self.core.snapshot(),
                "partial": self.partial(),
            },
        )

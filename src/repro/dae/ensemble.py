"""Ensembles: B independent scenarios of one DAE, evaluated in lock-step.

The paper's headline results are *families* of runs — tuning curves sweep
the control voltage point by point, Monte-Carlo studies spread component
values — yet each scenario shares the structure of every other: same
unknowns, same sparsity, same forcing shape.  An :class:`EnsembleDAE`
stacks ``B`` such scenarios behind one evaluation interface with a leading
scenario axis, so the ensemble engines
(:func:`repro.transient.ensemble.simulate_transient_ensemble`,
:func:`repro.steadystate.sweep.ensemble_frequency_sweep`) advance all of
them from one Python loop: the per-step dispatch overhead that dominates
small-system hot paths is paid once per ensemble instead of once per
scenario.

Two realisations
----------------

:meth:`EnsembleDAE.from_stacked`
    Wraps a *single* DAE instance whose parameters carry the ``(B,)``
    scenario axis (e.g. :class:`repro.circuits.library.MemsVcoDae` with an
    array ``control_offset``, or a :class:`repro.circuits.mna.CircuitDAE`
    whose devices hold per-scenario component stacks).  Every evaluation
    is one vectorised ``*_batch`` call — the fast path, reusing the PR-1
    batch machinery and gather/scatter maps unchanged because those never
    look at parameter values.

:meth:`EnsembleDAE.from_members`
    Wraps ``B`` independent member DAEs and loops over them — one Python
    call per *member* per evaluation (not per grid point), correct for any
    :class:`~repro.dae.base.SemiExplicitDAE`.  The generic fallback, and
    the cross-check the stacked path is tested against.

Both expose the same row-wise interface (``(B, n)`` states in, ``(B, n)``
/ ``(B, n, n)`` values out) plus per-member accessors for seeding and
fallback solves.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError


class EnsembleDAE:
    """B lock-step scenarios of a structurally identical DAE family.

    Build with :meth:`from_stacked` (vectorised fast path) or
    :meth:`from_members` (generic loop).  States are handled row-wise:
    ``states[b]`` is scenario ``b``'s state vector of length ``n``.

    Attributes
    ----------
    batch_size:
        Number of scenarios ``B``.
    n:
        Unknowns *per scenario* (every member has the same count).
    variable_names:
        Member-level labels, length ``n``.
    """

    def __init__(self, batch_size, n, variable_names, members=None,
                 stacked=None):
        self.batch_size = int(batch_size)
        self.n = int(n)
        self.variable_names = tuple(variable_names)
        self._members = list(members) if members is not None else None
        self._stacked = stacked
        if self.batch_size < 1:
            raise ValidationError(
                f"ensemble needs batch_size >= 1, got {batch_size}"
            )
        if self._members is None and self._stacked is None:
            raise ValidationError(
                "ensemble needs members and/or a stacked DAE; use "
                "EnsembleDAE.from_members / EnsembleDAE.from_stacked"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_members(cls, members):
        """Ensemble over independent member DAEs (generic loop path)."""
        members = list(members)
        if not members:
            raise ValidationError("ensemble needs at least one member")
        n = members[0].n
        for member in members[1:]:
            if member.n != n:
                raise ValidationError(
                    f"ensemble members must share one system size; got "
                    f"{n} and {member.n}"
                )
        return cls(len(members), n, members[0].variable_names,
                   members=members)

    @classmethod
    def from_stacked(cls, dae, batch_size, members=None):
        """Ensemble over one stacked-parameter DAE (vectorised fast path).

        Parameters
        ----------
        dae:
            A :class:`~repro.dae.base.SemiExplicitDAE` whose parameters
            broadcast over a leading ``(batch_size,)`` scenario axis when
            evaluated through its ``*_batch`` methods with exactly
            ``batch_size`` rows.  A plain scalar-parameter DAE qualifies
            trivially (B identical scenarios — useful for batching
            independent solves of one system from different states).
        members:
            Optional per-scenario member DAEs, kept for seeding and for
            the per-scenario full-Newton fallback; without them a
            scenario that diverges under the vectorised chord loop cannot
            be rescued individually.
        """
        return cls(batch_size, dae.n, dae.variable_names,
                   members=list(members) if members is not None else None,
                   stacked=dae)

    # -- member access ------------------------------------------------------

    @property
    def has_members(self):
        """Whether per-scenario member DAEs are available."""
        return self._members is not None

    def member(self, index):
        """Scenario ``index``'s standalone DAE (requires members)."""
        if self._members is None:
            raise ValidationError(
                "this ensemble was built without member DAEs; pass "
                "members= to EnsembleDAE.from_stacked"
            )
        return self._members[index]

    def subset(self, indices):
        """A new ensemble restricted to the given scenario ``indices``.

        Used by service sharding
        (:meth:`repro.api.requests.EnsembleRequest.shards`).  A
        stacked ensemble subsets through the stacked DAE's optional
        ``subset_scenarios(indices)`` hook (parameter-stack slicing);
        without that hook, member DAEs are sliced; with neither, raises
        :class:`~repro.errors.ValidationError`.
        """
        indices = np.asarray(indices, dtype=int).ravel()
        if indices.size < 1:
            raise ValidationError("ensemble subset needs at least one index")
        if np.any((indices < 0) | (indices >= self.batch_size)):
            raise ValidationError(
                f"subset indices out of range for batch_size="
                f"{self.batch_size}: {indices.tolist()}"
            )
        members = (
            [self._members[i] for i in indices]
            if self._members is not None else None
        )
        stacked = None
        if self._stacked is not None:
            hook = getattr(self._stacked, "subset_scenarios", None)
            if hook is not None:
                stacked = hook(indices)
            elif members is None:
                raise ValidationError(
                    f"{type(self._stacked).__name__} does not support "
                    f"subset_scenarios and the ensemble has no members "
                    f"to slice"
                )
        return EnsembleDAE(
            indices.size, self.n, self.variable_names,
            members=members, stacked=stacked,
        )

    # -- row-wise evaluation -------------------------------------------------

    def _check_rows(self, states):
        shape = (self.batch_size, self.n)
        # Backend arrays (CuPy, the strict wrapper) pass through untouched
        # when already shaped — coercing through np.asarray would force a
        # host round-trip on every evaluation.
        if not isinstance(states, np.ndarray) \
                and getattr(states, "shape", None) == shape:
            return states
        states = np.asarray(states, dtype=float)
        if states.shape != shape:
            raise ValidationError(
                f"ensemble states must have shape {shape}, "
                f"got {states.shape}"
            )
        return states

    def q_rows(self, states):
        """``q`` of every scenario at its own state: ``(B, n)``."""
        states = self._check_rows(states)
        if self._stacked is not None:
            return self._stacked.q_batch(states)
        return np.stack([m.q(x) for m, x in zip(self._members, states)])

    def f_rows(self, states):
        """``f`` of every scenario at its own state: ``(B, n)``."""
        states = self._check_rows(states)
        if self._stacked is not None:
            return self._stacked.f_batch(states)
        return np.stack([m.f(x) for m, x in zip(self._members, states)])

    def qf_rows(self, states):
        """Fused ``(q_rows, f_rows)`` — the ensemble Newton hot path."""
        states = self._check_rows(states)
        if self._stacked is not None:
            return self._stacked.qf_batch(states)
        pairs = [m.qf(x) for m, x in zip(self._members, states)]
        return (np.stack([q for q, _f in pairs]),
                np.stack([f for _q, f in pairs]))

    def b_rows(self, t):
        """Forcing of every scenario at the shared time ``t``: ``(B, n)``."""
        if self._stacked is not None:
            return self._stacked.b_batch(np.full(self.batch_size, float(t)))
        return np.stack([m.b(t) for m in self._members])

    def b_rows_grid(self, times):
        """Forcing on a whole shared grid: ``(T, B, n)``.

        The fixed-step ensemble engine precomputes this once per run.
        With members available this is one vectorised ``b_batch`` call
        per *member* (B calls); a stacked ensemble without members falls
        back to one (vectorised-over-scenarios) call per grid point —
        the stacked instance's array parameters broadcast against a
        ``(B,)`` time vector, not against the full grid.
        """
        times = np.asarray(times, dtype=float).ravel()
        if self._members is not None:
            first = self._members[0]
            if all(member is first for member in self._members):
                # B references to one DAE (e.g. the entrainment probe):
                # evaluate the grid once and broadcast over scenarios.
                base = first.b_batch(times)
                return np.broadcast_to(
                    base[:, None, :],
                    (times.size, self.batch_size, self.n),
                ).copy()
            per_member = np.stack(
                [member.b_batch(times) for member in self._members]
            )  # (B, T, n)
            return np.ascontiguousarray(per_member.transpose(1, 0, 2))
        return np.stack([self.b_rows(t) for t in times])

    def dq_rows(self, states):
        """Per-scenario ``dq_dx`` blocks: ``(B, n, n)``."""
        states = self._check_rows(states)
        if self._stacked is not None:
            return self._stacked.dq_dx_batch(states)
        return np.stack(
            [m.dq_dx(x) for m, x in zip(self._members, states)]
        )

    def df_rows(self, states):
        """Per-scenario ``df_dx`` blocks: ``(B, n, n)``."""
        states = self._check_rows(states)
        if self._stacked is not None:
            return self._stacked.df_dx_batch(states)
        return np.stack(
            [m.df_dx(x) for m, x in zip(self._members, states)]
        )

    # -- compiled lowering ---------------------------------------------------

    def kernel_spec(self):
        """Lower the ensemble to a batched :class:`~repro.kernels.registry.KernelSpec`.

        Returns ``(spec, None)`` or ``(None, reason)`` like
        :func:`~repro.kernels.registry.spec_for_dae`.  Only stacked
        ensembles lower (a member loop has no single statement list);
        stacked parameter rows must line up with the scenario axis —
        one shared row or exactly ``batch_size`` rows.
        """
        from repro.kernels.registry import spec_for_dae
        from repro.kernels.sweep import KernelizedDAE

        if self._stacked is None:
            return None, "member-loop ensembles stay on the python path"
        base = self._stacked
        if isinstance(base, KernelizedDAE):
            base = base._dae
        spec, why = spec_for_dae(base)
        if spec is None:
            return None, why
        if spec.params_rows.shape[0] not in (1, self.batch_size):
            return None, (
                f"{spec.params_rows.shape[0]} stacked parameter rows do "
                f"not line up with batch_size={self.batch_size}"
            )
        return spec, None

    # -- structural sparsity -------------------------------------------------

    def dq_structure(self):
        """Member-level ``(n, n)`` superset of every scenario's pattern."""
        if self._stacked is not None:
            return np.asarray(self._stacked.dq_structure(), dtype=bool)
        mask = np.zeros((self.n, self.n), dtype=bool)
        for member in self._members:
            mask |= np.asarray(member.dq_structure(), dtype=bool)
        return mask

    def df_structure(self):
        """Member-level ``(n, n)`` superset of every scenario's pattern."""
        if self._stacked is not None:
            return np.asarray(self._stacked.df_structure(), dtype=bool)
        mask = np.zeros((self.n, self.n), dtype=bool)
        for member in self._members:
            mask |= np.asarray(member.df_structure(), dtype=bool)
        return mask

    def __repr__(self):
        kind = "stacked" if self._stacked is not None else "members"
        return (
            f"EnsembleDAE(batch_size={self.batch_size}, n={self.n}, "
            f"kind={kind!r})"
        )


def ensemble_from_factory(factory, values, stacked_factory=None):
    """Build an ensemble over one scalar parameter.

    Parameters
    ----------
    factory:
        ``value -> SemiExplicitDAE`` building one scenario (the same
        contract :func:`repro.steadystate.sweep.oscillator_frequency_sweep`
        takes).  Members are always built — they seed per-scenario solves
        and back the divergence fallback.
    values:
        The ``B`` parameter values, one scenario each.
    stacked_factory:
        Optional ``values_array -> SemiExplicitDAE`` building the whole
        family as one stacked-parameter instance (the vectorised fast
        path); when omitted, the ensemble falls back to the member loop.
    """
    values = np.asarray(values, dtype=float).ravel()
    if values.size < 1:
        raise ValidationError("ensemble needs at least one parameter value")
    members = [factory(float(v)) for v in values]
    if stacked_factory is None:
        return EnsembleDAE.from_members(members)
    return EnsembleDAE.from_stacked(
        stacked_factory(values), values.size, members=members
    )

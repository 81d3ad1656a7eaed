"""Shared grid construction and state-stacking helpers.

Every collocation engine (harmonic balance, the quasiperiodic solvers, the
envelope steppers) flattens ``(points, variables)`` sample grids into the
point-major vectors Newton iterates on, and works on the normalised
``t1 in [0, 1)`` spectral grid with centred harmonic indices.  The basic
1-D grid constructors (``uniform_grid`` and friends) live here too, so
all grid construction has one home.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.spectral.grid import collocation_grid, harmonic_indices


def stack_states(samples):
    """Flatten a ``(num_points, n_vars)`` grid to a point-major vector.

    Point-major means all variables of collocation point 0 first, then all
    variables of point 1, etc. — the unknown ordering every collocation
    Jacobian in this library uses.
    """
    return np.asarray(samples, dtype=float).ravel()


def unstack_states(vector, num_points, n_vars):
    """Inverse of :func:`stack_states`: reshape to ``(num_points, n_vars)``."""
    return np.asarray(vector, dtype=float).reshape(num_points, n_vars)


def t1_grid(num_t1):
    """Normalised t1 collocation grid (period 1, endpoint excluded)."""
    return collocation_grid(num_t1, 1.0)


def harmonic_axis(num_t1):
    """Centred harmonic indices for a given t1 sample count."""
    return harmonic_indices(num_t1)


def uniform_grid(start, stop, num):
    """Uniform grid of ``num`` points including both endpoints.

    Equivalent to :func:`numpy.linspace` but validates its arguments.
    """
    if num < 2:
        raise ValidationError(f"uniform_grid needs num >= 2, got {num}")
    if not stop > start:
        raise ValidationError(
            f"uniform_grid needs stop > start, got [{start}, {stop}]"
        )
    return np.linspace(start, stop, num)


def periodic_grid(period, num):
    """Uniform grid of ``num`` points on ``[0, period)`` (endpoint excluded).

    This is the natural collocation grid for periodic spectral methods: the
    point at ``t = period`` is identified with ``t = 0`` and therefore not
    repeated.
    """
    if not (np.isfinite(period) and period > 0):
        raise ValidationError(
            f"period must be a positive finite number, got {period!r}"
        )
    if num < 1:
        raise ValidationError(f"periodic_grid needs num >= 1, got {num}")
    return period * np.arange(num) / num


def log_grid(start, stop, num):
    """Logarithmically spaced grid; both endpoints must be positive."""
    if not (np.isfinite(start) and start > 0):
        raise ValidationError(
            f"start must be a positive finite number, got {start!r}"
        )
    if not (np.isfinite(stop) and stop > 0):
        raise ValidationError(
            f"stop must be a positive finite number, got {stop!r}"
        )
    if num < 2:
        raise ValidationError(f"log_grid needs num >= 2, got {num}")
    if not stop > start:
        raise ValidationError(
            f"log_grid needs stop > start, got [{start}, {stop}]"
        )
    return np.geomspace(start, stop, num)

"""Small argument-validation helpers.

The helpers raise :class:`repro.errors.ValidationError` with a message that
names the offending argument, so call sites stay one-liners;
:func:`check_window` raises the engines' :class:`~repro.errors.SimulationError`.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.errors import SimulationError, ValidationError


def check_finite(value, name="value"):
    """Raise unless ``value`` (scalar or array) contains only finite numbers."""
    arr = np.asarray(value)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


def check_window(t2_start, t2_stop, num_steps=None):
    """Raise :class:`~repro.errors.SimulationError` unless the slow-time
    window is finite with ``t2_stop > t2_start`` and, for uniform steps,
    ``num_steps`` is an integer (Python or NumPy) ``>= 1``."""
    try:
        check_finite(t2_start, "t2_start")
        check_finite(t2_stop, "t2_stop")
    except ValidationError as exc:
        raise SimulationError(str(exc)) from None
    if not t2_stop > t2_start:
        raise SimulationError(
            f"t2_stop must exceed t2_start, got [{t2_start}, {t2_stop}]"
        )
    if num_steps is None:
        return
    if (not isinstance(num_steps, numbers.Integral)
            or isinstance(num_steps, bool)):
        raise SimulationError(
            f"num_steps must be an integer, got {num_steps!r}"
        )
    if num_steps < 1:
        raise SimulationError(f"num_steps must be >= 1, got {num_steps}")


def check_positive(value, name="value"):
    """Raise unless scalar ``value`` is a finite number > 0."""
    if not isinstance(value, numbers.Real) or not np.isfinite(value) or value <= 0:
        raise ValidationError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_nonnegative(value, name="value"):
    """Raise unless scalar ``value`` is a finite number >= 0."""
    if not isinstance(value, numbers.Real) or not np.isfinite(value) or value < 0:
        raise ValidationError(
            f"{name} must be a non-negative finite number, got {value!r}"
        )
    return value


def check_in_range(value, low, high, name="value"):
    """Raise unless ``low <= value <= high``."""
    if not isinstance(value, numbers.Real) or not (low <= value <= high):
        raise ValidationError(f"{name} must lie in [{low}, {high}], got {value!r}")
    return value


def check_odd(value, name="value"):
    """Raise unless ``value`` is an odd integer."""
    if not isinstance(value, numbers.Integral) or value % 2 != 1:
        raise ValidationError(f"{name} must be an odd integer, got {value!r}")
    return int(value)


def as_1d_array(value, name="value", dtype=float):
    """Return ``value`` as a 1-D numpy array, raising on higher dimensions."""
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def as_2d_array(value, name="value", dtype=float):
    """Return ``value`` as a 2-D numpy array, raising otherwise."""
    arr = np.asarray(value, dtype=dtype)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-D, got shape {arr.shape}")
    return arr

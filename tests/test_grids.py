"""Tests for the shared grid/stacking helpers (repro.grids)."""

import numpy as np
import pytest

from repro.grids import harmonic_axis, stack_states, t1_grid, unstack_states


class TestStacking:
    def test_stack_is_point_major(self):
        samples = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(
            stack_states(samples), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        )

    def test_unstack_round_trip(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((7, 3))
        np.testing.assert_array_equal(
            unstack_states(stack_states(samples), 7, 3), samples
        )

    def test_stack_accepts_lists(self):
        assert stack_states([[1, 2], [3, 4]]).dtype == float

    def test_unstack_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            unstack_states(np.zeros(5), 2, 3)


class TestSpectralAxes:
    def test_t1_grid_normalised(self):
        grid = t1_grid(5)
        np.testing.assert_allclose(grid, np.arange(5) / 5)

    def test_harmonic_axis_centred(self):
        np.testing.assert_array_equal(harmonic_axis(5), [-2, -1, 0, 1, 2])

    def test_hb_stack_helpers_are_shared(self):
        from repro.steadystate import harmonic_balance as hb

        assert hb._stack is stack_states
        assert hb._unstack is unstack_states

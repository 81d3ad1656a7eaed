"""Tests for netlist handling and MNA assembly."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits import (
    Capacitor,
    Circuit,
    CurrentSource,
    Inductor,
    VCCS,
    Resistor,
    VoltageSource,
)
from repro.circuits.library import (
    MemsVcoDae,
    VcoParams,
    lc_oscillator_circuit,
    mems_vco_circuit,
    rc_diode_mixer_circuit,
)
from repro.circuits.waveforms import DC
from repro.errors import NetlistError
from repro.linalg import finite_difference_jacobian, jacobian_error


def voltage_divider():
    ckt = Circuit("divider")
    ckt.add(VoltageSource("V1", "in", "0", DC(10.0)))
    ckt.add(Resistor("R1", "in", "mid", 1e3))
    ckt.add(Resistor("R2", "mid", "0", 1e3))
    return ckt


class TestNetlist:
    def test_node_discovery_order(self):
        ckt = voltage_divider()
        assert ckt.node_names() == ("in", "mid")

    def test_duplicate_name_rejected(self):
        ckt = Circuit()
        ckt.add(Resistor("R1", "a", "0", 1.0))
        with pytest.raises(NetlistError, match="duplicate"):
            ckt.add(Resistor("R1", "b", "0", 1.0))

    def test_non_device_rejected(self):
        with pytest.raises(NetlistError):
            Circuit().add("not a device")

    def test_device_lookup(self):
        ckt = voltage_divider()
        assert ckt.device("R1").resistance == 1e3
        with pytest.raises(NetlistError):
            ckt.device("nope")

    def test_empty_circuit_invalid(self):
        with pytest.raises(NetlistError, match="no devices"):
            Circuit().validate()

    def test_floating_circuit_invalid(self):
        ckt = Circuit()
        ckt.add(Resistor("R1", "a", "b", 1.0))
        with pytest.raises(NetlistError, match="ground"):
            ckt.validate()

    def test_ground_aliases(self):
        for ground in ("0", "gnd", "GND", "ground"):
            ckt = Circuit()
            ckt.add(Resistor("R1", "a", ground, 1.0))
            assert ckt.has_ground()

    def test_len_and_repr(self):
        ckt = voltage_divider()
        assert len(ckt) == 3
        assert "divider" in repr(ckt)


class TestMnaAssembly:
    def test_unknown_ordering(self):
        dae = voltage_divider().to_dae()
        assert dae.variable_names == ("v(in)", "v(mid)", "V1.i")

    def test_divider_dc_solution(self):
        from repro.steadystate import dc_operating_point

        dae = voltage_divider().to_dae()
        x = dc_operating_point(dae)
        np.testing.assert_allclose(x[0], 10.0, atol=1e-9)
        np.testing.assert_allclose(x[1], 5.0, atol=1e-9)
        np.testing.assert_allclose(x[2], -5e-3, atol=1e-9)  # current a->b

    def test_kcl_row_sum_property(self, rng):
        """With ground rows dropped, summing f over all nodes of a
        resistor-only loop equals the negated ground-row contribution —
        verified by building a circuit with *no* ground-connected device
        being exercised: currents into internal nodes must cancel."""
        ckt = Circuit()
        ckt.add(Resistor("R1", "a", "b", 2.0))
        ckt.add(Resistor("R2", "b", "c", 3.0))
        ckt.add(Resistor("R3", "c", "a", 4.0))
        ckt.add(Resistor("Rg", "a", "0", 5.0))
        dae = ckt.to_dae()
        x = rng.normal(size=dae.n)
        f = dae.f(x)
        # Total current leaving all non-ground nodes = current into ground.
        ground_current = (x[dae.variable_names.index("v(a)")]) / 5.0
        assert np.isclose(f.sum(), ground_current)

    def test_b_vector_sources_only(self):
        ckt = Circuit()
        ckt.add(CurrentSource("I1", "0", "out", DC(2e-3)))
        ckt.add(Resistor("R1", "out", "0", 1e3))
        dae = ckt.to_dae()
        np.testing.assert_allclose(dae.b(0.0), [2e-3])
        np.testing.assert_allclose(dae.q(np.array([1.0])), [0.0])

    def test_current_source_dc_solution(self):
        from repro.steadystate import dc_operating_point

        ckt = Circuit()
        ckt.add(CurrentSource("I1", "0", "out", DC(2e-3)))
        ckt.add(Resistor("R1", "out", "0", 1e3))
        x = dc_operating_point(ckt.to_dae())
        np.testing.assert_allclose(x, [2.0], atol=1e-9)

    def test_dynamic_elements_in_q(self):
        ckt = Circuit()
        ckt.add(CurrentSource("I1", "0", "out", DC(0.0)))
        ckt.add(Capacitor("C1", "out", "0", 2e-6))
        ckt.add(Inductor("L1", "out", "0", 1e-3))
        dae = ckt.to_dae()
        x = np.array([3.0, 0.25])  # [v(out), L1.i]
        np.testing.assert_allclose(dae.q(x), [6e-6, 2.5e-4])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_mna_jacobians_match_fd(self, seed):
        rng = np.random.default_rng(seed)
        dae = rc_diode_mixer_circuit().to_dae()
        x = rng.uniform(-0.5, 0.7, size=dae.n)
        assert jacobian_error(
            dae.df_dx(x), finite_difference_jacobian(dae.f, x)
        ) < 1e-5
        assert jacobian_error(
            dae.dq_dx(x), finite_difference_jacobian(dae.q, x)
        ) < 1e-5

    def test_device_with_two_ports_on_one_node(self, rng):
        # A VCCS sensing the node it drives is a conductance gm to ground:
        # its output and control columns coincide, and the single-point
        # Jacobian must keep both entries, like the batched scatter does.
        ckt = Circuit("self-sensing vccs")
        ckt.add(Resistor("R1", "n1", "0", 1e3))
        ckt.add(VCCS("G1", "n1", "0", "n1", "0", gm=2e-4))
        ckt.add(VCCS("G2", "n1", "0", "0", "n1", gm=5e-5))
        dae = ckt.to_dae()
        x = rng.normal(size=dae.n)
        np.testing.assert_allclose(dae.df_dx(x), [[1e-3 + 2e-4 - 5e-5]])
        np.testing.assert_array_equal(
            dae.df_dx(x), dae.df_dx_batch(x[None])[0]
        )

    def test_batch_consistency(self, rng):
        dae = lc_oscillator_circuit().to_dae()
        states = rng.normal(size=(6, dae.n))
        np.testing.assert_allclose(
            dae.q_batch(states), np.stack([dae.q(s) for s in states])
        )
        np.testing.assert_allclose(
            dae.f_batch(states), np.stack([dae.f(s) for s in states])
        )


class TestVcoLibrary:
    def test_netlist_equals_handwritten(self, rng):
        """The MNA build and the vectorised DAE are the same system."""
        params = VcoParams.vacuum()
        netlist_dae = mems_vco_circuit(params).to_dae()
        fast_dae = MemsVcoDae(params)
        assert netlist_dae.variable_names == fast_dae.variable_names
        for _ in range(5):
            x = rng.normal(size=4) * np.array([1.0, 1e-3, 1e-7, 1e-2])
            t = float(rng.uniform(0, 40e-6))
            np.testing.assert_allclose(netlist_dae.q(x), fast_dae.q(x), rtol=1e-12)
            np.testing.assert_allclose(netlist_dae.f(x), fast_dae.f(x), rtol=1e-12)
            np.testing.assert_allclose(netlist_dae.b(t), fast_dae.b(t), rtol=1e-12)
            np.testing.assert_allclose(
                netlist_dae.dq_dx(x), fast_dae.dq_dx(x), rtol=1e-12
            )
            np.testing.assert_allclose(
                netlist_dae.df_dx(x), fast_dae.df_dx(x), rtol=1e-12
            )

    def test_static_tuning_anchor_nominal(self):
        """Paper: 1.5 V control -> about 0.75 MHz."""
        params = VcoParams.vacuum()
        assert params.static_frequency(1.5) == pytest.approx(
            0.75e6 / np.sqrt(0.9557), rel=1e-3
        )

    def test_static_tuning_monotone_in_control(self):
        params = VcoParams.vacuum()
        vc = np.linspace(0.0, 3.0, 20)
        freqs = params.static_frequency(vc)
        assert np.all(np.diff(freqs) >= 0)

    def test_air_variant_overdamped(self):
        air = VcoParams.air()
        critical = 2.0 * np.sqrt(air.stiffness * air.mass)
        assert air.damping > 10 * critical

    def test_air_forcing_period(self):
        assert VcoParams.air().control_period == pytest.approx(1e-3)

    def test_vacuum_forcing_is_30_cycles(self):
        from repro.circuits.library import T_NOMINAL

        assert VcoParams.vacuum().control_period == pytest.approx(
            30 * T_NOMINAL
        )

    def test_constant_control_freezes(self):
        params = VcoParams.vacuum()
        wave = params.control_waveform(constant=True)
        assert wave(0.0) == wave(17e-6) == params.control_offset

    def test_vco_batch_matches_pointwise(self, rng):
        dae = MemsVcoDae(VcoParams.vacuum())
        states = rng.normal(size=(5, 4)) * np.array([1.0, 1e-3, 1e-7, 1e-2])
        np.testing.assert_allclose(
            dae.q_batch(states), np.stack([dae.q(s) for s in states])
        )
        np.testing.assert_allclose(
            dae.df_dx_batch(states), np.stack([dae.df_dx(s) for s in states])
        )
        times = np.array([0.0, 1e-5])
        np.testing.assert_allclose(
            dae.b_batch(times), np.stack([dae.b(t) for t in times])
        )

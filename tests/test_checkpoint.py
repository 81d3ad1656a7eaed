"""Checkpoint/restart tests: snapshots, cadence, and bit-identical
resume across the transient and envelope engines.

The failure/resume/streaming contract every march route keeps is in
``test_march.py``; this file covers the checkpoint object, the cadence
manager, spooled checkpoints and kind checks.

The resume contract is strict: a run interrupted mid-march and resumed
from its checkpoint must reproduce the uninterrupted run's trajectory
*bit for bit* (``np.array_equal``, not ``allclose``) — the snapshot
carries the integrator history, the controller's registered parameters
and the frozen-factorisation metadata, and LU of an identical matrix is
deterministic.
"""

import pickle

import numpy as np
import pytest

from repro.constants import TWO_PI
from repro.dae import LinearRCDae, VanDerPolDae
from repro.errors import SimulationError
from repro.linalg.newton import NewtonOptions
from repro.mpde import additive_two_tone_forcing, solve_mpde_envelope
from repro.mpde.envelope import MpdeEnvelopeOptions
from repro.resilience.checkpoint import Checkpoint, CheckpointManager
from repro.transient import TransientOptions, simulate_transient
from repro.wampde import (
    WampdeEnvelopeOptions,
    solve_wampde_envelope,
    solve_wampde_envelope_adaptive,
)


class TestCheckpointObject:
    def test_save_load_round_trip(self, tmp_path):
        checkpoint = Checkpoint(
            kind="transient", step=7, t=1.25, dt=0.5,
            payload={"x": np.arange(3.0), "stats": {"steps": 7}},
        )
        path = tmp_path / "run.ckpt"
        checkpoint.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.kind == "transient"
        assert loaded.step == 7
        assert loaded.t == 1.25
        assert loaded.dt == 0.5
        np.testing.assert_array_equal(loaded.payload["x"], np.arange(3.0))

    def test_load_rejects_foreign_pickle(self, tmp_path):
        path = tmp_path / "junk.pkl"
        path.write_bytes(pickle.dumps({"not": "a checkpoint"}))
        with pytest.raises(TypeError, match="Checkpoint"):
            Checkpoint.load(path)

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        checkpoint = Checkpoint(kind="transient", step=1, t=0.0, dt=0.1)
        checkpoint.save(tmp_path / "a.ckpt")
        checkpoint.save(tmp_path / "a.ckpt")  # overwrite in place
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt"]


class TestCheckpointManager:
    def test_cadence_and_retention(self):
        manager = CheckpointManager(every=3, keep=2)
        taken = []
        for step in range(1, 11):
            made = manager.offer(
                step,
                lambda step=step: Checkpoint(
                    kind="transient", step=step, t=float(step), dt=1.0
                ),
            )
            if made is not None:
                taken.append(made.step)
        assert taken == [3, 6, 9]
        assert manager.taken == 3
        assert [c.step for c in manager.checkpoints] == [6, 9]
        assert manager.last.step == 9

    def test_disabled_cadence_never_materialises(self):
        manager = CheckpointManager(every=0)
        calls = []

        def factory():
            calls.append(1)
            return Checkpoint(kind="transient", step=1, t=0.0, dt=1.0)

        for step in range(1, 50):
            assert manager.offer(step, factory) is None
        assert not calls
        assert manager.last is None

    def test_take_spools_to_disk(self, tmp_path):
        path = tmp_path / "latest.ckpt"
        manager = CheckpointManager(every=0, path=path)
        manager.take(
            lambda: Checkpoint(kind="transient", step=4, t=2.0, dt=0.5)
        )
        assert Checkpoint.load(path).step == 4


class TestTransientResume:
    def run_options(self, **kwargs):
        return TransientOptions(integrator="trap", dt=1e-2, **kwargs)

    def test_resume_from_spooled_path(self, tmp_path):
        dae = VanDerPolDae(mu=3.0)
        x0 = [2.0, 0.0]
        path = tmp_path / "transient.ckpt"
        reference = simulate_transient(dae, x0, 0.0, 8.0, self.run_options())
        simulate_transient(
            dae, x0, 0.0, 8.0,
            self.run_options(checkpoint_every=300, checkpoint_path=path),
        )
        # Periodic cadence fired at steps 300 and 600 of 800; the spool
        # holds the latest, so resuming replays the final 200 steps.
        assert Checkpoint.load(path).step == 600
        resumed = simulate_transient(
            dae, x0, 0.0, 8.0, self.run_options(), resume_from=str(path)
        )
        assert np.array_equal(resumed.t, reference.t)
        assert np.array_equal(resumed.x, reference.x)

    def test_resume_rejects_wrong_kind(self):
        checkpoint = Checkpoint(
            kind="wampde_envelope", step=0, t=0.0, dt=0.1
        )
        with pytest.raises(SimulationError, match="wampde_envelope"):
            simulate_transient(
                VanDerPolDae(mu=1.0), [2.0, 0.0], 0.0, 1.0,
                self.run_options(), resume_from=checkpoint,
            )


class TestWampdeEnvelopeResume:
    def test_fixed_march_resume_is_bit_identical(
        self, vdp_limit_cycle, tmp_path
    ):
        dae, hb = vdp_limit_cycle
        path = tmp_path / "envelope.ckpt"
        reference = solve_wampde_envelope(
            dae, hb.samples, hb.frequency, 0.0, 15.0, 30
        )
        solve_wampde_envelope(
            dae, hb.samples, hb.frequency, 0.0, 15.0, 30,
            WampdeEnvelopeOptions(
                checkpoint_every=16, checkpoint_path=path
            ),
        )
        checkpoint = Checkpoint.load(path)
        assert checkpoint.kind == "wampde_envelope"
        assert checkpoint.step == 16
        resumed = solve_wampde_envelope(
            dae, hb.samples, hb.frequency, 0.0, 15.0, 30,
            resume_from=checkpoint,
        )
        assert np.array_equal(resumed.t2, reference.t2)
        assert np.array_equal(resumed.omega, reference.omega)
        assert np.array_equal(resumed.samples, reference.samples)
        assert (
            resumed.stats["newton_iterations"]
            == reference.stats["newton_iterations"]
        )

    def test_step_failure_carries_checkpoint_and_partial(
        self, vdp_limit_cycle
    ):
        dae, hb = vdp_limit_cycle
        # An unreachable atol with rtol=0 (so the relative-update check
        # cannot declare victory) and a one-iteration budget fails every
        # ladder rung deterministically.
        options = WampdeEnvelopeOptions(
            newton=NewtonOptions(atol=1e-30, rtol=0.0, max_iterations=1)
        )
        with pytest.raises(SimulationError, match="failed to converge") as info:
            solve_wampde_envelope(
                dae, hb.samples, hb.frequency, 0.0, 15.0, 30, options
            )
        exc = info.value
        assert exc.checkpoint is not None
        assert exc.checkpoint.kind == "wampde_envelope"
        assert exc.step == 0
        assert exc.iterations is not None
        assert exc.partial_result is not None
        assert "solver" in exc.partial_result.stats

    def test_resume_rejects_wrong_kind(self, vdp_limit_cycle):
        dae, hb = vdp_limit_cycle
        checkpoint = Checkpoint(kind="transient", step=0, t=0.0, dt=0.1)
        with pytest.raises(SimulationError, match="transient"):
            solve_wampde_envelope(
                dae, hb.samples, hb.frequency, 0.0, 15.0, 30,
                resume_from=checkpoint,
            )
        with pytest.raises(SimulationError, match="transient"):
            solve_wampde_envelope_adaptive(
                dae, hb.samples, hb.frequency, 0.0, 15.0,
                resume_from=checkpoint,
            )


class TestMpdeEnvelopeResume:
    def setup_problem(self):
        dae = LinearRCDae(resistance=1.0, capacitance=0.02)
        f1, f2 = 50.0, 1.0

        def fast(t1):
            return np.array([np.cos(TWO_PI * f1 * t1)])

        def slow(t2):
            return np.array([0.5 * np.cos(TWO_PI * f2 * t2)])

        forcing = additive_two_tone_forcing(fast, slow, 1.0 / f1, 1.0 / f2, 1)
        return dae, forcing

    def test_resume_is_bit_identical(self, tmp_path):
        dae, forcing = self.setup_problem()
        initial = np.zeros((9, 1))
        path = tmp_path / "mpde.ckpt"
        reference = solve_mpde_envelope(dae, forcing, initial, 0.0, 1.0, 60)
        solve_mpde_envelope(
            dae, forcing, initial, 0.0, 1.0, 60,
            MpdeEnvelopeOptions(checkpoint_every=25, checkpoint_path=path),
        )
        checkpoint = Checkpoint.load(path)
        assert checkpoint.kind == "mpde_envelope"
        assert checkpoint.step == 50
        resumed = solve_mpde_envelope(
            dae, forcing, initial, 0.0, 1.0, 60, resume_from=checkpoint
        )
        assert np.array_equal(resumed.t2, reference.t2)
        assert np.array_equal(resumed.samples, reference.samples)

    def test_step_failure_carries_checkpoint_and_partial(self):
        dae, forcing = self.setup_problem()
        options = MpdeEnvelopeOptions(
            newton=NewtonOptions(atol=1e-30, rtol=0.0, max_iterations=1)
        )
        with pytest.raises(SimulationError, match="failed to converge") as info:
            solve_mpde_envelope(
                dae, forcing, np.zeros((9, 1)), 0.0, 1.0, 60, options
            )
        exc = info.value
        assert exc.checkpoint is not None
        assert exc.checkpoint.kind == "mpde_envelope"
        assert exc.iterations is not None
        assert exc.partial_result is not None

    def test_resume_rejects_wrong_kind(self):
        dae, forcing = self.setup_problem()
        checkpoint = Checkpoint(kind="transient", step=0, t=0.0, dt=0.1)
        with pytest.raises(SimulationError, match="transient"):
            solve_mpde_envelope(
                dae, forcing, np.zeros((9, 1)), 0.0, 1.0, 60,
                resume_from=checkpoint,
            )

"""The four benchmark workloads: seeded request sets, checks and references.

Each workload turns a seed into a fixed request set and an independent
reference built during set-up.  The request set has a fixed composition
(how many requests of each kind and size); the seed draws the continuous
parameters inside each slot and the submission order.  That keeps the
cost of one pass nearly seed-independent while the inputs still vary.

A workload object exposes

* ``generate(seed)`` -> the request set (anchors included);
* ``reference(requests)`` -> the independent reference for the anchors;
* ``setup(seed)`` -> both, as the context the passes run against;
* ``start_pass(ctx)`` / ``finish_pass(ctx, state)`` -> per-pass state
  (the service of a pass, the anchor errors it collected);
* ``execute(ctx, state, request)`` -> result (the timed part);
* ``check(ctx, state, request, result)`` -> failure reason or ``""``.

``accuracy_err`` always comes from fixed anchor requests, never from the
seeded ones, so it does not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.circuits.library import (
    F_NOMINAL,
    T_NOMINAL,
    MemsVcoDae,
    VcoParams,
    rc_diode_mixer_circuit,
)

VARIANTS = {"vacuum": VcoParams.vacuum, "air": VcoParams.air}


@dataclass
class Request:
    """One request of a workload's request set."""

    label: str
    kind: str
    payload: object
    #: The request this one resubmits unchanged (exact replays).
    replay_of: Request | None = None
    anchor: str = ""


@dataclass
class PassState:
    """What one pass over the request set accumulates."""

    client: object = None
    results: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)


def _finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=float)))
               for a in arrays)


def _vco(variant, constant_control=False, **overrides):
    params = replace(VARIANTS[variant](), **overrides)
    return MemsVcoDae(params, constant_control=constant_control)


def _transient_options(dt, **extra):
    from repro.transient import TransientOptions

    return TransientOptions(integrator="trap", dt=dt, **extra)


def _scaled_deviation(value, reference):
    """Max over variables of |value - reference| / max|reference|."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = np.abs(reference).reshape(-1, reference.shape[-1]).max(axis=0)
    scale = np.where(scale > 0, scale, 1.0)
    return float(np.max(np.abs(value - reference) / scale))


def _shuffle_with_anchors(rng, requests, anchors):
    """Seeded order for ``requests``, anchors inserted at seeded slots."""
    requests = [requests[i] for i in rng.permutation(len(requests))]
    for anchor in anchors:
        requests.insert(int(rng.integers(len(requests) + 1)), anchor)
    return requests


def _anchor(requests, name):
    return next(r for r in requests if r.anchor == name)


class Workload:
    name = ""
    why = ""

    def setup(self, seed):
        """Inputs generated from ``seed`` plus the independent reference."""
        requests = self.generate(seed)
        return {"requests": requests, "reference": self.reference(requests)}

    def start_pass(self, ctx):
        return PassState()

    def finish_pass(self, ctx, state):
        """Close per-pass resources; returns the pass's anchor errors."""
        return state.errors


# -- vco_envelope -----------------------------------------------------------


class VcoEnvelope(Workload):
    """Cold WaMPDE envelope requests through ``SimulationService(workers=0)``.

    Four seeded oscillator families (two per VCO variant, each with its
    own control offset from a validated grid and its own amplitude) get
    eight windows of 1-3 control periods each; ten exact resubmissions
    are mixed in, and two fixed
    anchors: the Fig-12 air run (phase error against a 1000 pts/cycle
    compiled transient) and the Fig-7 vacuum control period.
    """

    name = "vco_envelope"
    why = ("cold envelope requests through the service: wampde march, "
           "chord reuse, family-seed hits and exact replays")

    #: (variant, envelope steps per control period).
    FAMILIES = (("vacuum", 50), ("vacuum", 50), ("air", 100), ("air", 100))
    #: Family control offsets: a grid on which the §4.1 autonomous HB
    #: converges for both variants.  Drawn freely, some offsets (air at
    #: 1.675 V) exhaust the 80-iteration Newton budget.
    OFFSETS = tuple(round(1.30 + 0.02 * k, 2) for k in range(21))
    WINDOWS = (1, 2, 3, 1, 2, 3, 1, 2)
    REPLAYS = 10
    REPLAY_GAP = 8
    FIG12_HORIZON = 0.36e-3
    FIG12_STEPS = 120

    def generate(self, seed):
        from repro.api import EnvelopeRequest
        from repro.wampde import (
            WampdeEnvelopeOptions,
            oscillator_initial_condition,
        )

        rng = np.random.default_rng(seed)
        offsets = rng.choice(self.OFFSETS, len(self.FAMILIES), replace=False)
        requests = []
        for (variant, steps_per_period), offset in zip(self.FAMILIES,
                                                       offsets):
            amplitude = rng.uniform(0.8, 1.1)
            for windows in self.WINDOWS:
                dae = _vco(variant, control_offset=offset,
                           control_amplitude=amplitude)
                period = dae.params.control_period
                span = windows * period * rng.uniform(0.95, 1.05)
                requests.append(Request(
                    f"{variant}:{offset:.3f}V:{windows}T", "envelope",
                    EnvelopeRequest(
                        dae=dae, t2_start=0.0, t2_stop=span,
                        num_steps=windows * steps_per_period,
                        unforced_dae=_vco(variant, True,
                                          control_offset=offset,
                                          control_amplitude=amplitude),
                        num_t1=25, period_guess=T_NOMINAL,
                    ),
                ))
        requests = [requests[i] for i in rng.permutation(len(requests))]
        # Exact resubmissions, each placed at most REPLAY_GAP requests
        # after the one it repeats: the service keeps only the 32 newest
        # results, and a replay past that window is (correctly) a miss.
        for _ in range(self.REPLAYS):
            source = int(rng.integers(len(requests)))
            while requests[source].replay_of is not None:
                source = int(rng.integers(len(requests)))
            original = requests[source]
            last = min(source + self.REPLAY_GAP, len(requests))
            requests.insert(
                int(rng.integers(source + 1, last + 1)),
                Request(original.label + ":replay", "envelope",
                        replace(original.payload), replay_of=original),
            )
        # Fixed anchors.
        air = _vco("air", True)
        samples, omega0 = oscillator_initial_condition(
            air, num_t1=25, period_guess=T_NOMINAL)
        fig12 = Request("anchor:fig12", "envelope", EnvelopeRequest(
            dae=_vco("air"), t2_start=0.0, t2_stop=self.FIG12_HORIZON,
            num_steps=self.FIG12_STEPS, initial_samples=samples,
            omega0=omega0,
            options=WampdeEnvelopeOptions(integrator="trap"),
        ), anchor="fig12")
        vacuum = VcoParams.vacuum()
        fig7 = Request("anchor:fig7", "envelope", EnvelopeRequest(
            dae=_vco("vacuum"), t2_start=0.0, t2_stop=vacuum.control_period,
            num_steps=100, unforced_dae=_vco("vacuum", True), num_t1=25,
            period_guess=T_NOMINAL,
        ), anchor="fig7")
        for anchor in (fig12, fig7):
            requests.insert(int(rng.integers(len(requests) + 1)), anchor)
        return requests

    def reference(self, requests):
        """The Fig-12 anchor's run as a 1000 pts/cycle compiled transient."""
        from repro.transient import simulate_transient

        anchor = _anchor(requests, "fig12").payload
        run = simulate_transient(
            anchor.dae, anchor.initial_samples[0], 0.0, self.FIG12_HORIZON,
            _transient_options(T_NOMINAL / 1000),
        )
        return run.t, run["v(tank)"]

    def start_pass(self, ctx):
        from repro.service import SimulationService

        return PassState(client=SimulationService(workers=0))

    def finish_pass(self, ctx, state):
        state.client.close()
        return state.errors

    def execute(self, ctx, state, request):
        job = state.client.submit(request.payload)
        result = job.outcome()
        state.results[id(request)] = (job, result)
        return result

    def check(self, ctx, state, request, result):
        from repro.analysis import phase_error_vs_reference

        job, _ = state.results[id(request)]
        if request.replay_of is not None:
            _, original = state.results[id(request.replay_of)]
            if not job.cache_hit:
                return "resubmission missed the result cache"
            if not (np.array_equal(result.omega, original.omega)
                    and np.array_equal(result.samples, original.samples)):
                return "cache replay is not bit-identical"
            return ""
        if not _finite(result.omega, result.samples):
            return "non-finite envelope"
        if result.omega.size != request.payload.num_steps + 1:
            return "envelope has the wrong number of steps"
        if not np.all((result.omega > 0.2e6) & (result.omega < 5e6)):
            return "local frequency outside 0.2-5 MHz"
        if request.anchor == "fig7":
            if abs(result.omega[0] / F_NOMINAL - 1.0) > 0.01:
                return f"Fig-7 anchor: f0 = {result.omega[0]:.0f} Hz"
            swing = result.omega.max() / result.omega.min()
            if not 2.5 <= swing <= 4.5:
                return f"Fig-7 anchor: frequency swing {swing:.2f}x"
        if request.anchor == "fig12":
            t_ref, v_ref = ctx["reference"]
            times = np.linspace(0.0, self.FIG12_HORIZON, 40000)
            _t, err = phase_error_vs_reference(
                times, result.reconstruct("v(tank)", times), t_ref, v_ref)
            state.errors["fig12_phase_cycles"] = float(np.abs(err).max())
            if not state.errors["fig12_phase_cycles"] < 0.01:
                return "Fig-12 anchor phase error above 0.01 cycles"
        return ""


# -- tuning_curve -----------------------------------------------------------


def _vco_at(variant, vc):
    return _vco(variant, True, control_offset=vc)


def _vco_stack(variant, values):
    return _vco(variant, True, control_offset=np.asarray(values))


def _sweep_request(variant, values, method):
    from repro.api import SweepRequest

    return SweepRequest(
        dae_factory=partial(_vco_at, variant),
        values=np.asarray(values, dtype=float), period_guess=T_NOMINAL,
        method=method, stacked_factory=partial(_vco_stack, variant),
    )


def _transient_frequency(variant, vc):
    """Oscillation frequency from a long 2000 pts/cycle compiled transient.

    The plate starts at its static displacement, so the overdamped air
    variant needs no mechanical settling.
    """
    from repro.steadystate.shooting import estimate_period_from_transient
    from repro.transient import simulate_transient

    z0 = VARIANTS[variant]().static_displacement(vc)
    run = simulate_transient(
        _vco_at(variant, vc), [1.0, 0.0, float(z0), 0.0], 0.0,
        120 * T_NOMINAL, _transient_options(T_NOMINAL / 2000),
    )
    return 1.0 / estimate_period_from_transient(run, key=0,
                                                skip_fraction=0.5)


class TuningCurve(Workload):
    """Fig-7 tuning-curve sweeps through ``repro.api.run``.

    Per VCO variant: eight 5-point ensemble sweeps (the CLI default) and
    six 2-point continuation sweeps (the library default), plus two
    anchors at 1.5 V checked against the period of long fine-step
    compiled transients.  Both methods draw from a fixed set of control
    voltages: the seed rotates the ensemble grid before cutting it into
    contiguous sub-ranges and shuffles the order.  Autonomous-HB
    iteration counts jump between neighbouring voltages (3 to 80, with
    rare outright failures at 80), so freely drawn voltages would make
    the cost of a pass, and its failures, depend on the seed.
    """

    name = "tuning_curve"
    why = ("autonomous-HB Newton convergence in continuation and ensemble "
           "sweeps; the envelope and the service are bypassed")

    #: Ensemble voltages per variant: 0.40-2.56 V, skipping points whose
    #: HB solve does not converge (1.95 V).
    ENSEMBLE_GRID = {
        "vacuum": tuple(round(0.40 + 0.04 * k, 2) for k in range(55)
                        if k != 39),
        "air": tuple(round(0.42 + 0.04 * k, 2) for k in range(54)),
    }
    POINTS = 5
    ENSEMBLES_PER_VARIANT = 8
    #: Continuation sweeps start at these voltages: two in the cheap
    #: low-voltage regime, two near the 1.5 V anchor and two in the
    #: 40-80-iteration regime that dominates the default sweep's cost.
    BANDS = (0.5, 0.9, 1.3, 1.5, 1.7, 2.1)

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        requests = []
        for variant in VARIANTS:
            full = self.ENSEMBLE_GRID[variant]
            picks = np.linspace(0, len(full) - 1,
                                self.ENSEMBLES_PER_VARIANT * self.POINTS)
            grid = np.array([full[int(round(i))] for i in picks])
            grid = np.roll(grid, int(rng.integers(grid.size)))
            for chunk in grid.reshape(-1, self.POINTS):
                chunk = np.sort(chunk)
                requests.append(Request(
                    f"ensemble:{variant}:{chunk[0]:.2f}-{chunk[-1]:.2f}V",
                    "sweep", _sweep_request(variant, chunk, "ensemble"),
                ))
            for start in self.BANDS:
                requests.append(Request(
                    f"continuation:{variant}:{start:.2f}V", "sweep",
                    _sweep_request(variant, [start, start + 0.05],
                                   "continuation"),
                ))
        return _shuffle_with_anchors(rng, requests, (
            Request("anchor:vacuum-1.5V", "sweep",
                    _sweep_request("vacuum", [1.5], "ensemble"),
                    anchor="vacuum"),
            Request("anchor:air-1.5V", "sweep",
                    _sweep_request("air", [1.5, 1.55], "continuation"),
                    anchor="air"),
        ))

    def reference(self, requests):
        """Anchor frequencies from long fine-step compiled transients."""
        return {
            anchor: [_transient_frequency(anchor, vc) for vc in
                     _anchor(requests, anchor).payload.values]
            for anchor in ("vacuum", "air")
        }

    def execute(self, ctx, state, request):
        from repro import api

        return api.run(request.payload)

    def check(self, ctx, state, request, result):
        values = np.asarray(request.payload.values)
        freqs = np.asarray(result.frequencies)
        if freqs.shape != values.shape or not _finite(freqs):
            return "sweep returned missing or non-finite points"
        if values.size > 1 and not np.all(np.diff(freqs) > 0):
            return "tuning curve is not increasing with Vc"
        # The static law ignores the van der Pol frequency pulling, which
        # grows to ~11% at 2.6 V.
        law = VARIANTS[request.payload.dae_factory.args[0]]() \
            .static_frequency(values)
        if not np.all(np.abs(freqs / law - 1.0) < 0.15):
            return "frequency more than 15% off the static tuning law"
        if request.anchor:
            if abs(freqs[0] / F_NOMINAL - 1.0) > 0.01:
                return f"anchor: f(1.5 V) = {freqs[0]:.0f} Hz"
            ref = np.asarray(ctx["reference"][request.anchor])
            state.errors[request.anchor] = float(
                np.max(np.abs(freqs / ref - 1.0)))
        return ""


# -- large_bvp --------------------------------------------------------------


def _rectifier(amplitude):
    return rc_diode_mixer_circuit(
        lo_amplitude=0.0, rf_amplitude=amplitude, rf_frequency=1e4
    ).to_dae()


def _mixer_problem(lo_amplitude):
    from repro.constants import TWO_PI
    from repro.mpde import additive_two_tone_forcing

    dae = rc_diode_mixer_circuit().to_dae()
    n = dae.n

    def fast(t1):
        b = np.zeros(n)
        b[-1] = 0.6 + 0.05 * np.sin(TWO_PI * 1e5 * t1)
        return b

    def slow(t2):
        b = np.zeros(n)
        b[-1] = lo_amplitude * np.sin(TWO_PI * 1e3 * t2)
        return b

    return dae, additive_two_tone_forcing(fast, slow, 1e-5, 1e-3, n)


@dataclass
class QuasiperiodicCall:
    """``solve_mpde_quasiperiodic`` arguments (not an API request type)."""

    dae: object
    forcing: object
    grid: int
    initial: object
    options: object = None


class LargeBvp(Workload):
    """Large boundary-value problems: forced HB and bi-periodic MPDE.

    Forced ``HBRequest`` s on the RC-diode rectifier at 301-801 samples
    (seeded drive within +-5%) and ``solve_mpde_quasiperiodic`` on the
    diode mixer at 21^2-29^2 grids (seeded LO amplitude), plus two
    anchors compared with the same problems solved at a finer resolution
    in set-up with explicitly requested full-Newton/direct-LU options.
    """

    name = "large_bvp"
    why = ("large-N collocation with dense Fourier coupling: Jacobian "
           "assembly and SuperLU factorisation dominate")

    #: Two 401-sample solves sit beside the 25^2 QP at the median of the
    #: ten requests, so ``latency_p50_s`` falls between near-equal costs.
    HB_SIZES = (301, 401, 401, 601, 801)
    QP_GRIDS = (21, 25, 29)
    HB_PERIOD = 1e-4

    def _hb(self, amplitude, size, solver_options=None):
        from repro.api import HBRequest
        from repro.steadystate import dc_operating_point

        dae = _rectifier(amplitude)
        x_dc = dc_operating_point(dae)
        return HBRequest(dae=dae, mode="forced", period=self.HB_PERIOD,
                         num_samples=size, initial=np.tile(x_dc, (size, 1)),
                         solver_options=solver_options)

    def _qp(self, lo_amplitude, grid, options=None):
        from repro.steadystate import dc_operating_point

        dae, forcing = _mixer_problem(lo_amplitude)
        return QuasiperiodicCall(dae, forcing, grid, dc_operating_point(dae),
                                 options)

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        requests = []
        for size in self.HB_SIZES:
            amplitude = 0.3 * rng.uniform(0.95, 1.05)
            requests.append(Request(f"hb:{size}:{amplitude:.4f}V", "hb",
                                    self._hb(amplitude, size)))
        for grid in self.QP_GRIDS:
            lo = 0.4 * rng.uniform(0.95, 1.05)
            requests.append(Request(f"qp:{grid}x{grid}:{lo:.4f}V", "qp",
                                    self._qp(lo, grid)))
        return _shuffle_with_anchors(rng, requests, (
            Request("anchor:hb:301", "hb", self._hb(0.3, 301),
                    anchor="hb"),
            Request("anchor:qp:21x21", "qp", self._qp(0.4, 21),
                    anchor="qp"),
        ))

    def reference(self, requests):
        """The anchor problems at a finer resolution, solved with
        explicitly requested full-Newton/direct-LU options."""
        from repro import api
        from repro.linalg.solver_core import SolverCoreOptions
        from repro.mpde import solve_mpde_quasiperiodic
        from repro.mpde.quasiperiodic import MpdeQuasiperiodicOptions

        direct = SolverCoreOptions(mode="full", linear_solver="lu")
        hb_reference = api.run(self._hb(0.3, 451, solver_options=direct))
        qp = self._qp(0.4, 25, MpdeQuasiperiodicOptions(
            newton_mode="full", linear_solver="lu"))
        qp_reference = solve_mpde_quasiperiodic(
            qp.dae, qp.forcing, num_t1=qp.grid, num_t2=qp.grid,
            initial=qp.initial, options=qp.options)
        return {"hb": hb_reference, "qp": qp_reference}

    def execute(self, ctx, state, request):
        from repro import api
        from repro.mpde import solve_mpde_quasiperiodic

        if request.kind == "hb":
            return api.run(request.payload)
        call = request.payload
        return solve_mpde_quasiperiodic(
            call.dae, call.forcing, num_t1=call.grid, num_t2=call.grid,
            initial=call.initial, options=call.options)

    def check(self, ctx, state, request, result):
        if not _finite(result.samples):
            return "non-finite solution samples"
        if request.kind == "hb":
            if result.samples.shape[0] != request.payload.num_samples:
                return "HB returned the wrong sample count"
            if abs(result.period - self.HB_PERIOD) > 1e-15:
                return "forced HB changed the period"
        if request.anchor == "hb":
            times = np.linspace(0.0, self.HB_PERIOD, 997, endpoint=False)
            reference = ctx["reference"]["hb"].evaluate(times)
            state.errors["hb"] = _scaled_deviation(
                result.evaluate(times), reference)
        elif request.anchor == "qp":
            reference = ctx["reference"]["qp"]
            times = np.linspace(0.0, 1e-3, 4001)
            state.errors["qp"] = max(
                _scaled_deviation(result.reconstruct(k, times)[:, None],
                                  reference.reconstruct(k, times)[:, None])
                for k in range(result.samples.shape[-1]))
        return ""


# -- transient_march --------------------------------------------------------


def _adaptive_request(vc, horizon):
    from repro.api import TransientRequest

    return TransientRequest(
        dae=_vco_at("vacuum", vc), x0=[1.0, 0.0, 0.0, 0.0],
        t_start=0.0, t_stop=horizon,
        options=_transient_options(T_NOMINAL / 500, adaptive=True,
                                   max_steps=2_000_000),
    )


def _ensemble_request(values, horizon):
    from repro.api import EnsembleRequest
    from repro.dae import ensemble_from_factory

    values = np.asarray(values, dtype=float)
    dae = ensemble_from_factory(
        partial(_vco_at, "vacuum"), values,
        partial(_vco_stack, "vacuum"),
    )
    return EnsembleRequest(
        dae=dae, x0=np.tile([1.0, 0.0, 0.0, 0.0], (values.size, 1)),
        t_start=0.0, t_stop=horizon,
        options=_transient_options(T_NOMINAL / 100),
    )


class TransientMarch(Workload):
    """Compiled transient marches with ``kernel="auto"``.

    Fig-12 air runs at 50, 100 and 1000 pts/cycle over seeded horizons,
    vacuum adaptive runs at seeded control voltages, and control-voltage
    ensembles at B in {8, 64, 256} over seeded ranges; plus anchors: the Fig-12 50/100
    pts/cycle pair (phase-error ordering), one adaptive run and one B=8
    ensemble compared with fixed-step references run in set-up.
    """

    name = "transient_march"
    why = ("compiled kernel sweeps and transient march bookkeeping; no "
           "collocation at all")

    PTS = (50, 100, 1000)
    RUNS_PER_RATE = 6
    ADAPTIVE_RUNS = 12
    #: Ensemble size -> requests per pass.  The counts put the median
    #: inside the B = 64 group rather than at a gap between groups.
    ENSEMBLES = {8: 8, 64: 14, 256: 8}
    FIG12_HORIZON = 0.3e-3
    ADAPTIVE_HORIZON = 20 * T_NOMINAL
    ENSEMBLE_HORIZON = 10 * T_NOMINAL
    ANCHOR_VALUES = tuple(np.linspace(0.8, 2.4, 8))

    def generate(self, seed):
        from repro.api import TransientRequest
        from repro.wampde import oscillator_initial_condition

        rng = np.random.default_rng(seed)
        samples, _ = oscillator_initial_condition(
            _vco("air", True), num_t1=25, period_guess=T_NOMINAL)
        x0 = samples[0]
        forced = _vco("air")

        def fig12(pts, horizon, anchor=""):
            return Request(
                f"fig12:{pts}pts:{horizon * 1e3:.3f}ms", "transient",
                TransientRequest(dae=forced, x0=x0, t_start=0.0,
                                 t_stop=horizon,
                                 options=_transient_options(T_NOMINAL / pts)),
                anchor=anchor)

        requests = []
        for pts in self.PTS:
            for _ in range(self.RUNS_PER_RATE):
                requests.append(fig12(pts, rng.uniform(0.15e-3, 0.25e-3)))
        for _ in range(self.ADAPTIVE_RUNS):
            vc = rng.uniform(0.8, 2.4)
            requests.append(Request(
                f"adaptive:{vc:.3f}V", "transient",
                _adaptive_request(vc, self.ADAPTIVE_HORIZON)))
        for size, count in self.ENSEMBLES.items():
            for _ in range(count):
                lo, hi = rng.uniform(0.6, 1.2), rng.uniform(1.8, 2.4)
                requests.append(Request(
                    f"ensemble:B{size}:{lo:.2f}-{hi:.2f}V", "ensemble",
                    _ensemble_request(np.linspace(lo, hi, size),
                                      self.ENSEMBLE_HORIZON)))
        return _shuffle_with_anchors(rng, requests, (
            fig12(50, self.FIG12_HORIZON, anchor="fig12-50"),
            fig12(100, self.FIG12_HORIZON, anchor="fig12-100"),
            Request("anchor:adaptive:1.5V", "transient",
                    _adaptive_request(1.5, self.ADAPTIVE_HORIZON),
                    anchor="adaptive"),
            Request("anchor:ensemble:B8", "ensemble",
                    _ensemble_request(self.ANCHOR_VALUES,
                                      self.ENSEMBLE_HORIZON),
                    anchor="ensemble"),
        ))

    def reference(self, requests):
        """Fixed-step references: the Fig-12 run at 1000 pts/cycle, the
        adaptive anchor at 4000 pts/cycle and each ensemble member alone."""
        from repro.transient import simulate_transient

        fig12 = _anchor(requests, "fig12-50").payload
        fig12_reference = simulate_transient(
            fig12.dae, fig12.x0, 0.0, self.FIG12_HORIZON,
            _transient_options(T_NOMINAL / 1000))
        adaptive_reference = simulate_transient(
            _vco_at("vacuum", 1.5), [1.0, 0.0, 0.0, 0.0], 0.0,
            self.ADAPTIVE_HORIZON, _transient_options(T_NOMINAL / 4000))
        member_references = np.stack([
            simulate_transient(
                _vco_at("vacuum", vc), [1.0, 0.0, 0.0, 0.0], 0.0,
                self.ENSEMBLE_HORIZON, _transient_options(T_NOMINAL / 100),
            ).x for vc in self.ANCHOR_VALUES
        ], axis=1)
        return {
            "fig12": (fig12_reference.t, fig12_reference["v(tank)"]),
            "adaptive": np.asarray(adaptive_reference.x),
            "ensemble": member_references,
        }

    def execute(self, ctx, state, request):
        from repro import api

        return api.run(request.payload)

    def check(self, ctx, state, request, result):
        from repro.analysis import phase_error_vs_reference

        x = np.asarray(result.x)
        if not _finite(x) or result.stats.get("steps", 0) <= 0:
            return "non-finite or empty trajectory"
        reference = ctx["reference"]
        if request.anchor.startswith("fig12"):
            t_ref, v_ref = reference["fig12"]
            _t, err = phase_error_vs_reference(
                result.t, result["v(tank)"], t_ref, v_ref)
            state.results[request.anchor] = float(np.abs(err).max())
            pair = [state.results.get(k) for k in ("fig12-50", "fig12-100")]
            if None not in pair and not pair[0] > pair[1]:
                return "Fig-12 ordering: 50 pts/cycle is not worse than 100"
        elif request.anchor in ("adaptive", "ensemble"):
            # Final state against the fixed-step reference, per variable
            # scaled by the reference trajectory's largest magnitude.
            ref = reference[request.anchor]
            scale = np.abs(ref).reshape(-1, ref.shape[-1]).max(axis=0)
            state.errors[request.anchor] = float(np.max(
                np.abs(x[-1] - ref[-1]) / scale))
        return ""


WORKLOADS = {
    workload.name: workload
    for workload in (VcoEnvelope(), TuningCurve(), LargeBvp(),
                     TransientMarch())
}

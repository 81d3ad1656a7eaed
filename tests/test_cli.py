"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_vco_defaults(self):
        args = build_parser().parse_args(["vco"])
        assert args.variant == "vacuum"
        assert args.num_t1 == 25

    def test_vco_rejects_unknown_variant(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["vco", "--variant", "plasma"])

    def test_phase_error_horizon(self):
        args = build_parser().parse_args(
            ["phase-error", "--horizon", "1e-4"]
        )
        assert args.horizon == "1e-4"

    def test_solver_knobs_parsed(self):
        args = build_parser().parse_args(
            ["vco", "--newton", "full", "--linear-solver", "gmres"]
        )
        assert args.newton == "full"
        assert args.linear_solver == "gmres"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["vco", "--threads", "4"])

    def test_chord_plus_gmres_rejected(self):
        from repro.cli import _envelope_options

        args = build_parser().parse_args(
            ["vco", "--newton", "chord", "--linear-solver", "gmres"]
        )
        with pytest.raises(SystemExit, match="chord"):
            _envelope_options(args)

    def test_gmres_alone_implies_full_mode(self):
        from repro.cli import _envelope_options

        args = build_parser().parse_args(
            ["vco", "--linear-solver", "gmres"]
        )
        options = _envelope_options(args)
        assert options.newton_mode == "full"
        assert options.linear_solver == "gmres"


class TestCommands:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "vacuum calibration" in out
        assert "air calibration" in out
        assert "0.750" in out  # nominal MHz

    def test_fm_runs(self, capsys):
        assert main(["fm"]) == 0
        out = capsys.readouterr().out
        assert "750" in out  # Fig 1 sample count
        assert "225" in out  # Fig 2 sample count

    def test_vco_short_run(self, capsys, tmp_path):
        code = main([
            "vco", "--variant", "vacuum",
            "--horizon", "5e-6", "--steps", "50",
            "--csv", str(tmp_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "free-running: 0.75" in out
        assert (tmp_path / "vco_vacuum_frequency.csv").exists()

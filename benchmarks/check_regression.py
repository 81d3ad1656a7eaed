#!/usr/bin/env python
"""Perf-regression gate for the speedup bench.

Compares the freshly written ``BENCH_speedup.json`` against the committed
baseline ``BENCH_baseline.json`` and fails (exit code 1) when the perf
trajectory regresses:

* any method's ``wall_time_s`` exceeds its baseline by more than
  ``--max-slowdown`` (default 1.25, i.e. a >25% slowdown);
* any method's ``phase_error_cycles`` worsens beyond tolerance
  (``baseline + max(--phase-atol, --phase-rtol * baseline)``);
* a baseline method is missing from the current record.

Methods present only in the current record are reported but pass — they
start being ratcheted at the next re-baseline.  See
``benchmarks/README.md`` for the intentional re-baselining workflow.

Usage::

    python benchmarks/check_regression.py \
        [--baseline BENCH_baseline.json] [--current BENCH_speedup.json] \
        [--max-slowdown 1.25] [--phase-atol 0.02] [--phase-rtol 0.10]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_methods(path):
    """Map ``name -> method record`` from a BENCH json file."""
    payload = json.loads(Path(path).read_text())
    methods = payload.get("methods")
    if not isinstance(methods, list):
        raise ValueError(f"{path}: no 'methods' list")
    return {entry["name"]: entry for entry in methods}


def compare(baseline, current, max_slowdown, phase_atol, phase_rtol):
    """Return ``(failures, report_lines)`` for the two method maps."""
    failures = []
    lines = []
    for name, base in sorted(baseline.items()):
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: present in baseline but missing from "
                            f"current record")
            continue
        base_mode = base.get("kernel_mode")
        cur_mode = cur.get("kernel_mode")
        if base_mode is not None and cur_mode != base_mode:
            # A compiled entry timed on a host without the baseline's
            # backend (a C-kernel baseline on a host without a C
            # toolchain, which runs the NumPy engine) is a capability
            # difference, not a perf regression — report, don't gate.
            lines.append(
                f"{name}: kernel mode {cur_mode!r} != baseline "
                f"{base_mode!r}; wall gate skipped"
            )
            continue
        base_wall = float(base["wall_time_s"])
        cur_wall = float(cur["wall_time_s"])
        ratio = cur_wall / base_wall if base_wall > 0 else float("inf")
        wall_ok = ratio <= max_slowdown
        lines.append(
            f"{name}: wall {cur_wall:.3f}s vs baseline {base_wall:.3f}s "
            f"({ratio:.2f}x) [{'ok' if wall_ok else 'FAIL'}]"
        )
        if not wall_ok:
            failures.append(
                f"{name}: wall_time_s regressed {ratio:.2f}x "
                f"({base_wall:.3f}s -> {cur_wall:.3f}s, "
                f"limit {max_slowdown:.2f}x)"
            )
        base_phase = base.get("phase_error_cycles")
        cur_phase = cur.get("phase_error_cycles")
        if base_phase is None or cur_phase is None:
            continue
        base_phase = float(base_phase)
        cur_phase = float(cur_phase)
        limit = base_phase + max(phase_atol, phase_rtol * abs(base_phase))
        phase_ok = cur_phase <= limit
        lines.append(
            f"{name}: phase error {cur_phase:.5f} cycles vs baseline "
            f"{base_phase:.5f} (limit {limit:.5f}) "
            f"[{'ok' if phase_ok else 'FAIL'}]"
        )
        if not phase_ok:
            failures.append(
                f"{name}: phase_error_cycles worsened "
                f"({base_phase:.5f} -> {cur_phase:.5f}, limit {limit:.5f})"
            )
    for name in sorted(set(current) - set(baseline)):
        lines.append(f"{name}: new method (not in baseline; not ratcheted)")
    return failures, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline",
                        default=str(REPO_ROOT / "BENCH_baseline.json"))
    parser.add_argument("--current",
                        default=str(REPO_ROOT / "BENCH_speedup.json"))
    parser.add_argument("--max-slowdown", type=float, default=1.25,
                        help="allowed wall_time_s ratio vs baseline")
    parser.add_argument("--phase-atol", type=float, default=0.02,
                        help="allowed absolute phase-error worsening [cycles]")
    parser.add_argument("--phase-rtol", type=float, default=0.10,
                        help="allowed relative phase-error worsening")
    args = parser.parse_args(argv)

    try:
        baseline = load_methods(args.baseline)
        current = load_methods(args.current)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures, lines = compare(
        baseline, current, args.max_slowdown, args.phase_atol,
        args.phase_rtol,
    )
    print(f"perf gate: {args.current} vs baseline {args.baseline}")
    for line in lines:
        print(f"  {line}")
    if failures:
        print(f"\nFAIL: {len(failures)} regression(s) vs baseline:")
        for failure in failures:
            print(f"  - {failure}")
        print("(intentional? re-baseline per benchmarks/README.md)")
        return 1
    print("\nOK: no perf regressions vs baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared utilities: argument validation, timing, text output."""

from repro.utils.validation import (
    check_finite,
    check_positive,
    check_nonnegative,
    check_in_range,
    check_odd,
    as_1d_array,
    as_2d_array,
)
from repro.utils.timing import WallTimer
from repro.utils.tables import format_table
from repro.utils.ascii_plot import ascii_plot
from repro.utils.csvio import write_csv, read_csv

__all__ = [
    "check_finite",
    "check_positive",
    "check_nonnegative",
    "check_in_range",
    "check_odd",
    "as_1d_array",
    "as_2d_array",
    "WallTimer",
    "format_table",
    "ascii_plot",
    "write_csv",
    "read_csv",
]

"""Experiment harness: published data, runners, tables and figures."""

from .experiments import (
    MEASURED_METHODS,
    circuit_for_device,
    render_cpu_table,
    render_device_comparison,
    run_device_experiment,
    run_method,
    selected_circuits,
)
from .figures import (
    Figure2Solution,
    figure1_schedule,
    figure2_solutions,
    figure3_regions,
    render_figure1,
    render_figure2,
    render_figure3,
)
from .report import generate_report
from .sweeps import SweepCell, render_sweep, sweep_config
from .convergence import (
    ConvergencePoint,
    TracePassPoint,
    convergence_from_trace,
    convergence_series,
    render_convergence,
    render_convergence_svg,
    render_pass_table,
    sparkline,
)
from .quality import PartitionQuality, analyze_partition, render_quality
from .rent import RentEstimate, estimate_rent_exponent
from .svg import figure2_svg, figure3_svg
from .published import (
    TABLE2_XC3020,
    TABLE3_XC3042,
    TABLE4_XC3090,
    TABLE5_XC2064,
    TABLE6_CPU_SECONDS,
    PublishedTable,
    published_table_for_device,
)
from .tables import format_cell, render_table

__all__ = [
    "MEASURED_METHODS",
    "run_method",
    "run_device_experiment",
    "render_device_comparison",
    "render_cpu_table",
    "selected_circuits",
    "circuit_for_device",
    "figure1_schedule",
    "render_figure1",
    "Figure2Solution",
    "figure2_solutions",
    "render_figure2",
    "figure3_regions",
    "render_figure3",
    "PublishedTable",
    "published_table_for_device",
    "TABLE2_XC3020",
    "TABLE3_XC3042",
    "TABLE4_XC3090",
    "TABLE5_XC2064",
    "TABLE6_CPU_SECONDS",
    "render_table",
    "format_cell",
    "PartitionQuality",
    "analyze_partition",
    "render_quality",
    "figure2_svg",
    "figure3_svg",
    "RentEstimate",
    "estimate_rent_exponent",
    "ConvergencePoint",
    "convergence_series",
    "sparkline",
    "render_convergence",
    "TracePassPoint",
    "convergence_from_trace",
    "render_pass_table",
    "render_convergence_svg",
    "generate_report",
    "SweepCell",
    "sweep_config",
    "render_sweep",
]
